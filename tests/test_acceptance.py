"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to watch the PASS lines as
they happen; the sunlet run is the only slow item and is shared across tests.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest

from implicitize import (
    EngineOptions,
    components_of_kernel,
    enumerate_level,
    grading_for_map,
)
from implicitize.engine import assemble_component, trim_basis
from implicitize.linalg import exact_kernel
from implicitize.mapfile import emit_map_json

from support import (
    GR24_HOMOGENEITY,
    enumeration_suite,
    grading_suite,
    linalg_suite,
    mono_by_names,
    poly_by_names,
    random_monomial_map,
    rational_quadrics_map,
    reference_beta,
    ring_laws_suite,
    run_cli,
    sympy_oracle_check,
    sympy_rank,
)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {label}", flush=True)
        raise
    print(f"ACCEPTANCE {number}: PASS - {label}", flush=True)


@pytest.fixture(scope="module")
def sunlet_run(sunlet):
    started = time.perf_counter()
    result = components_of_kernel(sunlet, 3, EngineOptions(seed=0))
    return result, time.perf_counter() - started


def _component_by_reference(level, reference):
    for beta, basis in level.components.items():
        if reference_beta(basis.monomials[0]) == reference:
            return beta, basis
    raise AssertionError(f"no component with reference multidegree {reference}")


def test_criterion_1_grassmannian_golden(gr24):
    with criterion(1, "Gr(2,4): grading row space and d=3 generator set"):
        from implicitize import homogeneity_space

        basis = homogeneity_space(gr24)
        ours = sympy_rank(basis.full_vectors)
        golden = sympy_rank(GR24_HOMOGENEITY)
        stacked = sympy_rank(basis.full_vectors + GR24_HOMOGENEITY)
        assert ours == golden == stacked == 5

        started = time.perf_counter()
        result = components_of_kernel(gr24, 3)
        elapsed = time.perf_counter() - started
        assert result.counts_by_degree() == {2: 1}
        expected = poly_by_names(gr24, {"p12*p34": 1, "p13*p24": -1, "p23*p14": 1})
        assert result.generators[0].poly == expected
        assert elapsed < 1.0


def test_criterion_2_cusp_golden(cusp):
    with criterion(2, "cusp: rank-1 grading proportional to (2,2,2) and {xz - y^2}"):
        grading = grading_for_map(cusp)
        assert grading.rank == 1
        row = grading.A[0]
        assert row[0] == row[1] == row[2] != 0  # proportional to (2,2,2)
        assert [2 * v for v in row] == [row[0] * 2] * 3

        started = time.perf_counter()
        result = components_of_kernel(cusp, 2)
        elapsed = time.perf_counter() - started
        expected = poly_by_names(cusp, {"x*z": 1, "y^2": -1})
        assert [g.poly for g in result.generators] == [expected]
        assert elapsed < 1.0


def test_criterion_3_component_golden(gr24):
    with criterion(3, "Gr(2,4) level 2: 21 monomials, 19 components, kernel (1,-1,1)"):
        grading = grading_for_map(gr24)
        level = enumerate_level(grading, 2)
        assert level.monomial_count == 21
        assert len(level.components) == 19
        big = [b for b in level.components.values() if len(b.monomials) > 1]
        assert len(big) == 1 and len(big[0].monomials) == 3
        for mono in big[0].monomials:
            assert reference_beta(mono) == (2, 1, 1, 1, -1)
        matrix = assemble_component(gr24, list(big[0].monomials))
        assert matrix.shape[0] == 6
        assert exact_kernel(matrix).vectors == [[1, -1, 1]]


def test_criterion_4_trim_golden(gr24):
    with criterion(4, "Gr(2,4) trim at the lifted cubic component"):
        grading = grading_for_map(gr24)
        run = components_of_kernel(gr24, 2)
        levels = {d: enumerate_level(grading, d) for d in (1, 2, 3)}
        beta, basis = _component_by_reference(levels[3], (3, 1, 1, 2, -1))
        columns, lift_rank = trim_basis(run.generators, beta, 3, basis, levels)
        assert lift_rank == 1
        assert len(basis.monomials) - len(columns) == 1
        assert columns == [
            mono_by_names(gr24, {"p13": 1, "p24": 1, "p34": 1}),
            mono_by_names(gr24, {"p23": 1, "p14": 1, "p34": 1}),
        ]
        assert exact_kernel(assemble_component(gr24, columns)).dimension == 0


def test_criterion_5_sunlet(sunlet_run):
    with criterion(5, "4-sunlet K3P: 12 quadrics, 64 cubics, 2080 level-2 monomials"):
        result, elapsed = sunlet_run
        assert result.counts_by_degree() == {2: 12, 3: 64}
        by_degree = {s.weighted_degree: s for s in result.level_stats}
        assert by_degree[2].monomials == 2080
        assert by_degree[3].monomials == 45760
        for degree in (2, 3):
            stats = by_degree[degree]
            skipped = stats.skipped_matroid + stats.skipped_prescreen
            assert skipped >= 0.90 * stats.components
        assert elapsed <= 15 * 60


FIXTURE_SPECS = (
    ("gr24", 3),
    ("gr25", 3),
    ("cusp", 3),
    ("monomial-0", 3),
    ("monomial-1", 3),
    ("monomial-2", 3),
)


def _fixture_maps(gr24, gr25, cusp):
    rng = random.Random(424242)
    maps = {"gr24": gr24, "gr25": gr25, "cusp": cusp}
    for k in range(3):
        maps[f"monomial-{k}"] = random_monomial_map(
            rng, rng.randint(2, 6), rng.randint(2, 4), rng.randint(1, 3)
        )
    return maps


def test_criterion_6_oracle_equivalence(gr24, gr25, cusp):
    with criterion(6, "generators vanish, counts and span match the sympy oracle"):
        maps = _fixture_maps(gr24, gr25, cusp)
        maps["rational-quadrics"] = rational_quadrics_map()
        counts = {}
        for name, bound in FIXTURE_SPECS + (("rational-quadrics", 3),):
            phi = maps[name]
            result = components_of_kernel(phi, bound)
            counts[name] = sympy_oracle_check(phi, result, bound)
            assert result.counts_by_degree() == counts[name], name
        assert counts["rational-quadrics"] == {3: 7}  # cubics, rational coefficients


def test_criterion_7_skip_ab_identical(gr24, gr25, cusp, tmp_path):
    with criterion(7, "--no-prescreen output is byte-identical"):
        maps = _fixture_maps(gr24, gr25, cusp)
        for name, bound in FIXTURE_SPECS:
            path = tmp_path / f"{name}.json"
            path.write_text(emit_map_json(maps[name]), encoding="utf-8")
            base_args = ["run", "--map", str(path), "-d", str(bound), "--seed", "0"]
            code_a, out_a, _ = run_cli(base_args)
            code_b, out_b, _ = run_cli(base_args + ["--no-prescreen"])
            assert code_a == code_b == 0
            assert out_a == out_b, name


def test_criterion_8_determinism(gr24, gr25, cusp, tmp_path):
    with criterion(8, "byte-identical output across seeds, primes, hash seeds"):
        maps = _fixture_maps(gr24, gr25, cusp)
        variants = (
            (["--seed", "7"], "0"),
            (["--seed", "0"], "1"),
            (["--seed", "12345"], "2"),
            (["--seed", "7", "--prime", "3"], "3"),
            (["--seed", "7", "--prime", "5"], "0"),
            (["--seed", "7", "--prime", "101"], "1"),
        )
        for name, bound in FIXTURE_SPECS:
            path = tmp_path / f"{name}.json"
            path.write_text(emit_map_json(maps[name]), encoding="utf-8")
            base = ["run", "--map", str(path), "-d", str(bound)]
            outputs = []
            for extra, hashseed in variants:
                code, out, _ = run_cli(base + extra, hashseed=hashseed)
                assert code == 0
                outputs.append(out)
            assert len(set(outputs)) == 1, name


def test_criterion_9_property_suites():
    with criterion(9, "randomized property suites, 1000 cases each"):
        assert ring_laws_suite(1000) == 1000
        assert grading_suite(1000) == 1000
        assert enumeration_suite(1000) == 1000
        assert linalg_suite(1000) == 1000
