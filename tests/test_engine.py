from __future__ import annotations

import gc
import hashlib
import inspect
import itertools
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from implicitize import (
    DEFAULT_PRIME,
    Monomial,
    MonomialPacking,
    Polynomial,
    RingMap,
    components_of_kernel,
    enumerate_level,
    grading_for_map,
    sunlet_k3p_symmetries,
)
from implicitize import cli, engine
from implicitize.engine import (
    EngineInvariantError,
    LiftSource,
    component_rows,
    push_index,
    trim_basis,
)
from implicitize.grading import NoPositiveWeightError
from implicitize.linalg import nullspace_primitive
from implicitize.mapfile import emit_map_text
from implicitize.polyring import IntegerImages

from support import (
    GR24_QUADRIC_COMPONENT,
    assembled_rows,
    bulk_certified,
    cleared,
    counts_by_degree,
    generic_cubics_map,
    mono_by_names,
    poly_by_names,
    random_monomial_map,
    rational_quadrics_map,
    raw_lift_sources,
    refuted_guess_maps,
    reference_beta,
    shared_levels,
    spy_certificates,
    sympy_oracle_check,
    sympy_pivots_mod_p,
    sympy_rref_and_nullspace,
    unpacked,
)


# stdout of `implicit run -d 3` on refuted_guess_maps()[2]
DENSE_RELATION_D3_SHA256 = "2f74b2e6aa7dca6af41cd020d37c0485335f8d03e7dda2b6e1364a6c879973ea"


def pluecker_quadric(gr24):
    return poly_by_names(gr24, {"p12*p34": 1, "p13*p24": -1, "p23*p14": 1})


def find_component(level, reference):
    """Locate a component by its multidegree in the golden reference basis."""
    for beta, basis in level.components.items():
        if reference_beta(level.packing.monomial(basis[0])) == reference:
            return beta, basis
    raise AssertionError(f"no component with reference multidegree {reference}")


def test_assemble_quadric_component(gr24):
    grading = grading_for_map(gr24)
    level = enumerate_level(grading, 2)
    _, basis = find_component(level, (2, 1, 1, 1, -1))
    rows = assembled_rows(gr24, unpacked(level, basis))
    assert len(rows) == 6 and len(basis) == 3
    dense = sorted(
        [int(row.get(c, 0)) for c in range(3)] for row in rows
    )
    assert dense == sorted(GR24_QUADRIC_COMPONENT)
    assert nullspace_primitive(rows, 3) == [[1, -1, 1]]


def test_assemble_full_degree_two(gr24):
    # the untrimmed, ungraded degree-2 system is 72 x 21 with a 1-dim kernel
    grading = grading_for_map(gr24)
    monos = []
    level = enumerate_level(grading, 2)
    for basis in level.components.values():
        monos.extend(unpacked(level, basis))
    assert len(monos) == 21
    rows = assembled_rows(gr24, monos)
    assert len(rows) == 72
    assert len(nullspace_primitive(rows, 21)) == 1


def test_assemble_zero_image_column():
    phi = RingMap([Polynomial(1)], m=1, domain_names=["x"], codomain_names=["t"])
    rows = assembled_rows(phi, [Monomial.variable(0)])
    assert rows == []
    assert nullspace_primitive(rows, 1) == [[1]]


def test_trim_cubic_component(gr24):
    grading = grading_for_map(gr24)
    run = components_of_kernel(gr24, 2)
    assert len(run.generators) == 1
    levels = shared_levels(grading, 3)
    beta, basis = find_component(levels[3], (3, 1, 1, 2, -1))
    assert unpacked(levels[3], basis) == [
        mono_by_names(gr24, {"p12": 1, "p34": 2}),
        mono_by_names(gr24, {"p13": 1, "p24": 1, "p34": 1}),
        mono_by_names(gr24, {"p23": 1, "p14": 1, "p34": 1}),
    ]
    lifts = push_index(raw_lift_sources(run.generators, levels[3].packing), levels[3], levels)[beta]
    assert [len(gammas) for _, _, gammas in lifts] == [1]  # p34 * quadric
    columns, lift_rank = trim_basis(basis, lifts)
    assert lift_rank == 1
    columns = unpacked(levels[3], columns)
    assert columns == [
        mono_by_names(gr24, {"p13": 1, "p24": 1, "p34": 1}),
        mono_by_names(gr24, {"p23": 1, "p14": 1, "p34": 1}),
    ]
    rows = assembled_rows(gr24, columns)
    assert len(rows) == 10
    assert nullspace_primitive(rows, 2) == []


def test_trim_with_no_generators(gr24):
    grading = grading_for_map(gr24)
    level = enumerate_level(grading, 2)
    levels = shared_levels(grading, 2)
    beta, basis = next(iter(levels[2].components.items()))
    assert push_index([], levels[2], levels) == {}
    columns, lift_rank = trim_basis(basis, [])
    assert columns == list(basis) and lift_rank == 0


def test_trim_without_compatible_degrees(cusp):
    grading = grading_for_map(cusp)
    run = components_of_kernel(cusp, 2)
    levels = shared_levels(grading, 3)
    # at level 3 the only generator has degree 2; shifting it by one variable
    # covers beta (6,), so a mismatched beta keeps the full basis
    level3 = levels[3]
    (beta3, basis3), = level3.components.items()
    index = push_index(raw_lift_sources(run.generators, level3.packing), level3, levels)
    assert list(index) == [beta3]
    columns, lift_rank = trim_basis(basis3, index.get(beta3 + 1, []))
    assert lift_rank == 0 and columns == list(basis3)
    columns, lift_rank = trim_basis(basis3, index[beta3])
    assert lift_rank == 3  # x*f, y*f, z*f are independent shifts
    # levels enumerated with different packings cannot be combined
    mixed = {d: enumerate_level(grading, d) for d in (1, 2, 3)}
    with pytest.raises(ValueError):
        push_index(raw_lift_sources(run.generators, mixed[3].packing), mixed[3], mixed)


def test_trim_matches_sympy_rref_of_shifted_generators(gr25):
    # the lift rows of a component built with no push index: each lower-degree
    # generator times each shift monomial, read in member order; the trim keeps
    # the columns that are not pivots of their rref, with the tail's columns
    # deleted, over Q and mod p
    import sympy

    checked = 0
    # the quadrics' cubic generators have dense coefficients of up to 83 digits;
    # their 35 lift rows over 70 members have rank 25, but 10 mod 3, and one
    # exact rref of them takes most of a second, so they are cut at no tail
    maps = ((gr25, 2, (3, 4), (0, 1, 2)), (rational_quadrics_map(), 3, (4,), (0,)))
    for phi, below, degrees, tails in maps:
        run = components_of_kernel(phi, below)
        levels = shared_levels(grading_for_map(phi), degrees[-1])
        for degree in degrees:
            level = levels[degree]
            index = push_index(raw_lift_sources(run.generators, level.packing), level, levels)
            products = [
                g.poly * Polynomial(phi.n, {Monomial((i, 1) for i in shift): 1})
                for g in run.generators
                for shift in itertools.combinations_with_replacement(range(phi.n), degree - g.weighted_degree)
            ]
            for key, basis in level.components.items():
                members = unpacked(level, basis)
                inside = set(members)
                lifted = [f for f in products if inside.intersection(f.terms)]
                assert all(inside.issuperset(f.terms) for f in lifted)
                assert bool(lifted) == (key in index)
                if not lifted:
                    continue
                rows = [[int(f.terms.get(m, 0)) for m in members] for f in lifted]
                for tail in tails:
                    cut = len(members) - tail
                    kept = [row[:cut] for row in rows]
                    for prime in (None, 3, DEFAULT_PRIME):
                        if prime:
                            pivots = sympy_pivots_mod_p(kept, cut, prime)
                        else:
                            pivots = list(sympy.Matrix(kept).rref()[1])
                        expected = [b for j, b in enumerate(basis) if j not in pivots], len(pivots)
                        assert trim_basis(basis, index[key], prime, tail) == expected, (degree, tail, prime)
                checked += 1
    assert checked == 161


def test_trim_pivot_keeps_column_prefixes_apart():
    # the lift row x11 - x12 has its pivot in a tail of two members: a trim cut
    # there finds no pivot, while a trim of a longer prefix finds it
    lifts = [((11, 12), (1, -1), (0,))]
    assert trim_basis((10, 11, 12), lifts, tail=2) == ([10, 11, 12], 0)
    assert trim_basis((10, 11, 12), lifts) == ([10, 12], 1)
    assert trim_basis((10, 11, 12), lifts, tail=1) == ([10, 12], 1)
    # the same rows and tail in a longer component leave a longer prefix
    assert trim_basis((10, 11, 12, 13), lifts, tail=2) == ([10, 12, 13], 1)


def test_trim_pivot_keeps_primes_apart():
    # 3 x10 + x11 leads at x10 over Q but at x11 mod 3
    lifts = [((10, 11), (3, 1), (0,))]
    assert trim_basis((10, 11, 12), lifts, 3) == ([10, 12], 1)
    assert trim_basis((10, 11, 12), lifts) == ([11, 12], 1)
    assert trim_basis((10, 11, 12), lifts, 5) == ([11, 12], 1)
    assert trim_basis((10, 11, 12), lifts, 3) == ([10, 12], 1)


def test_trim_rejects_a_lift_that_escapes_its_component():
    # every shift is looked up before the tail is cut: a lift monomial outside
    # the basis is an engine fault, also mod p and where it would sort into the
    # tail (9 lies below every member), never an entry to drop
    basis = (12, 11, 10)
    for lifts, stray in (([((12, 11), (1, -1), (0, -2))], 9), ([((12, 11), (1, -1), (1,))], 13)):
        for prime in (None, 3):
            for tail in (0, 1, 2):
                with pytest.raises(EngineInvariantError, match=f"^lift monomial {stray} escapes its component$"):
                    trim_basis(basis, lifts, prime, tail)


def received_sources(monkeypatch, phi, top):
    """The run of phi to `top`, and the lift sources `push_index` receives at each level, by degree."""
    received = {}
    push = engine.push_index

    def spy(sources, level, levels):
        received[level.weighted_degree] = list(sources)  # the run appends to its list
        return push(sources, level, levels)

    with monkeypatch.context() as patched:
        patched.setattr(engine, "push_index", spy)
        run = components_of_kernel(phi, top)
    return run, received


def test_lift_sources_are_reduced_bases(gr25, monkeypatch):
    # each level reads, for every (degree, beta) below it, the rational
    # reduced row echelon basis of its generators over their monomials in
    # component order, made primitive with a positive pivot (sympy's rref)
    reduced_groups = 0
    for phi, top in ((gr25, 4), (rational_quadrics_map(), 4), (generic_cubics_map(2), 4)):
        run, received = received_sources(monkeypatch, phi, top)
        packing = MonomialPacking(phi.n, top, run.grading.A)
        groups: dict = {}
        for g in run.generators:
            groups.setdefault((g.weighted_degree, g.beta), []).append(g)
        expected = []
        for (degree, _), group in groups.items():
            packed = [{packing.pack(m): c for m, c in g.poly.terms.items()} for g in group]
            columns = sorted({m for terms in packed for m in terms}, reverse=True)
            rows = [[terms.get(m, 0) for m in columns] for terms in packed]
            rref, _ = sympy_rref_and_nullspace(rows, len(columns))
            basis = [[v // math.gcd(*ints) for v in ints] for ints in (cleared(row) for _, row in rref)]
            reduced_groups += basis != rows  # a lone generator is its own basis
            for ints in basis:
                monos = tuple(m for m, v in zip(columns, ints) if v)
                expected.append(LiftSource(degree, monos, tuple(v for v in ints if v)))
        assert sorted(received) == list(range(1, top + 1))
        for degree, sources in received.items():
            assert sources == [s for s in expected if s.weighted_degree < degree]
    assert reduced_groups


def test_reduced_lift_sources_trim_like_raw_generators(gr25, monkeypatch):
    # a reduced basis of each (degree, beta) group spans what its generators
    # span, so trimming keeps its columns and its lift rank
    reduced_groups = 0
    for phi, top in ((gr25, 4), (rational_quadrics_map(), 4), (generic_cubics_map(2), 3)):
        run, received = received_sources(monkeypatch, phi, top)
        levels = shared_levels(grading_for_map(phi), top)
        packing = levels[1].packing
        below = [g for g in run.generators if g.weighted_degree < top]
        reduced, raw = received[top], raw_lift_sources(below, packing)
        assert len(reduced) == len(raw)
        reduced_groups += reduced != raw
        for level in levels.values():
            index, raw_index = (push_index(sources, level, levels) for sources in (reduced, raw))
            assert index.keys() == raw_index.keys()
            for key, basis in level.components.items():
                lifts, raw_lifts = index.get(key, []), raw_index.get(key, [])
                assert trim_basis(basis, lifts) == trim_basis(basis, raw_lifts)
    assert reduced_groups == 2  # a lone Pluecker quadric is its own reduced basis


def test_fallback_under_small_primes(monkeypatch):
    # a prime that drops the lift rank makes the mod-p trim keep too many
    # columns; the certificate then fails, and the exact trim and solve run
    events = []
    trim, kernel = engine.trim_basis, engine.nullspace_primitive

    def spy_trim(basis, lifts, prime=None, tail=0):
        columns, rank = trim(basis, lifts, prime, tail)
        events.append(("trim", basis, prime, rank))
        return columns, rank

    def spy_kernel(rows, ncols):
        events.append(("kernel",))
        return kernel(rows, ncols)

    monkeypatch.setattr(engine, "trim_basis", spy_trim)
    monkeypatch.setattr(engine, "nullspace_primitive", spy_kernel)
    dropped_and_solved = 0
    for phi, top in ((rational_quadrics_map(), 4), (generic_cubics_map(2), 3)):
        expected = None
        for options in [{"prime": p} for p in (2, 3, 5, 7, 101, DEFAULT_PRIME, None)]:
            events.clear()
            result = components_of_kernel(phi, top, **options)
            found = [(g.poly, g.beta, g.weighted_degree) for g in result.generators]
            expected = expected or found
            assert found == expected, options
            ranks: dict = {}
            for event, following in zip(events, events[1:] + [None]):
                if event[0] == "trim":
                    _, basis, prime, rank = event
                    ranks.setdefault(basis, {})[bool(prime)] = rank
                    if not prime and following == ("kernel",):
                        dropped_and_solved += ranks[basis].get(True, rank) < rank
    assert dropped_and_solved


def test_trim_cut_at_the_tail_is_sound(monkeypatch):
    # an exact trim that drops the certificate's independent tail finds the
    # columns and lift rank of an uncut trim of the same lift rows, at every prime
    cut = []
    trim = engine.trim_basis

    def spy_trim(basis, lifts, prime=None, tail=0):
        result = trim(basis, lifts, prime, tail)
        if tail:
            cut.append(tail)
            assert result == trim(basis, lifts, prime)
        return result

    monkeypatch.setattr(engine, "trim_basis", spy_trim)
    maps = [(generic_cubics_map(seed), 3) for seed in range(2, 6)] + [(rational_quadrics_map(), 4)]
    tails = []
    for phi, top in maps:
        for prime in (2, 3, 5, 101, DEFAULT_PRIME):
            cut.clear()
            components_of_kernel(phi, top, prime=prime)
            tails.append(sum(cut))
    # each cubic map's level 3 is cut at the guessed tail, its last 55 of 120
    # columns, whatever the prime; the quadrics cut only at 2 and 3
    assert tails == [55] * 20 + [1, 1, 0, 0, 0]


def spy_levels(monkeypatch, *names: str) -> dict[str, list[int]]:
    """The weighted degree of the level being settled at each call of the named engine functions."""
    degree = [0]
    calls: dict[str, list[int]] = {name: [] for name in names}
    enumerate_level = engine.enumerate_level

    def spy_enumerate(grading, level, *args, **kwargs):
        degree[0] = level
        return enumerate_level(grading, level, *args, **kwargs)

    def spy(name):
        original = getattr(engine, name)

        def call(*args, **kwargs):
            calls[name].append(degree[0])
            return original(*args, **kwargs)

        return call

    monkeypatch.setattr(engine, "enumerate_level", spy_enumerate)
    for name in names:
        monkeypatch.setattr(engine, name, spy(name))
    return calls


def run_summary(phi, top, prime):
    """A run's generators and its level counts, without the seconds."""
    result = components_of_kernel(phi, top, prime=prime)
    return result.generators, [stats[:-2] for stats in result.level_stats]


def test_component_no_certificate_can_pass_skips_it(monkeypatch):
    # level 3 of the seed-2 cubics has 120 columns and 64 lift rows, but its
    # images lie among the 55 nonics in s, t, u: no certificate can pass, so
    # none runs, and the exact trim is cut at a guessed tail of 55 members
    phi = generic_cubics_map(2)
    primes = (2, 3, 5, 101, DEFAULT_PRIME, None)
    calls = spy_levels(monkeypatch, "rank_mod_p", "certify_no_generators", "trim_basis")
    guessed = {}
    for prime in primes:
        for name in calls:
            calls[name].clear()
        guessed[prime] = run_summary(phi, 3, prime)
        assert 3 not in calls["rank_mod_p"] + calls["certify_no_generators"], prime
        assert calls["trim_basis"].count(3) == 1, prime
    assert all(generators == guessed[None][0] for generators, _ in guessed.values())
    assert Counter(g.weighted_degree for g in guessed[None][0]) == {2: 8, 3: 4}
    # with the bound switched off, each run settles level 3 as before, alike
    monkeypatch.setattr(engine, "image_degrees", lambda phi: None)
    for prime in primes:
        calls["certify_no_generators"].clear()
        assert run_summary(phi, 3, prime) == guessed[prime], prime
        assert (3 in calls["certify_no_generators"]) == (prime is not None)


def test_failed_tail_guess_falls_back(monkeypatch):
    # a linear generator (x6 - x7, x5 + x6 - x7, or a dense one) puts a lift
    # row's pivot on the guessed tail of level 3: the cut trim misses it, a
    # kernel vector lives on the tail alone, and the component gets exactly
    # one more pass, an exact trim with no tail and its solve, with no mod-p work
    trims = []
    trim = engine.trim_basis

    def spy_trim(basis, lifts, prime=None, tail=0):
        if not prime and len(basis) == 120:
            trims.append(tail)
        return trim(basis, lifts, prime, tail)

    monkeypatch.setattr(engine, "trim_basis", spy_trim)
    calls = spy_levels(monkeypatch, "rank_mod_p", "certify_no_generators")
    maps = refuted_guess_maps()
    runs = {}
    for k, phi in enumerate(maps):
        for prime in (3, DEFAULT_PRIME, None):
            for spied in (trims, *calls.values()):
                spied.clear()
            runs[k, prime] = run_summary(phi, 3, prime)
            assert trims == [55, 0], prime  # the guess, then the pass with no tail
            assert 3 not in calls["rank_mod_p"] + calls["certify_no_generators"], prime
            assert Counter(g.weighted_degree for g in runs[k, prime][0]) == {1: 1, 3: 29}
        assert sympy_oracle_check(phi, components_of_kernel(phi, 3), 3) == {1: 1, 3: 29}
    # the same generators and level counts as runs that make no guess
    monkeypatch.setattr(engine, "image_degrees", lambda phi: None)
    for (k, prime), summary in runs.items():
        assert run_summary(maps[k], 3, prime) == summary, prime


def test_refuted_dense_relation_keeps_the_output(tmp_path, monkeypatch, capsys):
    # the stdout of the dense relation's map is pinned, and the same when the
    # degree bound is off and no tail is guessed
    path = tmp_path / "dense.map"
    path.write_text(emit_map_text(refuted_guess_maps()[2]), encoding="utf-8")

    def stdout():
        assert cli.main(["run", "--map", str(path), "-d", "3"]) == 0
        return capsys.readouterr().out

    out = stdout()
    assert hashlib.sha256(out.encode()).hexdigest() == DENSE_RELATION_D3_SHA256
    monkeypatch.setattr(engine, "image_degrees", lambda phi: None)
    assert stdout() == out


def test_a_run_leaves_no_reference_cycles():
    # the CLI turns the cyclic collector off, so a run, a refuted tail guess
    # and its second pass included, must free everything by reference counts
    phi = refuted_guess_maps()[0]
    gc.disable()
    try:
        gc.collect()
        assert counts_by_degree(components_of_kernel(phi, 3)) == {1: 1, 3: 29}
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_each_component_is_certified_at_most_once(monkeypatch):
    # a component whose exact trim keeps other columns than its mod-p trim
    # goes straight to the exact solve, without a second certificate
    calls = spy_certificates(monkeypatch)
    for phi, top in ((generic_cubics_map(2), 3), (rational_quadrics_map(), 4)):
        levels = shared_levels(grading_for_map(phi), top)
        component_of = {
            mono: (degree, key)
            for degree, level in levels.items()
            for key, basis in level.components.items()
            for mono in basis
        }
        for prime in (2, 3, 5, 7, 101, DEFAULT_PRIME):
            calls.clear()
            components_of_kernel(phi, top, prime=prime)
            certified = Counter(component_of[columns[0]] for columns, _ in calls)
            assert calls and max(certified.values()) == 1, prime


def test_the_exact_solve_expands_the_columns_it_keeps(sunlet, gr25, monkeypatch):
    # the certificate hands the exact solve a verdict and a tail, no images:
    # every exact pass expands the images of exactly the columns its trim
    # kept, also right after a failed certificate expanded those same columns
    events = []
    trim, expand = engine.trim_basis, IntegerImages.expand

    def spy_trim(basis, lifts, prime=None, tail=0):
        result = trim(basis, lifts, prime, tail)
        events.append(("mod p" if prime else "exact", result[0]))
        return result

    def spy_expand(self, columns):
        columns = list(columns)
        events.append(("expand", columns))
        return expand(self, columns)

    monkeypatch.setattr(engine, "trim_basis", spy_trim)
    monkeypatch.setattr(IntegerImages, "expand", spy_expand)
    failed: Counter = Counter()
    for name, phi in (("sunlet", sunlet.with_symmetries(sunlet_k3p_symmetries())), ("gr25", gr25)):
        events.clear()
        components_of_kernel(phi, 3)
        pairs = MonomialPacking(phi.n, 3, grading_for_map(phi).A).pairs
        passes = [i for i, (kind, _) in enumerate(events) if kind == "exact"]
        assert passes, name
        for i in passes:
            columns = events[i][1]
            assert events[i + 1] == ("expand", [pairs(c) for c in columns]), name
            # a failed certificate on the same columns expanded them last first
            after_certificate = ("mod p", columns), ("expand", [pairs(c) for c in columns[::-1]])
            failed[name] += tuple(events[i - 2 : i]) == after_certificate
    assert failed == {"sunlet": 14, "gr25": 5}


def test_generic_cubics_reach_degree_four():
    # level 4 is certified on its mod-p trim: no exact trim of its 320 lift rows
    phi = generic_cubics_map(2)
    result = components_of_kernel(phi, 4)
    assert counts_by_degree(result) == {2: 8, 3: 4}
    assert result.generators == components_of_kernel(phi, 3).generators
    assert result.level_stats[-1].skipped_prescreen == 1


def test_grassmannian_run(gr24):
    result = components_of_kernel(gr24, 3)
    assert counts_by_degree(result) == {2: 1}
    gen = result.generators[0]
    assert gen.poly == pluecker_quadric(gr24)
    # report reconciliation
    for stats in result.level_stats:
        assert stats.skipped_matroid + stats.skipped_prescreen + stats.solved == stats.components


def test_cusp_run(cusp):
    result = components_of_kernel(cusp, 2)
    assert len(result.generators) == 1
    assert result.generators[0].poly == poly_by_names(cusp, {"x*z": 1, "y^2": -1})


def test_zero_image_and_coincident_images_make_linear_generators():
    t = Polynomial.variable(1, 0)
    phi = RingMap([t, Polynomial(1)], m=1, domain_names=["x", "y"], codomain_names=["t"])
    result = components_of_kernel(phi, 2)
    assert [g.poly for g in result.generators] == [Polynomial.variable(2, 1)]

    phi2 = RingMap([t, t], m=1, domain_names=["x", "y"], codomain_names=["t"])
    result2 = components_of_kernel(phi2, 2)
    expected = Polynomial.variable(2, 0) - Polynomial.variable(2, 1)
    assert [g.poly for g in result2.generators] == [expected]


def test_zero_first_image_is_a_linear_generator(monkeypatch):
    # phi_0 = 0 sets variable 0's field, the most significant one, in every
    # column it enters; such a lone column must still reach the exact solve
    calls = spy_certificates(monkeypatch)
    t = Polynomial.variable(1, 0)
    phi = RingMap([Polynomial(1), t, t], m=1, domain_names=["x", "y", "z"])
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    lone = (MonomialPacking(3, 3, grading_for_map(phi).A).pack(x.leading()[0]),)
    for options in ({}, {"prime": 3}, {"prime": None}):
        calls.clear()
        result = components_of_kernel(phi, 3, **options)
        assert [g.poly for g in result.generators] == [x, y - z]
        assert result.generators[0].weighted_degree == 1
        expected = [False] if options.get("prime", DEFAULT_PRIME) else []
        assert [certified for columns, certified in calls if columns == lone] == expected


def test_solved_counts_exact_kernels(monkeypatch):
    # `solved` means that the exact kernel ran: a component that the mod-p
    # trim empties is spanned by its lift rows and certified, and one whose
    # exact trim is empty still runs the kernel, on no column
    kernels = []
    kernel = engine.nullspace_primitive

    def spy_kernel(rows, ncols):
        kernels.append(ncols)
        return kernel(rows, ncols)

    monkeypatch.setattr(engine, "nullspace_primitive", spy_kernel)
    a, b = (Polynomial.variable(2, i) for i in range(2))
    phi = RingMap([a**2, Polynomial(2), a * b, b**2], m=2, domain_names=["x", "y", "z", "w"])
    found = {}
    for prescreen in (True, False):
        kernels.clear()
        result = components_of_kernel(phi, 3, prime=DEFAULT_PRIME if prescreen else None)
        assert sum(st.solved for st in result.level_stats) == len(kernels), prescreen
        assert kernels.count(0) == (0 if prescreen else 13)  # exact trims left no column
        found[prescreen] = [(g.poly, g.beta, g.weighted_degree) for g in result.generators]
        if prescreen:
            counts = [(st.skipped_matroid, st.skipped_prescreen, st.solved) for st in result.level_stats]
            assert counts == [(3, 0, 1), (4, 4, 1), (4, 12, 0)]
    assert found[True] == found[False]
    assert [f for f, _, _ in found[True]] == [poly_by_names(phi, {"y": 1}), poly_by_names(phi, {"x*w": 1, "z^2": -1})]


def test_weighted_degree_bound_semantics():
    # x -> t^2, y -> t^3: the kernel generator x^3 - y^2 has weighted degree 6
    t = Polynomial.variable(1, 0)
    phi = RingMap([t**2, t**3], m=1, domain_names=["x", "y"], codomain_names=["t"])
    assert components_of_kernel(phi, 5).generators == []
    result = components_of_kernel(phi, 6)
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert [g.poly for g in result.generators] == [x**3 - y**2]
    assert result.generators[0].weighted_degree == 6


def test_oracle_equivalence_small(gr24, cusp):
    for phi in (gr24, cusp):
        result = components_of_kernel(phi, 3)
        assert counts_by_degree(result) == sympy_oracle_check(phi, result, 3)


def test_oracle_equivalence_random_monomial_maps():
    rng = random.Random(1234)
    for _ in range(4):
        phi = random_monomial_map(rng, rng.randint(2, 6), rng.randint(2, 4), rng.randint(1, 3))
        result = components_of_kernel(phi, 3)
        assert counts_by_degree(result) == sympy_oracle_check(phi, result, 3)


def test_oracle_equivalence_weighted():
    # positive weights other than all-ones, found by the Fourier-Motzkin search
    s, t = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    half = Polynomial.constant(2, Fraction(1, 2))
    cases = [
        ([s, s**2, s**3], [1, 2, 3], {2: 1, 3: 1}),  # the twisted cubic, rank-1 grading
        ([s**2, t**2, s * t, s**3 * t], [1, 1, 1, 2], {2: 2}),  # rank-2 grading
        ([s, s**2 + Polynomial.constant(2, 3) * t, s * t - half * s**3], [1, 2, 3], {3: 1}),
    ]
    for images, weight, counts in cases:
        phi = RingMap(images, m=2)
        result = components_of_kernel(phi, 6)
        assert result.grading.positive_weight == weight
        assert counts_by_degree(result) == counts
        assert sympy_oracle_check(phi, result, 6) == counts


def test_trim_off_kernel_dimension_identity(gr24, gr25, cusp):
    # the untrimmed component kernel is the new generators plus the lifts
    for phi in (gr24, gr25, cusp):
        run = components_of_kernel(phi, 3)
        found = Counter((g.weighted_degree, g.beta) for g in run.generators)
        levels = shared_levels(grading_for_map(phi), 3)
        for degree, level in levels.items():
            index = push_index(raw_lift_sources(run.generators, level.packing), level, levels)
            for key, basis in level.components.items():
                _, lift_rank = trim_basis(basis, index.get(key, []))
                full = nullspace_primitive(assembled_rows(phi, unpacked(level, basis)), len(basis))
                assert len(full) == found[degree, level.packing.beta(key)] + lift_rank


def test_prescreen_off_same_output(gr24, gr25, cusp, monkeypatch):
    # `prime` is the one switch: None runs no mod-p trim and no certificate,
    # but still counts the lone components in bulk and solves the rest
    parameters = inspect.signature(components_of_kernel).parameters.values()
    assert [p.name for p in parameters if p.kind is p.KEYWORD_ONLY] == ["prime"]
    calls = spy_levels(monkeypatch, "rank_mod_p", "certify_no_generators")
    for phi, options in ((gr24, {}), (gr25, {"prime": 101}), (cusp, {})):
        base = components_of_kernel(phi, 3, **options)
        for made in calls.values():
            made.clear()
        off = components_of_kernel(phi, 3, prime=None)
        assert [(g.poly, g.beta) for g in base.generators] == [
            (g.poly, g.beta) for g in off.generators
        ]
        lone = Counter(degree for degree, _ in bulk_certified(phi, 3))  # from the levels alone
        assert not phi.symmetries
        for stats in off.level_stats:
            assert stats.skipped_matroid == lone[stats.weighted_degree]
            assert stats.solved == stats.components - stats.skipped_matroid
            assert stats.skipped_prescreen == stats.certified_by_symmetry == 0
            assert stats.certified_by_leading_terms == 0
        assert calls == {"rank_mod_p": [], "certify_no_generators": []}


def test_small_prime_still_exact(gr24):
    result = components_of_kernel(gr24, 3, prime=101)
    assert counts_by_degree(result) == {2: 1}


def test_prime_dividing_a_denominator_is_used_as_given(tmp_path, capsys):
    # 5 divides the denominators of t/5 and t^2/5, yet the run keeps 5: the
    # certificate reads the integer images t and t^2, valid mod every prime
    phi = RingMap(
        [Polynomial(1, [(Monomial([(0, e)]), Fraction(1, 5))]) for e in (1, 2)], m=1
    )
    expected = [(g.poly, g.beta) for g in components_of_kernel(phi, 3).generators]
    assert len(expected) == 1  # x1 - 5*x0^2
    result = components_of_kernel(phi, 3, prime=5)
    assert [(g.poly, g.beta) for g in result.generators] == expected
    path, report = tmp_path / "fifth.map", tmp_path / "report.json"
    path.write_text(emit_map_text(phi), encoding="utf-8")
    args = ["run", "--map", str(path), "-d", "3", "--prime", "5", "--report", str(report)]
    assert cli.main(args) == 0
    assert json.loads(report.read_text())["options"]["prime"] == 5
    assert " prime=5 " in capsys.readouterr().err


def test_run_path_does_no_rational_image_work(monkeypatch):
    # images are cleared of denominators once; nothing on the run path
    # evaluates or expands them as Fraction polynomials again
    phi = rational_quadrics_map()
    expected = [(g.poly, g.beta) for g in components_of_kernel(phi, 3).generators]

    def refuse(*args):
        raise AssertionError("rational image arithmetic on the run path")

    # expanding or evaluating an image takes Polynomial products, sums or powers
    for name in ("__mul__", "__add__", "__pow__"):
        monkeypatch.setattr(Polynomial, name, refuse)
    for prime in (5, None):
        result = components_of_kernel(phi, 3, prime=prime)
        assert [(g.poly, g.beta) for g in result.generators] == expected


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-decimal digit limit")
def test_long_coefficients_sort_under_the_digit_limit():
    # the canonical generator order compares coefficients as decimals, and
    # 7^6000 has over 5,000 digits, past CPython's default limit of 4,300:
    # a library call lifts the limit for the sort and leaves it as it was
    t = Polynomial.variable(1, 0)
    phi = RingMap([t, Polynomial.variable(1, 0, 7**6000)], m=1, domain_names=["x", "y"])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        result = components_of_kernel(phi, 1)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    x, y = Polynomial.variable(2, 0, 7**6000), Polynomial.variable(2, 1)
    assert [g.poly for g in result.generators] == [x - y]


def test_error_paths():
    t = Polynomial.variable(1, 0)
    affine = RingMap([t + Polynomial.constant(1, 1)], m=1)
    with pytest.raises(NoPositiveWeightError):
        components_of_kernel(affine, 2)
    with pytest.raises(ValueError):
        components_of_kernel(affine, 0)
    with pytest.raises(ValueError):
        components_of_kernel(RingMap([t], m=1), 2, prime=10)


def test_every_component_is_certified_or_solved(gr24, monkeypatch):
    # each component is certified or solved; the certificate sees exactly the
    # columns of the mod-p trim, lone components are certified without it,
    # and a certified component has no new generators
    calls = spy_certificates(monkeypatch)
    result = components_of_kernel(gr24, 3)
    levels = shared_levels(grading_for_map(gr24), 3)
    component_of = {
        mono: (degree, key)
        for degree, level in levels.items()
        for key, basis in level.components.items()
        for mono in basis
    }
    sources = raw_lift_sources(result.generators, levels[1].packing)
    indexes = {d: push_index(sources, level, levels) for d, level in levels.items()}
    found = Counter((g.weighted_degree, g.beta) for g in result.generators)
    certified: Counter = Counter()
    for columns, ok in calls:
        (degree, key), = {component_of[mono] for mono in columns}
        level = levels[degree]
        lifts = indexes[degree].get(key, [])
        screened, rank_p = trim_basis(level.components[key], lifts, DEFAULT_PRIME)
        assert columns and tuple(screened) == columns
        if ok:
            certified[bool(rank_p)] += 1
            assert nullspace_primitive(assembled_rows(gr24, unpacked(level, columns)), len(columns)) == []
            assert not found[degree, level.packing.beta(key)]
    assert len({component_of[columns[0]] for columns, _ in calls}) == len(calls)
    bulk = bulk_certified(gr24, 3)
    assert bulk and not set(bulk) & {component_of[columns[0]] for columns, _ in calls}
    for degree, key in bulk:
        level = levels[degree]
        assert not indexes[degree].get(key >> level.packing.beta_shift)  # no lift lands on it
        assert nullspace_primitive(assembled_rows(gr24, unpacked(level, [key])), 1) == []
        assert not found[degree, level.packing.beta(key >> level.packing.beta_shift)]
        certified[False] += 1
    stats = result.level_stats
    assert certified[False] == sum(st.skipped_matroid for st in stats)
    assert certified[True] == sum(st.skipped_prescreen for st in stats)
    assert all(st.skipped_matroid + st.skipped_prescreen + st.solved == st.components for st in stats)
    assert sum(certified.values()) and sum(st.solved for st in stats)


def test_verify_rejects_inhomogeneous_and_misgraded_generators(gr24, tmp_path, monkeypatch, capsys):
    # every nonzero term of a kernel vector must lie on the component's packed
    # beta: a column from another component, or a wrong key, stops the run
    level = enumerate_level(grading_for_map(gr24), 2)
    images = IntegerImages(gr24, 2)
    key, basis = next((key, basis) for key, basis in level.components.items() if len(basis) == 3)
    other_key, other = next((k, b[0]) for k, b in level.components.items() if k != key)
    packing, columns = level.packing, list(basis)
    expanded = images.expand(map(packing.pairs, columns))
    vec = [1, -1, 1]  # the Pluecker quadric
    engine._verify_generator(expanded, vec, columns, key, packing)
    foreign = images.expand([packing.pairs(other)])
    engine._verify_generator(expanded + foreign, vec + [0], columns + [other], key, packing)
    with pytest.raises(EngineInvariantError, match="outside component"):
        engine._verify_generator(expanded, vec, [other] + columns[1:], key, packing)
    with pytest.raises(EngineInvariantError, match="outside component"):
        engine._verify_generator(expanded, vec, columns, other_key, packing)
    with pytest.raises(EngineInvariantError, match="does not map to zero"):
        engine._verify_generator(expanded, [1, -1, 2], columns, key, packing)

    verify = engine._verify_generator

    def misgraded(images, vec, columns, key, packing):
        verify(images, vec, columns, key + 1, packing)

    monkeypatch.setattr(engine, "_verify_generator", misgraded)
    path = tmp_path / "gr24.map"
    path.write_text(emit_map_text(gr24), encoding="utf-8")
    assert cli.main(["run", "--map", str(path), "-d", "2"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error:")


def test_generator_order_is_canonical(gr25):
    result = components_of_kernel(gr25, 2)
    keys = [(g.weighted_degree, g.beta) for g in result.generators]
    assert keys == sorted(keys)
    for gen in result.generators:
        lead_mono, lead_coeff = gen.poly.leading()
        assert lead_coeff > 0


def test_corrupted_kernel_entry_is_caught(cusp, tmp_path, monkeypatch, capsys):
    # verification re-expands every generator, so one wrong kernel entry stops the run
    def corrupted(rows, ncols):
        kernel = nullspace_primitive(rows, ncols)
        for vec in kernel[:1]:
            j = next(j for j, v in enumerate(vec) if v)
            vec[j] *= 2  # no column of the cusp maps to zero
        return kernel

    monkeypatch.setattr(engine, "nullspace_primitive", corrupted)
    with pytest.raises(EngineInvariantError, match="does not map to zero"):
        components_of_kernel(cusp, 2)
    path = tmp_path / "cusp.map"
    path.write_text(emit_map_text(cusp), encoding="utf-8")
    assert cli.main(["run", "--map", str(path), "-d", "2"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error:")


def test_dropped_assembly_rows_are_caught(cusp, monkeypatch):
    # a component system missing rows has too large a kernel; its extra vectors fail verification
    def dropped(images):
        rows = component_rows(images)
        return rows[: len(rows) // 2]

    monkeypatch.setattr(engine, "component_rows", dropped)
    for prime in (DEFAULT_PRIME, None):
        with pytest.raises(EngineInvariantError):
            components_of_kernel(cusp, 2, prime=prime)


def test_corrupted_assembly_column_is_caught(gr24, tmp_path, monkeypatch, capsys):
    # column 1 overwritten by column 0 gives the false kernel vector e_0 - e_1;
    # verification expands the column images, not the assembled rows
    def copied(images):
        rows = component_rows(images)
        if len(images) > 1:
            for row in rows:
                row.pop(1, None)
                if 0 in row:
                    row[1] = row[0]
        return rows

    monkeypatch.setattr(engine, "component_rows", copied)
    for prime in (DEFAULT_PRIME, None):
        with pytest.raises(EngineInvariantError, match="does not map to zero"):
            components_of_kernel(gr24, 2, prime=prime)
    path = tmp_path / "gr24.map"
    path.write_text(emit_map_text(gr24), encoding="utf-8")
    assert cli.main(["run", "--map", str(path), "-d", "2"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error:")
