from __future__ import annotations

import random
from fractions import Fraction

import pytest

from implicitize import (
    EngineOptions,
    Monomial,
    Polynomial,
    RingMap,
    components_of_kernel,
    enumerate_level,
    grading_for_map,
)
from implicitize.engine import assemble_component, trim_basis
from implicitize.grading import NoPositiveWeightError
from implicitize.linalg import exact_kernel

from support import (
    GR24_QUADRIC_COMPONENT,
    mono_by_names,
    poly_by_names,
    random_monomial_map,
    reference_beta,
    sympy_oracle_check,
)


def pluecker_quadric(gr24):
    return poly_by_names(gr24, {"p12*p34": 1, "p13*p24": -1, "p23*p14": 1})


def find_component(level, reference):
    """Locate a component by its multidegree in the golden reference basis."""
    for beta, basis in level.components.items():
        if reference_beta(basis.monomials[0]) == reference:
            return beta, basis
    raise AssertionError(f"no component with reference multidegree {reference}")


def test_assemble_quadric_component(gr24):
    grading = grading_for_map(gr24)
    level = enumerate_level(grading, 2)
    _, basis = find_component(level, (2, 1, 1, 1, -1))
    matrix = assemble_component(gr24, list(basis.monomials))
    assert matrix.shape == (6, 3)
    dense = sorted(
        [int(row.get(c, 0)) for c in range(3)] for row in matrix.rows
    )
    assert dense == sorted(GR24_QUADRIC_COMPONENT)
    assert exact_kernel(matrix).vectors == [[1, -1, 1]]


def test_assemble_full_degree_two(gr24):
    # the untrimmed, ungraded degree-2 system is 72 x 21 with a 1-dim kernel
    grading = grading_for_map(gr24)
    monos = []
    for basis in enumerate_level(grading, 2).components.values():
        monos.extend(basis.monomials)
    assert len(monos) == 21
    matrix = assemble_component(gr24, monos)
    assert matrix.shape[0] == 72 and matrix.shape[1] == 21
    assert exact_kernel(matrix).dimension == 1


def test_assemble_zero_image_column():
    phi = RingMap([Polynomial.zero(1)], m=1, domain_names=["x"], codomain_names=["t"])
    matrix = assemble_component(phi, [Monomial.variable(0)])
    assert matrix.shape == (0, 1)
    assert exact_kernel(matrix).vectors == [[1]]


def test_trim_cubic_component(gr24):
    grading = grading_for_map(gr24)
    run = components_of_kernel(gr24, 2)
    assert len(run.generators) == 1
    levels = {d: enumerate_level(grading, d) for d in (1, 2, 3)}
    beta, basis = find_component(levels[3], (3, 1, 1, 2, -1))
    assert [m for m in basis.monomials] == [
        mono_by_names(gr24, {"p12": 1, "p34": 2}),
        mono_by_names(gr24, {"p13": 1, "p24": 1, "p34": 1}),
        mono_by_names(gr24, {"p23": 1, "p14": 1, "p34": 1}),
    ]
    columns, lift_rank = trim_basis(run.generators, beta, 3, basis, levels)
    assert lift_rank == 1
    assert columns == [
        mono_by_names(gr24, {"p13": 1, "p24": 1, "p34": 1}),
        mono_by_names(gr24, {"p23": 1, "p14": 1, "p34": 1}),
    ]
    matrix = assemble_component(gr24, columns)
    assert matrix.shape == (10, 2)
    assert exact_kernel(matrix).dimension == 0


def test_trim_with_no_generators(gr24):
    grading = grading_for_map(gr24)
    level = enumerate_level(grading, 2)
    beta, basis = next(iter(level.components.items()))
    columns, lift_rank = trim_basis([], beta, 2, basis, {1: enumerate_level(grading, 1)})
    assert columns == list(basis.monomials) and lift_rank == 0


def test_trim_without_compatible_degrees(cusp):
    grading = grading_for_map(cusp)
    run = components_of_kernel(cusp, 2)
    levels = {d: enumerate_level(grading, d) for d in (1, 2, 3)}
    # at level 3 the only generator has degree 2; shifting it by one variable
    # covers beta (6,), so a mismatched beta keeps the full basis
    level3 = levels[3]
    (beta3, basis3), = level3.components.items()
    columns, lift_rank = trim_basis(run.generators, (999,), 3, basis3, levels)
    assert lift_rank == 0 and columns == list(basis3.monomials)
    columns, lift_rank = trim_basis(run.generators, beta3, 3, basis3, levels)
    assert lift_rank == 3  # x*f, y*f, z*f are independent shifts


def test_grassmannian_run(gr24):
    result = components_of_kernel(gr24, 3)
    assert result.counts_by_degree() == {2: 1}
    gen = result.generators[0]
    assert gen.poly == pluecker_quadric(gr24)
    assert gen.component_size == 3 and gen.lift_rank == 0
    # report reconciliation
    for stats in result.level_stats:
        assert stats.skipped_matroid + stats.skipped_prescreen + stats.solved == stats.components


def test_cusp_run(cusp):
    result = components_of_kernel(cusp, 2)
    assert len(result.generators) == 1
    assert result.generators[0].poly == poly_by_names(cusp, {"x*z": 1, "y^2": -1})


def test_zero_image_and_coincident_images_make_linear_generators():
    t = Polynomial.variable(1, 0)
    phi = RingMap([t, Polynomial.zero(1)], m=1, domain_names=["x", "y"], codomain_names=["t"])
    result = components_of_kernel(phi, 2)
    assert [g.poly for g in result.generators] == [Polynomial.variable(2, 1)]

    phi2 = RingMap([t, t], m=1, domain_names=["x", "y"], codomain_names=["t"])
    result2 = components_of_kernel(phi2, 2)
    expected = Polynomial.variable(2, 0) - Polynomial.variable(2, 1)
    assert [g.poly for g in result2.generators] == [expected]


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
        assert result.counts_by_degree() == sympy_oracle_check(phi, result, 3)


def test_oracle_equivalence_random_monomial_maps():
    rng = random.Random(1234)
    for _ in range(4):
        phi = random_monomial_map(rng, rng.randint(2, 6), rng.randint(2, 4), rng.randint(1, 3))
        result = components_of_kernel(phi, 3)
        assert result.counts_by_degree() == sympy_oracle_check(phi, result, 3)


def test_trim_off_kernel_dimension_identity(gr24, gr25, cusp):
    # the untrimmed component kernel is the new generators plus the lifts
    for phi in (gr24, gr25, cusp):
        grading = grading_for_map(phi)
        levels = {d: enumerate_level(grading, d) for d in (1, 2, 3)}
        for task in components_of_kernel(phi, 3).tasks:
            basis = levels[task.weighted_degree].components[task.beta]
            full = exact_kernel(assemble_component(phi, list(basis.monomials)))
            assert full.dimension == task.kernel_dim + task.lift_rank


def test_prescreen_off_same_output(gr24, gr25):
    for phi, options in ((gr24, EngineOptions()), (gr25, EngineOptions(seed=7, prime=101))):
        base = components_of_kernel(phi, 3, options)
        options.use_prescreen = False
        off = components_of_kernel(phi, 3, options)
        assert [(g.poly, g.beta) for g in base.generators] == [
            (g.poly, g.beta) for g in off.generators
        ]
        assert all(task.status == "solved" for task in off.tasks)


def test_small_prime_still_exact(gr24):
    result = components_of_kernel(gr24, 3, EngineOptions(prime=101))
    assert result.counts_by_degree() == {2: 1}
    assert result.prime == 101


def test_prime_bumped_when_unsafe():
    # image coefficient 1/5 makes 5 unusable; the engine moves to the next prime
    f = Polynomial(1, [(Monomial([(0, 1)]), Fraction(1, 5))])
    phi = RingMap([f], m=1)
    result = components_of_kernel(phi, 2, EngineOptions(prime=5))
    assert result.prime == 7


def test_error_paths():
    t = Polynomial.variable(1, 0)
    affine = RingMap([t + Polynomial.constant(1, 1)], m=1)
    with pytest.raises(NoPositiveWeightError):
        components_of_kernel(affine, 2)
    with pytest.raises(ValueError):
        components_of_kernel(affine, 0)
    with pytest.raises(ValueError):
        components_of_kernel(RingMap([t], m=1), 2, EngineOptions(prime=10))


def test_component_task_records(gr24):
    grading = grading_for_map(gr24)
    result = components_of_kernel(gr24, 3)
    levels = {d: enumerate_level(grading, d) for d in (1, 2, 3)}
    for task in result.tasks:
        basis = levels[task.weighted_degree].components[task.beta]
        assert task.size == len(basis.monomials)
        assert set(task.columns) <= set(basis.monomials)
        assert task.size - len(task.columns) == task.lift_rank
        assert task.status in ("certified", "solved")
        if task.status == "certified":
            assert task.columns and task.kernel_dim == 0
    statuses = {task.status for task in result.tasks}
    assert statuses == {"certified", "solved"}


def test_generator_order_is_canonical(gr25):
    result = components_of_kernel(gr25, 2)
    keys = [(g.weighted_degree, g.beta) for g in result.generators]
    assert keys == sorted(keys)
    for gen in result.generators:
        lead_mono, lead_coeff = gen.poly.leading()
        assert lead_coeff > 0
