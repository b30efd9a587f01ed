from __future__ import annotations

import random
from fractions import Fraction

from implicitize import (
    GradingMatrix,
    Monomial,
    Polynomial,
    RingMap,
    build_constraints,
    domain_grading,
    enumerate_level,
    find_positive_weight,
    grading_for_map,
    homogeneity_space,
    multidegree_of,
)
from implicitize.linalg import normalize_primitive, solve_exact

from support import (
    GR24_HOMOGENEITY,
    elimination_generator,
    grading_suite,
    mono_by_names,
    reference_beta,
    sympy_nullspace,
    sympy_rank,
)


def test_constraint_rows_cusp(cusp):
    # one row per (variable, image monomial) pair: 3 + 2 + 3 monomials
    rows = build_constraints(cusp)
    assert len(rows) == 8
    assert all(len(r) == 5 for r in rows)
    # row for x against the a^2 monomial: w_x - 2 w_a = 0
    assert [1, 0, 0, -2, 0] in rows


def test_constraint_rows_single_variable():
    phi = RingMap([Polynomial.variable(1, 0)], m=1)
    assert build_constraints(phi) == [[1, -1]]


def test_constraint_rows_monomial_map():
    rng = random.Random(5)
    from support import random_monomial_map

    phi = random_monomial_map(rng, 4, 3, 2)
    assert len(build_constraints(phi)) == phi.n


def test_homogeneity_space_cusp(cusp):
    basis = homogeneity_space(cusp)
    assert basis.dimension == 1
    assert basis.full_vectors == [[2, 2, 2, 1, 1]]
    # independent oracle: exact nullspace of the constraint matrix
    oracle = sympy_nullspace(build_constraints(cusp))
    assert len(oracle) == 1
    assert normalize_primitive(oracle[0]) == [2, 2, 2, 1, 1]


def test_homogeneity_space_grassmannian(gr24):
    basis = homogeneity_space(gr24)
    assert basis.dimension == 5
    ours = sympy_rank(basis.full_vectors)
    golden = sympy_rank(GR24_HOMOGENEITY)
    stacked = sympy_rank(basis.full_vectors + GR24_HOMOGENEITY)
    assert ours == golden == stacked == 5


def test_homogeneity_space_identity_map():
    phi = RingMap([Polynomial.variable(1, 0)], m=1)
    assert homogeneity_space(phi).full_vectors == [[1, 1]]


def test_zero_image_variable_is_free():
    phi = RingMap([Polynomial.variable(1, 0), Polynomial.zero(1)], m=1)
    basis = homogeneity_space(phi)
    assert [0, 1, 0] in basis.full_vectors


def test_domain_grading_ranks(cusp, gr24):
    assert domain_grading(homogeneity_space(cusp)).A == [[2, 2, 2]]
    grading = domain_grading(homogeneity_space(gr24))
    assert grading.rank == 4
    assert len(grading.A_full) == 4
    # projected rows must stay aligned with their full counterparts
    for proj, full in zip(grading.A, grading.A_full):
        assert full[:6] == proj


def test_images_homogeneous_under_codomain_grading(gr24, cusp, sunlet):
    for phi in (gr24, cusp, sunlet):
        grading = grading_for_map(phi)
        for k, full in enumerate(grading.A_full):
            codomain_part = full[phi.n :]
            for i, image in enumerate(phi.images):
                assert image.is_homogeneous(codomain_part)
                if not image.is_zero():
                    mono = next(iter(image.terms))
                    assert mono.weighted_degree(codomain_part) == grading.A[k][i]


def test_positive_weight_prefers_all_ones(gr24, cusp, sunlet):
    for phi in (gr24, cusp, sunlet):
        grading = domain_grading(homogeneity_space(phi))
        assert find_positive_weight(grading) == [1] * phi.n


def test_positive_weight_fourier_motzkin_branch():
    weight = find_positive_weight(GradingMatrix(A=[[2, 3]], n=2))
    assert weight == [2, 3]
    grading = GradingMatrix(A=[[1, 2, 3], [0, 0, 1]], n=3)
    weight = find_positive_weight(grading)
    assert weight is not None and all(w >= 1 for w in weight)
    # the weight must lie in the row span
    transpose = [[grading.A[k][j] for k in range(2)] for j in range(3)]
    assert solve_exact(transpose, weight) is not None


def test_positive_weight_absent():
    assert find_positive_weight(GradingMatrix(A=[[1, -1]], n=2)) is None
    assert find_positive_weight(GradingMatrix(A=[], n=3)) is None


def test_multidegree_of_examples(gr24):
    grading = grading_for_map(gr24)
    m1 = mono_by_names(gr24, {"p12": 1, "p34": 1})
    m2 = mono_by_names(gr24, {"p13": 1, "p24": 1})
    m3 = mono_by_names(gr24, {"p23": 1, "p14": 1})
    d1 = multidegree_of(grading, m1)
    assert d1 == multidegree_of(grading, m2) == multidegree_of(grading, m3)
    assert d1.weighted_degree == 2
    # in the reference basis these monomials sit in component (2,1,1,1,-1)
    assert reference_beta(m1) == reference_beta(m2) == (2, 1, 1, 1, -1)
    empty = multidegree_of(grading, Monomial())
    assert empty.beta == (0,) * grading.rank and empty.weighted_degree == 0


def test_weighted_degree_well_defined(gr24, cusp):
    rng = random.Random(99)
    pools = []
    for phi in (gr24, cusp):
        grading = grading_for_map(phi)
        weight = grading.positive_weight
        for degree in (2, 3, 4, 5):
            level = enumerate_level(grading, degree)
            for basis in level.components.values():
                if len(basis.monomials) >= 2:
                    pools.append((weight, basis.monomials))
    assert pools
    for _ in range(1000):
        weight, monos = rng.choice(pools)
        a, b = rng.choice(monos), rng.choice(monos)
        assert a.weighted_degree(weight) == b.weighted_degree(weight)


def test_grading_exactness_and_maximality_randomized():
    assert grading_suite(300) == 300


def test_elimination_generators_homogeneous_under_basis(gr24):
    basis = homogeneity_space(gr24)
    gens = [elimination_generator(gr24, i) for i in range(gr24.n)]
    for vec in basis.full_vectors:
        weights = [Fraction(v) for v in vec]
        assert all(g.is_homogeneous(weights) for g in gens)
