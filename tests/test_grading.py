from __future__ import annotations

import random
from fractions import Fraction

from implicitize import (
    Monomial,
    Polynomial,
    RingMap,
    build_constraints,
    domain_grading,
    enumerate_level,
    find_positive_weight,
    grading_for_map,
    homogeneity_space,
)
from implicitize.linalg import normalize_primitive

from support import (
    GR24_HOMOGENEITY,
    elimination_generator,
    grading_suite,
    is_homogeneous,
    mono_by_names,
    multidegree_of,
    reference_beta,
    sympy_nullspace,
    sympy_rank,
    weighted_degree,
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
    assert len(basis) == 1
    assert basis == [[2, 2, 2, 1, 1]]
    # independent oracle: exact nullspace of the constraint matrix
    oracle = sympy_nullspace(build_constraints(cusp))
    assert len(oracle) == 1
    assert normalize_primitive(oracle[0]) == [2, 2, 2, 1, 1]


def test_homogeneity_space_grassmannian(gr24):
    basis = homogeneity_space(gr24)
    assert len(basis) == 5
    ours = sympy_rank(basis)
    golden = sympy_rank(GR24_HOMOGENEITY)
    stacked = sympy_rank(basis + GR24_HOMOGENEITY)
    assert ours == golden == stacked == 5


def test_homogeneity_space_identity_map():
    phi = RingMap([Polynomial.variable(1, 0)], m=1)
    assert homogeneity_space(phi) == [[1, 1]]


def test_zero_image_variable_is_free():
    phi = RingMap([Polynomial.variable(1, 0), Polynomial(1)], m=1)
    basis = homogeneity_space(phi)
    assert [0, 1, 0] in basis


def test_domain_grading_ranks(cusp, gr24):
    assert domain_grading(homogeneity_space(cusp), cusp.n).A == [[2, 2, 2]]
    space = homogeneity_space(gr24)
    grading = domain_grading(space, gr24.n)
    assert grading.rank == 4
    # every row of A is the domain projection of a homogeneity vector
    projections = [vec[: gr24.n] for vec in space]
    assert all(row in projections for row in grading.A)


def test_images_homogeneous_under_codomain_grading(gr24, cusp, sunlet):
    # a homogeneity vector (w_x, w_t) makes each image phi_i t-homogeneous of degree w_x_i
    for phi in (gr24, cusp, sunlet):
        for vec in homogeneity_space(phi):
            domain_part, codomain_part = vec[: phi.n], vec[phi.n :]
            for i, image in enumerate(phi.images):
                assert is_homogeneous(image, codomain_part)
                if image:
                    mono = next(iter(image.terms))
                    assert weighted_degree(mono, codomain_part) == domain_part[i]


def test_positive_weight_prefers_all_ones(gr24, cusp, sunlet):
    for phi in (gr24, cusp, sunlet):
        grading = domain_grading(homogeneity_space(phi), phi.n)
        assert find_positive_weight(grading.A, phi.n) == grading.positive_weight == [1] * phi.n


def test_positive_weight_fourier_motzkin_branch():
    weight = find_positive_weight([[2, 3]], 2)
    assert weight == [2, 3]
    A = [[1, 2, 3], [0, 0, 1]]
    weight = find_positive_weight(A, 3)
    assert weight is not None and all(w >= 1 for w in weight)
    # the weight must lie in the row span
    assert sympy_rank(A + [weight]) == len(A)


def test_positive_weight_absent():
    assert find_positive_weight([[1, -1]], 2) is None
    assert find_positive_weight([], 3) is None


def test_multidegree_of_examples(gr24):
    grading = grading_for_map(gr24)
    m1 = mono_by_names(gr24, {"p12": 1, "p34": 1})
    m2 = mono_by_names(gr24, {"p13": 1, "p24": 1})
    m3 = mono_by_names(gr24, {"p23": 1, "p14": 1})
    d1 = multidegree_of(grading, m1)
    assert d1 == multidegree_of(grading, m2) == multidegree_of(grading, m3)
    assert weighted_degree(m1, grading.positive_weight) == 2
    # in the reference basis these monomials sit in component (2,1,1,1,-1)
    assert reference_beta(m1) == reference_beta(m2) == (2, 1, 1, 1, -1)
    empty = multidegree_of(grading, Monomial())
    assert empty == (0,) * grading.rank and weighted_degree(Monomial(), grading.positive_weight) == 0


def test_weighted_degree_well_defined(gr24, cusp):
    rng = random.Random(99)
    pools = []
    for phi in (gr24, cusp):
        grading = grading_for_map(phi)
        weight = grading.positive_weight
        for degree in (2, 3, 4, 5):
            level = enumerate_level(grading, degree)
            for basis in level.components.values():
                if len(basis) >= 2:
                    pools.append((weight, [level.packing.monomial(key) for key in basis]))
    assert pools
    for _ in range(1000):
        weight, monos = rng.choice(pools)
        a, b = rng.choice(monos), rng.choice(monos)
        assert weighted_degree(a, weight) == weighted_degree(b, weight)


def test_grading_exactness_and_maximality_randomized():
    assert grading_suite(300) == 300


def test_elimination_generators_homogeneous_under_basis(gr24):
    basis = homogeneity_space(gr24)
    gens = [elimination_generator(gr24, i) for i in range(gr24.n)]
    for vec in basis:
        weights = [Fraction(v) for v in vec]
        assert all(is_homogeneous(g, weights) for g in gens)
