from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy

from implicitize import Monomial, Polynomial, RingMap, enumerate_level, grading_for_map
from implicitize.polyring import IntegerImages, format_polynomial, grlex_key

from support import (
    is_homogeneous,
    mono_by_names,
    poly_by_names,
    random_polynomial,
    ring_laws_suite,
    substitute,
    weighted_degree,
)


def P(num_vars, *terms):
    return Polynomial(num_vars, [(Monomial(exps.items()), c) for exps, c in terms])


def test_add_cancellation():
    x_plus_y = P(2, ({0: 1}, 1), ({1: 1}, 1))
    minus_x = P(2, ({0: 1}, -1))
    assert x_plus_y + minus_x == P(2, ({1: 1}, 1))


def test_add_identity_and_doubling():
    f = P(2, ({0: 2}, Fraction(3, 2)), ({1: 1}, -1))
    assert f + Polynomial(2) == f
    g = P(2, ({0: 1}, 1), ({1: 1}, 1))
    assert g + g == P(2, ({0: 1}, 2), ({1: 1}, 2))


def test_mul_difference_of_squares():
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert (a + b) * (a - b) == a * a - b * b


def test_mul_identity_and_binomial():
    f = P(2, ({0: 1, 1: 2}, Fraction(1, 3)))
    one = Polynomial.constant(2, 1)
    assert f * one == f
    a, b = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert (a + b) ** 2 == P(2, ({0: 2}, 1), ({0: 1, 1: 1}, 2), ({1: 2}, 1))


def test_pow_zero_and_one():
    f = P(1, ({0: 3}, 2), ({}, 1))
    assert f**0 == Polynomial.constant(1, 1)
    assert f**1 == f
    with pytest.raises(ValueError):
        f ** (-1)


def test_arity_mismatch_raises():
    f, g = Polynomial.variable(2, 0), Polynomial.variable(3, 0)
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        f * g


def test_is_homogeneous_examples():
    f = P(3, ({0: 1, 2: 1}, 1), ({1: 2}, -1))  # xz - y^2
    assert is_homogeneous(f, [1, 1, 1])
    g = P(1, ({0: 1}, 1), ({0: 2}, 1))
    assert not is_homogeneous(g, [1])
    assert is_homogeneous(Polynomial(1), [7])


def test_apply_map_grassmannian(gr24):
    p12 = poly_by_names(gr24, {"p12": 1})
    image = substitute(gr24, p12)
    expected = Polynomial(
        8, [(Monomial([(0, 1), (5, 1)]), 1), (Monomial([(1, 1), (4, 1)]), -1)]
    )  # x11*x22 - x12*x21
    assert image == expected

    pluecker = poly_by_names(gr24, {"p12*p34": 1, "p13*p24": -1, "p23*p14": 1})
    assert not substitute(gr24, pluecker)


def test_apply_map_cusp(cusp):
    f = poly_by_names(cusp, {"x*z": 1, "y^2": -1})
    assert not substitute(cusp, f)
    with pytest.raises(ValueError):
        substitute(cusp, Polynomial.variable(2, 0))


def test_ring_map_validation():
    with pytest.raises(ValueError):
        RingMap([])
    with pytest.raises(ValueError):
        RingMap([Polynomial.variable(2, 0), Polynomial.variable(3, 0)])


def test_monomial_basics():
    m1 = Monomial([(2, 1), (0, 2)])
    assert m1.exps == ((0, 2), (2, 1))
    assert m1.degree() == 3
    assert weighted_degree(m1, [1, 1, 2]) == 4
    assert (m1 * Monomial([(1, 1)])).exps == ((0, 2), (1, 1), (2, 1))
    with pytest.raises(ValueError):
        Monomial([(0, -1)])


def test_grlex_order_leading_first():
    monos = [Monomial([(1, 1), (4, 1)]), Monomial([(0, 1), (5, 1)]), Monomial([(2, 1), (3, 1)])]
    ordered = sorted(monos, key=grlex_key)
    assert ordered[0].exps == ((0, 1), (5, 1))
    assert ordered[1].exps == ((1, 1), (4, 1))
    assert ordered[2].exps == ((2, 1), (3, 1))
    # degree dominates
    assert sorted([Monomial([(1, 3)]), Monomial([(0, 1)])], key=grlex_key)[0].exps == ((1, 3),)


def test_format_polynomial(cusp):
    f = poly_by_names(cusp, {"x*z": 1, "y^2": -1})
    assert format_polynomial(f, cusp.domain_names) == "x*z - y^2"
    g = P(1, ({0: 2}, Fraction(3, 2)), ({}, -1))
    assert format_polynomial(g, ["u"]) == "3/2*u^2 - 1"
    assert format_polynomial(Polynomial(1)) == "0"


def test_power_cache_reuse(gr24):
    images = IntegerImages(gr24, 3)
    mono = mono_by_names(gr24, {"p12": 2, "p34": 1})
    first = images.expand([mono])
    second = images.expand([mono])
    assert first == second
    assert _decoded(images, first) == _sympy_psi_images(gr24, [mono])
    assert len(images.powers[0]) == 3  # psi_0^0, psi_0^1 and the cached psi_0^2
    assert images.powers[0][2] is images.power(0, 2)


def _sympy_psi_images(phi, columns):
    """psi^alpha = d^alpha * phi(x^alpha) per column, expanded by sympy, keyed by exponent vector."""
    ts = sympy.symbols(f"t0:{phi.m}")
    images = [
        sum(
            (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(ts[j] ** e for j, e in mono))
             for mono, c in f.terms.items()),
            sympy.Integer(0),
        )
        for f in phi.images
    ]
    lcms = [math.lcm(*(c.denominator for c in f.terms.values())) for f in phi.images]
    expected = []
    for alpha in columns:
        scale = math.prod(lcms[i] ** e for i, e in alpha)
        expr = sympy.expand(scale * sympy.Mul(*(images[i] ** e for i, e in alpha)))
        poly = sympy.Poly(expr, *ts)
        expected.append({exps: int(c) for exps, c in poly.as_dict().items() if c})
    return expected


def _decoded(images, expanded):
    packing = images.packing
    return [
        {tuple((key >> shift) & packing.mask for shift in packing.shifts): c for key, c in image.items()}
        for image in expanded
    ]


def test_integer_images_match_sympy():
    # each expanded column is psi^alpha = d^alpha * phi(x^alpha), d_i the lcm of phi_i's denominators
    rng = random.Random(2718)
    t = Polynomial.variable(1, 0)
    weighted = RingMap(
        [t * Polynomial.constant(1, Fraction(1, 2)), t**2 * Polynomial.constant(1, Fraction(-2, 3)), t**3],
        m=1,
    )
    level_components = [
        list(map(level.packing.monomial, basis))
        for degree in (1, 2, 3, 4, 5, 6)
        for level in [enumerate_level(grading_for_map(weighted), degree)]
        for basis in level.components.values()
    ]
    images = IntegerImages(weighted, 6)
    for columns in level_components:
        assert _decoded(images, images.expand(columns)) == _sympy_psi_images(weighted, columns)
    assert images.denominators == [2, 3, 1]

    checked = 0
    for _ in range(4):
        n, m = rng.randint(2, 4), rng.randint(1, 3)
        polys = [random_polynomial(rng, m, max_degree=2, max_terms=3) for _ in range(n)]
        polys[rng.randrange(n)] = Polynomial(m)
        phi = RingMap(polys, m=m)
        images = IntegerImages(phi, 3)
        for degree in (1, 2, 3):
            monos = [
                Monomial((i, 1) for i in combo)
                for combo in itertools.combinations_with_replacement(range(n), degree)
            ]
            for columns in (monos, rng.sample(monos, min(3, len(monos)))):
                assert _decoded(images, images.expand(columns)) == _sympy_psi_images(phi, columns)
                checked += 1
    assert checked == 24


def test_ring_and_homomorphism_laws_randomized():
    assert ring_laws_suite(300) == 300
