from __future__ import annotations

from fractions import Fraction

import pytest

from implicitize import Monomial, Polynomial, RingMap
from implicitize.polyring import format_polynomial, grlex_key

from support import mono_by_names, poly_by_names, ring_laws_suite


def P(num_vars, *terms):
    return Polynomial(num_vars, [(Monomial(exps.items()), c) for exps, c in terms])


def test_add_cancellation():
    x_plus_y = P(2, ({0: 1}, 1), ({1: 1}, 1))
    minus_x = P(2, ({0: 1}, -1))
    assert x_plus_y + minus_x == P(2, ({1: 1}, 1))


def test_add_identity_and_doubling():
    f = P(2, ({0: 2}, Fraction(3, 2)), ({1: 1}, -1))
    assert f + Polynomial.zero(2) == f
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
    assert f.is_homogeneous([1, 1, 1])
    g = P(1, ({0: 1}, 1), ({0: 2}, 1))
    assert not g.is_homogeneous([1])
    assert Polynomial.zero(1).is_homogeneous([7])


def test_apply_map_grassmannian(gr24):
    p12 = poly_by_names(gr24, {"p12": 1})
    image = gr24.apply(p12)
    expected = Polynomial(
        8, [(Monomial([(0, 1), (5, 1)]), 1), (Monomial([(1, 1), (4, 1)]), -1)]
    )  # x11*x22 - x12*x21
    assert image == expected

    pluecker = poly_by_names(gr24, {"p12*p34": 1, "p13*p24": -1, "p23*p14": 1})
    assert gr24.apply(pluecker).is_zero()


def test_apply_map_cusp(cusp):
    f = poly_by_names(cusp, {"x*z": 1, "y^2": -1})
    assert cusp.apply(f).is_zero()
    with pytest.raises(ValueError):
        cusp.apply(Polynomial.variable(2, 0))


def test_ring_map_validation():
    with pytest.raises(ValueError):
        RingMap([])
    with pytest.raises(ValueError):
        RingMap([Polynomial.variable(2, 0), Polynomial.variable(3, 0)])


def test_monomial_basics():
    m1 = Monomial([(2, 1), (0, 2)])
    assert m1.exps == ((0, 2), (2, 1))
    assert m1.degree() == 3
    assert m1.weighted_degree([1, 1, 2]) == 4
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
    assert format_polynomial(Polynomial.zero(1)) == "0"


def test_eval_mod_p():
    f = P(2, ({0: 2}, 1), ({1: 1}, Fraction(1, 2)))
    # at (3, 4) mod 7: 9 + 4/2 = 11 = 4
    assert f.eval_mod_p([3, 4], 7) == 4


def test_power_cache_reuse(gr24):
    mono = mono_by_names(gr24, {"p12": 2, "p34": 1})
    first = gr24.apply_monomial(mono)
    second = gr24.apply_monomial(mono)
    assert first == second
    assert (0, 2) in gr24._powers


def test_ring_and_homomorphism_laws_randomized():
    assert ring_laws_suite(300) == 300
