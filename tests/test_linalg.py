from __future__ import annotations

from fractions import Fraction

import pytest

from implicitize.linalg import (
    exact_kernel,
    is_prime,
    kernel_basis,
    next_prime,
    normalize_primitive,
    nullspace_primitive,
    prescreen_trivial,
    rank_mod_p,
    sparse_rref,
)

from support import (
    GR24_CUBIC_COMPONENT,
    GR24_QUADRIC_COMPONENT,
    component_from_dense,
    dense_rank_oracle,
    linalg_suite,
    sympy_nullspace,
    sympy_rank,
)


def test_quadric_component_kernel():
    matrix = component_from_dense(GR24_QUADRIC_COMPONENT)
    kernel = exact_kernel(matrix)
    assert kernel.vectors == [[1, -1, 1]]
    # oracle agreement
    oracle = sympy_nullspace(GR24_QUADRIC_COMPONENT)
    assert len(oracle) == 1
    assert normalize_primitive(oracle[0]) == [1, -1, 1]


def test_cubic_component_kernel_and_trimmed_column():
    kernel = exact_kernel(component_from_dense(GR24_CUBIC_COMPONENT))
    assert kernel.vectors == [[1, -1, 1]]
    trimmed = [row[1:] for row in GR24_CUBIC_COMPONENT]
    assert exact_kernel(component_from_dense(trimmed)).dimension == 0


def test_rank_mod_p_examples():
    assert rank_mod_p([[0, 0], [0, 0]], 101) == 0
    assert rank_mod_p([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 101) == 3
    # the quadric component has rational rank 2 and 101 preserves it
    assert sympy_rank(GR24_QUADRIC_COMPONENT) == 2
    assert rank_mod_p(GR24_QUADRIC_COMPONENT, 101) == 2


def test_prescreen_examples():
    assert prescreen_trivial(component_from_dense(GR24_QUADRIC_COMPONENT), 101) is False
    full_rank = component_from_dense([[1, 0], [0, 1], [1, 1]])
    assert prescreen_trivial(full_rank, 101) is True
    zero = component_from_dense([[0]])
    assert prescreen_trivial(zero, 101) is False


def test_prescreen_bad_prime():
    from implicitize.polyring import BadPrimeError

    matrix = component_from_dense([[Fraction(1, 5)]])
    with pytest.raises(BadPrimeError):
        prescreen_trivial(matrix, 5)


def test_kernel_of_empty_and_zero_matrices():
    # no rows: every column is free
    assert kernel_basis([], 2) == [[1, 0], [0, 1]]
    zero_row = component_from_dense([[0, 0]])
    assert exact_kernel(zero_row).vectors == [[1, 0], [0, 1]]


def test_normalize_primitive():
    assert normalize_primitive([Fraction(-2, 3), Fraction(4, 3)]) == [1, -2]
    assert normalize_primitive([0, 0]) == [0, 0]
    assert normalize_primitive([Fraction(6), Fraction(-9)]) == [2, -3]
    # idempotent on integers
    assert normalize_primitive([2, -3]) == [2, -3]


def test_rank_rational_and_solve():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    sparse = [{j: Fraction(v) for j, v in enumerate(row) if v} for row in rows]
    assert len(sparse_rref(sparse, 3)[1]) == 2 == dense_rank_oracle(rows)


def test_nullspace_primitive_matches_oracle():
    rows = [[1, 1, 1, 0], [0, 1, -1, 2]]
    ours = nullspace_primitive(rows, 4)
    for vec in ours:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0
    assert len(ours) == len(sympy_nullspace(rows)) == 2


def test_primes():
    assert is_prime(2) and is_prime(101) and is_prime(2**61 - 1)
    assert not is_prime(1) and not is_prime(2**61 + 1)
    assert next_prime(101) == 103


def test_rank_nullity_and_prescreen_soundness_randomized():
    assert linalg_suite(300) == 300
