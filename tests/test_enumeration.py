from __future__ import annotations

import gc
import math

import pytest

from implicitize import (
    enumerate_level,
    grading_for_map,
    lookup_basis,
    multidegree_of,
)
from implicitize.enumeration import EMPTY_BASIS
from implicitize.grading import GradingMatrix, NoPositiveWeightError
from implicitize.polyring import grlex_key

from support import enumeration_suite, grading_from_rows, mono_by_names


def test_grassmannian_level_two(gr24):
    grading = grading_for_map(gr24)
    level = enumerate_level(grading, 2)
    assert level.monomial_count == 21 == math.comb(6 + 2 - 1, 2)
    assert len(level.components) == 19
    big = [b for b in level.components.values() if len(b.monomials) > 1]
    assert len(big) == 1 and len(big[0].monomials) == 3
    expected = [
        mono_by_names(gr24, {"p12": 1, "p34": 1}),
        mono_by_names(gr24, {"p13": 1, "p24": 1}),
        mono_by_names(gr24, {"p23": 1, "p14": 1}),
    ]
    assert list(big[0].monomials) == expected


def test_grassmannian_level_one_singletons(gr24):
    grading = grading_for_map(gr24)
    level = enumerate_level(grading, 1)
    assert level.monomial_count == 6 and len(level.components) == 6
    p12 = mono_by_names(gr24, {"p12": 1})
    beta = multidegree_of(grading, p12).beta
    assert lookup_basis(level, beta).monomials == (p12,)


def test_lookup_unknown_beta(gr24):
    grading = grading_for_map(gr24)
    level = enumerate_level(grading, 1)
    assert lookup_basis(level, (99,) * grading.rank) is EMPTY_BASIS


def test_single_variable_level():
    grading = grading_from_rows([[1]], 1, weight=[1])
    level = enumerate_level(grading, 3)
    assert len(level.components) == 1
    (basis,) = level.components.values()
    assert [m.exps for m in basis.monomials] == [((0, 3),)]


def test_component_order_and_member_order(cusp):
    grading = grading_for_map(cusp)
    level = enumerate_level(grading, 2)
    betas = list(level.components)
    assert betas == sorted(betas)
    for basis in level.components.values():
        keys = [grlex_key(m) for m in basis.monomials]
        assert keys == sorted(keys)


def test_cusp_levels_collapse_to_one_component(cusp):
    # rank-1 grading (2,2,2): every degree-2 monomial shares multidegree (4)
    grading = grading_for_map(cusp)
    level = enumerate_level(grading, 2)
    assert len(level.components) == 1
    assert level.monomial_count == 6
    assert list(level.components) == [(4,)]


def test_sunlet_level_two_counts(sunlet):
    grading = grading_for_map(sunlet)
    assert grading.rank == 13
    level = enumerate_level(grading, 2)
    assert level.monomial_count == 2080
    assert len(level.components) == 1720


def test_weight_required():
    grading = GradingMatrix(A=[[1, 1]], n=2)
    with pytest.raises(NoPositiveWeightError):
        enumerate_level(grading, 1)
    grading.positive_weight = [1, 1]
    with pytest.raises(ValueError):
        enumerate_level(grading, 0)


def test_partition_identity_randomized():
    assert enumeration_suite(300) == 300


def test_level_leaves_no_cyclic_garbage(gr25):
    # the recursive walk must not keep a level's buckets alive until the next gc
    grading = grading_for_map(gr25)
    gc.collect()
    gc.disable()
    try:
        level = enumerate_level(grading, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert level.monomial_count == math.comb(10 + 3 - 1, 3)
