from __future__ import annotations

import gc
import itertools
import math
import random
import tracemalloc

import pytest

from implicitize import (
    Monomial,
    MonomialPacking,
    Polynomial,
    RingMap,
    components_of_kernel,
    enumerate_level,
    grading_for_map,
)
from implicitize.engine import push_index
from implicitize.grading import GradingMatrix, NoPositiveWeightError
from implicitize.polyring import grlex_key

from support import (
    enumeration_suite,
    grading_from_rows,
    mono_by_names,
    multidegree_of,
    raw_lift_sources,
    reference_keys,
    shared_levels,
    unpacked,
    weighted_count_oracle,
)


def test_grassmannian_level_two(gr24):
    grading = grading_for_map(gr24)
    level = enumerate_level(grading, 2)
    assert level.monomial_count == 21 == math.comb(6 + 2 - 1, 2)
    assert len(level.components) == 19
    big = [b for b in level.components.values() if len(b) > 1]
    assert len(big) == 1 and len(big[0]) == 3
    expected = [
        mono_by_names(gr24, {"p12": 1, "p34": 1}),
        mono_by_names(gr24, {"p13": 1, "p24": 1}),
        mono_by_names(gr24, {"p23": 1, "p14": 1}),
    ]
    assert unpacked(level, big[0]) == expected


def test_grassmannian_level_one_singletons(gr24):
    grading = grading_for_map(gr24)
    level = enumerate_level(grading, 1)
    assert level.monomial_count == 6 and len(level.components) == 6
    p12 = mono_by_names(gr24, {"p12": 1})
    beta = multidegree_of(grading, p12)
    by_beta = {level.packing.beta(key): basis for key, basis in level.components.items()}
    assert by_beta[beta] == (level.packing.pack(p12),)


def test_lookup_unknown_beta(gr24):
    # a shift that lands on no component of the level files no lift
    grading = grading_for_map(gr24)
    levels = shared_levels(grading, 3)
    run = components_of_kernel(gr24, 2)
    index = push_index(raw_lift_sources(run.generators, levels[3].packing), levels[3], levels)
    assert 0 not in levels[3].components  # beta = 0
    assert set(index) <= set(levels[3].components)
    assert sum(len(gammas) for lifts in index.values() for _, _, gammas in lifts) == 6


def test_single_variable_level():
    grading = grading_from_rows([[1]], 1, weight=[1])
    level = enumerate_level(grading, 3)
    assert len(level.components) == 1
    (basis,) = level.components.values()
    assert [level.packing.pairs(key) for key in basis] == [((0, 3),)]


def test_component_order_and_member_order(cusp):
    grading = grading_for_map(cusp)
    level = enumerate_level(grading, 2)
    betas = [level.packing.beta(key) for key in level.components]
    assert list(level.components) == sorted(level.components) and betas == sorted(betas)
    for basis in level.components.values():
        keys = [grlex_key(m) for m in unpacked(level, basis)]
        assert keys == sorted(keys)
        assert list(basis) == sorted(basis, reverse=True)


def test_cusp_levels_collapse_to_one_component(cusp):
    # rank-1 grading (2,2,2): every degree-2 monomial shares multidegree (4)
    grading = grading_for_map(cusp)
    level = enumerate_level(grading, 2)
    assert len(level.components) == 1
    assert level.monomial_count == 6
    assert [level.packing.beta(key) for key in level.components] == [(4,)]


def test_sunlet_level_two_counts(sunlet):
    grading = grading_for_map(sunlet)
    assert grading.rank == 13
    level = enumerate_level(grading, 2)
    assert level.monomial_count == 2080
    assert len(level.components) == 1720


def test_weight_required():
    with pytest.raises(NoPositiveWeightError):
        enumerate_level(GradingMatrix(A=[[1, 1]], n=2, positive_weight=None), 1)
    with pytest.raises(ValueError):
        enumerate_level(GradingMatrix(A=[[1, 1]], n=2, positive_weight=[1, 1]), 0)


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


def _assert_packed_order_is_grlex(level):
    everything = [key for basis in level.components.values() for key in basis]
    assert len(set(everything)) == len(everything)
    for basis in level.components.values():
        monos = unpacked(level, basis)
        assert monos == sorted(monos, key=grlex_key)
        assert all(a > b for a, b in zip(basis, basis[1:]))
    # across components too: numeric order of keys is graded-lex order
    monos = unpacked(level, sorted(everything, reverse=True))
    assert monos == sorted(monos, key=grlex_key)


def test_packed_order_mixes_total_degrees():
    # x -> t, y -> t^2, z -> t^3: weight (1, 2, 3), so one level mixes total degrees
    t = Polynomial.variable(1, 0)
    grading = grading_for_map(RingMap([t, t**2, t**3], m=1))
    assert grading.positive_weight == [1, 2, 3]
    packing = MonomialPacking(3, 12, grading.A)
    for degree in range(1, 13):
        level = enumerate_level(grading, degree, packing)
        degrees = {m.degree() for basis in level.components.values() for m in unpacked(level, basis)}
        assert degree < 3 or len(degrees) > 1
        _assert_packed_order_is_grlex(level)
    # past 255 the fields are wider than a byte
    level = enumerate_level(grading, 300)
    assert level.packing.width == 9
    assert level.monomial_count == 7651
    _assert_packed_order_is_grlex(level)


def test_packed_beta_at_the_field_extremes():
    # |beta_k| reaches bound * max |A| = 15 with both signs: the signed fields
    # decode exactly, keys add, and key order is beta-lexicographic, then graded-lex
    A = [[3, -3, 0], [-3, 1, 3]]
    packing = MonomialPacking(3, 5, A)
    assert packing.beta_width == 5
    monos = [
        Monomial(enumerate(exps))
        for exps in itertools.product(range(6), repeat=3)
        if sum(exps) <= 5
    ]
    keys = {mono: packing.pack(mono) for mono in monos}
    betas = {mono: multidegree_of(GradingMatrix(A, 3, None), mono) for mono in monos}
    assert {b for beta in betas.values() for b in beta} >= {15, -15}
    for a in monos:
        assert packing.beta(keys[a] >> packing.beta_shift) == betas[a]
        assert packing.pairs(keys[a]) == a.exps
        for b in monos:
            if betas[a] != betas[b]:
                assert (keys[a] < keys[b]) == (betas[a] < betas[b])
            else:
                assert (keys[a] < keys[b]) == (grlex_key(a) > grlex_key(b))
            if a.degree() + b.degree() <= 5:
                assert packing.pack(a * b) == keys[a] + keys[b]


def test_packing_without_the_grading_is_refused(gr24):
    # keys without the grading's fields would merge the whole level into one component
    grading = grading_for_map(gr24)
    enumerate_level(grading, 2, MonomialPacking(grading.n, 2, grading.A))
    other = [row[::-1] for row in grading.A]
    for packing in (MonomialPacking(grading.n, 2), MonomialPacking(grading.n, 2, other)):
        with pytest.raises(ValueError, match="not the grading's"):
            enumerate_level(grading, 2, packing)


def test_level_memory_peak(sunlet):
    # a level holds its sorted keys, component keys and run bounds, nothing per component
    grading = grading_for_map(sunlet)
    tracemalloc.start()
    try:
        level = enumerate_level(grading, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert level.monomial_count == 45760 and len(level.components) == 25152
    assert peak <= 5.0e6


def test_pack_unpack_round_trip():
    rng = random.Random(8128)
    for _ in range(300):
        n = rng.randint(1, 9)
        bound = rng.choice([1, 2, 3, 7, 8, 255, 256, 1000])
        packing = MonomialPacking(n, bound)
        monos = []
        for _ in range(4):
            exps = {}
            for _ in range(rng.randint(0, 4)):
                i = rng.randrange(n)
                exps[i] = exps.get(i, 0) + rng.randint(1, bound)
            mono = Monomial(exps.items())
            if mono.degree() <= bound:
                monos.append(mono)
        for a in monos:
            key = packing.pack(a)
            assert packing.pairs(key) == a.exps
            assert packing.monomial(key) == a
            for b in monos:
                other = packing.pack(b)
                assert (key > other) == (grlex_key(a) < grlex_key(b))
                if a.degree() + b.degree() <= bound:
                    assert packing.pack(a * b) == key + other


def test_packing_bound_widens_or_refuses():
    assert MonomialPacking(4, 255).width == 8
    assert MonomialPacking(4, 256).width == 9
    packing = MonomialPacking(3, 255)
    # an exponent at the bound fills its field without touching its neighbours
    top = Monomial([(1, 255)])
    assert packing.pairs(packing.pack(top)) == ((1, 255),)
    with pytest.raises(OverflowError):
        packing.pack(Monomial([(0, 200), (2, 56)]))
    grading = grading_from_rows([[1, 1, 1]], 3, weight=[1, 1, 1])
    with pytest.raises(ValueError):
        enumerate_level(grading, 4, MonomialPacking(3, 3))
    with pytest.raises(ValueError):
        enumerate_level(grading, 2, MonomialPacking(4, 3))
    level = enumerate_level(grading, 300)
    assert level.packing.bound == 300
    assert level.monomial_count == math.comb(302, 2)


def test_streamed_levels_match_and_drop_their_groups(sunlet):
    # a run's levels, each built from the groups of the ones below, equal the
    # levels built on their own; a group list goes once no later level reads it
    grading = grading_for_map(sunlet)
    packing = MonomialPacking(grading.n, 3, grading.A)
    grouped: dict = {}
    for degree in (1, 2, 3):
        streamed = enumerate_level(grading, degree, packing, grouped=grouped)
        alone = enumerate_level(grading, degree, packing)
        assert streamed == alone
        assert set(grouped) == ({degree} if degree < 3 else set())
    with pytest.raises(ValueError, match="ascend"):
        grouped[3] = ([], [0] * grading.n)
        enumerate_level(grading, 2, packing, grouped=grouped)
    # weights 2 and 3: level 1 is empty, and each level reads the three below it
    weighted = grading_from_rows([[2, 3, 3]], 3, weight=[2, 3, 3])
    packing = MonomialPacking(3, 7, weighted.A)
    grouped = {}
    for degree in range(1, 8):
        level = enumerate_level(weighted, degree, packing, grouped=grouped)
        assert list(level.keys) == reference_keys(weighted, degree, packing)
        assert level.monomial_count == weighted_count_oracle([2, 3, 3], degree)
        assert max(grouped, default=degree) - min(grouped, default=degree) < 3
    assert enumerate_level(weighted, 1).monomial_count == 0
