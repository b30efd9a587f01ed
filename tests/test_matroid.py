from __future__ import annotations

import random

from implicitize import (
    EngineOptions,
    Polynomial,
    RingMap,
    build_jacobian,
    can_skip,
    components_of_kernel,
    enumerate_level,
    grading_for_map,
)
from implicitize.engine import assemble_component
from implicitize.linalg import exact_kernel

from support import sympy_jacobian_rank

PRIME = 2**61 - 1


def test_cusp_jacobian_column(cusp):
    jac = build_jacobian(cusp, PRIME, seed=3)
    a, b = jac.point
    # image of x is (a+b)^2, so its column is (2(a+b), 2(a+b))
    expected = 2 * (a + b) % PRIME
    assert jac.entries[0][0] == expected
    assert jac.entries[1][0] == expected
    # image of y is a^2 - b^2
    assert jac.entries[0][1] == 2 * a % PRIME
    assert jac.entries[1][1] == (-2 * b) % PRIME


def test_monomial_power_jacobian():
    phi = RingMap([Polynomial.variable(1, 0) ** 4], m=1)
    jac = build_jacobian(phi, PRIME, seed=11)
    t = jac.point[0]
    assert jac.entries[0][0] == 4 * pow(t, 3, PRIME) % PRIME


def test_grassmannian_jacobian_rank(gr24):
    # symbolic oracle over the function field: 8 x 6 Jacobian with rank 5
    assert sympy_jacobian_rank(gr24) == 5
    jac = build_jacobian(gr24, PRIME, seed=0)
    assert len(jac.entries) == 8 and len(jac.entries[0]) == 6
    assert can_skip(jac, range(6)) is False

    assert sympy_jacobian_rank(gr24, [0, 1]) == 2
    assert can_skip(jac, (0, 1)) is True
    assert can_skip(jac, ()) is True


def test_cache_consistency(gr24):
    jac = build_jacobian(gr24, PRIME, seed=0)
    cache = {}
    first = can_skip(jac, (0, 1, 2), cache)
    assert cache.get((0, 1, 2)) == first
    assert can_skip(jac, (0, 1, 2), cache) == first == can_skip(jac, (0, 1, 2))


def test_monotonicity_under_subsets(gr25):
    jac = build_jacobian(gr25, PRIME, seed=1)
    cache = {}
    rng = random.Random(17)
    for _ in range(200):
        big = tuple(sorted(rng.sample(range(gr25.n), rng.randint(1, gr25.n))))
        small = tuple(sorted(rng.sample(big, rng.randint(1, len(big)))))
        if can_skip(jac, big, cache):
            assert can_skip(jac, small, cache)


def test_skipped_components_truly_trivial(gr24, cusp):
    # certified soundness: re-solve every skipped component exactly
    for phi in (gr24, cusp):
        grading = grading_for_map(phi)
        jac = build_jacobian(phi, PRIME, seed=0)
        cache = {}
        for degree in (1, 2, 3):
            level = enumerate_level(grading, degree)
            for basis in level.components.values():
                if can_skip(jac, basis.support, cache):
                    matrix = assemble_component(phi, list(basis.monomials))
                    assert exact_kernel(matrix).dimension == 0


def test_sunlet_skip_counts_pinned(sunlet):
    # measured once and stable: deterministic grading basis and seed-0 point
    result = components_of_kernel(sunlet, 2, EngineOptions(seed=0))
    stats = result.level_stats[1]
    assert stats.components == 1720
    assert stats.skipped_matroid == 1708
    assert stats.solved == 12


def test_skip_neutral_on_outputs(gr24):
    with_skip = components_of_kernel(gr24, 3)
    without = components_of_kernel(gr24, 3, EngineOptions(use_skip=False))
    assert [(g.poly, g.beta) for g in with_skip.generators] == [
        (g.poly, g.beta) for g in without.generators
    ]
