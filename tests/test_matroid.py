"""The mod-p screening certificate: soundness and pinned counts."""

from __future__ import annotations

import random

from implicitize import EngineOptions, MonomialPacking, components_of_kernel
from implicitize.engine import assemble_component
from implicitize.linalg import exact_kernel

from support import random_monomial_map, spy_certificates


def test_skipped_components_truly_trivial(gr24, gr25, cusp, monkeypatch):
    # certified soundness: re-solve every certified component exactly
    calls = spy_certificates(monkeypatch)
    rng = random.Random(424242)
    maps = [gr24, gr25, cusp] + [
        random_monomial_map(rng, rng.randint(2, 6), rng.randint(2, 4), rng.randint(1, 3))
        for _ in range(3)
    ]
    lone = 0
    for prime in (3, 5, 101, EngineOptions().prime):
        certified = 0
        for phi in maps:
            calls.clear()
            result = components_of_kernel(phi, 3, EngineOptions(prime=prime))
            packing = MonomialPacking(phi.n, 3)
            passed = [columns for columns, ok in calls if ok]
            assert len(passed) == sum(
                stats.skipped_matroid + stats.skipped_prescreen for stats in result.level_stats
            )
            for columns in passed:
                certified += 1
                matrix = assemble_component(phi, list(map(packing.monomial, columns)))
                assert exact_kernel(matrix).dimension == 0
                lone += len(columns) == 1
        assert certified, prime
    # one-column components are certified without evaluation, and re-solved above
    assert lone


def test_sunlet_skip_counts_pinned(sunlet):
    # measured once and stable: deterministic grading basis and seed-0 points
    result = components_of_kernel(sunlet, 2, EngineOptions(seed=0))
    stats = result.level_stats[1]
    assert stats.components == 1720
    assert stats.skipped_matroid == 1708
    assert stats.solved == 12


def test_skip_neutral_on_outputs(gr24):
    # certifying a component only skips its exact solve; generators are unchanged
    with_skip = components_of_kernel(gr24, 3)
    without = components_of_kernel(gr24, 3, EngineOptions(use_prescreen=False))
    assert any(stats.skipped_matroid + stats.skipped_prescreen for stats in with_skip.level_stats)
    assert [(g.poly, g.beta) for g in with_skip.generators] == [
        (g.poly, g.beta) for g in without.generators
    ]
