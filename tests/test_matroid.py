"""The mod-p screening certificate: soundness and pinned counts."""

from __future__ import annotations

import itertools
import random

from implicitize import DEFAULT_PRIME, MonomialPacking, components_of_kernel, engine
from implicitize.linalg import nullspace_primitive
from implicitize.polyring import IntegerImages

from support import assembled_rows, random_monomial_map, rational_quadrics_map, spy_certificates


def test_skipped_components_truly_trivial(gr24, gr25, cusp, monkeypatch):
    # certified soundness: re-solve every certified component exactly
    calls = spy_certificates(monkeypatch)
    moduli = set()
    rank_mod_p = engine.rank_mod_p

    def spy_rank(rows, p):
        moduli.add(p)
        return rank_mod_p(rows, p)

    monkeypatch.setattr(engine, "rank_mod_p", spy_rank)
    rng = random.Random(424242)
    maps = [gr24, gr25, cusp, rational_quadrics_map()] + [
        random_monomial_map(rng, rng.randint(2, 6), rng.randint(2, 4), rng.randint(1, 3))
        for _ in range(3)
    ]
    lone = unit_free = 0
    # points have nonzero coordinates, and at 5 and 7 seed 0's points miss the
    # rational quadrics' 5-column component, which seed 2's certify
    for prime, seed in itertools.product((3, 5, 7, 101, DEFAULT_PRIME), (0, 2)):
        certified = 0
        for phi in maps:
            calls.clear()
            moduli.clear()
            result = components_of_kernel(phi, 3, prime=prime, seed=seed)
            assert moduli <= {prime}  # the requested prime, never a substitute
            packing = MonomialPacking(phi.n, 3)
            denominators = IntegerImages(phi, 3).denominators
            passed = [columns for columns, ok in calls if ok]
            assert len(passed) == sum(
                stats.skipped_matroid + stats.skipped_prescreen for stats in result.level_stats
            )
            for columns in passed:
                certified += 1
                monomials = list(map(packing.monomial, columns))
                rows = assembled_rows(phi, monomials)
                assert nullspace_primitive(rows, len(monomials)) == []
                lone += len(columns) == 1
                unit_free += len(columns) > 1 and any(
                    denominators[i] % prime == 0 for mono in monomials for i, _ in mono.exps
                )
        assert certified, prime
    # one-column components are certified without evaluation, and re-solved above
    assert lone
    # evaluated components are certified at primes that divide their denominators too
    assert unit_free


def test_sunlet_skip_counts_pinned(sunlet):
    # measured once and stable: deterministic grading basis and seed-0 points
    result = components_of_kernel(sunlet, 2, seed=0)
    stats = result.level_stats[1]
    assert stats.components == 1720
    assert stats.skipped_matroid == 1708
    assert stats.solved == 12


def test_skip_neutral_on_outputs(gr24):
    # certifying a component only skips its exact solve; generators are unchanged
    with_skip = components_of_kernel(gr24, 3)
    without = components_of_kernel(gr24, 3, prescreen=False)
    assert any(stats.skipped_matroid + stats.skipped_prescreen for stats in with_skip.level_stats)
    assert [(g.poly, g.beta) for g in with_skip.generators] == [
        (g.poly, g.beta) for g in without.generators
    ]
