"""The mod-p screening certificate: soundness and pinned counts."""

from __future__ import annotations

import random

from implicitize import DEFAULT_PRIME, MonomialPacking, components_of_kernel, engine
from implicitize.linalg import nullspace_primitive
from implicitize.polyring import IntegerImages

from support import (
    assembled_rows,
    dense_quartics_map,
    generic_cubics_map,
    random_monomial_map,
    rational_quadrics_map,
    spy_certificates,
)


def test_skipped_components_truly_trivial(gr24, gr25, cusp, monkeypatch):
    # certified soundness: re-solve every certified component exactly
    calls = spy_certificates(monkeypatch)
    moduli = set()
    rank_mod_p = engine.rank_mod_p

    def spy_rank(rows, p, ncols=None):
        moduli.add(p)
        return rank_mod_p(rows, p, ncols)

    monkeypatch.setattr(engine, "rank_mod_p", spy_rank)
    rng = random.Random(424242)
    maps = [(gr24, 3), (gr25, 3), (cusp, 3), (rational_quadrics_map(), 3), (dense_quartics_map(1), 2)]
    maps += [
        (random_monomial_map(rng, rng.randint(2, 6), rng.randint(2, 4), rng.randint(1, 3)), 3)
        for _ in range(3)
    ]
    lone = unit_free = 0
    for prime in (3, 5, 7, 101, DEFAULT_PRIME):
        certified = 0
        for phi, degree in maps:
            calls.clear()
            moduli.clear()
            result = components_of_kernel(phi, degree, prime=prime)
            assert moduli <= {prime}  # the requested prime, never a substitute
            packing = MonomialPacking(phi.n, degree)
            denominators = IntegerImages(phi, degree).denominators
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
    # one-column components are certified without elimination, and re-solved above
    assert lone
    # eliminated components are certified at primes that divide their denominators too
    assert unit_free


def test_sunlet_skip_counts_pinned(sunlet):
    # measured once and stable: deterministic grading basis and certificate
    result = components_of_kernel(sunlet, 2)
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


def test_certificate_needs_as_many_rows_as_columns(monkeypatch):
    # images that touch fewer codomain monomials than there are columns cannot
    # be independent: no elimination runs
    ncols = []
    rank_mod_p = engine.rank_mod_p

    def spy(rows, p, given=None):
        if given is not None:
            ncols.append(given)
        return rank_mod_p(rows, p, given)

    monkeypatch.setattr(engine, "rank_mod_p", spy)
    calls = spy_certificates(monkeypatch)
    result = components_of_kernel(generic_cubics_map(2), 3)
    # level 1 certifies its 8 columns over 10 cubics; levels 2 and 3 put 36
    # columns over 28 sextics and 59 over 55 nonics
    assert [(len(columns), ok) for columns, ok in calls] == [(8, True), (36, False), (59, False)]
    assert ncols == [8]
    assert [stats.solved for stats in result.level_stats] == [0, 1, 1]
