"""The mod-p screening certificate: soundness and pinned counts."""

from __future__ import annotations

import random

from implicitize import DEFAULT_PRIME, Monomial, MonomialPacking, Polynomial, RingMap, components_of_kernel, engine
from implicitize import sunlet_k3p_symmetries
from implicitize.linalg import nullspace_primitive
from implicitize.polyring import IntegerImages

from support import (
    assembled_rows,
    bulk_certified,
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
    for prime in (3, 5, 7, 101, DEFAULT_PRIME, None):  # None: the bulk count, with no certificate
        certified = 0
        for phi, degree in maps:
            calls.clear()
            moduli.clear()
            result = components_of_kernel(phi, degree, prime=prime)
            assert moduli <= {prime}  # the requested prime, never a substitute
            packing = MonomialPacking(phi.n, degree)
            denominators = IntegerImages(phi, degree).denominators
            passed = [columns for columns, ok in calls if ok]
            # lone components are certified in one count, with no call
            bulk = [(key,) for _, key in bulk_certified(phi, degree)]
            assert not set(bulk) & {columns for columns, _ in calls}
            assert len(passed) + len(bulk) == sum(
                stats.skipped_matroid + stats.skipped_prescreen for stats in result.level_stats
            )
            for columns in passed + bulk:
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
    without = components_of_kernel(gr24, 3, prime=None)
    assert any(stats.skipped_matroid + stats.skipped_prescreen for stats in with_skip.level_stats)
    assert [(g.poly, g.beta) for g in with_skip.generators] == [
        (g.poly, g.beta) for g in without.generators
    ]


def test_certificate_needs_as_many_rows_as_columns(monkeypatch):
    # images that touch fewer codomain monomials than there are columns cannot
    # be independent: the certificate runs no elimination for them, and they
    # are eliminated only for the independent tail of a component with lift rows
    ncols = []
    shapes = []  # (rows, columns touched) of every elimination mod p
    rank_mod_p = engine.rank_mod_p

    def spy(rows, p, given=None):
        rows = list(rows)
        shapes.append((len(rows), 1 + max((j for row in rows for j in row), default=-1)))
        if given is not None:
            ncols.append(given)
        return rank_mod_p(rows, p, given)

    monkeypatch.setattr(engine, "rank_mod_p", spy)
    calls = spy_certificates(monkeypatch)
    tails = []
    trim = engine.trim_basis

    def spy_trim(basis, lifts, prime=None, tail=0):
        if not prime:
            tails.append((len(basis), tail))
        return trim(basis, lifts, prime, tail)

    monkeypatch.setattr(engine, "trim_basis", spy_trim)
    result = components_of_kernel(generic_cubics_map(2), 3)
    # level 1 certifies its 8 columns over 10 cubics; levels 2 and 3 have 36
    # columns over 28 sextics and 120 columns, 64 lift rows, over 55 nonics:
    # the engine sees that no certificate can pass and runs none, nor any
    # elimination mod p; level 3's exact trim is cut at a guessed tail of 55
    assert [(len(columns), ok) for columns, ok in calls] == [(8, True)]
    assert ncols == [8]
    assert [stats.solved for stats in result.level_stats] == [0, 1, 1]
    assert shapes == [(10, 8)]
    assert tails == [(36, 0), (120, 55)]
    # without that bound, levels 2 and 3 put 36 columns over 28 sextics and
    # 59 over 55 nonics
    monkeypatch.setattr(engine, "image_degrees", lambda phi: None)
    for spied in (calls, ncols, shapes, tails):
        spied.clear()
    result = components_of_kernel(generic_cubics_map(2), 3)
    assert [(len(columns), ok) for columns, ok in calls] == [(8, True), (36, False), (59, False)]
    assert ncols == [8]
    assert [stats.solved for stats in result.level_stats] == [0, 1, 1]
    # level 2 has no lift rows and eliminates nothing; level 3 trims its 64
    # lift rows mod p, then eliminates its 55 x 59 images once, for a tail of
    # 55 columns that its exact trim drops
    assert shapes == [(10, 8), (64, 120), (55, 59)]
    assert tails == [(36, 0), (120, 55)]


def test_independent_tail_stops_at_a_dependent_column():
    # columns x0, x1, x2, x3 with images (t2 [+ t3], t0 + t1, t1, t0): taken
    # last first, x3 and x2 are independent and x1 depends on them, so the
    # tail is 2 although x0 is independent again; with t3 the 4 x 4 rows reach
    # the certificate's elimination, without it the 3 x 4 rows only the tail's
    t = [Polynomial.variable(4, j) for j in range(4)]
    packing = MonomialPacking(4, 1)
    columns = [packing.pack(Monomial.variable(i)) for i in range(4)]
    for top in (t[2] + t[3], t[2]):
        images = IntegerImages(RingMap([top, t[0] + t[1], t[1], t[0]]), 1)
        results = [engine.certify_no_generators(columns, images, packing, 101, trailing) for trailing in (0, 1, 4)]
        assert [(certified, tail) for certified, _, tail in results] == [(False, 0), (False, 1), (False, 2)]


def _spy_routes(monkeypatch) -> list[tuple[tuple[int, ...], bool, bool]]:
    """(packed columns, certified, certified by leading terms) per certificate call."""
    calls = []
    certify = engine.certify_no_generators

    def spy(columns, *args):
        result = certified, expanded, _ = certify(columns, *args)
        calls.append((tuple(columns), certified, certified and expanded is None))
        return result

    monkeypatch.setattr(engine, "certify_no_generators", spy)
    return calls


def test_leading_term_certificates_are_sound(gr24, gr25, cusp, monkeypatch):
    # every component certified by distinct leading monomials is re-solved to
    # an empty kernel, at every prime; the report counts exactly these
    calls = _spy_routes(monkeypatch)
    rng = random.Random(424242)
    maps = [(gr24, 3), (gr25, 3), (cusp, 3), (rational_quadrics_map(), 3), (dense_quartics_map(1), 2)]
    maps += [
        (random_monomial_map(rng, rng.randint(2, 6), rng.randint(2, 4), rng.randint(1, 3)), 3)
        for _ in range(3)
    ]
    for prime in (3, 5, 7, 101, DEFAULT_PRIME):
        leading = 0
        for phi, degree in maps:
            calls.clear()
            result = components_of_kernel(phi, degree, prime=prime)
            packing = MonomialPacking(phi.n, degree)
            settled = [columns for columns, _, by_leading in calls if by_leading]
            assert len(settled) == sum(stats.certified_by_leading_terms for stats in result.level_stats)
            for columns in settled:
                monomials = list(map(packing.monomial, columns))
                assert nullspace_primitive(assembled_rows(phi, monomials), len(monomials)) == []
            leading += len(settled)
        assert leading, prime


def test_zero_image_columns_skip_leading_terms(monkeypatch):
    # a column with a zero-image variable has image 0: no order may certify it
    s, t = (Polynomial.variable(2, j) for j in range(2))
    phi = RingMap([s, t, Polynomial(2), s * t, s + t])
    images = IntegerImages(phi, 3)
    packing = MonomialPacking(phi.n, 3)
    pack = lambda *exps: packing.pack(Monomial(exps))  # noqa: E731
    for columns in ([pack((2, 1))], [pack((0, 1), (2, 1))], [pack((0, 1)), pack((2, 1))], [pack((2, 3))]):
        certified, expanded, _ = engine.certify_no_generators(columns, images, packing, DEFAULT_PRIME)
        assert not certified and expanded is not None
    # the same columns without the zero-image variable are certified by leading terms
    assert engine.certify_no_generators([pack((0, 1)), pack((1, 1))], images, packing, 3) == (True, None, 0)
    calls = _spy_routes(monkeypatch)
    zero = images.zero_fields
    for prime in (DEFAULT_PRIME, None):
        components_of_kernel(phi, 3, prime=prime)
    touched = [by_leading for columns, _, by_leading in calls if any(c & zero for c in columns)]
    assert touched and not any(touched)


def test_colliding_leading_terms_fall_back_to_rank():
    # t0 + t1 and t0 - t1 share their support, so their leading monomials, and
    # those of all their products, collide under every order; their images are
    # independent all the same, and rank mod p certifies them
    t0, t1 = (Polynomial.variable(2, j) for j in range(2))
    phi = RingMap([t0 + t1, t0 - t1])
    images = IntegerImages(phi, 2)
    assert all(lead[0] == lead[1] for lead in images.leading_keys())
    packing = MonomialPacking(phi.n, 2)
    pack = lambda *exps: packing.pack(Monomial(exps))  # noqa: E731
    for columns in ([pack((0, 1)), pack((1, 1))], [pack((0, 2)), pack((0, 1), (1, 1)), pack((1, 2))]):
        certified, expanded, _ = engine.certify_no_generators(columns, images, packing, DEFAULT_PRIME)
        assert certified and expanded == images.expand(map(packing.pairs, columns))
    result = components_of_kernel(phi, 2)
    assert result.generators == []
    assert [(st.components, st.skipped_matroid, st.certified_by_leading_terms) for st in result.level_stats] == [
        (1, 1, 0),
        (1, 1, 0),
    ]


def test_leading_term_decisions_repeat(sunlet, monkeypatch):
    # fixed orders: two runs, and two fresh image tables, decide alike
    calls = _spy_routes(monkeypatch)
    phi = sunlet.with_symmetries(sunlet_k3p_symmetries())
    components_of_kernel(phi, 3)
    first = list(calls)
    calls.clear()
    components_of_kernel(phi, 3)
    assert calls == first and sum(by_leading for _, _, by_leading in first) == 31 + 935
    assert IntegerImages(sunlet, 3).leading_keys() == IntegerImages(sunlet, 3).leading_keys()
