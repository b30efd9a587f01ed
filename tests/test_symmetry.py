"""Declared map symmetries: format, exact check, orbit walk and unchanged output."""

from __future__ import annotations

import hashlib
import json

import pytest

from implicitize import (
    DEFAULT_PRIME,
    RingMap,
    Symmetry,
    cli,
    components_of_kernel,
    engine,
    gen_cusp,
    gen_grassmannian,
    gen_sunlet_k3p,
    grading_for_map,
    grassmannian_symmetries,
    sunlet_k3p_symmetries,
)
from implicitize.engine import GROUP_CAP, orbits, symmetry_group, symmetry_moves
from implicitize.linalg import nullspace_primitive
from implicitize.mapfile import MapParseError, emit_map_json, emit_map_text, parse_map

from support import (
    counts_by_degree,
    multidegree_of,
    shared_levels,
    spy_certificates,
    sympy_oracle_check,
    unpacked,
)


def _symmetric(n: int | None = None) -> RingMap:
    if n is None:
        return gen_sunlet_k3p().with_symmetries(sunlet_k3p_symmetries())
    return gen_grassmannian(n).with_symmetries(grassmannian_symmetries(n))


def test_symmetries_round_trip():
    for phi in (_symmetric(4), _symmetric(9), _symmetric(12), _symmetric()):
        for emit in (emit_map_json, emit_map_text):
            parsed = parse_map(emit(phi))
            assert parsed == phi and parsed.symmetries == phi.symmetries
    # maps without symmetries emit as before
    assert "symmetries" not in emit_map_json(gen_cusp())
    assert "symmetry:" not in emit_map_text(gen_cusp())
    # the signs of the transposition (1 2) on Gr(2,4)
    assert emit_map_text(_symmetric(4)).splitlines()[2] == (
        "symmetry: -p12 p23 p13 p24 p14 p34 ; x12 x11 x13 x14 x22 x21 x23 x24"
    )


def test_declared_non_symmetry_exits_2(tmp_path):
    good = json.loads(emit_map_json(_symmetric(4)))
    unsigned = json.loads(json.dumps(good))
    unsigned["symmetries"][0]["domain"][0] = "p12"  # (1 2) negates p12
    repeated = json.loads(json.dumps(good))
    repeated["symmetries"][1]["codomain"][0] = "x11"  # x11 taken twice
    short = json.loads(json.dumps(good))
    short["symmetries"][0]["codomain"].pop()
    unknown = json.loads(json.dumps(good))
    unknown["symmetries"][0]["domain"][1] = "-q"
    text = emit_map_text(_symmetric(4))
    malformed = dict(good, symmetries=[["p12"]])
    cases = [json.dumps(bad) for bad in (unsigned, repeated, short, unknown, malformed)]
    cases += [
        text.replace("symmetry: -p12", "symmetry: p12", 1),
        text.replace(" ; x12 x11", " x12 x11", 1),
        "symmetry: y x ; t\nx = t\ny = t^2\n",
    ]
    for k, bad in enumerate(cases):
        with pytest.raises(MapParseError):
            parse_map(bad)
        path = tmp_path / f"bad{k}.map"
        path.write_text(bad, encoding="utf-8")
        assert cli.main(["run", "--map", str(path), "-d", "2"]) == 2
    with pytest.raises(ValueError):
        gen_grassmannian(4).with_symmetries([Symmetry(((0, 2),) * 6, ())])


def test_invariant_failures_exit_4(tmp_path, monkeypatch, capsys):
    path = tmp_path / "gr24.map"
    path.write_text(emit_map_json(_symmetric(4)), encoding="utf-8")
    args = ["run", "--map", str(path), "-d", "3"]
    assert cli.main(args) == 0
    # swapping p12 and p13 alone preserves no grading: an unchecked transport
    # carries a component out of its level
    swap = [1, 0, 2, 3, 4, 5]
    monkeypatch.setattr(engine, "symmetry_moves", lambda grading, symmetries: [swap])
    assert cli.main(args) == 4
    assert "carries a component out of its level" in capsys.readouterr().err
    monkeypatch.undo()
    # and, declared as a symmetry past the parse-time check, it fails the
    # grading's invariance check
    monkeypatch.setattr(RingMap, "_check_symmetry", lambda self, sym, k: None)
    identity = tuple((j, 1) for j in range(8))
    fake = _symmetric(4).with_symmetries([Symmetry(tuple((t, 1) for t in swap), identity)])
    path.write_text(emit_map_json(fake), encoding="utf-8")
    assert cli.main(args) == 4
    assert "row space is not invariant" in capsys.readouterr().err
    monkeypatch.undo()
    # an orbit member whose solve finds fewer generators than its representative
    path.write_text(emit_map_json(_symmetric(5)), encoding="utf-8")
    solves = []

    def fewer(rows, ncols):
        solves.append(rows)
        return [] if len(solves) == 2 else nullspace_primitive(rows, ncols)

    monkeypatch.setattr(engine, "nullspace_primitive", fewer)
    assert cli.main(["run", "--map", str(path), "-d", "2"]) == 4
    assert len(solves) == 2 and "differ in new generators" in capsys.readouterr().err


def test_orbits_match_brute_force():
    # orbits from transporting every member monomial, its exponents relabelled
    # and its beta recomputed from the grading: each component must land
    # exactly on one component, and orbits are the connected classes. Groups
    # of at most GROUP_CAP elements (S_4, and the sunlet's 12) carry each
    # orbit by their elements; S_5 and S_6 are walked by their moves
    cases = ((_symmetric(4), 3, 24), (_symmetric(5), 3, 120), (_symmetric(6), 4, 720), (_symmetric(), 2, 12))
    for phi, top, order in cases:
        grading = grading_for_map(phi)
        moves = symmetry_moves(grading, phi.symmetries)
        assert len(moves) == len(phi.symmetries)
        group = symmetry_group(moves)
        if order <= GROUP_CAP:
            assert len(group) + 1 == order and len(set(group)) == len(group)
        else:
            assert group is None
        for level in shared_levels(grading, top).values():
            keys = list(level.components)
            position = {level.packing.beta(key): k for k, key in enumerate(keys)}
            parent = list(range(len(position)))

            def root(k):
                while parent[k] != k:
                    k = parent[k]
                return k

            for k, basis in enumerate(level.components.values()):
                for sigma in moves:
                    images = set()
                    for mono in unpacked(level, basis):
                        exps = [(sigma[i], e) for i, e in mono.exps]
                        images.add(type(mono)(exps))
                    (target,) = {multidegree_of(grading, mono) for mono in images}
                    assert images == set(unpacked(level, level.components[keys[position[target]]]))
                    a, b = sorted((root(k), root(position[target])))
                    parent[b] = a
            first = orbits(level, level.multiple(), moves, group)
            assert orbits(level, level.multiple(), moves, None) == first  # the walk agrees
            assert set(first) == {key for key, basis in level.components.items() if len(basis) > 1}
            assert all(first[key] == keys[root(k)] for k, key in enumerate(keys) if key in first)


def test_sympy_oracle_with_symmetries():
    phi = _symmetric(5)
    result = components_of_kernel(phi, 3)
    assert sympy_oracle_check(phi, result, 3) == counts_by_degree(result) == {2: 5}
    assert sum(st.certified_by_symmetry for st in result.level_stats) > 0
    for st in result.level_stats:
        settled = st.skipped_matroid + st.skipped_prescreen + st.certified_by_symmetry
        assert settled + st.solved == st.components


def _stdout(capsys, path, degree: int, *flags: str) -> str:
    assert cli.main(["run", "--map", str(path), "-d", str(degree), *flags]) == 0
    return capsys.readouterr().out


SUNLET_D3_SHA256 = "36ebbe60cf4b6736a199b162a4e1530b9fd6f1ece66d1cd58effc8e5a5d6d100"


def test_stdout_identical_with_and_without_symmetries(tmp_path, capsys):
    for phi, degree in ((_symmetric(), 3), (_symmetric(6), 4)):
        plain, declared = tmp_path / "plain.json", tmp_path / "declared.json"
        payload = json.loads(emit_map_json(phi))
        declared.write_text(json.dumps(payload), encoding="utf-8")
        del payload["symmetries"]
        plain.write_text(json.dumps(payload), encoding="utf-8")
        reference = _stdout(capsys, plain, degree)
        if phi.n == 64:
            assert hashlib.sha256(reference.encode()).hexdigest() == SUNLET_D3_SHA256
        seeds, primes = (["--seed", "1"], []), (["--prime", "5"], [])
        for flags in [s + p for s in seeds for p in primes] + [["--no-prescreen"]]:
            assert _stdout(capsys, declared, degree, *flags) == reference, flags
        assert _stdout(capsys, plain, degree, "--prime", "5") == reference


def test_orbit_statuses(monkeypatch):
    # only orbit representatives and lone components meet the certificate; a
    # member is settled by symmetry exactly when its orbit has no generators,
    # and members of orbits with generators are solved
    calls = spy_certificates(monkeypatch)
    phi = _symmetric(6)
    plain = components_of_kernel(gen_grassmannian(6), 4)
    grading = grading_for_map(phi)
    levels = shared_levels(grading, 4)
    moves = symmetry_moves(grading, phi.symmetries)
    group = symmetry_group(moves)
    first = {degree: orbits(level, level.multiple(), moves, group) for degree, level in levels.items()}
    component_of = {
        mono: (degree, key)
        for degree, level in levels.items()
        for key, basis in level.components.items()
        for mono in basis
    }
    for prime in (DEFAULT_PRIME, None):
        calls.clear()
        result = components_of_kernel(phi, 4, prime=prime)
        assert [(g.poly, g.beta) for g in result.generators] == [
            (g.poly, g.beta) for g in plain.generators
        ]
        for columns, _ in calls:
            degree, key = component_of[columns[0]]
            assert first[degree].get(key, key) == key
        found = {(g.weighted_degree, g.beta) for g in result.generators}
        for stats, (degree, level) in zip(result.level_stats, levels.items()):
            members = [key for key, rep in first[degree].items() if rep != key]
            beta = level.packing.beta
            open_members = [key for key in members if (degree, beta(first[degree][key])) in found]
            assert stats.certified_by_symmetry == len(members) - len(open_members)
            assert all((degree, level.packing.beta(key)) in found for key in open_members)
        # the 15 quadrics lie in one orbit of 15 components
        assert len(found) == 15 and result.level_stats[1].solved >= 15
        assert result.level_stats[1].solved == 15 or prime is None
