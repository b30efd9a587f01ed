from __future__ import annotations

import ast
import math
import pathlib
import random
import sys
from fractions import Fraction

import pytest
import sympy

from implicitize import (
    DEFAULT_PRIME,
    Monomial,
    MonomialPacking,
    Polynomial,
    RingMap,
)
from implicitize import components_of_kernel, engine, linalg
from implicitize.engine import certify_no_generators
from implicitize.linalg import (
    echelon,
    is_prime,
    normalize_primitive,
    nullspace_primitive,
    rank_mod_p,
    reduced_echelon,
)
from implicitize.polyring import IntegerImages

from support import (
    GR24_CUBIC_COMPONENT,
    GR24_QUADRIC_COMPONENT,
    cleared,
    component_from_dense,
    dense_rank_oracle,
    generic_cubics_map,
    linalg_suite,
    mono_by_names,
    random_rational_matrix,
    shifted_stack,
    sympy_nullspace,
    sympy_pivots_mod_p,
    sympy_rank,
    sympy_rref_and_nullspace,
)


def test_quadric_component_kernel():
    rows = component_from_dense(GR24_QUADRIC_COMPONENT)
    kernel = nullspace_primitive(rows, 3)
    assert kernel == [[1, -1, 1]]
    # oracle agreement
    oracle = sympy_nullspace(GR24_QUADRIC_COMPONENT)
    assert len(oracle) == 1
    assert normalize_primitive(oracle[0]) == [1, -1, 1]


def test_cubic_component_kernel_and_trimmed_column():
    kernel = nullspace_primitive(component_from_dense(GR24_CUBIC_COMPONENT), 3)
    assert kernel == [[1, -1, 1]]
    trimmed = [row[1:] for row in GR24_CUBIC_COMPONENT]
    assert nullspace_primitive(component_from_dense(trimmed), 2) == []


def test_rank_mod_p_examples():
    assert rank_mod_p([[0, 0], [0, 0]], 101) == []
    assert rank_mod_p([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 101) == [0, 1, 2]
    # the quadric component has rational rank 2 and 101 preserves it
    assert sympy_rank(GR24_QUADRIC_COMPONENT) == 2
    assert rank_mod_p(GR24_QUADRIC_COMPONENT, 101) == [0, 1]
    # sparse rows too: mod 5 the row (5, 1) loses its first column, so its
    # pivot moves right of the rational one, and rank can only drop
    assert rank_mod_p([{0: 5, 1: 1}], 5) == [1]
    assert [c for c, _ in echelon([{0: 5, 1: 1}], 2)] == [0]
    assert rank_mod_p([{0: 5, 1: 10}, {2: 7}], 5) == [2]


def test_rank_mod_p_pivots_match_sympy_gf():
    # the pivot columns are the leftmost independent columns mod p, dense or sparse
    rng = random.Random(1729)
    drops = 0
    for p in (2, 3, 5, 7, 101, 2**61 - 1):
        for _ in range(40):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.randint(-9, 9) * rng.randint(0, 1) for _ in range(ncols)] for _ in range(nrows)]
            pivots = sympy_pivots_mod_p(rows, ncols, p)
            assert rank_mod_p(rows, p) == pivots
            assert rank_mod_p(rows, p, ncols) == pivots
            assert rank_mod_p([{j: v for j, v in enumerate(row) if v} for row in rows], p) == pivots
            drops += len(pivots) < len(echelon(rows, ncols))
    assert drops  # small primes lose rank on some of these


def _certified(columns, images, packing, p):
    return certify_no_generators(columns, images, packing, p)[0]


def test_prescreen_examples(gr24):
    packing = MonomialPacking(gr24.n, 3)
    images = IntegerImages(gr24, 3)
    # the quadric component p12*p34, p13*p24, p23*p14 holds the Pluecker relation
    quadric = [
        packing.pack(mono_by_names(gr24, {"p12": 1, "p34": 1})),
        packing.pack(mono_by_names(gr24, {"p13": 1, "p24": 1})),
        packing.pack(mono_by_names(gr24, {"p23": 1, "p14": 1})),
    ]
    assert _certified(quadric, images, packing, 101) is False
    # the cubic component after trimming p12*p34^2 has a trivial kernel
    trimmed = [
        packing.pack(mono_by_names(gr24, {"p13": 1, "p24": 1, "p34": 1})),
        packing.pack(mono_by_names(gr24, {"p23": 1, "p14": 1, "p34": 1})),
    ]
    assert _certified(trimmed, images, packing, 101) is True
    assert _certified(quadric[:2], images, packing, 101) is True
    # the images come back for the exact solve to reuse
    _, expanded, _ = certify_no_generators(quadric, images, packing, 101)
    assert expanded == images.expand(map(packing.pairs, quadric))
    # one column with a nonzero image needs no elimination and no expansion
    assert certify_no_generators(quadric[:1], images, packing, 101) == (True, None, 0)


def test_prescreen_zero_image_column():
    # x0 -> 0, x1 -> t: a lone column is certified only if it avoids x0
    t = Polynomial.variable(1, 0)
    phi = RingMap([Polynomial(1), t], m=1)
    packing = MonomialPacking(2, 3)
    images = IntegerImages(phi, 3)
    x0, x1 = Monomial.variable(0), Monomial.variable(1)
    assert _certified([packing.pack(x1 * x1)], images, packing, 101) is True
    for mono in (x0, x0 * x1, x0 * x1 * x1):
        assert _certified([packing.pack(mono)], images, packing, 101) is False
    assert _certified([packing.pack(x0), packing.pack(x1)], images, packing, 101) is False


def test_prescreen_bad_prime():
    # 5 cannot evaluate t/5, but the certificate reads the integer images t^2 and t
    f = Polynomial(1, [(Monomial.variable(0), Fraction(1, 5))])
    packing = MonomialPacking(1, 2)
    columns = [packing.pack(Monomial([(0, 2)])), packing.pack(Monomial.variable(0))]
    assert _certified(columns, IntegerImages(RingMap([f], m=1), 2), packing, 5)


def test_evaluation_points_distinct():
    # x -> (t + 1)/5 mod 5: the integer images (t + 1)^k have leading term t^k,
    # so every set of powers of x is certified, even more columns than GF(5)
    # has nonzero points
    one, t = Polynomial.constant(1, 1), Polynomial.variable(1, 0)
    phi = RingMap([(t + one) * Polynomial.constant(1, Fraction(1, 5))], m=1)
    packing = MonomialPacking(1, 6)
    images = IntegerImages(phi, 6)
    square, line = packing.pack(Monomial([(0, 2)])), packing.pack(Monomial.variable(0))
    assert _certified([square, line], images, packing, 5)
    columns = [packing.pack(Monomial([(0, e)])) for e in range(6, 0, -1)]
    assert _certified(columns, images, packing, 5)


def test_rank_mod_p_stops_at_full_rank():
    # given ncols, the elimination reads rows only until every column is a pivot
    rows = iter([[1, 2, 0], [0, 3, 1], [4, 0, 5], [7, 7, 7], [1, 0, 0]])
    assert rank_mod_p(rows, 101, 3) == [0, 1, 2]
    assert list(rows) == [[7, 7, 7], [1, 0, 0]]


def test_kernel_of_empty_and_zero_matrices():
    # no rows: every column is free
    assert nullspace_primitive([], 2) == [[1, 0], [0, 1]]
    assert echelon([], 2) == []
    zero_row = component_from_dense([[0, 0]])
    assert nullspace_primitive(zero_row, 2) == [[1, 0], [0, 1]]


def test_normalize_primitive():
    assert normalize_primitive([Fraction(-2, 3), Fraction(4, 3)]) == [1, -2]
    assert normalize_primitive([0, 0]) == [0, 0]
    assert normalize_primitive([Fraction(6), Fraction(-9)]) == [2, -3]
    # idempotent on integers
    assert normalize_primitive([2, -3]) == [2, -3]


def test_rank_rational_and_solve():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    pivots = echelon(sparse, 3)
    assert [c for c, _ in pivots] == [0, 1] and dense_rank_oracle(rows) == 2
    # pivot rows are primitive integer rows, zero left of their pivot column
    for c, row in pivots:
        assert min(row) == c and all(type(v) is int for v in row.values())
        assert math.gcd(*row.values()) == 1
    # input rows are divided by their content
    assert echelon([{0: 4, 2: -6}], 3) == [(0, {0: 2, 2: -3})]


def test_nullspace_primitive_matches_oracle():
    rows = [[1, 1, 1, 0], [0, 1, -1, 2]]
    ours = nullspace_primitive(rows, 4)
    for vec in ours:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0
    # sympy's basis is the RREF one, by free column, so it matches normalized
    assert ours == [normalize_primitive(v) for v in sympy_nullspace(rows)]
    assert ours == [[2, -1, -1, 0], [2, -2, 0, 1]]


def test_echelon_and_kernel_match_sympy_rref():
    rng = random.Random(1618)
    cases = [random_rational_matrix(rng) for _ in range(200)]
    cases += [shifted_stack(rng) for _ in range(6)]
    # empty matrices, all-zero rows and rank-deficient matrices all occur
    assert any(not rows for rows in cases)
    assert any(not any(row) for rows in cases for row in rows)
    deficient = 0
    for rows in cases:
        ncols = len(rows[0]) if rows else rng.randint(1, 4)
        rref, kernel = sympy_rref_and_nullspace(rows, ncols)
        pivots = [c for c, _ in rref]
        deficient += len(pivots) < min(len(rows), ncols)
        integer = [cleared(row) for row in rows]
        sparse = [{j: v for j, v in enumerate(row) if v} for row in integer]
        assert [c for c, _ in echelon(sparse, ncols)] == pivots
        expected = [normalize_primitive(v) for v in kernel]
        assert nullspace_primitive(integer, ncols) == expected
        assert nullspace_primitive(sparse, ncols) == expected
        # reduced rows: primitive, positive pivot, and sympy's row once divided by it
        reduced = reduced_echelon(sparse, ncols)
        for c, row in reduced:
            assert row[c] > 0 and math.gcd(*row.values()) == 1 and list(row) == sorted(row)
        divided = [(c, [Fraction(row.get(j, 0), row[c]) for j in range(ncols)]) for c, row in reduced]
        assert divided == rref
    assert deficient >= 20
    big = cases[-1]
    assert min(abs(v.numerator).bit_length() for row in big for v in row if v) >= 200
    assert len(sympy_rref_and_nullspace(big, 15)[0]) == 11


def test_dense_kernel_matches_sympy_and_echelon(monkeypatch):
    # rows at least half nonzero are eliminated by Bareiss over dense lists,
    # with echelon's pivot columns and sympy's normalized kernel
    dense = []
    bareiss = linalg._bareiss

    def spy_bareiss(rows, ncols):
        dense.append(ncols)
        return bareiss(rows, ncols)

    monkeypatch.setattr(linalg, "_bareiss", spy_bareiss)
    rng = random.Random(25)
    big = 2**200
    cases = [
        [[1, 2, 3], [2, 4, 6], [1, 1, 1]],  # rank 2
        [[2, 2, 5, 5], [3, 3, 7, 7], [1, 1, 4, 4]],  # duplicate columns
        [[0, 3, 0, 1, 2], [0, 1, 0, 4, 4], [0, 5, 0, 9, 1], [0, 2, 0, 2, 2]],  # zero columns: skipped pivots
        [[1, 2, 3, 4], [0, 0, 0, 0], [5, 6, 7, 8], [2, 2, 2, 1]],  # a zero row
        [[3, -6, 0, 9]],  # 1 x n
        [[4], [-2], [6]],  # n x 1
        [[0], [5], [-5]],
        [[big, big - 1, 1], [big + 1, big, 2], [2 * big + 1, 2 * big - 1, 3]],  # rank 2, entries up to 2^200
    ]
    for _ in range(40):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rank = rng.randint(1, min(nrows, ncols))
        left = [[rng.randint(-big, big) for _ in range(rank)] for _ in range(nrows)]
        right = [
            [rng.choice((1, -1)) * rng.choice((rng.randint(1, 9), rng.randint(1, big))) for _ in range(ncols)]
            for _ in range(rank)
        ]
        cases.append([[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left])
    level = []  # the seed-2 generic cubics' level-3 kernel: 55 image rows over 59 columns
    solve = engine.nullspace_primitive

    def spy_kernel(rows, ncols):
        level.append(rows)
        return solve(rows, ncols)

    monkeypatch.setattr(engine, "nullspace_primitive", spy_kernel)
    components_of_kernel(generic_cubics_map(2), 3)
    cases.append([[row.get(j, 0) for j in range(59)] for row in level[-1]])
    assert len(cases[-1]) == 55
    dense.clear()
    for rows in cases:
        ncols = len(rows[0])
        sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
        assert 2 * sum(map(len, sparse)) >= len(rows) * ncols
        expected = [normalize_primitive(v) for v in sympy_nullspace(rows)]
        assert nullspace_primitive(rows, ncols) == expected
        assert nullspace_primitive(sparse, ncols) == expected
        pivots = bareiss([list(row) for row in rows], ncols)
        assert [c for c, _ in pivots] == [c for c, _ in echelon(sparse, ncols)]
        assert all(math.gcd(*row.values()) == 1 and min(row) == c for c, row in pivots)
    assert len(dense) == 2 * len(cases)
    assert max(abs(v).bit_length() for rows in cases for row in rows for v in row) > 200


def test_primes():
    assert is_prime(2) and is_prime(101) and is_prime(2**61 - 1)
    assert not is_prime(1) and not is_prime(2**61 + 1)


def test_is_prime_agrees_with_a_sieve_and_refuses_what_it_cannot_decide():
    assert is_prime(DEFAULT_PRIME)
    sieve = [False, False] + [True] * (10**5 - 1)
    for q in range(2, 317):
        if sieve[q]:
            sieve[q * q :: q] = [False] * len(sieve[q * q :: q])
    assert [n for n in range(10**5 + 1) if is_prime(n)] == [n for n, prime in enumerate(sieve) if prime]
    # strong pseudoprimes to every base 2, ..., 37: the bases decide only below the first
    for p, q in ((399_165_290_221, 798_330_580_441), (1_287_836_182_261, 2_575_672_364_521)):
        with pytest.raises(ValueError, match="too large to test for primality"):
            is_prime(p * q)
    # just below the first one, the test still decides, as sympy does
    below = range(318_665_857_834_031_151_167_401, 318_665_857_834_031_151_167_461, 2)
    assert [n for n in below if is_prime(n)] == [n for n in below if sympy.isprime(n)]
    assert is_prime(318_665_857_834_031_151_167_441)


def test_rank_nullity_and_prescreen_soundness_randomized():
    assert linalg_suite(300) == 300


def test_linalg_is_a_leaf_module():
    # integer rows in, integer vectors out: linalg imports nothing from the package
    with open(linalg.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.append("." if node.level else node.module)
        elif isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
    assert "math" in modules
    assert not [m for m in modules if m.startswith(".") or m.split(".")[0] == "implicitize"]


def test_no_module_imports_dataclasses():
    # records are NamedTuples: no run pays for importing dataclasses (and
    # inspect); and nothing draws random numbers, so every run is deterministic;
    # and the package needs nothing outside the standard library
    package = pathlib.Path(linalg.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) > 5
    for source in sources:
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                absolute = [] if node.level else names
            elif isinstance(node, ast.Import):
                names = absolute = [alias.name for alias in node.names]
            else:
                continue
            assert not {"dataclasses", "random"} & set(names), source.name
            assert {name.split(".")[0] for name in absolute} <= sys.stdlib_module_names, source.name


def test_digit_limit_has_one_home():
    # the int-to-decimal digit limit is interpreter-global: only the shared
    # helper `polyring.unlimited_int_digits`, which restores it, may set it
    package = pathlib.Path(linalg.__file__).parent
    homes = set()
    for source in sorted(package.glob("*.py")):
        for top in ast.parse(source.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                names = {getattr(node, field, None) for field in ("attr", "id", "name")}
                if "set_int_max_str_digits" in names:
                    homes.add((source.name, getattr(top, "name", None)))
    assert homes == {("polyring.py", "unlimited_int_digits")}
