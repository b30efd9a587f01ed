"""Shared test helpers: golden data, independent oracles, random generators.

Independent oracles deliberately avoid the package's own elimination code:
sympy provides exact nullspaces, ranks and the degree-by-degree kernel check
`sympy_oracle_check`, and `dense_rank_oracle` is a plain first-pivot Fraction
elimination with a different pivot policy than the package's sparse path.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import implicitize
from implicitize import (
    ComponentMatrix,
    GradingMatrix,
    HomogeneityBasis,
    Monomial,
    Polynomial,
    RingMap,
    domain_grading,
)

# Homogeneity basis of the Pluecker Gr(2,4) map, columns ordered like
# gen_grassmannian(4): p12 p13 p23 p14 p24 p34 | x11 x12 x13 x14 x21 x22 x23 x24.
GR24_HOMOGENEITY = [
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0],
    [1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0],
    [1, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0],
    [0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0],
    [-1, -1, -1, 0, 0, 0, -1, -1, -1, 0, 0, 0, 0, 1],
]
GR24_DOMAIN_PART = [row[:6] for row in GR24_HOMOGENEITY]

# The 6x3 degree-2 component system of the Gr(2,4) map: columns
# p12*p34, p13*p24, p23*p14; the kernel is spanned by (1, -1, 1).
GR24_QUADRIC_COMPONENT = [
    [0, 1, 1],
    [1, 0, -1],
    [-1, -1, 0],
    [-1, -1, 0],
    [1, 0, -1],
    [0, 1, 1],
]

# The cubic component containing p12*p34^2 (transposed: 10 rows, columns
# p12*p34^2, p13*p24*p34, p23*p14*p34); kernel (1, -1, 1), and with the
# first column removed the kernel is trivial.
_GR24_CUBIC_COMPONENT_T = [
    [0, -1, 1, 0, 2, -2, 0, -1, 1, 0],
    [-1, 0, 1, 1, 1, -1, -1, -1, 0, 1],
    [-1, 1, 0, 1, -1, 1, -1, 0, -1, 1],
]
GR24_CUBIC_COMPONENT = [list(row) for row in zip(*_GR24_CUBIC_COMPONENT_T)]


def component_from_dense(rows) -> ComponentMatrix:
    """A component system with placeholder monomials indexing the columns."""
    ncols = len(rows[0]) if rows else 0
    return ComponentMatrix(
        [Monomial.variable(j) for j in range(ncols)],
        [{j: Fraction(v) for j, v in enumerate(row) if v} for row in rows],
    )


def reference_beta(mono: Monomial) -> tuple[int, ...]:
    """Multidegree of a Gr(2,4) domain monomial in the golden basis above."""
    return tuple(sum(row[i] * e for i, e in mono.exps) for row in GR24_DOMAIN_PART)


def mono_by_names(phi: RingMap, exps: dict[str, int]) -> Monomial:
    index = {name: i for i, name in enumerate(phi.domain_names)}
    return Monomial((index[name], e) for name, e in exps.items())


def poly_by_names(phi: RingMap, terms: dict[str, int | Fraction]) -> Polynomial:
    """Build a domain polynomial from {"p12*p34": coeff, ...} strings."""
    index = {name: i for i, name in enumerate(phi.domain_names)}
    built = []
    for expr, coeff in terms.items():
        pairs: dict[int, int] = {}
        if expr not in ("", "1"):
            for factor in expr.split("*"):
                if "^" in factor:
                    name, exp = factor.split("^")
                else:
                    name, exp = factor, 1
                pairs[index[name]] = pairs.get(index[name], 0) + int(exp)
        built.append((Monomial(pairs.items()), coeff))
    return Polynomial(phi.n, built)


# --- independent oracles ------------------------------------------------------


def sympy_nullspace(rows) -> list[list[Fraction]]:
    import sympy

    mat = sympy.Matrix(rows)
    return [
        [Fraction(int(v.p), int(v.q)) for v in vec]
        for vec in mat.nullspace()
    ]


def sympy_rank(rows) -> int:
    import sympy

    return sympy.Matrix(rows).rank()


def _dense_exponents(mono, n: int) -> tuple[int, ...]:
    exps = [0] * n
    for i, e in mono.exps:
        exps[i] = e
    return tuple(exps)


def _qq_rank(rows: list[dict], ncols: int) -> int:
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    if not rows or not ncols:
        return 0
    nonzero = {i: row for i, row in enumerate(rows) if row}
    return DomainMatrix(nonzero, (len(rows), ncols), QQ).rank()


def sympy_oracle_check(phi: RingMap, result, max_degree: int) -> dict[int, int]:
    """Check a total-degree run against sympy, degree by degree.

    Shares no code with the engine: images are expanded with `sympy.Poly`
    over QQ and ranks come from `DomainMatrix.rank()`. For every degree d it
    asserts that each reported generator of degree d is homogeneous of that
    degree and maps to zero, that their count is dim K_d - dim (I_{<d})_d,
    where I_{<d} is spanned by the monomial shifts of the reported
    lower-degree generators, and that the shifts plus the degree-d
    generators span K_d. Returns the oracle's per-degree counts.
    """
    from sympy import QQ, Poly, symbols

    n = phi.n
    assert result.grading.positive_weight == [1] * n, "oracle needs total degree"
    ts = symbols(f"t0:{phi.m}")

    def qq(coeff):
        return QQ(coeff.numerator, coeff.denominator)

    images = [
        Poly.from_dict(
            {_dense_exponents(mono, phi.m): qq(c) for mono, c in img.terms.items()},
            ts,
            domain=QQ,
        )
        for img in phi.images
    ]
    image_of = {(0,) * n: Poly(1, *ts, domain=QQ)}

    def image(exps):
        if exps not in image_of:
            i = next(k for k, e in enumerate(exps) if e)
            parent = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
            image_of[exps] = image(parent) * images[i]
        return image_of[exps]

    def monomials(d):
        out = []
        for combo in itertools.combinations_with_replacement(range(n), d):
            exps = [0] * n
            for i in combo:
                exps[i] += 1
            out.append(tuple(exps))
        return out

    gens_by_degree: dict[int, list[dict]] = {}
    for gen in result.generators:
        assert 1 <= gen.weighted_degree <= max_degree
        terms = {_dense_exponents(m, n): c for m, c in gen.poly.terms.items()}
        assert terms and all(sum(e) == gen.weighted_degree for e in terms)
        gens_by_degree.setdefault(gen.weighted_degree, []).append(terms)

    counts: dict[int, int] = {}
    for d in range(1, max_degree + 1):
        basis = monomials(d)
        column = {exps: j for j, exps in enumerate(basis)}
        targets: dict[tuple[int, ...], int] = {}
        image_rows = []
        for exps in basis:
            row = {}
            for t_exps, c in image(exps).terms():
                if c:
                    row[targets.setdefault(t_exps, len(targets))] = c
            image_rows.append(row)
        kernel_dim = len(basis) - _qq_rank(image_rows, len(targets))

        shifts = []
        for e, gens in gens_by_degree.items():
            if e >= d:
                continue
            for gamma in monomials(d - e):
                for terms in gens:
                    shifts.append(
                        {
                            column[tuple(a + b for a, b in zip(gamma, exps))]: qq(c)
                            for exps, c in terms.items()
                        }
                    )
        here = gens_by_degree.get(d, [])
        for terms in here:
            mapped = Poly(0, *ts, domain=QQ)
            for exps, c in terms.items():
                mapped += image(exps) * qq(c)
            assert mapped.is_zero, f"degree-{d} generator does not map to zero"
        lower = _qq_rank(shifts, len(basis))
        assert len(here) == kernel_dim - lower, (d, len(here), kernel_dim, lower)
        spanned = shifts + [{column[exps]: qq(c) for exps, c in t.items()} for t in here]
        assert _qq_rank(spanned, len(basis)) == kernel_dim, d
        if kernel_dim - lower:
            counts[d] = kernel_dim - lower
    return counts


def dense_rank_oracle(rows) -> int:
    """Plain Fraction elimination, first-nonzero pivot top-down."""
    mat = [[Fraction(v) for v in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for c in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if mat[r][c]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(rank + 1, nrows):
            if mat[r][c]:
                factor = mat[r][c] / mat[rank][c]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def weighted_count_oracle(weights, target: int) -> int:
    """Number of e >= 0 with sum w_j e_j = target, by brute dynamic programming."""
    counts = [0] * (target + 1)
    counts[0] = 1
    for w in weights:
        for value in range(w, target + 1):
            counts[value] += counts[value - w]
    return counts[target]


def initial_form(f: Polynomial, weights) -> Polynomial:
    """The terms of f whose monomials attain the least weight over its support."""
    if f.is_zero():
        return f
    least = min(mono.weighted_degree(weights) for mono in f.terms)
    return Polynomial(
        f.num_vars,
        [(mono, c) for mono, c in f.terms.items() if mono.weighted_degree(weights) == least],
    )


def elimination_generator(phi: RingMap, i: int) -> Polynomial:
    """x_i - phi(x_i) as a polynomial in the n+m combined variables."""
    total = phi.n + phi.m
    terms = [(Monomial.variable(i), Fraction(1))]
    for mono, coeff in phi.images[i].terms.items():
        shifted = Monomial((phi.n + j, e) for j, e in mono.exps)
        terms.append((shifted, -coeff))
    return Polynomial(total, terms)


# --- random inputs ------------------------------------------------------------


def random_polynomial(
    rng: random.Random,
    num_vars: int,
    max_degree: int = 3,
    max_terms: int = 4,
    coeff_bound: int = 5,
) -> Polynomial:
    """Small random rational polynomial."""
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        deg = rng.randint(0, max_degree)
        exps: dict[int, int] = {}
        for _ in range(deg):
            i = rng.randrange(num_vars)
            exps[i] = exps.get(i, 0) + 1
        num = rng.randint(-coeff_bound, coeff_bound)
        den = rng.randint(1, 3)
        terms.append((Monomial(exps.items()), Fraction(num, den)))
    return Polynomial(num_vars, terms)


def random_map(rng: random.Random, n=None, m=None) -> RingMap:
    n = n or rng.randint(1, 3)
    m = m or rng.randint(1, 3)
    images = [random_polynomial(rng, m, max_degree=2, max_terms=2) for _ in range(n)]
    return RingMap(images, m=m)


def random_monomial_map(rng: random.Random, n: int, m: int, degree: int) -> RingMap:
    """Monomial images sharing one total degree (so total-degree grading applies)."""
    images = []
    for _ in range(n):
        exps: dict[int, int] = {}
        for _ in range(degree):
            j = rng.randrange(m)
            exps[j] = exps.get(j, 0) + 1
        images.append(Polynomial(m, [(Monomial(exps.items()), 1)]))
    return RingMap(images, m=m)


def rational_quadrics_map() -> RingMap:
    """Five dense quadrics in 3 variables with small random rational coefficients.

    Its kernel starts with seven cubics, so it covers generators above degree
    2 and non-integer coefficients, which the other small fixtures lack.
    """
    rng = random.Random(3)
    quadratic = [Monomial([(i, 1), (j, 1)]) for i in range(3) for j in range(i, 3)]
    images = [
        Polynomial(3, [(mono, Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for mono in quadratic])
        for _ in range(5)
    ]
    return RingMap(images, m=3)


def grading_from_rows(rows, n: int, weight=None) -> GradingMatrix:
    """Reduce arbitrary integer rows to an independent grading for tests."""
    basis = HomogeneityBasis(full_vectors=[list(r) for r in rows], constraint_rank=0, n=n, m=0)
    grading = domain_grading(basis)
    grading.positive_weight = weight
    return grading


# --- CLI ----------------------------------------------------------------------


def run_cli(args, stdin_text=None, hashseed="0"):
    env = os.environ.copy()
    env["PYTHONHASHSEED"] = hashseed
    # the child imports the same package the tests do, installed or not
    package_root = os.path.dirname(os.path.dirname(implicitize.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "implicitize", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


# --- 1000-case property suites (shared by unit tests and acceptance) ----------


def ring_laws_suite(cases: int) -> int:
    rng = random.Random(90210)
    # evaluation points come from their own stream, so the cases stay fixed
    point_rng = random.Random(90211)
    checked = 0
    for _ in range(cases):
        n = rng.randint(1, 3)
        f = random_polynomial(rng, n, max_degree=2, max_terms=3)
        g = random_polynomial(rng, n, max_degree=2, max_terms=3)
        h = random_polynomial(rng, n, max_degree=2, max_terms=3)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        k = rng.randint(0, 3)
        expected = Polynomial.constant(n, 1)
        for _ in range(k):
            expected = expected * f
        assert f**k == expected

        m = rng.randint(1, 2)
        phi = RingMap([random_polynomial(rng, m, max_degree=2, max_terms=2) for _ in range(n)], m=m)
        assert phi.apply(f * g) == phi.apply(f) * phi.apply(g)
        assert phi.apply(f + g) == phi.apply(f) + phi.apply(g)

        w = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        assert (initial_form(f, w) == f) == f.is_homogeneous(w)

        p = 101
        point = [point_rng.randrange(p) for _ in range(n)]
        fv, gv = f.eval_mod_p(point, p), g.eval_mod_p(point, p)
        assert (f + g).eval_mod_p(point, p) == (fv + gv) % p
        assert (f * g).eval_mod_p(point, p) == fv * gv % p
        t_point = [point_rng.randrange(p) for _ in range(m)]
        images_at = [img.eval_mod_p(t_point, p) for img in phi.images]
        assert phi.apply(f).eval_mod_p(t_point, p) == f.eval_mod_p(images_at, p)
        checked += 1
    return checked


def grading_suite(cases: int) -> int:
    from implicitize import build_constraints, homogeneity_space

    rng = random.Random(417)
    checked = 0
    for _ in range(cases):
        phi = random_map(rng)
        total = phi.n + phi.m
        constraints = build_constraints(phi)
        basis = homogeneity_space(phi)
        for vec in basis.full_vectors:
            for row in constraints:
                assert sum(r * v for r, v in zip(row, vec)) == 0
            content = 0
            for v in vec:
                content = math.gcd(content, abs(v))
            assert content in (0, 1) and any(vec)
        assert basis.dimension + basis.constraint_rank == total
        assert basis.constraint_rank == dense_rank_oracle(constraints)

        gens = [elimination_generator(phi, i) for i in range(phi.n)]
        # vectors in the span keep every generator homogeneous and add no rank
        combo = [0] * total
        for vec in basis.full_vectors:
            c = rng.randint(-2, 2)
            combo = [a + c * b for a, b in zip(combo, vec)]
        assert all(g.is_homogeneous(combo) for g in gens)
        if basis.full_vectors:
            stacked = basis.full_vectors + [combo]
            assert dense_rank_oracle(stacked) == basis.dimension
        # arbitrary vectors that keep every generator homogeneous must lie in the span
        probe = [rng.randint(-2, 2) for _ in range(total)]
        if all(g.is_homogeneous(probe) for g in gens):
            stacked = basis.full_vectors + [probe]
            assert dense_rank_oracle(stacked) == basis.dimension
        checked += 1
    return checked


def enumeration_suite(cases: int) -> int:
    from implicitize import enumerate_level, multidegree_of

    rng = random.Random(55331)
    checked = 0
    for _ in range(cases):
        n = rng.randint(1, 5)
        degree = rng.randint(1, 4)
        if rng.random() < 0.5:
            rows = [[1] * n] + [
                [rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, 2))
            ]
            grading = grading_from_rows(rows, n, weight=[1] * n)
            expected = math.comb(n + degree - 1, degree)
        else:
            weights = [rng.randint(1, 3) for _ in range(n)]
            grading = grading_from_rows([weights], n, weight=weights)
            expected = weighted_count_oracle(weights, degree)
        level = enumerate_level(grading, degree)
        assert level.monomial_count == expected
        betas = list(level.components)
        assert betas == sorted(betas)
        for beta, basis in level.components.items():
            for mono in basis.monomials:
                assert multidegree_of(grading, mono).beta == beta
        checked += 1
    return checked


def linalg_suite(cases: int) -> int:
    from implicitize.linalg import exact_kernel, rank_mod_p, sparse_rref, _to_sparse

    rng = random.Random(2718)
    checked = 0
    for _ in range(cases):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        matrix = component_from_dense(rows)
        kernel = exact_kernel(matrix)
        rank = len(sparse_rref(_to_sparse(rows), ncols)[1])
        assert rank + kernel.dimension == ncols
        assert rank == dense_rank_oracle(rows)
        for vec in kernel.vectors:
            for row in rows:
                assert sum(a * v for a, v in zip(row, vec)) == 0
        renorm = kernel.normalize()
        assert renorm.vectors == kernel.vectors
        # full column rank mod p certifies full column rank over Q
        residues = [[v.numerator * pow(v.denominator, -1, 101) for v in row] for row in rows]
        if rank_mod_p(residues, 101) == ncols:
            assert kernel.dimension == 0
        checked += 1
    return checked
