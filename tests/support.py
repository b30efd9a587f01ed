"""Shared test helpers: golden data, independent oracles, random generators.

Independent oracles deliberately avoid the package's own elimination code:
sympy provides exact nullspaces, ranks and the degree-by-degree kernel check
`sympy_oracle_check`, and `dense_rank_oracle` is a plain first-pivot Fraction
elimination with a different pivot policy than the package's sparse path.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import implicitize
from implicitize import (
    GradingMatrix,
    Monomial,
    MonomialPacking,
    Polynomial,
    RingMap,
    domain_grading,
    enumerate_level,
    grading_for_map,
)
from implicitize import engine
from implicitize.engine import LiftSource, component_rows
from implicitize.polyring import IntegerImages

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


def cleared(row: list) -> list[int]:
    """A dense rational row times the lcm of its denominators: the same row space, in integers."""
    den = math.lcm(*(Fraction(v).denominator for v in row))
    return [int(v * den) for v in row]


def component_from_dense(rows) -> list[dict[int, int]]:
    """Dense rational rows as the sparse cleared integer rows `nullspace_primitive` reads."""
    return [{j: v for j, v in enumerate(cleared(row)) if v} for row in rows]


def assembled_rows(phi: RingMap, columns: list[Monomial]) -> list[dict[int, int]]:
    """The engine's rows over `columns`: their psi^alpha (`IntegerImages.expand`), by `component_rows`."""
    images = IntegerImages(phi, max(map(Monomial.degree, columns), default=0))
    return component_rows(images.expand(columns))


def weighted_degree(mono: Monomial, weights) -> int | Fraction:
    """sum_i w_i e_i over the exponents e_i of x^e."""
    return sum(weights[i] * e for i, e in mono.exps)


def is_homogeneous(f: Polynomial, weights) -> bool:
    """True iff the weight is constant over the support of f (vacuously for 0)."""
    if len(weights) != f.num_vars:
        raise ValueError("weight vector length mismatch")
    return len({weighted_degree(mono, weights) for mono in f.terms}) <= 1


def multidegree_of(grading: GradingMatrix, mono: Monomial) -> tuple[int, ...]:
    """The multidegree beta = A alpha of x^alpha."""
    return tuple(sum(row[i] * e for i, e in mono.exps) for row in grading.A)


def reference_beta(mono: Monomial) -> tuple[int, ...]:
    """Multidegree of a Gr(2,4) domain monomial in the golden basis above."""
    return tuple(sum(row[i] * e for i, e in mono.exps) for row in GR24_DOMAIN_PART)


def unpacked(level, keys) -> list[Monomial]:
    """The monomials of packed keys of an enumerated level."""
    return [level.packing.monomial(key) for key in keys]


def raw_lift_sources(generators, packing: MonomialPacking) -> list[LiftSource]:
    """One lift source per generator, its own coefficients: the lifts before any reduction."""
    return [
        LiftSource(
            g.weighted_degree,
            tuple(map(packing.pack, g.poly.terms)),
            tuple(c.numerator for c in g.poly.terms.values()),
        )
        for g in generators
    ]


def shared_levels(grading: GradingMatrix, top: int) -> dict:
    """Levels 1..top enumerated with one graded packing, as the engine shares them."""
    packing = MonomialPacking(grading.n, top, grading.A)
    return {d: enumerate_level(grading, d, packing) for d in range(1, top + 1)}


def reference_keys(grading: GradingMatrix, degree: int, packing: MonomialPacking) -> list[int]:
    """The packed keys of every monomial of weighted degree `degree`, ascending.

    A depth-first oracle for `enumerate_level`: each variable's exponent in
    turn, up to what the remaining degree allows, each monomial packed on its own.
    """
    weights = grading.positive_weight
    found = []

    def descend(v: int, remaining: int, exps: list):
        if v == len(weights):
            if remaining == 0:
                found.append(packing.pack(Monomial(exps)))
            return
        for e in range(remaining // weights[v] + 1):
            descend(v + 1, remaining - e * weights[v], exps + [(v, e)])

    descend(0, degree, [])
    return sorted(found)


def bulk_certified(phi: RingMap, top: int) -> list[tuple[int, int]]:
    """(weighted degree, packed key) of every one-monomial component, up to `top`, with no zero-image variable.

    These are the components that a run certifies in one count, at every
    prime and with `prime=None`, with no certificate call; keys are those of
    `shared_levels`.
    """
    zero = {i for i, f in enumerate(phi.images) if not f}
    return [
        (degree, basis[0])
        for degree, level in shared_levels(grading_for_map(phi), top).items()
        for basis in level.components.values()
        if len(basis) == 1 and not zero & {i for i, _ in level.packing.pairs(basis[0])}
    ]


def spy_certificates(monkeypatch) -> list[tuple[tuple[int, ...], bool]]:
    """Record (packed columns, result) for every call of the engine's mod-p certificate.

    A run packs its columns with `MonomialPacking(phi.n, max_degree, grading.A)`,
    the packing `shared_levels(grading, max_degree)` uses.
    """
    calls = []
    certify = engine.certify_no_generators

    def spy(columns, *args):
        result = certify(columns, *args)
        calls.append((tuple(columns), result[0]))
        return result

    monkeypatch.setattr(engine, "certify_no_generators", spy)
    return calls


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


def substitute(phi: RingMap, f: Polynomial) -> Polynomial:
    """phi(f): every x_i replaced by its image, expanded with `Polynomial` arithmetic."""
    if f.num_vars != phi.n:
        raise ValueError(f"polynomial in {f.num_vars} variables, map expects {phi.n}")
    out = Polynomial(phi.m)
    for mono, coeff in f.terms.items():
        term = Polynomial.constant(phi.m, coeff)
        for i, e in mono.exps:
            term = term * phi.images[i] ** e
        out = out + term
    return out


def counts_by_degree(result) -> dict[int, int]:
    """The number of generators of each weighted degree in a run's result."""
    return dict(Counter(g.weighted_degree for g in result.generators))


# --- independent oracles ------------------------------------------------------


def sympy_nullspace(rows) -> list[list[Fraction]]:
    import sympy

    mat = sympy.Matrix(rows)
    return [
        [Fraction(int(v.p), int(v.q)) for v in vec]
        for vec in mat.nullspace()
    ]


def sympy_rref_and_nullspace(rows, ncols: int) -> tuple[list, list[list[Fraction]]]:
    """The (pivot column, row) pairs of `Matrix.rref()` and the `nullspace()` basis, by sympy alone."""
    import sympy

    entries = [sympy.Rational(v.numerator, v.denominator) for row in rows for v in row]
    mat = sympy.Matrix(len(rows), ncols, entries)
    reduced, pivots = mat.rref()
    rref = [(c, [Fraction(int(v.p), int(v.q)) for v in reduced.row(k)]) for k, c in enumerate(pivots)]
    kernel = [[Fraction(int(v.p), int(v.q)) for v in vec] for vec in mat.nullspace()]
    return rref, kernel


def sympy_pivots_mod_p(rows, ncols: int, p: int) -> list[int]:
    """Pivot columns of the reduced row echelon form over GF(p), by sympy's `DomainMatrix`."""
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    if not rows:
        return []
    field = GF(p)
    mat = DomainMatrix([[field(v) for v in row] for row in rows], (len(rows), ncols), field)
    return list(mat.rref()[1])


def sympy_rank(rows) -> int:
    import sympy

    return sympy.Matrix(rows).rank()


def _dense_exponents(mono, n: int) -> tuple[int, ...]:
    exps = [0] * n
    for i, e in mono.exps:
        exps[i] = e
    return tuple(exps)


def _qq_rank(rows: list[dict], ncols: int, method: str = "auto") -> int:
    """Rank over QQ by sympy's `DomainMatrix.rref`, with its `method` ("auto" lets sympy choose)."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    if not rows or not ncols:
        return 0
    nonzero = {i: row for i, row in enumerate(rows) if row}
    return len(DomainMatrix(nonzero, (len(rows), ncols), QQ).rref(method=method)[1])


def sympy_oracle_check(phi: RingMap, result, max_degree: int) -> dict[int, int]:
    """Check a run against sympy, weighted degree by weighted degree.

    Degrees are taken against the run's positive weight w. Shares no code
    with the engine: sympy first solves for a rational codomain weight under
    which every image phi_i is homogeneous of degree w_i, so the kernel is
    w-graded; images are expanded with `sympy.Poly` over QQ and ranks come
    from `DomainMatrix.rank()`. For every degree d it asserts that each
    reported generator of degree d is homogeneous of that degree and maps to
    zero, that their count is dim K_d - dim (I_{<d})_d, where I_{<d} is
    spanned by the monomial shifts of the reported lower-degree generators,
    and that the shifts plus the degree-d generators span K_d. Returns the
    oracle's per-degree counts.
    """
    from sympy import QQ, Matrix, Poly, symbols

    n = phi.n
    weight = result.grading.positive_weight
    assert len(weight) == n and all(w >= 1 for w in weight)
    equations = [
        (_dense_exponents(mono, phi.m), w)
        for w, img in zip(weight, phi.images)
        for mono in img.terms
    ]
    if equations:
        lhs, rhs = Matrix([e for e, _ in equations]), Matrix([w for _, w in equations])
        lhs.gauss_jordan_solve(rhs)  # ValueError: no codomain weight makes the images w-homogeneous
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

    def monomials(d, i=0):
        """Exponent vectors of variables i.. with weighted degree d."""
        if i == n:
            return [()] if d == 0 else []
        return [
            (e, *rest)
            for e in range(d // weight[i] + 1)
            for rest in monomials(d - e * weight[i], i + 1)
        ]

    gens_by_degree: dict[int, list[dict]] = {}
    for gen in result.generators:
        assert 1 <= gen.weighted_degree <= max_degree
        terms = {_dense_exponents(m, n): c for m, c in gen.poly.terms.items()}
        assert terms and all(
            sum(map(operator.mul, weight, e)) == gen.weighted_degree for e in terms
        )
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
        # generator rows carry long rationals, on which sympy's default
        # fraction-free elimination can take minutes: eliminate them over QQ
        lower = _qq_rank(shifts, len(basis), "GJ")
        assert len(here) == kernel_dim - lower, (d, len(here), kernel_dim, lower)
        spanned = shifts + [{column[exps]: qq(c) for exps, c in t.items()} for t in here]
        assert _qq_rank(spanned, len(basis), "GJ") == kernel_dim, d
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
    if not f:
        return f
    least = min(weighted_degree(mono, weights) for mono in f.terms)
    return Polynomial(
        f.num_vars,
        [(mono, c) for mono, c in f.terms.items() if weighted_degree(mono, weights) == least],
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


def random_rational_matrix(rng: random.Random) -> list[list[Fraction]]:
    """Small random rational matrix, sometimes empty, with zero and dependent rows."""
    nrows, ncols = rng.randint(0, 6), rng.randint(1, 6)
    rows = [
        [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7 else Fraction(0)
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]
    for k in range(len(rows)):
        kind = rng.random()
        if kind < 0.15:
            rows[k] = [Fraction(0)] * ncols
        elif kind < 0.35 and k >= 2:
            a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), Fraction(rng.randint(-3, 3))
            rows[k] = [a * x + b * y for x, y in zip(rows[k - 1], rows[k - 2])]
    return rows


def shifted_stack(rng: random.Random, bits: int = 210) -> list[list[Fraction]]:
    """Monomial shifts of two big-coefficient quadrics in 3 variables, as rows.

    Each quadric is multiplied by every monomial of degree 2 and written in the
    15 quartic monomials: the shape of a trim elimination, with numerators of
    at least bits - 3 bits, and of rank at most 11 (the Koszul syzygy).
    """

    def monomials(d):
        return [
            tuple(sum(1 for i in combo if i == v) for v in range(3))
            for combo in itertools.combinations_with_replacement(range(3), d)
        ]

    column = {exps: j for j, exps in enumerate(monomials(4))}
    rows = []
    for _ in range(2):
        quadric = {
            exps: Fraction(
                rng.choice((-1, 1)) * ((1 << bits) | rng.getrandbits(bits)), rng.randint(1, 9)
            )
            for exps in monomials(2)
        }
        for gamma in monomials(2):
            row = [Fraction(0)] * len(column)
            for exps, c in quadric.items():
                row[column[tuple(a + b for a, b in zip(gamma, exps))]] = c
            rows.append(row)
    return rows


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


def generic_cubics_map(seed: int) -> RingMap:
    """Eight dense cubics in s, t, u with coefficients n/d, n in [-5, 5] (0 -> 1), d in [1, 3].

    Draws like the benchmark's generic-cubics generator, so a seed gives the
    same map there. Its grading has rank 1 and every level is one component.
    Level 3 is trimmed by the shifts of the eight quadrics' reduced basis, 64
    rows over 120 columns with coefficients of hundreds of bits; the mod-p
    trim fails to certify it, since four cubics are new, so the exact trim
    runs too. At level 4 the mod-p trim of 320 lift rows certifies the
    component, and no exact trim runs at all.
    """
    rng = random.Random(seed)
    cubic = [
        Monomial((j, combo.count(j)) for j in set(combo))
        for combo in itertools.combinations_with_replacement(range(3), 3)
    ]
    images = []
    for _ in range(8):
        terms = []
        for mono in cubic:
            num = rng.randint(-5, 5) or 1
            terms.append((mono, Fraction(num, rng.randint(1, 3))))
        images.append(Polynomial(3, terms))
    return RingMap(
        images, m=3, domain_names=[f"x{i}" for i in range(8)], codomain_names=["s", "t", "u"]
    )


def refuted_guess_maps() -> list[RingMap]:
    """The seed-2 generic cubics with x7's image replaced by phi(x6), phi(x5) + phi(x6) or 2 phi(x4) - 3/7 phi(x5) + phi(x6).

    Each map has one linear generator, and the shifts of it put a pivot of
    level 3's full exact trim among the component's last 55 members, the
    tail that the degree bound guesses independent: the kernel refutes the
    guess. The last relation is dense, with four terms.
    """
    phi = generic_cubics_map(2)
    images = phi.images
    scaled = [Polynomial.constant(3, c) * f for c, f in ((2, images[4]), (Fraction(-3, 7), images[5]))]
    lasts = (images[6], images[5] + images[6], scaled[0] + scaled[1] + images[6])
    return [
        RingMap([*images[:7], last], m=3, domain_names=phi.domain_names, codomain_names=phi.codomain_names)
        for last in lasts
    ]


def dense_quartics_map(seed: int) -> RingMap:
    """Ten quartics in a, b, c, d, each over all 35 quartic monomials, integer coefficients in [-9, 9] (0 -> 1).

    The certificate's image rows of a component outnumber its columns
    several times over (level 2: 55 columns, 165 rows), so its elimination
    reads only the rows it needs for full rank.
    """
    rng = random.Random(seed)
    quartic = [
        Monomial((j, combo.count(j)) for j in set(combo))
        for combo in itertools.combinations_with_replacement(range(4), 4)
    ]
    images = [Polynomial(4, [(mono, rng.randint(-9, 9) or 1) for mono in quartic]) for _ in range(10)]
    return RingMap(images, m=4, codomain_names=["a", "b", "c", "d"])


def grading_from_rows(rows, n: int, weight=None) -> GradingMatrix:
    """Reduce arbitrary integer rows to an independent grading whose positive weight is `weight`."""
    return domain_grading([list(r) for r in rows], n)._replace(positive_weight=weight)


# --- CLI ----------------------------------------------------------------------


def run_cli(args, stdin_text=None, hashseed="0", patch=None):
    """(exit code, stdout, stderr) of `python -m implicitize ARGS`, after the code `patch` if given."""
    env = os.environ.copy()
    env["PYTHONHASHSEED"] = hashseed
    env.pop("PYTHONUNBUFFERED", None)  # buffered stdout, as in a plain shell: the CLI must flush it
    # the child imports the same package the tests do, installed or not
    package_root = os.path.dirname(os.path.dirname(implicitize.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    command = ["-m", "implicitize"]
    if patch is not None:
        command = ["-c", f"{patch}\nimport runpy\nrunpy.run_module('implicitize', run_name='__main__')"]
    proc = subprocess.run(
        [sys.executable, *command, *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


# --- 1000-case property suites (shared by unit tests and acceptance) ----------


def ring_laws_suite(cases: int) -> int:
    rng = random.Random(90210)
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
        assert substitute(phi, f * g) == substitute(phi, f) * substitute(phi, g)
        assert substitute(phi, f + g) == substitute(phi, f) + substitute(phi, g)

        w = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        assert (initial_form(f, w) == f) == is_homogeneous(f, w)
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
        for vec in basis:
            for row in constraints:
                assert sum(r * v for r, v in zip(row, vec)) == 0
            content = 0
            for v in vec:
                content = math.gcd(content, abs(v))
            assert content in (0, 1) and any(vec)
        assert len(basis) == total - dense_rank_oracle(constraints)

        gens = [elimination_generator(phi, i) for i in range(phi.n)]
        # vectors in the span keep every generator homogeneous and add no rank
        combo = [0] * total
        for vec in basis:
            c = rng.randint(-2, 2)
            combo = [a + c * b for a, b in zip(combo, vec)]
        assert all(is_homogeneous(g, combo) for g in gens)
        if basis:
            stacked = basis + [combo]
            assert dense_rank_oracle(stacked) == len(basis)
        # arbitrary vectors that keep every generator homogeneous must lie in the span
        probe = [rng.randint(-2, 2) for _ in range(total)]
        if all(is_homogeneous(g, probe) for g in gens):
            stacked = basis + [probe]
            assert dense_rank_oracle(stacked) == len(basis)
        checked += 1
    return checked


def enumeration_suite(cases: int) -> int:
    rng = random.Random(55331)
    checked = 0
    for _ in range(cases):
        n = rng.randint(1, 5)
        degree = rng.randint(1, 4)
        kind = rng.random()
        if kind < 0.5:
            # entries up to 2, or extreme ones, from 7 to 16, around the powers of two
            top = 2 if kind < 0.3 else rng.randint(7, 16)
            rows = [[1] * n] + [
                [rng.randint(-top, top) for _ in range(n)] for _ in range(rng.randint(0, 2))
            ]
            grading = grading_from_rows(rows, n, weight=[1] * n)
            expected = math.comb(n + degree - 1, degree)
        else:
            # weights 2-3 only leave some levels empty, level 1 among them
            weights = [rng.randint(1 if kind < 0.75 else 2, 3) for _ in range(n)]
            grading = grading_from_rows([weights], n, weight=weights)
            expected = weighted_count_oracle(weights, degree)
        level = enumerate_level(grading, degree)
        assert level.monomial_count == expected
        assert list(level.keys) == reference_keys(grading, degree, level.packing)
        # streamed with one packing, as a run builds its levels
        packing, grouped = MonomialPacking(n, degree, grading.A), {}
        for d in range(1, degree + 1):
            streamed = enumerate_level(grading, d, packing, grouped=grouped)
            assert list(streamed.keys) == reference_keys(grading, d, packing)
        assert not grouped  # the top level keeps no groups
        keys = list(level.components)
        betas = [level.packing.beta(key) for key in keys]
        assert keys == sorted(keys) and betas == sorted(betas)
        for beta, basis in zip(betas, level.components.values()):
            for mono in unpacked(level, basis):
                assert multidegree_of(grading, mono) == beta
        if grading.positive_weight == [1] * n:
            # x_j^degree lies in the level, so some field reaches degree * max |A|
            span = degree * max(abs(a) for row in grading.A for a in row)
            assert any(abs(b) == span for beta in betas for b in beta)
        checked += 1
    return checked


def linalg_suite(cases: int) -> int:
    from implicitize.linalg import echelon, normalize_primitive, nullspace_primitive, rank_mod_p

    rng = random.Random(2718)
    checked = 0
    for _ in range(cases):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        sparse = component_from_dense(rows)
        kernel = nullspace_primitive(sparse, ncols)
        rank = len(echelon(sparse, ncols))
        assert rank + len(kernel) == ncols
        assert rank == dense_rank_oracle(rows)
        for vec in kernel:
            for row in rows:
                assert sum(a * v for a, v in zip(row, vec)) == 0
        # already normalized: integer, content 1, first nonzero positive
        assert [normalize_primitive(v) for v in kernel] == kernel
        # full column rank mod p certifies full column rank over Q
        residues = [[v.numerator * pow(v.denominator, -1, 101) for v in row] for row in rows]
        pivots = rank_mod_p(residues, 101)
        if len(pivots) == ncols:
            assert kernel == []
        # stopping at full rank changes no pivot
        assert rank_mod_p(residues, 101, ncols) == pivots
        checked += 1
    return checked
