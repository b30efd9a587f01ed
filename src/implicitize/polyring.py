"""Sparse multivariate polynomial arithmetic over exact coefficient fields.

Monomials are sparse exponent vectors; polynomials map monomials to nonzero
coefficients. Coefficients are exact rationals (`fractions.Fraction`). The
canonical term order everywhere is graded lexicographic with variable 0
ranking highest, iterated leading term first.

The engine's level path (enumerate, trim, certify) packs each domain monomial
into one integer instead (`MonomialPacking`), where a product is one addition
and the top fields carry the monomial's multidegree.
Both its certificate and its exact solve read the images as integer
polynomials (`IntegerImages`), the one place their denominators are cleared,
and expand each column x^alpha to psi^alpha = d^alpha phi(x^alpha) (`expand`).
The certificate first compares leading monomials instead: under a monomial
order, that of psi^alpha is the sum of alpha_i times the packed key of
psi_i's (`IntegerImages.leading_keys`), so it needs no expansion.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from typing import Iterable, NamedTuple, Sequence

DEFAULT_PRIME = 2**61 - 1


class Monomial(tuple):
    """A sparse monomial: tuple of (variable index, exponent) pairs.

    Indices are strictly increasing, exponents strictly positive; the empty
    tuple is the constant monomial 1. Hashing and equality are the tuple's.
    """

    __slots__ = ()

    def __new__(cls, exps: Iterable[tuple[int, int]] = ()):
        merged: dict[int, int] = {}
        for i, e in exps:
            if e < 0 or i < 0:
                raise ValueError(f"bad exponent pair ({i}, {e})")
            if e:
                merged[i] = merged.get(i, 0) + e
        return tuple.__new__(cls, sorted(merged.items()))

    # Fast path: pairs already sorted, indices distinct, exponents > 0.
    _make = classmethod(tuple.__new__)

    @property
    def exps(self) -> tuple[tuple[int, int], ...]:
        return self

    @classmethod
    def variable(cls, i: int) -> "Monomial":
        return cls._make(((i, 1),))

    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not other:
            return self
        merged = dict(self)
        for i, e in other:
            merged[i] = merged.get(i, 0) + e
        return Monomial._make(sorted(merged.items()))

    def __repr__(self):
        if not self.exps:
            return "Monomial(1)"
        body = "*".join(f"x{i}" + (f"^{e}" if e > 1 else "") for i, e in self.exps)
        return f"Monomial({body})"


MONOMIAL_ONE = Monomial._make(())


class MonomialPacking:
    """Domain monomials of total degree <= `bound`, one int each (Kronecker substitution).

    Below `beta_shift`, the top field holds the total degree and the fields
    below it the exponents of variables 0 .. n-1, variable 0 most significant,
    each `width` bits wide. No exponent exceeds the total degree, so within
    the bound no field overflows. Above it sits the packed multidegree
    beta = A alpha of a grading `A` (r x n rows, none by default): one signed
    field per row, beta_0 most significant, `beta_width` bits wide, with no
    bias. A total degree <= `bound` keeps every |beta_k| <= bound * max |A| <
    2^(beta_width - 1), so a packed beta, sum_k beta_k 2^(beta_width (r-1-k)),
    has no other expansion with digits that small, and its numeric order is
    lexicographic beta order. Adding keys multiplies monomials,
    `key >> beta_shift` is the packed beta of the key's component, and key
    order is lexicographic in beta, then graded-lex. `beta` decodes a packed
    beta.
    """

    __slots__ = (
        "n", "bound", "width", "mask", "shifts", "units", "A", "beta_width", "beta_shift", "beta_units"
    )

    def __init__(self, n: int, bound: int, A: Sequence[Sequence[int]] = ()):
        self.n, self.bound, self.width = n, bound, max(bound, 1).bit_length()
        self.mask = (1 << self.width) - 1
        self.shifts = [(n - 1 - i) * self.width for i in range(n)]
        self.A = tuple(map(tuple, A))
        span = bound * max((abs(a) for row in self.A for a in row), default=0)
        self.beta_width = w = span.bit_length() + 1
        self.beta_shift = (n + 1) * self.width
        r = len(self.A)
        # column i of A packed: the packed beta of x_i, then the key of x_i
        self.beta_units = [sum(row[i] << w * (r - 1 - k) for k, row in enumerate(self.A)) for i in range(n)]
        top, degree = self.beta_shift, 1 << n * self.width
        self.units = [(b << top) + degree + (1 << s) for b, s in zip(self.beta_units, self.shifts)]

    def beta(self, ckey: int) -> tuple[int, ...]:
        """The multidegree tuple of a packed beta, `key >> beta_shift`."""
        w = self.beta_width
        half, mask = 1 << w - 1, (1 << w) - 1
        digits = []
        for _ in self.A:
            digit = (ckey + half & mask) - half  # balanced: in [-half, half)
            digits.append(digit)
            ckey = (ckey - digit) >> w
        return tuple(reversed(digits))

    def pack(self, mono: Monomial) -> int:
        if mono.degree() > self.bound:
            raise OverflowError(f"{mono!r} exceeds the packing's degree bound {self.bound}")
        return sum(e * self.units[i] for i, e in mono.exps)

    def pairs(self, key: int) -> tuple[tuple[int, int], ...]:
        """The (variable, exponent) pairs of a key, visiting only nonzero fields."""
        out = []
        rest = key & ((1 << self.n * self.width) - 1)
        while rest:
            field = (rest.bit_length() - 1) // self.width
            out.append((self.n - 1 - field, rest >> field * self.width))
            rest &= (1 << field * self.width) - 1
        return tuple(out)

    def monomial(self, key: int) -> Monomial:
        return Monomial._make(self.pairs(key))


def grlex_key(m: Monomial):
    """Sort key: ascending order under this key is graded-lex descending.

    Total degree dominates; within a degree the dense exponent vector is
    compared lexicographically, which for sparse pairs is equivalent to
    comparing (index, -exponent) pairs.
    """
    return (-sum(e for _, e in m.exps), tuple((i, -e) for i, e in m.exps))


def _coerce(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


class Polynomial:
    """A sparse polynomial in `num_vars` variables: Monomial -> coefficient.

    Zero coefficients are never stored; the zero polynomial, `Polynomial(num_vars)`,
    has no terms.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms=None):
        self.num_vars = num_vars
        collected: dict[Monomial, object] = {}
        items = terms.items() if isinstance(terms, dict) else (terms or ())
        for mono, coeff in items:
            coeff = _coerce(coeff)
            if mono.exps and mono.exps[-1][0] >= num_vars:
                raise ValueError(
                    f"monomial {mono!r} exceeds variable count {num_vars}"
                )
            if mono in collected:
                coeff = collected[mono] + coeff
            if coeff:
                collected[mono] = coeff
            else:
                collected.pop(mono, None)
        self.terms = collected

    @classmethod
    def _make(cls, num_vars: int, terms: dict) -> "Polynomial":
        p = object.__new__(cls)
        p.num_vars = num_vars
        p.terms = terms
        return p

    @classmethod
    def constant(cls, num_vars: int, c) -> "Polynomial":
        c = _coerce(c)
        return cls._make(num_vars, {MONOMIAL_ONE: c} if c else {})

    @classmethod
    def variable(cls, num_vars: int, i: int, coeff=1) -> "Polynomial":
        if not 0 <= i < num_vars:
            raise IndexError(f"variable index {i} out of range")
        return cls(num_vars, [(Monomial.variable(i), coeff)])

    def __bool__(self):
        return bool(self.terms)

    def _check_arity(self, other: "Polynomial"):
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"variable count mismatch: {self.num_vars} vs {other.num_vars}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_arity(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            if mono in out:
                s = out[mono] + coeff
                if s:
                    out[mono] = s
                else:
                    del out[mono]
            else:
                out[mono] = coeff
        return Polynomial._make(self.num_vars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(self.num_vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_arity(other)
        out: dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = m1 * m2
                c = c1 * c2
                if mono in out:
                    s = out[mono] + c
                    if s:
                        out[mono] = s
                    else:
                        del out[mono]
                elif c:
                    out[mono] = c
        return Polynomial._make(self.num_vars, out)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative exponent")
        result = Polynomial.constant(self.num_vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[Monomial, object]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))

    def leading(self) -> tuple[Monomial, object]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = min(self.terms, key=grlex_key)
        return mono, self.terms[mono]

    def format(self, names: Sequence[str] | None = None) -> str:
        return format_polynomial(self, names)

    def __repr__(self):
        return f"Polynomial({self.format()})"


def format_polynomial(poly: Polynomial, names: Sequence[str] | None = None) -> str:
    """Render with explicit '*' and '^', graded-lex leading term first."""
    if not poly.terms:
        return "0"

    def var(i: int) -> str:
        return names[i] if names is not None else f"x{i}"

    pieces = []
    for mono, coeff in poly.sorted_terms():
        sign = "-" if coeff < 0 else "+"
        mag = str(abs(coeff))
        trivial = abs(coeff) == 1
        if not mono.exps:
            body = mag
        else:
            factors = [var(i) + (f"^{e}" if e > 1 else "") for i, e in mono.exps]
            body = "*".join(factors)
            if not trivial:
                body = f"{mag}*{body}"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


@contextmanager
def unlimited_int_digits():
    """Lift the interpreter's int-to-decimal digit limit (3.10.7 on) for the block.

    Exact coefficients may pass CPython's default of 4,300 digits when they
    are sorted or printed as decimals. The limit is interpreter-global, so
    it is set here only, and restored as found when the block exits.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


class Symmetry(NamedTuple):
    """A signed relabelling of both variable sets: x_i -> s_i x_sigma(i), t_j -> r_j t_tau(j).

    `domain[i]` is (sigma(i), s_i) and `codomain[j]` is (tau(j), r_j), each
    sign 1 or -1. It is a symmetry of phi when phi(sigma(x_i)) = tau(phi(x_i))
    for every i, i.e. s_i phi_sigma(i) is phi_i with each t_j replaced by
    r_j t_tau(j).
    """

    domain: tuple[tuple[int, int], ...]
    codomain: tuple[tuple[int, int], ...]


def _relabelled(image: Polynomial, sign: int, codomain: Sequence[tuple[int, int]]) -> dict:
    """The terms of sign * image with every t_j replaced by r_j t_tau(j), tau a permutation."""
    out = {}
    for mono, coeff in image.terms.items():
        flips = sum(e for j, e in mono.exps if codomain[j][1] < 0) + (sign < 0)
        relabelled = Monomial._make(sorted([(codomain[j][0], e) for j, e in mono.exps]))
        out[relabelled] = -coeff if flips & 1 else coeff
    return out


class RingMap:
    """A homomorphism K[x_0..x_{n-1}] -> K[t_0..t_{m-1}], x_i -> images[i].

    Images may be zero (then x_i itself is a degree-1 kernel generator).
    The engine expands monomial images through `IntegerImages`.
    `symmetries` are declared `Symmetry`s of the map, each checked exactly here;
    a declaration that is not a signed permutation or not a symmetry raises
    ValueError.
    """

    __slots__ = ("n", "m", "images", "domain_names", "codomain_names", "symmetries")

    def __init__(
        self,
        images: Sequence[Polynomial],
        m: int | None = None,
        domain_names: Sequence[str] | None = None,
        codomain_names: Sequence[str] | None = None,
        symmetries: Sequence[Symmetry] = (),
    ):
        if not images:
            raise ValueError("a ring map needs at least one image")
        if m is None:
            m = images[0].num_vars
        for img in images:
            if img.num_vars != m:
                raise ValueError(
                    f"image in {img.num_vars} variables, expected {m}"
                )
        self.images = list(images)
        self.n = len(images)
        self.m = m
        self.domain_names = (
            list(domain_names) if domain_names else [f"x{i}" for i in range(self.n)]
        )
        self.codomain_names = (
            list(codomain_names) if codomain_names else [f"t{j}" for j in range(m)]
        )
        if len(self.domain_names) != self.n or len(self.codomain_names) != m:
            raise ValueError("variable name count mismatch")
        self.symmetries = [
            Symmetry(tuple(map(tuple, s.domain)), tuple(map(tuple, s.codomain))) for s in symmetries
        ]
        for k, sym in enumerate(self.symmetries):
            self._check_symmetry(sym, k)

    def _check_symmetry(self, sym: Symmetry, k: int):
        for part, size in ((sym.domain, self.n), (sym.codomain, self.m)):
            targets, signs = zip(*part) if part else ((), ())
            if sorted(targets) != list(range(size)) or not set(signs) <= {1, -1}:
                raise ValueError(f"symmetry {k} is not a signed permutation of the variables")
        for i, ((target, sign), image) in enumerate(zip(sym.domain, self.images)):
            if _relabelled(image, sign, sym.codomain) != self.images[target].terms:
                name = self.domain_names[i]
                raise ValueError(f"symmetry {k} does not commute with the map at {name}")

    def with_symmetries(self, symmetries: Sequence[Symmetry]) -> "RingMap":
        """This map with `symmetries` declared, each checked exactly."""
        return RingMap(self.images, self.m, self.domain_names, self.codomain_names, symmetries)

    def __eq__(self, other):
        return (
            isinstance(other, RingMap)
            and self.n == other.n
            and self.m == other.m
            and self.images == other.images
            and self.domain_names == other.domain_names
            and self.codomain_names == other.codomain_names
            and self.symmetries == other.symmetries
        )

    def __repr__(self):
        return f"RingMap(n={self.n}, m={self.m})"


# The weight of codomain variable j in each of the leading-term certificate's
# orders: the zero weight is graded-lex order, the others scatter the variables
LEADING_WEIGHTS = (lambda j: 0, lambda j: (5 * j + 3) % 8, lambda j: j % 5, lambda j: j**3 % 11)


def _times(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    """Product of two integer polynomials over packed monomial keys."""
    out: dict[int, int] = {}
    get = out.get
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


class IntegerImages:
    """A map's images with denominators cleared once: phi_i = psi_i / d_i, d_i the lcm.

    psi_i is an integer polynomial over keys of `packing` (the m codomain
    variables to `bound` times the largest image degree, so images of domain
    monomials of total degree <= `bound` never overflow). `powers[i][k]`
    caches psi_i^k for the run. `zero_fields` masks, in the keys of any
    `MonomialPacking(phi.n, bound, A)`, the fields of the variables whose image is zero.
    `leading_keys` gives the leading monomial of each psi_i under a few fixed
    monomial orders, built at its first call, so that a run whose
    certificate never sees two columns pays nothing for it.
    """

    __slots__ = ("packing", "denominators", "powers", "zero_fields", "_leading")

    def __init__(self, phi: RingMap, bound: int):
        degree = max((mono.degree() for f in phi.images for mono in f.terms), default=0)
        self.packing = MonomialPacking(phi.m, max(bound, 1) * degree)
        self.denominators = [math.lcm(*(c.denominator for c in f.terms.values())) for f in phi.images]
        pack = self.packing.pack
        self.powers = [
            [{0: 1}, {pack(mono): c.numerator * (d // c.denominator) for mono, c in f.terms.items()}]
            for f, d in zip(phi.images, self.denominators)
        ]
        domain = MonomialPacking(phi.n, bound)
        self.zero_fields = sum(domain.mask << domain.shifts[i] for i, f in enumerate(phi.images) if not f)
        self._leading: list[list[int]] | None = None

    def leading_keys(self) -> list[list[int]]:
        """Per fixed monomial order, the packed key of each psi_i's leading monomial (0 when psi_i = 0).

        The orders compare codomain monomials by w . exponent, ties broken by
        packed key, for each weight w of `LEADING_WEIGHTS`, largest first and
        smallest first; the zero weight gives graded-lex order and its
        reverse. Each is compatible with multiplication, so the leading
        monomial of psi^alpha is sum_i alpha_i of these keys. Built at the
        first call.
        """
        if self._leading is None:
            pairs = self.packing.pairs
            terms = [[(key, pairs(key)) for key in psi[1]] for psi in self.powers]
            self._leading = []
            for weight in LEADING_WEIGHTS:
                w = [weight(j) for j in range(self.packing.n)]
                ranked = [[(sum([w[j] * e for j, e in exps]), key) for key, exps in image] for image in terms]
                self._leading.append([max(r)[1] if r else 0 for r in ranked])
                self._leading.append([min(r)[1] if r else 0 for r in ranked])
        return self._leading

    def power(self, i: int, k: int) -> dict[int, int]:
        table = self.powers[i]
        while len(table) <= k:
            table.append(_times(table[-1], table[1]))
        return table[k]

    def expand(self, columns: Iterable[Sequence[tuple[int, int]]]) -> list[dict[int, int]]:
        """psi^alpha = d^alpha phi(x^alpha) per column alpha; it may be a cached power: do not mutate."""
        products = (sorted((self.power(i, e) for i, e in alpha), key=len) for alpha in columns)
        return [reduce(_times, parts[1:], parts[0]) for parts in products]
