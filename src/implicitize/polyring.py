"""Sparse multivariate polynomial arithmetic over exact coefficient fields.

Monomials are sparse exponent vectors; polynomials map monomials to nonzero
coefficients. Coefficients are exact rationals (`fractions.Fraction`);
screening evaluates polynomials at points of a prime field instead of storing
residues. The canonical term order everywhere is graded lexicographic with
variable 0 ranking highest, iterated leading term first.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

DEFAULT_PRIME = 2**61 - 1


class BadPrimeError(ArithmeticError):
    """A denominator (or pivot inverse) vanishes modulo the chosen prime."""


class Monomial:
    """A sparse monomial: tuple of (variable index, exponent) pairs.

    Indices are strictly increasing, exponents strictly positive; the empty
    tuple is the constant monomial 1.
    """

    __slots__ = ("exps", "_hash")

    def __init__(self, exps: Iterable[tuple[int, int]] = ()):
        merged: dict[int, int] = {}
        for i, e in exps:
            if e < 0 or i < 0:
                raise ValueError(f"bad exponent pair ({i}, {e})")
            if e:
                merged[i] = merged.get(i, 0) + e
        self.exps = tuple(sorted(merged.items()))
        self._hash = hash(self.exps)

    @classmethod
    def _make(cls, pairs: tuple[tuple[int, int], ...]) -> "Monomial":
        # Fast path: pairs already sorted, indices distinct, exponents > 0.
        m = object.__new__(cls)
        m.exps = pairs
        m._hash = hash(pairs)
        return m

    @classmethod
    def variable(cls, i: int) -> "Monomial":
        return cls._make(((i, 1),))

    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def weighted_degree(self, weights: Sequence) -> int | Fraction:
        return sum(weights[i] * e for i, e in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        a, b = self.exps, other.exps
        if not a:
            return other
        if not b:
            return self
        out = []
        ia = ib = 0
        while ia < len(a) and ib < len(b):
            va, vb = a[ia], b[ib]
            if va[0] == vb[0]:
                out.append((va[0], va[1] + vb[1]))
                ia += 1
                ib += 1
            elif va[0] < vb[0]:
                out.append(va)
                ia += 1
            else:
                out.append(vb)
                ib += 1
        out.extend(a[ia:])
        out.extend(b[ib:])
        return Monomial._make(tuple(out))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.exps:
            return "Monomial(1)"
        body = "*".join(f"x{i}" + (f"^{e}" if e > 1 else "") for i, e in self.exps)
        return f"Monomial({body})"


MONOMIAL_ONE = Monomial._make(())


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

    Zero coefficients are never stored; the zero polynomial has no terms.
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
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls._make(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, c) -> "Polynomial":
        c = _coerce(c)
        return cls._make(num_vars, {MONOMIAL_ONE: c} if c else {})

    @classmethod
    def variable(cls, num_vars: int, i: int, coeff=1) -> "Polynomial":
        if not 0 <= i < num_vars:
            raise IndexError(f"variable index {i} out of range")
        return cls(num_vars, [(Monomial.variable(i), coeff)])

    def is_zero(self) -> bool:
        return not self.terms

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

    def is_homogeneous(self, weights: Sequence) -> bool:
        """True iff the weight is constant over the support (vacuously for 0)."""
        if len(weights) != self.num_vars:
            raise ValueError("weight vector length mismatch")
        values = {m.weighted_degree(weights) for m in self.terms}
        return len(values) <= 1

    def eval_mod_p(self, point: Sequence[int], p: int) -> int:
        """Evaluate at a point of GF(p)^num_vars."""
        if len(point) != self.num_vars:
            raise ValueError("point length mismatch")
        total = 0
        for mono, coeff in self.terms.items():
            if coeff.denominator % p == 0:
                raise BadPrimeError(f"denominator divisible by {p}")
            v = coeff.numerator * pow(coeff.denominator, -1, p)
            for i, e in mono.exps:
                v = v * pow(point[i], e, p) % p
            total = (total + v) % p
        return total

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


class RingMap:
    """A homomorphism K[x_0..x_{n-1}] -> K[t_0..t_{m-1}], x_i -> images[i].

    Images may be zero (then x_i itself is a degree-1 kernel generator).
    Monomial images are expanded through a per-power cache.
    """

    __slots__ = ("n", "m", "images", "domain_names", "codomain_names", "_powers")

    def __init__(
        self,
        images: Sequence[Polynomial],
        m: int | None = None,
        domain_names: Sequence[str] | None = None,
        codomain_names: Sequence[str] | None = None,
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
        self._powers: dict[tuple[int, int], Polynomial] = {}

    def _power(self, i: int, k: int) -> Polynomial:
        key = (i, k)
        cached = self._powers.get(key)
        if cached is None:
            cached = self.images[i] ** k
            self._powers[key] = cached
        return cached

    def apply_monomial(self, mono: Monomial) -> Polynomial:
        parts = [self._power(i, e) for i, e in mono.exps]
        if not parts:
            return Polynomial.constant(self.m, 1)
        parts.sort(key=lambda p: len(p.terms))
        result = parts[0]
        for part in parts[1:]:
            result = result * part
        return result

    def apply(self, f: Polynomial) -> Polynomial:
        """Substitute each x_i by its image and expand."""
        if f.num_vars != self.n:
            raise ValueError(
                f"polynomial in {f.num_vars} variables, map expects {self.n}"
            )
        out: dict[Monomial, object] = {}
        for mono, coeff in f.terms.items():
            image = self.apply_monomial(mono)
            for gamma, c in image.terms.items():
                v = coeff * c
                if gamma in out:
                    s = out[gamma] + v
                    if s:
                        out[gamma] = s
                    else:
                        del out[gamma]
                elif v:
                    out[gamma] = v
        return Polynomial._make(self.m, out)

    def __eq__(self, other):
        return (
            isinstance(other, RingMap)
            and self.n == other.n
            and self.m == other.m
            and self.images == other.images
            and self.domain_names == other.domain_names
            and self.codomain_names == other.codomain_names
        )

    def __repr__(self):
        return f"RingMap(n={self.n}, m={self.m})"

