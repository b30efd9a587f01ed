"""Exact nullspace and rank computation.

Rational elimination runs on sparse rows (dicts keyed by column index) with
pivot rows chosen sparsest-first and smallest-magnitude to limit fill-in;
because the reduced row echelon form is unique, every result downstream of
it (rank, pivot columns, kernel basis) is independent of that choice. Dense
Gaussian elimination over GF(p) backs the prime-field prescreen and the
Jacobian rank checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .polyring import BadPrimeError, Monomial

SparseRow = dict[int, Fraction]


def _to_sparse(rows: Iterable[Sequence]) -> list[SparseRow]:
    out = []
    for row in rows:
        out.append({j: Fraction(v) for j, v in enumerate(row) if v})
    return out


def sparse_rref(
    rows: list[SparseRow], ncols: int
) -> tuple[list[tuple[int, SparseRow]], list[int]]:
    """Reduced row echelon form of sparse rational rows.

    Returns (pivot_rows, pivot_cols) where pivot_rows[k] = (col, row) with
    row[col] == 1 and zero entries above and below every pivot. Pivot columns
    advance left to right, so they are exactly the leftmost independent
    columns and do not depend on the pivot-row heuristic.
    """
    work: list[SparseRow | None] = [dict(r) if r else None for r in rows]
    pivots: list[tuple[int, SparseRow]] = []
    for c in range(ncols):
        best = None
        best_key = None
        for idx, row in enumerate(work):
            if row is None:
                continue
            v = row.get(c)
            if not v:
                continue
            key = (
                len(row),
                abs(v.numerator).bit_length() + v.denominator.bit_length(),
                idx,
            )
            if best_key is None or key < best_key:
                best, best_key = idx, key
        if best is None:
            continue
        prow = work[best]
        work[best] = None
        pv = prow[c]
        if pv != 1:
            prow = {j: v / pv for j, v in prow.items()}
        for idx, row in enumerate(work):
            if row is None:
                continue
            v = row.get(c)
            if not v:
                continue
            for j, pvj in prow.items():
                s = row.get(j, 0) - v * pvj
                if s:
                    row[j] = s
                else:
                    row.pop(j, None)
            if not row:
                work[idx] = None
        for _, prev in pivots:
            v = prev.get(c)
            if not v:
                continue
            for j, pvj in prow.items():
                s = prev.get(j, 0) - v * pvj
                if s:
                    prev[j] = s
                else:
                    prev.pop(j, None)
        pivots.append((c, prow))
    return pivots, [c for c, _ in pivots]


def kernel_basis(rows: list[SparseRow], ncols: int) -> list[list[Fraction]]:
    """Canonical rational kernel basis, one vector per free column.

    Vector k has 1 in its free column, the negated reduced-echelon entries in
    the pivot columns, and 0 elsewhere; vectors are ordered by free column.
    """
    pivots, pivot_cols = sparse_rref(rows, ncols)
    taken = set(pivot_cols)
    basis = []
    for f in range(ncols):
        if f in taken:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for c, row in pivots:
            v = row.get(f)
            if v:
                vec[c] = -v
        basis.append(vec)
    return basis


def normalize_primitive(vec: Sequence) -> list[int]:
    """Scale a rational vector to integers with content 1, first nonzero > 0."""
    fracs = [Fraction(v) for v in vec]
    den = 1
    for v in fracs:
        den = den * v.denominator // math.gcd(den, v.denominator)
    ints = [int(v * den) for v in fracs]
    content = 0
    for v in ints:
        content = math.gcd(content, abs(v))
    if content == 0:
        return ints
    ints = [v // content for v in ints]
    for v in ints:
        if v:
            if v < 0:
                ints = [-w for w in ints]
            break
    return ints


def nullspace_primitive(rows: Iterable[Sequence], ncols: int) -> list[list[int]]:
    """Primitive integer basis of the right kernel of an exact matrix."""
    return [normalize_primitive(v) for v in kernel_basis(_to_sparse(rows), ncols)]


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Exact rank over GF(p) by dense Gaussian elimination."""
    mat = [[v % p for v in row] for row in rows]
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
        inv = pow(mat[rank][c], -1, p)
        prow = mat[rank]
        for r in range(rank + 1, nrows):
            v = mat[r][c]
            if not v:
                continue
            factor = v * inv % p
            row = mat[r]
            for j in range(c, ncols):
                if prow[j]:
                    row[j] = (row[j] - factor * prow[j]) % p
        rank += 1
        if rank == min(nrows, ncols):
            break
    return rank


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64-bit inputs."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


@dataclass
class ComponentMatrix:
    """The linear system of one graded component.

    Column j holds the coefficient vector of the image of the j-th basis
    monomial, rows are indexed by the codomain monomials those images touch
    (graded-lex descending); all-zero rows are never stored.
    """

    columns: list[Monomial]
    row_monomials: list[Monomial]
    rows: list[SparseRow]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.columns))


@dataclass
class KernelBasis:
    """Basis of ker of a component matrix over its column set."""

    vectors: list[list]

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def normalize(self) -> "KernelBasis":
        """Integer entries, content 1, positive leading entry; idempotent."""
        return KernelBasis([normalize_primitive(v) for v in self.vectors])


def exact_kernel(matrix: ComponentMatrix) -> KernelBasis:
    """Exact rational kernel of the component system, canonically normalized."""
    raw = kernel_basis([dict(r) for r in matrix.rows], len(matrix.columns))
    return KernelBasis(raw).normalize()


def prescreen_trivial(matrix: ComponentMatrix, p: int) -> bool:
    """True certifies the rational kernel is trivial (full column rank mod p).

    Rank can only drop under reduction mod p, so full column rank mod p
    forces full column rank over the rationals. A False answer certifies
    nothing. Raises BadPrimeError when an entry denominator vanishes mod p.
    """
    ncols = len(matrix.columns)
    if len(matrix.rows) < ncols:
        return False
    dense = []
    for row in matrix.rows:
        out = [0] * ncols
        for j, v in row.items():
            if v.denominator % p == 0:
                raise BadPrimeError(f"denominator divisible by {p}")
            out[j] = v.numerator * pow(v.denominator, -1, p) % p
        dense.append(out)
    return rank_mod_p(dense, p) == ncols
