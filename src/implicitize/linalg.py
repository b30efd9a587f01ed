"""Exact nullspace and rank computation, in a leaf module that imports nothing from the package.

Integer rows go in, primitive integer vectors and ranks come out.
`nullspace_primitive(rows, ncols)` is the one exact kernel call, shared by the
engine's component solves and the grading's homogeneity space. Every sparse
exact elimination goes through `echelon`: forward elimination on sparse
primitive integer rows (dicts keyed by column index). Every caller passes
integer rows; each update row := (a/g)*row - (v/g)*pivot
is followed by dividing out the row's content, so no common factor carries
from one update into the next (fraction-free elimination keeps them, and
rational elimination pays for them in gcds). Pivot columns advance left to
right, so they are the leftmost independent columns whatever pivot row is
chosen; rows are picked sparsest first, then by the smallest pivot, to limit
fill-in and growth. Kernels come from integer back-substitution through the
echelon form, one primitive vector per free column, so they equal the
normalized kernel of the unique reduced row echelon form. A row set that is
at least half nonzero, such as the image rows of a dense component, is
eliminated by `nullspace_primitive` on dense lists instead, by fraction-free
Bareiss elimination (`_bareiss`), which keeps `echelon`'s contract: the
leftmost independent pivot columns, with primitive pivot rows; so the
back-substitution and the kernel are the same. `reduced_echelon`
back-eliminates the echelon form into integer rows of that reduced form.
The one elimination over GF(p), `rank_mod_p`, inserts sparse rows one at a
time and returns the pivot columns mod p: their count backs the engine's
mod-p certificate, which stops reading rows at full rank, and the columns
themselves its mod-p trim.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence

IntRow = dict[int, int]


def _primitive(row: Mapping | Sequence) -> IntRow:
    """Divide a sparse or dense integer row by its content, as a sparse row."""
    if not isinstance(row, Mapping):
        row = dict(enumerate(row))
    ints = {j: v for j, v in row.items() if v}
    content = math.gcd(*ints.values())
    return {j: v // content for j, v in ints.items()} if content > 1 else ints


def echelon(rows: Iterable[Mapping | Sequence], ncols: int) -> list[tuple[int, IntRow]]:
    """Row echelon form of integer rows (sparse or dense), over primitive integer rows.

    Returns (pivot column, pivot row) pairs in increasing column order; each
    pivot row is a primitive integer row whose entries all lie at or right of
    its pivot column. Zero rows are dropped.
    """
    # every row waits under its leftmost column, which never lies left of the
    # column being eliminated, so each row is touched only when it must be
    waiting: dict[int, list[IntRow]] = {}
    for row in map(_primitive, rows):
        if row:
            waiting.setdefault(min(row), []).append(row)
    pivots: list[tuple[int, IntRow]] = []
    for c in range(ncols):
        if not waiting:
            break
        candidates = waiting.pop(c, None)
        if candidates is None:
            continue
        prow = min(candidates, key=lambda row: (len(row), abs(row[c]).bit_length()))
        for row in candidates:
            if row is not prow:
                row = _eliminate(row, prow, c)
                if row:
                    waiting.setdefault(min(row), []).append(row)
        pivots.append((c, prow))
    return pivots


def _eliminate(row: IntRow, prow: IntRow, c: int) -> IntRow:
    """(a/g)*row - (v/g)*prow for a = prow[c], v = row[c], g = gcd(a, v), divided by its content."""
    a, v = prow[c], row[c]
    g = math.gcd(a, v)
    ma, mv = a // g, v // g
    if ma != 1:
        row = {j: ma * x for j, x in row.items()}
    for j, x in prow.items():
        s = row.get(j, 0) - mv * x
        if s:
            row[j] = s
        else:
            del row[j]
    if row:
        content = math.gcd(*row.values())
        if content > 1:
            row = {j: x // content for j, x in row.items()}
    return row


def reduced_echelon(rows: Iterable[Mapping | Sequence], ncols: int) -> list[tuple[int, IntRow]]:
    """Reduced row echelon form of integer rows, over primitive integer rows.

    `echelon`'s pivot rows, each cleared of every other pivot column by
    integer back-elimination, divided by its content and signed so that its
    pivot entry is positive: row / row[c] is the row of the unique rational
    reduced row echelon form. Returned like `echelon`'s, sorted by column.
    """
    reduced: list[tuple[int, IntRow]] = []
    for c, row in reversed(echelon(rows, ncols)):
        # every later row is final: zero in every pivot column but its own
        for k, later in reduced:
            if k in row:
                row = _eliminate(row, later, k)
        if row[c] < 0:
            row = {j: -x for j, x in row.items()}
        reduced.append((c, dict(sorted(row.items()))))
    reduced.reverse()
    return reduced


def _bareiss(rows: list[list[int]], ncols: int) -> list[tuple[int, IntRow]]:
    """`echelon` of dense integer rows of length ncols, by fraction-free Bareiss elimination.

    Each remaining row holds its entries from the current column c on. A
    pivot a in column c, over the previous pivot b, replaces every other row
    r by (a*r - r[c]*pivot row) / b, dropping column c: the division is exact
    (Sylvester's identity), so the entries stay integer minors and no gcd is
    taken. Pivot columns advance left to right, so they are the leftmost
    independent columns; a column with no nonzero entry is skipped, and rows
    that have become zero are dropped there. Pivot rows are returned sparse
    and primitive, like `echelon`'s.
    """
    pivots: list[tuple[int, IntRow]] = []
    b = 1
    for c in range(ncols):
        p = next((i for i, row in enumerate(rows) if row[0]), None)
        if p is None:
            rows = [row[1:] for row in rows if any(row)]
            if not rows:
                break
            continue
        prow = rows.pop(p)
        a, rest = prow[0], prow[1:]
        reduced = []
        for row in rows:
            v = row[0]
            reduced.append([(a * x - v * y) // b for x, y in zip(row[1:], rest)])
        rows = reduced
        pivots.append((c, _primitive({c + j: x for j, x in enumerate(prow) if x})))
        b = a
    return pivots


def _dense(row: Mapping | Sequence, ncols: int) -> list[int]:
    """A sparse or dense row as a list of ncols entries."""
    if isinstance(row, Mapping):
        dense = [0] * ncols
        for j, v in row.items():
            dense[j] = v
        return dense
    return list(row) + [0] * (ncols - len(row))


def nullspace_primitive(rows: Iterable[Mapping | Sequence], ncols: int) -> list[list[int]]:
    """Primitive integer basis of the right kernel of integer rows, one vector per free column.

    Rows that are at least half nonzero overall are eliminated densely
    (`_bareiss`), others by `echelon`; both give the same pivot columns.
    Vector k has 1 in its free column and 0 in the other free columns before
    normalization; its pivot entries come from back-substitution, scaling the
    whole vector whenever a pivot does not divide its right-hand side. The
    result has content 1 and a positive first nonzero entry.
    """
    rows = list(rows)
    nonzero = sum(sum(map(bool, row.values() if isinstance(row, Mapping) else row)) for row in rows)
    if 2 * nonzero >= len(rows) * ncols:
        pivots = _bareiss([_dense(row, ncols) for row in rows], ncols)
    else:
        pivots = echelon(rows, ncols)
    taken = {c for c, _ in pivots}
    basis = []
    for f in range(ncols):
        if f in taken:
            continue
        vec = {f: 1}
        for c, row in reversed(pivots):
            if c > f:
                continue
            s = sum(x * vec[j] for j, x in row.items() if j in vec)
            if not s:
                continue
            a = row[c]
            if a < 0:
                a, s = -a, -s
            g = math.gcd(a, s)
            if a != g:
                vec = {j: x * (a // g) for j, x in vec.items()}
            vec[c] = -s // g
        basis.append(normalize_primitive([vec.get(j, 0) for j in range(ncols)]))
    return basis


def normalize_primitive(vec: Sequence) -> list[int]:
    """Scale a rational vector to integers with content 1, first nonzero > 0."""
    den = math.lcm(*(v.denominator for v in vec))
    ints = _primitive([v.numerator * (den // v.denominator) for v in vec])
    sign = -1 if ints and ints[min(ints)] < 0 else 1
    return [sign * ints.get(j, 0) for j in range(len(vec))]


def rank_mod_p(rows: Iterable[Mapping | Sequence], p: int, ncols: int | None = None) -> list[int]:
    """Pivot columns over GF(p) of integer rows (sparse or dense), leftmost first.

    Their count is the rank mod p. Rows are inserted one at a time, reduced
    by the pivot row of their leading column until that column is free; of
    two rows that share one, the sparser is kept as the pivot row. Pivot rows
    have a leading 1, so row := row - v * pivot row touches only its columns.
    The pivot columns are the leftmost columns independent mod p, whatever
    pivot rows are kept. Given `ncols`, reading stops at full rank.
    """
    pivots: dict[int, dict[int, int]] = {}  # leading column -> the rest of its pivot row
    for row in rows:
        entries = row.items() if isinstance(row, Mapping) else enumerate(row)
        row = {j: r for j, v in entries if (r := v % p)}
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None or len(row) <= len(prow):
                inverse = pow(row.pop(c), -1, p)
                pivots[c] = {j: x * inverse % p for j, x in row.items()}
                if prow is None:
                    break
                row, prow, v = prow, pivots[c], 1  # the old pivot row, its leading 1 implied
            else:
                v = row.pop(c)
            for j, y in prow.items():
                s = (row.get(j, 0) - v * y) % p
                if s:
                    row[j] = s
                else:
                    del row[j]
        if len(pivots) == ncols:
            break
    return sorted(pivots)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least odd composite that is a strong pseudoprime to every base above
# (399,165,290,221 x 798,330,580,441): below it, the test decides
_MR_DECIDES_BELOW = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below 318,665,857,834,031,151,167,461 (about 3.2 x 10^23).

    The bases 2, ..., 37 decide primality only below that bound, so a larger
    n raises ValueError rather than risk calling a composite prime.
    """
    if n >= _MR_DECIDES_BELOW:
        raise ValueError(f"{n} is too large to test for primality: it must be below {_MR_DECIDES_BELOW}")
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
