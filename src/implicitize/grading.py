"""Multigradings in which the kernel of a ring map is homogeneous.

For phi: K[x_1..x_n] -> K[t_1..t_m], each generator x_i - phi(x_i) of the
elimination ideal is forced to be homogeneous. Every monomial t^alpha of
phi(x_i) therefore imposes one linear constraint

    w_{x_i} - sum_j alpha_j * w_{t_j} = 0

on weight vectors w in Z^{n+m} (domain coordinates first). An integer basis
of the constraint nullspace, projected onto the domain coordinates, yields a
grading matrix A under which every kernel element is homogeneous. The basis
and the multidegrees beta = A alpha are plain integer lists and tuples. A
strictly positive integer vector in the row span of A drives degree-by-degree
enumeration; without one the engine refuses to run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .polyring import RingMap


class NoPositiveWeightError(RuntimeError):
    """The grading row span contains no strictly positive vector."""


class GradingMatrix(NamedTuple):
    """Maximal-rank integer grading on the domain.

    `A` is r x n with independent rows. `positive_weight`, when present, is a
    primitive integer vector in rowspan(A) with every entry >= 1; None means
    that the row span has no such vector.
    """

    A: list[list[int]]
    n: int
    positive_weight: list[int] | None

    @property
    def rank(self) -> int:
        return len(self.A)


def build_constraints(phi: RingMap) -> list[list[int]]:
    """One integer row per (variable, image monomial) pair.

    Variables with zero image contribute no rows and stay unconstrained; an
    image with a constant term pins w_{x_i} to 0 through the empty monomial.
    """
    n, m = phi.n, phi.m
    rows = []
    for i, image in enumerate(phi.images):
        for mono, _ in image.sorted_terms():
            row = [0] * (n + m)
            row[i] = 1
            for j, e in mono.exps:
                row[n + j] = -e
            rows.append(row)
    return rows


def homogeneity_space(phi: RingMap) -> list[list[int]]:
    """Primitive integer basis of the constraint nullspace, as (n+m)-vectors, domain first."""
    return linalg.nullspace_primitive(build_constraints(phi), phi.n + phi.m)


def domain_grading(vectors: list[list[int]], n: int) -> GradingMatrix:
    """Project the first n coordinates of the vectors and keep a maximal independent subset.

    Candidates are ordered by (max absolute entry, lexicographic), then one
    elimination over their projections, taken as columns, keeps the pivot
    columns: the leftmost independent ones, so exactly the greedy picks in
    that order, and the result is deterministic. The grading comes with the
    positive weight of its rows (`find_positive_weight`).
    """
    ordered = sorted(vectors, key=lambda v: (max(map(abs, v), default=0), tuple(v)))
    by_coordinate = [[vec[i] for vec in ordered] for i in range(n)]
    A = [list(ordered[k][:n]) for k, _ in linalg.echelon(by_coordinate, len(ordered))]
    return GradingMatrix(A, n, find_positive_weight(A, n))


def _feasible_point(stages: list[list[tuple[int, ...]]], r: int) -> list[Fraction]:
    """Back-substitute through Fourier-Motzkin stages; stages[k] constrains u_0..u_k."""
    u: list[Fraction] = []
    for k in range(r):
        lower = None
        upper = None
        for ineq in stages[k]:
            ck = ineq[k]
            if not ck:
                continue
            rest = sum((ineq[j] * u[j] for j in range(k)), Fraction(0))
            bound = -rest / ck
            if ck > 0:
                lower = bound if lower is None else max(lower, bound)
            else:
                upper = bound if upper is None else min(upper, bound)
        if lower is None and upper is None:
            u.append(Fraction(0))
        elif upper is None:
            u.append(lower + 1)
        elif lower is None:
            u.append(upper - 1)
        else:
            u.append((lower + upper) / 2)
    return u


def _positive_combination(columns: list[tuple[int, ...]], r: int) -> list[Fraction] | None:
    """Exact Fourier-Motzkin over primitive integer inequalities: u . c > 0 for all c."""

    def canonical(vec: tuple[int, ...]) -> tuple[int, ...] | None:
        # Positive scaling only: strict inequalities are orientation-sensitive.
        content = math.gcd(*vec)
        return tuple(v // content for v in vec) if content else None

    system = []
    for col in columns:
        vec = canonical(col)
        if vec is None:
            return None  # 0 > 0 demanded by an all-zero column
        system.append(vec)
    system = sorted(set(system))

    stages: list[list[tuple[int, ...]]] = [[] for _ in range(r)]
    current = system
    for v in range(r - 1, -1, -1):
        stages[v] = current
        zeros, lowers, uppers = [], [], []
        for ineq in current:
            cv = ineq[v]
            if cv > 0:
                lowers.append(ineq)
            elif cv < 0:
                uppers.append(ineq)
            else:
                zeros.append(ineq)
        combined = set(zeros)
        for lo in lowers:
            for up in uppers:
                new = tuple(
                    lo[j] * (-up[v]) + up[j] * lo[v] for j in range(r)
                )
                cn = canonical(new)
                if cn is None:
                    return None
                combined.add(cn)
        current = sorted(combined)
    if current:
        return None
    return _feasible_point(stages, r)


def find_positive_weight(A: list[list[int]], n: int) -> list[int] | None:
    """A strictly positive primitive integer vector in the row span of A (r x n), if any.

    The all-ones vector is preferred whenever the row span contains it, so
    degree-by-degree enumeration coincides with total degree; otherwise an
    exact Fourier-Motzkin search over the row-coefficient space decides
    feasibility. Returns None when no positive vector exists.
    """
    r = len(A)
    if r == 0:
        return None
    columns = list(zip(*A))
    # Rows of [A^T | 1]: pivot columns are the leftmost independent ones, so
    # the ones column r is a pivot exactly when ones is not in rowspan(A).
    if r not in dict(linalg.echelon([[*col, 1] for col in columns], r + 1)):
        return [1] * n
    u = _positive_combination(columns, r)
    if u is None:
        return None
    weight = [sum(u[k] * A[k][j] for k in range(r)) for j in range(n)]
    primitive = linalg.normalize_primitive(weight)
    if any(w < 1 for w in primitive):
        raise AssertionError("positive weight search produced a non-positive vector")
    return primitive


def grading_for_map(phi: RingMap) -> GradingMatrix:
    """Homogeneity space, domain projection, and positive weight in one step."""
    return domain_grading(homogeneity_space(phi), phi.n)

