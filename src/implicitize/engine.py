"""Degree-by-degree computation of minimal kernel generators.

For each weighted degree i up to the bound, the engine enumerates the level,
then handles its components one at a time, in canonical beta order:

    trim against lower-degree generators -> certify mod p -> assemble the
    component system -> exact rational kernel

New generators are the kernel vectors over the trimmed column set; their
count per component is exactly the number of minimal generators of that
multidegree. Trimming runs whenever lower-degree generators exist: without it
the kernel would also hold their multiples, which are not minimal. Trimming
at level i reads only generators from levels < i, so components within a
level never interact. The certificate evaluates the images of the trimmed
columns at seeded random points of GF(p)^m; when those values have full rank
the component has no new generators, and no rational matrix is built for it.
A failed certificate only costs the exact solve, so no seed or prime changes
the output.
Every emitted generator is re-verified to map to zero and to be homogeneous
under every grading row.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import sub

from .enumeration import DegreeLevel, MonomialBasis, enumerate_level, lookup_basis
from .grading import (
    GradingMatrix,
    NoPositiveWeightError,
    grading_for_map,
    multidegree_of,
)
from .linalg import (
    ComponentMatrix,
    exact_kernel,
    is_prime,
    next_prime,
    rank_mod_p,
    sparse_rref,
)
from .polyring import DEFAULT_PRIME, Monomial, Polynomial, RingMap, grlex_key


class EngineInvariantError(RuntimeError):
    """An internal consistency check failed; the output cannot be trusted."""


@dataclass
class EngineOptions:
    seed: int = 0
    prime: int = DEFAULT_PRIME
    use_prescreen: bool = True


@dataclass
class Generator:
    """One minimal generator with its provenance."""

    poly: Polynomial
    beta: tuple[int, ...]
    weighted_degree: int
    component_size: int
    lift_rank: int


@dataclass
class ComponentTask:
    """Per-component record: one multidegree of one level."""

    beta: tuple[int, ...]
    weighted_degree: int
    size: int
    status: str = "pending"  # certified | solved
    lift_rank: int = 0
    kernel_dim: int = 0
    columns: tuple[Monomial, ...] = ()  # the trimmed basis


@dataclass
class LevelStats:
    weighted_degree: int
    monomials: int
    components: int
    skipped_matroid: int  # certified, with nothing trimmed
    skipped_prescreen: int  # certified after a non-empty trim
    solved: int
    generators: int
    seconds: float


@dataclass
class GeneratorSet:
    """Canonically ordered minimal generators plus run bookkeeping."""

    generators: list[Generator] = field(default_factory=list)
    level_stats: list[LevelStats] = field(default_factory=list)
    tasks: list[ComponentTask] = field(default_factory=list)
    grading: GradingMatrix | None = None
    prime: int = DEFAULT_PRIME
    seed: int = 0

    def counts_by_degree(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for g in self.generators:
            counts[g.weighted_degree] = counts.get(g.weighted_degree, 0) + 1
        return counts


def trim_basis(
    generators: list[Generator],
    beta: tuple[int, ...],
    weighted_degree: int,
    basis: MonomialBasis,
    levels: dict[int, DegreeLevel],
) -> tuple[list[Monomial], int]:
    """Columns that can still support new minimal generators of degree beta.

    Each lower-degree generator g is shifted by every monomial gamma with
    multidegree beta - beta_g; the span of those shifts is removed from the
    component, leaving the non-pivot columns. Returns (columns, lift rank).
    """
    position = {mono: idx for idx, mono in enumerate(basis.monomials)}
    lift_rows = []
    for g in generators:
        shift = weighted_degree - g.weighted_degree
        if shift < 1:
            continue
        level = levels.get(shift)
        if level is None:
            continue
        target = tuple(map(sub, beta, g.beta))
        for gamma in lookup_basis(level, target).monomials:
            row = {}
            for mono, coeff in g.poly.terms.items():
                shifted = gamma * mono
                idx = position.get(shifted)
                if idx is None:
                    raise EngineInvariantError(
                        f"lift monomial {shifted!r} escapes component {beta}"
                    )
                row[idx] = coeff
            lift_rows.append(row)
    if not lift_rows:
        return list(basis.monomials), 0
    _, pivot_cols = sparse_rref(lift_rows, len(basis.monomials))
    taken = set(pivot_cols)
    columns = [m for idx, m in enumerate(basis.monomials) if idx not in taken]
    return columns, len(pivot_cols)


def assemble_component(phi: RingMap, columns: list[Monomial]) -> ComponentMatrix:
    """Coefficient matrix of the images of the column monomials.

    Rows are indexed by the codomain monomials the images touch, graded-lex
    descending; columns with zero image simply contribute no rows.
    """
    images = [phi.apply_monomial(mono) for mono in columns]
    row_monomials = sorted({g for img in images for g in img.terms}, key=grlex_key)
    row_index = {g: i for i, g in enumerate(row_monomials)}
    rows: list[dict[int, Fraction]] = [{} for _ in row_monomials]
    for c, img in enumerate(images):
        for gamma, coeff in img.terms.items():
            rows[row_index[gamma]][c] = coeff
    return ComponentMatrix(list(columns), rows)


class EvaluationPoints:
    """Seeded random points t_k of GF(p)^m, drawn as needed and shared by a run.

    `values[k][i]` is image i evaluated at t_k.
    """

    def __init__(self, phi: RingMap, prime: int, seed: int):
        self.phi = phi
        self.prime = prime
        self.rng = random.Random(seed)
        self.values: list[list[int]] = []

    def certify_no_generators(self, columns: list[Monomial]) -> bool:
        """True certifies that the images of `columns` are linearly independent.

        E[k][j] = prod_i phi_i(t_k)^e_ij over the first c = len(columns)
        points equals V C, where C is the component's coefficient matrix mod p
        and V holds the codomain monomials evaluated at the points; C exists
        because `_safe_prime` keeps every image denominator a unit mod p.
        Rank can only drop from Q to GF(p) and under the product, so rank
        E = c forces a trivial rational kernel; a smaller rank certifies
        nothing.
        """
        p = self.prime
        while len(self.values) < len(columns):
            point = [self.rng.randrange(p) for _ in range(self.phi.m)]
            self.values.append([image.eval_mod_p(point, p) for image in self.phi.images])
        matrix = []
        for values in self.values[: len(columns)]:
            row = []
            for mono in columns:
                v = 1
                for i, e in mono.exps:
                    v = v * pow(values[i], e, p) % p
                row.append(v)
            matrix.append(row)
        return rank_mod_p(matrix, p) == len(columns)


@dataclass
class _LevelContext:
    phi: RingMap
    grading: GradingMatrix
    levels: dict[int, DegreeLevel]
    generators: list[Generator]
    points: EvaluationPoints | None  # None when screening is off


def _process_component(
    ctx: _LevelContext, degree: int, beta: tuple[int, ...], basis: MonomialBasis
) -> tuple[ComponentTask, list[Generator]]:
    task = ComponentTask(beta, degree, len(basis.monomials))
    if ctx.generators:
        columns, lift_rank = trim_basis(ctx.generators, beta, degree, basis, ctx.levels)
    else:
        columns, lift_rank = list(basis.monomials), 0
    task.lift_rank = lift_rank
    task.columns = tuple(columns)
    if not columns:
        task.status = "solved"
        return task, []
    if ctx.points is not None and ctx.points.certify_no_generators(columns):
        task.status = "certified"
        return task, []

    matrix = assemble_component(ctx.phi, columns)
    kernel = exact_kernel(matrix)
    task.status = "solved"
    task.kernel_dim = kernel.dimension
    found = []
    for vec in kernel.vectors:
        poly = Polynomial(
            ctx.phi.n,
            {columns[c]: Fraction(v) for c, v in enumerate(vec) if v},
        )
        found.append(Generator(poly, beta, degree, len(basis.monomials), lift_rank))
    return task, found


def _verify_generator(ctx: _LevelContext, gen: Generator):
    if not ctx.phi.apply(gen.poly).is_zero():
        raise EngineInvariantError(f"generator does not map to zero: {gen.poly!r}")
    for row in ctx.grading.A:
        if not gen.poly.is_homogeneous(row):
            raise EngineInvariantError(f"generator not homogeneous: {gen.poly!r}")
    lead, _ = gen.poly.leading()
    if multidegree_of(ctx.grading, lead).beta != gen.beta:
        raise EngineInvariantError(f"multidegree mismatch for {gen.poly!r}")


def _safe_prime(phi: RingMap, prime: int) -> int:
    """First prime >= the requested one dividing no image denominator.

    Image values at a point of GF(p)^m are sums of products of image
    coefficients, so this one upfront check lets `eval_mod_p` reduce every
    image without a BadPrimeError.
    """
    if prime < 2 or not is_prime(prime):
        raise ValueError(f"{prime} is not prime")
    while True:
        if all(
            coeff.denominator % prime
            for image in phi.images
            for coeff in image.terms.values()
        ):
            return prime
        prime = next_prime(prime)


def components_of_kernel(
    phi: RingMap, max_degree: int, options: EngineOptions | None = None
) -> GeneratorSet:
    """All minimal generators of ker(phi) of weighted degree <= max_degree.

    The weighted degree is taken against the grading's positive weight, which
    is the all-ones vector (plain total degree) whenever the row span allows
    it. Raises NoPositiveWeightError when no positive weight exists.
    """
    if max_degree < 1:
        raise ValueError("degree bound must be >= 1")
    options = options or EngineOptions()
    grading = grading_for_map(phi)
    if grading.positive_weight is None:
        raise NoPositiveWeightError(
            "the grading admits no strictly positive weight vector"
        )
    prime = _safe_prime(phi, options.prime)
    result = GeneratorSet(grading=grading, prime=prime, seed=options.seed)
    ctx = _LevelContext(
        phi=phi,
        grading=grading,
        levels={},
        generators=result.generators,
        points=EvaluationPoints(phi, prime, options.seed) if options.use_prescreen else None,
    )
    for degree in range(1, max_degree + 1):
        started = time.perf_counter()
        level = enumerate_level(grading, degree)
        ctx.levels[degree] = level
        new_generators: list[Generator] = []
        skipped_m = skipped_p = solved = 0
        for beta, basis in level.components.items():
            task, gens = _process_component(ctx, degree, beta, basis)
            result.tasks.append(task)
            if task.status == "certified" and not task.lift_rank:
                skipped_m += 1
            elif task.status == "certified":
                skipped_p += 1
            else:
                solved += 1
            new_generators.extend(gens)
        if skipped_m + skipped_p + solved != len(level.components):
            raise EngineInvariantError("component statuses do not reconcile")
        new_generators.sort(
            key=lambda g: (
                g.beta,
                grlex_key(g.poly.leading()[0]),
                tuple(sorted((m.exps, str(c)) for m, c in g.poly.terms.items())),
            )
        )
        for gen in new_generators:
            _verify_generator(ctx, gen)
        result.generators.extend(new_generators)
        result.level_stats.append(
            LevelStats(
                weighted_degree=degree,
                monomials=level.monomial_count,
                components=len(level.components),
                skipped_matroid=skipped_m,
                skipped_prescreen=skipped_p,
                solved=solved,
                generators=len(new_generators),
                seconds=time.perf_counter() - started,
            )
        )
    return result
