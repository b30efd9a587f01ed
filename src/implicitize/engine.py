"""Degree-by-degree computation of minimal kernel generators.

For each weighted degree i up to the bound, the engine enumerates the level,
then handles its components one at a time, in canonical beta order:

    matroid skip -> trim against lower-degree generators -> assemble the
    component system -> prime-field prescreen -> exact rational kernel

New generators are the kernel vectors over the trimmed column set; their
count per component is exactly the number of minimal generators of that
multidegree. Trimming at level i reads only generators from levels < i, so
components within a level never interact.
Every emitted generator is re-verified to map to zero and to be homogeneous
under every grading row.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .enumeration import DegreeLevel, MonomialBasis, enumerate_level, lookup_basis
from .grading import (
    GradingMatrix,
    NoPositiveWeightError,
    grading_for_map,
    multidegree_of,
)
from .linalg import (
    BadPrimeError,
    ComponentMatrix,
    exact_kernel,
    is_prime,
    next_prime,
    prescreen_trivial,
    sparse_rref,
)
from .matroid import build_jacobian, can_skip
from .polyring import DEFAULT_PRIME, Monomial, Polynomial, RingMap, grlex_key


class EngineInvariantError(RuntimeError):
    """An internal consistency check failed; the output cannot be trusted."""


@dataclass
class EngineOptions:
    seed: int = 0
    prime: int = DEFAULT_PRIME
    use_skip: bool = True
    use_trim: bool = True
    use_prescreen: bool = True
    naive_cap: int = 5000


@dataclass
class Generator:
    """One minimal generator with its provenance."""

    poly: Polynomial
    beta: tuple[int, ...]
    weighted_degree: int
    component_size: int
    lift_rank: int

    @property
    def total_degree(self) -> int:
        return self.poly.total_degree()


@dataclass
class ComponentTask:
    """Per-component record: one multidegree of one level."""

    beta: tuple[int, ...]
    weighted_degree: int
    size: int
    status: str = "pending"  # skipped-matroid | skipped-prescreen | solved
    lift_rank: int = 0
    kernel_dim: int = 0
    columns: tuple[Monomial, ...] | None = None  # trimmed basis, when computed


@dataclass
class LevelStats:
    weighted_degree: int
    monomials: int
    components: int
    skipped_matroid: int
    skipped_prescreen: int
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

    def __len__(self):
        return len(self.generators)


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
        target = tuple(b - bg for b, bg in zip(beta, g.beta))
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
    return ComponentMatrix(list(columns), row_monomials, rows)


@dataclass
class _LevelContext:
    phi: RingMap
    grading: GradingMatrix
    levels: dict[int, DegreeLevel]
    generators: list[Generator]
    options: EngineOptions
    prime: int
    jacobian: object | None
    skip_cache: dict[tuple[int, ...], bool]


def _process_component(
    ctx: _LevelContext, degree: int, beta: tuple[int, ...], basis: MonomialBasis
) -> tuple[ComponentTask, list[Generator]]:
    task = ComponentTask(beta, degree, len(basis.monomials))
    if ctx.jacobian is not None and can_skip(ctx.jacobian, basis.support, ctx.skip_cache):
        task.status = "skipped-matroid"
        return task, []

    if ctx.options.use_trim and ctx.generators:
        columns, lift_rank = trim_basis(ctx.generators, beta, degree, basis, ctx.levels)
    else:
        columns, lift_rank = list(basis.monomials), 0
    task.lift_rank = lift_rank
    task.columns = tuple(columns)
    if not columns:
        task.status = "solved"
        return task, []

    matrix = assemble_component(ctx.phi, columns)
    if ctx.options.use_prescreen and len(matrix.rows) >= len(columns):
        try:
            if prescreen_trivial(matrix, ctx.prime):
                task.status = "skipped-prescreen"
                return task, []
        except BadPrimeError:
            pass  # fall through to the exact solve

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


def _run_levels(
    phi: RingMap, grading: GradingMatrix, max_degree: int, options: EngineOptions
) -> GeneratorSet:
    prime = _safe_prime(phi, options.prime)
    jacobian = build_jacobian(phi, prime, options.seed) if options.use_skip else None
    result = GeneratorSet(grading=grading, prime=prime, seed=options.seed)
    ctx = _LevelContext(
        phi=phi,
        grading=grading,
        levels={},
        generators=result.generators,
        options=options,
        prime=prime,
        jacobian=jacobian,
        skip_cache={},
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
            if task.status == "skipped-matroid":
                skipped_m += 1
            elif task.status == "skipped-prescreen":
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


def _safe_prime(phi: RingMap, prime: int) -> int:
    """First prime >= the requested one dividing no image denominator.

    Component entries and Jacobian values only ever involve products and sums
    of image coefficients, so their denominators divide products of image
    denominators; one upfront check covers every later reduction.
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
    return _run_levels(phi, grading, max_degree, options)


def naive_total_degree_kernel(
    phi: RingMap, max_degree: int, options: EngineOptions | None = None
) -> GeneratorSet:
    """Brute-force oracle: one large system per total degree.

    Uses the rank-1 all-ones grading so each level is a single component,
    with the same lower-degree trimming as the main path but no matroid skip
    and no prescreen. Guarded by a monomial-count cap since the ansatz grows
    as C(n + d - 1, d).
    """
    if max_degree < 1:
        raise ValueError("degree bound must be >= 1")
    options = options or EngineOptions()
    cap = options.naive_cap
    worst = math.comb(phi.n + max_degree - 1, max_degree)
    if worst > cap:
        raise ValueError(
            f"naive ansatz needs {worst} monomials at degree {max_degree}, cap is {cap}"
        )
    grading = GradingMatrix(
        A=[[1] * phi.n], n=phi.n, A_full=None, positive_weight=[1] * phi.n
    )
    forced = EngineOptions(
        seed=options.seed,
        prime=options.prime,
        use_skip=False,
        use_trim=True,
        use_prescreen=False,
        naive_cap=cap,
    )
    return _run_levels(phi, grading, max_degree, forced)
