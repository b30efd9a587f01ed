"""Command-line front end.

    implicit run --map cusp.map -d 2
    implicit examples grassmannian 4 | implicit run -d 3
    implicit run --map sunlet4.map -d 2 --seed 7
    implicit examples cusp --format text -o cusp.map

`run` parses a map (file or stdin), computes all minimal kernel generators up
to the degree bound, prints them to stdout (text or JSON), and prints a
per-level summary table to stderr. With a non-standard positive weight the
bound applies to the weighted degree; the `--report` JSON says whether the
all-ones weight was used. Before any rational work, each component is
screened by evaluating its images at random points mod the prime (`--seed`
picks the points); a full-rank evaluation certifies that it has no new
generators. `--no-prescreen` turns that screen off and solves every component
exactly; it changes where the time goes, never the output.

Exit codes: 0 success, 2 bad flags or unreadable input, 3 no positive
grading exists for the map, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .engine import (
    EngineInvariantError,
    EngineOptions,
    GeneratorSet,
    components_of_kernel,
)
from .fixtures import gen_cusp, gen_grassmannian, gen_sunlet_k3p
from .grading import NoPositiveWeightError
from .linalg import is_prime
from .mapfile import MapParseError, emit_map_json, emit_map_text, parse_map, parse_map_file
from .polyring import DEFAULT_PRIME, RingMap, format_polynomial


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="implicit",
        description="minimal generators of the kernel of a polynomial ring map",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="compute kernel generators up to a degree bound")
    run.add_argument("--map", dest="map_path", help="map file (JSON or text); stdin if omitted")
    run.add_argument("-d", "--max-degree", type=int, required=True, help="degree bound, >= 1")
    run.add_argument("--seed", type=int, default=0, help="seed for the random evaluation points")
    run.add_argument("--prime", type=int, default=DEFAULT_PRIME, help="prime for mod-p work")
    run.add_argument(
        "--no-prescreen", action="store_true", help="solve every component exactly, unscreened"
    )
    run.add_argument("--output", choices=("text", "json"), default="text")
    run.add_argument("--grading-out", help="write the grading matrix to this path")
    run.add_argument("--report", help="write the run report as JSON to this path")

    examples = sub.add_parser("examples", help="emit a built-in example map")
    examples.add_argument(
        "name", choices=("grassmannian", "cusp", "sunlet-k3p"), help="which map to emit"
    )
    examples.add_argument(
        "size", nargs="?", type=int, default=None, help="matrix columns (grassmannian only)"
    )
    examples.add_argument("-o", "--out", help="output path; stdout if omitted")
    examples.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def _grading_text(result: GeneratorSet) -> str:
    grading = result.grading
    lines = [f"{grading.rank} {grading.n}"]
    for row in grading.A:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def _generators_text(result: GeneratorSet, phi: RingMap) -> str:
    lines = [f"# generators: {len(result.generators)}"]
    current = None
    for gen in result.generators:
        header = (gen.weighted_degree, gen.beta)
        if header != current:
            current = header
            beta = ",".join(str(b) for b in gen.beta)
            lines.append(f"# degree {gen.weighted_degree} | multidegree ({beta})")
        lines.append(format_polynomial(gen.poly, phi.domain_names))
    return "\n".join(lines) + "\n"


def _generators_json(result: GeneratorSet, phi: RingMap, max_degree: int) -> str:
    gens = []
    for gen in result.generators:
        terms = []
        for mono, coeff in gen.poly.sorted_terms():
            exps = {phi.domain_names[i]: e for i, e in mono.exps}
            terms.append([coeff.numerator, coeff.denominator, exps])
        gens.append(
            {
                "degree": gen.weighted_degree,
                "multidegree": list(gen.beta),
                "text": format_polynomial(gen.poly, phi.domain_names),
                "terms": terms,
            }
        )
    payload = {
        "max_degree": max_degree,
        "generator_count": len(result.generators),
        "generators": gens,
    }
    return json.dumps(payload, indent=2) + "\n"


def _report_payload(result: GeneratorSet, args, wall: float) -> dict:
    levels = []
    for st in result.level_stats:
        skipped = st.skipped_matroid + st.skipped_prescreen
        if skipped + st.solved != st.components:
            raise EngineInvariantError("report counts do not reconcile")
        levels.append(
            {
                "degree": st.weighted_degree,
                "monomials": st.monomials,
                "multidegrees": st.components,
                "skipped_matroid": st.skipped_matroid,
                "skipped_prescreen": st.skipped_prescreen,
                "solved": st.solved,
                "generators": st.generators,
                "seconds": round(st.seconds, 3),
            }
        )
    return {
        "options": {
            "max_degree": args.max_degree,
            "seed": args.seed,
            "prime": result.prime,
            "prescreen": not args.no_prescreen,
        },
        "grading_rank": result.grading.rank,
        "positive_weight_is_ones": result.grading.positive_weight
        == [1] * result.grading.n,
        "levels": levels,
        "generator_count": len(result.generators),
        "seconds": round(wall, 3),
    }


def _report_table(payload: dict) -> str:
    headers = (
        "degree",
        "monomials",
        "multidegrees",
        "certified",
        "certified(trim)",
        "solved",
        "gens",
        "seconds",
    )
    rows = [
        [
            str(lv["degree"]),
            str(lv["monomials"]),
            str(lv["multidegrees"]),
            str(lv["skipped_matroid"]),
            str(lv["skipped_prescreen"]),
            str(lv["solved"]),
            str(lv["generators"]),
            f"{lv['seconds']:.3f}",
        ]
        for lv in payload["levels"]
    ]
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
        for c in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    opts = payload["options"]
    lines.append(
        f"total: {payload['generator_count']} generator(s) in {payload['seconds']:.3f} s"
        f"  [seed={opts['seed']} prime={opts['prime']}"
        f" prescreen={'on' if opts['prescreen'] else 'off'}"
        f" grading_rank={payload['grading_rank']}]"
    )
    return "\n".join(lines) + "\n"


def _cmd_run(args) -> int:
    if args.max_degree < 1:
        print("error: --max-degree must be >= 1", file=sys.stderr)
        return 2
    if args.prime < 2 or not is_prime(args.prime):
        print(f"error: {args.prime} is not prime", file=sys.stderr)
        return 2
    if args.map_path:
        phi = parse_map_file(args.map_path)
    else:
        phi = parse_map(sys.stdin.read())
    options = EngineOptions(
        seed=args.seed,
        prime=args.prime,
        use_prescreen=not args.no_prescreen,
    )
    started = time.perf_counter()
    result = components_of_kernel(phi, args.max_degree, options)
    wall = time.perf_counter() - started

    if args.output == "json":
        sys.stdout.write(_generators_json(result, phi, args.max_degree))
    else:
        sys.stdout.write(_generators_text(result, phi))
    if args.grading_out:
        with open(args.grading_out, "w", encoding="utf-8") as handle:
            handle.write(_grading_text(result))
    payload = _report_payload(result, args, wall)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=2) + "\n")
    sys.stderr.write(_report_table(payload))
    return 0


def _cmd_examples(args) -> int:
    if args.name == "grassmannian":
        if args.size is None:
            print("error: grassmannian needs a size argument", file=sys.stderr)
            return 2
        phi = gen_grassmannian(args.size)
    elif args.name == "cusp":
        phi = gen_cusp()
    else:
        phi = gen_sunlet_k3p()
    text = emit_map_json(phi) if args.format == "json" else emit_map_text(phi)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_examples(args)
    except NoPositiveWeightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EngineInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (MapParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
