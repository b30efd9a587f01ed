"""Command-line front end.

    implicit run --map cusp.map -d 2
    implicit examples grassmannian 4 | implicit run -d 3
    implicit run --map sunlet4.map -d 2 --prime 101
    implicit examples cusp --format text -o cusp.map

`run` parses a map (file or stdin), computes all minimal kernel generators up
to the degree bound, prints them to stdout (text or JSON), and prints a
per-level summary table to stderr. With a non-standard positive weight the
bound applies to the weighted degree; the `--report` JSON says whether the
all-ones weight was used. Before any exact trim or solve, each component is
trimmed mod `--prime` and screened: by pairwise distinct leading monomials
of the columns left, under fixed monomial orders, or else by the rank mod
the same prime of their integer images; either certifies that it has no new
generators (`certified_by_leading_terms` in the report counts the first),
and every prime is valid. Nothing is random: `--seed` is
accepted, echoed in the report and has no effect. Components that a symmetry
declared in the map carries onto each other form an orbit, and only its
first member, in canonical order, is screened: when it has no new
generators, neither has any other member, and they are settled without
trimming or screening (`certified_by_symmetry` in the report); otherwise
every member is solved exactly. `--no-prescreen` turns the screen off, by
passing the engine `prime=None` in place of `--prime`, and solves every
orbit representative, and every member that has generators, exactly; it
changes where the time goes, never the output. A component of one monomial
with no zero-image variable has no generators and is counted certified in
bulk (`skipped_matroid`) at every setting, `--no-prescreen` included.
The `--report` JSON echoes the options as given, and gives each level's
seconds per stage (enumerate, orbits, trim, certify, assemble, kernel,
verify) and the process's own peak resident set size, `peak_rss_mb`, where
the platform reports it; timings and memory never reach stdout.

Exit codes: 0 success, 2 bad flags or unreadable input, 3 no positive
grading exists for the map, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

try:
    import resource
except ImportError:  # no `resource` module, as on Windows: the report omits peak_rss_mb
    resource = None

from .engine import EngineInvariantError, GeneratorSet, components_of_kernel
from .fixtures import (
    gen_cusp,
    gen_grassmannian,
    gen_sunlet_k3p,
    grassmannian_symmetries,
    sunlet_k3p_symmetries,
)
from .grading import NoPositiveWeightError
from .linalg import is_prime
from .mapfile import MapParseError, emit_map_json, emit_map_text, json_terms, parse_map, parse_map_file
from .polyring import DEFAULT_PRIME, RingMap, format_polynomial, unlimited_int_digits


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="implicit",
        description="minimal generators of the kernel of a polynomial ring map",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="compute kernel generators up to a degree bound")
    run.add_argument("--map", dest="map_path", help="map file (JSON or text); stdin if omitted")
    run.add_argument("-d", "--max-degree", type=int, required=True, help="degree bound, >= 1")
    run.add_argument("--seed", type=int, default=0, help="accepted; has no effect")
    run.add_argument("--prime", type=int, default=DEFAULT_PRIME, help="prime for mod-p work")
    run.add_argument(
        "--no-prescreen", action="store_true", help="no mod-p work; lone components still count in bulk"
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
    gens = [
        {
            "degree": gen.weighted_degree,
            "multidegree": list(gen.beta),
            "text": format_polynomial(gen.poly, phi.domain_names),
            "terms": json_terms(gen.poly, phi.domain_names),
        }
        for gen in result.generators
    ]
    payload = {
        "max_degree": max_degree,
        "generator_count": len(result.generators),
        "generators": gens,
    }
    return json.dumps(payload, indent=2) + "\n"


def _peak_rss_mb() -> float | None:
    """This process's peak resident set size in MB, or None where it cannot be read."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS, KiB elsewhere
    return round(peak / (1 << 20 if sys.platform == "darwin" else 1 << 10), 1)


def _report_payload(result: GeneratorSet, args, wall: float) -> dict:
    levels = []
    for st in result.level_stats:
        settled = st.skipped_matroid + st.skipped_prescreen + st.certified_by_symmetry
        if settled + st.solved != st.components:
            raise EngineInvariantError("report counts do not reconcile")
        levels.append(
            {
                "degree": st.weighted_degree,
                "monomials": st.monomials,
                "multidegrees": st.components,
                "skipped_matroid": st.skipped_matroid,
                "skipped_prescreen": st.skipped_prescreen,
                "certified_by_symmetry": st.certified_by_symmetry,
                "certified_by_leading_terms": st.certified_by_leading_terms,
                "solved": st.solved,
                "generators": st.generators,
                "seconds": round(st.seconds, 3),
                # truncated, so the stages never sum past the rounded level seconds
                "stage_seconds": {
                    stage: int(sec * 1000) / 1000 for stage, sec in st.stage_seconds.items()
                },
            }
        )
    payload = {
        "options": {
            "max_degree": args.max_degree,
            "seed": args.seed,
            "prime": args.prime,
            "prescreen": not args.no_prescreen,
        },
        "grading_rank": result.grading.rank,
        "positive_weight_is_ones": result.grading.positive_weight
        == [1] * result.grading.n,
        "levels": levels,
        "generator_count": len(result.generators),
        "seconds": round(wall, 3),
    }
    peak = _peak_rss_mb()
    if peak is not None:
        payload["peak_rss_mb"] = peak
    return payload


def _report_table(payload: dict) -> str:
    headers = (
        "degree",
        "monomials",
        "multidegrees",
        "certified",
        "certified(trim)",
        "certified(sym)",
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
            str(lv["certified_by_symmetry"]),
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
    if not is_prime(args.prime):
        print(f"error: {args.prime} is not prime", file=sys.stderr)
        return 2
    if args.map_path:
        phi = parse_map_file(args.map_path)
    else:
        phi = parse_map(sys.stdin.read())
    # Exact coefficients may pass CPython's int-to-decimal limit (4300 digits)
    # when sorted and printed; the limit stays in force while parsing, where it
    # bounds the quadratic cost of reading huge literals.
    with unlimited_int_digits():
        started = time.perf_counter()
        result = components_of_kernel(phi, args.max_degree, prime=None if args.no_prescreen else args.prime)
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
    if (args.name == "grassmannian") != (args.size is not None):
        need = "needs a size argument" if args.size is None else "takes no size argument"
        print(f"error: {args.name} {need}", file=sys.stderr)
        return 2
    if args.name == "grassmannian":
        phi = gen_grassmannian(args.size).with_symmetries(grassmannian_symmetries(args.size))
    elif args.name == "cusp":
        phi = gen_cusp()
    else:
        phi = gen_sunlet_k3p().with_symmetries(sunlet_k3p_symmetries())
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


def entry() -> None:
    """The `implicit` command: `main`, with the cyclic collector off, then an exit with no teardown.

    The engine leaves no reference cycles, and a run only the 136 objects of
    its argparse parser, at any degree: the collector would scan the
    engine's many objects for next to nothing, and the interpreter's
    finalization would free them one by one just before the process ends.
    stdout and stderr are flushed first; the report, grading and example
    files are already closed. An exception, argparse's exit included, leaves
    the usual way. In-process callers use `main`.
    """
    gc.disable()
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
