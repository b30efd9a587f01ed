"""Benchmark of `implicit run`: time to answer, set-up time and memory.

    python3 perfbench/run.py --workload sunlet-d3 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
`--trace 0` spawns `python -m implicitize run` one process at a time, at the
CLI defaults, and reports the end-to-end metrics of BENCHMARK.json. `--trace 1`
calls `implicitize.cli.main` in this process with spans around each module's
functions (see tracer.py) and reports the per-layer metrics. Every output is
checked (see outcheck.py). The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines above it give each
metric with its unit and sample count, and the run context. A copy goes to
`perfbench/results/`. See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from gen_cubics import write_map
from outcheck import OutputCheck
from tracer import Tracer, layer_metrics, span_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PER_SAMPLE = 2  # `-d 1` processes for setup_s before each timed one
MIN_SAMPLES = 3  # timed processes per run, even past --seconds
MIN_TRACED = 2  # traced runs, so their counts can be compared
GENERIC_MAPS = 2  # generic cubic maps per run, timed in turn


@dataclass(frozen=True)
class Workload:
    degree: int
    counts: dict[int, int]
    # `implicit examples` arguments of a fixed map; None for the generic cubics
    example: tuple[str, ...] | None
    # sha256 of stdout, the same for every --seed; None when the map varies
    sha256: str | None


WORKLOADS = {
    "sunlet-d3": Workload(
        3,
        {2: 12, 3: 64},
        ("sunlet-k3p",),
        "36ebbe60cf4b6736a199b162a4e1530b9fd6f1ece66d1cd58effc8e5a5d6d100",
    ),
    "grassmannian-d4": Workload(
        4,
        {2: 70},
        ("grassmannian", "8"),
        "95a45dd6261b016cab772d3a9d21c97883a95384a9658401bac2002144494d00",
    ),
    "generic-cubics-d3": Workload(3, {2: 8, 3: 4}, None, None),
}


@dataclass
class Process:
    wall_s: float
    returncode: int
    stdout: bytes
    peak_rss_mb: float


class Tally:
    """Processes attempted and failed, with the reasons of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, reason: str | None):
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{what}: {reason}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # Let the program cache its bytecode, as an installed package does.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], env: dict[str, str], stderr_path: Path) -> Process:
    """Run `python -m implicitize ARGS`; wall from spawn to exit, stdout captured."""
    with open(stderr_path, "wb") as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "implicitize", *args],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=env,
            cwd=ROOT,
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(wall, proc.returncode, out, usage.ru_maxrss / 1024)


def make_maps(name: str, seed: int, workdir: Path, env: dict[str, str]) -> list[Path]:
    """The map files of one run; the program sees only these files."""
    workload = WORKLOADS[name]
    if workload.example is None:
        paths = []
        for k in range(GENERIC_MAPS):
            path = workdir / f"cubics-{k}.json"
            write_map(seed * GENERIC_MAPS + k, str(path))
            paths.append(path)
        return paths
    path = workdir / "map.json"
    made = spawn(["examples", *workload.example, "-o", str(path)], env, workdir / "stderr")
    if made.returncode != 0:
        raise RuntimeError(f"implicit examples failed with exit code {made.returncode}")
    return [path]


def run_args(path: Path, degree: int, seed: int) -> list[str]:
    # CLI defaults otherwise: --threads is deliberately not passed.
    return ["run", "--map", str(path), "-d", str(degree), "--seed", str(seed)]


def timed(name: str, seed: int, seconds: float, workdir: Path):
    """End-to-end metrics from separate processes, no tracing."""
    workload = WORKLOADS[name]
    env = child_env()
    maps = make_maps(name, seed, workdir, env)
    stderr = workdir / "stderr"
    tally = Tally()
    setup_check = OutputCheck(str(maps[0]), {})

    def measured(path: Path, degree: int, check: OutputCheck) -> Process:
        proc = spawn(run_args(path, degree, seed), env, stderr)
        reason = check.failure(proc.returncode, proc.stdout)
        if reason and proc.returncode:
            reason += ": " + stderr.read_text(errors="replace").strip()[-300:]
        tally.record(f"-d {degree} on {path.name}", reason)
        return proc

    # Warm-up: byte-compiles the package and fills the file cache.
    measured(maps[0], 1, setup_check)

    checks = [OutputCheck(str(path), workload.counts, workload.sha256) for path in maps]
    setup: list[float] = []
    samples: list[Process] = []

    def one_round():
        for path, check in zip(maps, checks):
            # Set-up samples are spread over the run, so that one slow spell
            # of the machine does not decide setup_s.
            for _ in range(SETUP_PER_SAMPLE):
                setup.append(measured(maps[0], 1, setup_check).wall_s)
            samples.append(measured(path, workload.degree, check))

    # The first round sets how many rounds fill --seconds, so that every map
    # is timed equally often and the count does not hinge on a deadline.
    started = time.perf_counter()
    one_round()
    min_rounds = -(-MIN_SAMPLES // len(maps))
    rounds = max(min_rounds, round(seconds / (time.perf_counter() - started)))
    for _ in range(rounds - 1):
        one_round()

    walls = [p.wall_s for p in samples]
    rss = [p.peak_rss_mb for p in samples]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }
    notes = {
        "wall_s": f"n={len(walls)} min={min(walls):.4f} max={max(walls):.4f}",
        "setup_s": f"n={len(setup)} min={min(setup):.4f} max={max(setup):.4f}",
        "peak_rss_mb": f"n={len(rss)} min={min(rss):.1f} max={max(rss):.1f}",
    }
    raw = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss}
    return metrics, notes, raw, tally, set()


def in_process(cli, args: list[str]) -> tuple[float, float, int, bytes]:
    """(wall, CPU of the whole process, exit code, stdout) of one `cli.main` call."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        started, cpu = time.perf_counter(), time.process_time()
        code = cli.main(args)
        wall, cpu = time.perf_counter() - started, time.process_time() - cpu
    return wall, cpu, code, out.getvalue().encode("utf-8")


def reconcile(counts: dict[str, int], report: dict) -> list[str]:
    """Traced counts that disagree with the CLI's own --report."""
    levels = report["levels"]
    expected = {
        "matroid.can_skip.calls": sum(lv["multidegrees"] for lv in levels),
        "matroid.can_skip.skipped": sum(lv["skipped_matroid"] for lv in levels),
        "linalg.prescreen_trivial.certified": sum(lv["skipped_prescreen"] for lv in levels),
        "enumeration.components": sum(lv["multidegrees"] for lv in levels),
        "enumeration.monomials": sum(lv["monomials"] for lv in levels),
        "grading.rank": report["grading_rank"],
    }
    return [
        f"{metric} = {counts[metric]}, --report says {value}"
        for metric, value in expected.items()
        if metric in counts and counts[metric] != value
    ]


# Derived ratios: name -> (numerator, denominator, reported as 1 - ratio).
# A support that can_skip has seen before is a cache hit.
RATIOS = {
    "matroid.can_skip.skip_ratio": ("matroid.can_skip.skipped", "matroid.can_skip.calls", False),
    "matroid.can_skip.cache_hit_ratio": (
        "matroid.can_skip.distinct_supports",
        "matroid.can_skip.calls",
        True,
    ),
    "linalg.prescreen_trivial.certified_ratio": (
        "linalg.prescreen_trivial.certified",
        "linalg.prescreen_trivial.calls",
        False,
    ),
}


# Counts that the pool's scheduling may change: two workers can both miss the
# skip cache on one support and both compute its rank.
SCHEDULING_DEPENDENT = ("linalg.rank_mod_p.calls",)


def traced(name: str, seed: int, seconds: float, workdir: Path):
    """Per-layer metrics from in-process runs, traced and untraced in turn."""
    workload = WORKLOADS[name]
    path = make_maps(name, seed, workdir, child_env())[0]
    sys.path.insert(0, str(SRC))
    from implicitize import cli

    check = OutputCheck(str(path), workload.counts, workload.sha256)
    tally = Tally()
    report_path = workdir / "report.json"
    args = run_args(path, workload.degree, seed)
    plain_walls, plain_cpus, traced_walls = [], [], []
    times: dict[str, list[float]] = {}
    counts: dict[str, int] | None = None
    absent: set[str] = set()
    deadline = time.perf_counter() + seconds
    while len(traced_walls) < MIN_TRACED or time.perf_counter() < deadline:
        wall, cpu, code, out = in_process(cli, args)
        tally.record("untraced", check.failure(code, out))
        plain_walls.append(wall)
        plain_cpus.append(cpu)

        tracer = Tracer()
        with tracer.installed():
            wall, _, code, out = in_process(cli, [*args, "--report", str(report_path)])
        tally.record("traced", check.failure(code, out))
        traced_walls.append(wall)
        absent = {m for span in tracer.absent for m in span_metrics(span)}
        run_times, run_counts = layer_metrics(tracer)
        del tracer
        for metric, value in run_times.items():
            times.setdefault(metric, []).append(value)
        report = json.loads(report_path.read_text())
        mismatch = reconcile(run_counts, report)
        if mismatch:
            raise RuntimeError("traced counts do not match --report: " + "; ".join(mismatch))
        if counts is None:
            counts = run_counts
        else:
            changed = [
                f"{metric}: {counts.get(metric)} then {run_counts.get(metric)}"
                for metric in sorted(set(counts) | set(run_counts))
                if metric not in SCHEDULING_DEPENDENT
                and counts.get(metric) != run_counts.get(metric)
            ]
            if changed:
                raise RuntimeError("traced counts differ between runs: " + "; ".join(changed))

    metrics: dict[str, float] = {m: statistics.median(v) for m, v in times.items()}
    metrics.update(counts)
    notes = {m: f"median of {len(traced_walls)} traced runs" for m in times}
    notes.update({m: "exact count, the same in every traced run" for m in counts})
    for metric in SCHEDULING_DEPENDENT:
        notes[metric] = "count from the first traced run; may vary with pool scheduling"
    for metric, (num, den, complement) in RATIOS.items():
        if num in absent or den in absent:
            absent.add(metric)
            continue
        a, b = metrics[num], metrics[den]
        share = a / b if b else 0.0
        metrics[metric] = 1 - share if complement and b else share
        prefix = "1 - " if complement else ""
        notes[metric] = f"{prefix}{num} / {den} = {prefix}{a} / {b}"
    plain, traced_wall = statistics.median(plain_walls), statistics.median(traced_walls)
    metrics["cli.cpu_s"] = statistics.median(plain_cpus)
    notes["cli.cpu_s"] = f"median CPU of {len(plain_cpus)} untraced in-process runs"
    metrics["trace.overhead_ratio"] = traced_wall / plain
    notes["trace.overhead_ratio"] = (
        f"median traced wall / median untraced wall = {traced_wall:.4f} / {plain:.4f}"
    )
    raw = {"traced_wall_s": traced_walls, "untraced_wall_s": plain_walls}
    return metrics, notes, raw, tally, absent


def commit() -> str:
    """HEAD of the checkout's own .git, without looking above the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def run_context() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        # `--threads 0`, the CLI default, resolves to this in the engine.
        "default_threads": os.cpu_count() or 1,
        "python": platform.python_version(),
        "commit": commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark of `implicit run`")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "implicitize" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'implicitize'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workroot = BENCH / "work"
    workroot.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workroot) as tmp:
        measure = traced if args.trace else timed
        metrics, notes, raw, tally, absent = measure(
            args.workload, args.seed, args.seconds, Path(tmp)
        )

    missing = [m["name"] for m in wanted if m["name"] not in metrics and m["name"] not in absent]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    for name in absent:
        notes[name] = "absent: the function does not exist at this commit"

    context = run_context()
    failed = len(tally.failures)
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in wanted
        },
    }
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}"
        f" | nproc={context['nproc']} default_threads={context['default_threads']}"
        f" python={context['python']} commit={context['commit'][:12]}"
    )
    for reason in tally.failures:
        print(f"# FAILED {reason}")
    print(
        f"# failed_frac {failed / tally.attempted:.4f}"
        f" ({failed} of {tally.attempted} processes failed)"
    )
    for m in wanted:
        value = result["metrics"][m["name"]]["value"]
        print(f"{m['name']:44s} {value:>14.6g} {m['unit']:6s} {notes.get(m['name'], '')}")

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        context=context,
        raw=dict(raw, absent=sorted(absent)),
    )
    out = results / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
