"""Smoke check of `implicit run`: the stdout sha256 of seven pinned runs.

    python3 tests/smoke.py

Standard library only, so it runs on a bare interpreter before any test
dependency is installed. It runs `python -m implicitize`, with this
checkout's `src/` and the interpreter that runs the script, on the 4-sunlet
K3P at `-d 3`, Gr(2,8) at `-d 4`, the seed-2 generic cubics of
`perfbench/gen_cubics.py` at `-d 3` and at `-d 4`, the same cubics with
x7's image replaced by x6's at `-d 3`, the 4-sunlet once more with
`--no-prescreen`, and the 4-sunlet at `-d 4`, and compares each stdout's
sha256 with its pinned value. The cubics have no generator of degree 4, so
both of their runs print the same; the `-d 4` run's top level trims against
lift sources built at two lower levels. The fifth map has the linear
generator x6 - x7, whose shifts refute the engine's guessed tail at level 3,
so it runs the one-pass fallback. The sixth run takes the engine's
`prime=None` path, with no modular work, and must print what the default
prime prints. The last is the quickest pinned run whose failed certificates
prove tails that cut exact trims at the default prime (88 certificates, 850
columns); it also solves 1,316 orbit members for their own generators.
Exits 0 when all seven match, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from gen_cubics import write_map  # noqa: E402

FAILING_GUESS = "cubics seed 2, x7 -> x6"

PINNED = {
    "sunlet-k3p -d 3": "36ebbe60cf4b6736a199b162a4e1530b9fd6f1ece66d1cd58effc8e5a5d6d100",
    "grassmannian 8 -d 4": "95a45dd6261b016cab772d3a9d21c97883a95384a9658401bac2002144494d00",
    "cubics seed 2 -d 3": "b753b42dfcdf227af5cb80127555d55884427f1a8e10558dafae57d8fb29fe45",
    "cubics seed 2 -d 4": "b753b42dfcdf227af5cb80127555d55884427f1a8e10558dafae57d8fb29fe45",
    f"{FAILING_GUESS} -d 3": "3602a109a9e1198c709106a700c6ac54919d46c52101c131e81666357ee52219",
    "sunlet-k3p -d 3 --no-prescreen": "36ebbe60cf4b6736a199b162a4e1530b9fd6f1ece66d1cd58effc8e5a5d6d100",
    "sunlet-k3p -d 4": "0b81bb1c0a0f9113c1f6593e618d969720b74b8a625c289450159311cd57ed4b",
}


def implicit(*args: str) -> bytes:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "implicitize", *args], capture_output=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"implicit {' '.join(args)} exited {proc.returncode}:\n{proc.stderr.decode()}")
    return proc.stdout


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as work:
        maps = {}
        for name, example in (("sunlet-k3p", ["sunlet-k3p"]), ("grassmannian 8", ["grassmannian", "8"])):
            maps[name] = os.path.join(work, f"{example[0]}.json")
            implicit("examples", *example, "-o", maps[name])
        maps["cubics seed 2"] = os.path.join(work, "cubics.json")
        write_map(2, maps["cubics seed 2"])
        with open(maps["cubics seed 2"], encoding="utf-8") as handle:
            cubics = json.load(handle)
        cubics["images"][7] = cubics["images"][6]
        maps[FAILING_GUESS] = os.path.join(work, "failing-guess.json")
        with open(maps[FAILING_GUESS], "w", encoding="utf-8") as handle:
            json.dump(cubics, handle)
        for run, pinned in PINNED.items():
            name, flags = run.split(" -d ")  # the degree, then any further flags
            digest = hashlib.sha256(implicit("run", "--map", maps[name], "-d", *flags.split())).hexdigest()
            verdict = "ok" if digest == pinned else f"FAILED (pinned {pinned})"
            failed += digest != pinned
            print(f"{run}: {digest} {verdict}")
    print(f"Python {sys.version.split()[0]}: {len(PINNED) - failed} of {len(PINNED)} match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
