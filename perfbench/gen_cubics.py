"""Generic rational cubics: the map of the `generic-cubics-d3` workload.

Each of COUNT domain variables maps to a dense homogeneous cubic in three
codomain variables. Every one of the ten cubic monomials gets a coefficient
n/d with n drawn from [-5, 5] (0 replaced by 1) and d from [1, 3], so the
map is generic and its grading has rank 1. The same seed gives the same map.

    python3 perfbench/gen_cubics.py --seed 3 -o cubics.json

The output is the documented JSON map format that `implicit run --map` reads.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import random
from itertools import combinations_with_replacement

COUNT = 8
CODOMAIN = ("s", "t", "u")


def generic_cubics(seed: int) -> dict:
    """The JSON map object of COUNT generic cubics, fixed by `seed`."""
    rng = random.Random(seed)
    monomials = list(combinations_with_replacement(CODOMAIN, 3))
    images = []
    for _ in range(COUNT):
        terms = []
        for mono in monomials:
            num = rng.randint(-5, 5) or 1
            den = rng.randint(1, 3)
            exps: dict[str, int] = {}
            for var in mono:
                exps[var] = exps.get(var, 0) + 1
            terms.append([num, den, exps])
        images.append(terms)
    return {
        "domain_vars": [f"x{i}" for i in range(COUNT)],
        "codomain_vars": list(CODOMAIN),
        "images": images,
    }


def write_map(seed: int, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(generic_cubics(seed), indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("-o", "--out", required=True)
    args = parser.parse_args(argv)
    write_map(args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
