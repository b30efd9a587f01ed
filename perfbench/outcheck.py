"""Checks on the stdout of one `implicit run`, independent of the program's code.

A process passes when it exits 0 and its text output

* lists the expected number of generators in each degree,
* hashes to the sha256 recorded for that map and degree bound, and
* holds only nonzero generators that vanish on the map's image: each one is
  evaluated mod a large prime at the image of a fixed random point, which a
  polynomial outside the kernel survives with probability at most deg/p.

Standard library only; the map is read from its JSON file.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

PRIME = (1 << 61) - 1


def generator_counts(text: str) -> dict[int, int]:
    """Generators per degree, from the `# degree d | ...` section headers."""
    counts: dict[int, int] = {}
    declared = None
    degree = None
    for line in text.splitlines():
        if line.startswith("# generators:"):
            declared = int(line.split(":")[1])
        elif line.startswith("# degree "):
            degree = int(line.split()[2])
        elif line.strip():
            if degree is None:
                raise ValueError(f"generator before any degree header: {line!r}")
            counts[degree] = counts.get(degree, 0) + 1
    if declared != sum(counts.values()):
        raise ValueError(f"header declares {declared} generators, found {sum(counts.values())}")
    return counts


def _image_point(map_data: dict) -> dict[str, int]:
    """Each domain variable's image, evaluated mod PRIME at a fixed random point."""
    rng = random.Random(20231113)
    point = {name: rng.randrange(1, PRIME) for name in map_data["codomain_vars"]}
    values = {}
    for name, terms in zip(map_data["domain_vars"], map_data["images"]):
        total = 0
        for num, den, exps in terms:
            term = num * pow(den, -1, PRIME)
            for var, e in exps.items():
                term = term * pow(point[var], e, PRIME)
            total += term
        values[name] = total % PRIME
    return values


def _evaluate(line: str, values: dict[str, int]) -> int:
    """Evaluate one printed generator, e.g. `x*z - 2*y^2`, mod PRIME."""
    tokens = line.split(" ")
    pieces = [(1, tokens[0])] + [
        (1 if sign == "+" else -1, body) for sign, body in zip(tokens[1::2], tokens[2::2])
    ]
    total = 0
    for sign, body in pieces:
        if body.startswith("-"):
            sign, body = -sign, body[1:]
        term = sign
        for factor in body.split("*"):
            if factor[0].isdigit():
                q = Fraction(factor)
                term = term * q.numerator * pow(q.denominator, -1, PRIME)
            else:
                var, _, exp = factor.partition("^")
                term = term * pow(values[var], int(exp or 1), PRIME)
        total += term
    return total % PRIME


class OutputCheck:
    """Expected output of one map at one degree bound.

    `sha256` is the recorded hash of stdout; when None, the first output
    seen is recorded and every later one must match it.
    """

    def __init__(self, map_path: str, counts: dict[int, int], sha256: str | None = None):
        with open(map_path, encoding="utf-8") as handle:
            self.values = _image_point(json.load(handle))
        self.counts = counts
        self.sha256 = sha256
        self._verified: set[str] = set()

    def failure(self, returncode: int, stdout: bytes) -> str | None:
        """None when the output passes, otherwise the reason it does not."""
        if returncode != 0:
            return f"exit code {returncode}"
        digest = hashlib.sha256(stdout).hexdigest()
        if digest in self._verified:
            return None
        text = stdout.decode("utf-8")
        try:
            counts = generator_counts(text)
        except ValueError as exc:
            return f"unreadable output: {exc}"
        if counts != self.counts:
            return f"generator counts {counts}, expected {self.counts}"
        for line in text.splitlines():
            if line.startswith("#") or not line.strip():
                continue
            if line == "0" or _evaluate(line, self.values):
                return f"generator does not vanish on the image: {line[:80]}"
        if self.sha256 is None:
            self.sha256 = digest
        if digest != self.sha256:
            return f"stdout sha256 {digest[:16]}..., recorded {self.sha256[:16]}..."
        self._verified.add(digest)
        return None
