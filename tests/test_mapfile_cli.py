from __future__ import annotations

import hashlib
import json
import re
import time
from types import SimpleNamespace

import pytest

from implicitize import cli, parse_map, parse_map_file
from implicitize.mapfile import (
    MAX_COEFFICIENT_BITS,
    MAX_PRODUCTS,
    MAX_TERMS,
    MapParseError,
    emit_map_json,
    emit_map_text,
    parse_map_json,
    parse_map_text,
)

from support import generic_cubics_map, rational_quadrics_map, run_cli

CUSP_TEXT = """
# a quadric cone chart
domain: x y z
codomain: a b
x = (a + b)^2
y = a^2 - b^2
z = (a - b)^2
"""


def test_text_parse_matches_fixture(cusp):
    assert parse_map_text(CUSP_TEXT) == cusp


def test_json_round_trip(cusp, gr24, sunlet):
    for phi in (cusp, gr24, sunlet):
        assert parse_map_json(emit_map_json(phi)) == phi


def test_text_round_trip(cusp, gr24):
    for phi in (cusp, gr24):
        assert parse_map_text(emit_map_text(phi)) == phi


def test_format_sniffing(cusp):
    assert parse_map(emit_map_json(cusp)) == cusp
    assert parse_map(emit_map_text(cusp)) == cusp


def test_rational_coefficients_round_trip():
    phi = parse_map_text("x = 1/2*t^2 - 3*t\ny = t")
    assert parse_map_json(emit_map_json(phi)) == phi
    assert parse_map_text(emit_map_text(phi)) == phi


def test_parse_errors():
    with pytest.raises(MapParseError):
        parse_map_text("")  # no images
    with pytest.raises(MapParseError):
        parse_map_text("x = t\nx = t^2")  # duplicate variable
    with pytest.raises(MapParseError):
        parse_map_text("codomain: t\nx = u + t")  # unknown variable
    with pytest.raises(MapParseError):
        parse_map_text("x = (t + 1")  # unbalanced parens
    with pytest.raises(MapParseError):
        parse_map_text("x = t $ 1")  # stray character
    with pytest.raises(MapParseError):
        parse_map_text("x = 1/0")  # zero denominator
    with pytest.raises(MapParseError):
        parse_map_text("x = " + "(" * 3000 + "t" + ")" * 3000)  # nested past the stack
    with pytest.raises(MapParseError):
        parse_map_json("{")  # malformed JSON
    with pytest.raises(MapParseError):
        parse_map_json('{"domain_vars": ["x"], "codomain_vars": ["t"]}')
    with pytest.raises(MapParseError):
        parse_map_json(
            '{"domain_vars": ["x"], "codomain_vars": ["t"], "images": [[[1, 0, {"t": 1}]]]}'
        )
    with pytest.raises(MapParseError):
        parse_map_json('{"domain_vars": ["x"], "codomain_vars": ["t"], "images": 7}')
    with pytest.raises(MapParseError):
        parse_map_json('{"domain_vars": ["x"], "codomain_vars": ["t"], "images": [5]}')
    with pytest.raises(MapParseError):
        parse_map_json(
            '{"domain_vars": ["x"], "codomain_vars": ["t"], "images": [[[1, 1, [["t", 1]]]]]}'
        )
    with pytest.raises(MapParseError):
        parse_map_json('{"domain_vars": "xy", "codomain_vars": ["t"], "images": [[], []]}')
    # booleans are not numbers: numerator, denominator, exponent
    for term in ('[true, 1, {"t": 1}]', '[1, true, {"t": 1}]', '[1, 1, {"t": true}]'):
        with pytest.raises(MapParseError):
            parse_map_json(
                '{"domain_vars": ["x"], "codomain_vars": ["t"], "images": [[%s]]}' % term
            )


def _sum_of_variables(name: str, count: int) -> str:
    return "(" + " + ".join(f"{name}{i}" for i in range(count)) + ")"


def test_expansion_cap():
    started = time.perf_counter()
    with pytest.raises(MapParseError):
        parse_map_text("x = (a+b+c)^200\ny = a*b*c")
    assert time.perf_counter() - started < 1.0
    code, _, err = run_cli(["run", "-d", "2"], stdin_text="x = (a+b+c)^200\ny = a*b*c")
    assert code == 2 and f"{MAX_TERMS} terms" in err
    # the bounds are checked before expanding, and a result at the cap still parses
    assert MAX_TERMS == 1000
    assert len(parse_map_text("x = (a+b+c+d)^16").images[0].terms) == 969
    with pytest.raises(MapParseError):
        parse_map_text("x = (a+b+c+d)^17")  # up to 1140 terms
    product = f"x = {_sum_of_variables('s', 25)}*{_sum_of_variables('t', 40)}"
    assert len(parse_map_text(product).images[0].terms) == 1000
    with pytest.raises(MapParseError):
        parse_map_text(f"x = {_sum_of_variables('s', 7)}*{_sum_of_variables('t', 143)}")
    # the work is bounded too: powers under the term cap whose binary powering
    # multiplies more than MAX_PRODUCTS term pairs fail before expanding far
    assert MAX_PRODUCTS == 60_000
    for text in ("x = (a+b)^500", "x = (a+b)^999"):  # 104,649 and 414,688 products
        started = time.perf_counter()
        with pytest.raises(MapParseError, match="term products"):
            parse_map_text(text)
        assert time.perf_counter() - started < 0.1
    assert len(parse_map_text("x = (a+b)^100").images[0].terms) == 101  # 4,072 products


def test_coefficient_growth_cap():
    # a power of a one-term base multiplies no term pairs, but its coefficient
    # grows without bound; the growth is bounded before expanding
    assert MAX_COEFFICIENT_BITS == 1 << 16
    started = time.perf_counter()
    with pytest.raises(MapParseError, match="bits"):
        parse_map_text("x = 3^10000000*a")
    assert time.perf_counter() - started < 0.1
    for text in ("x = 3*a\ny = 3^40000*a", "x = (3^30000*a)*(3^30000*b)"):
        with pytest.raises(MapParseError, match="bits"):
            parse_map_text(text)
    code, _, err = run_cli(["run", "-d", "2"], stdin_text="x = 3^10000000*a")
    assert code == 2 and f"{MAX_COEFFICIENT_BITS} bits" in err
    # unit coefficients do not grow, and a 2,808-bit coefficient is well inside
    assert parse_map_text("x = a^100000000").images[0].terms
    assert list(parse_map_text("x = 7^1000*a").images[0].terms.values()) == [7**1000]


def test_parse_error_location():
    try:
        parse_map_text("x = t\ny = t +")
    except MapParseError as exc:
        assert exc.line == 2
    else:
        raise AssertionError("expected a parse error")


def test_parse_map_file(tmp_path, cusp):
    path = tmp_path / "cusp.map"
    path.write_text(CUSP_TEXT, encoding="utf-8")
    assert parse_map_file(str(path)) == cusp


def test_cli_examples_pipe_run():
    code, map_json, _ = run_cli(["examples", "grassmannian", "4"])
    assert code == 0
    code, out, err = run_cli(["run", "-d", "3"], stdin_text=map_json)
    assert code == 0
    assert "# generators: 1" in out
    assert "p12*p34 - p13*p24 + p23*p14" in out
    assert "total: 1 generator(s)" in err


def test_cli_run_map_file(tmp_path):
    path = tmp_path / "cusp.map"
    code, text, _ = run_cli(["examples", "cusp", "--format", "text"])
    assert code == 0
    path.write_text(text, encoding="utf-8")
    code, out, _ = run_cli(["run", "--map", str(path), "-d", "2"])
    assert code == 0
    assert out.splitlines()[-1] == "x*z - y^2"


def test_cli_json_output_and_reports(tmp_path):
    grading_path = tmp_path / "grading.txt"
    report_path = tmp_path / "report.json"
    code, map_json, _ = run_cli(["examples", "cusp"])
    code, out, _ = run_cli(
        [
            "run",
            "-d",
            "2",
            "--output",
            "json",
            "--grading-out",
            str(grading_path),
            "--report",
            str(report_path),
        ],
        stdin_text=map_json,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["generator_count"] == 1
    assert payload["generators"][0]["text"] == "x*z - y^2"
    assert payload["generators"][0]["terms"] == [[1, 1, {"x": 1, "z": 1}], [-1, 1, {"y": 2}]]

    lines = grading_path.read_text().splitlines()
    assert lines[0] == "1 3"
    assert lines[1] == "2 2 2"

    report = json.loads(report_path.read_text())
    for level in report["levels"]:
        statuses = ("skipped_matroid", "skipped_prescreen", "certified_by_symmetry", "solved")
        assert sum(level[key] for key in statuses) == level["multidegrees"]
    assert report["options"]["seed"] == 0


def test_cli_report_stage_seconds(tmp_path):
    report_path = tmp_path / "report.json"
    code, map_json, _ = run_cli(["examples", "grassmannian", "5"])
    code, _, err = run_cli(["run", "-d", "3", "--report", str(report_path)], stdin_text=map_json)
    assert code == 0 and "stage" not in err  # the stderr table has no per-stage columns
    assert err.splitlines()[0].split()[5] == "certified(sym)"
    stages = ("enumerate", "orbits", "trim", "certify", "assemble", "kernel", "verify")
    levels = json.loads(report_path.read_text())["levels"]
    assert levels[2]["certified_by_symmetry"]  # the example declares its symmetries
    for level in levels:
        seconds = level["stage_seconds"]
        assert tuple(seconds) == stages
        assert all(v >= 0 for v in seconds.values())
        assert sum(seconds.values()) <= level["seconds"] + 1e-9


def test_cli_report_leading_term_counts(tmp_path):
    # certified_by_leading_terms is deterministic, in the JSON only, and 0
    # without the certificate; stdout and the stderr table do not change
    _, map_json, _ = run_cli(["examples", "sunlet-k3p"])
    report_path = tmp_path / "report.json"
    counts, tables, outs = {}, set(), set()
    for flags, hashseed in (([], "0"), ([], "1"), (["--no-prescreen"], "0")):
        args = ["run", "-d", "3", "--report", str(report_path), *flags]
        code, out, err = run_cli(args, stdin_text=map_json, hashseed=hashseed)
        assert code == 0 and "leading" not in err
        outs.add(out)
        tables.add(tuple(tuple(line.split()[:8]) for line in err.splitlines()[:4]))
        levels = json.loads(report_path.read_text())["levels"]
        counts[tuple(flags), hashseed] = [level["certified_by_leading_terms"] for level in levels]
    assert counts == {((), "0"): [0, 31, 935], ((), "1"): [0, 31, 935], (("--no-prescreen",), "0"): [0, 0, 0]}
    assert len(outs) == 1 and len(tables) == 2  # the two default runs print the same table
    assert hashlib.sha256(outs.pop().encode()).hexdigest() == SUNLET_D3_SHA256


def test_cli_report_peak_rss(tmp_path, monkeypatch, capsys):
    # the report gives the process's own peak RSS in MB; stdout does not change
    report_path = tmp_path / "report.json"
    code, map_json, _ = run_cli(["examples", "cusp"])
    code, plain, _ = run_cli(["run", "-d", "2"], stdin_text=map_json)
    code, out, _ = run_cli(["run", "-d", "2", "--report", str(report_path)], stdin_text=map_json)
    assert code == 0 and out == plain
    assert 1 < json.loads(report_path.read_text())["peak_rss_mb"] < 10_000
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    for platform, maxrss in (("linux", 50 * 1024), ("darwin", 50 * 1024 * 1024)):
        usage = SimpleNamespace(ru_maxrss=maxrss)
        monkeypatch.setattr(cli, "resource", SimpleNamespace(RUSAGE_SELF=0, getrusage=lambda who: usage))
        monkeypatch.setattr(cli.sys, "platform", platform)
        assert cli._peak_rss_mb() == 50.0
    # without the `resource` module the field is left out
    monkeypatch.undo()
    monkeypatch.setattr(cli, "resource", None)
    path = tmp_path / "cusp.json"
    path.write_text(map_json, encoding="utf-8")
    assert cli.main(["run", "--map", str(path), "-d", "2", "--report", str(report_path)]) == 0
    assert capsys.readouterr().out == plain
    assert "peak_rss_mb" not in json.loads(report_path.read_text())


SUNLET_D3_SHA256 = "36ebbe60cf4b6736a199b162a4e1530b9fd6f1ece66d1cd58effc8e5a5d6d100"
GENERIC_CUBICS_SHA256 = "b753b42dfcdf227af5cb80127555d55884427f1a8e10558dafae57d8fb29fe45"
RATIONAL_QUADRICS_SHA256 = "bb6839887e7c308c969caf225ea142733a419b633d21bb77124c55d33265ea9d"


def test_fat_coefficient_outputs_pinned():
    # stdout of `run -d 3`, recorded from the Fraction elimination the integer one replaced;
    # 3 divides image denominators of both maps and 5 those of the quadrics: no prime is bumped
    for phi, digest, counts in (
        (generic_cubics_map(2), GENERIC_CUBICS_SHA256, {2: 8, 3: 4}),
        (rational_quadrics_map(), RATIONAL_QUADRICS_SHA256, {3: 7}),
    ):
        for prime in ([], ["--prime", "3"], ["--prime", "5"]):
            code, out, _ = run_cli(["run", "-d", "3", *prime], stdin_text=emit_map_json(phi))
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest
        found: dict[int, int] = {}
        for line in out.splitlines():
            if line.startswith("# degree "):
                degree = int(line.split()[2])
                found.setdefault(degree, 0)
            elif not line.startswith("#"):
                found[degree] += 1
        assert found == counts


def _decimal(digits: str) -> int:
    """`int(digits)` in chunks below CPython's int-to-decimal limit."""
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start : start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_exact_answers_past_the_digit_limit_print():
    # x^6 - 7^6000*y: a 5,071-digit coefficient, past CPython's default
    # 4,300-digit limit on converting ints to decimal
    text_map = "x = 7^1000*a\ny = a^6\n"
    code, out, _ = run_cli(["run", "-d", "6"], stdin_text=text_map)
    assert code == 0
    line = out.splitlines()[-1]
    assert line.startswith("x^6 - ") and line.endswith("*y")
    assert _decimal(line[len("x^6 - ") : -len("*y")]) == 7**6000
    code, out, _ = run_cli(["run", "-d", "6", "--output", "json"], stdin_text=text_map)
    assert code == 0
    long_numbers = re.findall(r"\d{4300,}", out)  # the `text` field, then the term
    assert len(long_numbers) == 2 and all(_decimal(n) == 7**6000 for n in long_numbers)


# stdout of `run` on the built-in examples, recorded before monomials were packed
EXAMPLE_SHA256 = {
    ("cusp", "4"): "c8e207315e560bc207601cdce52a4eb8ba47f91899f36fb8c218faaa5b3e491d",
    ("grassmannian 6", "3"): "6a7aba561ab5a8e5f64d9f850c4f3d236564a254e9b877b685e445a406d2a8a3",
    ("sunlet-k3p", "2"): "5ce5a421ee3fbe88e7834c52a00d088d265ee013ca95cc018413662fc20eeef3",
    ("grassmannian 8", "4"): "95a45dd6261b016cab772d3a9d21c97883a95384a9658401bac2002144494d00",
}


def test_example_outputs_pinned():
    for (example, degree), digest in EXAMPLE_SHA256.items():
        code, map_json, _ = run_cli(["examples", *example.split()])
        assert code == 0
        code, out, _ = run_cli(["run", "-d", degree], stdin_text=map_json)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, example


def test_huge_multidegrees_run():
    # multidegrees past 2^70 pack into wider beta fields; sympy cannot expand
    # these exponents, so stdout is pinned
    big = 2**70
    text = f"x = t^{big}\ny = t^{big}\nz = s^2\nw = s*t^{big // 2}\n"
    code, out, _ = run_cli(["run", "-d", "2"], stdin_text=text)
    assert code == 0
    assert out == (
        "# generators: 2\n"
        f"# degree 1 | multidegree (0,{big})\n"
        "x - y\n"
        f"# degree 2 | multidegree (2,{big})\n"
        "y*z - w^2\n"
    )


def test_cli_exit_codes(tmp_path):
    # flag errors: 2
    code, _, _ = run_cli(["run"])
    assert code == 2
    code, _, _ = run_cli(["run", "-d", "0"], stdin_text="x = t")
    assert code == 2
    code, _, _ = run_cli(["run", "-d", "2", "--prime", "10"], stdin_text="x = t")
    assert code == 2
    # a strong pseudoprime to bases 2, ..., 37, past what is_prime decides
    code, out, err = run_cli(["run", "-d", "2", "--prime", "318665857834031151167461"], stdin_text="x = t")
    assert code == 2 and out == "" and "too large to test for primality" in err
    for removed in (["--threads", "2"], ["--naive"], ["--no-trim"], ["--no-skip"]):
        code, _, _ = run_cli(["run", "-d", "2", *removed], stdin_text="x = t")
        assert code == 2
    # unreadable map: 2
    code, _, _ = run_cli(["run", "-d", "2", "--map", str(tmp_path / "missing.map")])
    assert code == 2
    code, _, _ = run_cli(["run", "-d", "2"], stdin_text="x = $")
    assert code == 2
    # no positive grading: 3
    code, _, err = run_cli(["run", "-d", "2"], stdin_text="x = t + 1")
    assert code == 3
    assert "positive" in err
    # examples validation
    code, _, _ = run_cli(["examples", "grassmannian"])
    assert code == 2
    code, _, _ = run_cli(["examples", "grassmannian", "2"])
    assert code == 2
    for args in (["cusp", "7"], ["sunlet-k3p", "5"]):
        code, out, err = run_cli(["examples", *args])
        assert code == 2 and out == ""
        assert err == f"error: {args[0]} takes no size argument\n"


def test_module_entry_exits_4_after_flushing():
    # `python -m implicitize` leaves by os._exit: an internal error still exits
    # 4, with the stdout and stderr written before it
    patch = (
        "from implicitize import engine\n"
        "def fail(*args):\n"
        "    print('partial', end='')\n"
        "    raise engine.EngineInvariantError('planted')\n"
        "engine._verify_generator = fail"
    )
    code, out, err = run_cli(["run", "-d", "2"], stdin_text="x = t^2\ny = t^2", patch=patch)
    assert (code, out, err) == (4, "partial", "internal error: planted\n")


def test_cli_toggle_flags():
    code, map_json, _ = run_cli(["examples", "cusp"])
    base = ["run", "-d", "2"]
    reference = run_cli(base, stdin_text=map_json)[1]
    code, out, _ = run_cli(base + ["--no-prescreen"], stdin_text=map_json)
    assert code == 0
    assert out == reference


def test_cli_examples_to_file(tmp_path):
    out_path = tmp_path / "sunlet4.map"
    code, _, _ = run_cli(["examples", "sunlet-k3p", "-o", str(out_path)])
    assert code == 0
    phi = parse_map_file(str(out_path))
    assert phi.n == 64 and phi.m == 32
