from __future__ import annotations

import json
import time

import pytest

from implicitize import parse_map, parse_map_file
from implicitize.mapfile import (
    MAX_TERMS,
    MapParseError,
    emit_map_json,
    emit_map_text,
    parse_map_json,
    parse_map_text,
)

from support import run_cli

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
        skipped = level["skipped_matroid"] + level["skipped_prescreen"]
        assert skipped + level["solved"] == level["multidegrees"]
    assert report["options"]["seed"] == 0


def test_cli_exit_codes(tmp_path):
    # flag errors: 2
    code, _, _ = run_cli(["run"])
    assert code == 2
    code, _, _ = run_cli(["run", "-d", "0"], stdin_text="x = t")
    assert code == 2
    code, _, _ = run_cli(["run", "-d", "2", "--prime", "10"], stdin_text="x = t")
    assert code == 2
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
