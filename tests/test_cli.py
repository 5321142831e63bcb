"""End-to-end CLI tests: formats, exit codes, determinism.

Most calls run ``quadconc.cli.main`` in-process; a few start a real
``python -m quadconc`` to pin the entry point, ``--version`` and the exit
status the process reports.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import pytest
from _interpreter import run_python
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quadconc.cli
from quadconc import __version__, oracle, spectral
from quadconc.errors import NumericalError

CHI5_JSON = '{"a": [1, 1, 1, 1, 1], "b": [0, 0, 0, 0, 0], "label": "chi5"}\n'
CHI5_MATRIX_JSON = (
    '{"matrix": [[1,0,0,0,0],[0,1,0,0,0],[0,0,1,0,0],[0,0,0,1,0],[0,0,0,0,1]],'
    ' "b": [0, 0, 0, 0, 0], "label": "chi5"}\n'
)


@dataclass(frozen=True)
class Result:
    returncode: int
    stdout: str
    stderr: str


def run(*args):
    """One in-process CLI call, reported like a finished process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = quadconc.cli.main([str(arg) for arg in args])
    return Result(code, out.getvalue(), err.getvalue())


def run_process(*args):
    """One CLI call in a fresh ``python -m quadconc`` process."""
    return run_python("-m", "quadconc", *args)


@pytest.fixture
def chi5(tmp_path):
    path = tmp_path / "chi5.json"
    path.write_text(CHI5_JSON)
    return path


def test_bound_text(chi5):
    res = run("bound", "--input", chi5, "--x", "0.5,1,2", "--direction", "upper")
    assert res.returncode == 0, res.stderr
    assert "11.47213595499958" in res.stdout
    assert "label: chi5" in res.stdout


def test_bound_json(chi5):
    res = run("bound", "--input", chi5, "--x", "1", "--format", "json")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["tool"] == "quadconc"
    assert doc["direction"] == "upper"
    assert doc["rows"] == [
        {"x": 1.0, "threshold": 11.47213595499958, "bound": 0.36787944117144233}
    ]


def test_bound_csv_golden(chi5):
    res = run("bound", "--input", chi5, "--x", "1,2", "--format", "csv")
    assert res.returncode == 0, res.stderr
    assert res.stdout == (
        "x,threshold,bound\n"
        "1.0,11.47213595499958,0.36787944117144233\n"
        "2.0,15.32455532033676,0.1353352832366127\n"
    )


def test_bound_lower_direction(chi5):
    res = run("bound", "--input", chi5, "--x", "1", "--direction", "lower", "--format", "csv")
    assert res.returncode == 0
    assert "0.5278640450004204" in res.stdout


def test_matrix_document_equivalent(tmp_path, chi5):
    mat = tmp_path / "chi5m.json"
    mat.write_text(CHI5_MATRIX_JSON)
    res_diag = run("bound", "--input", chi5, "--x", "0.5,1,2", "--format", "csv")
    res_mat = run("bound", "--input", mat, "--x", "0.5,1,2", "--format", "csv")
    assert res_diag.returncode == res_mat.returncode == 0
    assert res_diag.stdout == res_mat.stdout


def test_csv_input(tmp_path):
    doc = tmp_path / "form.csv"
    doc.write_text("a,b\n1.0,0.0\n1.0,0.0\n1.0,0.0\n1.0,0.0\n1.0,0.0\n")
    res = run("bound", "--input", doc, "--x", "1", "--format", "csv")
    assert res.returncode == 0, res.stderr
    assert "11.47213595499958" in res.stdout


def test_invert_round_numbers(chi5):
    res = run("invert", "--input", chi5, "--deviation", "6.47213595499958", "--format", "json")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["x"] == pytest.approx(1.0, rel=1e-12)
    assert doc["bound"] == pytest.approx(0.36787944117144233, rel=1e-12)
    assert doc["threshold"] == pytest.approx(11.47213595499958, rel=1e-12)


def test_invert_rejects_nonpositive_deviation(chi5):
    res = run("invert", "--input", chi5, "--deviation", "0")
    assert res.returncode == 2
    assert res.stderr != ""


def test_invert_degenerate_form(tmp_path):
    doc = tmp_path / "zero.json"
    doc.write_text('{"a": [0], "b": [0]}\n')
    res = run("invert", "--input", doc, "--deviation", "1.0")
    assert res.returncode == 2


def test_verify_round_trip(tmp_path, chi5):
    out = tmp_path / "report"
    args = (
        "verify", "--input", chi5, "--samples", 10000, "--seed", 42,
        "--x-grid", "0.5:2:0.5", "--out", out,
    )
    res = run(*args)
    assert res.returncode == 0, res.stderr + res.stdout
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    assert csv_path.exists() and json_path.exists()
    first = csv_path.read_bytes()
    assert first.startswith(b"x,threshold,bound,p_hat,ci_low,ci_high,pass")
    doc = json.loads(json_path.read_text())
    assert doc["metadata"]["n"] == 10000
    assert doc["metadata"]["seed"] == 42
    assert len(doc["rows"]) == 4  # 0.5, 1.0, 1.5, 2.0 inclusive
    assert [row["x"] for row in doc["rows"]] == [0.5, 1.0, 1.5, 2.0]
    # byte-identical on rerun
    res2 = run(*args)
    assert res2.returncode == 0
    assert csv_path.read_bytes() == first
    assert res2.stdout == res.stdout


def test_verify_out_suffix_stripped(tmp_path, chi5):
    out = tmp_path / "rep.csv"
    res = run(
        "verify", "--input", chi5, "--samples", 10000, "--seed", 1,
        "--x-grid", "1:1:1", "--out", out,
    )
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "rep.csv").exists()
    assert (tmp_path / "rep.json").exists()


def _verify_peak(doc, out, n):
    """The tracemalloc peak of one in-process verify of n draws."""
    tracemalloc.start()
    try:
        res = run("verify", "--input", doc, "--samples", n, "--seed", 5,
                  "--x-grid", "0.5:3:0.5", "--out", out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.returncode == 0, res.stderr
    return peak


def test_verify_memory_does_not_grow_with_n(tmp_path):
    # verify counts each chunk of draws before the next is drawn; holding
    # the n-vector would add 8 bytes a draw, about 48 MB between these n
    doc = tmp_path / "p1.json"
    doc.write_text('{"a": [1], "b": [0.5]}\n')
    _verify_peak(doc, tmp_path / "warm", 10**4)  # imports scipy.special outside the trace
    small = _verify_peak(doc, tmp_path / "small", 2**21 + 1)
    large = _verify_peak(doc, tmp_path / "large", 2**23 + 1)
    assert abs(large - small) < 8 * oracle.DEFAULT_CHUNK, (small, large)


@pytest.mark.parametrize("n", [10**4, oracle.DEFAULT_CHUNK, 2 * oracle.DEFAULT_CHUNK + 1],
                         ids=["below-chunk", "one-chunk", "k-chunks-plus-1"])
def test_verify_reports_match_the_sampled_vector(tmp_path, monkeypatch, n):
    # the referee counts the n-vector of sample; the streamed counts must
    # give the same report bytes
    doc = tmp_path / "mixed.json"
    doc.write_text('{"a": [1, -0.5, 2], "b": [0.3, 0, -1], "label": "mixed"}\n')
    argv = ("verify", "--input", doc, "--samples", n, "--seed", 9, "--x-grid", "0.25:4:0.25")
    outputs = {}
    for side in ("streamed", "referee"):
        if side == "referee":
            form = quadconc.cli.load_document(doc)[1]
            monkeypatch.setattr(quadconc.cli, "empirical_tail", lambda chunks, t, direction:
                                oracle.empirical_tail(quadconc.sample(form, n, 9), t, direction))
        for direction in ("upper", "lower"):
            out = tmp_path / side / direction
            out.parent.mkdir(exist_ok=True)
            res = run(*argv, "--direction", direction, "--out", out)
            assert res.returncode == 0, res.stderr
            reports = [out.with_suffix(s).read_bytes() for s in (".csv", ".json")]
            outputs[side, direction] = (res.stdout.replace(str(out.parent), ""), reports)
    for direction in ("upper", "lower"):
        assert outputs["streamed", direction] == outputs["referee", direction]


def test_verify_rejects_small_n(chi5, tmp_path):
    res = run(
        "verify", "--input", chi5, "--samples", 5000, "--seed", 1,
        "--x-grid", "1:2:1", "--out", tmp_path / "r",
    )
    assert res.returncode == 2


def test_verify_rejects_degenerate(tmp_path):
    doc = tmp_path / "zero.json"
    doc.write_text('{"a": [0, 0], "b": [0, 0]}\n')
    res = run(
        "verify", "--input", doc, "--samples", 10000, "--seed", 1,
        "--x-grid", "1:2:1", "--out", tmp_path / "r",
    )
    assert res.returncode == 2


@pytest.mark.parametrize(
    "a, b", [(0.0, 1e-170), (0.0, 1e-160), (0.0, 1e160), (1e160, 1e160), (0.0, 1e-320)]
)
def test_extreme_scales_end_in_a_valid_threshold_or_exit_2(tmp_path, a, b):
    # u_sq = b^2/2 once underflowed to 0 (threshold 0.0, "deterministic"), lost
    # digits as a subnormal, or overflowed; pytest turns a RuntimeWarning into
    # an error, so none is emitted either
    doc = tmp_path / "form.json"
    doc.write_text('{"a": [%r], "b": [%r]}\n' % (a, b))
    u, v = math.hypot(a, b / math.sqrt(2.0)), 2.0 * a
    res = run("bound", "--input", doc, "--x", "2", "--format", "json")
    if res.returncode == 2:  # only where u itself is below the normal range
        assert u < sys.float_info.min, res.stderr
        return
    assert res.returncode == 0, res.stderr
    want = a + 2.0 * u * math.sqrt(2.0) + 2.0 * v
    assert json.loads(res.stdout)["rows"][0]["threshold"] == pytest.approx(want, rel=1e-15)
    res = run("invert", "--input", doc, "--deviation", repr(b), "--format", "json")
    assert res.returncode == 0, res.stderr
    x = json.loads(res.stdout)["x"]
    assert 2.0 * u * math.sqrt(x) + v * x == pytest.approx(b, rel=1e-15)
    if a == 0.0:  # x = (b / (2u))^2 = 1/2
        assert abs(x - 0.5) <= math.ulp(0.5)
    res = run(
        "verify", "--input", doc, "--samples", 10000, "--seed", 1,
        "--x-grid", "1:3:1", "--out", tmp_path / "r",
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.endswith("all rows ok (3 rows, wrote %s and %s)\n" % (
        tmp_path / "r.csv", tmp_path / "r.json"))


@pytest.mark.parametrize("a, field", [
    ([1.7e308, 1.7e308], "mean must be a finite real, got inf"),
    ([1.7e308, -1.7e308], "u must be a nonnegative finite real, got inf"),
])
def test_stats_past_the_float_range_exit_2(tmp_path, a, field):
    # finite coefficients whose mean or u overflows are an invalid request, not a crash
    doc = tmp_path / "form.json"
    doc.write_text(json.dumps({"a": a, "b": [0, 0]}))
    for argv in (("bound", "--x", "1"), ("invert", "--deviation", "1")):
        res = run(argv[0], "--input", doc, *argv[1:])
        assert res.returncode == 2
        assert res.stderr == "invalid request: %s\n" % field


def test_verify_bad_grid(chi5, tmp_path):
    for grid in ("2:1:1", "0:1:0.5", "1:2:0", "1:2", "a:b:c", "1:inf:1", "1:200001:1"):
        res = run(
            "verify", "--input", chi5, "--samples", 10000, "--seed", 1,
            "--x-grid", grid, "--out", tmp_path / "r",
        )
        assert res.returncode == 2 and "x-grid" in res.stderr, (grid, res.stderr)


def test_entry_point_matches_in_process_call(chi5):
    res = run_process("bound", "--input", chi5, "--x", "1,2", "--format", "csv")
    assert res.returncode == 0, res.stderr
    assert res.stdout == run("bound", "--input", chi5, "--x", "1,2", "--format", "csv").stdout


def test_cli_resolves_only_its_deferred_names():
    # commands look the numpy-backed routines up on quadconc.cli when they run
    assert quadconc.cli.spectral_reduce is quadconc.reduce
    with pytest.raises(AttributeError, match="no_such_name"):
        quadconc.cli.no_such_name


def test_version_flag():
    res = run_process("--version")
    assert res.returncode == 0
    assert res.stdout == "quadconc %s\n" % __version__


def test_process_exit_codes(tmp_path, chi5):
    # main's return value becomes the status of the process
    res = run_process("bound", "--input", tmp_path / "nope.json", "--x", "1")
    assert res.returncode == 1
    assert res.stderr.startswith("error: ")
    res = run_process("invert", "--input", chi5, "--deviation", "0")
    assert res.returncode == 2
    assert res.stderr.startswith("invalid request: ")
    res = run_process("bound", "--input", chi5)  # argparse's refusal
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "invalid request: the following arguments are required: --x\n"


@pytest.mark.parametrize("argv", [
    ("bound", "--input", "DOC"),  # the required --x is missing
    ("bound", "--input", "DOC", "--x", "-1.5e-05"),  # read as an option, not a value
    ("invert", "--input", "DOC", "--deviation", "zz"),
    ("verify", "--input", "DOC", "--samples", "1e4", "--seed", "1", "--x-grid", "1:2:1",
     "--out", "R"),
    ("mgf-check", "--input", "DOC", "--grid", "x"),
    ("bound", "--input", "DOC", "--x", "1", "--format", "xml"),
    ("bound", "--input", "DOC", "--x", "1", "--extra"),
    ("zz", "--input", "DOC"),
    (),
], ids=["missing-x", "dash-x", "deviation-zz", "samples-1e4", "grid-x", "format-xml",
        "extra-option", "unknown-command", "empty"])
def test_argparse_refusals_are_one_invalid_request_line(tmp_path, chi5, argv):
    # what argparse refuses takes the one-line contract, not a usage block and SystemExit(2)
    argv = [{"DOC": chi5, "R": tmp_path / "r"}.get(arg, arg) for arg in argv]
    res = run(*argv)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.startswith("invalid request: ") and res.stderr.count("\n") == 1, res.stderr
    assert not list(tmp_path.glob("r.*"))


@pytest.mark.parametrize("option, argv", [
    ("--input", ("bound", "--input", "\ud800", "--x", "1")),
    ("--out", ("verify", "--input", "DOC", "--samples", 10000, "--seed", 1, "--x-grid", "1:2:1",
               "--out", "\ud800")),
], ids=["input", "out"])
def test_unencodable_path_is_one_io_error_line(chi5, option, argv):
    # a lone surrogate has no bytes in the file system's encoding; the line
    # names the option and shows the path as its repr, escape and all
    res = run(*[chi5 if arg == "DOC" else arg for arg in argv])
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr.startswith("io error: %s '\\ud800': " % option), res.stderr
    assert res.stderr.count("\n") == 1, res.stderr


def test_verify_out_in_a_missing_directory_is_refused_before_drawing(chi5, tmp_path, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("verify drew samples for a report it cannot write")

    monkeypatch.setattr(oracle, "_chunks", no_draws)
    out = tmp_path / "missing" / "r"
    res = run("verify", "--input", chi5, "--samples", 10000, "--seed", 1, "--x-grid", "1:2:1",
              "--out", out)
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr.startswith("io error: --out %r: " % str(out)), res.stderr
    assert res.stderr.count("\n") == 1, res.stderr
    assert not list(tmp_path.rglob("r.*"))


BOUND_HELP = """\
usage: quadconc bound [-h] --input INPUT --x X [--direction {upper,lower}]
                      [--format {text,csv,json}]

options:
  -h, --help            show this help message and exit
  --input INPUT
  --x X                 comma-separated positive exponents
  --direction {upper,lower}
  --format {text,csv,json}
"""


def test_help_and_version_return_0(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    # argparse prints them and raises SystemExit(0), which main turns into its return value
    assert run("--version") == Result(0, "quadconc %s\n" % __version__, "")
    assert run("bound", "--help") == Result(0, BOUND_HELP, "")
    res = run("--help")
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.startswith("usage: quadconc [-h] [--version] {bound,invert,verify,mgf-check}")


def test_missing_input_file(tmp_path):
    res = run("bound", "--input", tmp_path / "nope.json", "--x", "1")
    assert res.returncode == 1
    assert res.stderr != ""


def test_malformed_json(tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text('{"a": [1], "b": [0]\n')
    res = run("bound", "--input", doc, "--x", "1")
    assert res.returncode == 1
    assert "bad.json:" in res.stderr  # line-anchored message


def test_schema_violations(tmp_path):
    cases = [
        '{"a": [1], "matrix": [[1]], "b": [0]}',  # both representations
        '{"a": [1]}',  # missing b
        '{"a": [1], "b": [0], "extra": 1}',  # unknown key
        '{"matrix": [[1, 0]], "b": [0]}',  # non-square
        '{"a": [1], "b": [0], "label": 3}',  # label type
        '{"a": [1], "b": [0, 0]}',  # length mismatch
        '[1, 2]',  # not an object
    ]
    for idx, text in enumerate(cases):
        doc = tmp_path / ("case%d.json" % idx)
        doc.write_text(text + "\n")
        res = run("bound", "--input", doc, "--x", "1")
        assert res.returncode == 1, (text, res.returncode, res.stderr)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "bad.csv:1: header row must be exactly 'a,b'"),
        ("a,b\n", "bad.csv: no coefficient rows"),
        ("a,b\n1.0,0.0\n1.0,0.0,2.0\n", "bad.csv:3: expected two fields, got 3"),
        ("alpha,beta\n1.0,0.0\n", "bad.csv:1: header row must be exactly 'a,b'"),
        ("a,b\n1.0,zzz\n", "bad.csv:2: non-numeric value ['1.0', 'zzz']"),
        # a quoted field holds a line break: the line is where the record starts
        ('a,b\n"1\n",3\nx,4\n', "bad.csv:4: non-numeric value ['x', '4']"),
        ('a,b\n"1\n",3\n1,2,3\n', "bad.csv:4: expected two fields, got 3"),
    ],
)
def test_csv_structure_errors_name_the_line(tmp_path, text, message):
    doc = tmp_path / "bad.csv"
    doc.write_text(text)
    res = run("bound", "--input", doc, "--x", "1")
    assert res.returncode == 1
    assert message in res.stderr, res.stderr


def test_csv_field_past_the_csv_module_limit_names_the_line(tmp_path):
    # the csv module refuses fields over 131,072 characters with csv.Error,
    # which once escaped as a traceback instead of the CLI's error line
    doc = tmp_path / "bad.csv"
    doc.write_text("a,b\n1.0,0.0\n" + "1" * 200000 + ",0.0\n")
    res = run("bound", "--input", doc, "--x", "1")
    assert res.returncode == 1
    assert res.stderr.startswith("error: "), res.stderr
    assert "bad.csv:3: field larger than field limit" in res.stderr, res.stderr


def test_mgf_check(chi5):
    res = run("mgf-check", "--input", chi5, "--grid", 64)
    assert res.returncode == 0, res.stderr
    assert "max_slack" in res.stdout
    assert "holds" in res.stdout


@pytest.mark.parametrize("a, b, code", [(1e-170, 1e-170, 0), (0.0, 1e160, 2)])
def test_mgf_check_at_extreme_scales(tmp_path, a, b, code):
    doc = tmp_path / "form.json"
    doc.write_text('{"a": [%r], "b": [%r]}\n' % (a, b))
    res = run("mgf-check", "--input", doc, "--grid", 16)
    assert res.returncode == code, res.stderr
    if code == 0:
        assert res.stdout.startswith("grid_size=16 y_max=4.995e+169\n")
        assert res.stdout.endswith("envelope holds (0 violations)\n")


def test_mgf_check_zero_grid(chi5):
    # a bad grid size is an invalid request, exit 2, like every other bad option value
    for grid in (0, -3):
        res = run("mgf-check", "--input", chi5, "--grid", grid)
        assert res.returncode == 2
        assert res.stderr == (
            "invalid request: grid size must be a positive integer, got %d\n" % grid
        )


def test_bad_x_values(chi5):
    res = run("bound", "--input", chi5, "--x", "1,zz")
    assert res.returncode == 2
    res = run("bound", "--input", chi5, "--x", "-1")
    assert res.returncode == 2


@pytest.mark.parametrize(
    "fields, shown",
    [
        ({"residual": 3.5e-09}, " (residual=3.5e-09)"),
        ({"accuracy": 1.2e-06}, " (accuracy=1.2e-06)"),
        ({"residual": 0.25, "accuracy": 1e-5}, " (residual=0.25, accuracy=1e-05)"),
        ({}, ""),
    ],
)
def test_numerical_failure_reports_diagnostics(tmp_path, monkeypatch, capsys, fields, shown):
    doc = tmp_path / "m.json"
    doc.write_text(CHI5_MATRIX_JSON)

    def failing_reduce(form):
        raise NumericalError("Jacobi sweeps did not converge", **fields)

    monkeypatch.setattr(quadconc.cli, "spectral_reduce", failing_reduce)
    assert quadconc.cli.main(["bound", "--input", str(doc), "--x", "1"]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: Jacobi sweeps did not converge%s\n" % shown


@pytest.mark.parametrize(
    "label",
    ["x\nx=1.0 threshold=-5.0 bound=0.9", "a\rb", "tab\there", "nul\x00", "del\x7f",
     "next\x85line", "line\u2028sep", "para\u2029sep", "x\ud800y"],
)
def test_label_with_control_characters_rejected(tmp_path, label):
    # json.dumps writes a lone surrogate as the escape \ud800, so the file is UTF-8
    doc = tmp_path / "forged.json"
    doc.write_text(json.dumps({"a": [1, 1], "b": [0, 0], "label": label}))
    for argv in (
        ["bound", "--input", doc, "--x", "1"],
        ["bound", "--input", doc, "--x", "1", "--format", "json"],
        ["invert", "--input", doc, "--deviation", "1"],
        ["verify", "--input", doc, "--samples", 10000, "--seed", 1, "--x-grid", "1:2:1",
         "--out", tmp_path / "r"],
        ["mgf-check", "--input", doc, "--grid", 16],
    ):
        res = run(*argv)
        assert res.returncode == 1 and res.stdout == "", argv
        assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: "), argv
        assert "label must not contain control, line-break or surrogate characters" in res.stderr
    assert not list(tmp_path.glob("r.*"))


def test_printable_unicode_label_accepted(tmp_path, capsys):
    doc = tmp_path / "unicode.json"
    doc.write_text(json.dumps({"a": [1, 1], "b": [0, 0], "label": "σ² — naïve fit"}))
    assert quadconc.cli.main(["bound", "--input", str(doc), "--x", "1"]) == 0
    assert capsys.readouterr().out.startswith("# label: σ² — naïve fit\n# direction: upper\n")


@pytest.mark.parametrize(
    "name, text",
    [("form.csv", "a,b\n1.0,0.5\n2.0,0.0\n"), ("form.json", CHI5_JSON)],
    ids=["csv", "json"],
)
def test_document_with_a_utf8_bom_reads_as_without(tmp_path, name, text):
    # a byte order mark, as some editors write it, is not part of the document
    plain, marked = tmp_path / name, tmp_path / ("bom-" + name)
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    want = run("bound", "--input", plain, "--x", "0.5,2")
    got = run("bound", "--input", marked, "--x", "0.5,2")
    assert want.returncode == got.returncode == 0, got.stderr
    assert got.stdout == want.stdout


def test_document_that_is_not_utf8_exits_1(tmp_path):
    doc = tmp_path / "latin.json"
    doc.write_bytes(b'{"a": [1], "b": [0], "label": "caf\xff"}\n')
    res = run("bound", "--input", doc, "--x", "1")
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1, res.stderr
    assert "latin.json" in res.stderr


def test_document_is_read_as_utf8_under_an_ascii_locale(tmp_path, monkeypatch):
    # the process's locale encoding is ASCII; a document is UTF-8 whatever it is
    for name, value in (("LC_ALL", "C"), ("PYTHONUTF8", "0"), ("PYTHONCOERCECLOCALE", "0")):
        monkeypatch.setenv(name, value)
    doc = tmp_path / "unicode.json"
    doc.write_bytes(json.dumps({"a": [1, 1], "b": [0, 0], "label": "σ² fit"},
                               ensure_ascii=False).encode("utf-8"))
    res = run_process("bound", "--input", doc, "--x", "1", "--format", "json")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["label"] == "σ² fit"
    # text output prints the label, which the ASCII stdout cannot encode
    res = run_process("bound", "--input", doc, "--x", "1", "--format", "text")
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1, res.stderr


@pytest.mark.parametrize(
    "text",
    [
        '{"a": [true, false], "b": [0, 1]}',
        '{"a": ["1.5", "2"], "b": ["0", "1"]}',
        '{"a": [1.5, true], "b": [0, 1]}',
        '{"a": [1, 1], "b": [0, "1"]}',
        '{"a": [null], "b": [0]}',
        '{"matrix": [[true]], "b": [false]}',
        '{"matrix": [["1"]], "b": [0]}',
        '{"matrix": [[1, 2], [3]], "b": [0, 0]}',  # ragged
        '{"a": [1%s], "b": [0]}' % ("0" * 400),  # past the float range
        '{"matrix": [[1%s]], "b": [0]}' % ("0" * 400),
    ],
    ids=["bools", "strings", "bool-among-floats", "string-b", "null", "matrix-bool",
         "matrix-string", "ragged", "huge-int", "matrix-huge-int"],
)
def test_coefficients_must_be_json_numbers(tmp_path, text):
    # bools and numeric strings used to be converted and printed a threshold
    doc = tmp_path / "form.json"
    doc.write_text(text + "\n")
    res = run("bound", "--input", doc, "--x", "1")
    assert res.returncode == 1, (text, res.stdout, res.stderr)
    assert res.stdout == ""
    assert res.stderr.startswith("error: %s: " % doc) and res.stderr.count("\n") == 1


def test_big_finite_integer_coefficient_accepted(tmp_path):
    as_int, as_float = tmp_path / "int.json", tmp_path / "float.json"
    as_int.write_text('{"a": [%d], "b": [0]}\n' % 2**70)
    as_float.write_text('{"a": [1.1805916207174113e+21], "b": [0]}\n')
    res = run("bound", "--input", as_int, "--x", "1")
    assert res.returncode == 0, res.stderr
    assert res.stdout == run("bound", "--input", as_float, "--x", "1").stdout


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_verify_rejects_seed_out_of_range(chi5, tmp_path, seed):
    res = run(
        "verify", "--input", chi5, "--samples", 10000, "--seed", seed,
        "--x-grid", "1:2:1", "--out", tmp_path / "r",
    )
    assert res.returncode == 2
    assert res.stderr == (
        "invalid request: seed must be an unsigned 64-bit integer, got %d\n" % seed
    )
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 74.5 GiB for an array with shape (10000000000,)",
     "Unable to allocate 74.5 GiB for an array with shape (10000000000,)"),
    ("", "out of memory"),
], ids=["numpy-message", "bare"])
@pytest.mark.parametrize("command, target", [
    (("verify", "--samples", 10**10, "--seed", 1, "--x-grid", "1:2:1"), "empirical_tail"),
    (("mgf-check", "--grid", 10**9), "envelope_grid_check"),
], ids=["verify", "mgf-check"])
def test_out_of_memory_exits_2(chi5, tmp_path, monkeypatch, message, shown, command, target):
    # stands in for numpy's allocation failure; nothing is allocated for real
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(quadconc.cli, target, exhausted)
    argv = command[:1] + ("--input", chi5) + command[1:]
    if command[0] == "verify":
        argv += ("--out", tmp_path / "r")
    res = run(*argv)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "invalid request: %s\n" % shown


@pytest.mark.parametrize("factor", [0.0, 2.0])
def test_matrix_document_with_a_non_orthonormal_basis_exits_3(tmp_path, monkeypatch, factor):
    real_eigh = spectral.np.linalg.eigh

    def scaled_basis(a):
        w, v = real_eigh(a)
        return w, factor * v

    monkeypatch.setattr(spectral.np.linalg, "eigh", scaled_basis)
    doc = tmp_path / "m.json"
    doc.write_text(CHI5_MATRIX_JSON)
    res = run("bound", "--input", doc, "--x", "1")
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr.startswith("numerical failure: eigendecomposition ||V'V - I||_F is")


# the error contract: every call ends in output and exit 0 or 4, or in one
# stderr line and exit 1-3, whatever the document, the argv or stdout's encoding
ERROR_PREFIXES = ("error: ", "invalid request: ", "numerical failure: ", "io error: ")
# magnitudes at the ends of the float range, and an integer past it
EXTREME = st.builds("{}{}".format, st.sampled_from(("", "-")),
                    st.sampled_from(("0", "5e-324", "1e-300", "1.7e308", "1" + "0" * 400)))
SMALL = st.floats(-4.0, 4.0).map(repr)
# values float() reads but the commands refuse, then values it cannot read
REFUSED = st.sampled_from(("nan", "inf", "-1", "0", "1e400"))
JUNK = st.one_of(REFUSED, st.sampled_from(("", "zz")))


def _mostly(clean, rare):
    """clean three times in four, rare otherwise."""
    return st.one_of(clean, clean, clean, rare)


# printable labels, and labels with control, line-break and surrogate characters
LABEL = _mostly(st.text(st.sampled_from("ab é σ²—𐏿"), max_size=6), st.text(st.one_of(
    st.sampled_from("\n\r\t\x00\x7f\x85\u2028\ud800"), st.characters(max_codepoint=0x2FFF))))


@st.composite
def documents(draw):
    """(file name, bytes) of a JSON diagonal or matrix document, or of a CSV one."""
    kind = draw(st.sampled_from(("a", "matrix", "csv")))
    number = draw(st.sampled_from((SMALL, SMALL, st.one_of(SMALL, EXTREME))))
    p = draw(st.integers(1, 4))
    a, b = (draw(st.lists(number, min_size=p, max_size=p)) for _ in "ab")
    bom = draw(_mostly(st.just(""), st.just("\ufeff")))
    if kind == "csv":
        rows = ["%s,%s" % pair for pair in zip(a, b)]
        if draw(_mostly(st.just(False), st.just(True))):  # a ragged row
            rows.insert(draw(st.integers(0, p)), ",".join(draw(st.lists(number, max_size=3))))
        return "form.csv", (bom + "\n".join(["a,b"] + rows) + "\n").encode()
    if kind == "matrix":
        cells = [[a[max(i, j)] for j in range(p)] for i in range(p)]
        if draw(_mostly(st.just(False), st.just(True))):  # ragged
            cells[-1].pop()
        values = "[%s]" % ", ".join("[%s]" % ", ".join(row) for row in cells)
    else:
        values = "[%s]" % ", ".join(a)
    text = '{"%s": %s, "b": [%s]' % (kind, values, ", ".join(b))
    if draw(st.booleans()):
        text += ', "label": %s' % json.dumps(draw(LABEL), ensure_ascii=draw(st.booleans()))
    # a lone surrogate the label holds unescaped is not UTF-8, and exits 1
    return "form.json", (bom + text + "}\n").encode("utf-8", "surrogatepass")


@st.composite
def requests(draw):
    """The argv of one command, with DOC for the document and OUT for verify's report.

    Each option and its value are separate tokens.  One call in four has
    one fault: an unknown command, an option left out, or a value that
    argparse cannot read or refuses as a choice, or that the command refuses.
    """
    command = draw(st.sampled_from(("bound", "invert", "verify", "mgf-check")))
    positive = st.floats(1e-3, 50.0).map(repr)
    options = {"--input": st.just("DOC")}
    if command == "mgf-check":
        options["--grid"] = st.integers(1, 64).map(str)
    else:
        options["--direction"] = st.sampled_from(("upper", "lower"))
    if command == "verify":
        start, step = draw(st.sampled_from((0.25, 1.0, 2.5))), draw(st.sampled_from((0.5, 1.0)))
        grid = "%r:%r:%r" % (start, start + draw(st.integers(0, 6)) * step, step)
        options.update({
            "--samples": st.just("10000"),
            "--seed": st.integers(0, 2**32).map(str),
            "--x-grid": _mostly(st.just(grid), st.builds(":".join, st.lists(JUNK, max_size=4))),
            "--out": st.just("OUT"),
        })
    elif command != "mgf-check":
        options["--format"] = st.sampled_from(("text", "csv", "json"))
    if command == "invert":
        options["--deviation"] = _mostly(positive, st.one_of(EXTREME, JUNK))
    elif command == "bound":
        xs = st.lists(_mostly(positive, st.one_of(EXTREME, JUNK)), min_size=1, max_size=4)
        options["--x"] = xs.map(",".join)
    fault = draw(st.sampled_from((None,) * 9 + ("command", "drop", "junk")))
    # a path takes any string, and a junk --out would write to the working directory
    named = sorted(set(options) - {"--input", "--out"})
    target = draw(st.sampled_from(named if fault == "junk" else sorted(options)))
    if fault == "junk":
        options[target] = JUNK
    argv = ["zz" if fault == "command" else command]
    for option in sorted(options):
        if not (fault == "drop" and option == target):
            argv += [option, draw(options[option])]
    return argv


@settings(max_examples=200)
@given(documents(), requests(), st.sampled_from(("utf-8", "ascii")))
# verify's closing line names reports under the non-ASCII directory; it once
# printed its rows and then raised UnicodeEncodeError
@example(("form.json", CHI5_JSON.encode()), ["verify", "--input", "DOC", "--samples", "10000",
                                           "--seed", "1", "--x-grid", "1:2:1", "--out", "OUT"],
         "ascii")
def test_every_call_ends_in_output_or_one_error_line(document, request, encoding):
    name, content = document
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "rép"
        root.mkdir()
        (root / name).write_bytes(content)
        paths = {"DOC": str(root / name), "OUT": str(root / "report")}
        argv = [paths.get(arg, arg) for arg in request]
        out, err = io.TextIOWrapper(io.BytesIO(), encoding=encoding), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = quadconc.cli.main(argv)
        out.flush()
    printed, message = out.buffer.getvalue(), err.getvalue()
    if code in (0, 4):
        assert printed and message == "", (argv, code, message)
    else:
        assert code in (1, 2, 3) and printed == b"", (argv, code, printed)
        assert message.count("\n") == 1 and message.endswith("\n"), (argv, message)
        assert message.startswith(ERROR_PREFIXES), (argv, message)
