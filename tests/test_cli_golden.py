"""Golden corpus: the exact bytes every CLI output format writes.

Each case runs ``quadconc.cli.main`` in-process on a document under
``tests/golden/inputs`` and compares its exit code, its stdout and, for
``verify``, the ``report.csv`` and ``report.json`` it writes against the
files under ``tests/golden/expected``.  Any change to an output byte fails
here.  After a deliberate format change, regenerate the expected files with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff before committing it.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

import quadconc.cli
from quadconc.oracle import TailEstimate

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"
DOCUMENTS = ("chi5.json", "mixed.json", "empty_label.json", "matrix.json", "form.csv")
FORMATS = ("text", "csv", "json")
DIRECTIONS = ("upper", "lower")


def _stem(document):
    return document.replace(".", "_")


def _fixed_interval(samples, t, direction, seed=0):
    # one interval per threshold, above every bound past x = 0.5, so those rows must FAIL
    return [TailEstimate(p_hat=0.5, ci_low=0.4, ci_high=0.6, n=len(samples), seed=seed)
            for _ in t]


def _cases():
    """(case name, argv naming a document of INPUTS, attributes of quadconc.cli to patch)."""
    cases = []
    requests = (("bound", ("--x", "0.25,1,2.5,10")), ("invert", ("--deviation", "3.5")))
    for doc in DOCUMENTS:
        for fmt in FORMATS:
            for direction in DIRECTIONS:
                for cmd, value in requests:
                    argv = [cmd, "--input", doc, *value, "--direction", direction, "--format", fmt]
                    cases.append(("%s-%s-%s-%s" % (cmd, _stem(doc), fmt, direction), argv, {}))
    for doc, direction, grid in (
        ("chi5.json", "upper", "0.5:3:0.5"),
        ("mixed.json", "lower", "0.25:2:0.25"),
        ("empty_label.json", "upper", "1:4:1"),
        ("matrix.json", "lower", "0.5:2.5:1"),
        ("form.csv", "upper", "0.5:1.5:0.5"),
    ):
        argv = ["verify", "--input", doc, "--samples", "20000", "--seed", "7",
                "--x-grid", grid, "--direction", direction, "--out", "report"]
        cases.append(("verify-%s-%s" % (_stem(doc), direction), argv, {}))
    argv = ["verify", "--input", "chi5.json", "--samples", "10000", "--seed", "3",
            "--x-grid", "0.5:2:0.5", "--out", "report.csv"]
    cases.append(("verify-chi5_json-contradicted", argv, {"empirical_tail": _fixed_interval}))
    for doc, grid in (("chi5.json", "64"), ("mixed.json", "128"), ("matrix.json", "32")):
        argv = ["mgf-check", "--input", doc, "--grid", grid]
        cases.append(("mgf-check-%s" % _stem(doc), argv, {}))
    return cases


CASES = _cases()


def _run(argv, patches, workdir, monkeypatch):
    """Exit code, stdout and any verify reports of one in-process CLI call."""
    monkeypatch.chdir(workdir)
    for name, value in patches.items():
        monkeypatch.setattr(quadconc.cli, name, value)
    argv = [str(INPUTS / arg) if k > 0 and argv[k - 1] == "--input" else arg
            for k, arg in enumerate(argv)]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = quadconc.cli.main(argv)
    outputs = {"stdout": "exit code %d\n%s" % (rc, out.getvalue())}
    for report in ("report.csv", "report.json"):
        if (workdir / report).exists():
            outputs[report] = (workdir / report).read_text()
    return outputs


@pytest.mark.parametrize("name, argv, patches", CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv, patches, tmp_path, monkeypatch):
    outputs = _run(argv, patches, tmp_path, monkeypatch)
    expected = sorted(p.name for p in EXPECTED.glob(name + ".*"))
    assert expected == sorted("%s.%s" % (name, part) for part in outputs)
    for part, text in outputs.items():
        assert (EXPECTED / ("%s.%s" % (name, part))).read_bytes() == text.encode(), part


def _regenerate():
    for old in EXPECTED.glob("*"):
        old.unlink()
    for name, argv, patches in CASES:
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            outputs = _run(argv, patches, Path(tmp), mp)
        for part, text in outputs.items():
            (EXPECTED / ("%s.%s" % (name, part))).write_bytes(text.encode())
    print("wrote %d cases to %s" % (len(CASES), EXPECTED))


if __name__ == "__main__":
    _regenerate()
