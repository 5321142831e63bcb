"""numpy and scipy stay unloaded until a routine that needs them runs, the public
API is pinned, and the oracles take nothing from the bounds they check but
input contracts.

`bound` and `invert` on a diagonal form need only sums, a max and a square
root, so a cold call of either must not pay for importing numpy, nor for
`dataclasses` and the `inspect` that it loads.  Matrix documents and
`mgf-check` need numpy arithmetic but no scipy, no `dataclasses` and no
`concurrent.futures`, which only verify's sampler threads need.
Each check runs in a fresh interpreter, since this test process has all
of these loaded already.
"""

import ast

from _interpreter import SRC, run_python

PROBE = r"""
import contextlib
import io
import runpy
import sys
import tempfile
from pathlib import Path


def scipy_modules():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))


def run_cli(argv):
    sys.argv = ["quadconc"] + argv
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("quadconc", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            assert exc.code == 0, (argv, exc.code)


def heavy_modules():
    return sorted(name for name in ("concurrent.futures", "dataclasses", "inspect")
                  if name in sys.modules)


import quadconc

assert "numpy" not in sys.modules and scipy_modules() == [], "import quadconc"
assert heavy_modules() == [], ("import quadconc", heavy_modules())

tmp = Path(tempfile.mkdtemp())
form = tmp / "form.json"
form.write_text('{"a": [1.0, -0.5, 2.0], "b": [0.0, 1.0, 0.5], "label": "probe"}\n')
table = tmp / "form.csv"
table.write_text("a,b\n1.0,0.0\n-0.5,1.0\n2.0,0.5\n")
matrix = tmp / "matrix.json"
matrix.write_text('{"matrix": [[1.0, 0.5], [0.0, -2.0]], "b": [0.0, 1.0]}\n')
for doc in (form, table):
    for argv in (
        ["bound", "--input", str(doc), "--x", "0.5,1,2", "--format", "csv"],
        ["invert", "--input", str(doc), "--deviation", "3.0", "--direction", "lower"],
    ):
        run_cli(argv)
        assert "numpy" not in sys.modules, (argv[0], doc.name)
        assert heavy_modules() == [], (argv[0], doc.name, heavy_modules())
# numpy loads inspect, but not dataclasses or concurrent.futures
for argv in (
    ["bound", "--input", str(matrix), "--x", "1"],
    ["mgf-check", "--input", str(form), "--grid", "64"],
):
    run_cli(argv)
    assert "numpy" in sys.modules and scipy_modules() == [], (argv[0], scipy_modules())
    assert heavy_modules() == ["inspect"], (argv[0], heavy_modules())

# the oracles that do need scipy still work in the same process
from quadconc import cli

with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(
        ["verify", "--input", str(form), "--samples", "10000", "--seed", "3",
         "--x-grid", "1:2:1", "--out", str(tmp / "report")]
    )
assert rc == 0, rc
assert (tmp / "report.csv").read_text().startswith("x,threshold,bound,p_hat,ci_low,ci_high,pass")
# both paths of cdf_cf need numpy only: chi-square(24) takes the trapezoid
# path and chi-square(1) the slow-decay path
chi24 = quadconc.DiagonalForm([1.0] * 24, [0.5] * 24)
assert 0.4 < quadconc.cdf_cf(chi24, 24.0) < 0.6
assert "scipy.integrate" not in sys.modules
chi1 = quadconc.DiagonalForm([1.0], [0.0])
assert abs(quadconc.cdf_cf(chi1, 1.0) - quadconc.cdf_p1(1.0, 0.0, 1.0)) < 1e-6
assert "scipy.special" in sys.modules and "scipy.integrate" not in sys.modules
assert "scipy.stats" not in sys.modules
print("ok")
"""


def test_cold_paths_do_not_import_scipy():
    res = run_python("-c", PROBE)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "ok"


def test_public_api_is_pinned():
    # an addition to or removal from the public API shows up here as a one-line diff
    import quadconc

    assert quadconc.__all__ == [
        "DIRECTIONS",
        "DiagonalForm",
        "FormStats",
        "TailBound",
        "form_stats",
        "upper_threshold",
        "lower_threshold",
        "tail_exponent",
        "envelope_threshold",
        "union_threshold",
        "QuadraticForm",
        "SpectralReduction",
        "symmetrize",
        "eigen_sym",
        "reduce",
        "MgfEnvelope",
        "EnvelopeCheck",
        "log_mgf_term",
        "log_mgf_centered",
        "envelope_y_grid",
        "envelope_grid_check",
        "TailEstimate",
        "sample",
        "empirical_tail",
        "cdf_p1",
        "cdf_cf",
        "ValidationError",
        "DomainError",
        "DegenerateFormError",
        "InputError",
        "NumericalError",
        "__version__",
    ]
    assert all(hasattr(quadconc, name) for name in quadconc.__all__)


# what oracle.py may import from .bounds: the form type, the value-object
# base and the private helpers that check inputs and pick or apply a
# power-of-two scale, never a piece of the bound (form_stats, FormStats, a
# threshold function, _deviation)
ORACLE_FROM_BOUNDS = {
    "DiagonalForm", "_Record", "_binade", "_check_real", "_check_count", "_check_direction",
    "_check_instance", "_is_integer", "_is_real_type", "_ldexp_or_inf", "_real_values",
}


def test_oracle_shares_no_bound_code():
    tree = ast.parse((SRC / "quadconc" / "oracle.py").read_text())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.startswith("quadconc") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if not (node.level or node.module.startswith("quadconc")):
                continue
            module = node.module and node.module.removeprefix("quadconc.")
            assert module in ("bounds", "errors"), ast.dump(node)
            if module == "bounds":
                taken.update(alias.name for alias in node.names)
    assert taken <= ORACLE_FROM_BOUNDS, taken - ORACLE_FROM_BOUNDS
    assert "DiagonalForm" in taken  # the walk found the import at all
