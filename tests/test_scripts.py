"""The example scripts and the README quickstart still run against the public API.

Each runs in a fresh interpreter, the scripts with small arguments; a
renamed or removed function they call fails here rather than at a user's
prompt.
"""

import re
from pathlib import Path

from _interpreter import run_python

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def test_envelope_slack_runs():
    res = run_script("envelope_slack.py", "--forms", "5", "--grid", "32")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "forms=5 grid=32 seed=0"
    assert lines[1] == "violations: 0"
    assert lines[2].startswith("max slack (closest approach to equality): ")


def test_threshold_table_runs():
    res = run_script("threshold_table.py", "--n", "20000")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    header = [line for line in lines if line.startswith("tail ")]
    assert len(header) == 2 and header[0].split() == [
        "tail", "x", "threshold", "bound", "p_hat", "99%", "CI",
    ]
    assert lines[0].startswith("chi-square p=5: p=5 mean=5.0000 u_sq=5.0000")
    assert any(line.startswith("mixed random p=8: p=8 ") for line in lines)
    assert "CONTRADICTED" not in res.stdout


def test_readme_quickstart_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    res = run_python("-c", blocks[0])
    assert res.returncode == 0, res.stderr
