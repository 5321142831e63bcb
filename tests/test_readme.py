"""The README quickstart still runs against the public API.

It runs in a fresh interpreter, so a renamed or removed function it calls
fails here rather than at a user's prompt.
"""

import re
from pathlib import Path

from _interpreter import run_python

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quickstart_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    res = run_python("-c", blocks[0])
    assert res.returncode == 0, res.stderr
