"""The README's library example runs as written, against the package root."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def library_example() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(),
                            re.MULTILINE | re.DOTALL)
    found = [b for b in blocks if b.startswith("from noclock import Scenario, run")]
    assert len(found) == 1
    return found[0]


def test_the_library_example_runs():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", library_example()], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "('oracle-equivalence', True)" in done.stdout
