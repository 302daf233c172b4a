"""The layer tracer of perfbench/traced_cli.py must find every name it wraps.

``traced_cli.install`` raises when a wrapped function, method or caller
binding is missing from the package, so renaming or deleting one of them
breaks the traced benchmark run; this test turns that into a test failure.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_cli_installs_on_the_package():
    code = ("import sys; sys.path.insert(0, 'perfbench'); import traced_cli; "
            "traced_cli.install(traced_cli.Tracer())")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
