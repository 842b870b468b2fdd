import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_no_computer_algebra():
    # wproj runs on the standard library; sympy is a test-only oracle
    probe = (
        "import sys, wproj.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'sympy', 'mpmath'}))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
