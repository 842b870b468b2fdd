import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _loaded_by_cli_import(names) -> str:
    """Which of these top-level modules a fresh ``import wproj.cli`` loads."""
    probe = (
        "import sys, wproj.cli; "
        f"print(sorted({{m.split('.')[0] for m in sys.modules}} & {set(names)!r}))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_cli_import_loads_no_computer_algebra():
    # wproj runs on the standard library; sympy is a test-only oracle
    assert _loaded_by_cli_import({"sympy", "mpmath"}) == "[]"


def test_cli_import_loads_no_process_pool():
    # every CLI process pays for what it imports (the benchmark's setup_s);
    # the scan forks its workers itself and imports pickle only then
    assert _loaded_by_cli_import({"concurrent", "multiprocessing", "socket", "pickle"}) == "[]"
