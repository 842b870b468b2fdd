from helpers import run_python


def _loaded_by_cli_import(names) -> str:
    """Which of these top-level modules a fresh ``import wproj.cli`` loads."""
    probe = (
        "import sys, wproj.cli; "
        f"print(sorted({{m.split('.')[0] for m in sys.modules}} & {set(names)!r}))"
    )
    code, out, err = run_python("-c", probe, timeout=60)
    assert code == 0, err
    return out.strip()


def test_cli_import_loads_no_computer_algebra():
    # wproj runs on the standard library; sympy is a test-only oracle
    assert _loaded_by_cli_import({"sympy", "mpmath"}) == "[]"


def test_cli_import_loads_no_dataclasses():
    # decorating wproj's 15 value classes cost 13-15 ms in every process, and
    # importing dataclasses pulls in inspect, ast, dis and tokenize
    assert _loaded_by_cli_import({"dataclasses", "inspect", "ast", "dis", "tokenize"}) == "[]"


def test_cli_import_loads_no_process_pool():
    # every CLI process pays for what it imports (the benchmark's setup_s);
    # the scan forks its workers itself and imports pickle only then
    assert _loaded_by_cli_import({"concurrent", "multiprocessing", "socket", "pickle"}) == "[]"
