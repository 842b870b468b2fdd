"""The benchmark's tracer must still find every name it rebinds, and
the CLI must still accept every command line the benchmark issues.

``perfbench/tracing.py`` wraps wproj functions by module path and
attribute name, and ``perfbench/workloads.py`` builds the argvs; a
rename or removal in ``src/wproj`` would otherwise only surface when a
benchmark run fails.  These tests read ``perfbench/`` and change
nothing there.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

from wproj.cli import build_parser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load("tracing")
    targets = [t for _, layer_targets, _ in tracing.LAYERS for t in layer_targets]
    targets += list(tracing.ENUMERATORS)
    assert targets
    for target in targets:
        owner, attr, _ = tracing._resolve(target)
        assert callable(getattr(owner, attr)), target


def test_every_benchmark_argv_parses():
    workloads = _load("workloads")
    argvs = [
        workloads.sunit_preset(0).argv(workers=2),
        workloads.box_scan(0).argv(workers=2),
        workloads.sing1_audit(0).argv(),
    ]
    scalars = itertools.islice(workloads.scalar_commands(0), len(workloads.SCALAR_KINDS))
    argvs += [cmd.argv() for cmd in scalars]
    parser = build_parser()
    parsed = [parser.parse_args(argv) for argv in argvs]  # SystemExit on an unknown flag
    assert all(callable(args.func) for args in parsed)
    assert parsed[0].workers == parsed[1].workers == 2
