"""The benchmark's tracer must still find every name it rebinds.

``perfbench/tracing.py`` wraps wproj functions by module path and
attribute name; a rename or removal in ``src/wproj`` would otherwise
only surface when a traced benchmark run fails.  This test reads
``perfbench/`` and changes nothing there.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    targets = [t for _, layer_targets, _ in tracing.LAYERS for t in layer_targets]
    targets += list(tracing.ENUMERATORS)
    assert targets
    for target in targets:
        owner, attr, _ = tracing._resolve(target)
        assert callable(getattr(owner, attr)), target
