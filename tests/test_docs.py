import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import wproj

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {m.name: importlib.import_module(f"wproj.{m.name}")
           for m in pkgutil.iter_modules(wproj.__path__)}
# every backticked dotted identifier, such as `wpoly.fix_prefix` or `_radical`
NAMES = sorted(set(re.findall(r"`([A-Za-z_][\w.]*)`", README.read_text())))
# the classes that wproj's modules define, by name
CLASSES = {name: c for module in MODULES.values()
           for name, c in inspect.getmembers(module, inspect.isclass)
           if c.__module__ == module.__name__}


def _resolves(module, attrs):
    target = module
    for attr in attrs:
        if not hasattr(target, attr):
            return False
        target = getattr(target, attr)
    return True


def _defines(name):
    """Whether a wproj module, or a class defined in one, has the attribute."""
    return any(hasattr(owner, name) for owner in [*MODULES.values(), *CLASSES.values()])


@pytest.mark.parametrize("name", [
    n for n in NAMES if n.removeprefix("wproj.").split(".")[0] in MODULES
])
def test_readme_module_names_exist(name):
    module, *attrs = name.removeprefix("wproj.").split(".")
    assert _resolves(MODULES[module], attrs), f"README names `{name}`, which wproj lacks"


@pytest.mark.parametrize("name", [
    n for n in NAMES if n.startswith("_") and "." not in n and not n.startswith("__")
])
def test_readme_private_names_exist(name):
    assert _defines(name), f"README names `{name}`, which wproj lacks"


@pytest.mark.parametrize("name", [n for n in NAMES if n.split(".")[0] in CLASSES and "." in n])
def test_readme_class_names_exist(name):
    owner, *attrs = name.split(".")
    cls = CLASSES[owner]
    # a Record field without a default is no class attribute
    field = len(attrs) == 1 and attrs[0] in getattr(cls, "_fields", ())
    assert field or _resolves(cls, attrs), f"README names `{name}`, which wproj lacks"
