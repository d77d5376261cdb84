"""Every function that perfbench/tracing.py wraps by name exists in wallman.

The tracer patches wallman by "module:qualname" strings; a renamed or
deleted function would only surface when a traced benchmark run fails.
"""

import importlib
import importlib.util
import pathlib
import sys

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)  # dataclasses look it up
    spec.loader.exec_module(mod)
    return mod


def resolve(name):
    """The object the tracer patches: a module attribute, or a class's own
    attribute for "Class.method" (the tracer reads the class __dict__)."""
    mod_name, qual = name.split(":")
    mod = importlib.import_module(f"wallman.{mod_name}")
    owner, _, attr = qual.rpartition(".")
    if owner:
        return getattr(mod, owner).__dict__[attr]
    return getattr(mod, attr)


def test_traced_names_resolve(monkeypatch):
    tracing = load_tracing(monkeypatch)
    names = [fn for layer in tracing.LAYERS for fn in layer.functions]
    names += list(tracing.COUNTERS)
    names += list(tracing.COUNTED_METHODS)
    assert names
    missing = []
    for name in names:
        try:
            resolve(name)
        except (ImportError, AttributeError, KeyError):
            missing.append(name)
    assert missing == []
