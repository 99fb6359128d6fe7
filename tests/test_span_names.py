"""The benchmark's per-layer metrics name functions that still exist.

``perfbench/tracer.py`` maps each named per-layer metric to span names,
``<layer>.<function>`` or ``<layer>.<Class>.<method>``, and a span exists
only while a public function or method of that name does.  A rename in
``src`` would leave its metric reading 0, so each metric must still name at
least one of them.  ``tracer.py`` is parsed here, not imported or changed.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_table(name):
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} has no {name}")


def _is_traced(span):
    """Whether ``Tracer.install`` wraps a public function or method so named."""
    layer, *path = span.split(".")
    mod = importlib.import_module(f"hypnopipe.{layer}")
    if any(part.startswith("_") for part in path):
        return False
    if len(path) == 1:
        fn = vars(mod).get(path[0])
        return inspect.isfunction(fn) and fn.__module__ == mod.__name__
    cls = vars(mod).get(path[0])
    if len(path) != 2 or not inspect.isclass(cls) or cls.__module__ != mod.__name__:
        return False
    raw = vars(cls).get(path[1])
    return inspect.isfunction(getattr(raw, "__func__", raw))


def test_every_named_metric_still_names_a_traced_function():
    tables = {**_tracer_table("SELF_S"),
              **{k: (v,) for k, v in _tracer_table("CALLS").items()}}
    assert tables
    dead = sorted(metric for metric, spans in tables.items()
                  if not any(map(_is_traced, spans)))
    assert dead == []


def test_a_removed_name_is_not_traced():
    assert _is_traced("hypnodensity.Hypnodensity.to_csv")
    assert not _is_traced("hypnodensity.EnsembleHypnodensity.to_csv")
    assert not _is_traced("diagnosis.apply_hla")
    assert not _is_traced("cli._score_ensemble")
