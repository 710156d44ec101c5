"""The benchmark tracer wraps braidmf functions by dotted name.

A renamed function is silently left unwrapped, and its per-layer metric
reads zero.  This test loads ``bench/tracer.py`` by file path, without
installing it, and checks that every name it lists still resolves to a
function the tracer can wrap.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracer = _load_tracer()


def _summary_names():
    """The string arguments of calls_of/time_of in Tracer.summary."""
    summary = inspect.getsource(tracer.Tracer.summary)
    return set(re.findall(r'(?:calls_of|time_of)\("([^"]+)"\)', summary))


def _listed_names():
    perm = [f"perm.Perm.{m}" for m in (*tracer.PERM_METHODS, "__mul__", "__eq__")]
    names = {*tracer.COUNT_ONLY, *tracer.UNWRAPPED, *tracer._HOOKS, *perm}
    return sorted(names | _summary_names())


def test_summary_names_are_found():
    # guards the pattern above: summary() times or counts eleven names
    assert len(_summary_names()) >= 10


@pytest.mark.parametrize("name", _listed_names())
def test_tracer_name_resolves_to_a_function(name):
    layer, *attrs = name.split(".")
    assert layer in tracer.LAYERS
    mod = importlib.import_module(f"braidmf.{layer}")
    if len(attrs) == 1:
        # install() wraps only functions defined in the layer's own module
        obj = getattr(mod, attrs[0], None)
        assert inspect.isfunction(obj) and obj.__module__ == mod.__name__
    else:
        cls_name, method = attrs
        raw = vars(getattr(mod, cls_name)).get(method)
        if isinstance(raw, classmethod):
            raw = raw.__func__
        assert inspect.isfunction(raw)
