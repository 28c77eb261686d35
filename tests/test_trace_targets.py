"""Every function the benchmark tracer wraps stays defined.

perfbench/spans.py lists the program's functions in TARGETS, and
Tracer.install wraps each one: a missing name raises there, so a traced
benchmark run would crash.  Some span counters read a named argument, so
those parameter names must stay too.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import icumort.cli  # noqa: F401  (imports every module the tracer patches)

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()

# counter -> the argument it reads; the other counters read only the result
_COUNTER_READS = {spans._rows_encoded: "cohort",
                  spans._missing_cells: "matrix"}


def _target(mod_name, attr):
    """The function Tracer.install wraps, looked up the same way."""
    owner = importlib.import_module(f"icumort.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(owner, cls_name).__dict__[meth]
    return getattr(owner, attr)


def test_install_and_uninstall_restore_every_target():
    # a target that is no longer defined raises here, as in install()
    originals = [_target(m, a) for m, a, _, _ in spans.TARGETS]
    for (_, _, _, counter), fn in zip(spans.TARGETS, originals):
        if counter in _COUNTER_READS:
            assert _COUNTER_READS[counter] in inspect.signature(fn).parameters
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(_target(m, a) is not fn
                   for (m, a, _, _), fn in zip(spans.TARGETS, originals))
    finally:
        tracer.uninstall()
    assert all(_target(m, a) is fn
               for (m, a, _, _), fn in zip(spans.TARGETS, originals))
