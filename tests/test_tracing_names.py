"""The benchmark's tracer (``perfbench/tracing.py``) wraps program functions by
name.  A traced function the program renamed or moved makes every traced
benchmark run report ``correct: false``, so the names are checked here."""

import importlib.util
import os

from crossmodal_pde import adaptation, bidir

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    originals = (adaptation.predict_sequence, bidir.FlipPair.predict)
    tracer = _load_tracing().Tracer()
    with tracer.installed():
        assert tracer.patched
        assert adaptation.predict_sequence is not originals[0]
    assert tracer.missing == set()
    assert (adaptation.predict_sequence, bidir.FlipPair.predict) == originals
