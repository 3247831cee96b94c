"""The benchmark's tracer still finds every op it counts and every method
it spans. perfbench/tracing.py looks each one up by name when it installs,
so a renamed or deleted one would otherwise fail only a traced benchmark
run."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import scriptsum.checkpoint  # noqa: F401  (the tracer wraps functions of every traced module)
import scriptsum.data  # noqa: F401
import scriptsum.metrics  # noqa: F401
import scriptsum.minilang  # noqa: F401
import scriptsum.training  # noqa: F401
from scriptsum.model import ScriptModel

from conftest import random_bundle, tiny_model

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_spans_and_uninstalls():
    tracing = _load_tracing()
    tensor_module = sys.modules["scriptsum.tensor"]  # the package's `tensor` attribute is a function
    originals = {op: getattr(tensor_module, op) for op in tracing.COUNTED_OPS}
    methods = {meth: ScriptModel.__dict__[meth] for _, cls, meth, _ in tracing.SPANNED_METHODS if cls == "ScriptModel"}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rng = np.random.default_rng(0)
        model = tiny_model()
        model.summarize(rng.integers(0, model.config.src_vocab_size, 4), random_bundle(rng, 4), beam_size=2, max_len=3)
    finally:
        tracer.uninstall()
    spanned = {span[0] for span in tracer.spans}
    assert {"model.script_encoder", "model.relative_attention", "model.decode", "model.beam_search"} <= spanned
    assert tracer.op_calls["setup"] > 0
    assert all(getattr(tensor_module, op) is fn for op, fn in originals.items())
    assert all(ScriptModel.__dict__[meth] is fn for meth, fn in methods.items())
