"""In-memory span tracer for the traced benchmark runs.

The tracer wraps scriptsum's public functions from outside the library.
Each function is wrapped at every module attribute that holds it (for
example `scriptsum.tensor.backward` and the `backward` that
`scriptsum.training` imported), so calls between layers are seen
whatever name the caller uses. Methods are wrapped on their class.

A span is (name, start, end, parent index). Spans stay in memory and are
written out once, when the run ends. Tensor operations are too many and too
small for spans: they are only counted, per phase.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# (module, function, span name) traced with spans.
SPANNED_FUNCTIONS = (
    ("scriptsum.minilang", "parse_minilang", "minilang.parse_minilang"),
    ("scriptsum.astcore", "leaf_tokens", "astcore.leaf_tokens"),
    ("scriptsum.structure", "floyd_apsp", "structure.floyd_apsp"),
    ("scriptsum.structure", "multiview", "structure.multiview"),
    ("scriptsum.structure", "encode_structure", "structure.encode_structure"),
    ("scriptsum.data", "example_from_record", "data.example_from_record"),
    ("scriptsum.data", "make_batches", "data.make_batches"),
    ("scriptsum.tensor", "backward", "tensor.backward"),
    ("scriptsum.training", "evaluate_loss", "training.evaluate_loss"),
    ("scriptsum.training", "evaluate_bleu", "training.evaluate_bleu"),
    ("scriptsum.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("scriptsum.metrics", "corpus_report", "metrics.corpus_report"),
)
# (module, class, method, span name) traced with spans.
SPANNED_METHODS = (
    ("scriptsum.model", "ScriptModel", "relative_attention", "model.relative_attention"),
    ("scriptsum.model", "ScriptModel", "script_encoder", "model.script_encoder"),
    ("scriptsum.model", "ScriptModel", "decode", "model.decode"),
    ("scriptsum.model", "ScriptModel", "forward_loss", "model.forward_loss"),
    ("scriptsum.model", "ScriptModel", "beam_search", "model.beam_search"),
    ("scriptsum.training", "Adam", "step", "training.adam_step"),
)
# Autodiff operations of scriptsum.tensor, counted but not spanned.
COUNTED_OPS = (
    "matmul", "add", "mul", "scale", "sigmoid", "relu", "softmax_masked",
    "layernorm", "dropout", "embed", "gather", "cross_entropy", "reshape",
    "transpose", "concat", "sum_all", "mean_all",
)


class Tracer:
    """Spans, op counts and layer counts of one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.phase = "setup"
        self.op_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            self._observe(name, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, fn):
        op_calls = self.op_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op_calls[self.phase] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name: str, args, kwargs, result) -> None:
        """Counts measured where the work happens."""
        counts = self.counts
        if name == "data.make_batches":
            for batch in result:
                counts["real_positions"] += sum(batch.src_lens)
                counts["padded_positions"] += len(batch) * batch.src_ids.shape[1]
        elif name == "model.decode" and self._inside("model.beam_search"):
            tgt_in = kwargs.get("tgt_in_ids", args[1] if len(args) > 1 else None)
            counts["generation_decode_calls"] += 1
            counts["generation_decoder_positions"] += len(tgt_in)
        elif name == "checkpoint.save_checkpoint":
            path = kwargs.get("path", args[1] if len(args) > 1 else None)
            counts["checkpoint_bytes"] += os.path.getsize(path)
        elif name == "structure.floyd_apsp":
            counts["floyd_calls"] += 1
        elif name == "data.example_from_record":
            counts["examples_built"] += 1

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at each module attribute holding it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "scriptsum"]
        modules += [sys.modules["__main__"]]
        wrappers = {}
        for mod_name, fn_name, span_name in SPANNED_FUNCTIONS:
            fn = getattr(sys.modules[mod_name], fn_name)
            wrappers[id(fn)] = (fn, self._span(span_name, fn))
        tensor = sys.modules["scriptsum.tensor"]
        for op in COUNTED_OPS:
            fn = getattr(tensor, op)
            wrappers[id(fn)] = (fn, self._counter(fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, entry[1])
        for mod_name, cls_name, meth, span_name in SPANNED_METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            fn = cls.__dict__[meth]
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self._span(span_name, fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- summaries ---------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name over the whole run.

        A span nested in a span of the same name adds nothing to the
        inclusive total, so recursion is not counted twice.
        """
        inclusive: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_time[name] += (end - start) - child_time[i]
            if not self._has_ancestor(i, name):
                inclusive[name] += end - start
        return inclusive, self_time

    def _has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def forward_seconds_in_training(self) -> float:
        """Inclusive time of forward_loss calls made by training steps, that
        is not under a validation pass."""
        total = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            if name == "model.forward_loss" and not self._has_ancestor(i, "training.evaluate_loss"):
                total += end - start
        return total

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, train_examples: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as name -> (value, unit).

    Names ending in _self_s are self time: the span's time less the time of
    the traced spans it called. Other times are inclusive. A layer the
    workload does not run reads 0.
    """
    inc, own = tracer.totals()
    c = tracer.counts
    backward_s = inc["tensor.backward"]
    return {
        "minilang.parse_minilang_s": (inc["minilang.parse_minilang"], "s"),
        "astcore.leaf_tokens_s": (inc["astcore.leaf_tokens"], "s"),
        "structure.floyd_apsp_s": (inc["structure.floyd_apsp"], "s"),
        "structure.floyd_apsp_calls_per_example": (_ratio(c["floyd_calls"], c["examples_built"]), "count"),
        "structure.multiview_self_s": (own["structure.multiview"], "s"),
        "structure.encode_structure_self_s": (own["structure.encode_structure"], "s"),
        "data.example_from_record_self_s": (own["data.example_from_record"], "s"),
        "data.make_batches_s": (inc["data.make_batches"], "s"),
        "data.real_position_ratio": (_ratio(c["real_positions"], c["padded_positions"]), "ratio"),
        "tensor.op_calls_per_train_example": (_ratio(tracer.op_calls["train"], train_examples), "count"),
        "tensor.backward_s": (backward_s, "s"),
        "tensor.backward_forward_ratio": (_ratio(backward_s, tracer.forward_seconds_in_training()), "ratio"),
        "model.relative_attention_s": (inc["model.relative_attention"], "s"),
        "model.script_encoder_s": (inc["model.script_encoder"], "s"),
        "model.decode_s": (inc["model.decode"], "s"),
        "model.decoder_positions_per_token": (
            _ratio(c["generation_decoder_positions"], c["generation_decode_calls"]), "count"),
        "model.beam_search_self_s": (own["model.beam_search"], "s"),
        "training.adam_step_s": (inc["training.adam_step"], "s"),
        "training.evaluate_loss_s": (inc["training.evaluate_loss"], "s"),
        "training.evaluate_bleu_s": (inc["training.evaluate_bleu"], "s"),
        "checkpoint.save_checkpoint_s": (inc["checkpoint.save_checkpoint"], "s"),
        "checkpoint.bytes_written": (float(c["checkpoint_bytes"]), "bytes"),
        "metrics.corpus_report_s": (inc["metrics.corpus_report"], "s"),
    }
