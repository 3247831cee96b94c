"""The benchmark's tracer still finds every op it counts and every method
it spans. perfbench/tracing.py looks each one up by name when it installs,
so a renamed or deleted one would otherwise fail only a traced benchmark
run."""

import importlib.util
import json
from pathlib import Path

import pytest

import numpy as np

import scriptsum.checkpoint  # noqa: F401  (the tracer wraps functions of every traced module)
import scriptsum.data
import scriptsum.metrics  # noqa: F401
import scriptsum.minilang  # noqa: F401
import scriptsum.tensor
import scriptsum.training
from scriptsum.data import build_vocab, encode_examples, load_dataset
from scriptsum.model import ScriptModel

from conftest import random_bundle, tiny_model

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_spans_and_uninstalls(toy_corpus_path):
    """One-source summarize and beam_search, and BLEU validation of two
    sources decoded together, all run under the tracer."""
    tracing = _load_tracing()
    originals = {op: getattr(scriptsum.tensor, op) for op in tracing.COUNTED_OPS}
    methods = {meth: ScriptModel.__dict__[meth] for _, cls, meth, _ in tracing.SPANNED_METHODS if cls == "ScriptModel"}
    examples = load_dataset(toy_corpus_path, distance_clip=4)[:2]
    src_vocab, tgt_vocab = build_vocab(examples)
    split = encode_examples(examples, src_vocab, tgt_vocab)
    model = tiny_model(src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rng = np.random.default_rng(0)
        ids, bundle = rng.integers(0, model.config.src_vocab_size, 4), random_bundle(rng, 4)
        model.summarize(ids, bundle, beam_size=2, max_len=3)
        with scriptsum.tensor.no_grad():
            model.beam_search(model.script_encoder(ids, bundle), beam_size=2, max_len=3)
        scriptsum.training.evaluate_bleu(model, split, tgt_vocab, max_len=3)
    finally:
        tracer.uninstall()
    spanned = {span[0] for span in tracer.spans}
    assert {"model.script_encoder", "model.relative_attention", "model.decode", "model.beam_search",
            "training.evaluate_bleu"} <= spanned
    bleu_decodes = [i for i, span in enumerate(tracer.spans)
                    if span[0] == "model.decode" and tracer.spans[span[3]][0] == "training.evaluate_bleu"]
    assert 0 < len(bleu_decodes) <= 3  # the two sources share each of at most 3 decoder steps
    assert tracer.op_calls["setup"] > 0
    assert all(getattr(scriptsum.tensor, op) is fn for op, fn in originals.items())
    assert all(ScriptModel.__dict__[meth] is fn for meth, fn in methods.items())


def test_tracer_spans_every_ingest_layer(toy_corpus_path):
    """Ingest goes through each function perfbench spans, and builds one
    structure per example: an inlined floyd_apsp or multiview would
    silently zero the benchmark's per-layer structure metrics."""
    tracing = _load_tracing()
    records = [json.loads(line) for line in toy_corpus_path.read_text().splitlines()[:3]]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for record in records:
            scriptsum.data.example_from_record(record)
    finally:
        tracer.uninstall()
    spanned = {span[0] for span in tracer.spans}
    assert {"minilang.parse_minilang", "astcore.leaf_tokens", "structure.floyd_apsp", "structure.multiview",
            "structure.encode_structure", "data.example_from_record"} <= spanned
    assert tracer.counts["examples_built"] == len(records)
    assert tracer.counts["floyd_calls"] == tracer.counts["examples_built"]


def test_tracer_spans_a_training_run(toy_corpus_path, tmp_path):
    """A one-epoch train on two toy examples, one group per batch, goes
    through every training function perfbench spans, counts its batches'
    positions from Batch, and counts ops in the train phase."""
    tracing = _load_tracing()
    examples = load_dataset(toy_corpus_path, distance_clip=4)[:2]
    src_vocab, tgt_vocab = build_vocab(examples)
    model = tiny_model(src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab), dropout_p=0.2)
    cfg = scriptsum.training.TrainConfig(batch_size=2, max_epochs=1, bleu_every=0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.phase = "train"
        scriptsum.training.train(model, examples, examples, cfg, src_vocab, tgt_vocab, tmp_path)
    finally:
        tracer.uninstall()
    spanned = [span[0] for span in tracer.spans]
    assert {"data.make_batches", "tensor.backward", "training.adam_step", "training.evaluate_loss",
            "model.forward_loss", "model.script_encoder", "model.decode"} <= set(spanned)
    assert spanned.count("tensor.backward") == 1  # one group, one graph
    assert spanned.count("model.forward_loss") == 2  # the step's group, then validation's
    real = sum(len(ex.code_tokens) for ex in examples)
    assert tracer.counts["real_positions"] == real
    assert tracer.counts["padded_positions"] == 2 * max(len(ex.code_tokens) for ex in examples)
    assert tracer.op_calls["train"] > 0
    assert tracer.forward_seconds_in_training() > 0
    metrics = tracing.layer_metrics(tracer, train_examples=2)
    assert metrics["tensor.backward_forward_ratio"][0] > 0
    assert metrics["data.real_position_ratio"][0] == pytest.approx(tracer.counts["real_positions"]
                                                                  / tracer.counts["padded_positions"])
