#!/usr/bin/env python3
"""scriptsum benchmark: one workload, one seed, in a fresh process.

    python3 perfbench/run.py --workload toy --seed 0 --seconds 30 --trace 0

Workloads (see README.md in this directory):

  toy           bundled 32-example corpus, README `train` config; every
                example decoded greedily and with beam 5, and scored
  paper-decode  ModelConfig defaults (48M parameters), 5,000-word target
                vocabulary, ~150-token programs, fixed-length decoding
  long-input    200-600-token programs, some over the 400-token cap and a
                fixed share nested 300 parentheses deep

Every workload times four phases: ingest, train, greedy and beam5. A run
does a fixed amount of work, sized to take about 30 seconds on two shared
CPUs; it is cut into slices that each run a share of every phase, so that
every phase samples the whole run (the host's speed drifts by tens of
percent over tens of seconds, and a phase run in one block would see only
part of it). --seconds does not change the work; it is recorded on the
run line next to the seconds the timed phases took. After the timed
slices the outputs are checked on a sample. The run prints one line per
phase, a line of run facts, and as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
library is wrapped by the tracer in tracing.py and the metrics are per layer.
The exit code is 1 when any output check fails.
"""

import os

# One BLAS / OpenMP thread, set before numpy loads: with two threads on a
# two-CPU host, training throughput swung by more than 2x between passes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "scriptsum").is_dir():
    sys.exit(f"perfbench: no scriptsum sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np

import scriptsum
from scriptsum import data as sdata
from scriptsum.errors import (
    ArtifactMismatchError, BucketError, ConfigError, EmptyCorpusError, FormatError,
    MiniLangSyntaxError, NumericsError, ShapeError, StateError, TreeError,
)

import checks
import gen
from tracing import Tracer, layer_metrics

# Errors scriptsum documents for bad input: a record rejected with one of
# these counts as a successful ingest.
DOCUMENTED_ERRORS = (
    ArtifactMismatchError, BucketError, ConfigError, EmptyCorpusError, FormatError,
    MiniLangSyntaxError, NumericsError, ShapeError, StateError, TreeError,
)

SETUP_REPEATS = 3
CLIP = 8
VIEW_SUM = 1.0  # the default view weights are 1/3 each
TOY_MODEL = dict(d_model=64, n_heads=4, n_script_modules=1, n_decoder_layers=2,
                 ffn_dim=256, dropout_p=0.2, l=CLIP, k=16)
TOY_EPOCHS = 2
TOY_BLEU_EVERY = 2
TOY_SEED = 0
# Training examples per training. A finished autodiff graph is freed only by
# the cycle collector, so several graphs stay alive at once; at n = 400
# each holds about 1.1 GB and five of them exhausted an 8 GiB host.
# long-input therefore trains on its two shortest records.
PAPER_TRAIN = 3
LONG_TRAIN = 2
PAPER_DECODE = 2  # sources decoded per paper-decode slice
DECODE_SEED = 0  # long-input decodes records of this seed, whatever --seed is
GREEDY_LEN = 16
BEAM_LEN = 8
BEAM = 5


@dataclass
class Phase:
    """One timed phase: operations attempted and failed, and their time."""

    attempted: int = 0
    failed: int = 0
    seconds: float = 0.0

    def add(self, items: int, seconds: float, failed: int = 0) -> None:
        self.attempted += items
        self.failed += failed
        self.seconds += seconds


@dataclass
class Outcome:
    setup_s: float
    problems: list
    train_examples: int


def import_seconds() -> float:
    """Median time of SETUP_REPEATS fresh interpreters that import numpy and
    scriptsum, so set-up time is counted from process start."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy, scriptsum"], env=env, check=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def timed_setup(build):
    """Run build() SETUP_REPEATS times; return the last result and set-up
    seconds: the median import time plus the median build time. The
    previous result is dropped before the next build."""
    times = []
    result = None
    for _ in range(SETUP_REPEATS):
        result = None
        t = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - t)
    return result, import_seconds() + statistics.median(times)


# -- output checks shared by the workloads -----------------------------------


def ingest_problems(records: list[dict], examples: list) -> list[str]:
    """Structure, truncation and tree round-trip checks on ingested records."""
    problems = []
    for rec, ex in zip(records, examples):
        children = [node.children for node in ex.ast.nodes]
        tokens, align = scriptsum.leaf_tokens(ex.ast)
        problems += checks.check_structure(
            children, list(align.token_to_node), ex.bundle, CLIP, VIEW_SUM, sdata.MAX_SOURCE_TOKENS)
        problems += checks.check_cap(len(tokens), ex.code_tokens, ex.bundle, sdata.MAX_SOURCE_TOKENS)
        if tuple(tokens[: sdata.MAX_SOURCE_TOKENS]) != ex.code_tokens:
            problems.append("code tokens are not the leaf tokens of the parsed tree")
        if scriptsum.ast_from_json(scriptsum.ast_to_json(ex.ast)) != ex.ast:
            problems.append("ast_to_json -> ast_from_json does not reproduce the tree")
        if scriptsum.parse_minilang(rec["code"]) != ex.ast:
            problems.append("parsing the same source twice gives different trees")
    return problems


def training_problems(result, model, must_fall: bool) -> list[str]:
    problems = checks.check_losses(
        [h.train_loss for h in result.history], [h.valid_loss for h in result.history], must_fall)
    loaded = scriptsum.load_checkpoint(result.last_checkpoint)
    return problems + checks.check_state_equal(loaded, model.state_dict())


def decoding_problems(model, state, greedy_ids, greedy_len) -> list[str]:
    """Greedy against a hand-made argmax, beam 1 against greedy."""
    cfg = model.config

    def next_logits(prefix):
        return model.decode(np.asarray(prefix, dtype=np.int64), state).data[-1]

    oracle = checks.argmax_decode(next_logits, cfg.bos_id, cfg.eos_id, greedy_len)
    problems = checks.check_greedy(greedy_ids, oracle)
    again = model.beam_search(state, beam_size=1, max_len=greedy_len)
    return problems + checks.check_same(again, greedy_ids, "beam 1 differs from the greedy output")


def metric_problems(report, references) -> list[str]:
    problems = checks.check_scores(report.pair_scores)
    for ref in references:
        pair = scriptsum.EvalPair(candidate=list(ref), references=[list(ref)])
        problems += checks.check_self_scores(
            len(ref), scriptsum.bleu4(pair), scriptsum.rouge_l(pair), scriptsum.meteor(pair))
    return problems


# -- workloads ----------------------------------------------------------------


def toy_config(src_vocab, tgt_vocab):
    return scriptsum.ModelConfig(
        src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab), **TOY_MODEL)


def fixed_length(model) -> None:
    """Rule out EOS, so every summary runs to its maximum length whatever
    the source, and the work per summary does not depend on the seed."""
    cfg = model.config
    model.params["out_bias"].data[cfg.eos_id] = -1e9


class Runner:
    """The timed phases every workload runs: ingest, train, greedy, beam5.
    Each call adds its operations and their wall time to the phase."""

    def __init__(self, tracer, out_dir: Path):
        self.tracer = tracer
        self.out_dir = out_dir
        self.phases = {name: Phase() for name in ("ingest", "train", "greedy", "beam5")}
        self.failures: Counter = Counter()  # failed operations by cause

    def _set_phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def ingest(self, records: list[dict], passes: int):
        """example_from_record on every record; returns the examples and
        their records. A record rejected with a documented scriptsum error
        is a success; any other exception is a failed operation."""
        failed = 0
        self._set_phase("ingest")
        t = time.perf_counter()
        for _ in range(passes):
            examples, kept = [], []
            for rec in records:
                try:
                    examples.append(scriptsum.example_from_record(rec))
                    kept.append(rec)
                except DOCUMENTED_ERRORS:
                    pass
                except Exception as exc:  # counted, reported, and the run goes on
                    failed += 1
                    self.failures[f"ingest raised {type(exc).__name__}"] += 1
        self.phases["ingest"].add(passes * len(records), time.perf_counter() - t, failed)
        self._set_phase("between")
        return examples, kept

    def train(self, examples, src_vocab, tgt_vocab, train_cfg, seed: int):
        """A fresh toy-architecture model trained on `examples`, validated on
        them too, as `scriptsum train` does without --valid."""
        model = scriptsum.ScriptModel(toy_config(src_vocab, tgt_vocab), seed=seed)
        self._set_phase("train")
        t = time.perf_counter()
        result = scriptsum.train(model, examples, examples, train_cfg, src_vocab, tgt_vocab,
                                 self.out_dir / "train")
        self.phases["train"].add(train_cfg.max_epochs * len(examples), time.perf_counter() - t)
        self._set_phase("between")
        return model, result

    def decode(self, name: str, model, encoded, beam: int, max_len: int, tgt_vocab=None):
        """Encode and decode each example as `evaluate_bleu` does, with graph
        recording off; with a target vocabulary the summaries are scored.

        beam_search does not rule out PAD and BOS, so a summary can hold
        them; such a beam-5 summary is a failed operation."""
        self._set_phase(name)
        t = time.perf_counter()
        outputs, report = [], None
        with scriptsum.no_grad():
            for enc in encoded:
                state = model.script_encoder(enc.src_ids, enc.bundle)
                outputs.append(model.beam_search(state, beam_size=beam, max_len=max_len))
        if tgt_vocab is not None:
            report = scriptsum.corpus_report([
                scriptsum.EvalPair(candidate=tgt_vocab.decode(ids),
                                   references=[list(enc.summary_tokens)])
                for enc, ids in zip(encoded, outputs)])
        seconds = time.perf_counter() - t
        failed = 0
        if name == "beam5":
            cfg = model.config
            failed = sum(1 for ids in outputs if cfg.pad_id in ids or cfg.bos_id in ids)
            if failed:
                self.failures["beam5 summary holds PAD or BOS"] += failed
        self.phases[name].add(len(encoded), seconds, failed)
        self._set_phase("between")
        return outputs, report

    def done(self) -> None:
        """Checks run untraced, so they add nothing to the layer metrics."""
        if self.tracer is not None:
            self.tracer.uninstall()
        if self.failures:
            print(f"failed operations by cause: {json.dumps(self.failures, sort_keys=True)}")


def decode_checks(model, encoded, greedy_out, beam_out, greedy_len, beam_len, sample) -> list[str]:
    problems = []
    with scriptsum.no_grad():
        for i in sample:
            state = model.script_encoder(encoded[i].src_ids, encoded[i].bundle)
            problems += decoding_problems(model, state, greedy_out[i], greedy_len)
    # PAD and BOS are counted as failed operations instead (Runner.decode).
    for ids in beam_out:
        problems += checks.check_beam_output(ids, (model.config.eos_id,), beam_len)
    return problems


def fixed_length_checks(outputs, length: int, what: str) -> list[str]:
    return [f"a {what} summary has {len(ids)} tokens, not {length}"
            for ids in outputs if len(ids) != length]


def run_toy(seed: int, runner: Runner) -> Outcome:
    """Train the README config on the bundled corpus, decode every example
    greedily and with beam 5, and score both.

    The corpus is bundled and the model and training seeds are fixed, so
    every run does the same work whatever `seed` is: the length of the
    decoded summaries, and with it the decoding cost, depends on the
    trained weights.
    """
    seed = TOY_SEED
    with open(sdata.toy_corpus_path(), encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]

    def build():
        examples = [scriptsum.example_from_record(rec) for rec in records]
        src_vocab, tgt_vocab = scriptsum.build_vocab(examples)
        return examples, src_vocab, tgt_vocab, scriptsum.ScriptModel(
            toy_config(src_vocab, tgt_vocab), seed=seed)

    (examples, src_vocab, tgt_vocab, _), setup_s = timed_setup(build)
    encoded = scriptsum.encode_examples(examples, src_vocab, tgt_vocab)
    train_cfg = scriptsum.TrainConfig(
        batch_size=8, lr=3e-3, max_epochs=TOY_EPOCHS, bleu_every=TOY_BLEU_EVERY,
        early_stop_patience=TOY_EPOCHS + 1, seed=seed)
    # Four slices: 2 trainings, 3 greedy passes and one beam-5 pass over
    # all 32 examples, a quarter of them per slice.
    part = len(encoded) // 4
    beam_out, beam_scores = [], []
    for k in range(4):
        runner.ingest(records, passes=16)
        if k < 2:
            model, result = runner.train(examples, src_vocab, tgt_vocab, train_cfg, seed)
        if k < 3:
            greedy_out, greedy_report = runner.decode(
                "greedy", model, encoded, 1, sdata.MAX_SUMMARY_TOKENS, tgt_vocab)
        ids, report = runner.decode("beam5", model, encoded[k * part:(k + 1) * part], BEAM,
                                    sdata.MAX_SUMMARY_TOKENS, tgt_vocab)
        beam_out += ids
        beam_scores += report.pair_scores
    runner.done()
    problems = ingest_problems(records[:4], examples[:4])
    problems += training_problems(result, model, must_fall=True)
    problems += decode_checks(model, encoded, greedy_out, beam_out,
                              sdata.MAX_SUMMARY_TOKENS, sdata.MAX_SUMMARY_TOKENS,
                              range(0, len(encoded), 8))
    refs = [enc.summary_tokens for enc in encoded if len(enc.summary_tokens) >= 4][:8]
    problems += metric_problems(greedy_report, refs) + checks.check_scores(beam_scores)
    return Outcome(setup_s, problems, runner.phases["train"].attempted)


def run_paper_decode(seed: int, runner: Runner) -> Outcome:
    """Greedy and beam-5 decoding at paper scale with fixed-seed weights."""
    records = gen.paper_decode_records(seed)

    def build():
        examples = [scriptsum.example_from_record(rec) for rec in records]
        src_vocab, _ = scriptsum.build_vocab(examples)
        tgt_vocab = sdata.Vocabulary(gen.lexicon())
        model = scriptsum.ScriptModel(scriptsum.ModelConfig(
            src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab)), seed=0)
        fixed_length(model)
        return examples, src_vocab, tgt_vocab, model

    (examples, src_vocab, tgt_vocab, model), setup_s = timed_setup(build)
    encoded = scriptsum.encode_examples(examples, src_vocab, tgt_vocab)
    train_cfg = scriptsum.TrainConfig(
        batch_size=8, lr=3e-3, max_epochs=1, bleu_every=0, early_stop_patience=2, seed=seed)
    # Two slices, each with every phase: each source is decoded twice.
    some = encoded[:PAPER_DECODE]
    for _ in range(2):
        runner.ingest(records, passes=8)
        small, result = runner.train(examples[:PAPER_TRAIN], src_vocab, tgt_vocab,
                                     train_cfg, seed)
        greedy = runner.decode("greedy", model, some, 1, GREEDY_LEN)[0]
        beam = runner.decode("beam5", model, some, BEAM, BEAM_LEN)[0]
    runner.done()
    problems = ingest_problems(records[:1], examples[:1])
    problems += training_problems(result, small, must_fall=False)
    problems += decode_checks(model, some, greedy, beam, GREEDY_LEN, BEAM_LEN, [0])
    problems += fixed_length_checks(greedy, GREEDY_LEN, "greedy")
    problems += fixed_length_checks(beam, BEAM_LEN, "beam-5")
    return Outcome(setup_s, problems, runner.phases["train"].attempted)


def run_long_input(seed: int, runner: Runner) -> Outcome:
    """Ingest long and nested records, train the toy architecture on the
    two shortest, and summarise two long records.

    The summarised records and the untrained model that decodes them come
    from DECODE_SEED, not `seed`, so the decoded ids, and the checks and
    failure counts on them, are the same in every run. beam_search does not
    rule out PAD and BOS: a model trained on the seed's records put them in
    its beam-5 output on some seeds, and this untrained model emits BOS at
    every step.
    """

    def build():
        return scriptsum.TrainConfig(
            batch_size=8, lr=3e-3, max_epochs=1, bleu_every=0, early_stop_patience=2, seed=seed)

    train_cfg, setup_s = timed_setup(build)
    records = gen.long_input_records(seed)
    # The 380-token record and the first one over the cap.
    decode_records = gen.long_input_records(DECODE_SEED)[2:4]
    problems = []
    # Five slices: five ingest passes, two trainings, five decodes. A third
    # training made peak memory bimodal (about 1,300 or 1,650 MiB, by where
    # a full garbage collection fell), so there are two.
    for k in range(5):
        examples, kept = runner.ingest(records, passes=1)
        if k == 0:
            decoded, _ = runner.ingest(decode_records, passes=1)
            vocabs = scriptsum.build_vocab(decoded)
            model = scriptsum.ScriptModel(toy_config(*vocabs), seed=DECODE_SEED)
            fixed_length(model)
            some = scriptsum.encode_examples(decoded, *vocabs)
        if k in (0, 2):
            src_vocab, tgt_vocab = scriptsum.build_vocab(examples)
            small, result = runner.train(examples[:LONG_TRAIN], src_vocab, tgt_vocab,
                                         train_cfg, seed)
            problems += training_problems(result, small, must_fall=False)
        greedy = runner.decode("greedy", model, some, 1, GREEDY_LEN)[0]
        beam = runner.decode("beam5", model, some, BEAM, BEAM_LEN)[0]
    runner.done()
    sample = [0, 3]  # the shortest record and the first over the cap
    problems += ingest_problems([kept[i] for i in sample], [examples[i] for i in sample])
    problems += decode_checks(model, some, greedy, beam, GREEDY_LEN, BEAM_LEN, [1])
    problems += fixed_length_checks(greedy, GREEDY_LEN, "greedy")
    problems += fixed_length_checks(beam, BEAM_LEN, "beam-5")
    return Outcome(setup_s, problems, runner.phases["train"].attempted)


WORKLOADS = {"toy": run_toy, "paper-decode": run_paper_decode, "long-input": run_long_input}

# End-to-end metrics: name -> (phase, unit).
THROUGHPUT = {
    "ingest_examples_per_s": ("ingest", "examples/s"),
    "train_examples_per_s": ("train", "examples/s"),
    "greedy_summaries_per_s": ("greedy", "summaries/s"),
    "beam5_summaries_per_s": ("beam5", "summaries/s"),
}


def read_steal() -> tuple[int, int]:
    """(steal ticks, all ticks) of the host from /proc/stat; zeros if absent."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def blas_name() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one scriptsum benchmark workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    steal0, ticks0 = read_steal()
    out_root = ROOT / ".perfbench_out"
    out_dir = out_root / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    runner = Runner(tracer, out_dir)
    try:
        outcome = WORKLOADS[args.workload](args.seed, runner)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    phases = runner.phases
    steal1, ticks1 = read_steal()

    for name, ph in phases.items():
        print(f"phase {name}: attempted={ph.attempted} failed={ph.failed} "
              f"seconds={ph.seconds:.3f}")
    print("run: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "timed_seconds": sum(ph.seconds for ph in phases.values()),
        "numpy": np.__version__, "blas": blas_name(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "nproc": os.cpu_count(),
        "steal_ticks": steal1 - steal0,
        "steal_share": (steal1 - steal0) / (ticks1 - ticks0) if ticks1 > ticks0 else 0.0,
    }, sort_keys=True))
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")

    if tracer is not None:
        tracer.dump(out_root / f"trace-{args.workload}-seed{args.seed}.jsonl")
        values = layer_metrics(tracer, outcome.train_examples)
    else:
        values = {"setup_s": (outcome.setup_s, "s")}
        for name, (phase, unit) in THROUGHPUT.items():
            values[name] = (phases[phase].attempted / phases[phase].seconds, unit)
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": sum(ph.attempted for ph in phases.values()),
        "failed": sum(ph.failed for ph in phases.values()),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }))
    return 0 if not outcome.problems else 1


if __name__ == "__main__":
    sys.exit(main())
