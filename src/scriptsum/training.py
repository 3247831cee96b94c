"""Optimizer, learning-rate schedule, and the training loop.

The optimizer is Adam with decoupled weight decay applied to matrices only
(biases and layernorm parameters are exempt). The learning rate warms up
linearly over a fixed fraction of the total step budget, then decays
linearly to zero. Early stopping watches validation loss (or BLEU) with a
patience counter; the best checkpoint and a resumable last checkpoint are
written every epoch together with a CSV history.

All randomness is counter-based: the shuffle order is seeded by (seed,
epoch) and every dropout pass by (seed, step, example index), so an
interrupted run resumed from the last checkpoint retraces the exact same
computation.

A batch runs as groups of consecutive examples, each group one graph
whose rows are its examples' rows end to end (ScriptModel.forward_loss).
A group closes before an example that would take its source rows, or its
decoder-input rows, past MAX_SOURCE_TOKENS, so no group holds more rows
than one longest input, and a graph is freed by its backward before the
next group's is built. Each example trains at its own length, and every
product and every sum over rows runs per example, in example order, so
neither an example's loss nor its gradient depends on its batch partners,
its row or its group, and each parameter's gradient is summed in example
order: the bits of one graph per example.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    MAX_SOURCE_TOKENS,
    Batch,
    EncodedExample,
    Example,
    Vocabulary,
    encode_examples,
    make_batches,
)
from .errors import ConfigError, FormatError, NumericsError, read_text
from .metrics import EvalPair, bleu4
from .model import ModelConfig, ScriptModel, join_heads, load_model_sidecar, param_schema, save_model_sidecar, split_heads
from .tensor import backward, no_grad, scale, sum_all

# Adam's moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# last.ckpt's entry for the epoch it ends: run state, like the adam.* entries
EPOCH_KEY = "train.epoch"


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters; defaults follow the full-scale recipe."""

    batch_size: int = 32
    lr: float = 1e-4
    warmup_ratio: float = 0.06
    weight_decay: float = 0.01
    max_epochs: int = 200
    early_stop_patience: int = 20
    seed: int = 0
    validate_by: str = "loss"  # or "bleu"
    bleu_every: int = 1  # epochs between BLEU evaluations; 0 disables
    max_steps: int | None = None  # optional hard step cap for short runs

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr must be finite and non-negative, got {self.lr}")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ConfigError(f"warmup_ratio must be in [0, 1), got {self.warmup_ratio}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"weight_decay must be finite and non-negative, got {self.weight_decay}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.early_stop_patience < 0:
            raise ConfigError(f"early_stop_patience must be >= 0, got {self.early_stop_patience}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.validate_by not in ("loss", "bleu"):
            raise ConfigError(f"validate_by must be 'loss' or 'bleu', got {self.validate_by!r}")
        if self.bleu_every < 0:
            raise ConfigError(f"bleu_every must be >= 0, got {self.bleu_every}")
        if self.validate_by == "bleu" and self.bleu_every != 1:
            raise ConfigError("validate_by='bleu' requires bleu_every=1")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")

    def to_dict(self) -> dict:
        return asdict(self)


def _state_array(arrays: dict[str, np.ndarray], key: str, shape: tuple[int, ...]) -> np.ndarray:
    """One run-state array, kept as it is when C-contiguous, writeable
    float64 and copied otherwise; FormatError unless it is there, has the
    given shape and is finite."""
    if key not in arrays:
        raise FormatError(f"missing run state {key!r}")
    arr = np.require(arrays[key], dtype=np.float64, requirements="CW")
    if arr.shape != shape:
        raise FormatError(f"run state {key!r} has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise FormatError(f"run state {key!r} holds a value that is not finite")
    return arr


def _state_count(arrays: dict[str, np.ndarray], key: str) -> int:
    value = float(_state_array(arrays, key, (1,))[0])
    if value < 0 or not value.is_integer():
        raise FormatError(f"run state {key!r} must be a non-negative integer, got {value!r}")
    return int(value)


class Adam:
    """Adam with decoupled weight decay on parameters of rank >= 2."""

    def __init__(self, model: ScriptModel, weight_decay: float = 0.01):
        self.model = model
        self.weight_decay = weight_decay
        self.step_count = 0
        # np.zeros writes no page until a step does, so a resume, which
        # replaces the moments at once, never pays for them
        self.m = {name: np.zeros(p.data.shape) for name, p in model.params.items()}
        self.v = {name: np.zeros(p.data.shape) for name, p in model.params.items()}

    def step(self, lr: float) -> None:
        self.step_count += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.step_count
        bc2 = 1.0 - ADAM_BETA2 ** self.step_count
        for name, p in self.model.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            if self.weight_decay and p.data.ndim >= 2:
                update = update + self.weight_decay * p.data
            p.data = p.data - lr * update

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The step count and the moments, by param_schema name."""
        out: dict[str, np.ndarray] = {"adam.step": np.array([float(self.step_count)])}
        for kind, moments in (("m", self.m), ("v", self.v)):
            out |= {f"adam.{kind}.{name}": arr for name, arr in split_heads(self.model.config, moments).items()}
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Restore the step count and moments; FormatError, changing nothing,
        unless adam.step holds one non-negative integer and every moment
        is finite with its param_schema shape, and v >= 0. Like
        ScriptModel.load_state_dict, it keeps each C-contiguous, writeable
        float64 moment it is given, so the caller must not reuse it, and
        copies any other array."""
        step = _state_count(arrays, "adam.step")
        config = self.model.config

        def moments(kind: str):
            for name, (shape, _) in param_schema(config).items():
                arr = _state_array(arrays, f"adam.{kind}.{name}", shape)
                if kind == "v" and (arr < 0).any():
                    raise FormatError(f"run state 'adam.v.{name}' holds a negative value")
                yield name, arr

        m, v = join_heads(config, moments("m")), join_heads(config, moments("v"))
        self.step_count, self.m, self.v = step, m, v


def lr_at_step(step: int, total_steps: int, base_lr: float, warmup_ratio: float) -> float:
    """Linear warmup to base_lr, then linear decay to zero; step is 0-based."""
    warmup = max(1, math.ceil(total_steps * warmup_ratio))
    if step < warmup:
        return base_lr * (step + 1) / warmup
    if total_steps <= warmup:
        return base_lr
    return base_lr * (total_steps - step) / (total_steps - warmup)


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _example_rng(seed: int, step: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, step, index]))


@dataclass
class HistoryRow:
    epoch: int
    train_loss: float
    valid_loss: float
    valid_bleu: float | None
    lr: float
    wall_seconds: float


HISTORY_COLUMNS = tuple(f.name for f in fields(HistoryRow))


def write_history(path, rows: Sequence[HistoryRow]) -> None:
    """One CSV row per epoch: each value by repr, so floats round-trip
    exactly, and an empty cell for None."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_COLUMNS)
        writer.writerows(["" if v is None else repr(v) for v in astuple(r)] for r in rows)


def _replace_file(path: Path, write) -> None:
    """Make path with write(tmp) under a temporary name in its directory,
    then rename it over path, so a process killed mid-write leaves the
    previous complete file."""
    tmp = path.with_name(path.name + ".tmp")
    write(tmp)
    os.replace(tmp, path)


def _model_params(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v for k, v in arrays.items() if not k.startswith(("adam.", "train."))}


def _param_views(model: ScriptModel) -> dict[str, np.ndarray]:
    """The model's parameters by param_schema name, as views of its own
    arrays. Adam.step rebinds every parameter, so these are built for one
    save and not kept: kept, they would hold the old arrays alive."""
    return split_heads(model.config, {name: t.data for name, t in model.params.items()})


def _rank(history: Sequence[HistoryRow], validate_by: str) -> tuple[float, int, int]:
    """Best metric, best epoch and bad epochs since it, over history in
    order. The metric is validation loss or negated BLEU, NaN ranking as
    inf; an epoch is best only when it beats every earlier one."""
    best_metric, best_epoch, bad_epochs = math.inf, 0, 0
    for row in history:
        metric = row.valid_loss if validate_by == "loss" else -(row.valid_bleu or 0.0)
        if math.isnan(metric):
            metric = math.inf
        if metric < best_metric:
            best_metric, best_epoch, bad_epochs = metric, row.epoch, 0
        else:
            bad_epochs += 1
    return best_metric, best_epoch, bad_epochs


@dataclass
class TrainResult:
    history: list[HistoryRow]
    best_epoch: int
    best_metric: float
    best_checkpoint: Path
    last_checkpoint: Path
    history_path: Path
    stopped_early: bool
    global_step: int


def _groups(src_lens: Sequence[int], tgt_lens: Sequence[int]) -> list[list[int]]:
    """Positions of consecutive examples in groups, given each example's
    source and summary (BOS ... EOS) lengths. A group closes before an
    example that would take its source rows, or its decoder-input rows,
    past MAX_SOURCE_TOKENS (see the module docstring)."""
    groups: list[list[int]] = []
    src_rows = tgt_rows = 0
    for i, (n, m) in enumerate(zip(src_lens, tgt_lens)):
        if not groups or src_rows + n > MAX_SOURCE_TOKENS or tgt_rows + m - 1 > MAX_SOURCE_TOKENS:
            groups.append([])
            src_rows = tgt_rows = 0
        groups[-1].append(i)
        src_rows, tgt_rows = src_rows + n, tgt_rows + m - 1
    return groups


def evaluate_loss(model: ScriptModel, split: Sequence[EncodedExample]) -> float:
    """Mean per-example loss without dropout, a group of examples at a
    time (see the module docstring)."""
    if not split:
        return float("nan")
    total = 0.0
    with no_grad():
        for rows in _groups([len(ex.src_ids) for ex in split], [len(ex.tgt_ids) for ex in split]):
            group = [split[i] for i in rows]
            losses = model.forward_loss([ex.src_ids for ex in group], [ex.bundle for ex in group],
                                        [ex.tgt_ids for ex in group])
            for value in losses.data.tolist():
                total += value
    return total / len(split)


def evaluate_bleu(
    model: ScriptModel,
    split: Sequence[EncodedExample],
    tgt_vocab: Vocabulary,
    max_len: int = 50,
    beam_size: int = 1,
) -> float:
    """Mean sentence BLEU of decoded summaries against the references."""
    if not split:
        return 0.0
    summaries = model.summarize_many([(ex.src_ids, ex.bundle) for ex in split], beam_size=beam_size, max_len=max_len)
    total = 0.0
    for ex, ids in zip(split, summaries):
        total += bleu4(EvalPair(candidate=tgt_vocab.decode(ids), references=[list(ex.summary_tokens)]))
    return total / len(split)


def _train_one_batch(
    model: ScriptModel,
    batch: Batch,
    cfg: TrainConfig,
    global_step: int,
) -> float:
    """Forward and backward of one batch, a group at a time (see the
    module docstring); returns the mean loss. Each parameter's gradient
    is the sum of its examples' gradients over the batch size, in batch
    order."""
    model.zero_grad()
    b = len(batch)
    batch_loss = 0.0
    for rows in _groups(batch.src_lens, batch.tgt_lens):
        indices = [batch.example_indices[i] for i in rows]
        losses = model.forward_loss(
            [batch.src_ids[i, : batch.src_lens[i]] for i in rows],
            [batch.bundles[i] for i in rows],
            [batch.tgt_ids[i, : batch.tgt_lens[i]] for i in rows],
            training=True,
            rng=[_example_rng(cfg.seed, global_step, index) for index in indices],
        )
        values = losses.data.tolist()
        for index, value in zip(indices, values):
            if not math.isfinite(value):
                raise NumericsError(
                    f"non-finite training loss {value!r} at step {global_step}, example {index}"
                )
        backward(sum_all(scale(losses, 1.0 / b)))
        for value in values:
            batch_loss += value / b
    return batch_loss


def train(
    model: ScriptModel,
    train_split: Sequence[Example],
    valid_split: Sequence[Example],
    cfg: TrainConfig,
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    out_dir,
    resume: bool = False,
    sidecar_extra: dict | None = None,
) -> TrainResult:
    """Run the full optimization loop, writing artifacts into out_dir.

    Artifacts: best.ckpt (+ best.json sidecar), last.ckpt (parameters plus
    optimizer state for resuming), history.csv, and both vocabulary files,
    each replaced whole. A resume takes the step and epoch counts from
    last.ckpt and the best/bad-epoch counters from history.csv. Raises
    NumericsError on a NaN/Inf loss, or on an overflow or invalid value in
    a step or in the validation loss.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    best_path = out_dir / "best.ckpt"
    last_path = out_dir / "last.ckpt"
    history_path = out_dir / "history.csv"

    enc_train = encode_examples(train_split, src_vocab, tgt_vocab)
    enc_valid = encode_examples(valid_split, src_vocab, tgt_vocab)
    steps_per_epoch = max(1, math.ceil(len(enc_train) / cfg.batch_size))
    total_steps = cfg.max_steps if cfg.max_steps is not None else steps_per_epoch * cfg.max_epochs

    optimizer = Adam(model, weight_decay=cfg.weight_decay)
    history: list[HistoryRow] = []
    start_epoch = 0

    if resume:
        arrays = load_checkpoint(last_path)
        model.load_state_dict(_model_params(arrays))
        try:
            optimizer.load_state_arrays(arrays)
            start_epoch = _state_count(arrays, EPOCH_KEY)
        except FormatError as exc:
            raise FormatError(f"{last_path}: {exc}") from exc
        del arrays  # frees the per-head arrays; their joined copies are kept
        history = _read_history(history_path)
        # one row past last.ckpt is an epoch killed before its last.ckpt
        # write: it is dropped and trained again
        epochs = [r.epoch for r in history]
        if epochs not in (list(range(1, start_epoch + 1)), list(range(1, start_epoch + 2))):
            raise FormatError(
                f"{history_path}: expected epochs 1 to {start_epoch} (or {start_epoch + 1}) "
                f"after last.ckpt's epoch {start_epoch}, got {epochs}"
            )
        history = history[:start_epoch]
    global_step = optimizer.step_count
    best_metric, best_epoch, bad_epochs = _rank(history, cfg.validate_by)

    sidecar = {
        **(sidecar_extra or {}),
        "src_vocab_digest": src_vocab.digest(),
        "tgt_vocab_digest": tgt_vocab.digest(),
        "train_config": cfg.to_dict(),
    }
    _replace_file(out_dir / "src_vocab.json", src_vocab.save)
    _replace_file(out_dir / "tgt_vocab.json", tgt_vocab.save)

    stopped_early = False
    for epoch in range(start_epoch + 1, cfg.max_epochs + 1):
        # a resumed run may already be at its step budget: it takes no step
        # and writes nothing
        if global_step >= total_steps:
            break
        t0 = time.perf_counter()
        batches = make_batches(
            enc_train,
            cfg.batch_size,
            shuffle_seed=_derived_seed(cfg.seed, epoch),
        )
        epoch_loss = 0.0
        n_batches = 0
        last_lr = lr_at_step(global_step, total_steps, cfg.lr, cfg.warmup_ratio)
        # an overflow or invalid value in a step or in validation is a
        # NumericsError, as inference_numerics makes it in decoding
        with np.errstate(over="raise", invalid="raise"):
            try:
                for batch in batches:
                    last_lr = lr_at_step(global_step, total_steps, cfg.lr, cfg.warmup_ratio)
                    epoch_loss += _train_one_batch(model, batch, cfg, global_step)
                    optimizer.step(last_lr)
                    global_step += 1
                    n_batches += 1
                    if global_step >= total_steps:
                        break
                valid_loss = evaluate_loss(model, enc_valid)
            except FloatingPointError as exc:
                raise NumericsError(f"{exc} in training epoch {epoch}, step {global_step}") from exc
        run_bleu = cfg.bleu_every > 0 and epoch % cfg.bleu_every == 0
        valid_bleu = evaluate_bleu(model, enc_valid, tgt_vocab) if run_bleu else None
        wall = time.perf_counter() - t0
        history.append(
            HistoryRow(
                epoch=epoch,
                train_loss=epoch_loss / max(1, n_batches),
                valid_loss=valid_loss,
                valid_bleu=valid_bleu,
                lr=last_lr,
                wall_seconds=wall,
            )
        )
        _replace_file(history_path, lambda tmp: write_history(tmp, history))

        best_metric, best_epoch, bad_epochs = _rank(history, cfg.validate_by)
        if best_epoch == epoch:
            _replace_file(best_path, lambda tmp: save_checkpoint(_param_views(model), tmp))
            _replace_file(
                out_dir / "best.json",
                lambda tmp: save_model_sidecar(tmp, model.config, {**sidecar, "epoch": epoch}),
            )
        run_state = {**optimizer.state_arrays(), EPOCH_KEY: np.array([epoch])}
        _replace_file(last_path, lambda tmp: save_checkpoint({**_param_views(model), **run_state}, tmp))

        if bad_epochs >= cfg.early_stop_patience:
            stopped_early = True
            break

    return TrainResult(
        history=history,
        best_epoch=best_epoch,
        best_metric=best_metric,
        best_checkpoint=best_path,
        last_checkpoint=last_path,
        history_path=history_path,
        stopped_early=stopped_early,
        global_step=global_step,
    )


def _read_history(path) -> list[HistoryRow]:
    path = Path(path)
    if not path.exists():
        return []
    reader = csv.DictReader(io.StringIO(read_text(path)))
    try:
        return [
            HistoryRow(
                epoch=int(rec["epoch"]),
                train_loss=float(rec["train_loss"]),
                valid_loss=float(rec["valid_loss"]),
                valid_bleu=float(rec["valid_bleu"]) if rec["valid_bleu"] else None,
                lr=float(rec["lr"]),
                wall_seconds=float(rec["wall_seconds"]),
            )
            for rec in reader
        ]
    except (KeyError, TypeError, ValueError, csv.Error) as exc:
        raise FormatError(f"{path}: invalid row {reader.line_num}: {exc}") from exc


def load_model_from_dir(out_dir, which: str = "best") -> tuple[ScriptModel, dict]:
    """Rebuild a model from a training directory's sidecar + checkpoint. The
    checkpoint's names and shapes are checked against the sidecar's config
    before any parameter is made, and no weights are drawn."""
    out_dir = Path(out_dir)
    config, payload = load_model_sidecar(out_dir / "best.json")
    arrays = load_checkpoint(out_dir / f"{which}.ckpt")
    return ScriptModel.from_state_dict(config, _model_params(arrays)), payload


__all__ = [
    "TrainConfig",
    "Adam",
    "HistoryRow",
    "TrainResult",
    "lr_at_step",
    "train",
    "write_history",
    "evaluate_loss",
    "evaluate_bleu",
    "load_model_from_dir",
]
