"""Optimizer, learning-rate schedule, and the training loop.

The optimizer is Adam with decoupled weight decay applied to matrices only
(biases and layernorm parameters are exempt). The learning rate warms up
linearly over a fixed fraction of the total step budget, then decays
linearly to zero. Early stopping watches validation loss (or BLEU) with a
patience counter; the best checkpoint and a resumable last checkpoint are
written every epoch together with a CSV history.

All randomness is counter-based: the shuffle order is seeded by (seed,
epoch) and every dropout pass by (seed, step, batch row), so an
interrupted run resumed from the last checkpoint retraces the exact same
computation. Masks are drawn at the padded length, so an example's dropout
depends on its batch partners (ROADMAP open item 5).
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .checkpoint import _is_count, load_checkpoint, save_checkpoint
from .data import (
    Batch,
    EncodedExample,
    Example,
    Vocabulary,
    encode_examples,
    make_batches,
)
from .errors import ConfigError, FormatError, NumericsError
from .metrics import EvalPair, bleu4
from .model import ModelConfig, ScriptModel, load_model_sidecar, save_model_sidecar
from .tensor import backward, no_grad, scale

HISTORY_COLUMNS = ("epoch", "train_loss", "valid_loss", "valid_bleu", "lr", "wall_seconds")


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
    sort_by_length: bool = False

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr < 0:
            raise ConfigError(f"lr must be non-negative, got {self.lr}")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ConfigError(f"warmup_ratio must be in [0, 1), got {self.warmup_ratio}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be non-negative, got {self.weight_decay}")
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


class Adam:
    """Adam with decoupled weight decay on parameters of rank >= 2."""

    def __init__(
        self,
        model: ScriptModel,
        weight_decay: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.model = model
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in model.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in model.params.items()}

    def step(self, lr: float) -> None:
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for name, p in self.model.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay and p.data.ndim >= 2:
                update = update + self.weight_decay * p.data
            p.data = p.data - lr * update

    def state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {"adam.step": np.array([float(self.step_count)])}
        for name in self.m:
            out[f"adam.m.{name}"] = self.m[name]
            out[f"adam.v.{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Restore the step count and moments; FormatError, changing nothing,
        unless adam.step holds one non-negative integer and every moment
        is finite with its parameter's shape, and v >= 0."""

        def array(key: str, shape: tuple[int, ...]) -> np.ndarray:
            if key not in arrays:
                raise FormatError(f"missing optimizer state {key!r}")
            arr = np.asarray(arrays[key], dtype=np.float64)
            if arr.shape != shape:
                raise FormatError(f"optimizer state {key!r} has shape {arr.shape}, expected {shape}")
            if not np.isfinite(arr).all():
                raise FormatError(f"optimizer state {key!r} holds a value that is not finite")
            return arr.copy()

        step = float(array("adam.step", (1,))[0])
        if step < 0 or step != math.floor(step):
            raise FormatError(f"optimizer state 'adam.step' must be a non-negative integer, got {step!r}")
        m, v = {}, {}
        for name, p in self.model.params.items():
            m[name] = array(f"adam.m.{name}", p.data.shape)
            v[name] = array(f"adam.v.{name}", p.data.shape)
            if (v[name] < 0).any():
                raise FormatError(f"optimizer state 'adam.v.{name}' holds a negative value")
        self.step_count, self.m, self.v = int(step), m, v


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


def write_history(path, rows: Sequence[HistoryRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_COLUMNS)
        for r in rows:
            writer.writerow(
                [
                    r.epoch,
                    repr(r.train_loss),
                    repr(r.valid_loss),
                    "" if r.valid_bleu is None else repr(r.valid_bleu),
                    repr(r.lr),
                    repr(r.wall_seconds),
                ]
            )


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


def evaluate_loss(model: ScriptModel, split: Sequence[EncodedExample]) -> float:
    """Mean per-example loss without dropout."""
    if not split:
        return float("nan")
    total = 0.0
    with no_grad():
        for ex in split:
            loss = model.forward_loss(ex.src_ids, ex.bundle, ex.tgt_ids)
            total += float(loss.data)
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
    total = 0.0
    for ex in split:
        ids = model.summarize(ex.src_ids, ex.bundle, beam_size=beam_size, max_len=max_len)
        candidate = tgt_vocab.decode(ids)
        total += bleu4(EvalPair(candidate=candidate, references=[list(ex.summary_tokens)]))
    return total / len(split)


def evaluate_token_accuracy(model: ScriptModel, split: Sequence[EncodedExample]) -> float:
    """Teacher-forced next-token accuracy over a split."""
    correct = 0
    total = 0
    with no_grad():
        for ex in split:
            state = model.script_encoder(ex.src_ids, ex.bundle)
            logits = model.decode(ex.tgt_ids[:-1], state)
            pred = logits.data.argmax(axis=1)
            correct += int((pred == ex.tgt_ids[1:]).sum())
            total += len(ex.tgt_ids) - 1
    return correct / total if total else 0.0


def _train_one_batch(
    model: ScriptModel,
    batch: Batch,
    cfg: TrainConfig,
    global_step: int,
) -> float:
    model.zero_grad()
    b = len(batch)
    batch_loss = 0.0
    for i in range(b):
        rng = _example_rng(cfg.seed, global_step, i)
        tgt = batch.tgt_ids[i, : batch.tgt_lens[i]]
        loss = model.forward_loss(
            batch.src_ids[i],
            batch.example_bundle(i),
            tgt,
            mask=batch.src_mask[i],
            training=True,
            rng=rng,
        )
        value = float(loss.data)
        if not math.isfinite(value):
            raise NumericsError(
                f"non-finite training loss {value!r} at step {global_step}, batch row {i}"
            )
        backward(scale(loss, 1.0 / b))
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
    optimizer state for resuming), state.json, history.csv, and both
    vocabulary files. Raises NumericsError on a NaN/Inf loss.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    best_path = out_dir / "best.ckpt"
    last_path = out_dir / "last.ckpt"
    history_path = out_dir / "history.csv"
    state_path = out_dir / "state.json"

    enc_train = encode_examples(train_split, src_vocab, tgt_vocab)
    enc_valid = encode_examples(valid_split, src_vocab, tgt_vocab)
    steps_per_epoch = max(1, math.ceil(len(enc_train) / cfg.batch_size))
    total_steps = cfg.max_steps if cfg.max_steps is not None else steps_per_epoch * cfg.max_epochs

    optimizer = Adam(model, weight_decay=cfg.weight_decay)
    history: list[HistoryRow] = []
    global_step = 0
    start_epoch = 0
    best_metric = math.inf
    best_epoch = 0
    bad_epochs = 0

    if resume:
        arrays = load_checkpoint(last_path)
        params = {k: v for k, v in arrays.items() if not k.startswith("adam.")}
        model.load_state_dict(params)
        try:
            optimizer.load_state_arrays(arrays)
        except FormatError as exc:
            raise FormatError(f"{last_path}: {exc}") from exc
        start_epoch, global_step, best_epoch, bad_epochs, best_metric = _read_state(state_path)
        history = _read_history(history_path)

    vocab_digests = {
        "src_vocab_digest": src_vocab.digest(),
        "tgt_vocab_digest": tgt_vocab.digest(),
    }
    if sidecar_extra:
        vocab_digests = {**sidecar_extra, **vocab_digests}
    src_vocab.save(out_dir / "src_vocab.json")
    tgt_vocab.save(out_dir / "tgt_vocab.json")

    stopped_early = False
    reached_step_cap = False
    for epoch in range(start_epoch + 1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        batches = make_batches(
            enc_train,
            cfg.batch_size,
            sort_by_length=cfg.sort_by_length,
            shuffle_seed=_derived_seed(cfg.seed, epoch),
        )
        epoch_loss = 0.0
        n_batches = 0
        last_lr = lr_at_step(global_step, total_steps, cfg.lr, cfg.warmup_ratio)
        for batch in batches:
            last_lr = lr_at_step(global_step, total_steps, cfg.lr, cfg.warmup_ratio)
            epoch_loss += _train_one_batch(model, batch, cfg, global_step)
            optimizer.step(last_lr)
            global_step += 1
            n_batches += 1
            if cfg.max_steps is not None and global_step >= cfg.max_steps:
                reached_step_cap = True
                break
        valid_loss = evaluate_loss(model, enc_valid)
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
        write_history(history_path, history)

        if cfg.validate_by == "loss":
            metric = valid_loss
        else:
            metric = -(valid_bleu if valid_bleu is not None else 0.0)
        if math.isnan(metric):
            metric = math.inf
        if metric < best_metric:
            best_metric = metric
            best_epoch = epoch
            bad_epochs = 0
            save_checkpoint(model.state_dict(), best_path)
            save_model_sidecar(
                out_dir / "best.json",
                model.config,
                extra={**vocab_digests, "train_config": cfg.to_dict(), "epoch": epoch},
            )
        else:
            bad_epochs += 1

        save_checkpoint({**model.state_dict(), **optimizer.state_arrays()}, last_path)
        with open(state_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "epoch": epoch,
                    "global_step": global_step,
                    "best_metric": best_metric,
                    "best_epoch": best_epoch,
                    "bad_epochs": bad_epochs,
                },
                fh,
                indent=2,
            )
            fh.write("\n")

        if bad_epochs >= cfg.early_stop_patience:
            stopped_early = True
            break
        if reached_step_cap:
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


def _read_state(path) -> tuple[int, int, int, int, float]:
    """Epoch, global step, best epoch, bad epochs and best metric from a
    resumed run's state.json; FormatError naming the file unless it is an
    object of non-negative integer counters and a numeric best_metric."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            saved = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(saved, dict):
        raise FormatError(f"{path}: must be a JSON object")
    counters = [saved.get(k) for k in ("epoch", "global_step", "best_epoch", "bad_epochs")]
    if not all(_is_count(v) for v in counters):
        raise FormatError(f"{path}: counters must be non-negative integers, got {counters}")
    best = saved.get("best_metric")
    if isinstance(best, bool) or not isinstance(best, (int, float)) or math.isnan(best):
        raise FormatError(f"{path}: best_metric must be a number, got {best!r}")
    return (*counters, best)


def _read_history(path) -> list[HistoryRow]:
    path = Path(path)
    if not path.exists():
        return []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
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
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: invalid row {reader.line_num}: {exc}") from exc


def load_model_from_dir(out_dir, which: str = "best") -> tuple[ScriptModel, dict]:
    """Rebuild a model from a training directory's sidecar + checkpoint. The
    checkpoint's names and shapes are checked against the sidecar's config
    before any parameter is made, and no weights are drawn."""
    out_dir = Path(out_dir)
    config, payload = load_model_sidecar(out_dir / "best.json")
    arrays = load_checkpoint(out_dir / f"{which}.ckpt")
    params = {k: v for k, v in arrays.items() if not k.startswith("adam.")}
    return ScriptModel.from_state_dict(config, params), payload


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
    "evaluate_token_accuracy",
    "load_model_from_dir",
]
