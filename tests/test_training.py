import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from scriptsum.checkpoint import save_checkpoint
from scriptsum.data import build_vocab, encode_examples, load_dataset, make_batches
from scriptsum.errors import ArtifactMismatchError, ConfigError, NumericsError
from scriptsum.model import ModelConfig, ScriptModel, save_model_sidecar
from scriptsum.training import (
    Adam,
    HistoryRow,
    TrainConfig,
    evaluate_bleu,
    evaluate_loss,
    evaluate_token_accuracy,
    load_model_from_dir,
    lr_at_step,
    train,
    write_history,
)
from scriptsum.training import _read_history

from conftest import tiny_config


def training_setup(toy_corpus_path, n_examples=6, **model_overrides):
    # distance clip must match the model's bucket table size (tiny_config l=4)
    examples = load_dataset(toy_corpus_path, distance_clip=4)[:n_examples]
    src, tgt = build_vocab(examples)
    overrides = dict(src_vocab_size=len(src), tgt_vocab_size=len(tgt))
    overrides.update(model_overrides)
    cfg = tiny_config(**overrides)
    return examples, src, tgt, ScriptModel(cfg, seed=0)


class TestTrainConfig:
    def test_defaults_follow_recipe(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 32
        assert cfg.warmup_ratio == 0.06
        assert cfg.weight_decay == 0.01
        assert cfg.max_epochs == 200
        assert cfg.early_stop_patience == 20

    def test_zero_lr_allowed(self):
        assert TrainConfig(lr=0.0).lr == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(lr=-1e-4)
        with pytest.raises(ConfigError):
            TrainConfig(warmup_ratio=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(weight_decay=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(max_epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(early_stop_patience=-1)
        with pytest.raises(ConfigError):
            TrainConfig(validate_by="accuracy")
        with pytest.raises(ConfigError):
            TrainConfig(validate_by="bleu", bleu_every=2)
        with pytest.raises(ConfigError):
            TrainConfig(max_steps=0)

    def test_to_dict_is_json_ready(self):
        payload = TrainConfig().to_dict()
        json.dumps(payload)
        assert payload["lr"] == 1e-4


class TestAdam:
    def make_model(self):
        return ScriptModel(tiny_config(), seed=0)

    def test_zero_lr_is_identity(self):
        model = self.make_model()
        before = model.state_dict()
        for p in model.params.values():
            p.grad = np.ones_like(p.data)
        Adam(model).step(0.0)
        after = model.state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_first_step_is_signed_unit_update(self):
        model = self.make_model()
        opt = Adam(model, weight_decay=0.0)
        before = model.state_dict()
        for p in model.params.values():
            p.grad = np.full_like(p.data, 2.0)
        opt.step(0.1)
        after = model.state_dict()
        for k in before:
            # bias correction makes the first update lr * g/(|g|+eps)
            assert np.allclose(before[k] - after[k], 0.1, atol=1e-6)

    def test_weight_decay_skips_vectors(self):
        model = self.make_model()
        opt = Adam(model, weight_decay=0.5)
        before = model.state_dict()
        for p in model.params.values():
            p.grad = np.zeros_like(p.data)
        opt.step(0.1)
        after = model.state_dict()
        for name, old in before.items():
            if old.ndim >= 2:
                assert np.allclose(after[name], old * (1.0 - 0.1 * 0.5))
            else:
                assert np.array_equal(after[name], old)

    def test_state_round_trip(self):
        model = self.make_model()
        opt = Adam(model)
        for p in model.params.values():
            p.grad = np.ones_like(p.data)
        opt.step(0.01)
        arrays = {k: v.copy() for k, v in opt.state_arrays().items()}
        fresh = Adam(self.make_model())
        fresh.load_state_arrays(arrays)
        assert fresh.step_count == 1
        name = next(iter(opt.m))
        assert np.array_equal(fresh.m[name], opt.m[name])
        assert np.array_equal(fresh.v[name], opt.v[name])


class TestLrSchedule:
    def test_linear_warmup(self):
        # total 100, ratio 0.06 -> 6 warmup steps
        lrs = [lr_at_step(s, 100, 1.0, 0.06) for s in range(6)]
        assert np.allclose(lrs, [1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6, 1.0])

    def test_linear_decay_to_zero(self):
        assert lr_at_step(99, 100, 1.0, 0.06) == pytest.approx(1 / 94)
        assert lr_at_step(100, 100, 1.0, 0.06) == pytest.approx(0.0)

    def test_zero_ratio_still_warms_one_step(self):
        assert lr_at_step(0, 10, 1.0, 0.0) == 1.0
        assert lr_at_step(5, 10, 1.0, 0.0) == pytest.approx(5 / 9)

    def test_tiny_budget(self):
        assert lr_at_step(0, 1, 0.5, 0.06) == 0.5


class TestHistoryFile:
    def test_round_trip(self, tmp_path):
        rows = [
            HistoryRow(1, 1.5, 1.25, 0.125, 3e-3, 2.5),
            HistoryRow(2, 0.3333333333333333, 1.1, None, 2.9e-3, 2.4),
        ]
        path = tmp_path / "history.csv"
        write_history(path, rows)
        text = path.read_text()
        assert text.splitlines()[0] == "epoch,train_loss,valid_loss,valid_bleu,lr,wall_seconds"
        back = _read_history(path)
        assert back == rows

    def test_missing_file_reads_empty(self, tmp_path):
        assert _read_history(tmp_path / "nope.csv") == []


class TestEvaluation:
    @pytest.mark.parametrize("mask_mode", ["multiply", "neg_inf"])
    def test_padding_never_leaks_into_losses(self, toy_corpus_path, mask_mode):
        # the first three examples all have 7 tokens; the next two pad each layout
        examples, src, tgt, model = training_setup(toy_corpus_path, 5, mask_mode=mask_mode)
        split = encode_examples(examples, src, tgt)
        direct = [
            float(model.forward_loss(ex.src_ids, ex.bundle, ex.tgt_ids).data)
            for ex in split
        ]
        # two batch layouts with different amounts of padding
        for batch_size in (2, 3):
            for batch in make_batches(split, batch_size):
                for row, ex_idx in enumerate(batch.example_indices):
                    tgt_ids = batch.tgt_ids[row, : batch.tgt_lens[row]]
                    loss = model.forward_loss(
                        batch.src_ids[row],
                        batch.example_bundle(row),
                        tgt_ids,
                        mask=batch.src_mask[row],
                    )
                    assert abs(float(loss.data) - direct[ex_idx]) <= 1e-9

    def test_evaluate_loss_matches_forward(self, toy_corpus_path):
        examples, src, tgt, model = training_setup(toy_corpus_path, 4)
        split = encode_examples(examples, src, tgt)
        manual = np.mean(
            [float(model.forward_loss(e.src_ids, e.bundle, e.tgt_ids).data) for e in split]
        )
        assert evaluate_loss(model, split) == pytest.approx(manual, abs=1e-12)

    def test_empty_split_conventions(self, toy_corpus_path):
        _, src, tgt, model = training_setup(toy_corpus_path, 2)
        assert math.isnan(evaluate_loss(model, []))
        assert evaluate_bleu(model, [], tgt) == 0.0
        assert evaluate_token_accuracy(model, []) == 0.0

    def test_token_accuracy_bounds(self, toy_corpus_path):
        examples, src, tgt, model = training_setup(toy_corpus_path, 4)
        split = encode_examples(examples, src, tgt)
        acc = evaluate_token_accuracy(model, split)
        assert 0.0 <= acc <= 1.0


class TestTrainLoop:
    def quick_cfg(self, **overrides):
        base = dict(
            batch_size=3,
            lr=1e-3,
            max_epochs=2,
            early_stop_patience=10,
            seed=0,
            bleu_every=0,
        )
        base.update(overrides)
        return TrainConfig(**base)

    def test_artifacts_written(self, toy_corpus_path, tmp_path):
        examples, src, tgt, model = training_setup(toy_corpus_path)
        result = train(model, examples, examples[:2], self.quick_cfg(), src, tgt, tmp_path)
        for name in (
            "best.ckpt",
            "best.json",
            "last.ckpt",
            "state.json",
            "history.csv",
            "src_vocab.json",
            "tgt_vocab.json",
        ):
            assert (tmp_path / name).exists(), name
        assert [r.epoch for r in result.history] == [1, 2]
        sidecar = json.loads((tmp_path / "best.json").read_text())
        assert sidecar["src_vocab_digest"] == src.digest()
        assert sidecar["tgt_vocab_digest"] == tgt.digest()
        assert sidecar["train_config"]["batch_size"] == 3
        assert sidecar["model_config"]["layer_plan"] == ["RDW", "SRPEi"]
        state = json.loads((tmp_path / "state.json").read_text())
        assert state["epoch"] == 2
        assert state["global_step"] == result.global_step

    def test_zero_lr_leaves_parameters_untouched(self, toy_corpus_path, tmp_path):
        examples, src, tgt, model = training_setup(toy_corpus_path, 4)
        before = model.state_dict()
        train(
            model,
            examples,
            examples[:2],
            self.quick_cfg(lr=0.0, max_epochs=1),
            src,
            tgt,
            tmp_path,
        )
        after = model.state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_zero_patience_runs_exactly_one_epoch(self, toy_corpus_path, tmp_path):
        examples, src, tgt, model = training_setup(toy_corpus_path, 4)
        result = train(
            model,
            examples,
            examples[:2],
            self.quick_cfg(early_stop_patience=0, max_epochs=50),
            src,
            tgt,
            tmp_path,
        )
        assert len(result.history) == 1
        assert result.stopped_early

    def test_loss_strictly_decreases_over_first_twenty_steps(
        self, toy_corpus_path, tmp_path
    ):
        examples = load_dataset(toy_corpus_path)
        src, tgt = build_vocab(examples)
        cfg = ModelConfig(
            src_vocab_size=len(src),
            tgt_vocab_size=len(tgt),
            d_model=64,
            n_heads=4,
            n_script_modules=1,
            n_decoder_layers=1,
            ffn_dim=128,
            dropout_p=0.0,
            l=8,
            k=16,
        )
        model = ScriptModel(cfg, seed=0)
        # full-batch: one optimizer step per epoch, so twenty epochs = twenty steps
        tc = TrainConfig(
            batch_size=32, lr=1e-4, max_epochs=20, early_stop_patience=20, seed=0, bleu_every=0
        )
        result = train(model, examples, examples[:4], tc, src, tgt, tmp_path)
        losses = [r.train_loss for r in result.history]
        assert len(losses) == 20
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_non_finite_loss_aborts(self, toy_corpus_path, tmp_path):
        examples, src, tgt, model = training_setup(toy_corpus_path, 3)
        model.params["src_embed"].data[:] = np.nan
        with pytest.raises(NumericsError):
            train(model, examples, examples[:1], self.quick_cfg(), src, tgt, tmp_path)

    def test_best_checkpoint_tracks_minimum_validation_loss(
        self, toy_corpus_path, tmp_path
    ):
        examples, src, tgt, model = training_setup(toy_corpus_path)
        result = train(
            model,
            examples,
            examples,
            self.quick_cfg(max_epochs=4),
            src,
            tgt,
            tmp_path,
        )
        valid_losses = [r.valid_loss for r in result.history]
        assert result.best_metric == min(valid_losses)
        assert result.history[result.best_epoch - 1].valid_loss == result.best_metric
        best_model, payload = load_model_from_dir(tmp_path, which="best")
        split = encode_examples(examples, src, tgt)
        assert evaluate_loss(best_model, split) == pytest.approx(result.best_metric, abs=1e-12)

    def test_sidecar_mismatch_refused_before_building(self, tmp_path):
        # a best.json edited to a wide model must fail on the checkpoint's
        # shapes, not after making a model of that width
        save_checkpoint(ScriptModel(tiny_config(), seed=0).state_dict(), tmp_path / "best.ckpt")
        save_model_sidecar(tmp_path / "best.json", tiny_config(d_model=2048, ffn_dim=8192))
        tracemalloc.start()
        try:
            with pytest.raises(ArtifactMismatchError, match="'src_embed' has shape"):
                load_model_from_dir(tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_max_steps_caps_run(self, toy_corpus_path, tmp_path):
        examples, src, tgt, model = training_setup(toy_corpus_path)
        result = train(
            model,
            examples,
            examples[:2],
            self.quick_cfg(max_epochs=50, max_steps=3),
            src,
            tgt,
            tmp_path,
        )
        assert result.global_step == 3

    def test_validate_by_bleu_negates_metric(self, toy_corpus_path, tmp_path):
        examples, src, tgt, model = training_setup(toy_corpus_path, 3)
        result = train(
            model,
            examples,
            examples[:2],
            self.quick_cfg(validate_by="bleu", bleu_every=1, max_epochs=2),
            src,
            tgt,
            tmp_path,
        )
        bleus = [r.valid_bleu for r in result.history]
        assert all(b is not None for b in bleus)
        assert result.best_metric == -max(bleus)

    def test_resume_retraces_uninterrupted_run(self, toy_corpus_path, tmp_path):
        total_epochs = 4
        straight_dir = tmp_path / "straight"
        phased_dir = tmp_path / "phased"

        examples, src, tgt, model_a = training_setup(toy_corpus_path)
        cfg = self.quick_cfg(max_epochs=total_epochs, early_stop_patience=10)
        result_a = train(model_a, examples, examples[:2], cfg, src, tgt, straight_dir)
        assert len(result_a.history) == total_epochs

        # interrupted run: patience=0 halts after every epoch; resuming picks
        # up from last.ckpt with the same schedule because max_epochs is shared
        stop_cfg = replace(cfg, early_stop_patience=0)
        _, _, _, model_b = training_setup(toy_corpus_path)
        train(model_b, examples, examples[:2], stop_cfg, src, tgt, phased_dir)
        for _ in range(total_epochs - 1):
            _, _, _, fresh = training_setup(toy_corpus_path)
            train(
                fresh,
                examples,
                examples[:2],
                stop_cfg,
                src,
                tgt,
                phased_dir,
                resume=True,
            )

        hist_a = _read_history(straight_dir / "history.csv")
        hist_b = _read_history(phased_dir / "history.csv")
        assert len(hist_b) == total_epochs
        for ra, rb in zip(hist_a, hist_b):
            assert ra.epoch == rb.epoch
            assert ra.train_loss == rb.train_loss
            assert ra.valid_loss == rb.valid_loss
            assert ra.valid_bleu == rb.valid_bleu
            assert ra.lr == rb.lr
        assert (straight_dir / "best.ckpt").read_bytes() == (
            phased_dir / "best.ckpt"
        ).read_bytes()
        assert (straight_dir / "last.ckpt").read_bytes() == (
            phased_dir / "last.ckpt"
        ).read_bytes()
        state_a = json.loads((straight_dir / "state.json").read_text())
        state_b = json.loads((phased_dir / "state.json").read_text())
        assert state_a == state_b

    def test_fixed_seed_reproduces_checkpoint_bytes(self, toy_corpus_path, tmp_path):
        cfg = self.quick_cfg(max_epochs=2)
        paths = []
        for run in ("a", "b"):
            examples, src, tgt, model = training_setup(toy_corpus_path)
            out = tmp_path / run
            train(model, examples, examples[:2], cfg, src, tgt, out)
            paths.append(out)
        a, b = paths
        assert (a / "best.ckpt").read_bytes() == (b / "best.ckpt").read_bytes()
        assert (a / "last.ckpt").read_bytes() == (b / "last.ckpt").read_bytes()
        hist_a = _read_history(a / "history.csv")
        hist_b = _read_history(b / "history.csv")
        for ra, rb in zip(hist_a, hist_b):
            assert (ra.epoch, ra.train_loss, ra.valid_loss, ra.lr) == (
                rb.epoch,
                rb.train_loss,
                rb.valid_loss,
                rb.lr,
            )
