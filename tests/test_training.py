import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from scriptsum import model as scriptsum_model, training
from scriptsum.checkpoint import save_checkpoint
from scriptsum.data import (
    BOS_ID,
    EOS_ID,
    EncodedExample,
    _pad_batch,
    build_vocab,
    encode_examples,
    load_dataset,
    make_batches,
)
from scriptsum.errors import ArtifactMismatchError, ConfigError, NumericsError
from scriptsum.model import ModelConfig, ScriptModel, ablation_layer_plan, example_groups, save_model_sidecar
from scriptsum.training import (
    Adam,
    HistoryRow,
    TrainConfig,
    evaluate_bleu,
    evaluate_loss,
    load_model_from_dir,
    lr_at_step,
    train,
    write_history,
)
from scriptsum.training import _read_history, _train_one_batch

from conftest import random_bundle, tiny_config
from oracles import evaluate_token_accuracy, per_example_batch


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
                    loss = model.forward_loss(
                        batch.src_ids[row, : batch.src_lens[row]],
                        batch.bundles[row],
                        batch.tgt_ids[row, : batch.tgt_lens[row]],
                    )
                    assert float(loss.data) == direct[ex_idx]

    def test_evaluate_loss_matches_forward(self, toy_corpus_path):
        examples, src, tgt, model = training_setup(toy_corpus_path, 4)
        split = encode_examples(examples, src, tgt)
        manual = np.mean(
            [float(model.forward_loss(e.src_ids, e.bundle, e.tgt_ids).data) for e in split]
        )
        assert evaluate_loss(model, split) == manual

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


# the criterion-9 ablations and srpe placements, and the other mask mode
GROUPED_VARIANTS = {
    "full": {},
    "no_rdw": dict(layer_plan=ablation_layer_plan(2, "rdw")),
    "no_srpei": dict(layer_plan=ablation_layer_plan(2, "srpei")),
    "place_rdw_only": dict(srpe_placement="RDW_only"),
    "place_all": dict(srpe_placement="all"),
    "neg_inf": dict(mask_mode="neg_inf"),
}


def grouped_setup(toy_corpus_path, **overrides):
    """The toy split and a two-module, two-decoder-layer model with dropout 0.2."""
    examples, src, tgt, model = training_setup(toy_corpus_path, 32, d_model=16, dropout_p=0.2, n_script_modules=2,
                                               n_decoder_layers=2, **overrides)
    return encode_examples(examples, src, tgt), model


def tiny_examples(model, seed: int = 0) -> list[EncodedExample]:
    """A one-token source with an empty summary (one decoder-input row),
    and a one-token source with a one-token summary."""
    rng = np.random.default_rng(seed)
    return [EncodedExample(np.array([7]), np.array(ids), random_bundle(rng, 1), ())
            for ids in ([BOS_ID, EOS_ID], [BOS_ID, 8, EOS_ID])]


def check_against_oracle(model, batch, step: int = 3, seed: int = 5) -> list[np.ndarray]:
    """Train batch as groups, and as one graph per example
    (oracles.per_example_batch), from two copies of model's parameters,
    then take one Adam step on each. The batch loss, each example's loss,
    every gradient, and every parameter and moment after the step must
    be the same bytes, signed zeros included. Returns each group's losses."""
    grouped, reference = (ScriptModel.from_state_dict(model.config, model.state_dict()) for _ in range(2))
    seen = []

    def record(*args, **kwargs):
        losses = ScriptModel.forward_loss(grouped, *args, **kwargs)
        seen.append(losses.data.copy())
        return losses

    grouped.forward_loss = record
    cfg = TrainConfig(seed=seed)
    loss = _train_one_batch(grouped, batch, cfg, step)
    ref_loss, ref_losses = per_example_batch(reference, batch, cfg, step)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert np.concatenate(seen).tobytes() == np.array(ref_losses).tobytes()
    for name, p in reference.params.items():
        assert p.grad is not None and grouped.params[name].grad.tobytes() == p.grad.tobytes(), name
    adams = [Adam(m) for m in (grouped, reference)]
    for adam in adams:
        adam.step(1e-2)
    for name, p in reference.params.items():
        assert grouped.params[name].data.tobytes() == p.data.tobytes(), name
        assert adams[0].m[name].tobytes() == adams[1].m[name].tobytes(), name
        assert adams[0].v[name].tobytes() == adams[1].v[name].tobytes(), name
    return seen


class TestPartnerIndependence:
    def test_loss_and_gradient_ignore_partners_and_row(self, toy_corpus_path):
        """Example 0 alone, next to the longest toy example and in row 1:
        each batch, run as one group, equals one graph per example bit for
        bit, and example 0's loss is the same bytes in all three."""
        split, model = grouped_setup(toy_corpus_path)
        longest = max(range(len(split)), key=lambda i: len(split[i].src_ids))
        assert len(split[longest].src_ids) > len(split[0].src_ids)
        own = []
        for rows in ([0], [0, longest], [longest, 0]):
            [losses] = check_against_oracle(model, _pad_batch(split, rows))
            own.append(losses[rows.index(0)].tobytes())
        assert own[0] == own[1] == own[2]

    @pytest.mark.parametrize("variant", list(GROUPED_VARIANTS))
    def test_variants_match_one_graph_per_example(self, toy_corpus_path, variant, monkeypatch):
        """Every ablation, placement and mask mode, with dropout: a batch of
        eight toy examples and two one-token sources, one of them with an
        empty summary, as one group; then with the row cap lowered so that
        the same batch splits into several groups."""
        split, model = grouped_setup(toy_corpus_path, **GROUPED_VARIANTS[variant])
        split += tiny_examples(model)
        rows = [32, 5, 0, 17, 33, 9, 2, 28, 11, 30]
        assert len(check_against_oracle(model, _pad_batch(split, rows))) == 1
        monkeypatch.setattr(scriptsum_model, "MAX_SOURCE_TOKENS", 30)
        assert len(check_against_oracle(model, _pad_batch(split, rows))) > 2

    def test_long_sources_split_into_groups(self):
        """Two sources whose rows sum past MAX_SOURCE_TOKENS train as two
        groups, and still equal one graph per example."""
        rng = np.random.default_rng(3)
        model = ScriptModel(tiny_config(dropout_p=0.2, mask_mode="neg_inf"), seed=1)
        split = [EncodedExample(rng.integers(0, 13, n), np.array([BOS_ID, 6, 7, EOS_ID]), random_bundle(rng, n), ())
                 for n in (210, 195)]
        assert [len(group) for group in check_against_oracle(model, _pad_batch(split, [0, 1]))] == [1, 1]
        assert example_groups([210, 190, 9], [3, 3, 3]) == [[0, 1], [2]]
        assert example_groups([3, 3, 3], [299, 102, 100]) == [[0], [1, 2]]


class TestGroupMemory:
    @staticmethod
    def traced_peak(model, batch) -> int:
        tracemalloc.start()
        try:
            _train_one_batch(model, batch, TrainConfig(), 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_two_long_sources_never_hold_two_graphs(self):
        """Sources of 210 and 195 tokens are two groups, and the first
        group's graph is freed before the second is built: the batch peaks
        within 1.1x of the longer example alone (one group of both would
        hold both graphs, about 1.9x)."""
        rng = np.random.default_rng(4)
        model = ScriptModel(tiny_config(d_model=16, ffn_dim=32, dropout_p=0.2), seed=0)
        split = [EncodedExample(rng.integers(0, 13, n), np.array([BOS_ID, 6, 7, EOS_ID]), random_bundle(rng, n), ())
                 for n in (210, 195)]
        alone = self.traced_peak(model, _pad_batch(split, [0]))
        both = self.traced_peak(model, _pad_batch(split, [0, 1]))
        assert both < 1.1 * alone

    def test_toy_batch_peak(self, toy_corpus_path):
        """The README model on a batch of the eight longest toy examples,
        one group, peaks under 14 MiB traced: 10.9 MiB measured with numpy
        2.4.6, against 3.6 MiB with one graph at a time."""
        examples = load_dataset(toy_corpus_path, distance_clip=8)
        src, tgt = build_vocab(examples)
        split = encode_examples(examples, src, tgt)
        model = ScriptModel(ModelConfig(src_vocab_size=len(src), tgt_vocab_size=len(tgt), d_model=64, n_heads=4,
                                        n_script_modules=1, n_decoder_layers=2, ffn_dim=256, dropout_p=0.2,
                                        l=8, k=16), seed=0)
        rows = sorted(range(len(split)), key=lambda i: -len(split[i].src_ids))[:8]
        assert self.traced_peak(model, _pad_batch(split, rows)) < 14 * 2**20


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
        # every file is in place under its own name: no temporary is left
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "best.ckpt",
            "best.json",
            "history.csv",
            "last.ckpt",
            "src_vocab.json",
            "tgt_vocab.json",
        ]
        assert [r.epoch for r in result.history] == [1, 2]
        sidecar = json.loads((tmp_path / "best.json").read_text())
        assert sidecar["src_vocab_digest"] == src.digest()
        assert sidecar["tgt_vocab_digest"] == tgt.digest()
        assert sidecar["train_config"]["batch_size"] == 3
        assert sidecar["model_config"]["layer_plan"] == ["RDW", "SRPEi"]
        assert result.global_step == 4

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
        # seed 1 shuffles example 1 into the first batch's first row
        with pytest.raises(NumericsError, match=r"^non-finite training loss nan at step 0, example 1$"):
            train(model, examples, examples[:1], self.quick_cfg(seed=1), src, tgt, tmp_path)

    def test_overflow_in_training_aborts(self, toy_corpus_path, tmp_path):
        # finite but huge embeddings overflow in the first layer
        examples, src, tgt, model = training_setup(toy_corpus_path, 3)
        model.params["src_embed"].data[:] = 1e200
        with pytest.raises(NumericsError, match=r"^overflow encountered in \w+ in training epoch 1, step 0$"):
            train(model, examples, examples[:1], self.quick_cfg(seed=1), src, tgt, tmp_path)

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

    @pytest.mark.parametrize("resume_steps", [3, 2])
    def test_resume_at_step_budget_takes_no_step(self, toy_corpus_path, tmp_path, resume_steps):
        # 6 examples in batches of 3: the 3-step run ends one step into epoch 2
        examples, src, tgt, model = training_setup(toy_corpus_path)
        cfg = self.quick_cfg(max_epochs=50, max_steps=3)
        train(model, examples, examples[:2], cfg, src, tgt, tmp_path)
        names = ("last.ckpt", "best.ckpt", "history.csv")
        before = {name: (tmp_path / name).read_bytes() for name in names}

        _, _, _, fresh = training_setup(toy_corpus_path)
        result = train(
            fresh,
            examples,
            examples[:2],
            replace(cfg, max_steps=resume_steps),
            src,
            tgt,
            tmp_path,
            resume=True,
        )
        assert result.global_step == 3
        assert [row.epoch for row in result.history] == [1, 2]
        assert {name: (tmp_path / name).read_bytes() for name in names} == before

    def test_resumes_after_cut_epochs_keep_every_finished_epoch(self, toy_corpus_path, tmp_path):
        # 6 examples in batches of 3: each run stops one step into an epoch,
        # so epochs 2 to 4 take one step each
        examples, src, tgt, _ = training_setup(toy_corpus_path)
        rows = []
        for max_steps in (3, 4, 5):
            _, _, _, model = training_setup(toy_corpus_path)
            cfg = self.quick_cfg(max_epochs=50, max_steps=max_steps)
            result = train(
                model, examples, examples[:2], cfg, src, tgt, tmp_path, resume=max_steps > 3
            )
            assert result.history[: len(rows)] == rows
            rows = result.history
        assert [row.epoch for row in rows] == [1, 2, 3, 4]
        assert result.global_step == 5

    def test_resume_holds_last_checkpoint_once(self, toy_corpus_path, tmp_path):
        """The model and optimizer keep the arrays a resume reads from
        last.ckpt, and the rest are freed before training: the traced peak
        across a resumed epoch stays within 2.5 times the file."""
        examples, src, tgt, model = training_setup(toy_corpus_path, d_model=32, ffn_dim=64)
        train(model, examples, examples[:2], self.quick_cfg(max_epochs=1), src, tgt, tmp_path)
        size = (tmp_path / "last.ckpt").stat().st_size
        model = ScriptModel(model.config, seed=0)
        tracemalloc.start()
        try:
            result = train(model, examples, examples[:2], self.quick_cfg(), src, tgt, tmp_path, resume=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [row.epoch for row in result.history] == [1, 2]
        assert peak < 2.5 * size, f"resume peaked at {peak / size:.2f} times last.ckpt"

    def test_resume_with_another_batch_size_trains_the_next_epoch(self, toy_corpus_path, tmp_path):
        # in batches of 3 the 3-step run ends one step into epoch 2; in
        # batches of 2 epoch 3 then takes steps 4 to 6
        examples, src, tgt, model = training_setup(toy_corpus_path)
        cfg = self.quick_cfg(max_epochs=50, max_steps=3)
        first = train(model, examples, examples[:2], cfg, src, tgt, tmp_path)
        _, _, _, model = training_setup(toy_corpus_path)
        cfg = replace(cfg, batch_size=2, max_steps=6)
        result = train(model, examples, examples[:2], cfg, src, tgt, tmp_path, resume=True)
        assert result.history[:2] == first.history
        assert [row.epoch for row in result.history] == [1, 2, 3]
        assert result.global_step == 6

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
            result_b = train(
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
        for field in ("global_step", "best_epoch", "best_metric"):
            assert getattr(result_a, field) == getattr(result_b, field), field

    @pytest.mark.parametrize(
        "target, halfway",
        [
            ("history.csv", False),
            ("best.ckpt", False),
            ("best.json", False),
            ("last.ckpt", False),
            ("last.ckpt", True),
        ],
        ids=["after-history", "after-best-ckpt", "after-best-json", "after-last-ckpt",
             "halfway-through-last-ckpt"],
    )
    def test_killed_run_resumes_to_the_uninterrupted_run(
        self, toy_corpus_path, tmp_path, monkeypatch, target, halfway
    ):
        class Killed(BaseException):
            """Stands in for the process being killed: train catches nothing of it."""

        cfg = self.quick_cfg(max_epochs=3)
        examples, src, tgt, model = training_setup(toy_corpus_path)
        straight = train(model, examples, examples[:2], cfg, src, tgt, tmp_path / "straight")
        # epoch 2 improves on epoch 1, so it writes best.ckpt and best.json
        assert [r.epoch for r in straight.history] == [1, 2, 3]
        assert straight.history[1].valid_loss < straight.history[0].valid_loss

        history_writes = 0
        replace_file, save = training._replace_file, training.save_checkpoint

        def replace_then_kill(path, write):
            nonlocal history_writes
            replace_file(path, write)
            history_writes += path.name == "history.csv"
            if not halfway and path.name == target and history_writes == 2:
                raise Killed

        def save_half_then_kill(params, path):
            save(params, path)
            # epoch 2's last.ckpt: the one checkpoint with optimizer state
            if halfway and "adam.step" in params and history_writes == 2:
                blob = path.read_bytes()
                path.write_bytes(blob[: len(blob) // 2])
                raise Killed

        run = tmp_path / "killed"
        with monkeypatch.context() as patch:
            patch.setattr(training, "_replace_file", replace_then_kill)
            patch.setattr(training, "save_checkpoint", save_half_then_kill)
            _, _, _, model = training_setup(toy_corpus_path)
            with pytest.raises(Killed):
                train(model, examples, examples[:2], cfg, src, tgt, run)
        _, _, _, model = training_setup(toy_corpus_path)
        resumed = train(model, examples, examples[:2], cfg, src, tgt, run, resume=True)

        for name in ("best.ckpt", "best.json", "last.ckpt"):
            assert (run / name).read_bytes() == (tmp_path / "straight" / name).read_bytes(), name

        def rows(path):
            return [replace(r, wall_seconds=0.0) for r in _read_history(path / "history.csv")]

        assert rows(run) == rows(tmp_path / "straight")
        for field in ("global_step", "best_epoch", "best_metric"):
            assert getattr(resumed, field) == getattr(straight, field), field

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
