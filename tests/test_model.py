import dataclasses
import functools
import hashlib
import json
import struct
import tracemalloc
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest

from scriptsum.errors import (
    ArtifactMismatchError,
    ConfigError,
    FormatError,
    NumericsError,
    ShapeError,
)
import scriptsum.model
from scriptsum.checkpoint import load_checkpoint, save_checkpoint
from scriptsum.data import build_vocab, encode_examples, load_dataset
from scriptsum.model import (
    LAYER_TAGS,
    SRPE_PLACEMENTS,
    DecoderCache,
    ModelConfig,
    ScriptModel,
    ablation_layer_plan,
    load_model_sidecar,
    _reach,
    param_schema,
    save_model_sidecar,
    split_heads,
)
from scriptsum.structure import StructuralEncodings
from scriptsum.tensor import (
    Tensor,
    _grad_enabled,
    backward,
    grad_check,
    mul,
    no_grad,
    sum_all,
)
from scriptsum.training import Adam, TrainConfig, train

from conftest import make_example, random_bundle, tiny_config, tiny_model
from oracles import (
    composed_relative_attention,
    exhaustive_decode,
    full_decode_log_probs,
    gather_relative_scores,
    graph_decode_step,
    gather_relative_values,
    greedy_oracle,
    per_head_leaves,
    per_head_project,
    per_head_rows,
    relative_scores,
    relative_values,
    search_to_the_end,
    vanilla_attention,
)


def embed_input(model, src_ids):
    import math

    from scriptsum.tensor import embed, scale

    return scale(embed(model.params["src_embed"], np.asarray(src_ids)), math.sqrt(model.config.d_model))


def zero_rel_tables(model, base):
    for suffix in ("seq_k", "seq_v", "str_k", "str_v"):
        name = f"{base}.{suffix}"
        if name in model.params:
            model.params[name].data = np.zeros_like(model.params[name].data)


class TestModelConfig:
    def test_defaults_match_full_scale(self):
        cfg = ModelConfig(src_vocab_size=10, tgt_vocab_size=10)
        assert cfg.d_model == 512
        assert cfg.n_heads == 8
        assert cfg.n_script_modules == 3
        assert cfg.n_encoder_layers == 6
        assert cfg.n_decoder_layers == 6
        assert cfg.layer_plan == ("RDW", "SRPEi") * 3
        assert cfg.d_head == 64

    def test_divisibility(self):
        with pytest.raises(ConfigError):
            tiny_config(d_model=10, n_heads=4)

    def test_layer_plan_length(self):
        with pytest.raises(ConfigError):
            tiny_config(layer_plan=("RDW",))

    def test_unknown_layer_tag(self):
        with pytest.raises(ConfigError):
            tiny_config(layer_plan=("RDW", "FANCY"))

    def test_mask_mode_and_placement_validated(self):
        with pytest.raises(ConfigError):
            tiny_config(mask_mode="divide")
        with pytest.raises(ConfigError):
            tiny_config(srpe_placement="everywhere")

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            tiny_config(l=0)
        with pytest.raises(ConfigError):
            tiny_config(k=0)
        with pytest.raises(ConfigError):
            tiny_config(dropout_p=1.0)

    def test_dict_round_trip(self):
        cfg = tiny_config(mask_mode="neg_inf", srpe_placement="all")
        again = ModelConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_from_dict_rejects_unknown_keys(self):
        payload = tiny_config().to_dict()
        payload["mystery"] = 1
        with pytest.raises(FormatError):
            ModelConfig.from_dict(payload)


class TestAblationPlan:
    def test_full(self):
        assert ablation_layer_plan(2, None) == ("RDW", "SRPEi", "RDW", "SRPEi")

    def test_drop_rdw(self):
        assert ablation_layer_plan(1, "rdw") == ("PLAIN", "SRPEi")

    def test_drop_srpei(self):
        assert ablation_layer_plan(1, "srpei") == ("RDW", "PLAIN")

    def test_unknown(self):
        with pytest.raises(ConfigError, match=r"\[None, 'rdw', 'srpei'\]"):
            ablation_layer_plan(1, "decoder")


class TestRelativeAttentionDegeneracy:
    @pytest.mark.parametrize("mask_mode", ["multiply", "neg_inf"])
    def test_zeroed_tables_all_ones_gate_match_vanilla(self, mask_mode):
        rng = np.random.default_rng(0)
        model = tiny_model(mask_mode=mask_mode)
        zero_rel_tables(model, "enc0")
        n = 6
        x = rng.standard_normal((n, model.config.d_model))
        # enc0 is RDW, which carries no structural tables under the default placement
        out = model.relative_attention(
            "enc0.attn",
            Tensor(x),
            Tensor(x),
            rel=(("enc0.seq", model._seq_idx(n)),),
            a_mv=np.ones((n, n)),
        )
        oracle = vanilla_attention(model.state_dict(), "enc0.attn", x, model.config.n_heads)
        assert np.max(np.abs(out.data - oracle)) <= 1e-12

    def test_neg_inf_identity_gate_yields_identity_attention(self):
        rng = np.random.default_rng(1)
        model = tiny_model(mask_mode="neg_inf")
        zero_rel_tables(model, "enc0")
        n = 5
        x = rng.standard_normal((n, model.config.d_model))
        captured = []
        out = model.relative_attention(
            "enc0.attn",
            Tensor(x),
            Tensor(x),
            rel=(("enc0.seq", model._seq_idx(n)),),
            a_mv=np.eye(n),
            capture=captured,
        )
        for alpha in captured:
            assert np.allclose(alpha, np.eye(n), atol=1e-12)
        # each position reduces to its own value projection
        p = model.state_dict()
        heads = [x @ p[f"enc0.attn.v{h}"] for h in range(model.config.n_heads)]
        manual = np.concatenate(heads, axis=1) @ p["enc0.attn.out_w"] + p["enc0.attn.out_b"]
        assert np.allclose(out.data, manual, atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        model = tiny_model()
        n = 7
        bundle = random_bundle(rng, n)
        captured = []
        model.script_encoder(
            rng.integers(0, model.config.src_vocab_size, n), bundle, capture=captured
        )
        assert len(captured) == model.config.n_encoder_layers * model.config.n_heads
        for alpha in captured:
            assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-9)


def _relative_op_case(case, rng):
    """(groups, d_head, rows, idx) of one relative-position table as a
    model call site uses it; idx is (n_q, n_k)."""
    model = tiny_model(n_heads=2, l=4, k=3)
    cfg = model.config
    heads, dh = cfg.n_heads, cfg.d_head
    if case == "encoder":  # n_q = n_k, groups = heads
        return heads, dh, 2 * cfg.k + 1, model._seq_idx(9)
    if case == "cached_decoder_step":  # one new position, groups = beams * heads
        return 3 * heads, dh, 2 * cfg.k + 1, model._seq_idx(8)[-1:]
    if case == "teacher_forced_decoder":  # Toeplitz sequential ids over a whole prefix
        return heads, dh, 2 * cfg.k + 1, model._seq_idx(7)
    # structural ids, clipped at l, over l + 1 rows
    return heads, dh, cfg.l + 1, random_bundle(rng, 8, clip=cfg.l).bucket_ids


class TestRelativeOpsMatchGatherReference:
    """relative_scores and relative_values against the gather formulation
    in oracles.py: outputs and gradients agree to 1e-12 relative (the max
    absolute difference over the max absolute reference value)."""

    CASES = ("encoder", "cached_decoder_step", "teacher_forced_decoder", "structural")

    @staticmethod
    def _run(op, x0, table0, idx, w):
        x = Tensor(x0.copy(), requires_grad=True)
        table = Tensor(table0.copy(), requires_grad=True)
        out = op(x, table, idx)
        backward(sum_all(mul(out, Tensor(w))))
        return out.data, x.grad, table.grad

    def _compare(self, fast, slow, x0, table0, idx, rng):
        w = rng.standard_normal(fast(Tensor(x0), Tensor(table0), idx).shape)
        for mine, ref in zip(self._run(fast, x0, table0, idx, w), self._run(slow, x0, table0, idx, w)):
            assert mine.shape == ref.shape
            rel_err = np.max(np.abs(mine - ref)) / np.max(np.abs(ref))
            assert rel_err <= 1e-12, rel_err

    @pytest.mark.parametrize("case", CASES)
    def test_scores(self, case):
        rng = np.random.default_rng(self.CASES.index(case))
        groups, dh, rows, idx = _relative_op_case(case, rng)
        q0 = rng.standard_normal((idx.shape[0], groups, dh))
        self._compare(relative_scores, gather_relative_scores, q0, rng.standard_normal((rows, dh)), idx, rng)

    @pytest.mark.parametrize("case", CASES)
    def test_values(self, case):
        rng = np.random.default_rng(10 + self.CASES.index(case))
        groups, dh, rows, idx = _relative_op_case(case, rng)
        alpha0 = rng.random((groups,) + idx.shape)
        self._compare(relative_values, gather_relative_values, alpha0, rng.standard_normal((rows, dh)), idx, rng)


class TestRelativeTermMemory:
    def test_srpei_layer_at_400_tokens_stays_under_bound(self):
        """One toy-width (d_model 64, 4 heads) SRPEi encoder layer forward +
        backward at n = 400, under tracemalloc. Gathering the (n, n, d_head)
        relative rows of its two tables peaked at about 174 MiB; the
        gather-free relative ops peak at about 61 MiB."""
        cfg = tiny_config(d_model=64, n_heads=4, ffn_dim=256, dropout_p=0.2, l=8, k=16)
        model = ScriptModel(cfg, seed=0)
        rng = np.random.default_rng(0)
        n = 400
        bundle = random_bundle(rng, n, clip=cfg.l)
        x = Tensor(rng.standard_normal((n, cfg.d_model)))
        tracemalloc.start()
        try:
            out = model.encoder_layer(
                "SRPEi", 1, x, bundle, seq_idx=model._seq_idx(n), training=True, rng=np.random.default_rng(1)
            )
            backward(sum_all(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.params["enc1.str_k"].grad is not None
        assert peak < 110 * 2**20, f"peak {peak / 2**20:.1f} MiB"


ORACLE_CASES = (
    "rdw",
    "srpei_multiply",
    "srpei_neg_inf",
    "plain",
    "decoder_self",
    "cross_padded",
    "srpei_dropout",
)


def _oracle_case(case, rng):
    """The model and the arguments of one attention call as the layer
    named by case makes it, with full-size random relative tables: returns
    (model, prefix, x_q, x_kv, relative_attention kwargs, oracle kwargs)."""
    overrides = {
        "rdw": dict(srpe_placement="all"),
        "plain": dict(layer_plan=("PLAIN", "PLAIN")),
        "srpei_neg_inf": dict(mask_mode="neg_inf"),
        "srpei_dropout": dict(dropout_p=0.3),
    }.get(case, {})
    model = tiny_model(**overrides)
    for name, t in model.params.items():
        if name.split(".")[-1] in ("seq_k", "seq_v", "str_k", "str_v"):
            t.data = rng.standard_normal(t.data.shape)
    n, m = 6, 4
    x = rng.standard_normal((n, model.config.d_model))
    y = rng.standard_normal((m, model.config.d_model))
    bucket_ids = random_bundle(rng, n).bucket_ids
    if case in ("rdw", "plain"):
        str_idx = bucket_ids if case == "rdw" else None
        kwargs = dict(seq_idx=model._seq_idx(n), str_idx=str_idx)
        rel = (("enc0.seq", kwargs["seq_idx"]),) + ((("enc0.str", str_idx),) if case == "rdw" else ())
        return model, "enc0.attn", x, x, dict(rel=rel), dict(rel_base="enc0", **kwargs)
    if case == "decoder_self":
        causal = np.triu(np.full((m, m), -1e9), k=1)
        kwargs = dict(seq_idx=model._seq_idx(m), additive_mask=causal)
        mine = dict(rel=(("dec0.seq", kwargs["seq_idx"]),), additive_mask=causal)
        return model, "dec0.self", y, y, mine, dict(rel_base="dec0", **kwargs)
    if case == "cross_padded":
        padding = np.broadcast_to(np.where(np.arange(n) < 4, 0.0, -1e9), (m, n)).copy()
        kwargs = dict(additive_mask=padding)
        return model, "dec0.cross", y, x, kwargs, dict(x_kv=x, **kwargs)
    gate = rng.uniform(0.5, 2.0, (n, n)) * (rng.random((n, n)) < 0.6)
    np.fill_diagonal(gate, 1.0)
    kwargs = dict(seq_idx=model._seq_idx(n), str_idx=bucket_ids, a_mv=gate)
    mine = dict(rel=(("enc1.seq", kwargs["seq_idx"]), ("enc1.str", bucket_ids)), a_mv=gate)
    oracle = dict(rel_base="enc1", mask_mode=model.config.mask_mode, **kwargs)
    if case == "srpei_dropout":
        mine.update(training=True, rng=np.random.default_rng(41))
        oracle.update(dropout_p=0.3, rng=np.random.default_rng(41))
    return model, "enc1.attn", x, x, mine, oracle


GRADIENT_CONFIGS = {
    "default": {},
    "neg_inf": dict(mask_mode="neg_inf"),
    "srpe_all": dict(srpe_placement="all"),
}


class TestFusedAttentionMatchesComposedReference:
    @pytest.mark.parametrize("config", list(GRADIENT_CONFIGS))
    def test_forward_loss_gradients_are_bit_identical(self, config, monkeypatch):
        """forward_loss + backward with dropout on: the loss and every
        parameter's gradient equal, bit for bit, what they are with
        relative_attention composed from one op per step. The fused op's
        parent order decides the order in which a layer's input sums the
        gradients of its query, key and value projections, so it shows
        here and not in a test of the op alone."""
        rng = np.random.default_rng(30)
        model = tiny_model(n_script_modules=2, n_decoder_layers=2, dropout_p=0.2, **GRADIENT_CONFIGS[config])
        n = 7
        bundle = random_bundle(rng, n)
        src = rng.integers(0, model.config.src_vocab_size, n)
        tgt = np.array([1, 4, 5, 9, 3, 2])

        def loss_and_grads():
            model.zero_grad()
            loss = model.forward_loss(src, bundle, tgt, training=True, rng=np.random.default_rng(31))
            backward(loss)
            return loss.data, {name: t.grad for name, t in model.params.items()}

        loss, grads = loss_and_grads()
        monkeypatch.setattr(ScriptModel, "relative_attention", composed_relative_attention)
        ref_loss, ref_grads = loss_and_grads()
        assert np.array_equal(loss, ref_loss)
        assert all(g is not None for g in grads.values())
        for name, ref in ref_grads.items():
            assert np.array_equal(grads[name], ref), name


def _per_head_reference(model):
    """A copy of model whose projections, in graphs and in cached decoder
    steps, concatenate per-head leaf tensors on every call
    (oracles.per_head_project and per_head_rows), and its parameters as a
    model with one parameter per head held them, by param_schema name."""
    ref = ScriptModel.from_state_dict(model.config, model.state_dict())
    heads = per_head_leaves(ref)
    ref._project = functools.partial(per_head_project, heads, ref)
    ref._heads = functools.partial(per_head_rows, heads, ref)
    return ref, {name: heads[name] if name in heads else ref.params[name] for name in param_schema(ref.config)}


class TestJoinedProjectionsMatchPerHeadReference:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("config", list(GRADIENT_CONFIGS))
    def test_training_step_and_decoding_are_bit_identical(self, config, seed):
        """With dropout on, the loss, every gradient (a joined one split
        per head), one Adam step and greedy and beam-5 ids equal, bit for
        bit, what one parameter per head gives."""
        rng = np.random.default_rng(40 + seed)
        model = tiny_model(seed=seed, n_script_modules=2, n_decoder_layers=2, dropout_p=0.2,
                           **GRADIENT_CONFIGS[config])
        ref, ref_params = _per_head_reference(model)
        bundle = random_bundle(rng, 7)
        src = rng.integers(0, model.config.src_vocab_size, 7)
        tgt = np.array([1, 4, 5, 9, 3, 2])
        losses = []
        for m in (model, ref):
            loss = m.forward_loss(src, bundle, tgt, training=True, rng=np.random.default_rng(seed))
            backward(loss)
            losses.append(loss.data)
        assert np.array_equal(*losses)
        grads = split_heads(model.config, {name: t.grad for name, t in model.params.items()})
        for name, p in ref_params.items():
            assert np.array_equal(grads[name], p.grad), name

        adam, ref_adam = Adam(model), Adam(SimpleNamespace(params=ref_params))
        adam.step(1e-2)
        ref_adam.step(1e-2)
        state, moments = model.state_dict(), adam.state_arrays()
        for name, p in ref_params.items():
            assert np.array_equal(state[name], p.data), name
            assert np.array_equal(moments[f"adam.m.{name}"], ref_adam.m[name]), name
            assert np.array_equal(moments[f"adam.v.{name}"], ref_adam.v[name]), name

        for m in (model, ref):  # every summary runs to max_len
            m.params["out_bias"].data[m.config.eos_id] = -1e9
        sources = [(src, bundle), (rng.integers(0, model.config.src_vocab_size, 4), random_bundle(rng, 4))]
        for beam in (1, 5):
            ids = model.summarize_many(sources, beam_size=beam, max_len=6)
            assert ids == ref.summarize_many(sources, beam_size=beam, max_len=6)
            assert [len(summary) for summary in ids] == [6, 6]


class TestRelativeAttentionMatchesPerHeadOracle:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_matches_loop_over_heads(self, case):
        rng = np.random.default_rng(ORACLE_CASES.index(case))
        model, prefix, x_q, x_kv, kwargs, oracle_kwargs = _oracle_case(case, rng)
        captured = []
        out = model.relative_attention(prefix, Tensor(x_q), Tensor(x_kv), capture=captured, **kwargs)
        expected = vanilla_attention(
            model.state_dict(), prefix, x_q, model.config.n_heads, **oracle_kwargs
        )
        assert [alpha.shape for alpha in captured] == [(len(x_q), len(x_kv))] * model.config.n_heads
        rel_err = np.max(np.abs(out.data - expected)) / np.max(np.abs(expected))
        assert rel_err <= 1e-12, rel_err


class TestRdwLayer:
    def test_zeroed_fc2_weights_ignore_distance_matrix(self):
        rng = np.random.default_rng(3)
        model = tiny_model()
        model.params["enc0.fc2_w"].data = np.zeros_like(model.params["enc0.fc2_w"].data)
        n = 6
        x = Tensor(rng.standard_normal((n, model.config.d_model)))
        bundle = random_bundle(rng, n)
        other_weights = bundle.distance_weights.copy()
        other_weights[0] = 0.0
        other_weights[0, -1] = 1.0
        perturbed = StructuralEncodings(
            distances=bundle.distances,
            distance_weights=other_weights,
            bucket_ids=bundle.bucket_ids,
            multiview=bundle.multiview,
        )
        out_a = model.encoder_layer("RDW", 0, x, bundle, seq_idx=model._seq_idx(n))
        out_b = model.encoder_layer("RDW", 0, x, perturbed, seq_idx=model._seq_idx(n))
        assert np.array_equal(out_a.data, out_b.data)

    def test_distance_weight_shape_mismatch(self):
        rng = np.random.default_rng(4)
        model = tiny_model()
        x = Tensor(rng.standard_normal((3, model.config.d_model)))
        bundle = random_bundle(rng, 4)
        with pytest.raises(ShapeError):
            model.encoder_layer("RDW", 0, x, bundle, seq_idx=model._seq_idx(3))

    def test_gradients(self):
        rng = np.random.default_rng(5)
        model = tiny_model()
        n = 4
        bundle = random_bundle(rng, n)
        x = Tensor(rng.standard_normal((n, model.config.d_model)), requires_grad=True)
        params = [
            model.params["enc0.fc2_w"],
            model.params["enc0.attn.q"],
            model.params["enc0.seq_k"],
            model.params["enc0.ffn.w1"],
            model.params["enc0.ln1_g"],
        ]

        def f(x_, *_):
            return sum_all(model.encoder_layer("RDW", 0, x_, bundle, seq_idx=model._seq_idx(n)))

        report = grad_check(f, [x, *params])
        assert report.passed, report


class TestSrpeiLayer:
    def test_output_invariant_beyond_clip(self):
        from scriptsum.structure import bucketize, normalize

        rng = np.random.default_rng(6)
        model = tiny_model(l=2)
        n = 6
        bundle = random_bundle(rng, n, clip=2)
        x = Tensor(rng.standard_normal((n, model.config.d_model)))
        raw = bundle.distances.astype(np.float64).copy()
        far = np.argwhere(raw >= 2)
        assert len(far)
        i, j = far[0]
        raw[i, j] += 7
        raw[j, i] += 7
        buckets = bucketize(raw, 2)
        perturbed = StructuralEncodings(
            distances=raw.astype(np.int64),
            distance_weights=normalize(buckets.astype(np.float64)),
            bucket_ids=buckets,
            multiview=bundle.multiview,
        )
        out_a = model.encoder_layer("SRPEi", 1, x, bundle, seq_idx=model._seq_idx(n))
        out_b = model.encoder_layer("SRPEi", 1, x, perturbed, seq_idx=model._seq_idx(n))
        assert np.array_equal(out_a.data, out_b.data)

    def test_equal_views_make_weight_choice_irrelevant(self):
        from scriptsum.astcore import leaf_tokens
        from scriptsum.minilang import parse_minilang
        from scriptsum.structure import encode_structure

        rng = np.random.default_rng(7)
        model = tiny_model()
        ast = parse_minilang("x;")
        _, align = leaf_tokens(ast)
        ast_only = encode_structure(ast, align, 4, (1.0, 0.0, 0.0))
        flow_only = encode_structure(ast, align, 4, (0.0, 1.0, 0.0))
        assert np.array_equal(ast_only.multiview, flow_only.multiview)
        x = Tensor(rng.standard_normal((1, model.config.d_model)))
        out_a = model.encoder_layer("SRPEi", 1, x, ast_only, seq_idx=model._seq_idx(1))
        out_b = model.encoder_layer("SRPEi", 1, x, flow_only, seq_idx=model._seq_idx(1))
        assert np.array_equal(out_a.data, out_b.data)

    def test_gradients(self):
        rng = np.random.default_rng(8)
        model = tiny_model()
        n = 4
        bundle = random_bundle(rng, n)
        x = Tensor(rng.standard_normal((n, model.config.d_model)), requires_grad=True)
        params = [
            model.params["enc1.attn.k"],
            model.params["enc1.str_k"],
            model.params["enc1.str_v"],
            model.params["enc1.ffn.w2"],
        ]

        def f(x_, *_):
            return sum_all(model.encoder_layer("SRPEi", 1, x_, bundle, seq_idx=model._seq_idx(n)))

        report = grad_check(f, [x, *params])
        assert report.passed, report


class TestEncoderLayerRouting:
    @pytest.mark.parametrize("placement", SRPE_PLACEMENTS)
    @pytest.mark.parametrize("tag", LAYER_TAGS)
    def test_each_structural_input_reaches_only_its_layers(self, tag, placement):
        rng = np.random.default_rng(28)
        model = tiny_model(layer_plan=(tag, tag), srpe_placement=placement)
        n = 6
        bundle = random_bundle(rng, n)
        x = Tensor(rng.standard_normal((n, model.config.d_model)))
        seq_idx = model._seq_idx(n)
        base = model.encoder_layer(tag, 0, x, bundle, seq_idx=seq_idx).data
        covered = {"SRPEi_only": {"SRPEi"}, "RDW_only": {"RDW"}, "all": {"RDW", "SRPEi"}}
        perturbed = {
            "bucket_ids": ((bundle.bucket_ids + 1) % (model.config.l + 1), tag in covered[placement]),
            "multiview": (bundle.multiview * rng.uniform(0.5, 2.0, (n, n)), tag == "SRPEi"),
            "distance_weights": (bundle.distance_weights[::-1].copy(), tag == "RDW"),
        }
        for field, (value, used) in perturbed.items():
            out = model.encoder_layer(tag, 0, x, dataclasses.replace(bundle, **{field: value}), seq_idx=seq_idx).data
            assert (not np.array_equal(out, base)) == used, field


class TestScriptEncoder:
    def test_deterministic_across_instances(self):
        rng = np.random.default_rng(9)
        n = 5
        bundle = random_bundle(rng, n)
        ids = rng.integers(0, 13, n)
        out_a = ScriptModel(tiny_config(), seed=3).script_encoder(ids, bundle).data
        out_b = ScriptModel(tiny_config(), seed=3).script_encoder(ids, bundle).data
        assert np.array_equal(out_a, out_b)

    def test_all_plain_ignores_structural_inputs(self):
        rng = np.random.default_rng(10)
        model = tiny_model(layer_plan=("PLAIN", "PLAIN"))
        n = 6
        bundle = random_bundle(rng, n)
        ids = rng.integers(0, 13, n)
        base = model.script_encoder(ids, bundle).data
        perturbed = StructuralEncodings(
            distances=bundle.distances,
            distance_weights=np.abs(rng.standard_normal((n, n))),
            bucket_ids=rng.integers(0, 5, (n, n)),
            multiview=np.abs(rng.standard_normal((n, n))),
        )
        assert np.array_equal(base, model.script_encoder(ids, perturbed).data)

    def test_module_aggregation_is_positionwise_sum(self):
        rng = np.random.default_rng(11)
        recorded = []

        class Hooked(ScriptModel):
            def encoder_layer(self, tag, layer_idx, x, bundle, **common):
                out = super().encoder_layer(tag, layer_idx, x, bundle, **common)
                recorded.append(out.data.copy())
                return out

        model = Hooked(tiny_config(), seed=0)
        n = 5
        bundle = random_bundle(rng, n)
        ids = rng.integers(0, 13, n)
        out = model.script_encoder(ids, bundle).data
        from scriptsum.tensor import layernorm

        h_bar = Tensor(recorded[0] + recorded[1])
        manual = layernorm(
            h_bar, model.params["enc_final_g"], model.params["enc_final_b"]
        ).data
        assert np.allclose(out, manual, atol=1e-12)

    def test_zeroed_second_layer_passes_first_through(self):
        rng = np.random.default_rng(12)
        recorded = []

        class ZeroSecond(ScriptModel):
            def encoder_layer(self, tag, layer_idx, x, bundle, **common):
                if layer_idx % 2 == 1:
                    return Tensor(np.zeros_like(x.data))
                out = super().encoder_layer(tag, layer_idx, x, bundle, **common)
                recorded.append(out.data.copy())
                return out

        model = ZeroSecond(tiny_config(), seed=1)
        n = 4
        bundle = random_bundle(rng, n)
        ids = rng.integers(0, 13, n)
        out = model.script_encoder(ids, bundle).data
        from scriptsum.tensor import layernorm

        manual = layernorm(
            Tensor(recorded[0]), model.params["enc_final_g"], model.params["enc_final_b"]
        ).data
        assert np.allclose(out, manual, atol=1e-12)

    def test_bundle_shape_mismatch(self):
        rng = np.random.default_rng(13)
        model = tiny_model()
        bundle = random_bundle(rng, 4)
        with pytest.raises(ShapeError):
            model.script_encoder(np.array([1, 2, 3]), bundle)

    @pytest.mark.parametrize("bad", ["l_plus_one", "negative"])
    def test_bucket_id_out_of_range(self, bad):
        """A structural id outside [0, l] names no table row; it raises
        instead of being read as a row of another query."""
        rng = np.random.default_rng(14)
        model = tiny_model()
        n = 5
        bundle = random_bundle(rng, n, clip=model.config.l)
        bucket_ids = bundle.bucket_ids.copy()
        bucket_ids[1, 3] = model.config.l + 1 if bad == "l_plus_one" else -1
        broken = dataclasses.replace(bundle, bucket_ids=bucket_ids)
        with pytest.raises(ShapeError, match="out of range"):
            model.script_encoder(rng.integers(0, 13, n), broken)


class TestDecoder:
    def test_causal_mask_blocks_future(self):
        rng = np.random.default_rng(16)
        model = tiny_model()
        n = 5
        bundle = random_bundle(rng, n)
        state = model.script_encoder(rng.integers(0, 13, n), bundle)
        tgt = np.array([1, 4, 5, 6, 7])
        logits_full = model.decode(tgt, state).data
        changed = tgt.copy()
        changed[3] = 9
        logits_changed = model.decode(changed, state).data
        assert np.array_equal(logits_full[:3], logits_changed[:3])
        assert not np.array_equal(logits_full[3:], logits_changed[3:])

    def test_decoder_step_is_distribution(self):
        rng = np.random.default_rng(17)
        model = tiny_model()
        n = 4
        bundle = random_bundle(rng, n)
        state = model.script_encoder(rng.integers(0, 13, n), bundle)
        probs = np.exp(full_decode_log_probs(model, [1, 3], state))
        assert probs.shape == (model.config.tgt_vocab_size,)
        assert np.isclose(probs.sum(), 1.0)
        assert np.all(probs >= 0)

    def test_single_token_memory_cross_attention_all_ones(self):
        rng = np.random.default_rng(18)
        model = tiny_model()
        x_q = Tensor(rng.standard_normal((3, model.config.d_model)))
        x_kv = Tensor(rng.standard_normal((1, model.config.d_model)))
        captured = []
        model.relative_attention("dec0.cross", x_q, x_kv, capture=captured)
        for alpha in captured:
            assert np.allclose(alpha, 1.0)

    def test_empty_prefix_rejected(self):
        rng = np.random.default_rng(19)
        model = tiny_model()
        bundle = random_bundle(rng, 3)
        state = model.script_encoder(np.array([1, 2, 3]), bundle)
        with pytest.raises(ShapeError):
            model.decode(np.array([], dtype=np.int64), state)
        with pytest.raises(ShapeError):
            model.decode(np.array([], dtype=np.int64), state, cache=DecoderCache())
        with pytest.raises(ShapeError):
            model.decode(np.zeros((2, 0), dtype=np.int64), state, cache=DecoderCache())

    @pytest.mark.parametrize("bad", ["vocab_size", "negative"])
    @pytest.mark.parametrize("cached", [False, True])
    def test_decoder_id_out_of_range(self, cached, bad):
        """A target id outside [0, tgt_vocab_size) names no embedding row; it
        raises, teacher-forced or cached, instead of being read as a row
        from the end. A cached call that raises leaves the cache empty."""
        rng = np.random.default_rng(19)
        model = tiny_model()
        state = model.script_encoder(np.array([1, 2, 3]), random_bundle(rng, 3))
        ids = np.array([1, 4, model.config.tgt_vocab_size if bad == "vocab_size" else -1])
        cache = DecoderCache() if cached else None
        with pytest.raises(ShapeError, match="out of range"):
            model.decode(ids, state, cache=cache)
        if cached:
            assert cache.length == 0 and not cache.cross

    def test_forward_loss_requires_bos_eos_pair(self):
        rng = np.random.default_rng(20)
        model = tiny_model()
        bundle = random_bundle(rng, 3)
        with pytest.raises(ShapeError):
            model.forward_loss(np.array([1, 2, 3]), bundle, np.array([1]))

    def test_decoder_layer_gradients(self):
        rng = np.random.default_rng(21)
        model = tiny_model()
        n = 4
        bundle = random_bundle(rng, n)
        src = rng.integers(0, 13, n)
        tgt = np.array([1, 4, 5, 2])
        params = [
            model.params["dec0.self.q"],
            model.params["dec0.cross.k"],
            model.params["dec0.seq_v"],
            model.params["dec0.ffn.w1"],
            model.params["out_bias"],
        ]

        def f(*_):
            return model.forward_loss(src, bundle, tgt)

        report = grad_check(f, params)
        assert report.passed, report


class TestGeneration:
    def test_beam_one_equals_greedy(self):
        rng = np.random.default_rng(22)
        for seed in range(8):
            model = tiny_model(seed=seed)
            n = int(rng.integers(2, 7))
            bundle = random_bundle(rng, n)
            state = model.script_encoder(rng.integers(0, 13, n), bundle)
            assert model.beam_search(state, beam_size=1, max_len=6) == greedy_oracle(
                model, state, 6
            )
            assert model.greedy_decode(state, max_len=6) == model.beam_search(
                state, beam_size=1, max_len=6
            )

    def test_beam_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(23)
        for seed in range(3):
            model = tiny_model(seed=seed, tgt_vocab_size=5)
            n = 4
            bundle = random_bundle(rng, n)
            state = model.script_encoder(rng.integers(0, 13, n), bundle)
            # beam wide enough to hold every candidate: no pruning possible
            got = model.beam_search(state, beam_size=200, max_len=3)
            want = exhaustive_decode(model, state, max_len=3)
            assert got == want

    @pytest.mark.parametrize(
        "table, want",
        [
            # BOS 3 and BOS 4 tie for the second of two slots
            ({(): {5: -1.0, 3: -2.0, 4: -2.0}, (3,): {2: 0.0}, (4,): {2: -0.5}}, [3]),
            # BOS 5 7 and BOS 6 1 tie at step 2, from beams ranked 6 before 5
            (
                {(): {6: -1.0, 5: -1.5}, (5,): {7: -0.5}, (6,): {3: -0.25, 1: -1.0},
                 (5, 7): {2: 0.0}, (6, 1): {2: -0.1}},
                [5, 7],
            ),
        ],
        ids=["same-beam", "across-beams"],
    )
    def test_exact_tie_at_pruning_boundary_keeps_smaller_sequence(self, monkeypatch, table, want):
        """Only the lexicographically smaller of the tied candidates leads to
        the best summary; every unlisted next token scores -50."""
        model = tiny_model()

        def next_log_probs(prefix, state):  # prefix[0] is BOS
            out = np.full(model.config.tgt_vocab_size, -50.0)
            for tid, lp in table.get(tuple(prefix[1:]), {}).items():
                out[tid] = lp
            return out

        def beam_log_probs(seqs, state, cache):
            return np.stack([next_log_probs(seq, state) for seq in seqs])

        monkeypatch.setattr(model, "_beam_log_probs", beam_log_probs)
        assert model.beam_search(None, beam_size=2, max_len=3) == want

    def test_non_finite_logits_raise_numerics_error(self):
        rng = np.random.default_rng(28)
        model = tiny_model()
        state = model.script_encoder(np.array([1, 2, 3]), random_bundle(rng, 3))
        model.params["dec0.ffn.w1"].data[0, 0] = np.nan
        with pytest.raises(NumericsError, match="not finite"):
            model.beam_search(state, beam_size=2, max_len=3)

    def test_zero_length_penalty_uses_raw_logprob(self):
        rng = np.random.default_rng(24)
        model = tiny_model(seed=5, tgt_vocab_size=5)
        bundle = random_bundle(rng, 4)
        state = model.script_encoder(rng.integers(0, 13, 4), bundle)
        got = model.beam_search(state, beam_size=200, max_len=3, length_penalty=0.0)
        want = exhaustive_decode(model, state, max_len=3, length_penalty=0.0)
        assert got == want

    def test_result_strips_sentence_marks(self):
        rng = np.random.default_rng(25)
        model = tiny_model()
        bundle = random_bundle(rng, 3)
        state = model.script_encoder(np.array([1, 2, 3]), bundle)
        out = model.beam_search(state, beam_size=2, max_len=5)
        assert model.config.bos_id not in out[:1]
        assert model.config.eos_id not in out

    def test_parameter_validation(self):
        rng = np.random.default_rng(26)
        model = tiny_model()
        bundle = random_bundle(rng, 3)
        state = model.script_encoder(np.array([1, 2, 3]), bundle)
        with pytest.raises(ConfigError):
            model.beam_search(state, beam_size=0)
        with pytest.raises(ConfigError):
            model.beam_search(state, max_len=0)

    @pytest.mark.parametrize("penalty", [float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 700.0])
    def test_length_penalty_outside_float_range_rejected(self, penalty):
        rng = np.random.default_rng(26)
        model = tiny_model()
        bundle = random_bundle(rng, 3)
        state = model.script_encoder(np.array([1, 2, 3]), bundle)
        with pytest.raises(ConfigError):
            model.beam_search(state, beam_size=2, max_len=3, length_penalty=penalty)
        # with one generated token every normalizer is 1 ** penalty
        if np.isfinite(penalty):
            model.beam_search(state, beam_size=2, max_len=1, length_penalty=penalty)

    def test_summarize_is_encode_then_beam_search(self):
        rng = np.random.default_rng(27)
        model = tiny_model(seed=3)
        bundle = random_bundle(rng, 5)
        ids = rng.integers(0, 13, 5)
        for beam in (1, 3):
            state = model.script_encoder(ids, bundle)
            want = model.beam_search(state, beam_size=beam, max_len=6, length_penalty=0.5)
            got = model.summarize(ids, bundle, beam_size=beam, max_len=6, length_penalty=0.5)
            assert got == want
            assert _grad_enabled()
        with pytest.raises(ConfigError):
            model.summarize(ids, bundle, beam_size=0)
        assert _grad_enabled()


CACHE_CASES = {
    # k=2 < max_len, so later steps use clipped sequential offsets
    "clipped_offsets": (dict(k=2), dict(beam_size=3, max_len=7)),
    "beam_wider_than_vocab": (dict(tgt_vocab_size=5), dict(beam_size=8, max_len=4)),
    "dropout_eval": (dict(dropout_p=0.3), dict(beam_size=3, max_len=5)),
}


class TestCachedDecoding:
    @pytest.mark.parametrize("case", CACHE_CASES)
    def test_cached_steps_match_full_decode(self, case):
        """At every step, each live beam's cached logits equal the last row
        of a full decoder pass over its prefix."""
        overrides, search = CACHE_CASES[case]
        rng = np.random.default_rng(list(CACHE_CASES).index(case))
        compared = 0
        for seed in range(3):
            model = tiny_model(seed=seed, n_decoder_layers=2, **overrides)
            n = 4
            ids = rng.integers(3, 13, n)
            state = model.script_encoder(ids, random_bundle(rng, n))
            steps = []
            decode, seam = model.decode, model._beam_log_probs

            def beam_log_probs(seqs, state, cache):
                steps.append((list(seqs), cache.length))
                return seam(seqs, state, cache)

            def cached_decode(tgt_in_ids, state, **kwargs):
                out = decode(tgt_in_ids, state, **kwargs)
                steps[-1] += (out.data.copy(),)
                return out

            model._beam_log_probs, model.decode = beam_log_probs, cached_decode
            model.beam_search(state, **search)
            del model._beam_log_probs, model.decode
            for step, (seqs, past, logits) in enumerate(steps):
                assert past == step and logits.shape == (len(seqs), model.config.tgt_vocab_size)
                for seq, row in zip(seqs, logits):
                    with no_grad():
                        full = model.decode(np.array(seq), state).data[-1]
                    assert np.max(np.abs(row - full)) <= 1e-12
                    compared += 1
        assert compared >= 3 * search["max_len"]

    def test_cache_rows_must_match_beams(self):
        rng = np.random.default_rng(29)
        model = tiny_model()
        state = model.script_encoder(np.array([1, 2, 3]), random_bundle(rng, 3))
        cache = DecoderCache()
        model.decode(np.array([[1], [1]]), state, cache=cache)
        assert (cache.beams, cache.length) == (2, 1)
        with pytest.raises(ShapeError):
            model.decode(np.array([[4], [5], [6]]), state, cache=cache)
        cache.select([1, 1, 0])
        assert model.decode(np.array([[4], [5], [6]]), state, cache=cache).shape == (3, 11)
        assert (cache.beams, cache.length) == (3, 2)
        cache.select([])
        assert (cache.beams, cache.length) == (0, 2)

    def test_select_keeping_every_beam_in_place_copies_nothing(self):
        rng = np.random.default_rng(29)
        model = tiny_model()
        state = model.script_encoder(np.array([1, 2, 3]), random_bundle(rng, 3))
        cache = DecoderCache()
        model.decode(np.array([[1], [1]]), state, cache=cache)
        kept = list(cache.self_kv)
        cache.select([0, 1])
        assert cache.beams == 2 and all(a is b for a, b in zip(cache.self_kv, kept))
        cache.select([1, 0])
        k_before, k_after = kept[0][0], cache.self_kv[0][0]
        heads = model.config.n_heads
        assert np.array_equal(k_after[:, :heads], k_before[:, heads:])
        assert np.array_equal(k_after[:, heads:], k_before[:, :heads])

    def test_no_decoder_step_concatenates_a_parameter(self, monkeypatch):
        """Every projection reads its parameter as it is: decoder steps
        concatenate cached keys and values, never weights."""
        rng = np.random.default_rng(31)
        model = tiny_model(n_decoder_layers=2)
        bundles = [random_bundle(rng, 3), random_bundle(rng, 5)]
        state = model.script_encoder(np.array([1, 2, 3]), bundles[0])
        params = [t.data for t in model.params.values()]
        parts_seen = []
        concatenate = np.concatenate

        def recording_concatenate(parts, *args, **kwargs):
            parts_seen.extend(parts)
            return concatenate(parts, *args, **kwargs)

        monkeypatch.setattr(np, "concatenate", recording_concatenate)
        cache = DecoderCache()
        for ids in ([[1], [1]], [[4], [5]], [[6], [7]]):
            model.decode(np.array(ids), state, cache=cache)
        model.summarize_many([(np.array([1, 2, 3]), bundles[0]), (np.arange(5), bundles[1])], beam_size=2, max_len=4)
        assert parts_seen
        assert not any(np.shares_memory(part, w) for part in parts_seen for w in params)

    def test_cached_step_returns_a_constant_and_caches_arrays(self):
        """With gradients enabled, a cached decode records no graph, and
        the cache holds plain arrays."""
        rng = np.random.default_rng(32)
        model = tiny_model(n_decoder_layers=2)
        state = model.script_encoder(np.array([1, 2, 3]), random_bundle(rng, 3))
        cache = DecoderCache()
        assert _grad_enabled()
        for ids in ([[1], [1]], [[4], [5]]):
            logits = model.decode(np.array(ids), state, cache=cache)
            assert not logits.needs_grad and logits._parents == () and logits._backward is None
        assert len(cache.self_kv) == len(cache.cross) == 2
        assert all(type(a) is np.ndarray for kv in cache.self_kv + cache.cross for a in kv)
        with pytest.raises(ConfigError, match="eval mode"):
            model.decode(np.array([[6], [7]]), state, cache=cache, training=True, rng=rng)
        assert cache.length == 2

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("config", list(GRADIENT_CONFIGS))
    @pytest.mark.parametrize("lengths", [(5,), (3, 6, 1)])
    @pytest.mark.parametrize("beams", [1, 5])
    def test_step_matches_graph_step(self, beams, lengths, config, seed):
        """_step's logits equal, bit for bit, the autodiff graph's
        (oracles.graph_decode_step) over the same calls on caches that
        start equal: two and three positions per call, then one, with
        selects between calls that reorder each source's beams (a beam may
        be kept twice), drop a source and narrow the beams. Sources of
        several lengths pad the cross-attention keys."""
        rng = np.random.default_rng(70 + seed)
        model = tiny_model(seed=seed, n_decoder_layers=2, k=2, **GRADIENT_CONFIGS[config])
        states = [model.script_encoder(rng.integers(0, 13, n), random_bundle(rng, n)) for n in lengths]
        caches = [DecoderCache(sources=list(range(len(lengths)))) for _ in range(2)]
        live, width = list(range(len(lengths))), beams
        kept_after = {1: list(range(len(lengths)))[::-1][:2]}  # after the second call: drop a source, reorder
        for call, m in enumerate((2, 3, 1, 1)):
            ids = rng.integers(0, model.config.tgt_vocab_size, (width * len(live), m))
            got = model._step(ids, states, caches[0])
            want = graph_decode_step(model, ids, states, caches[1]).data
            assert got.tobytes() == want.tobytes()
            kept = kept_after.get(call, list(range(len(live))))
            new_width = max(1, width - 2) if call == 1 else width
            rows = [int(rng.integers(0, width)) * len(live) + j for _ in range(new_width) for j in kept]
            for cache in caches:
                cache.select(rows, kept)
            live, width = [live[j] for j in kept], new_width
        assert caches[0].sources == caches[1].sources == live

    def test_several_beams_and_positions_per_call(self):
        """Row t * beams + b holds position t of beam b, with or without
        earlier positions in the cache."""
        rng = np.random.default_rng(30)
        model = tiny_model(n_decoder_layers=2, k=2)
        state = model.script_encoder(np.array([4, 5, 6, 7]), random_bundle(rng, 4))
        seqs = np.array([[1, 4, 5, 6, 3], [1, 7, 7, 8, 9]])
        with no_grad():
            full = [model.decode(seq, state).data for seq in seqs]
            cache = DecoderCache()
            head = model.decode(seqs[:, :2], state, cache=cache).data
            tail = model.decode(seqs[:, 2:], state, cache=cache).data
        for b in range(2):
            assert np.max(np.abs(head[b::2] - full[b][:2])) <= 1e-12
            assert np.max(np.abs(tail[b::2] - full[b][2:])) <= 1e-12


# Batched rows are not bit-identical to one-row steps (a row of a 2-D
# matmul depends on how many rows share it, and padding changes how the
# softmax sums associate), so each row's log-probabilities are held to this.
LOG_PROB_TOL = 1e-9


def _record_steps(model) -> list[tuple[list, list[int], np.ndarray]]:
    """Wrap model._beam_log_probs (delete the attribute to unwrap); each
    decoder step appends (row sequences, the cache's sources, log-probs)."""
    steps, seam = [], model._beam_log_probs

    def beam_log_probs(seqs, state, cache):
        out = seam(seqs, state, cache)
        steps.append((list(seqs), list(cache.sources), out))
        return out

    model._beam_log_probs = beam_log_probs
    return steps


def _rows_by_source(steps):
    """Each step's {source: its rows' sequences}; row r of S sources is
    beam r // S of source r % S."""
    return [
        {src: seqs[j::len(sources)] for j, src in enumerate(sources)}
        for seqs, sources, _ in steps
    ]


def _last_steps(steps) -> set[int]:
    """The distinct steps at which a source last had rows."""
    return set({src: t for t, rows in enumerate(_rows_by_source(steps)) for src in rows}.values())


def criterion7_source(seed: int):
    """The source criterion 7 decodes with tiny_model(seed)."""
    rng = np.random.default_rng(600 + seed)
    n = int(rng.integers(1, 7))
    bundle = random_bundle(rng, n)
    return rng.integers(0, tiny_config().src_vocab_size, n), bundle


def _toy_model(tmp_path_factory, toy_corpus_path, epochs: int):
    """The README train config after the given epochs, and the encoded toy corpus."""
    examples = load_dataset(toy_corpus_path, distance_clip=8)
    src_vocab, tgt_vocab = build_vocab(examples)
    config = ModelConfig(
        src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab), d_model=64, n_heads=4,
        n_script_modules=1, n_decoder_layers=2, ffn_dim=256, dropout_p=0.2, l=8, k=16,
    )
    model = ScriptModel(config, seed=0)
    train(model, examples, examples, TrainConfig(batch_size=8, lr=3e-3, max_epochs=epochs, bleu_every=0, seed=0),
          src_vocab, tgt_vocab, tmp_path_factory.mktemp("toy") / "run")
    return model, encode_examples(examples, src_vocab, tgt_vocab)


@pytest.fixture(scope="module")
def toy_two_epoch(tmp_path_factory, toy_corpus_path):
    return _toy_model(tmp_path_factory, toy_corpus_path, 2)


@pytest.fixture(scope="module")
def toy_ten_epoch(tmp_path_factory, toy_corpus_path):
    return _toy_model(tmp_path_factory, toy_corpus_path, 10)


class TestMultiSourceDecoding:
    """summarize_many decodes several sources per decoder step; each
    source's summary equals decoding it alone."""

    @pytest.mark.parametrize("beam", [1, 5])
    def test_sources_of_lengths_1_to_20_match_one_source_decoding(self, beam):
        """One chunk of 20 sources, 1 to 20 tokens long. The raised EOS
        bias makes greedy sources finish at different steps and beam-5
        sources carry different numbers of live beams."""
        model = tiny_model(seed=1, n_decoder_layers=2)
        model.params["out_bias"].data[model.config.eos_id] += 2.0
        rng = np.random.default_rng(41)
        sources = [(rng.integers(0, 13, n), random_bundle(rng, n)) for n in range(1, 21)]
        with no_grad():
            states = [model.script_encoder(ids, bundle) for ids, bundle in sources]
        want = [model.beam_search(state, beam_size=beam, max_len=12) for state in states]
        steps = _record_steps(model)
        got = model.summarize_many(sources, beam_size=beam, max_len=12)
        del model._beam_log_probs
        assert got == want
        assert steps[0][1] == list(range(20))
        for seqs, sources_, log_probs in steps:
            for r, seq in enumerate(seqs):
                ref = full_decode_log_probs(model, seq, states[sources_[r % len(sources_)]])
                assert np.max(np.abs(log_probs[r] - ref)) <= LOG_PROB_TOL
        if beam == 1:
            assert len(_last_steps(steps)) >= 3
        else:  # a source with fewer live beams than the widest repeats its last
            assert any(len(set(rows)) < len(rows) for step in _rows_by_source(steps) for rows in step.values())

    def test_beam_sources_leave_the_rows_when_they_finish(self, monkeypatch):
        """A beam source finishes when every top candidate ends in EOS. A
        table of scores ends sources 0-3 at steps 2, 5, 3 and 7, and gives
        source 1 fewer live beams at one step."""
        model = tiny_model(tgt_vocab_size=8)
        eos, finish = model.config.eos_id, {0: 2, 1: 5, 2: 3, 3: 7}

        def next_log_probs(src, prefix):
            generated = len(prefix) - 1
            logits = np.random.default_rng([src, *prefix]).normal(size=model.config.tgt_vocab_size)
            logits[eos] = 100.0 if generated >= finish[src] else 0.5 if (src, generated) == (1, 1) else -100.0
            z = logits - logits.max()
            return z - np.log(np.exp(z).sum())

        def beam_log_probs(seqs, state, cache):  # state holds the sources' labels
            return np.stack([next_log_probs(state[cache.sources[r % len(cache.sources)]], seq)
                             for r, seq in enumerate(seqs)])

        monkeypatch.setattr(model, "_beam_log_probs", beam_log_probs)
        want = [model.beam_search(src, beam_size=3, max_len=10) for src in finish]
        steps = _record_steps(model)
        assert model._search(list(finish), 0, 3, 10, 1.0) == want
        rows = _rows_by_source(steps)
        assert {src: max(t for t, step in enumerate(rows) if src in step) for src in finish} == finish
        assert len(set(rows[2][1])) == 2 and len(rows[2][1]) == 3

    def test_toy_corpus_two_epoch_model_matches_one_source_decoding(self, toy_two_epoch):
        model, encoded = toy_two_epoch
        sources = [(enc.src_ids, enc.bundle) for enc in encoded]
        for beam in (1, 5):
            with no_grad():
                want = [model.beam_search(model.script_encoder(*source), beam_size=beam) for source in sources]
            steps = _record_steps(model)
            assert model.summarize_many(sources, beam_size=beam) == want
            del model._beam_log_probs
            if beam == 1:
                assert len(_last_steps(steps)) >= 3

    def test_criterion7_models_decoded_in_groups(self):
        """Each of criterion 7's 100 tiny models decodes its own source with
        the next four models' sources, greedily and with beam 5."""
        for seed in range(100):
            model = tiny_model(seed=seed)
            sources = [criterion7_source((seed + i) % 100) for i in range(5)]
            for beam in (1, 5):
                with no_grad():
                    want = [model.beam_search(model.script_encoder(ids, bundle), beam_size=beam, max_len=8)
                            for ids, bundle in sources]
                assert model.summarize_many(sources, beam_size=beam, max_len=8) == want

    def test_chunks_and_non_finite_logits_name_the_source(self, monkeypatch):
        """Sources are decoded in chunks of DECODE_CHUNK; a source whose
        logits are not finite is named by its index in the whole list."""
        monkeypatch.setattr(scriptsum.model, "DECODE_CHUNK", 3)
        model = tiny_model(seed=1, n_decoder_layers=2)
        rng = np.random.default_rng(5)
        sources = [(rng.integers(0, 12, n), random_bundle(rng, n)) for n in (3, 1, 6, 2, 4, 5, 2)]
        sources[4] = (np.array([12, 3, 4, 5]), sources[4][1])  # the only source holding token 12
        steps = _record_steps(model)
        got = model.summarize_many(sources, beam_size=2, max_len=5)
        del model._beam_log_probs
        assert got == [model.summarize(ids, bundle, beam_size=2, max_len=5) for ids, bundle in sources]
        assert sorted({tuple(sources_) for _, sources_, _ in steps}) == [(0, 1, 2), (3, 4, 5), (6,)]
        model.params["src_embed"].data[12] = np.nan
        with pytest.raises(NumericsError, match=r"^decoder logits of source 4 are not finite after prefix \[1\]$"):
            model.summarize_many(sources, beam_size=2, max_len=5)


class TestBeamEarlyStop:
    """A beam source also ends once no live beam can overtake its best
    finished hypothesis; every summary equals the former rule's
    (oracles.search_to_the_end), one source per call, so bits compare."""

    @staticmethod
    def _both(model, state, beam, max_len, length_penalty=1.0):
        """(ids, decoder steps) under the current and the former rule."""
        patched = vars(model).get("_beam_log_probs")
        out = []
        for search in (lambda: model.beam_search(state, beam, max_len, length_penalty),
                       lambda: search_to_the_end(model, [state], beam, max_len, length_penalty)[0]):
            steps = _record_steps(model)
            out.append((search(), len(steps)))
            if patched is None:
                del model._beam_log_probs
            else:
                model._beam_log_probs = patched
        return out

    @pytest.mark.parametrize("trained", ["toy_two_epoch", "toy_ten_epoch"])
    def test_toy_corpus_summaries_unchanged(self, trained, request):
        """Beam 5 over the toy corpus; the 10-epoch model ends sources early."""
        model, encoded = request.getfixturevalue(trained)
        saved = 0
        for enc in encoded:
            with no_grad():
                state = model.script_encoder(enc.src_ids, enc.bundle)
            (got, steps), (want, former_steps) = self._both(model, state, 5, 50)
            assert got == want
            assert steps <= former_steps
            saved += former_steps - steps
        if trained == "toy_ten_epoch":
            assert saved > 0

    def test_criterion7_models_at_any_length_penalty(self):
        """Criterion 7's 100 tiny models with a raised EOS bias, so that
        beams finish before max_len, at length penalties of both signs."""
        saved = dict.fromkeys((1.0, 0.0, -0.7, 2.5), 0)
        for seed in range(100):
            model = tiny_model(seed=seed)
            model.params["out_bias"].data[model.config.eos_id] += 1.5
            with no_grad():
                state = model.script_encoder(*criterion7_source(seed))
            for length_penalty in saved:
                (got, steps), (want, former_steps) = self._both(model, state, 5, 8, length_penalty)
                assert got == want
                assert steps <= former_steps
                saved[length_penalty] += former_steps - steps
        assert all(saved.values()), saved

    def test_reach_equals_the_running_maximum_it_replaced(self):
        """_reach(t, ...) equals the largest L ** length_penalty over
        t < L <= max_len taken as a running maximum over every L, at
        every step _search reads it, for penalties of both signs."""
        reads = 0
        for length_penalty in (0.0, 1e-3, -1e-3, -0.5, -1.7, 0.5, 0.7, 1.0, 1.3, 2.0, 3.1):
            for max_len in [*range(1, 300), 1000, 5000]:
                powers = (length ** length_penalty for length in range(max_len, 0, -1))
                reach = list(accumulate(powers, max))[::-1]
                for step in range(1, max_len):
                    assert _reach(step, max_len, length_penalty) == reach[step], (length_penalty, max_len, step)
                reads += max_len - 1
        assert reads == 556_039

    def test_a_huge_max_len_costs_no_memory(self):
        """A source that ends at its first step holds no memory in
        proportion to max_len: EOS scores near 0 and every other token
        near -1e6, so the live beams cannot overtake it."""
        rng = np.random.default_rng(33)
        model = tiny_model()
        model.params["out_bias"].data[model.config.eos_id] = 1e6
        with no_grad():
            state = model.script_encoder(np.array([1, 2, 3]), random_bundle(rng, 3))
        tracemalloc.start()
        try:
            ids = model.beam_search(state, beam_size=5, max_len=2_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ids == []
        assert peak < 2**20, peak

    @pytest.mark.parametrize("length_penalty", [1.0, -0.5])
    def test_source_ends_once_no_beam_can_overtake(self, monkeypatch, length_penalty):
        """EOS first scores -0.1; every other token scores -3, so every
        continuation scores below -0.1 at any length: the source ends after
        one step, where the former rule decodes all 10."""
        model = tiny_model(tgt_vocab_size=8)
        eos = model.config.eos_id

        def beam_log_probs(seqs, state, cache):
            log_probs = np.full((len(seqs), model.config.tgt_vocab_size), -3.0)
            log_probs[:, eos] = -0.1
            return log_probs

        monkeypatch.setattr(model, "_beam_log_probs", beam_log_probs)
        (got, steps), (want, former_steps) = self._both(model, None, 3, 10, length_penalty)
        assert got == want == []
        assert (steps, former_steps) == (1, 10)

    def test_a_live_beam_that_can_tie_keeps_decoding(self, monkeypatch):
        """EOS first scores -0.1 / 1; token 0 first costs -1.0, then nothing,
        so its beam can reach -1.0 / 10 = -0.1 at max_len, a tie that the
        smaller sequence wins. The source must not end on a tie."""
        model = tiny_model(tgt_vocab_size=8)
        eos = model.config.eos_id

        def beam_log_probs(seqs, state, cache):
            log_probs = np.full((len(seqs), model.config.tgt_vocab_size), -50.0)
            for row, seq in enumerate(seqs):
                log_probs[row, [0, eos]] = (-1.0, -0.1) if len(seq) == 1 else (0.0, -50.0)
            return log_probs

        monkeypatch.setattr(model, "_beam_log_probs", beam_log_probs)
        (got, steps), (want, former_steps) = self._both(model, None, 3, 10)
        assert got == want == [0] * 10
        assert steps == former_steps == 10


def write_raw_checkpoint(path, params, data: bytes) -> None:
    header = json.dumps({"params": params}).encode("utf-8")
    path.write_bytes(struct.pack("<Q", len(header)) + header + data)


GOOD_ENTRY = {"name": "w", "shape": [2], "dtype": "<f8", "offset": 0}


def stepped_state():
    """A tiny model and its last.ckpt arrays (copies) after one Adam step."""
    model = tiny_model(seed=5)
    opt = Adam(model)
    for p in model.params.values():
        p.grad = np.ones_like(p.data)
    opt.step(0.01)
    return model, {**model.state_dict(), **{k: v.copy() for k, v in opt.state_arrays().items()}}

GOLDEN_CONFIG = ModelConfig(
    src_vocab_size=13, tgt_vocab_size=11, d_model=8, n_heads=2,
    n_script_modules=2, n_decoder_layers=2, ffn_dim=16,
)


class TestParamSchema:
    @pytest.mark.parametrize(
        "overrides, digest",
        [
            ({}, "f42557b9213709f82cdc1b81e3b3d2b7a30e0971a872345a8bbedd32723f0950"),
            (
                dict(n_script_modules=1, n_decoder_layers=1, srpe_placement="all",
                     layer_plan=("PLAIN", "SRPEi")),
                "33f870b1e5dc4029b1b4c33cf02d2bbbbb05743b63c1bd332bf0572ff9bd37bd",
            ),
        ],
        ids=["rdw-srpei", "plain-srpei-all"],
    )
    def test_initial_checkpoint_digest(self, tmp_path, overrides, digest):
        # pins the draw order: one draw per parameter, in schema order
        path = tmp_path / "init.ckpt"
        config = dataclasses.replace(GOLDEN_CONFIG, **overrides)
        save_checkpoint(ScriptModel(config, seed=3).state_dict(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_from_state_dict_draws_nothing(self, monkeypatch):
        rng = np.random.default_rng(31)
        source = tiny_model(seed=11)
        bundle = random_bundle(rng, 6)
        ids = rng.integers(0, 13, 6)

        def no_draws(*args):
            raise AssertionError("a weight was drawn")

        monkeypatch.setattr(scriptsum.model, "_draw", no_draws)
        rebuilt = ScriptModel.from_state_dict(source.config, source.state_dict())
        assert np.array_equal(
            rebuilt.script_encoder(ids, bundle).data, source.script_encoder(ids, bundle).data
        )
        state = source.state_dict()
        state["enc0.attn.q1"] = state["enc0.attn.q1"][:, :1]
        with pytest.raises(ArtifactMismatchError, match="'enc0.attn.q1' has shape"):
            ScriptModel.from_state_dict(source.config, state)

    def test_model_holds_one_projection_per_attention(self):
        config = ModelConfig(src_vocab_size=10, tgt_vocab_size=10, d_model=16, ffn_dim=16)  # defaults' layers
        model = ScriptModel(config)
        assert (len(param_schema(config)), len(model.params)) == (623, 245)
        for name in ("enc0.attn.q", "dec5.self.k", "dec5.cross.v"):
            assert model.params[name].shape == (16, 16)

    def test_state_uses_schema_names_and_shapes(self):
        model = tiny_model(seed=2, srpe_placement="all")
        schema = param_schema(model.config)
        state = model.state_dict()
        assert {name: arr.shape for name, arr in state.items()} == {name: shape for name, (shape, _) in schema.items()}
        assert set(Adam(model).state_arrays()) == {"adam.step"} | {f"adam.{kind}.{name}" for kind in "mv" for name in schema}

    def test_hand_drawn_per_head_state_round_trips(self):
        """param_schema drawn one array per name, as the model once held
        them, is the constructor's state, and loads back unchanged."""
        config = tiny_config(srpe_placement="all")
        rng = np.random.default_rng(3)
        state = {name: scriptsum.model._draw(rng, shape, init) for name, (shape, init) in param_schema(config).items()}
        for model in (ScriptModel(config, seed=3), ScriptModel.from_state_dict(config, state)):
            back = model.state_dict()
            assert list(back) == list(state)
            assert all(np.array_equal(back[name], arr) and back[name].flags.c_contiguous for name, arr in state.items())


class TestCheckpointAndSidecar:
    def test_zero_dim_array_round_trips(self, tmp_path):
        path = tmp_path / "scalar.ckpt"
        save_checkpoint({"s": np.array(2.5)}, path)
        loaded = load_checkpoint(path)["s"]
        assert loaded.shape == () and loaded == 2.5

    def test_round_trip_preserves_outputs(self, tmp_path):
        rng = np.random.default_rng(27)
        model = tiny_model(seed=11)
        n = 5
        bundle = random_bundle(rng, n)
        ids = rng.integers(0, 13, n)
        base = model.script_encoder(ids, bundle).data
        path = tmp_path / "model.ckpt"
        save_checkpoint(model.state_dict(), path)
        fresh = tiny_model(seed=99)
        assert not np.array_equal(fresh.script_encoder(ids, bundle).data, base)
        fresh.load_state_dict(load_checkpoint(path))
        assert np.array_equal(fresh.script_encoder(ids, bundle).data, base)

    def test_checkpoint_bytes_are_canonical(self, tmp_path):
        model = tiny_model(seed=1)
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        save_checkpoint(model.state_dict(), a)
        save_checkpoint(load_checkpoint(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_save_streams_each_array(self, tmp_path):
        """Saving writes each array's own buffer: a 32 MiB array adds no
        copy of itself to the traced peak."""
        params = {"w": np.ones((1024, 4096))}
        path = tmp_path / "big.ckpt"
        tracemalloc.start()
        try:
            save_checkpoint(params, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"save peaked at {peak / 2**20:.1f} MiB"
        assert np.array_equal(load_checkpoint(path)["w"], params["w"])

    def test_load_reads_each_array_once(self, tmp_path):
        """Loading reads each entry straight into the array it returns: a
        32 MiB array's traced load peak is the array and little more."""
        params = {"w": np.ones((1024, 4096))}
        path = tmp_path / "big.ckpt"
        save_checkpoint(params, path)
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * params["w"].nbytes, f"load peaked at {peak / 2**20:.1f} MiB"
        assert np.array_equal(loaded["w"], params["w"])

    @pytest.mark.parametrize("where", ["length-field", "header", "data-start", "last-byte"])
    def test_cut_file_rejected(self, tmp_path, where):
        path = tmp_path / "cut.ckpt"
        save_checkpoint({"a": np.arange(3.0), "b": np.ones((2, 2))}, path)
        data = path.read_bytes()
        base = 8 + struct.unpack("<Q", data[:8])[0]
        cut = {"length-field": 4, "header": (8 + base) // 2, "data-start": base, "last-byte": len(data) - 1}[where]
        path.write_bytes(data[:cut])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_loaded_arrays_become_the_state(self, tmp_path, monkeypatch):
        """from_state_dict and Adam.load_state_arrays keep the arrays
        load_checkpoint returns, copying only each head's block into its
        joined array, and draw no weight."""
        source, state = stepped_state()
        path = tmp_path / "last.ckpt"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)

        def no_draws(*args):
            raise AssertionError("a weight was drawn")

        monkeypatch.setattr(scriptsum.model, "_draw", no_draws)
        schema = param_schema(source.config)
        model = ScriptModel.from_state_dict(source.config, {name: loaded[name] for name in schema})
        fresh = Adam(model)
        fresh.load_state_arrays(loaded)
        whole = [name for name in model.params if name in schema]
        assert len(whole) < len(model.params)
        for name in whole:
            assert np.shares_memory(model.params[name].data, loaded[name]), name
            assert np.shares_memory(fresh.m[name], loaded[f"adam.m.{name}"]), name
            assert np.shares_memory(fresh.v[name], loaded[f"adam.v.{name}"]), name
        assert not any(np.shares_memory(model.params["enc0.attn.q"].data, loaded[f"enc0.attn.q{h}"]) for h in (0, 1))
        assert model.state_dict().keys() == source.state_dict().keys()
        assert all(np.array_equal(a, state[k]) for k, a in model.state_dict().items())

    @pytest.mark.parametrize("layout", ["read-only", "fortran"])
    def test_foreign_arrays_are_copied(self, layout):
        """An array that is not C-contiguous and writeable is copied on
        load, so the model and Adam still step it in place."""

        def foreign(arr: np.ndarray) -> np.ndarray:
            if layout == "read-only":
                return np.frombuffer(arr.tobytes()).reshape(arr.shape)
            return np.asfortranarray(arr.copy())

        source, state = stepped_state()
        given = {name: foreign(arr) for name, arr in state.items()}
        schema = param_schema(source.config)
        results = []
        for arrays in ({k: v.copy() for k, v in state.items()}, given):
            model = ScriptModel.from_state_dict(source.config, {name: arrays[name] for name in schema})
            adam = Adam(model)
            adam.load_state_arrays(arrays)
            for name, p in model.params.items():
                p.grad = np.full_like(p.data, 0.5)
                assert p.data.flags.c_contiguous and p.data.flags.writeable, name
                kept = arrays.get(name)
                if kept is not None and not (kept.flags.c_contiguous and kept.flags.writeable):
                    assert not np.shares_memory(p.data, kept), name
                    assert not np.shares_memory(adam.m[name], arrays[f"adam.m.{name}"]), name
            adam.step(0.01)
            results.append({**model.state_dict(), **adam.state_arrays()})
        assert results[0].keys() == results[1].keys()
        assert all(np.array_equal(results[0][k], results[1][k]) for k in results[0])

    def test_mismatched_names_rejected(self, tmp_path):
        model = tiny_model()
        state = model.state_dict()
        state.pop("out_bias")
        with pytest.raises(ArtifactMismatchError):
            model.load_state_dict(state)
        state = model.state_dict()
        state["intruder"] = np.zeros(3)
        with pytest.raises(ArtifactMismatchError):
            model.load_state_dict(state)

    def test_mismatched_shape_rejected(self):
        model = tiny_model()
        state = model.state_dict()
        state["out_bias"] = np.zeros(3)
        with pytest.raises(ArtifactMismatchError):
            model.load_state_dict(state)

    def test_non_finite_parameter_rejected(self):
        model = tiny_model()
        state = model.state_dict()
        state["enc0.attn.q0"][1, 0] = np.nan
        state["dec0.ffn.w1"][0, 0] = np.inf
        with pytest.raises(NumericsError, match="'enc0.attn.q0'"):
            model.load_state_dict(state)
        assert all(np.isfinite(t.data).all() for t in model.params.values())

    def test_corrupt_checkpoint_file(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"\x01")
        with pytest.raises(FormatError):
            load_checkpoint(path)
        path.write_bytes(b"\xff" * 24)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_well_formed_raw_checkpoint_loads(self, tmp_path):
        path = tmp_path / "ok.ckpt"
        write_raw_checkpoint(path, [GOOD_ENTRY], np.arange(4.0).tobytes())
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded["w"], [0.0, 1.0])
        assert loaded["w"].dtype == np.float64 and loaded["w"].flags.writeable

    @pytest.mark.parametrize(
        "params",
        [
            [dict(GOOD_ENTRY, dtype="O")],
            [dict(GOOD_ENTRY, dtype="<i8")],
            [dict(GOOD_ENTRY, dtype="float64")],
            [GOOD_ENTRY, dict(GOOD_ENTRY, offset=16)],
            [dict(GOOD_ENTRY, shape=[-1])],
            [dict(GOOD_ENTRY, shape=[2.0])],
            [dict(GOOD_ENTRY, shape=2)],
            [dict(GOOD_ENTRY, offset=-8)],
            [dict(GOOD_ENTRY, name=7)],
            [dict(GOOD_ENTRY, shape=[2**40, 2**40])],
            [dict(GOOD_ENTRY, shape=[2] + [1] * 32)],
            [dict(GOOD_ENTRY, shape=[2] + [1] * 99)],
            ["w"],
            5,
        ],
        ids=[
            "object-dtype", "int-dtype", "dtype-alias", "duplicate-name", "negative-dim",
            "float-dim", "scalar-shape", "negative-offset", "non-string-name",
            "huge-shape", "33-dims", "100-dims", "entry-not-object", "params-not-a-list",
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, params):
        path = tmp_path / "bad.ckpt"
        write_raw_checkpoint(path, params, np.arange(4.0).tobytes())
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_sidecar_round_trip(self, tmp_path):
        cfg = tiny_config(mask_mode="neg_inf")
        path = tmp_path / "model.json"
        save_model_sidecar(path, cfg, extra={"note": "x"})
        loaded, payload = load_model_sidecar(path)
        assert loaded == cfg
        assert payload["note"] == "x"

    def test_sidecar_validation(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{nope")
        with pytest.raises(FormatError):
            load_model_sidecar(path)
        path.write_text("{}")
        with pytest.raises(FormatError):
            load_model_sidecar(path)
