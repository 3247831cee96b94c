import dataclasses
import hashlib
import json
import struct

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
from scriptsum.model import (
    LAYER_TAGS,
    SRPE_PLACEMENTS,
    DecoderCache,
    ModelConfig,
    ScriptModel,
    ablation_layer_plan,
    load_model_sidecar,
    save_model_sidecar,
)
from scriptsum.structure import StructuralEncodings
from scriptsum.tensor import Tensor, _grad_enabled, grad_check, no_grad, sum_all, tensor

from conftest import make_example, random_bundle, tiny_config, tiny_model
from oracles import exhaustive_decode, greedy_oracle, vanilla_attention


def embed_input(model, src_ids):
    import math

    from scriptsum.tensor import embed, scale

    return scale(embed(model.params["src_embed"], np.asarray(src_ids)), math.sqrt(model.config.d_model))


def zero_rel_tables(model, base):
    for suffix in ("seq_k", "seq_v", "str_k", "str_v"):
        name = f"{base}.{suffix}"
        if name in model.params:
            model.params[name].data = np.zeros_like(model.params[name].data)


def pad_bundle(bundle, extra):
    n = bundle.distances.shape[0]
    m = n + extra

    def pad(mat):
        out = np.zeros((m, m), dtype=mat.dtype)
        out[:n, :n] = mat
        return out

    mv = pad(bundle.multiview)
    # padded query rows keep real keys unmasked so the row stays viable
    # (their outputs are discarded; real rows never see padded keys)
    mv[n:, :] = 1.0
    return StructuralEncodings(
        distances=pad(bundle.distances),
        distance_weights=pad(bundle.distance_weights),
        bucket_ids=pad(bundle.bucket_ids),
        multiview=mv,
    )


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
        out_a = model.encoder_layer("RDW", 0, x, bundle)
        out_b = model.encoder_layer("RDW", 0, x, perturbed)
        assert np.array_equal(out_a.data, out_b.data)

    def test_distance_weight_shape_mismatch(self):
        rng = np.random.default_rng(4)
        model = tiny_model()
        x = Tensor(rng.standard_normal((3, model.config.d_model)))
        bundle = random_bundle(rng, 4)
        with pytest.raises(ShapeError):
            model.encoder_layer("RDW", 0, x, bundle)

    def test_gradients(self):
        rng = np.random.default_rng(5)
        model = tiny_model()
        n = 4
        bundle = random_bundle(rng, n)
        x = tensor(rng.standard_normal((n, model.config.d_model)), requires_grad=True)
        params = [
            model.params["enc0.fc2_w"],
            model.params["enc0.attn.q0"],
            model.params["enc0.seq_k"],
            model.params["enc0.ffn.w1"],
            model.params["enc0.ln1_g"],
        ]

        def f(x_, *_):
            return sum_all(model.encoder_layer("RDW", 0, x_, bundle))

        report = grad_check(f, [x, *params])
        assert report.passed, report


class TestSrpeiLayer:
    def test_output_invariant_beyond_clip(self):
        from scriptsum.structure import DistanceMatrix, bucketize, normalize

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
        buckets = bucketize(DistanceMatrix(n=n, d=raw), 2)
        perturbed = StructuralEncodings(
            distances=raw.astype(np.int64),
            distance_weights=normalize(
                DistanceMatrix(n=n, d=buckets.b.astype(np.float64))
            ).m_bar,
            bucket_ids=buckets.b,
            multiview=bundle.multiview,
        )
        out_a = model.encoder_layer("SRPEi", 1, x, bundle)
        out_b = model.encoder_layer("SRPEi", 1, x, perturbed)
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
        out_a = model.encoder_layer("SRPEi", 1, x, ast_only)
        out_b = model.encoder_layer("SRPEi", 1, x, flow_only)
        assert np.array_equal(out_a.data, out_b.data)

    def test_gradients(self):
        rng = np.random.default_rng(8)
        model = tiny_model()
        n = 4
        bundle = random_bundle(rng, n)
        x = tensor(rng.standard_normal((n, model.config.d_model)), requires_grad=True)
        params = [
            model.params["enc1.attn.k1"],
            model.params["enc1.str_k"],
            model.params["enc1.str_v"],
            model.params["enc1.ffn.w2"],
        ]

        def f(x_, *_):
            return sum_all(model.encoder_layer("SRPEi", 1, x_, bundle))

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
        base = model.encoder_layer(tag, 0, x, bundle).data
        covered = {"SRPEi_only": {"SRPEi"}, "RDW_only": {"RDW"}, "all": {"RDW", "SRPEi"}}
        perturbed = {
            "bucket_ids": ((bundle.bucket_ids + 1) % (model.config.l + 1), tag in covered[placement]),
            "multiview": (bundle.multiview * rng.uniform(0.5, 2.0, (n, n)), tag == "SRPEi"),
            "distance_weights": (bundle.distance_weights[::-1].copy(), tag == "RDW"),
        }
        for field, (value, used) in perturbed.items():
            out = model.encoder_layer(tag, 0, x, dataclasses.replace(bundle, **{field: value})).data
            assert (not np.array_equal(out, base)) == used, field


class TestScriptEncoder:
    def test_deterministic_across_instances(self):
        rng = np.random.default_rng(9)
        n = 5
        bundle = random_bundle(rng, n)
        ids = rng.integers(0, 13, n)
        out_a = ScriptModel(tiny_config(), seed=3).script_encoder(ids, bundle).h.data
        out_b = ScriptModel(tiny_config(), seed=3).script_encoder(ids, bundle).h.data
        assert np.array_equal(out_a, out_b)

    def test_all_plain_ignores_structural_inputs(self):
        rng = np.random.default_rng(10)
        model = tiny_model(layer_plan=("PLAIN", "PLAIN"))
        n = 6
        bundle = random_bundle(rng, n)
        ids = rng.integers(0, 13, n)
        base = model.script_encoder(ids, bundle).h.data
        perturbed = StructuralEncodings(
            distances=bundle.distances,
            distance_weights=np.abs(rng.standard_normal((n, n))),
            bucket_ids=rng.integers(0, 5, (n, n)),
            multiview=np.abs(rng.standard_normal((n, n))),
        )
        assert np.array_equal(base, model.script_encoder(ids, perturbed).h.data)

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
        out = model.script_encoder(ids, bundle).h.data
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
        out = model.script_encoder(ids, bundle).h.data
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

    def test_padding_invariance(self):
        rng = np.random.default_rng(14)
        for mask_mode in ("multiply", "neg_inf"):
            model = tiny_model(mask_mode=mask_mode)
            n = 5
            bundle = random_bundle(rng, n)
            ids = rng.integers(3, 13, n)
            base = model.script_encoder(ids, bundle).h.data
            extra = 3
            padded_ids = np.concatenate([ids, np.zeros(extra, dtype=np.int64)])
            mask = np.concatenate([np.ones(n), np.zeros(extra)])
            padded = model.script_encoder(padded_ids, pad_bundle(bundle, extra), mask)
            assert np.allclose(padded.h.data[:n], base, atol=1e-9)

    def test_padded_keys_get_zero_attention(self):
        rng = np.random.default_rng(15)
        model = tiny_model()
        n, extra = 4, 2
        bundle = random_bundle(rng, n)
        ids = np.concatenate([rng.integers(3, 13, n), np.zeros(extra, dtype=np.int64)])
        mask = np.concatenate([np.ones(n), np.zeros(extra)])
        captured = []
        model.script_encoder(ids, pad_bundle(bundle, extra), mask, capture=captured)
        for alpha in captured:
            assert np.all(alpha[:n, n:] == 0.0)


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
        probs = model.decoder_step([1, 3], state)
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
            model.params["dec0.self.q0"],
            model.params["dec0.cross.k1"],
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
    "clipped_offsets": (dict(k=2), dict(beam_size=3, max_len=7), 0),
    "padded_source": (dict(), dict(beam_size=3, max_len=5), 2),
    "beam_wider_than_vocab": (dict(tgt_vocab_size=5), dict(beam_size=8, max_len=4), 0),
    "dropout_eval": (dict(dropout_p=0.3), dict(beam_size=3, max_len=5), 0),
}


class TestCachedDecoding:
    @pytest.mark.parametrize("case", CACHE_CASES)
    def test_cached_steps_match_full_decode(self, case):
        """At every step, each live beam's cached logits equal the last row
        of a full decoder pass over its prefix."""
        overrides, search, extra = CACHE_CASES[case]
        rng = np.random.default_rng(list(CACHE_CASES).index(case))
        compared = 0
        for seed in range(3):
            model = tiny_model(seed=seed, n_decoder_layers=2, **overrides)
            n = 4
            ids = np.concatenate([rng.integers(3, 13, n), np.zeros(extra, dtype=np.int64)])
            mask = np.concatenate([np.ones(n), np.zeros(extra)]) if extra else None
            state = model.script_encoder(ids, pad_bundle(random_bundle(rng, n), extra), mask)
            assert (state.mask is not None) == (case == "padded_source")
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


def write_raw_checkpoint(path, params, data: bytes) -> None:
    header = json.dumps({"params": params}).encode("utf-8")
    path.write_bytes(struct.pack("<Q", len(header)) + header + data)


GOOD_ENTRY = {"name": "w", "shape": [2], "dtype": "<f8", "offset": 0}

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
            rebuilt.script_encoder(ids, bundle).h.data, source.script_encoder(ids, bundle).h.data
        )
        state = source.state_dict()
        state["enc0.attn.q1"] = state["enc0.attn.q1"][:, :1]
        with pytest.raises(ArtifactMismatchError, match="'enc0.attn.q1' has shape"):
            ScriptModel.from_state_dict(source.config, state)


class TestCheckpointAndSidecar:
    def test_round_trip_preserves_outputs(self, tmp_path):
        rng = np.random.default_rng(27)
        model = tiny_model(seed=11)
        n = 5
        bundle = random_bundle(rng, n)
        ids = rng.integers(0, 13, n)
        base = model.script_encoder(ids, bundle).h.data
        path = tmp_path / "model.ckpt"
        save_checkpoint(model.state_dict(), path)
        fresh = tiny_model(seed=99)
        assert not np.array_equal(fresh.script_encoder(ids, bundle).h.data, base)
        fresh.load_state_dict(load_checkpoint(path))
        assert np.array_equal(fresh.script_encoder(ids, bundle).h.data, base)

    def test_checkpoint_bytes_are_canonical(self, tmp_path):
        model = tiny_model(seed=1)
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        save_checkpoint(model.state_dict(), a)
        save_checkpoint(load_checkpoint(a), b)
        assert a.read_bytes() == b.read_bytes()

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
            ["w"],
            5,
        ],
        ids=[
            "object-dtype", "int-dtype", "dtype-alias", "duplicate-name", "negative-dim",
            "float-dim", "scalar-shape", "negative-offset", "non-string-name",
            "huge-shape", "entry-not-object", "params-not-a-list",
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
