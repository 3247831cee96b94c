"""End-to-end acceptance gate.

Each test prints one [PASS]/[FAIL] line on the real stdout so the result
survives pytest's capture. Tolerances and budgets are asserted inline.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from scriptsum.astcore import TokenAlignment, leaf_tokens
from scriptsum.data import build_vocab, encode_examples, load_dataset
from scriptsum.metrics import EvalPair, bleu4, lcs_length, meteor, rouge_l
from scriptsum.minilang import parse_minilang
from scriptsum.model import ModelConfig, ScriptModel, ablation_layer_plan
from scriptsum.structure import (
    StructuralEncodings,
    bucketize,
    encode_structure,
    floyd_apsp,
    normalize,
)
from scriptsum.tensor import (
    Tensor,
    add,
    concat,
    cross_entropy,
    embed,
    gather,
    grad_check,
    layernorm,
    matmul,
    mul,
    relu,
    reshape,
    scale,
    sigmoid,
    softmax_masked,
    sum_all,
    transpose,
)
from scriptsum.training import (
    TrainConfig,
    evaluate_bleu,
    load_model_from_dir,
    train,
)
from scriptsum.training import _read_history

from conftest import encoder_layer_of_one, random_bundle, relative_attention_of_one, tiny_config, tiny_model
from oracles import (
    bfs_apsp,
    brute_force_lcs,
    evaluate_token_accuracy,
    exhaustive_decode,
    greedy_oracle,
    lca_depth,
    node_depths,
    random_tree,
    vanilla_attention,
)


@contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except BaseException:
        _record(f"[FAIL] criterion {n:2d}: {label}")
        raise
    _record(f"[PASS] criterion {n:2d}: {label}")


def _record(line: str) -> None:
    import conftest

    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def test_01_graph_distance_oracle():
    with criterion(1, "tree distances match BFS and the LCA depth identity (1000 trees, <30s)"):
        rng = np.random.default_rng(0)
        t0 = time.perf_counter()
        for _ in range(1000):
            ast = random_tree(rng, int(rng.integers(1, 51)))
            d = floyd_apsp(ast)
            assert np.array_equal(d, bfs_apsp(ast))
            depths = node_depths(ast)
            n = len(ast.nodes)
            for _ in range(5):
                i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
                assert d[i, j] == depths[i] + depths[j] - 2 * lca_depth(ast, i, j)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_02_normalized_position_matrix_properties():
    with criterion(2, "normalized rows sum to 1 and invert the distance order (1000 cases)"):
        rng = np.random.default_rng(1)
        for case in range(1000):
            n_nodes = int(rng.integers(1, 24))
            ast = random_tree(rng, n_nodes)
            leaves = [node.id for node in ast.nodes if not node.children]
            # occasional repeats model several subtokens on one leaf
            n_tok = int(rng.integers(1, 9))
            align = TokenAlignment(tuple(int(rng.choice(leaves)) for _ in range(n_tok)))
            idx = list(align.token_to_node)
            d = floyd_apsp(ast)[np.ix_(idx, idx)]
            m_bar = normalize(d)
            for i in range(n_tok):
                row_d = d[i]
                row_w = m_bar[i]
                if (row_d > 0).any():
                    assert abs(row_w.sum() - 1.0) <= 1e-9
                else:
                    assert np.all(row_w == 0.0)
                assert np.all(row_w[row_d == 0] == 0.0)
                pos = np.flatnonzero(row_d > 0)
                for a in pos:
                    for b in pos:
                        if row_d[a] < row_d[b]:
                            assert row_w[a] > row_w[b]
        single = normalize(np.zeros((1, 1)))
        assert np.all(single == 0.0)


def test_03_clipping_invariance_is_bit_exact():
    with criterion(3, "raising any distance already >= l leaves the encoder output bit-identical"):
        rng = np.random.default_rng(2)
        codes = [
            "function f(a, b) { if (a < b) { return a; } return b; }",
            "total = 0; i = 0; while (i < n) { total = total + i; i = i + 1; }",
            "x = g(a, b + c) * 2;",
        ]
        for mask_mode in ("multiply", "neg_inf"):
            model = tiny_model(d_model=16, l=3, mask_mode=mask_mode)
            for code in codes:
                ast = parse_minilang(code)
                tokens, align = leaf_tokens(ast)
                bundle = encode_structure(ast, align, 3, (1 / 3, 1 / 3, 1 / 3))
                ids = rng.integers(0, model.config.src_vocab_size, len(tokens))
                base = model.script_encoder(ids, bundle).data

                raw = bundle.distances.astype(np.float64).copy()
                n = raw.shape[0]
                bump = rng.integers(0, 6, (n, n))
                bump = np.triu(bump, 1)
                bump = bump + bump.T
                raw += np.where(raw >= 3, bump, 0)
                buckets = bucketize(raw, 3)
                perturbed = StructuralEncodings(
                    distances=raw.astype(np.int64),
                    distance_weights=normalize(buckets.astype(np.float64)),
                    bucket_ids=buckets,
                    multiview=bundle.multiview,
                )
                out = model.script_encoder(ids, perturbed).data
                assert np.array_equal(base, out)


def test_04_gradient_suite():
    with criterion(4, "finite-difference gradients within 1e-4 for every layer (100+ seeds, <5min)"):
        t0 = time.perf_counter()
        seeds_used = 0

        def check(f, points, seed):
            nonlocal seeds_used
            seeds_used += 1
            report = grad_check(f, points, tolerance=1e-4, epsilon=1e-5)
            assert report.passed, f"seed {seed}: max rel error {report.max_rel_error:.2e}"

        # primitives: ten composites, five seeds each; random readout weights
        # keep otherwise-symmetric gradients visible and are drawn up front
        # so every re-evaluation sees the same function
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            a = Tensor(rng.standard_normal((3, 4)))
            b = Tensor(rng.standard_normal((4, 2)))
            c = Tensor(rng.standard_normal((3, 2)))
            w32 = Tensor(rng.standard_normal((3, 2)))
            w34 = Tensor(rng.standard_normal((3, 4)))
            w36 = Tensor(rng.standard_normal((3, 6)))
            w43 = Tensor(rng.standard_normal((4, 3)))
            w233 = Tensor(rng.standard_normal((2, 3, 3)))
            check(lambda a_, b_: sum_all(matmul(a_, b_)), [a, b], seed)
            check(lambda a_, c_: sum_all(mul(add(matmul(a_, Tensor(b.data)), c_), w32)), [a, c], seed)
            check(lambda a_: sum_all(mul(sigmoid(a_), w34)), [a], seed)
            check(lambda a_: sum_all(mul(relu(a_), Tensor(np.ones((3, 4))))), [a], seed)
            check(lambda a_: sum_all(mul(softmax_masked(a_), w34)), [a], seed)
            g = Tensor(rng.standard_normal(4))
            bias = Tensor(rng.standard_normal(4))
            check(
                lambda a_, g_, b_: sum_all(mul(layernorm(a_, g_, b_), w34)),
                [a, g, bias],
                seed,
            )
            logits = Tensor(rng.standard_normal((5, 6)))
            targets = rng.integers(0, 6, 5)
            check(lambda l_: cross_entropy(l_, targets), [logits], seed)
            table = Tensor(rng.standard_normal((7, 3)))
            ids = rng.integers(0, 7, (4,))
            check(lambda t_: sum_all(mul(embed(t_, ids), w43)), [table], seed)
            idx = rng.integers(0, 7, (2, 3))
            check(lambda t_: sum_all(mul(gather(t_, idx), w233)), [table], seed)
            check(
                lambda a_, c_: sum_all(
                    mul(
                        concat([reshape(transpose(a_, (1, 0)), (3, 4)), scale(c_, 1.5)], axis=1),
                        w36,
                    )
                ),
                [a, c],
                seed,
            )

        # structure-aware encoder layers and the decoder
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            model = tiny_model(seed=seed)
            bundle = random_bundle(rng, 4)
            x = Tensor(rng.standard_normal((4, model.config.d_model)))
            params = [
                model.params["enc0.fc2_w"],
                model.params["enc0.attn.q"],
                model.params["enc0.seq_k"],
                model.params["enc0.ffn.w1"],
            ]
            seq_idx = model._seq_idx(4)
            check(lambda x_, *_: sum_all(encoder_layer_of_one(model, "RDW", 0, x_, bundle, seq_idx=seq_idx)), [x, *params], seed)

        for mask_mode in ("multiply", "neg_inf"):
            for seed in range(10):
                rng = np.random.default_rng(300 + seed)
                model = tiny_model(seed=seed, mask_mode=mask_mode)
                bundle = random_bundle(rng, 4)
                x = Tensor(rng.standard_normal((4, model.config.d_model)))
                params = [
                    model.params["enc1.attn.k"],
                    model.params["enc1.str_k"],
                    model.params["enc1.str_v"],
                    model.params["enc1.ffn.w2"],
                ]
                seq_idx = model._seq_idx(4)
                check(
                    lambda x_, *_: sum_all(encoder_layer_of_one(model, "SRPEi", 1, x_, bundle, seq_idx=seq_idx)),
                    [x, *params],
                    seed,
                )

        for seed in range(10):
            rng = np.random.default_rng(400 + seed)
            model = tiny_model(seed=seed)
            bundle = random_bundle(rng, 4)
            src = rng.integers(0, model.config.src_vocab_size, 4)
            tgt = np.array([1, 6, 7, 2])
            params = [
                model.params["dec0.self.q"],
                model.params["dec0.cross.k"],
                model.params["dec0.seq_v"],
                model.params["out_bias"],
            ]
            check(lambda *_: model.forward_loss(src, bundle, tgt), params, seed)

        # end to end: one module, five-token input, loss through both stacks
        for seed in range(10):
            rng = np.random.default_rng(500 + seed)
            model = tiny_model(seed=seed)
            bundle = random_bundle(rng, 5)
            src = rng.integers(0, model.config.src_vocab_size, 5)
            tgt = np.array([1, 8, 9, 6, 2])
            params = [
                model.params["enc0.attn.v"],
                model.params["enc1.str_v"],
                model.params["dec0.cross.q"],
                model.params["out_bias"],
            ]
            check(lambda *_: model.forward_loss(src, bundle, tgt), params, seed)

        assert seeds_used >= 100, seeds_used
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_05_degeneracy_equivalences():
    with criterion(5, "zeroed tables reduce to vanilla attention; PLAIN layers ignore structure"):
        rng = np.random.default_rng(3)
        for mask_mode in ("multiply", "neg_inf"):
            # enc1 is the SRPEi layer and carries both table families
            model = tiny_model(mask_mode=mask_mode)
            for suffix in ("seq_k", "seq_v", "str_k", "str_v"):
                name = f"enc1.{suffix}"
                if name in model.params:
                    model.params[name].data = np.zeros_like(model.params[name].data)
            n = 6
            x = rng.standard_normal((n, model.config.d_model))
            out = relative_attention_of_one(
                model,
                "enc1.attn",
                Tensor(x),
                Tensor(x),
                rel=(("enc1.seq", model._seq_idx(n)), ("enc1.str", random_bundle(rng, n).bucket_ids)),
                a_mv=np.ones((n, n)),
            )
            oracle = vanilla_attention(model.state_dict(), "enc1.attn", x, model.config.n_heads)
            assert np.max(np.abs(out.data - oracle)) <= 1e-12

        plain = tiny_model(layer_plan=("PLAIN", "PLAIN"))
        n = 6
        bundle = random_bundle(rng, n)
        ids = rng.integers(0, plain.config.src_vocab_size, n)
        base = plain.script_encoder(ids, bundle).data
        perturbed = StructuralEncodings(
            distances=bundle.distances,
            distance_weights=np.abs(rng.standard_normal((n, n))),
            bucket_ids=rng.integers(0, plain.config.l + 1, (n, n)),
            multiview=np.abs(rng.standard_normal((n, n))),
        )
        assert np.array_equal(base, plain.script_encoder(ids, perturbed).data)


def test_06_metric_oracles():
    with criterion(6, "ROUGE-L equals brute force; BLEU/METEOR goldens and identity maxima hold"):
        # exhaustive over a binary alphabet up to length 4
        seqs = [[]]
        for length in range(1, 5):
            seqs += [list(s) for s in np.ndindex(*([2] * length))]
        seqs = [[("a", "b")[i] for i in s] for s in seqs]
        for a in seqs:
            for b in seqs:
                assert lcs_length(a, b) == brute_force_lcs(a, b)
        # random pairs up to the stated length bound
        rng = np.random.default_rng(4)
        alphabet = list("abcd")
        for _ in range(500):
            a = [alphabet[i] for i in rng.integers(0, 4, rng.integers(0, 9))]
            b = [alphabet[i] for i in rng.integers(0, 4, rng.integers(0, 9))]
            assert lcs_length(a, b) == brute_force_lcs(a, b)

        def pair(c, r):
            return EvalPair(candidate=c.split(), references=[r.split()])

        assert bleu4(pair("a b c d", "a b c e")) == pytest.approx(0.6580370064762462, abs=1e-15)
        assert meteor(pair("a b c", "a b c")) == pytest.approx(0.9814814814814815, abs=1e-15)
        assert meteor(pair("a", "a")) == pytest.approx(0.5, abs=1e-15)
        assert rouge_l(pair("a b c", "a c")) == pytest.approx(0.8, abs=1e-15)
        # identity pairs reach their analytic maxima
        for text in ("walk", "walk the tree", "sum all node distances up"):
            p = pair(text, text)
            n = len(text.split())
            assert bleu4(p) == pytest.approx(1.0, abs=1e-15)
            assert rouge_l(p) == pytest.approx(1.0, abs=1e-15)
            assert meteor(p) == pytest.approx(1.0 - 0.5 / n**3, abs=1e-15)


def test_07_decoding_equivalences():
    with criterion(7, "beam size 1 equals greedy (100 models); wide beam equals exhaustive search"):
        for seed in range(100):
            rng = np.random.default_rng(600 + seed)
            model = tiny_model(seed=seed)
            n = int(rng.integers(1, 7))
            bundle = random_bundle(rng, n)
            ids = rng.integers(0, model.config.src_vocab_size, n)
            state = model.script_encoder(ids, bundle)
            beam = model.beam_search(state, beam_size=1, max_len=8)
            assert beam == greedy_oracle(model, state, 8)
            assert beam == model.greedy_decode(state, max_len=8)

        # three non-reserved target tokens; a beam covering every length-3
        # id sequence must match brute-force enumeration
        for seed in range(3):
            rng = np.random.default_rng(700 + seed)
            model = tiny_model(seed=seed, tgt_vocab_size=9)
            bundle = random_bundle(rng, 4)
            ids = rng.integers(0, model.config.src_vocab_size, 4)
            state = model.script_encoder(ids, bundle)
            got = model.beam_search(state, beam_size=800, max_len=3)
            assert got == exhaustive_decode(model, state, max_len=3)


def test_08_overfit_sanity(toy_corpus_path, tmp_path):
    with criterion(8, "32-example corpus overfits to accuracy >= 0.95 and BLEU >= 0.90 in 500 steps"):
        t0 = time.perf_counter()
        examples = load_dataset(toy_corpus_path)
        src, tgt = build_vocab(examples)
        cfg = ModelConfig(
            src_vocab_size=len(src),
            tgt_vocab_size=len(tgt),
            d_model=64,
            n_heads=4,
            n_script_modules=1,
            n_decoder_layers=2,
            ffn_dim=256,
            dropout_p=0.2,
            l=8,
            k=16,
        )
        model = ScriptModel(cfg, seed=0)
        tc = TrainConfig(
            batch_size=8,
            lr=3e-3,
            max_epochs=125,
            early_stop_patience=125,
            seed=0,
            bleu_every=0,
            max_steps=500,
        )
        result = train(model, examples, examples, tc, src, tgt, tmp_path)
        assert result.global_step <= 500
        split = encode_examples(examples, src, tgt)
        acc = evaluate_token_accuracy(model, split)
        bleu = evaluate_bleu(model, split, tgt)
        elapsed = time.perf_counter() - t0
        assert acc >= 0.95, f"token accuracy {acc:.4f}"
        assert bleu >= 0.90, f"train-set BLEU {bleu:.4f}"
        assert elapsed < 600.0, f"took {elapsed:.1f}s"
        _record(
            f"    overfit: accuracy {acc:.4f}, BLEU {bleu:.4f}, "
            f"{result.global_step} steps in {elapsed:.1f}s"
        )


def test_09_ablation_plumbing(toy_corpus_path, tmp_path):
    with criterion(9, "every ablation trains to completion and serializes its identity"):
        examples = load_dataset(toy_corpus_path, distance_clip=4)
        src, tgt = build_vocab(examples)
        tc = TrainConfig(batch_size=8, lr=1e-3, max_epochs=1, seed=0, bleu_every=0)
        variants = {
            "full": dict(),
            "no_rdw": dict(layer_plan=ablation_layer_plan(1, "rdw")),
            "no_srpei": dict(layer_plan=ablation_layer_plan(1, "srpei")),
            "place_rdw_only": dict(srpe_placement="RDW_only"),
            "place_all": dict(srpe_placement="all"),
        }
        for name, overrides in variants.items():
            cfg = tiny_config(
                src_vocab_size=len(src), tgt_vocab_size=len(tgt), **overrides
            )
            model = ScriptModel(cfg, seed=0)
            out = tmp_path / name
            result = train(model, examples, examples[:4], tc, src, tgt, out)
            assert len(result.history) == 1
            restored, payload = load_model_from_dir(out, which="best")
            assert restored.config == cfg
            assert payload["model_config"]["layer_plan"] == list(cfg.layer_plan)
            assert payload["model_config"]["srpe_placement"] == cfg.srpe_placement


def test_10_fixed_seed_determinism(toy_corpus_path, tmp_path):
    with criterion(10, "a fixed seed reproduces history and checkpoints bit-for-bit"):
        examples = load_dataset(toy_corpus_path, distance_clip=4)[:8]
        src, tgt = build_vocab(examples)
        # dropout on so the per-example RNG stream is exercised
        tc = TrainConfig(batch_size=4, lr=1e-3, max_epochs=3, seed=7, bleu_every=1)
        outs = []
        for run in ("a", "b"):
            cfg = tiny_config(
                src_vocab_size=len(src), tgt_vocab_size=len(tgt), dropout_p=0.2
            )
            model = ScriptModel(cfg, seed=tc.seed)
            out = tmp_path / run
            train(model, examples, examples[:4], tc, src, tgt, out)
            outs.append(out)
        a, b = outs
        hist_a = _read_history(a / "history.csv")
        hist_b = _read_history(b / "history.csv")
        assert len(hist_a) == len(hist_b) == 3
        for ra, rb in zip(hist_a, hist_b):
            assert ra.epoch == rb.epoch
            assert ra.train_loss == rb.train_loss
            assert ra.valid_loss == rb.valid_loss
            assert ra.valid_bleu == rb.valid_bleu
            assert ra.lr == rb.lr
        assert (a / "best.ckpt").read_bytes() == (b / "best.ckpt").read_bytes()
        assert (a / "last.ckpt").read_bytes() == (b / "last.ckpt").read_bytes()
