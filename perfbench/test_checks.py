"""Self-test of the benchmark's output checks.

Each check must pass on scriptsum's real output and fail on a deliberately
corrupted copy, so that none passes vacuously. Runs under pytest or alone:

    python3 -m pytest -q perfbench/test_checks.py
    python3 perfbench/test_checks.py
"""

import dataclasses
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np

import scriptsum
from scriptsum import data as sdata

import checks
import gen

CAP = sdata.MAX_SOURCE_TOKENS


def _structure_inputs(record):
    ex = scriptsum.example_from_record(record)
    _, align = scriptsum.leaf_tokens(ex.ast)
    children = [node.children for node in ex.ast.nodes]
    return ex, children, list(align.token_to_node)


def _toy_record():
    with open(sdata.toy_corpus_path(), encoding="utf-8") as fh:
        return json.loads(fh.readline())


def _structure_problems(ex, children, token_to_node, bundle):
    return checks.check_structure(children, token_to_node, bundle, 8, 1.0, CAP)


def test_distances_reject_permuted_row():
    ex, children, t2n = _structure_inputs(_toy_record())
    assert _structure_problems(ex, children, t2n, ex.bundle) == []
    d = ex.bundle.distances.copy()
    row = d[1].copy()
    d[1] = row[::-1]
    assert not np.array_equal(d[1], row)
    bad = dataclasses.replace(ex.bundle, distances=d)
    assert any("breadth-first" in p for p in _structure_problems(ex, children, t2n, bad))


def test_buckets_weights_and_multiview_reject_corruption():
    ex, children, t2n = _structure_inputs(_toy_record())
    b = ex.bundle.bucket_ids.copy()
    b[0, 1] += 1
    assert _structure_problems(ex, children, t2n, dataclasses.replace(ex.bundle, bucket_ids=b))
    w = ex.bundle.distance_weights.copy()
    w[0] *= 1.01
    assert _structure_problems(ex, children, t2n, dataclasses.replace(ex.bundle, distance_weights=w))
    mv = ex.bundle.multiview.copy()
    mv[0, 1] += 0.5
    assert _structure_problems(ex, children, t2n, dataclasses.replace(ex.bundle, multiview=mv))


def test_truncated_weights_reject_a_halved_row():
    code, _, _ = gen.program(random.Random(0), 460)
    ex, children, t2n = _structure_inputs({"code": code, "summary": "x"})
    assert len(t2n) > CAP and _structure_problems(ex, children, t2n, ex.bundle) == []
    w = ex.bundle.distance_weights
    renormalised = w / w.sum(axis=1, keepdims=True)
    fixed = dataclasses.replace(ex.bundle, distance_weights=renormalised)
    assert _structure_problems(ex, children, t2n, fixed) == []
    halved = renormalised.copy()
    halved[5] *= 0.5
    bad = dataclasses.replace(ex.bundle, distance_weights=halved)
    assert _structure_problems(ex, children, t2n, bad)


def test_cap_rejects_untruncated_record():
    code, n_tokens, _ = gen.program(random.Random(0), 460)
    ex = scriptsum.example_from_record({"code": code, "summary": "x"})
    assert n_tokens > CAP and checks.check_cap(n_tokens, ex.code_tokens, ex.bundle, CAP) == []
    assert checks.check_cap(n_tokens, ex.code_tokens[:-1], ex.bundle, CAP)


def _tiny_model():
    ex = scriptsum.example_from_record(_toy_record())
    src_vocab, tgt_vocab = scriptsum.build_vocab([ex])
    config = scriptsum.ModelConfig(
        src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab), d_model=16, n_heads=2,
        n_script_modules=1, n_decoder_layers=1, ffn_dim=32, l=8, k=4)
    model = scriptsum.ScriptModel(config, seed=0)
    state = model.script_encoder(src_vocab.encode(ex.code_tokens), ex.bundle)
    return model, state


def test_greedy_rejects_swapped_token():
    model, state = _tiny_model()
    cfg = model.config
    ids = model.greedy_decode(state, max_len=6)

    def next_logits(prefix):
        with scriptsum.no_grad():
            return model.decode(np.asarray(prefix), state).data[-1]

    oracle = checks.argmax_decode(next_logits, cfg.bos_id, cfg.eos_id, 6)
    assert len(ids) >= 2 and checks.check_greedy(ids, oracle) == []
    swapped = list(ids)
    swapped[0] = (swapped[0] + 1) % cfg.tgt_vocab_size
    assert checks.check_greedy(swapped, oracle)
    assert checks.check_same(swapped, ids, "beam 1 vs greedy")


def test_beam_output_rejects_eos_and_overlong():
    assert checks.check_beam_output([7, 8, 9], (2,), 3) == []
    assert checks.check_beam_output([7, 2, 9], (2,), 3)
    assert checks.check_beam_output([7, 8, 9, 10], (2,), 3)


def test_checkpoint_rejects_changed_byte():
    model, _ = _tiny_model()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        scriptsum.save_checkpoint(model.state_dict(), path)
        assert checks.check_state_equal(scriptsum.load_checkpoint(path), model.state_dict()) == []
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0x01  # a byte inside the last array's data
        path.write_bytes(bytes(blob))
        assert checks.check_state_equal(scriptsum.load_checkpoint(path), model.state_dict())


def test_losses_reject_nonfinite_and_rising():
    assert checks.check_losses([4.0, 3.0], [4.1, 3.2], must_fall=True) == []
    assert checks.check_losses([4.0, float("nan")], [4.1, 3.2], must_fall=False)
    assert checks.check_losses([3.0, 4.0], [4.1, 3.2], must_fall=True)


def test_meteor_rejects_value_off_by_1e6():
    ref = "return the larger of two numbers".split()
    pair = scriptsum.EvalPair(candidate=ref, references=[ref])
    bleu, rouge, met = scriptsum.bleu4(pair), scriptsum.rouge_l(pair), scriptsum.meteor(pair)
    assert checks.check_self_scores(len(ref), bleu, rouge, met) == []
    assert checks.check_self_scores(len(ref), bleu, rouge, met + 1e-6)
    assert checks.check_self_scores(len(ref), bleu - 1e-6, rouge, met)
    assert checks.check_scores([{"bleu4": 1.0 + 1e-6}])


def test_generator_counts_match_the_parser():
    rng = random.Random(7)
    for target in (150, 460):
        code, n_tokens, n_nodes = gen.program(rng, target)
        ast = scriptsum.parse_minilang(code)
        assert len(scriptsum.leaf_tokens(ast)[0]) == n_tokens
        assert len(ast) == n_nodes
    assert gen.long_input_records(3) == gen.long_input_records(3)
    assert gen.long_input_records(3)[-1]["code"] == gen.NESTED_CODE


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
