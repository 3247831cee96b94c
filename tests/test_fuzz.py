"""Seeded byte-mutation fuzzing of the CLI's inputs.

Each case flips, inserts or deletes a few bytes of one input file (a JSONL
dataset, a dataset holding an "ast" record, a trained model's
src_vocab.json, best.json or best.ckpt, or the last.ckpt or history.csv
that `train --resume` reads), or relabels a few nodes of an "ast" record
with statement types, and runs a subcommand on it in process. Whatever the bytes, the command must return a documented exit code
(0, 2, 3 or 4) and raise nothing.
"""

import json
import random
import shutil
import struct

import pytest

from scriptsum.astcore import ast_to_json
from scriptsum.cli import main
from scriptsum.minilang import parse_minilang

TINY_TRAIN = [
    "--d-model", "8",
    "--n-heads", "2",
    "--n-script-modules", "1",
    "--n-decoder-layers", "1",
    "--ffn-dim", "16",
    "--distance-clip", "4",
    "--seq-window", "4",
    "--batch-size", "2",
    "--max-epochs", "1",
    "--bleu-every", "0",
    "--seed", "0",
]
DECODE = ["--beam", "2", "--max-len", "4"]
DOCUMENTED_EXITS = {0, 2, 3, 4}


def mutate(rng: random.Random, data: bytes, span: int | None = None) -> bytes:
    """One to three byte edits (overwrite, insert or delete) at positions
    below span (default: anywhere)."""
    buf = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(max(1, min(len(buf), span or len(buf))))
        op = rng.randrange(3)
        if op == 1 or not buf:
            buf.insert(pos, rng.randrange(256))
        elif op == 0:
            buf[pos] = rng.randrange(256)
        else:
            del buf[pos]
    return bytes(buf)


def run_case(case: int, argv: list) -> None:
    argv = [str(a) for a in argv]
    try:
        rc = main(argv)
    except Exception as exc:  # the failure names the case and the command
        pytest.fail(f"case {case}: {argv} raised {type(exc).__name__}: {exc}")
    assert rc in DOCUMENTED_EXITS, f"case {case}: {argv} returned {rc}"


@pytest.fixture(scope="module")
def corpus(toy_corpus_path) -> bytes:
    return "".join(toy_corpus_path.read_text().splitlines(keepends=True)[:4]).encode("utf-8")


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, corpus):
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data.jsonl"
    data.write_bytes(corpus)
    out = root / "model"
    assert main(["train", str(data), str(out)] + TINY_TRAIN) == 0
    return out


def test_mutated_dataset(tmp_path, corpus, model_dir):
    rng = random.Random(0)
    data = tmp_path / "data.jsonl"
    out = tmp_path / "out"
    for case in range(50):
        data.write_bytes(mutate(rng, corpus))
        for argv in (
            ["parse", data, out / "parse"],
            ["encode", data, out / "encode"],
            ["train", data, out / "train", "--max-steps", "1"] + TINY_TRAIN,
            ["eval", model_dir, data, out / "eval"] + DECODE,
            ["summarize", model_dir, data] + DECODE,
        ):
            run_case(case, argv)
        shutil.rmtree(out, ignore_errors=True)


def test_mutated_ast_record(tmp_path, model_dir):
    code = "function f(a, b) { if (a > b) { return a - b; } return b; }"
    record = {"ast": ast_to_json(parse_minilang(code)), "summary": "difference of a and b"}
    original = (json.dumps(record) + "\n").encode("utf-8")
    rng = random.Random(0)
    data = tmp_path / "ast.jsonl"
    for case in range(30):
        data.write_bytes(mutate(rng, original))
        run_case(case, ["encode", data, tmp_path / "encode"])
        run_case(case, ["summarize", model_dir, data] + DECODE)


def test_relabelled_statement_types(tmp_path, model_dir):
    # interchange node types are free-form, so statement types can label
    # nodes of any shape; relabelling keeps the tree valid
    code = "function f(a, b) { if (a > b) { return a; } while (b > 0) { b = b - 1; } return b; }"
    tree = ast_to_json(parse_minilang(code))
    rng = random.Random(0)
    data = tmp_path / "ast.jsonl"
    for case in range(30):
        nodes = json.loads(json.dumps(tree["nodes"]))
        for node in rng.sample(nodes, rng.randint(1, 3)):
            node["type"] = rng.choice(["IfStatement", "WhileStatement", "Block", "Program"])
        data.write_text(json.dumps({"ast": {"nodes": nodes}, "summary": "a b"}) + "\n")
        run_case(case, ["encode", data, tmp_path / "encode"])
        run_case(case, ["summarize", model_dir, data] + DECODE)


@pytest.mark.parametrize("name, cases", [("src_vocab.json", 30), ("best.json", 30), ("best.ckpt", 50)])
def test_mutated_model_file(tmp_path, corpus, model_dir, name, cases):
    data = tmp_path / "data.jsonl"
    data.write_bytes(corpus)
    run_dir = tmp_path / "model"
    shutil.copytree(model_dir, run_dir)
    original = (model_dir / name).read_bytes()
    header_end = 8 + struct.unpack("<Q", original[:8])[0] if name.endswith(".ckpt") else None
    rng = random.Random(0)
    for case in range(cases):
        # checkpoint edits go to the header half of the time, else anywhere
        span = rng.choice([header_end, None])
        (run_dir / name).write_bytes(mutate(rng, original, span))
        run_case(case, ["summarize", run_dir, data] + DECODE)
        if name == "best.json":
            run_case(case, ["eval", run_dir, data, tmp_path / "eval"] + DECODE)


@pytest.mark.parametrize("name", ["last.ckpt", "history.csv"])
def test_mutated_resume_file(tmp_path, corpus, model_dir, name):
    data = tmp_path / "data.jsonl"
    data.write_bytes(corpus)
    run_dir = tmp_path / "model"
    shutil.copytree(model_dir, run_dir)
    originals = {f: (model_dir / f).read_bytes() for f in ("last.ckpt", "history.csv")}
    original = originals[name]
    header_end = 8 + struct.unpack("<Q", original[:8])[0] if name == "last.ckpt" else None
    rng = random.Random(0)
    for case in range(100):
        for f, content in originals.items():
            (run_dir / f).write_bytes(content)
        # checkpoint edits go to the header half of the time, else anywhere
        span = rng.choice([header_end, None])
        (run_dir / name).write_bytes(mutate(rng, original, span))
        run_case(case, ["train", data, run_dir, "--resume"] + TINY_TRAIN + ["--max-epochs", "2"])
