import numpy as np
import pytest

from scriptsum.astcore import leaf_tokens
from scriptsum.data import example_from_record
from scriptsum.minilang import parse_minilang
from scriptsum.model import ModelConfig, ScriptModel
from scriptsum.structure import encode_structure

TOY_CORPUS = "src/scriptsum/data/toy_corpus.jsonl"


@pytest.fixture(scope="session")
def toy_corpus_path():
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / TOY_CORPUS
    assert path.exists(), path
    return path


def make_example(code: str, distance_clip: int = 8, weights=(1 / 3, 1 / 3, 1 / 3)):
    """Parse one MiniLang program into (ast, tokens, alignment, bundle)."""
    ast = parse_minilang(code)
    tokens, align = leaf_tokens(ast)
    bundle = encode_structure(ast, align, distance_clip, weights)
    return ast, tokens, align, bundle


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        src_vocab_size=13,
        tgt_vocab_size=11,
        d_model=8,
        n_heads=2,
        n_script_modules=1,
        n_decoder_layers=1,
        ffn_dim=16,
        dropout_p=0.0,
        l=4,
        k=5,
    )
    base.update(overrides)
    return ModelConfig(**base)


def tiny_model(seed: int = 0, **overrides) -> ScriptModel:
    return ScriptModel(tiny_config(**overrides), seed=seed)


def relative_attention_of_one(model, prefix, x_q, x_kv, *, rel=(), a_mv=None, additive_mask=None, rng=None, **kwargs):
    """model.relative_attention of one example's rows, as a group of one:
    each per-example argument becomes a list of one entry."""

    def one(value):
        return None if value is None else [value]

    return model.relative_attention(
        prefix, x_q, x_kv, rel=tuple((table, [idx]) for table, idx in rel), a_mv=one(a_mv),
        additive_mask=one(additive_mask), rng=[rng], offsets=(0, x_q.shape[0]), kv_offsets=(0, x_kv.shape[0]),
        **kwargs,
    )


def encoder_layer_of_one(model, tag, layer_idx, x, bundle, *, seq_idx, rng=None, **kwargs):
    """model.encoder_layer of one example's rows, as a group of one."""
    return model.encoder_layer(tag, layer_idx, x, [bundle], seq_idx=[seq_idx], rng=[rng], offsets=(0, x.shape[0]),
                               **kwargs)


def tree_with_n_leaves(rng: np.random.Generator, n: int):
    """Random-depth tree with exactly n single-subtoken leaves."""
    from scriptsum.astcore import Ast, AstNode

    nodes = [AstNode(id=0, node_type="Root", value=None, children=())]
    root_children = []
    for leaf in range(n):
        parent = 0
        for _ in range(int(rng.integers(0, 3))):
            nid = len(nodes)
            nodes.append(AstNode(id=nid, node_type="Chain", value=None, children=()))
            if parent == 0:
                root_children.append(nid)
            else:
                prev = nodes[parent]
                nodes[parent] = AstNode(prev.id, prev.node_type, None, (nid,))
            parent = nid
        nid = len(nodes)
        nodes.append(AstNode(id=nid, node_type="Leaf", value=f"tok{leaf}", children=()))
        if parent == 0:
            root_children.append(nid)
        else:
            prev = nodes[parent]
            nodes[parent] = AstNode(prev.id, prev.node_type, None, (nid,))
    nodes[0] = AstNode(0, "Root", None, tuple(root_children))
    return Ast(nodes)


def random_bundle(rng: np.random.Generator, n: int, clip: int = 4):
    """Structural matrices for exactly n tokens from a random tree."""
    tree = tree_with_n_leaves(rng, n)
    tokens, align = leaf_tokens(tree)
    assert len(tokens) == n
    return encode_structure(tree, align, clip)


# one line per acceptance criterion, echoed after the run so the verdicts
# survive output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
