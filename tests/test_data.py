import json
import tracemalloc

import numpy as np
import pytest

import scriptsum.astcore
from scriptsum.astcore import TokenAlignment, leaf_tokens
from scriptsum.data import (
    BOS_ID,
    EOS_ID,
    MAX_SOURCE_TOKENS,
    MAX_SUMMARY_TOKENS,
    NUM_ID,
    PAD_ID,
    RESERVED_TOKENS,
    STR_ID,
    UNK_ID,
    Example,
    Vocabulary,
    build_vocab,
    encode_examples,
    example_from_record,
    load_dataset,
    make_batches,
    summary_tokens,
)
from scriptsum.errors import ConfigError, EmptyCorpusError, FormatError, ShapeError
from scriptsum.minilang import parse_minilang
from scriptsum.structure import encode_structure


def mini_example(code="x = a + b;", summary="adds two numbers"):
    return example_from_record({"code": code, "summary": summary})


class TestVocabulary:
    def test_reserved_ids(self):
        vocab = Vocabulary([])
        assert len(vocab) == 6
        assert vocab.token_to_id["<pad>"] == PAD_ID == 0
        assert vocab.token_to_id["<bos>"] == BOS_ID == 1
        assert vocab.token_to_id["<eos>"] == EOS_ID == 2
        assert vocab.token_to_id["<unk>"] == UNK_ID == 3
        assert vocab.token_to_id["STR"] == STR_ID == 4
        assert vocab.token_to_id["NUM"] == NUM_ID == 5

    def test_frequency_then_lexicographic_ranking(self):
        examples = [
            Example(("a", "a", "b"), ("z",), None, None),
            Example(("c", "b"), ("z",), None, None),
        ]
        src, _ = build_vocab(examples)
        # a appears twice; b twice; c once -> a, b by name, then c
        assert src.id_to_token[6:] == ["a", "b", "c"]

    def test_max_size_caps_corpus_tokens(self):
        examples = [Example(("a", "a", "b"), ("x", "y"), None, None)]
        src, tgt = build_vocab(examples, max_size=1)
        assert src.id_to_token[6:] == ["a"]
        assert len(tgt) == 7

    def test_negative_max_size_rejected(self):
        examples = [Example(("a", "a", "b"), ("x", "y"), None, None)]
        with pytest.raises(ConfigError, match="max_size"):
            build_vocab(examples, max_size=-1)
        src, _ = build_vocab(examples, max_size=0)
        assert len(src) == 6

    def test_min_freq_filters(self):
        examples = [Example(("a", "a", "b"), ("z", "z", "w"), None, None)]
        src, tgt = build_vocab(examples, min_freq=2)
        assert "b" not in src
        assert "a" in src
        assert tgt.encode(["w"])[0] == UNK_ID

    def test_encode_decode_round_trip(self):
        vocab = Vocabulary(["sum", "list", "of"])
        tokens = ["sum", "of", "list"]
        assert vocab.decode(vocab.encode(tokens)) == tokens

    @pytest.mark.parametrize("end", ["below", "above"])
    def test_decode_refuses_id_out_of_range(self, end):
        """An id outside [0, len) names no token: it raises one line naming
        the id, instead of reading -1 as the last token."""
        vocab = Vocabulary(["sum"])
        bad = -1 if end == "below" else len(vocab)
        with pytest.raises(ShapeError, match=rf"^token id {bad} out of range \[0, {len(vocab)}\)$"):
            vocab.decode([4, bad])

    def test_sentence_marks(self):
        vocab = Vocabulary(["hi"])
        ids = vocab.encode(["hi"], add_sentence_marks=True)
        assert list(ids) == [BOS_ID, vocab.token_to_id["hi"], EOS_ID]
        assert vocab.decode(ids) == ["hi"]
        assert vocab.decode(ids, strip_special=False) == ["<bos>", "hi", "<eos>"]

    def test_unknown_token_encodes_to_unk(self):
        vocab = Vocabulary(["known"])
        assert vocab.encode(["mystery"])[0] == UNK_ID
        assert vocab.decode([UNK_ID]) == ["<unk>"]

    def test_duplicate_corpus_tokens_counted_once(self):
        examples = [
            Example(("dup",), ("s",), None, None),
            Example(("dup",), ("s",), None, None),
        ]
        src, _ = build_vocab(examples)
        assert src.id_to_token.count("dup") == 1

    def test_digest_tracks_content(self):
        a = Vocabulary(["x", "y"])
        b = Vocabulary(["x", "y"])
        c = Vocabulary(["y", "x"])
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_save_load_round_trip(self, tmp_path):
        vocab = Vocabulary(["alpha", "beta"])
        path = tmp_path / "vocab.json"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.id_to_token == vocab.id_to_token
        assert loaded.digest() == vocab.digest()

    def test_load_rejects_bad_files(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text("not json")
        with pytest.raises(FormatError):
            Vocabulary.load(path)
        path.write_text(json.dumps({"tokens": ["wrong", "header"]}))
        with pytest.raises(FormatError):
            Vocabulary.load(path)

    @pytest.mark.parametrize("extra", [["x", "x"], [["x"]], [3]], ids=["duplicate", "list", "int"])
    def test_load_builds_through_the_constructor(self, tmp_path, extra):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps({"tokens": Vocabulary([]).id_to_token + extra}))
        with pytest.raises(FormatError):
            Vocabulary.load(path)
        with pytest.raises(FormatError):
            Vocabulary(extra)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            build_vocab([])


class TestSummaryTokens:
    def test_lowercase_whitespace_split(self):
        assert summary_tokens("Returns the MAX  value") == (
            "returns",
            "the",
            "max",
            "value",
        )

    def test_empty(self):
        assert summary_tokens("   ") == ()


class TestExampleFromRecord:
    def test_code_record(self):
        ex = mini_example()
        assert ex.code_tokens == ("x", "a", "b")
        assert ex.summary_tokens == ("adds", "two", "numbers")
        n = len(ex.code_tokens)
        assert ex.bundle.distance_weights.shape == (n, n)

    def test_ast_record(self):
        doc = {
            "nodes": [
                {"id": 0, "type": "Root", "children": [1]},
                {"id": 1, "type": "Identifier", "value": "flag", "children": []},
            ]
        }
        ex = example_from_record({"ast": doc, "summary": "reads a flag"})
        assert ex.code_tokens == ("flag",)

    def test_exactly_one_input_form(self):
        with pytest.raises(FormatError):
            example_from_record({"summary": "s"})
        with pytest.raises(FormatError):
            example_from_record({"code": "x = 1;", "ast": {"nodes": []}, "summary": "s"})

    def test_summary_required(self):
        with pytest.raises(FormatError):
            example_from_record({"code": "x = 1;"})
        with pytest.raises(FormatError):
            example_from_record({"code": "x = 1;", "summary": 7})

    def test_code_must_be_string(self):
        with pytest.raises(FormatError):
            example_from_record({"code": 5, "summary": "s"})

    def test_summary_truncation(self):
        long_summary = " ".join(f"w{i}" for i in range(80))
        ex = mini_example(summary=long_summary)
        assert len(ex.summary_tokens) == MAX_SUMMARY_TOKENS

    def test_source_truncation_keeps_square_matrices(self):
        stmts = " ".join(f"v{i} = {i};" for i in range(260))
        ex = mini_example(code=stmts, summary="many assignments")
        assert len(ex.code_tokens) == MAX_SOURCE_TOKENS
        assert ex.bundle.distance_weights.shape == (MAX_SOURCE_TOKENS, MAX_SOURCE_TOKENS)
        assert ex.bundle.multiview.shape == (MAX_SOURCE_TOKENS, MAX_SOURCE_TOKENS)

    def test_over_cap_bundle_is_built_from_kept_tokens(self, toy_corpus_path):
        code = json.loads(toy_corpus_path.read_text().splitlines()[0])["code"] * 60
        ex = mini_example(code=code, summary="repeated max")
        ast = parse_minilang(code)
        tokens, align = leaf_tokens(ast)
        assert len(tokens) > MAX_SOURCE_TOKENS
        row_sums = ex.bundle.distance_weights.sum(axis=1)
        assert np.all(np.abs(row_sums - 1.0) <= 1e-12)
        kept = encode_structure(ast, TokenAlignment(align.token_to_node[:MAX_SOURCE_TOKENS]))
        full = encode_structure(ast, align)
        cut = np.s_[:MAX_SOURCE_TOKENS, :MAX_SOURCE_TOKENS]
        for field in ("distances", "distance_weights", "bucket_ids", "multiview"):
            assert np.array_equal(getattr(ex.bundle, field), getattr(kept, field))
        for field in ("distances", "bucket_ids", "multiview"):
            assert np.array_equal(getattr(ex.bundle, field), getattr(full, field)[cut])


    @pytest.mark.parametrize(
        "nodes",
        [
            [
                {"id": 0, "type": "IfStatement", "children": [1]},
                {"id": 1, "type": "Identifier", "value": "x", "children": []},
            ],
            [
                {"id": 0, "type": "WhileStatement", "children": [1, 2]},
                {"id": 1, "type": "Identifier", "value": "x", "children": []},
                {"id": 2, "type": "Block", "value": "y", "children": []},
            ],
        ],
        ids=["if-without-branch", "while-with-leaf-body"],
    )
    def test_statement_types_of_any_shape(self, nodes):
        ex = example_from_record({"ast": {"nodes": nodes}, "summary": "a b"})
        n = len(ex.code_tokens)
        assert ex.bundle.multiview.shape == (n, n)

    def test_star_record_tokenises_only_the_kept_leaves(self, monkeypatch):
        """A 50,001-node star of two-subtoken leaves: example_from_record
        equals cutting the full token stream to MAX_SOURCE_TOKENS, as it did
        before leaf_tokens took a limit, and splits only the kept leaves."""
        size = 50_001
        nodes = [{"id": 0, "type": "Program", "children": list(range(1, size))}]
        nodes += [{"id": i, "type": "Identifier", "value": f"someValue{i}", "children": []} for i in range(1, size)]
        record = {"ast": {"nodes": nodes}, "summary": "a b"}
        ex = example_from_record(record)
        tokens, align = leaf_tokens(ex.ast)
        assert len(tokens) == 2 * (size - 1)
        kept = TokenAlignment(align.token_to_node[:MAX_SOURCE_TOKENS])
        assert ex.code_tokens == tuple(tokens[:MAX_SOURCE_TOKENS])
        want = encode_structure(ex.ast, kept)
        for field in ("distances", "distance_weights", "bucket_ids", "multiview"):
            assert np.array_equal(getattr(ex.bundle, field), getattr(want, field))

        calls = []
        split = scriptsum.astcore.split_identifier
        monkeypatch.setattr(scriptsum.astcore, "split_identifier", lambda name: calls.append(name) or split(name))
        assert example_from_record(record).code_tokens == ex.code_tokens
        assert len(calls) == MAX_SOURCE_TOKENS // 2

    @pytest.mark.parametrize("shape, size", [("star", 50_001), ("chain", 20_000)])
    def test_large_tree_memory_is_bounded(self, shape, size):
        # only the kept tokens' leaves enter the distance pass, so memory
        # stays far below a len(ast)^2 matrix (20 GB for the star)
        if shape == "star":
            nodes = [{"id": 0, "type": "Program", "children": list(range(1, size))}]
            nodes += [
                {"id": i, "type": "Identifier", "value": f"v{i}", "children": []}
                for i in range(1, size)
            ]
        else:
            nodes = [{"id": i, "type": "Block", "children": [i + 1]} for i in range(size - 1)]
            nodes += [{"id": size - 1, "type": "Identifier", "value": "x", "children": []}]
        record = {"ast": {"nodes": nodes}, "summary": "a b"}
        tracemalloc.start()
        try:
            ex = example_from_record(record)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ex.code_tokens) == (MAX_SOURCE_TOKENS if shape == "star" else 1)
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestLoadDataset:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.jsonl"
        rows = [
            {"code": "x = a;", "summary": "copies a"},
            {"code": "return y;", "summary": "returns y"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        examples = load_dataset(path)
        assert len(examples) == 2
        assert examples[1].summary_tokens == ("returns", "y")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('\n{"code": "x = a;", "summary": "s"}\n\n')
        assert len(load_dataset(path)) == 1

    def test_error_reports_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"code": "x = a;", "summary": "ok"}\nnot json\n')
        with pytest.raises(FormatError, match="line 2"):
            load_dataset(path)

    def test_syntax_error_reports_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"code": "x = a;", "summary": "ok"}\n{"code": "if (", "summary": "bad"}\n')
        with pytest.raises(FormatError, match="line 2"):
            load_dataset(path)

    def test_tree_error_reports_line_number(self, tmp_path):
        orphan = [{"id": 0, "type": "R", "children": []}, {"id": 1, "type": "R", "children": []}]
        rows = [{"code": "x = a;", "summary": "ok"}, {"ast": {"nodes": orphan}, "summary": "s"}]
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(FormatError, match="^line 2: "):
            load_dataset(path)

    def test_toy_corpus_loads(self, toy_corpus_path):
        examples = load_dataset(toy_corpus_path)
        assert len(examples) == 32
        for ex in examples:
            assert len(ex.code_tokens) >= 2
            assert len(ex.summary_tokens) >= 2


class TestEncodeAndBatch:
    def make_split(self):
        examples = [
            mini_example("a = b;", "copy value"),
            mini_example("x = y + z; w = x;", "add then copy"),
        ]
        src, tgt = build_vocab(examples)
        return encode_examples(examples, src, tgt), src, tgt

    def test_encoded_shapes(self):
        split, src, tgt = self.make_split()
        first = split[0]
        assert first.tgt_ids[0] == BOS_ID
        assert first.tgt_ids[-1] == EOS_ID
        assert len(first.src_ids) == 2
        assert first.summary_tokens == ("copy", "value")

    def test_batch_pads_ids_and_keeps_each_bundle(self):
        split, _, _ = self.make_split()
        [batch] = make_batches(split, batch_size=2)
        # the fields a traced benchmark run reads to count padded positions
        assert len(batch) == 2
        n_long = max(len(e.src_ids) for e in split)
        assert batch.src_ids.ndim == 2 and batch.src_ids.shape == (2, n_long)
        short_len = len(split[0].src_ids)
        assert batch.src_lens == (short_len, n_long)
        assert np.all(batch.src_ids[0, short_len:] == PAD_ID)
        # every row slices back to its own example, at its own length
        for row, ex in enumerate(split):
            assert np.array_equal(batch.src_ids[row, : batch.src_lens[row]], ex.src_ids)
            assert np.array_equal(batch.tgt_ids[row, : batch.tgt_lens[row]], ex.tgt_ids)
            assert batch.bundles[row] is ex.bundle

    def test_batch_of_one_needs_no_padding(self):
        split, _, _ = self.make_split()
        batches = make_batches(split[:1], batch_size=4)
        assert len(batches) == 1
        batch = batches[0]
        assert batch.src_ids.shape == (1, len(split[0].src_ids))
        assert np.array_equal(batch.src_ids[0], split[0].src_ids)
        assert batch.bundles == (split[0].bundle,)

    def test_shuffle_is_seed_deterministic(self):
        examples = [mini_example(f"v{i} = {i};", f"sets v{i}") for i in range(7)]
        src, tgt = build_vocab(examples)
        split = encode_examples(examples, src, tgt)
        a = make_batches(split, 2, shuffle_seed=123)
        b = make_batches(split, 2, shuffle_seed=123)
        c = make_batches(split, 2, shuffle_seed=124)
        order = lambda batches: [idx for batch in batches for idx in batch.example_indices]
        assert order(a) == order(b)
        assert order(a) != order(c)
        assert sorted(order(c)) == list(range(7))

    def test_batch_size_validation(self):
        split, _, _ = self.make_split()
        with pytest.raises(ValueError):
            make_batches(split, 0)
