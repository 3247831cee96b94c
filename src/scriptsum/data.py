"""Dataset loading, vocabularies, and deterministic batching.

Datasets are JSON Lines files, one example per line, holding either
MiniLang source under "code" or an interchange tree under "ast", plus a
"summary" string. Code tokens come from the tree leaves; summaries are
lowercased and whitespace-split. Vocabularies are built from the training
split only, with fixed reserved ids and frequency-then-lexicographic
ranking.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .astcore import Ast, ast_from_json, leaf_tokens
from .minilang import parse_minilang
from .errors import ConfigError, EmptyCorpusError, FormatError, MiniLangSyntaxError, ShapeError, TreeError
from .errors import parse_json, read_json_object, write_json
from .structure import (
    DEFAULT_DISTANCE_CLIP,
    DEFAULT_VIEW_WEIGHTS,
    StructuralEncodings,
    encode_structure,
)

PAD_ID, BOS_ID, EOS_ID, UNK_ID, STR_ID, NUM_ID = 0, 1, 2, 3, 4, 5
PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN = "<pad>", "<bos>", "<eos>", "<unk>"
RESERVED_TOKENS = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN, "STR", "NUM")

MAX_SOURCE_TOKENS = 400
MAX_SUMMARY_TOKENS = 50


@dataclass(frozen=True)
class Example:
    """One (code, summary) pair with its tree and structural matrices."""

    code_tokens: tuple[str, ...]
    summary_tokens: tuple[str, ...]
    ast: Ast
    bundle: StructuralEncodings


class Vocabulary:
    """Token <-> id bijection with fixed reserved ids.

    Ids 0..5 are PAD, BOS, EOS, UNK, STR, NUM; corpus tokens follow ranked
    by descending frequency with lexicographic tie-breaks.
    """

    def __init__(self, corpus_tokens: Sequence[str]):
        self.id_to_token: list[str] = list(RESERVED_TOKENS) + list(corpus_tokens)
        if not all(isinstance(tok, str) for tok in self.id_to_token):
            raise FormatError("vocabulary tokens must be strings")
        if len(set(self.id_to_token)) != len(self.id_to_token):
            raise FormatError("vocabulary contains duplicate tokens")
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def encode(self, tokens: Iterable[str], add_sentence_marks: bool = False) -> np.ndarray:
        ids = [self.token_to_id.get(tok, UNK_ID) for tok in tokens]
        if add_sentence_marks:
            ids = [BOS_ID] + ids + [EOS_ID]
        return np.asarray(ids, dtype=np.int64)

    def decode(self, ids: Iterable[int], strip_special: bool = True) -> list[str]:
        """The tokens of ids, PAD, BOS and EOS left out when strip_special;
        an id outside [0, len(self)) raises ShapeError."""
        out = []
        for i in map(int, ids):
            if not 0 <= i < len(self.id_to_token):
                raise ShapeError(f"token id {i} out of range [0, {len(self.id_to_token)})")
            tok = self.id_to_token[i]
            if strip_special and tok in (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN):
                continue
            out.append(tok)
        return out

    def digest(self) -> str:
        payload = json.dumps(self.id_to_token, separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def save(self, path) -> None:
        write_json(path, {"tokens": self.id_to_token})

    @classmethod
    def load(cls, path) -> "Vocabulary":
        tokens = read_json_object(path).get("tokens")
        if not isinstance(tokens, list) or tokens[: len(RESERVED_TOKENS)] != list(RESERVED_TOKENS):
            raise FormatError("vocabulary file must list tokens starting with the reserved set")
        return cls(tokens[len(RESERVED_TOKENS):])


def _ranked_tokens(counts: Counter, min_freq: int, max_size: int | None) -> list[str]:
    eligible = [
        (tok, cnt)
        for tok, cnt in counts.items()
        if cnt >= min_freq and tok not in RESERVED_TOKENS
    ]
    eligible.sort(key=lambda item: (-item[1], item[0]))
    if max_size is not None:
        eligible = eligible[:max_size]
    return [tok for tok, _ in eligible]


def build_vocab(
    train_split: Sequence[Example], min_freq: int = 1, max_size: int | None = None
) -> tuple[Vocabulary, Vocabulary]:
    """Source and target vocabularies from the training split.

    max_size bounds the number of non-reserved tokens kept; tokens below
    min_freq encode to UNK.
    """
    if max_size is not None and max_size < 0:
        raise ConfigError(f"max_size must be >= 0, got {max_size}")
    if not train_split:
        raise EmptyCorpusError("cannot build vocabularies from an empty split")
    src_counts: Counter = Counter()
    tgt_counts: Counter = Counter()
    for ex in train_split:
        src_counts.update(ex.code_tokens)
        tgt_counts.update(ex.summary_tokens)
    return (
        Vocabulary(_ranked_tokens(src_counts, min_freq, max_size)),
        Vocabulary(_ranked_tokens(tgt_counts, min_freq, max_size)),
    )


def summary_tokens(text: str) -> tuple[str, ...]:
    """Lowercased whitespace tokenization used for summaries and metrics."""
    return tuple(text.lower().split())


def example_from_record(
    record: dict,
    distance_clip: int = DEFAULT_DISTANCE_CLIP,
    view_weights: tuple[float, float, float] = DEFAULT_VIEW_WEIGHTS,
) -> Example:
    """Build one Example from a parsed dataset line; the source is cut to
    MAX_SOURCE_TOKENS tokens before its structural matrices are built."""
    if not isinstance(record, dict):
        raise FormatError("dataset line must be a JSON object")
    if "summary" not in record or not isinstance(record["summary"], str):
        raise FormatError("dataset line requires a string 'summary'")
    has_code = "code" in record
    has_ast = "ast" in record
    if has_code == has_ast:
        raise FormatError("dataset line must carry exactly one of 'code' or 'ast'")
    if has_code:
        if not isinstance(record["code"], str):
            raise FormatError("'code' must be a string")
        ast = parse_minilang(record["code"])
    else:
        ast = ast_from_json(record["ast"])
    tokens, alignment = leaf_tokens(ast, MAX_SOURCE_TOKENS)
    bundle = encode_structure(ast, alignment, distance_clip, view_weights)
    summary = summary_tokens(record["summary"])[:MAX_SUMMARY_TOKENS]
    return Example(
        code_tokens=tuple(tokens),
        summary_tokens=summary,
        ast=ast,
        bundle=bundle,
    )


def read_jsonl(path, build: Callable) -> Iterator:
    """build(record) for each non-blank line of a JSON Lines file. A line
    that is not UTF-8 or does not decode, or whose record build rejects, is
    a FormatError naming the line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    yield build(parse_json(line))
            except (FormatError, MiniLangSyntaxError, TreeError, UnicodeDecodeError) as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc


def load_dataset(
    path,
    distance_clip: int = DEFAULT_DISTANCE_CLIP,
    view_weights: tuple[float, float, float] = DEFAULT_VIEW_WEIGHTS,
) -> list[Example]:
    """Read a JSON Lines dataset; blank lines are skipped."""
    return list(
        read_jsonl(path, lambda record: example_from_record(record, distance_clip, view_weights))
    )


def toy_corpus_path():
    """Filesystem path of the bundled 32-example corpus."""
    from pathlib import Path

    return Path(__file__).resolve().parent / "data" / "toy_corpus.jsonl"


@dataclass(frozen=True)
class EncodedExample:
    """An Example with both sides mapped to vocabulary ids."""

    src_ids: np.ndarray  # (n,) code token ids
    tgt_ids: np.ndarray  # (m,) BOS ... EOS
    bundle: StructuralEncodings
    summary_tokens: tuple[str, ...]


def encode_examples(
    split: Sequence[Example], src_vocab: Vocabulary, tgt_vocab: Vocabulary
) -> list[EncodedExample]:
    out = []
    for ex in split:
        out.append(
            EncodedExample(
                src_ids=src_vocab.encode(ex.code_tokens),
                tgt_ids=tgt_vocab.encode(ex.summary_tokens, add_sentence_marks=True),
                bundle=ex.bundle,
                summary_tokens=ex.summary_tokens,
            )
        )
    return out


@dataclass(frozen=True)
class Batch:
    """A chunk of encoded examples: PAD-filled id matrices and each
    example's own structural bundle. Training reads row i as
    src_ids[i, :src_lens[i]] and tgt_ids[i, :tgt_lens[i]] with bundles[i],
    so no example ever sees padding."""

    src_ids: np.ndarray  # (B, n_max)
    src_lens: tuple[int, ...]
    tgt_ids: np.ndarray  # (B, m_max)
    tgt_lens: tuple[int, ...]
    bundles: tuple[StructuralEncodings, ...]
    example_indices: tuple[int, ...]  # positions in the split

    def __len__(self) -> int:
        return self.src_ids.shape[0]


def make_batches(
    split: Sequence[EncodedExample],
    batch_size: int,
    shuffle_seed: int | None = None,
) -> list[Batch]:
    """Chunk encoded examples into batches.

    Order is deterministic: an optional seeded shuffle, then contiguous
    chunks.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = list(range(len(split)))
    if shuffle_seed is not None:
        rng = np.random.default_rng(shuffle_seed)
        rng.shuffle(order)
    batches = []
    for start in range(0, len(order), batch_size):
        chunk = order[start : start + batch_size]
        batches.append(_pad_batch(split, chunk))
    return batches


def _pad_batch(split: Sequence[EncodedExample], indices: list[int]) -> Batch:
    rows = [split[i] for i in indices]

    def pad(seqs: list[np.ndarray]) -> np.ndarray:
        out = np.full((len(seqs), max(len(s) for s in seqs)), PAD_ID, dtype=np.int64)
        for i, s in enumerate(seqs):
            out[i, : len(s)] = s
        return out

    return Batch(
        src_ids=pad([r.src_ids for r in rows]),
        src_lens=tuple(len(r.src_ids) for r in rows),
        tgt_ids=pad([r.tgt_ids for r in rows]),
        tgt_lens=tuple(len(r.tgt_ids) for r in rows),
        bundles=tuple(r.bundle for r in rows),
        example_indices=tuple(indices),
    )
