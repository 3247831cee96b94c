"""Command-line interface covering the whole pipeline.

Subcommands: parse, encode, train, eval, summarize, export-attention.
Every command that writes an artifact directory drops a manifest.json
recording the effective configuration, seed, git state, and input digests.

Configuration is a flat key=value text file mirroring the ModelConfig and
TrainConfig field names; command-line flags override file values.

Exit codes: 0 success, 2 input error (a model or input too large for the
memory at hand included), 3 numeric failure, 4 artifact mismatch.
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Iterator, get_type_hints

import numpy as np

from .astcore import ast_to_json
from .data import (
    MAX_SUMMARY_TOKENS,
    Example,
    Vocabulary,
    build_vocab,
    encode_examples,
    example_from_record,
    load_dataset,
    read_jsonl,
)
from .errors import (
    ArtifactMismatchError,
    BucketError,
    ConfigError,
    EmptyCorpusError,
    FormatError,
    MiniLangSyntaxError,
    NumericsError,
    ShapeError,
    TreeError,
    parse_json,
    read_text,
    write_json,
)
from .manifest import RunManifest
from .metrics import METRICS, BucketSpec, EvalPair, corpus_report
from .minilang import parse_minilang
from .model import ModelConfig, ScriptModel, ablation_layer_plan, inference_numerics
from .structure import DEFAULT_DISTANCE_CLIP, DEFAULT_VIEW_WEIGHTS
from .tensor import no_grad
from .training import TrainConfig, load_model_from_dir, train

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_MISMATCH = 4

# The train settings, each a config key and a train flag: the ModelConfig and
# TrainConfig fields a run can set, with their types, then the data settings
_FIXED_FIELDS = {"src_vocab_size", "tgt_vocab_size", "layer_plan", "pad_id", "bos_id", "eos_id"}
_CONFIG_TYPES: dict[str, object] = {
    key: kind
    for cls in (ModelConfig, TrainConfig)
    for key, kind in get_type_hints(cls).items()
    if key not in _FIXED_FIELDS
} | {
    "min_freq": int,
    "max_vocab": int | None,
    "view_weights": tuple[float, float, float],
    "ablation": str,
}

# a setting's flag is "--" plus its key with "-" for "_", but for these
_FLAG_NAMES = {
    "dropout_p": "--dropout",
    "l": "--distance-clip",
    "k": "--seq-window",
    "early_stop_patience": "--patience",
}

_ABLATIONS = {"none": None, "no-rdw": "rdw", "no-srpei": "srpei"}


def _coerce(key: str, raw: str) -> object:
    """A setting's value, given as text in a config file or a flag, as its
    type: optional ints take "none", "null" or "" for unset, view_weights
    three comma-separated numbers."""
    kind = _CONFIG_TYPES[key]
    try:
        if kind == int | None:
            return None if raw.strip().lower() in ("none", "null", "") else int(raw)
        if kind == tuple[float, float, float]:
            parts = [p for p in raw.replace(" ", "").split(",") if p]
            if len(parts) != 3:
                raise ValueError("expected three comma-separated numbers")
            return tuple(float(p) for p in parts)
        return kind(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def read_config_file(path) -> dict:
    """Parse a flat key=value config file; '#' starts a comment."""
    values: dict = {}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line.rstrip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, raw.strip())
    return values


def _effective_config(args) -> dict:
    """File values overridden by any CLI flags that were provided."""
    merged = read_config_file(args.config) if args.config else {}
    for key in _CONFIG_TYPES:
        value = getattr(args, key)
        if value is not None:
            merged[key] = _coerce(key, value)
    return merged


def _is_jsonl(path: Path) -> bool:
    return path.suffix.lower() in (".jsonl", ".ndjson")


def _read_examples(path: Path, clip: int, weights) -> Iterator[Example]:
    """Examples from a JSONL dataset, or the one example of a MiniLang
    source file (summary left empty). A JSONL record that fails names its
    line, as load_dataset does."""
    if not _is_jsonl(path):
        yield example_from_record({"code": read_text(path), "summary": ""}, clip, weights)
        return

    def build(rec) -> Example:
        if not isinstance(rec, dict):
            raise FormatError("record must be a JSON object")
        return example_from_record({"summary": "", **rec}, clip, weights)

    yield from read_jsonl(path, build)


# -- parse ---------------------------------------------------------------


def cmd_parse(args, manifest: RunManifest) -> int:
    in_path = Path(args.input)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest.config = {"input": str(in_path)}
    manifest.add_input(in_path)

    # (line, source): each JSONL line as bytes, decoded on its own so that a
    # line which is not UTF-8 fails alone; or the whole file's text
    jsonl = _is_jsonl(in_path)
    if jsonl:
        with open(in_path, "rb") as fh:
            sources = list(enumerate(fh, start=1))
    else:
        sources = [(1, read_text(in_path))]
    report: list[dict] = []
    n_ok = 0
    for lineno, source in sources:
        try:
            if jsonl:
                text = source.decode("utf-8").strip()
                if not text:
                    continue
                rec = parse_json(text)
                if not isinstance(rec, dict) or not isinstance(rec.get("code"), str):
                    raise FormatError("record must be an object with a string 'code'")
                source = rec["code"]
            ast = parse_minilang(source)
        except (FormatError, MiniLangSyntaxError, UnicodeDecodeError) as exc:
            # a source file's syntax error names its line within the file
            line = lineno if jsonl else exc.line
            report.append({"line": line, "status": "error", "error": str(exc)})
            continue
        name = f"example_{n_ok:04d}.ast.json" if jsonl else f"{in_path.stem}.ast.json"
        write_json(out_dir / name, ast_to_json(ast))
        report.append({"line": lineno, "status": "ok", "output": name})
        n_ok += 1

    failures = [r for r in report if r["status"] == "error"]
    write_json(out_dir / "parse_report.json", report)
    manifest.config.update({"n_ok": n_ok, "n_failed": len(failures)})
    manifest.save(out_dir)
    print(f"parsed {n_ok} example(s), {len(failures)} failure(s) -> {out_dir}")
    for r in failures:
        print(f"line {r['line']}: {r['error']}", file=sys.stderr)
    return EXIT_INPUT if failures else EXIT_OK


# -- encode --------------------------------------------------------------


def _row_entropy(m_bar: np.ndarray) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(m_bar > 0, np.log(np.where(m_bar > 0, m_bar, 1.0)), 0.0)
    return float(-(m_bar * logs).sum(axis=1).mean()) if m_bar.size else 0.0


def cmd_encode(args, manifest: RunManifest) -> int:
    in_path = Path(args.dataset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    weights = _coerce("view_weights", args.weights)
    manifest.config = {
        "dataset": str(in_path),
        "distance_clip": args.clip,
        "view_weights": list(weights),
    }
    manifest.add_input(in_path)

    max_distance = 0
    entropies: list[float] = []
    for idx, ex in enumerate(_read_examples(in_path, args.clip, weights)):
        b = ex.bundle
        payload = {
            "tokens": list(ex.code_tokens),
            "m": b.distances.tolist(),
            "m_bar": b.distance_weights.tolist(),
            "buckets": b.bucket_ids.tolist(),
            "a_mv": b.multiview.tolist(),
        }
        write_json(out_dir / f"bundle_{idx:04d}.json", payload, indent=None)
        if b.distances.size:
            max_distance = max(max_distance, int(b.distances.max()))
        entropies.append(_row_entropy(b.distance_weights))

    stats = {
        "n_examples": len(entropies),
        "max_distance": max_distance,
        "mean_mbar_entropy": float(np.mean(entropies)) if entropies else 0.0,
    }
    write_json(out_dir / "stats.json", stats)
    manifest.config["stats"] = stats
    manifest.save(out_dir)
    print(
        f"encoded {stats['n_examples']} example(s); max distance {stats['max_distance']}, "
        f"mean row entropy {stats['mean_mbar_entropy']:.4f} -> {out_dir}"
    )
    return EXIT_OK


# -- train ---------------------------------------------------------------

def cmd_train(args, manifest: RunManifest) -> int:
    out_dir = Path(args.out)
    merged = _effective_config(args)

    ablation = merged.pop("ablation", "none")
    if ablation not in _ABLATIONS:
        raise ConfigError(f"ablation must be one of {sorted(_ABLATIONS)}, got {ablation!r}")
    min_freq = merged.pop("min_freq", 1)
    if min_freq < 1:
        raise ConfigError(f"min_freq must be >= 1, got {min_freq}")
    max_vocab = merged.pop("max_vocab", None)
    if max_vocab is not None and max_vocab < 0:
        raise ConfigError(f"max_vocab must be >= 0, got {max_vocab}")
    view_weights = tuple(merged.pop("view_weights", DEFAULT_VIEW_WEIGHTS))

    model_kwargs = {f.name: merged[f.name] for f in fields(ModelConfig) if f.name in merged}
    train_kwargs = {f.name: merged[f.name] for f in fields(TrainConfig) if f.name in merged}
    tcfg = TrainConfig(**train_kwargs)
    # every setting is checked before ingest; the vocabulary sizes are
    # filled in once the vocabularies are built
    config = ModelConfig(src_vocab_size=1, tgt_vocab_size=1, **model_kwargs)
    drop = _ABLATIONS[ablation]
    if drop is not None:
        config = replace(config, layer_plan=ablation_layer_plan(config.n_script_modules, drop))

    distance_clip = config.l
    train_split = load_dataset(args.dataset, distance_clip=distance_clip, view_weights=view_weights)
    valid_split = (
        load_dataset(args.valid, distance_clip=distance_clip, view_weights=view_weights)
        if args.valid
        else train_split
    )
    src_vocab, tgt_vocab = build_vocab(train_split, min_freq=min_freq, max_size=max_vocab)

    config = replace(config, src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab))
    model = ScriptModel(config, seed=tcfg.seed)

    data_config = {
        "distance_clip": distance_clip,
        "view_weights": list(view_weights),
        "min_freq": min_freq,
        "max_vocab": max_vocab,
        "ablation": ablation,
    }
    manifest.config = {
        "model": config.to_dict(),
        "train": tcfg.to_dict(),
        "data": data_config,
        "dataset": str(args.dataset),
        "valid": str(args.valid) if args.valid else None,
    }
    manifest.seed = tcfg.seed
    # a resumed run's files are digested before training rewrites them; one
    # that is missing is left for train() to report
    resumed = ("last.ckpt", "history.csv") if args.resume else ()
    for path in [args.dataset, args.valid, args.config, *(out_dir / name for name in resumed)]:
        if path and Path(path).exists():
            manifest.add_input(path)

    result = train(
        model,
        train_split,
        valid_split,
        tcfg,
        src_vocab,
        tgt_vocab,
        out_dir,
        resume=args.resume,
        sidecar_extra={"data_config": data_config},
    )
    manifest.save(out_dir)
    last = result.history[-1] if result.history else None
    print(
        f"trained {result.global_step} step(s); best epoch {result.best_epoch} "
        f"(metric {result.best_metric:.6f})"
        + (f"; final train loss {last.train_loss:.4f}" if last else "")
        + f" -> {out_dir}"
    )
    return EXIT_OK


# -- model loading shared by eval / summarize / export-attention ----------


def _load_model_dir(
    model_dir: Path, src_vocab_path=None, tgt_vocab_path=None
) -> tuple[ScriptModel, Vocabulary, Vocabulary, int, tuple[float, float, float], list[Path]]:
    """The best model of a training directory, its vocabularies, the
    distance clip and view weights it was trained with, and the files read
    to get them."""
    model, payload = load_model_from_dir(model_dir)
    src_path = Path(src_vocab_path or model_dir / "src_vocab.json")
    tgt_path = Path(tgt_vocab_path or model_dir / "tgt_vocab.json")
    src_vocab, tgt_vocab = Vocabulary.load(src_path), Vocabulary.load(tgt_path)
    for label, vocab, key in (
        ("source", src_vocab, "src_vocab_digest"),
        ("target", tgt_vocab, "tgt_vocab_digest"),
    ):
        want = payload.get(key)
        if want and vocab.digest() != want:
            raise ArtifactMismatchError(
                f"{label} vocabulary digest {vocab.digest()[:12]}... does not match "
                f"checkpoint sidecar {want[:12]}..."
            )
    dc = payload.get("data_config", {})
    if not isinstance(dc, dict):
        raise FormatError("sidecar data_config must be a JSON object")
    # training buckets distances at the model's l; any other clip decodes
    # with positions the model never saw
    l = model.config.l
    clip = dc.get("distance_clip", l)
    if type(clip) is not int or clip != l:
        raise FormatError(f"sidecar data_config 'distance_clip' must be the model's l = {l}, got {clip!r}")
    weights = dc.get("view_weights", DEFAULT_VIEW_WEIGHTS)
    if not (
        isinstance(weights, (list, tuple))
        and len(weights) == 3
        and all(type(w) in (int, float) and abs(w) <= sys.float_info.max for w in weights)
    ):
        raise FormatError(f"sidecar data_config 'view_weights' must be three finite numbers, got {weights!r}")
    inputs = [model_dir / "best.json", model_dir / "best.ckpt", src_path, tgt_path]
    return model, src_vocab, tgt_vocab, clip, tuple(float(w) for w in weights), inputs


# -- eval ----------------------------------------------------------------


def cmd_eval(args, manifest: RunManifest) -> int:
    spec = None
    if args.buckets:
        try:
            boundaries = tuple(int(b) for b in args.buckets.replace(" ", "").split(",") if b)
        except ValueError as exc:
            raise BucketError(f"bucket boundaries must be integers, got {args.buckets!r}") from exc
        key = "source_len" if args.bucket_key == "source" else "reference_len"
        spec = BucketSpec(boundaries=boundaries, key=key)
    model_dir = Path(args.model_dir)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model, src_vocab, tgt_vocab, clip, weights, inputs = _load_model_dir(model_dir)
    split = load_dataset(args.dataset, distance_clip=clip, view_weights=weights)
    encoded = encode_examples(split, src_vocab, tgt_vocab)

    pairs: list[EvalPair] = []
    rows: list[dict] = []
    summaries = model.summarize_many(
        [(enc.src_ids, enc.bundle) for enc in encoded], args.beam, args.max_len, args.length_penalty
    )
    for idx, (ex, ids) in enumerate(zip(split, summaries)):
        candidate = tgt_vocab.decode(ids)
        pairs.append(EvalPair(candidate=candidate, references=[list(ex.summary_tokens)]))
        rows.append(
            {
                "index": idx,
                "src_len": len(ex.code_tokens),
                "ref_len": len(ex.summary_tokens),
                "candidate": " ".join(candidate),
            }
        )

    values = None
    if spec is not None and args.bucket_key == "source":
        values = [len(ex.code_tokens) for ex in split]
    report = corpus_report(pairs, bucket_spec=spec, bucket_values=values)

    for row, scores in zip(rows, report.pair_scores):
        row.update(scores)
    with open(out_dir / "scores.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["index", *METRICS, "src_len", "ref_len", "candidate"])
        writer.writeheader()
        writer.writerows(rows)
    write_json(out_dir / "report.json", report.to_dict())

    manifest.config = {
        "model_dir": str(model_dir),
        "dataset": str(args.dataset),
        "beam": args.beam,
        "max_len": args.max_len,
        "length_penalty": args.length_penalty,
        "buckets": args.buckets,
        "bucket_key": args.bucket_key,
    }
    for path in [args.dataset, *inputs]:
        manifest.add_input(path)
    manifest.save(out_dir)
    o = report.overall
    print(
        f"evaluated {len(pairs)} pair(s): BLEU-4 {o['bleu4']:.4f}, "
        f"ROUGE-L {o['rouge_l']:.4f}, METEOR {o['meteor']:.4f} -> {out_dir}"
    )
    return EXIT_OK


# -- summarize -------------------------------------------------------------


def cmd_summarize(args, manifest: RunManifest) -> int:
    model_dir = Path(args.model_dir)
    model, src_vocab, tgt_vocab, clip, weights, inputs = _load_model_dir(
        model_dir, args.src_vocab, args.tgt_vocab
    )
    examples = list(_read_examples(Path(args.input), clip, weights))

    beam = 1 if args.greedy else args.beam
    summaries = model.summarize_many(
        [(src_vocab.encode(ex.code_tokens), ex.bundle) for ex in examples], beam, args.max_len, args.length_penalty
    )
    lines = [" ".join(tgt_vocab.decode(ids)) for ids in summaries]

    for line in lines:
        print(line)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "summaries.txt", "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        manifest.config = {
            "model_dir": str(model_dir),
            "input": str(args.input),
            "beam": args.beam,
            "greedy": args.greedy,
            "max_len": args.max_len,
            "length_penalty": args.length_penalty,
        }
        for path in [args.input, *inputs]:
            manifest.add_input(path)
        manifest.save(out_dir)
    return EXIT_OK


# -- export-attention -------------------------------------------------------


def cmd_export_attention(args, manifest: RunManifest) -> int:
    model_dir = Path(args.model_dir)
    out_dir = Path(args.out)
    model, src_vocab, _, clip, weights, inputs = _load_model_dir(model_dir)
    cfg = model.config
    if not 0 <= args.layer < cfg.n_encoder_layers:
        raise ConfigError(
            f"layer {args.layer} out of range for {cfg.n_encoder_layers} encoder layers"
        )
    if not 0 <= args.head < cfg.n_heads:
        raise ConfigError(f"head {args.head} out of range for {cfg.n_heads} heads")
    examples = list(_read_examples(Path(args.input), clip, weights))
    if not 0 <= args.index < len(examples):
        raise ConfigError(f"example index {args.index} out of range for {len(examples)} example(s)")
    ex = examples[args.index]

    capture: list[np.ndarray] = []
    with no_grad(), inference_numerics():
        model.script_encoder(src_vocab.encode(ex.code_tokens), ex.bundle, capture=capture)
    matrix = capture[args.layer * cfg.n_heads + args.head]

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"attention_l{args.layer}_h{args.head}.csv"
    labels = list(ex.code_tokens)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["token"] + labels)
        for label, row in zip(labels, matrix):
            writer.writerow([label] + [repr(float(v)) for v in row])

    manifest.config = {
        "model_dir": str(model_dir),
        "input": str(args.input),
        "index": args.index,
        "layer": args.layer,
        "head": args.head,
    }
    for path in [args.input, *inputs]:
        manifest.add_input(path)
    manifest.save(out_dir)
    print(f"wrote {matrix.shape[0]}x{matrix.shape[1]} attention matrix -> {csv_path}")
    return EXIT_OK


# -- argument parsing --------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser, its subparsers included, that takes a word starting
    with "-" and a digit or "." ("-1,1,1", "-1e-3") as an option's value,
    where argparse takes only a plain negative number and reads any other
    such word as an unknown option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="scriptsum",
        description="Structure-aware code summarization pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="MiniLang source to AST interchange JSON")
    p.add_argument("input", help="MiniLang source file or JSONL dataset with 'code' fields")
    p.add_argument("out", help="output directory for .ast.json files")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("encode", help="structural encodings for each example")
    p.add_argument("dataset", help="JSONL dataset or MiniLang source file")
    p.add_argument("out", help="output directory for bundle files")
    p.add_argument("--clip", type=int, default=DEFAULT_DISTANCE_CLIP,
                   help="distance clipping threshold l")
    p.add_argument("--weights", default=",".join(str(w) for w in DEFAULT_VIEW_WEIGHTS),
                   help="multi-view weights alpha,beta,gamma")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("train", help="train a summarizer")
    p.add_argument("dataset", help="training JSONL dataset")
    p.add_argument("out", help="output directory for checkpoints and history")
    p.add_argument("--valid", default=None, help="validation JSONL dataset (default: train set)")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--resume", action="store_true", help="resume from out/last.ckpt")
    # one flag per config key, its metavar the key; values stay text, read
    # by _coerce and the config checks as a config file's are
    for key in _CONFIG_TYPES:
        p.add_argument(_FLAG_NAMES.get(key, "--" + key.replace("_", "-")), dest=key)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="decode a dataset and score it")
    p.add_argument("model_dir", help="training output directory")
    p.add_argument("dataset", help="JSONL dataset with reference summaries")
    p.add_argument("out", help="output directory for report and scores")
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--max-len", type=int, default=MAX_SUMMARY_TOKENS)
    p.add_argument("--length-penalty", type=float, default=1.0)
    p.add_argument("--buckets", default=None, help="comma-separated length boundaries")
    p.add_argument("--bucket-key", choices=("reference", "source"), default="reference")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("summarize", help="print a summary per input example")
    p.add_argument("model_dir", help="training output directory")
    p.add_argument("input", help="MiniLang source file or JSONL dataset")
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--greedy", action="store_true", help="greedy decoding: runs as --beam 1")
    p.add_argument("--max-len", type=int, default=MAX_SUMMARY_TOKENS)
    p.add_argument("--length-penalty", type=float, default=1.0)
    p.add_argument("--src-vocab", default=None, help="override source vocabulary file")
    p.add_argument("--tgt-vocab", default=None, help="override target vocabulary file")
    p.add_argument("--out", default=None, help="optional output directory")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("export-attention", help="post-softmax attention matrix as CSV")
    p.add_argument("model_dir", help="training output directory")
    p.add_argument("input", help="MiniLang source file or JSONL dataset")
    p.add_argument("out", help="output directory for the CSV")
    p.add_argument("--layer", type=int, required=True, help="encoder layer index (0-based)")
    p.add_argument("--head", type=int, required=True, help="attention head index (0-based)")
    p.add_argument("--index", type=int, default=0, help="example index within the input")
    p.set_defaults(func=cmd_export_attention)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # made before the command runs, so that started_at is its start
    manifest = RunManifest(command=args.command)
    try:
        return args.func(args, manifest)
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ArtifactMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (
        MiniLangSyntaxError,
        FormatError,
        TreeError,
        ConfigError,
        BucketError,
        EmptyCorpusError,
        ShapeError,
        FileNotFoundError,
        NotADirectoryError,
        IsADirectoryError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
