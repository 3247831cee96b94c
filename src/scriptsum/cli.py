"""Command-line interface covering the whole pipeline.

Subcommands: parse, encode, train, eval, summarize, export-attention.
Every command that writes an artifact directory drops a manifest.json
recording the effective configuration, seed, git state, and input digests.

Configuration is a flat key=value text file mirroring the ModelConfig and
TrainConfig field names; command-line flags override file values.

Exit codes: 0 success, 2 input error, 3 numeric failure, 4 artifact
mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

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
)
from .manifest import RunManifest
from .metrics import BucketSpec, EvalPair, corpus_report
from .minilang import parse_minilang
from .model import MASK_MODES, SRPE_PLACEMENTS, ModelConfig, ScriptModel, ablation_layer_plan, inference_numerics
from .structure import DEFAULT_DISTANCE_CLIP, DEFAULT_VIEW_WEIGHTS
from .tensor import no_grad
from .training import TrainConfig, load_model_from_dir, train

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_MISMATCH = 4

# Flat config keys and their value types, the one list of train settings:
# each key is also the dest of its train flag. "optional_int" accepts
# "none", "floats3" is a comma-separated triple.
_CONFIG_TYPES: dict[str, object] = {
    # model
    "d_model": int,
    "n_heads": int,
    "n_script_modules": int,
    "n_decoder_layers": int,
    "ffn_dim": int,
    "dropout_p": float,
    "l": int,
    "k": int,
    "mask_mode": str,
    "srpe_placement": str,
    # training
    "batch_size": int,
    "lr": float,
    "warmup_ratio": float,
    "weight_decay": float,
    "max_epochs": int,
    "early_stop_patience": int,
    "seed": int,
    "validate_by": str,
    "bleu_every": int,
    "max_steps": "optional_int",
    "sort_by_length": bool,
    # data and ablation
    "min_freq": int,
    "max_vocab": "optional_int",
    "view_weights": "floats3",
    "ablation": str,
}

_ABLATIONS = {"none": None, "no-rdw": "rdw", "no-srpei": "srpei"}


def _coerce(key: str, raw) -> object:
    """Coerce a raw config value (string from file or CLI) to its type."""
    if not isinstance(raw, str):
        return raw
    kind = _CONFIG_TYPES[key]
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is bool:
            low = raw.strip().lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "optional_int":
            low = raw.strip().lower()
            return None if low in ("none", "null", "") else int(raw)
        if kind == "floats3":
            parts = [p for p in raw.replace(" ", "").split(",") if p]
            if len(parts) != 3:
                raise ValueError("expected three comma-separated numbers")
            return tuple(float(p) for p in parts)
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def read_config_file(path) -> dict:
    """Parse a flat key=value config file; '#' starts a comment."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
    merged: dict = {}
    if args.config:
        merged.update(read_config_file(args.config))
    for key in _CONFIG_TYPES:
        value = getattr(args, key)
        if value is not None:
            merged[key] = _coerce(key, value)
    return merged


def _is_jsonl(path: Path) -> bool:
    return path.suffix.lower() in (".jsonl", ".ndjson")


def _read_records(path: Path) -> list[dict]:
    """Dataset records from a JSONL file, or a single record from a
    MiniLang source file (summary left empty)."""
    if _is_jsonl(path):
        records = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                if not isinstance(rec, dict):
                    raise FormatError(f"{path}:{lineno}: record must be a JSON object")
                rec.setdefault("summary", "")
                records.append(rec)
        return records
    return [{"code": path.read_text(encoding="utf-8"), "summary": ""}]


# -- parse ---------------------------------------------------------------


def cmd_parse(args) -> int:
    in_path = Path(args.input)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(command="parse", config={"input": str(in_path)}, seed=0)
    manifest.add_input(in_path)

    report: list[dict] = []
    n_ok = 0
    if _is_jsonl(in_path):
        with open(in_path, "r", encoding="utf-8") as fh:
            lines = [(i, ln.strip()) for i, ln in enumerate(fh, start=1) if ln.strip()]
        for lineno, line in lines:
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict) or not isinstance(rec.get("code"), str):
                    raise FormatError("record must be an object with a string 'code'")
                ast = parse_minilang(rec["code"])
            except (json.JSONDecodeError, FormatError, MiniLangSyntaxError) as exc:
                report.append({"line": lineno, "status": "error", "error": str(exc)})
                continue
            name = f"example_{n_ok:04d}.ast.json"
            with open(out_dir / name, "w", encoding="utf-8") as fh:
                json.dump(ast_to_json(ast), fh, indent=2)
                fh.write("\n")
            report.append({"line": lineno, "status": "ok", "output": name})
            n_ok += 1
    else:
        try:
            ast = parse_minilang(in_path.read_text(encoding="utf-8"))
        except MiniLangSyntaxError as exc:
            report.append({"line": exc.line, "status": "error", "error": str(exc)})
        else:
            name = f"{in_path.stem}.ast.json"
            with open(out_dir / name, "w", encoding="utf-8") as fh:
                json.dump(ast_to_json(ast), fh, indent=2)
                fh.write("\n")
            report.append({"line": 1, "status": "ok", "output": name})
            n_ok += 1

    failures = [r for r in report if r["status"] == "error"]
    with open(out_dir / "parse_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
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


def cmd_encode(args) -> int:
    in_path = Path(args.dataset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    weights = _coerce("view_weights", args.weights)
    manifest = RunManifest(
        command="encode",
        config={
            "dataset": str(in_path),
            "distance_clip": args.clip,
            "view_weights": list(weights),
        },
        seed=0,
    )
    manifest.add_input(in_path)

    records = _read_records(in_path)
    max_distance = 0
    entropies: list[float] = []
    for idx, rec in enumerate(records):
        ex = example_from_record(rec, distance_clip=args.clip, view_weights=weights)
        b = ex.bundle
        payload = {
            "tokens": list(ex.code_tokens),
            "m": b.distances.tolist(),
            "m_bar": b.distance_weights.tolist(),
            "buckets": b.bucket_ids.tolist(),
            "a_mv": b.multiview.tolist(),
        }
        with open(out_dir / f"bundle_{idx:04d}.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
        if b.distances.size:
            max_distance = max(max_distance, int(b.distances.max()))
        entropies.append(_row_entropy(b.distance_weights))

    stats = {
        "n_examples": len(records),
        "max_distance": max_distance,
        "mean_mbar_entropy": float(np.mean(entropies)) if entropies else 0.0,
    }
    with open(out_dir / "stats.json", "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2)
        fh.write("\n")
    manifest.config["stats"] = stats
    manifest.save(out_dir)
    print(
        f"encoded {stats['n_examples']} example(s); max distance {stats['max_distance']}, "
        f"mean row entropy {stats['mean_mbar_entropy']:.4f} -> {out_dir}"
    )
    return EXIT_OK


# -- train ---------------------------------------------------------------

def cmd_train(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    merged = _effective_config(args)

    ablation = merged.pop("ablation", "none")
    if ablation not in _ABLATIONS:
        raise ConfigError(f"ablation must be one of {sorted(_ABLATIONS)}, got {ablation!r}")
    min_freq = merged.pop("min_freq", 1)
    max_vocab = merged.pop("max_vocab", None)
    view_weights = tuple(merged.pop("view_weights", DEFAULT_VIEW_WEIGHTS))

    model_kwargs = {f.name: merged[f.name] for f in fields(ModelConfig) if f.name in merged}
    train_kwargs = {f.name: merged[f.name] for f in fields(TrainConfig) if f.name in merged}
    tcfg = TrainConfig(**train_kwargs)

    distance_clip = model_kwargs.get("l", DEFAULT_DISTANCE_CLIP)
    train_split = load_dataset(args.dataset, distance_clip=distance_clip, view_weights=view_weights)
    valid_split = (
        load_dataset(args.valid, distance_clip=distance_clip, view_weights=view_weights)
        if args.valid
        else train_split
    )
    src_vocab, tgt_vocab = build_vocab(train_split, min_freq=min_freq, max_size=max_vocab)

    config = ModelConfig(
        src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab), **model_kwargs
    )
    drop = _ABLATIONS[ablation]
    if drop is not None:
        config = replace(config, layer_plan=ablation_layer_plan(config.n_script_modules, drop))
    model = ScriptModel(config, seed=tcfg.seed)

    data_config = {
        "distance_clip": distance_clip,
        "view_weights": list(view_weights),
        "min_freq": min_freq,
        "max_vocab": max_vocab,
        "ablation": ablation,
    }
    manifest = RunManifest(
        command="train",
        config={
            "model": config.to_dict(),
            "train": tcfg.to_dict(),
            "data": data_config,
            "dataset": str(args.dataset),
            "valid": str(args.valid) if args.valid else None,
        },
        seed=tcfg.seed,
    )
    manifest.add_input(args.dataset)
    if args.valid:
        manifest.add_input(args.valid)
    if args.config:
        manifest.add_input(args.config)

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
    model_dir: Path,
    which: str = "best",
    src_vocab_path=None,
    tgt_vocab_path=None,
) -> tuple[ScriptModel, dict, Vocabulary, Vocabulary]:
    model, payload = load_model_from_dir(model_dir, which)
    src_vocab = Vocabulary.load(src_vocab_path or model_dir / "src_vocab.json")
    tgt_vocab = Vocabulary.load(tgt_vocab_path or model_dir / "tgt_vocab.json")
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
    return model, payload, src_vocab, tgt_vocab


def _data_config(payload: dict) -> tuple[int, tuple[float, float, float]]:
    dc = payload.get("data_config", {})
    try:
        clip = int(dc.get("distance_clip", DEFAULT_DISTANCE_CLIP))
        alpha, beta, gamma = (float(w) for w in dc.get("view_weights", DEFAULT_VIEW_WEIGHTS))
    except (AttributeError, TypeError, ValueError) as exc:
        raise FormatError(f"invalid sidecar data_config: {exc}") from exc
    return clip, (alpha, beta, gamma)


def _examples_for_inference(path: Path, clip: int, weights) -> list[Example]:
    return [
        example_from_record(rec, distance_clip=clip, view_weights=weights)
        for rec in _read_records(path)
    ]


# -- eval ----------------------------------------------------------------


def cmd_eval(args) -> int:
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
    model, payload, src_vocab, tgt_vocab = _load_model_dir(model_dir)
    clip, weights = _data_config(payload)
    split = load_dataset(args.dataset, distance_clip=clip, view_weights=weights)
    encoded = encode_examples(split, src_vocab, tgt_vocab)

    pairs: list[EvalPair] = []
    rows: list[dict] = []
    for idx, (ex, enc) in enumerate(zip(split, encoded)):
        ids = model.summarize(enc.src_ids, enc.bundle, args.beam, args.max_len, args.length_penalty)
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
        writer = csv.DictWriter(
            fh,
            fieldnames=["index", "bleu4", "rouge_l", "meteor", "src_len", "ref_len", "candidate"],
        )
        writer.writeheader()
        writer.writerows(rows)
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")

    manifest = RunManifest(
        command="eval",
        config={
            "model_dir": str(model_dir),
            "dataset": str(args.dataset),
            "beam": args.beam,
            "max_len": args.max_len,
            "length_penalty": args.length_penalty,
            "buckets": args.buckets,
            "bucket_key": args.bucket_key,
        },
        seed=0,
    )
    manifest.add_input(args.dataset)
    manifest.add_input(model_dir / "best.ckpt")
    manifest.add_input(model_dir / "best.json")
    manifest.save(out_dir)
    o = report.overall
    print(
        f"evaluated {len(pairs)} pair(s): BLEU-4 {o['bleu4']:.4f}, "
        f"ROUGE-L {o['rouge_l']:.4f}, METEOR {o['meteor']:.4f} -> {out_dir}"
    )
    return EXIT_OK


# -- summarize -------------------------------------------------------------


def cmd_summarize(args) -> int:
    model_dir = Path(args.model_dir)
    model, payload, src_vocab, tgt_vocab = _load_model_dir(
        model_dir,
        src_vocab_path=args.src_vocab,
        tgt_vocab_path=args.tgt_vocab,
    )
    clip, weights = _data_config(payload)
    examples = _examples_for_inference(Path(args.input), clip, weights)

    beam = 1 if args.greedy else args.beam
    lines: list[str] = []
    for ex in examples:
        src_ids = src_vocab.encode(ex.code_tokens)
        ids = model.summarize(src_ids, ex.bundle, beam, args.max_len, args.length_penalty)
        lines.append(" ".join(tgt_vocab.decode(ids)))

    for line in lines:
        print(line)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "summaries.txt", "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        manifest = RunManifest(
            command="summarize",
            config={
                "model_dir": str(model_dir),
                "input": str(args.input),
                "beam": args.beam,
                "greedy": args.greedy,
                "max_len": args.max_len,
                "length_penalty": args.length_penalty,
            },
            seed=0,
        )
        manifest.add_input(args.input)
        manifest.add_input(model_dir / "best.ckpt")
        manifest.save(out_dir)
    return EXIT_OK


# -- export-attention -------------------------------------------------------


def cmd_export_attention(args) -> int:
    model_dir = Path(args.model_dir)
    out_dir = Path(args.out)
    model, payload, src_vocab, _ = _load_model_dir(model_dir)
    cfg = model.config
    if not 0 <= args.layer < cfg.n_encoder_layers:
        raise ConfigError(
            f"layer {args.layer} out of range for {cfg.n_encoder_layers} encoder layers"
        )
    if not 0 <= args.head < cfg.n_heads:
        raise ConfigError(f"head {args.head} out of range for {cfg.n_heads} heads")
    clip, weights = _data_config(payload)
    examples = _examples_for_inference(Path(args.input), clip, weights)
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

    manifest = RunManifest(
        command="export-attention",
        config={
            "model_dir": str(model_dir),
            "input": str(args.input),
            "index": args.index,
            "layer": args.layer,
            "head": args.head,
        },
        seed=0,
    )
    manifest.add_input(args.input)
    manifest.add_input(model_dir / "best.ckpt")
    manifest.save(out_dir)
    print(f"wrote {matrix.shape[0]}x{matrix.shape[1]} attention matrix -> {csv_path}")
    return EXIT_OK


# -- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--d-model", type=int)
    p.add_argument("--n-heads", type=int)
    p.add_argument("--n-script-modules", type=int)
    p.add_argument("--n-decoder-layers", type=int)
    p.add_argument("--ffn-dim", type=int)
    p.add_argument("--dropout", type=float, dest="dropout_p")
    p.add_argument("--distance-clip", type=int, dest="l", help="structural clipping threshold l")
    p.add_argument("--seq-window", type=int, dest="k", help="sequential clipping window k")
    p.add_argument("--mask-mode", choices=MASK_MODES)
    p.add_argument("--srpe-placement", choices=SRPE_PLACEMENTS)
    p.add_argument("--ablation", choices=tuple(_ABLATIONS))
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--warmup-ratio", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--patience", type=int, dest="early_stop_patience")
    p.add_argument("--seed", type=int)
    p.add_argument("--validate-by", choices=("loss", "bleu"))
    p.add_argument("--bleu-every", type=int)
    p.add_argument("--max-steps")
    p.add_argument("--sort-by-length", action="store_const", const="true")
    p.add_argument("--min-freq", type=int)
    p.add_argument("--max-vocab")
    p.add_argument("--view-weights")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
        UnicodeDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
