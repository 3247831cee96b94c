import csv
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import fields
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

import scriptsum.cli
from scriptsum.astcore import load_ast_json
from scriptsum.checkpoint import load_checkpoint, save_checkpoint
from scriptsum.cli import _CONFIG_TYPES, build_parser, main, read_config_file
from scriptsum.data import load_dataset
from scriptsum.errors import ConfigError, FormatError, NumericsError
from scriptsum.manifest import RunManifest, load_manifest, sha256_file
from scriptsum.model import ScriptModel
from scriptsum.tensor import _grad_enabled
from scriptsum.training import HISTORY_COLUMNS

REPO = Path(__file__).resolve().parent.parent
TRAIN_FLAGS = [
    "--d-model", "16",
    "--n-heads", "2",
    "--n-script-modules", "1",
    "--n-decoder-layers", "1",
    "--ffn-dim", "32",
    "--dropout", "0.0",
    "--distance-clip", "4",
    "--seq-window", "5",
    "--batch-size", "4",
    "--lr", "1e-3",
    "--max-epochs", "2",
    "--patience", "10",
    "--bleu-every", "0",
    "--seed", "0",
]


def damage_last_ckpt(name, change):
    """A damage that rewrites one array of a run's last.ckpt."""

    def damage(run):
        arrays = load_checkpoint(run / "last.ckpt")
        arrays[name] = change(arrays[name])
        save_checkpoint(arrays, run / "last.ckpt")

    return damage


def damage_history(change):
    """A damage that rewrites the rows of a run's history.csv."""

    def damage(run):
        header, *rows = (run / "history.csv").read_text().splitlines()
        (run / "history.csv").write_text("\n".join([header, *change(rows)]) + "\n")

    return damage


def set_first(value):
    return lambda arr: np.where(np.arange(arr.size).reshape(arr.shape) == 0, value, arr)


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory, toy_corpus_path):
    lines = toy_corpus_path.read_text().splitlines()[:8]
    path = tmp_path_factory.mktemp("data") / "small.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="session")
def trained_dir(tmp_path_factory, small_dataset):
    out = tmp_path_factory.mktemp("run") / "model"
    rc = main(["train", str(small_dataset), str(out)] + TRAIN_FLAGS)
    assert rc == 0
    return out


class TestParse:
    def test_single_source_file(self, tmp_path):
        src = tmp_path / "prog.ml"
        src.write_text("function add(a, b) { return a + b; }\n")
        out = tmp_path / "out"
        assert main(["parse", str(src), str(out)]) == 0
        assert (out / "prog.ast.json").exists()
        report = json.loads((out / "parse_report.json").read_text())
        assert report == [{"line": 1, "status": "ok", "output": "prog.ast.json"}]
        assert (out / "manifest.json").exists()

    def test_one_bad_record_fails_run_but_keeps_good_output(self, tmp_path):
        lines = [json.dumps({"code": f"x = {i};"}) for i in range(9)]
        lines.insert(4, json.dumps({"code": "x = ;"}))
        data = tmp_path / "mixed.jsonl"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["parse", str(data), str(out)]) == 2
        report = json.loads((out / "parse_report.json").read_text())
        assert sum(r["status"] == "ok" for r in report) == 9
        assert sum(r["status"] == "error" for r in report) == 1
        assert (out / "example_0008.ast.json").exists()
        assert not (out / "example_0009.ast.json").exists()

    def test_invalid_json_line_reports_error(self, tmp_path):
        data = tmp_path / "bad.jsonl"
        data.write_text('{"code": "x = 1;"}\n{not json\n')
        out = tmp_path / "out"
        assert main(["parse", str(data), str(out)]) == 2
        report = json.loads((out / "parse_report.json").read_text())
        assert report[1]["status"] == "error"
        assert report[1]["line"] == 2

    def test_empty_dataset_succeeds(self, tmp_path):
        data = tmp_path / "empty.jsonl"
        data.write_text("\n")
        assert main(["parse", str(data), str(tmp_path / "out")]) == 0

    def test_too_deep_nesting_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "deep.ml"
        src.write_text("x = " + "(" * 300 + "1" + ")" * 300 + ";\n")
        assert main(["parse", str(src), str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "line 1: nesting deeper than 100 levels (line 1, col 105)\n"

    def test_missing_input_is_input_error(self, tmp_path):
        assert main(["parse", str(tmp_path / "nope.jsonl"), str(tmp_path / "out")]) == 2

    def test_ast_output_loads_back(self, tmp_path):
        from scriptsum.astcore import load_ast_json

        src = tmp_path / "prog.ml"
        src.write_text("y = f(x) * 2;\n")
        out = tmp_path / "out"
        assert main(["parse", str(src), str(out)]) == 0
        ast = load_ast_json(out / "prog.ast.json")
        assert ast.nodes[0].node_type == "Program"


class TestEncode:
    def test_bundle_file_contents(self, tmp_path):
        src = tmp_path / "prog.ml"
        src.write_text("a = b + c;\n")
        out = tmp_path / "enc"
        assert main(["encode", str(src), str(out), "--clip", "1"]) == 0
        payload = json.loads((out / "bundle_0000.json").read_text())
        assert set(payload) == {"tokens", "m", "m_bar", "buckets", "a_mv"}
        assert payload["tokens"] == ["a", "b", "c"]
        buckets = np.array(payload["buckets"])
        assert np.array_equal(np.diag(buckets), [0, 0, 0])
        off = buckets[~np.eye(3, dtype=bool)]
        # clip 1 collapses every off-diagonal distance into bucket 1
        assert np.array_equal(off, np.ones(6, dtype=buckets.dtype))
        m = np.array(payload["m"])
        assert m.max() > 1  # raw distances are not clipped
        stats = json.loads((out / "stats.json").read_text())
        assert stats["n_examples"] == 1
        assert stats["max_distance"] == int(m.max())

    def test_jsonl_dataset(self, tmp_path, small_dataset):
        out = tmp_path / "enc"
        assert main(["encode", str(small_dataset), str(out)]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["n_examples"] == 8
        assert (out / "bundle_0007.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "encode"

    def test_zero_view_weights_rejected(self, tmp_path):
        src = tmp_path / "prog.ml"
        src.write_text("a = b;\n")
        rc = main(["encode", str(src), str(tmp_path / "enc"), "--weights", "0,0,0"])
        assert rc == 2

    def test_malformed_weights_rejected(self, tmp_path):
        src = tmp_path / "prog.ml"
        src.write_text("a = b;\n")
        rc = main(["encode", str(src), str(tmp_path / "enc"), "--weights", "1,2"])
        assert rc == 2

    @pytest.mark.parametrize("weights", ["nan,1,1", "inf,0,0"])
    def test_non_finite_weights_rejected(self, tmp_path, capsys, weights):
        src = tmp_path / "prog.ml"
        src.write_text("a = b;\n")
        capsys.readouterr()
        rc = main(["encode", str(src), str(tmp_path / "enc"), "--weights", weights])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not list((tmp_path / "enc").glob("bundle_*.json"))


    def test_interchange_statement_shapes(self, tmp_path):
        # statement types whose branch or body slots are missing or leaves
        records = [
            [
                {"id": 0, "type": "IfStatement", "children": [1]},
                {"id": 1, "type": "Identifier", "value": "x", "children": []},
            ],
            [
                {"id": 0, "type": "WhileStatement", "children": [1, 2]},
                {"id": 1, "type": "Identifier", "value": "x", "children": []},
                {"id": 2, "type": "Block", "value": "y", "children": []},
            ],
        ]
        data = tmp_path / "ast.jsonl"
        lines = [json.dumps({"ast": {"nodes": nodes}, "summary": "a b"}) for nodes in records]
        data.write_text("\n".join(lines) + "\n")
        assert main(["encode", str(data), str(tmp_path / "enc")]) == 0
        assert json.loads((tmp_path / "enc" / "stats.json").read_text())["n_examples"] == 2

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"code": "x = ;"}', "line 2: expected expression, found ';' (line 1, col 5)"),
            (
                '{"ast": {"nodes": [{"id": 0, "type": "Identifier", "children": []}]}}',
                "line 2: leaf node 0 has no value",
            ),
            ("[1]", "line 2: record must be a JSON object"),
            ("{", "line 2: invalid JSON: "),
        ],
    )
    def test_bad_record_names_its_line(self, tmp_path, capsys, record, message):
        data = tmp_path / "data.jsonl"
        data.write_text('{"code": "x = a;"}\n' + record + "\n")
        capsys.readouterr()
        assert main(["encode", str(data), str(tmp_path / "enc")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1


class TestTrainCommand:
    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps allocations on Linux only")
    def test_out_of_memory_exits_with_one_line(self, tmp_path, toy_corpus_path):
        """A model too large for the memory a process may take fails with
        one error line and exit code 2, not a traceback. The child process
        caps its own address space; nothing else is limited."""
        limit = 1 << 30
        script = (
            "import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from scriptsum.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        args = ["train", str(toy_corpus_path), str(tmp_path / "out"), "--d-model", "8192", "--n-heads", "8",
                "--max-epochs", "1"]
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", script, *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: out of memory: ") and len(proc.stderr.splitlines()) == 1, proc.stderr

    def test_memory_error_without_a_message(self, tmp_path, monkeypatch, capsys):
        def no_memory(args, manifest):
            raise MemoryError

        monkeypatch.setattr(scriptsum.cli, "cmd_parse", no_memory)
        assert main(["parse", str(tmp_path / "data.jsonl"), str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: out of memory: an allocation failed\n"

    def test_artifacts_and_manifest(self, trained_dir):
        assert sorted(path.name for path in trained_dir.iterdir()) == [
            "best.ckpt", "best.json", "history.csv", "last.ckpt", "manifest.json",
            "src_vocab.json", "tgt_vocab.json",
        ]
        manifest = json.loads((trained_dir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["model"]["d_model"] == 16
        assert manifest["config"]["train"]["max_epochs"] == 2
        assert manifest["seed"] == 0
        assert len(manifest["input_digests"]) == 1
        history = (trained_dir / "history.csv").read_text().splitlines()
        assert len(history) == 3  # header + two epochs

    def test_config_file_with_flag_override(self, tmp_path, small_dataset):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# tiny run\n"
            "d_model = 16\nn_heads = 2\nn_script_modules = 1\nn_decoder_layers = 1\n"
            "ffn_dim = 32\ndropout_p = 0.0\nl = 4\nk = 5\n"
            "batch_size = 4\nlr = 1e-3\nmax_epochs = 5\nbleu_every = 0\nseed = 0\n"
        )
        out = tmp_path / "model"
        rc = main(
            ["train", str(small_dataset), str(out), "--config", str(cfg),
             "--max-epochs", "1", "--patience", "10"]
        )
        assert rc == 0
        assert len((out / "history.csv").read_text().splitlines()) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["train"]["max_epochs"] == 1

    def test_bad_config_key_is_input_error(self, tmp_path, small_dataset):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d_modell = 16\n")
        rc = main(["train", str(small_dataset), str(tmp_path / "m"), "--config", str(cfg)])
        assert rc == 2

    def test_read_config_file_coercions(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "lr = 3e-4  # peak\nmax_steps = none\n"
            "view_weights = 0.5, 0.25, 0.25\n"
        )
        values = read_config_file(cfg)
        assert values == {
            "lr": 3e-4,
            "max_steps": None,
            "view_weights": (0.5, 0.25, 0.25),
        }
        cfg.write_text("lr\n")
        with pytest.raises(ConfigError):
            read_config_file(cfg)

    def test_ablation_flag_changes_layer_plan(self, tmp_path, small_dataset):
        out = tmp_path / "model"
        rc = main(
            ["train", str(small_dataset), str(out)]
            + TRAIN_FLAGS
            + ["--ablation", "no-rdw", "--max-epochs", "1"]
        )
        assert rc == 0
        sidecar = json.loads((out / "best.json").read_text())
        assert sidecar["model_config"]["layer_plan"] == ["PLAIN", "SRPEi"]

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--view-weights", "inf,0,0"),
            ("--view-weights", "nan,1,1"),
            # a value that starts with "-" but is no plain negative number
            ("--lr", "-1e-3"),
            ("--max-vocab", "-3"),
            ("--min-freq", "-5"),
            ("--min-freq", "0"),
            ("--lr", "abc"),
            ("--max-steps", "x"),
            ("--mask-mode", "foo"),
            ("--srpe-placement", "everywhere"),
            ("--validate-by", "rouge"),
            ("--ablation", "no-decoder"),
        ],
    )
    def test_bad_data_setting_is_input_error(self, tmp_path, small_dataset, capsys, flag, value):
        capsys.readouterr()
        rc = main(["train", str(small_dataset), str(tmp_path / "m")] + TRAIN_FLAGS + [flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "m" / "best.ckpt").exists()

    def test_negative_view_weight_is_one_line_error(self, tmp_path, small_dataset, capsys):
        capsys.readouterr()
        argv = ["train", str(small_dataset), str(tmp_path / "m")] + TRAIN_FLAGS
        assert main(argv + ["--view-weights", "-1,1,1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: view weights must be non-negative") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "flag, value, key",
        [
            ("--lr", "inf", "lr"),
            ("--lr", "nan", "lr"),
            ("--weight-decay", "nan", "weight_decay"),
            ("--mask-mode", "foo", "mask_mode"),
            ("--min-freq", "-5", "min_freq"),
            ("--max-vocab", "-3", "max_vocab"),
        ],
    )
    def test_bad_setting_is_reported_before_ingest(self, tmp_path, capsys, flag, value, key):
        # line 2 does not parse: a setting checked after ingest reports it instead
        data = tmp_path / "data.jsonl"
        data.write_text('{"code": "x = a;", "summary": "b"}\n{"code": "x = ;", "summary": "c"}\n')
        capsys.readouterr()
        rc = main(["train", str(data), str(tmp_path / "m")] + TRAIN_FLAGS + [flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ") and len(err.splitlines()) == 1
        assert not (tmp_path / "m").exists()

    def test_numeric_failure_exit_code(self, tmp_path, small_dataset, monkeypatch):
        import scriptsum.cli as cli

        def boom(*args, **kwargs):
            raise NumericsError("non-finite training loss")

        monkeypatch.setattr(cli, "train", boom)
        rc = main(["train", str(small_dataset), str(tmp_path / "m")] + TRAIN_FLAGS)
        assert rc == 3


    @pytest.mark.parametrize(
        "name, damage",
        [
            # last.ckpt ends epoch 2, so history.csv must hold epochs 1-2 or 1-3
            ("history.csv", damage_history(lambda rows: rows[:1])),
            ("history.csv", damage_history(lambda rows: rows + rows[-1:])),
            ("history.csv", damage_history(lambda rows: [rows[0], "3" + rows[1][1:]])),
            ("last.ckpt", lambda run: shutil.copy(run / "best.ckpt", run / "last.ckpt")),
            (
                "history.csv",
                lambda run: (run / "history.csv").write_text(
                    (run / "history.csv").read_text() + "3,low,1.0,,0.001,0.5\n"
                ),
            ),
            ("last.ckpt", damage_last_ckpt("adam.m.out_bias", lambda a: np.zeros(a.size + 1))),
            ("last.ckpt", damage_last_ckpt("adam.step", set_first(np.nan))),
            ("last.ckpt", damage_last_ckpt("adam.step", lambda a: a[:0])),
            ("last.ckpt", damage_last_ckpt("adam.step", set_first(-3.0))),
            ("last.ckpt", damage_last_ckpt("adam.step", set_first(2.5))),
            ("last.ckpt", damage_last_ckpt("adam.v.out_bias", set_first(np.nan))),
            ("last.ckpt", damage_last_ckpt("adam.v.out_bias", set_first(-1.0))),
            (
                "last.ckpt",
                lambda run: save_checkpoint(
                    {
                        k: v
                        for k, v in load_checkpoint(run / "last.ckpt").items()
                        if k != "train.epoch"
                    },
                    run / "last.ckpt",
                ),
            ),
            ("last.ckpt", damage_last_ckpt("train.epoch", set_first(1.5))),
            (
                "history.csv",
                lambda run: (run / "history.csv").write_text(
                    (run / "history.csv").read_text() + "3," + "9" * 200_000 + ",1.0,,0.001,0.5\n"
                ),
            ),
        ],
        ids=[
            "missing-epoch", "repeated-epoch", "skipped-epoch", "no-optimizer-state",
            "non-numeric-row",
            "moment-shape", "nan-step", "empty-step", "negative-step", "fractional-step",
            "nan-second-moment", "negative-second-moment", "no-epoch", "fractional-epoch",
            "field-past-csv-limit",
        ],
    )
    def test_damaged_run_dir_resume_is_input_error(
        self, tmp_path, trained_dir, small_dataset, capsys, name, damage
    ):
        run = tmp_path / "run"
        shutil.copytree(trained_dir, run)
        damage(run)
        capsys.readouterr()
        rc = main(["train", str(small_dataset), str(run), "--resume"] + TRAIN_FLAGS)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert name in err


class TestEval:
    def test_report_and_scores(self, tmp_path, trained_dir, small_dataset):
        out = tmp_path / "eval"
        rc = main(
            ["eval", str(trained_dir), str(small_dataset), str(out),
             "--beam", "2", "--max-len", "8"]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_pairs"] == 8
        assert set(report["overall"]) == {"bleu4", "rouge_l", "meteor"}
        for v in report["overall"].values():
            assert 0.0 <= v <= 1.0
        with open(out / "scores.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert set(rows[0]) == {
            "index", "bleu4", "rouge_l", "meteor", "src_len", "ref_len", "candidate",
        }

    def test_length_buckets(self, tmp_path, trained_dir, small_dataset):
        out = tmp_path / "eval"
        rc = main(
            ["eval", str(trained_dir), str(small_dataset), str(out),
             "--beam", "1", "--max-len", "8", "--buckets", "3,6",
             "--bucket-key", "source"]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert [b["label"] for b in report["buckets"]] == ["<=3", "4-6", ">6"]
        assert all(b["key"] == "source_len" for b in report["buckets"])
        assert sum(b["count"] for b in report["buckets"]) == 8

    @pytest.mark.parametrize("buckets", ["a,b", "3,x", "2.5"])
    def test_non_integer_buckets_is_input_error(
        self, tmp_path, trained_dir, small_dataset, capsys, buckets
    ):
        capsys.readouterr()
        rc = main(
            ["eval", str(trained_dir), str(small_dataset), str(tmp_path / "o"),
             "--buckets", buckets]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_missing_model_dir(self, tmp_path, small_dataset):
        rc = main(["eval", str(tmp_path / "ghost"), str(small_dataset), str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda header: header["params"][0].update(dtype="O"),
            lambda header: header.update(params=5),
        ],
        ids=["object-dtype", "params-not-a-list"],
    )
    def test_malformed_checkpoint_is_input_error(
        self, tmp_path, trained_dir, small_dataset, capsys, corrupt
    ):
        model_dir = tmp_path / "model"
        shutil.copytree(trained_dir, model_dir)
        blob = (model_dir / "best.ckpt").read_bytes()
        (header_len,) = struct.unpack("<Q", blob[:8])
        header = json.loads(blob[8 : 8 + header_len])
        corrupt(header)
        raw = json.dumps(header).encode()
        (model_dir / "best.ckpt").write_bytes(
            struct.pack("<Q", len(raw)) + raw + blob[8 + header_len :]
        )
        capsys.readouterr()
        rc = main(["eval", str(model_dir), str(small_dataset), str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda payload: 5,
            lambda payload: dict(payload, model_config=dict(payload["model_config"], layer_plan=5)),
            lambda payload: dict(payload, model_config=dict(payload["model_config"], layer_plan=None)),
            lambda payload: dict(payload, model_config=dict(payload["model_config"], d_model=16.0)),
            lambda payload: dict(payload, model_config=dict(payload["model_config"], n_decoder_layers=True)),
            lambda payload: dict(payload, data_config=5),
            lambda payload: dict(payload, data_config=dict(payload["data_config"], view_weights=[1, 2])),
            lambda payload: dict(payload, data_config=dict(payload["data_config"], distance_clip=float("inf"))),
            lambda payload: dict(payload, data_config=dict(payload["data_config"], distance_clip=2.7)),
            lambda payload: dict(payload, data_config=dict(payload["data_config"], distance_clip=True)),
            lambda payload: dict(payload, data_config=dict(payload["data_config"], distance_clip="4")),
            lambda payload: dict(payload, data_config=dict(payload["data_config"], view_weights=["1", "1", "1"])),
            lambda payload: dict(payload, data_config=dict(payload["data_config"], view_weights=[10**400, 1, 1])),
            lambda payload: dict(payload, data_config=dict(payload["data_config"], distance_clip=10**400)),
            lambda payload: dict(payload, data_config=dict(payload["data_config"], distance_clip=3)),
        ],
        ids=[
            "top-level-int", "plan-int", "plan-null", "float-width", "bool-layer-count",
            "data-config-int", "two-view-weights", "infinite-clip", "fractional-clip",
            "bool-clip", "string-clip", "string-view-weights", "huge-view-weight", "huge-clip",
            "clip-other-than-l",
        ],
    )
    def test_malformed_sidecar_is_input_error(
        self, tmp_path, trained_dir, small_dataset, capsys, corrupt
    ):
        model_dir = tmp_path / "model"
        shutil.copytree(trained_dir, model_dir)
        sidecar = model_dir / "best.json"
        sidecar.write_text(json.dumps(corrupt(json.loads(sidecar.read_text()))))
        capsys.readouterr()
        rc = main(["eval", str(model_dir), str(small_dataset), str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestSummarize:
    def test_beam_one_matches_greedy(self, trained_dir, small_dataset, capsys):
        rc = main(["summarize", str(trained_dir), str(small_dataset), "--beam", "1"])
        assert rc == 0
        beam_lines = capsys.readouterr().out
        rc = main(["summarize", str(trained_dir), str(small_dataset), "--greedy"])
        assert rc == 0
        greedy_lines = capsys.readouterr().out
        assert beam_lines == greedy_lines
        assert len(beam_lines.splitlines()) == 8

    def test_source_file_input_and_out_dir(self, tmp_path, trained_dir, capsys):
        src = tmp_path / "prog.ml"
        src.write_text("function main() { return 0; }\n")
        out = tmp_path / "summ"
        rc = main(["summarize", str(trained_dir), str(src), "--beam", "2", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        written = (out / "summaries.txt").read_text()
        assert written == printed
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("penalty", ["1e308", "-1e308", "nan"])
    def test_length_penalty_outside_float_range_is_input_error(
        self, trained_dir, small_dataset, capsys, penalty
    ):
        rc = main(
            ["summarize", str(trained_dir), str(small_dataset),
             "--beam", "2", "--max-len", "3", f"--length-penalty={penalty}"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1

    def test_non_finite_checkpoint_is_numeric_error(
        self, tmp_path, trained_dir, small_dataset, capsys
    ):
        model_dir = tmp_path / "model"
        shutil.copytree(trained_dir, model_dir)
        params = load_checkpoint(model_dir / "best.ckpt")
        params["dec0.ffn.w1"][0, 0] = np.nan
        save_checkpoint(params, model_dir / "best.ckpt")
        capsys.readouterr()
        rc = main(["summarize", str(model_dir), str(small_dataset), "--beam", "2"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1

    def test_overflowing_checkpoint_is_numeric_error(
        self, tmp_path, trained_dir, small_dataset, capsys
    ):
        # finite weights so large that the decoder's FFN overflows
        model_dir = tmp_path / "model"
        shutil.copytree(trained_dir, model_dir)
        params = load_checkpoint(model_dir / "best.ckpt")
        params["dec0.ffn.w1"][:] = 1e300
        save_checkpoint(params, model_dir / "best.ckpt")
        capsys.readouterr()
        rc = main(["summarize", str(model_dir), str(small_dataset), "--beam", "2"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: overflow") and len(captured.err.splitlines()) == 1

    def test_sidecar_config_mismatch_exits_4(self, tmp_path, trained_dir, small_dataset, capsys):
        model_dir = tmp_path / "model"
        shutil.copytree(trained_dir, model_dir)
        sidecar = json.loads((model_dir / "best.json").read_text())
        sidecar["model_config"].update(d_model=2048, ffn_dim=8192)
        (model_dir / "best.json").write_text(json.dumps(sidecar))
        capsys.readouterr()
        rc = main(["summarize", str(model_dir), str(small_dataset)])
        assert rc == 4
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: parameter 'src_embed' has shape \((\d+), 16\), expected \(\1, 2048\)\n", err)

    def test_vocab_digest_mismatch(self, tmp_path, trained_dir, small_dataset):
        vocab = json.loads((trained_dir / "src_vocab.json").read_text())
        vocab["tokens"][-1] = "zzz_unseen_token"
        tampered = tmp_path / "src_vocab.json"
        tampered.write_text(json.dumps(vocab))
        rc = main(
            ["summarize", str(trained_dir), str(small_dataset),
             "--src-vocab", str(tampered)]
        )
        assert rc == 4


    def test_bad_record_names_its_line(self, tmp_path, trained_dir, capsys):
        data = tmp_path / "data.jsonl"
        data.write_text('{"code": "x = a;"}\n{"code": "x = ;"}\n')
        capsys.readouterr()
        assert main(["summarize", str(trained_dir), str(data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: expected expression, found ';' (line 1, col 5)\n"


class TestExportAttention:
    def test_rows_are_probability_distributions(self, tmp_path, trained_dir):
        src = tmp_path / "prog.ml"
        src.write_text("total = total + price * count;\n")
        out = tmp_path / "attn"
        rc = main(
            ["export-attention", str(trained_dir), str(src), str(out),
             "--layer", "0", "--head", "1"]
        )
        assert rc == 0
        with open(out / "attention_l0_h1.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        tokens = ["total", "total", "price", "count"]
        assert rows[0] == ["token"] + tokens
        assert [r[0] for r in rows[1:]] == tokens
        matrix = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        assert matrix.shape == (4, 4)
        assert np.all(matrix >= 0)
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic_output(self, tmp_path, trained_dir):
        src = tmp_path / "prog.ml"
        src.write_text("x = y / z;\n")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(
                ["export-attention", str(trained_dir), str(src), str(out),
                 "--layer", "1", "--head", "0"]
            )
            assert rc == 0
            outs.append((out / "attention_l1_h0.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_non_finite_checkpoint_is_numeric_error(self, tmp_path, trained_dir, capsys):
        model_dir = tmp_path / "model"
        shutil.copytree(trained_dir, model_dir)
        params = load_checkpoint(model_dir / "best.ckpt")
        params["enc0.attn.q0"][0, 0] = np.nan
        save_checkpoint(params, model_dir / "best.ckpt")
        src = tmp_path / "prog.ml"
        src.write_text("x = y;\n")
        capsys.readouterr()
        rc = main(["export-attention", str(model_dir), str(src), str(tmp_path / "attn"),
                   "--layer", "0", "--head", "0", "--index", "0"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "enc0.attn.q0" in err
        assert not (tmp_path / "attn").exists()

    def test_overflowing_checkpoint_is_numeric_error(self, tmp_path, trained_dir, capsys):
        model_dir = tmp_path / "model"
        shutil.copytree(trained_dir, model_dir)
        params = load_checkpoint(model_dir / "best.ckpt")
        params["enc0.ffn.w1"][:] = 1e300
        save_checkpoint(params, model_dir / "best.ckpt")
        src = tmp_path / "prog.ml"
        src.write_text("x = y;\n")
        capsys.readouterr()
        rc = main(["export-attention", str(model_dir), str(src), str(tmp_path / "attn"),
                   "--layer", "0", "--head", "0"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: overflow") and len(err.splitlines()) == 1
        assert not (tmp_path / "attn").exists()

    def test_out_of_range_indices(self, tmp_path, trained_dir):
        src = tmp_path / "prog.ml"
        src.write_text("x = y;\n")
        out = tmp_path / "attn"
        base = ["export-attention", str(trained_dir), str(src), str(out)]
        assert main(base + ["--layer", "5", "--head", "0"]) == 2
        assert main(base + ["--layer", "0", "--head", "9"]) == 2
        assert main(base + ["--layer", "0", "--head", "0", "--index", "3"]) == 2


def decoding_argv(command, model_dir, data, out, src_vocab=None):
    """A short run of a command that decodes with a trained model and
    writes a manifest into out."""
    vocab = ["--src-vocab", src_vocab] if src_vocab else []
    argv = {
        "eval": ["eval", model_dir, data, out, "--beam", "1", "--max-len", "2"],
        "summarize": ["summarize", model_dir, data, "--beam", "1", "--max-len", "2",
                      *vocab, "--out", out],
        "export-attention": ["export-attention", model_dir, data, out,
                             "--layer", "0", "--head", "0"],
    }[command]
    return [str(a) for a in argv]


class TestManifestInputs:
    """input_digests holds exactly the files a command read."""

    @pytest.mark.parametrize("command", ["eval", "summarize", "export-attention"])
    def test_decoding_commands_digest_model_files(
        self, tmp_path, trained_dir, small_dataset, command
    ):
        out = tmp_path / "out"
        src_vocab = tmp_path / "src_vocab.json"
        shutil.copy(trained_dir / "src_vocab.json", src_vocab)
        assert main(decoding_argv(command, trained_dir, small_dataset, out, src_vocab)) == 0
        read = [small_dataset, trained_dir / "best.json", trained_dir / "best.ckpt",
                src_vocab if command == "summarize" else trained_dir / "src_vocab.json",
                trained_dir / "tgt_vocab.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["input_digests"] == {str(path): sha256_file(path) for path in read}

    def test_resume_manifest_digests_the_files_it_resumed_from(
        self, tmp_path, trained_dir, small_dataset
    ):
        run = tmp_path / "run"
        shutil.copytree(trained_dir, run)
        resumed = [run / name for name in ("last.ckpt", "history.csv")]
        before = {str(path): sha256_file(path) for path in [small_dataset, *resumed]}
        rc = main(["train", str(small_dataset), str(run), "--resume"]
                  + TRAIN_FLAGS + ["--max-epochs", "3"])
        assert rc == 0
        assert json.loads((run / "manifest.json").read_text())["input_digests"] == before
        assert all(sha256_file(path) != before[str(path)] for path in resumed)


class TestManifestTimes:
    @pytest.mark.parametrize("command", ["eval", "summarize", "export-attention"])
    def test_times_span_the_command(
        self, tmp_path, trained_dir, small_dataset, monkeypatch, command
    ):
        import scriptsum.cli as cli
        import scriptsum.manifest as manifest_module

        start = datetime(2026, 1, 1, tzinfo=timezone.utc)
        clock = [start]

        class Clock:
            @staticmethod
            def now(tz=None):
                return clock[0]

        load = cli._load_model_dir

        def slow_load(*args):
            # loading the model takes one minute on the fake clock
            clock[0] += timedelta(minutes=1)
            return load(*args)

        monkeypatch.setattr(manifest_module, "datetime", Clock)
        monkeypatch.setattr(cli, "_load_model_dir", slow_load)
        out = tmp_path / "out"
        assert main(decoding_argv(command, trained_dir, small_dataset, out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["started_at"] == start.isoformat(timespec="seconds")
        assert manifest["finished_at"] == (start + timedelta(minutes=1)).isoformat(timespec="seconds")


OVERSIZED_JSON = [pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting")]
if hasattr(sys, "get_int_max_str_digits"):  # the interpreter caps int literals
    OVERSIZED_JSON.append(pytest.param("7" * 5_000, id="long-integer"))


def write_checkpoint_header(path, text):
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<Q", blob[:8])
    path.write_bytes(struct.pack("<Q", len(text)) + text.encode() + blob[8 + header_len :])


class TestOversizedJson:
    """JSON past the decoder's nesting or digit limit, in any file scriptsum
    reads, is a FormatError from the library, and from the CLI exit 2 with
    one line naming the file or dataset line."""

    @pytest.mark.parametrize("text", OVERSIZED_JSON)
    @pytest.mark.parametrize(
        "reader, name",
        [
            ("load_dataset", "line 2"),
            ("encode", "line 2"),
            ("parse", "line 2"),
            ("vocabulary", "src_vocab.json"),
            ("sidecar", "best.json"),
            ("resume", "last.ckpt"),
            ("manifest", "manifest.json"),
            ("ast", "tree.ast.json"),
            ("checkpoint-header", "best.ckpt"),
        ],
    )
    def test_reader_refuses_in_one_line(
        self, tmp_path, trained_dir, small_dataset, capsys, reader, name, text
    ):
        run = tmp_path / "run"
        shutil.copytree(trained_dir, run)
        data = tmp_path / "data.jsonl"
        data.write_text('{"code": "x = a;", "summary": "b"}\n{"code": "x = 1;", "k": %s}\n' % text)
        if name.endswith(".ckpt"):
            write_checkpoint_header(run / name, text)
        elif name.endswith(".json"):
            (run / name).write_text(text)
        call = {
            "load_dataset": lambda: load_dataset(data),
            "encode": ["encode", data, tmp_path / "enc"],
            "parse": ["parse", data, tmp_path / "ast"],
            "vocabulary": ["summarize", run, small_dataset],
            "sidecar": ["summarize", run, small_dataset],
            "resume": ["train", small_dataset, run, "--resume"] + TRAIN_FLAGS,
            "manifest": lambda: load_manifest(run),
            "ast": lambda: load_ast_json(run / name),
            "checkpoint-header": ["summarize", run, small_dataset],
        }[reader]
        if callable(call):
            with pytest.raises(FormatError) as info:
                call()
            message = str(info.value)
            # a library reader given one document names no file
            name = None if reader == "ast" else name
        else:
            capsys.readouterr()
            assert main([str(a) for a in call]) == 2
            message = capsys.readouterr().err
        assert "invalid JSON: " in message and len(message.splitlines()) == 1
        assert name is None or name in message


class TestNonUtf8Input:
    """Bytes that are not UTF-8, in any text file scriptsum reads, are a
    FormatError from the library, and from the CLI exit 2 with one line
    naming the file or dataset line."""

    @pytest.mark.parametrize(
        "reader, name",
        [
            ("load_dataset", "line 2"),
            ("encode", "line 2"),
            ("summarize", "line 2"),
            ("parse", "line 2"),
            ("encode-source", "prog.ml"),
            ("parse-source", "prog.ml"),
            ("config", "run.cfg"),
            ("vocabulary", "src_vocab.json"),
            ("sidecar", "best.json"),
            ("history", "history.csv"),
            ("manifest", "manifest.json"),
            ("ast", "tree.ast.json"),
        ],
    )
    def test_reader_names_file_or_line(
        self, tmp_path, trained_dir, small_dataset, capsys, reader, name
    ):
        run = tmp_path / "run"
        shutil.copytree(trained_dir, run)
        data = tmp_path / "data.jsonl"
        data.write_bytes(b'{"code": "x = a;", "summary": "b"}\n{"code": "x = 1;", "summary": "\xff"}\n')
        source = tmp_path / "prog.ml"
        source.write_bytes(b"x = \xff;\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 0\nlr = \xff\n")
        if name.endswith((".json", ".csv")):
            path = run / name
            path.write_bytes(b"\xff" + (path.read_bytes() if path.exists() else b"{}"))
        call = {
            "load_dataset": lambda: load_dataset(data),
            "encode": ["encode", data, tmp_path / "enc"],
            "summarize": ["summarize", run, data],
            "parse": ["parse", data, tmp_path / "ast"],
            "encode-source": ["encode", source, tmp_path / "enc"],
            "parse-source": ["parse", source, tmp_path / "ast"],
            "config": ["train", small_dataset, tmp_path / "m", "--config", cfg],
            "vocabulary": ["summarize", run, small_dataset],
            "sidecar": ["summarize", run, small_dataset],
            "history": ["train", small_dataset, run, "--resume"] + TRAIN_FLAGS,
            "manifest": lambda: load_manifest(run),
            "ast": lambda: load_ast_json(run / name),
        }[reader]
        if callable(call):
            with pytest.raises(FormatError) as info:
                call()
            message = str(info.value)
        else:
            capsys.readouterr()
            assert main([str(a) for a in call]) == 2
            message = capsys.readouterr().err
        assert "can't decode byte 0xff" in message and len(message.splitlines()) == 1
        assert name in message
        if reader == "parse":  # the other line still parses
            assert (tmp_path / "ast" / "example_0000.ast.json").exists()


class TestInferenceRecordsNoGraph:
    def test_encoder_runs_with_graph_recording_off(
        self, tmp_path, trained_dir, small_dataset, monkeypatch, capsys
    ):
        recorded: list[bool] = []
        encode = ScriptModel.script_encoder

        def recording_encoder(self, *args, **kwargs):
            recorded.append(_grad_enabled())
            return encode(self, *args, **kwargs)

        monkeypatch.setattr(ScriptModel, "script_encoder", recording_encoder)
        src = tmp_path / "prog.ml"
        src.write_text("x = y / z;\n")
        commands = [
            ["eval", str(trained_dir), str(small_dataset), str(tmp_path / "eval"),
             "--beam", "2", "--max-len", "4"],
            ["summarize", str(trained_dir), str(src), "--beam", "2", "--max-len", "4"],
            ["summarize", str(trained_dir), str(src), "--greedy", "--max-len", "4"],
            ["export-attention", str(trained_dir), str(src), str(tmp_path / "attn"),
             "--layer", "0", "--head", "0"],
        ]
        for argv in commands:
            before = len(recorded)
            assert main(argv) == 0, argv[0]
            assert len(recorded) > before, argv[0]
        assert not any(recorded)
        assert _grad_enabled()


class TestConfigRoutes:
    # one value for every config key: (key, flag, value); the flag route
    # and the config-file route must configure the same run
    SETTINGS = [
        ("d_model", "--d-model", "8"),
        ("n_heads", "--n-heads", "2"),
        ("n_script_modules", "--n-script-modules", "2"),
        ("n_decoder_layers", "--n-decoder-layers", "1"),
        ("ffn_dim", "--ffn-dim", "16"),
        ("dropout_p", "--dropout", "0.1"),
        ("l", "--distance-clip", "3"),
        ("k", "--seq-window", "4"),
        ("mask_mode", "--mask-mode", "neg_inf"),
        ("srpe_placement", "--srpe-placement", "all"),
        ("batch_size", "--batch-size", "1"),
        ("lr", "--lr", "2e-3"),
        ("warmup_ratio", "--warmup-ratio", "0.1"),
        ("weight_decay", "--weight-decay", "0.02"),
        ("max_epochs", "--max-epochs", "2"),
        ("early_stop_patience", "--patience", "1"),
        ("seed", "--seed", "5"),
        ("validate_by", "--validate-by", "bleu"),
        ("bleu_every", "--bleu-every", "1"),
        ("max_steps", "--max-steps", "3"),
        ("min_freq", "--min-freq", "2"),
        ("max_vocab", "--max-vocab", "30"),
        ("view_weights", "--view-weights", "0.5,0.3,0.2"),
        ("ablation", "--ablation", "no-rdw"),
    ]

    def test_flags_and_config_file_give_the_same_run(self, tmp_path, small_dataset):
        assert [key for key, _, _ in self.SETTINGS] == list(_CONFIG_TYPES)
        flags = []
        for _, flag, value in self.SETTINGS:
            flags += [flag, value]
        valid = tmp_path / "valid.jsonl"
        valid.write_text("".join(small_dataset.read_text().splitlines(True)[:2]))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, _, value in self.SETTINGS))
        runs = {"flags": flags, "file": ["--config", str(cfg)]}
        argv = {
            name: ["train", str(small_dataset), str(tmp_path / name), "--valid", str(valid)] + extra
            for name, extra in runs.items()
        }
        # each flag's dest is its config key
        args = build_parser().parse_args(argv["flags"])
        for key in _CONFIG_TYPES:
            assert getattr(args, key) is not None, key
        for name in runs:
            assert main(argv[name]) == 0, name
        manifests = {
            name: json.loads((tmp_path / name / "manifest.json").read_text()) for name in runs
        }
        assert manifests["flags"]["config"] == manifests["file"]["config"]
        assert manifests["flags"]["config"]["model"]["layer_plan"] == ["PLAIN", "SRPEi"] * 2
        assert manifests["flags"]["config"]["train"]["early_stop_patience"] == 1
        best = {name: (tmp_path / name / "best.json").read_bytes() for name in runs}
        assert best["flags"] == best["file"]


class TestDocumentedFormats:
    """docs/file-formats.md lists the columns and keys the code writes."""

    DOC = (REPO / "docs" / "file-formats.md").read_text()

    def test_history_header(self, trained_dir):
        documented = re.search(r"### `history.csv`\s+Header `([^`]+)`", self.DOC).group(1)
        assert documented == ",".join(HISTORY_COLUMNS)
        assert (trained_dir / "history.csv").read_text().splitlines()[0] == documented

    def test_scores_columns(self, tmp_path, trained_dir, small_dataset):
        documented = re.search(r"`scores.csv` with columns\s+`([^`]+)`", self.DOC).group(1)
        out = tmp_path / "eval"
        assert main(["eval", str(trained_dir), str(small_dataset), str(out), "--beam", "1", "--max-len", "2"]) == 0
        assert (out / "scores.csv").read_text().splitlines()[0] == documented

    def test_manifest_keys(self, trained_dir):
        example = re.search(r"## Run manifest.*?```json\n(.*?)```", self.DOC, re.S).group(1)
        documented = re.findall(r'^  "(\w+)":', example, re.M)
        assert documented == [f.name for f in fields(RunManifest)]
        assert sorted(json.loads((trained_dir / "manifest.json").read_text())) == sorted(documented)
