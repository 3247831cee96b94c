import json
from dataclasses import fields

import numpy as np
import pytest

from scriptsum.errors import FormatError
from scriptsum.manifest import MANIFEST_NAME, RunManifest, load_manifest


def test_round_trip(tmp_path):
    written = RunManifest(
        command="encode",
        config={"distance_clip": 8},
        seed=3,
        git="abc1234-dirty",
        input_digests={"in.jsonl": "ab" * 32},
        started_at="2026-08-14T12:00:00+00:00",
        finished_at="2026-08-14T12:03:21+00:00",
        numpy="2.4.6",
        blas="scipy-openblas 0.3.31",
        blas_threads={"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None},
    )
    written.save(tmp_path)
    loaded = load_manifest(tmp_path)
    for f in fields(RunManifest):
        assert getattr(loaded, f.name) == getattr(written, f.name), f.name


def test_missing_optional_keys_read_as_documented(tmp_path):
    (tmp_path / MANIFEST_NAME).write_text(json.dumps({"command": "parse", "config": {"n_ok": 1}, "seed": 0}))
    loaded = load_manifest(tmp_path)
    assert (loaded.command, loaded.config, loaded.seed) == ("parse", {"n_ok": 1}, 0)
    assert (loaded.git, loaded.input_digests, loaded.started_at, loaded.finished_at) == ("unknown", {}, "", "")
    assert (loaded.numpy, loaded.blas, loaded.blas_threads) == (None, None, None)
    assert load_manifest(tmp_path).input_digests is not loaded.input_digests


@pytest.mark.parametrize("key", ["command", "config", "seed"])
def test_missing_required_key_is_format_error(tmp_path, key):
    payload = {"command": "parse", "config": {}, "seed": 0}
    del payload[key]
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(payload))
    with pytest.raises(FormatError, match=f"missing keys: \\['{key}'\\]"):
        load_manifest(tmp_path)


@pytest.mark.parametrize("payload", [[], ["command"], "encode", 7, None])
def test_non_object_is_format_error(tmp_path, payload):
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(payload))
    with pytest.raises(FormatError, match="must be a JSON object"):
        load_manifest(tmp_path)


def test_records_numpy_blas_and_thread_settings(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    RunManifest(command="train").save(tmp_path)
    payload = json.loads((tmp_path / MANIFEST_NAME).read_text())
    assert payload["numpy"] == np.__version__
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert payload["blas"] == f"{info['name']} {info['version']}"
    assert payload["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None}
    loaded = load_manifest(tmp_path)
    assert (loaded.numpy, loaded.blas, loaded.blas_threads) == (payload["numpy"], payload["blas"], payload["blas_threads"])


def test_reads_manifest_without_environment_fields(tmp_path):
    older = {"command": "eval", "config": {}, "seed": 0, "git": "abc1234", "input_digests": {},
             "started_at": "2026-08-14T12:00:00+00:00", "finished_at": "2026-08-14T12:03:21+00:00"}
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(older))
    loaded = load_manifest(tmp_path)
    assert (loaded.command, loaded.git) == ("eval", "abc1234")
    assert (loaded.numpy, loaded.blas, loaded.blas_threads) == (None, None, None)
