"""Run manifests: a JSON record of what produced an artifact directory.

Each command that writes artifacts drops exactly one manifest.json next to
them, holding the effective configuration, the seed, a git-describe string
for the working tree, sha256 digests of every input file, start/end
timestamps, and the numpy version, BLAS library and BLAS thread settings
the process ran with. Reruns with identical manifest inputs, under the same
numpy, BLAS library, BLAS thread count and BLAS CPU kernel, reproduce the
artifacts in double precision. The kernel is not recorded: OpenBLAS picks
it by CPU, so two hosts can differ in the last bits with equal manifests.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import FormatError, read_json_object, write_json

MANIFEST_NAME = "manifest.json"
# environment variables that set the BLAS thread count, recorded as set
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def git_describe(cwd=None) -> str:
    """Best-effort `git describe --always --dirty`; 'unknown' outside a repo."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            cwd=cwd,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def blas_name() -> str:
    """The BLAS library numpy was built with, as "name version", or
    'unknown' when numpy's build configuration does not say."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def blas_threads() -> dict:
    """Each of BLAS_THREAD_VARIABLES to its value, or None where it is unset."""
    return {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass
class RunManifest:
    """Provenance for one artifact directory."""

    command: str
    config: dict = field(default_factory=dict)
    seed: int = 0
    git: str = field(default_factory=git_describe)
    input_digests: dict = field(default_factory=dict)
    started_at: str = field(default_factory=_now_iso)
    finished_at: str = ""
    numpy: str | None = np.__version__
    blas: str | None = field(default_factory=blas_name)
    blas_threads: dict | None = field(default_factory=blas_threads)

    def add_input(self, path) -> None:
        self.input_digests[str(path)] = sha256_file(path)

    def finish(self) -> None:
        self.finished_at = _now_iso()

    def save(self, out_dir) -> Path:
        if not self.finished_at:
            self.finish()
        path = Path(out_dir) / MANIFEST_NAME
        write_json(path, asdict(self), sort_keys=True)
        return path


def load_manifest(out_dir) -> RunManifest:
    path = Path(out_dir) / MANIFEST_NAME
    payload = read_json_object(path)
    # what each optional key reads as when the manifest lacks it; the
    # environment fields are missing from manifests older than them
    absent = {"git": "unknown", "input_digests": {}, "started_at": "", "finished_at": "",
              "numpy": None, "blas": None, "blas_threads": None}
    values = {**absent, **payload}
    names = [f.name for f in fields(RunManifest)]
    missing = [name for name in names if name not in values]
    if missing:
        raise FormatError(f"manifest {path} missing keys: {missing}")
    return RunManifest(**{name: values[name] for name in names})


__all__ = ["RunManifest", "load_manifest", "sha256_file", "git_describe", "MANIFEST_NAME"]
