"""The package's public names all resolve, no package attribute named
after a submodule is shadowed by a function or class of that name, and
JSON is decoded and written in one place."""

import importlib
import pkgutil
import re
import types
from pathlib import Path

import scriptsum

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(scriptsum.__path__))


def test_every_exported_name_resolves():
    missing = [name for name in scriptsum.__all__ if not hasattr(scriptsum, name)]
    assert missing == []
    assert len(set(scriptsum.__all__)) == len(scriptsum.__all__)


def test_submodule_attributes_are_modules():
    assert {"structure", "tensor", "model", "data"} <= set(SUBMODULES)
    for name in SUBMODULES:
        module = importlib.import_module(f"scriptsum.{name}")
        assert isinstance(getattr(scriptsum, name), types.ModuleType), name
        assert getattr(scriptsum, name) is module, name


def test_json_is_read_and_written_only_in_errors():
    """errors.parse_json is the package's one JSON decoder and
    errors.write_json its one writer. json.dumps stays allowed, for the
    canonical bytes of the checkpoint header and the vocabulary digest."""
    calls = re.compile(r"\bjson\.(dump|load|loads)\(|\bfrom json import\b")
    package = Path(scriptsum.__file__).parent
    found = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "errors.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if calls.search(line)
    ]
    assert found == []
