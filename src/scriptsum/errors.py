"""Exception types shared across the toolkit, the UTF-8 text-file reader,
the one JSON decoder every reader goes through, and the one JSON writer."""

import json


class MiniLangSyntaxError(SyntaxError):
    """Source text violates the MiniLang grammar. Carries line/column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class FormatError(ValueError):
    """An interchange or dataset file does not match its schema."""


class TreeError(ValueError):
    """Node list does not form a tree (cycle, multiple parents, orphan) or
    breaks the value rule (a leaf without a value, an interior node with one)."""


class ConfigError(ValueError):
    """Invalid configuration value (clip threshold, weights, layer plan...)."""


class ShapeError(ValueError):
    """Tensor operands have incompatible shapes."""


class NumericsError(ArithmeticError):
    """Numerical failure: fully masked softmax row, NaN/Inf loss."""


class StateError(RuntimeError):
    """Operation invoked in an invalid state (e.g. double backward)."""


class EmptyCorpusError(ValueError):
    """Vocabulary construction was given an empty split."""


class BucketError(ValueError):
    """Malformed bucket specification for corpus reports."""


class ArtifactMismatchError(RuntimeError):
    """Checkpoint, config and vocabulary artifacts do not belong together."""


def parse_json(text: str):
    """Decode one JSON document. Anything the decoder refuses is a
    FormatError, including nesting past the interpreter's recursion limit
    and an integer past its digit limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc


def write_json(path, obj, *, indent=2, sort_keys=False) -> None:
    """Write obj to path as one UTF-8 JSON document ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=indent, sort_keys=sort_keys)
        fh.write("\n")


def read_text(path) -> str:
    """The text of a UTF-8 file, with newlines translated as text-mode
    open() does; FormatError naming the file if it is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_json_object(path) -> dict:
    """The JSON object stored in a UTF-8 file; FormatError naming the file
    if it does not decode or holds another kind of value."""
    text = read_text(path)
    try:
        value = parse_json(text)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not isinstance(value, dict):
        raise FormatError(f"{path}: must be a JSON object")
    return value
