"""Typed records read from and written to files.

``from_mapping`` is the one reader of every config and record read back from
a file, and ``atomic_open`` the one way a file is written. ``write_json``,
``write_jsonl`` and ``write_csv`` are the one writer of each text format,
and ``read_json`` the one reader of a JSON record. This module imports no
other module of the package, so every module may import it.
"""

from __future__ import annotations

import csv
import json
import os
import types
import typing
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path


@contextmanager
def atomic_open(path: str | Path, mode: str = "w", **kwargs):
    """A file written beside ``path`` and renamed over it once the block ends:
    a write that fails leaves the previous ``path`` as it was and no temporary
    file behind. ``kwargs`` go to ``open`` (``encoding``, ``newline``). The
    file gets the mode that ``open`` would give it, not ``mkstemp``'s 0600."""
    path = Path(path)
    # O_EXCL on a fresh random name, as mkstemp does; the kernel applies the
    # process umask to 0o666, with no write to the umask itself
    while True:
        tmp = path.parent / f".{path.name}.{os.urandom(4).hex()}.tmp"
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_json(path: str | Path, data) -> Path:
    """``data`` as indented, key-sorted JSON at ``path``."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True))
    return Path(path)


def write_jsonl(path: str | Path, rows) -> Path:
    """One key-sorted JSON line per row of ``rows`` at ``path``."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return Path(path)


def write_csv(path: str | Path, header: list, rows) -> Path:
    """A CSV file at ``path``: the ``header`` row, then each of ``rows``."""
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return Path(path)


def as_tuples(record, *names: str) -> None:
    """Store each named sequence field of the frozen dataclass ``record`` as a
    tuple: the one coercion rule of the config records, so that a field given
    as a list equals the same tuple and cannot change after the record's
    check. ``asdict`` writes a tuple as the same JSON list."""
    for name in names:
        object.__setattr__(record, name, tuple(getattr(record, name)))


class ConfigError(ValueError):
    def __init__(self, fieldname: str, message: str):
        super().__init__(f"{fieldname}: {message}")
        self.fieldname = fieldname


def from_mapping(cls, data, path: str = ""):
    """Build dataclass ``cls`` from a parsed YAML or JSON mapping; the one
    reader of every config and record read back from a file.

    Omitted fields take their defaults. An unknown field, a missing required
    one, a value of the wrong type or a ``ValueError`` from ``cls`` itself
    raises ``ConfigError`` named by its dotted path (``train.optimizer.base_lr``;
    ``path`` prefixes it); a ``ConfigError`` from ``cls`` names its own field
    and passes through unchanged. A bool is not an int; an int passes for a
    float and stays an int; a list (or a tuple, as ``asdict`` leaves it) fills
    a ``list[...]`` or ``tuple[..., ...]``; a mapping fills a nested dataclass
    or a ``dict[str, ...]``, whose values are named ``path.key``; ``X | None``
    accepts null.
    """
    if not isinstance(data, dict):
        raise ConfigError(path or "<root>", f"expected a mapping, got {_kind(data)}")
    prefix = f"{path}." if path else ""
    hints = typing.get_type_hints(cls)
    for key in data:
        if key not in hints:
            raise ConfigError(prefix + str(key), "unknown field")
    for f in fields(cls):
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(prefix + f.name, "field is required")
    values = {key: _typed(hints[key], value, prefix + key) for key, value in data.items()}
    try:
        return cls(**values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path or "<root>", str(exc)) from None


def read_json(cls, path: str | Path):
    """``cls`` read back from the JSON file ``path``; a malformed file raises
    ``ConfigError`` naming the file and the dotted field."""
    try:
        return from_mapping(cls, json.loads(Path(path).read_text()))
    except (json.JSONDecodeError, ConfigError) as exc:
        raise ConfigError(str(path), str(exc)) from None


def _typed(hint, value, path: str):
    """``value`` checked against the type ``hint``, with lists made tuples
    and mappings made dataclasses where the hint asks for them."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # X | None
        return None if value is None else _typed(args[0], value, path)
    if is_dataclass(hint):
        return from_mapping(hint, value, path)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(path, f"expected a list, got {_kind(value)}")
        items = [_typed(args[0], item, path) for item in value]
        return items if origin is list else tuple(items)
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(path, f"expected a mapping, got {_kind(value)}")
        return {_typed(args[0], k, path): _typed(args[1], v, f"{path}.{k}") for k, v in value.items()}
    expected = origin or hint
    if type(value) is expected or (expected is float and type(value) is int):
        return value
    raise ConfigError(path, f"expected {expected.__name__}, got {_kind(value)}")


def _kind(value) -> str:
    return "null" if value is None else type(value).__name__
