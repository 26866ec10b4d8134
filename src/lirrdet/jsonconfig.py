"""The JSON layer for config and report files: it reads them and writes them.

``read_json`` reads a file, naming it in any JSON, UTF-8 or nesting error.
``from_json_dict`` builds a config dataclass from parsed JSON, checking
every key and value, and ``to_json`` is its inverse: a dataclass becomes an
object of its fields in declaration order, an enum its value and a tuple an
array.

A field's default decides what JSON fits it: an object fills a nested
dataclass, an array fills a tuple (element by element, against the
default's first element), a string fills a string or string enum, and a
number fills a number field. A bool is not a number, null fits nothing,
``NaN``, ``Infinity`` (which Python's JSON parser reads) and an integer no
float can hold fit no number field, and an int field takes only a JSON
integer. Errors are ``ValueError`` naming the dotted key, such as
``scene.foo`` or ``steps``. ``check_finite`` is the same number check for
a record built in Python: each config class runs it at construction.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from numbers import Real
from pathlib import Path


# scalar field default -> the JSON values that fit it, and their name
_SCALARS = ((str, str, "a string"), (float, (int, float), "a number"), (int, int, "an integer"))


def read_json(path, what: str):
    """The JSON in file ``path``; a file that is not UTF-8 JSON raises ValueError naming it."""
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as e:  # JSON, UTF-8 and nesting errors
        raise ValueError(f"{path}: {what} is not valid JSON: {e}") from e


def to_json(value):
    """``value`` as new JSON, sharing no list or dict: the inverse of ``from_json_dict``."""
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    return value


def is_finite(value) -> bool:
    """Whether a JSON number fits a float: not NaN, Infinity or 10**400."""
    return abs(value) <= sys.float_info.max


def check_finite(record) -> None:
    """Raise ValueError naming the first field of dataclass ``record`` that
    is, or is a tuple holding, a NaN or infinite number."""
    for f in fields(record):
        value = getattr(record, f.name)
        items = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, Real) and not is_finite(v) for v in items):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


def from_json_dict(cls, d, prefix: str = ""):
    """Build dataclass ``cls`` from the JSON object ``d``."""
    if not isinstance(d, dict):
        where = f"config key {prefix[:-1]}" if prefix else "a config"
        raise ValueError(f"{where} must be a JSON object, got {d!r}")
    defaults = {f.name: f.default if f.default is not MISSING else f.default_factory()
                for f in fields(cls)}
    extra = sorted(prefix + k for k in d if k not in defaults)
    if extra:
        raise ValueError(f"unknown config keys: {extra}")
    return cls(**{k: _from_json(v, defaults[k], prefix + k) for k, v in d.items()})


def _from_json(value, default, key: str):
    if is_dataclass(default):
        return from_json_dict(type(default), value, key + ".")
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"config key {key} must be an array, got {value!r}")
        return tuple(_from_json(v, default[0], f"{key}[{i}]") for i, v in enumerate(value))
    for kind, fits, name in _SCALARS:
        if isinstance(default, kind):
            if not isinstance(value, fits) or isinstance(value, bool):
                raise ValueError(f"config key {key} must be {name}, got {value!r}")
            if kind is float and not is_finite(value):
                raise ValueError(f"config key {key} must be a finite number, got {value!r}")
            break
    return value
