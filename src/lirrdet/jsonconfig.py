"""Build config dataclasses from parsed JSON, checking every key and value.

A field's default decides what JSON fits it: an object fills a nested
dataclass, an array fills a tuple (element by element, against the
default's first element), a string fills a string or string enum, and a
number fills a number field. A bool is not a number, null fits nothing,
``NaN``, ``Infinity`` (which Python's JSON parser reads) and an integer no
float can hold fit no number field, and an int field takes only a JSON
integer. Errors are ``ValueError``
naming the dotted key, such as ``scene.foo`` or ``steps``.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, fields, is_dataclass


# scalar field default -> the JSON values that fit it, and their name
_SCALARS = ((bool, bool, "a boolean"), (str, str, "a string"),
            (float, (int, float), "a number"), (int, int, "an integer"))


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
            if not isinstance(value, fits) or isinstance(value, bool) != (kind is bool):
                raise ValueError(f"config key {key} must be {name}, got {value!r}")
            if kind is float and not abs(value) <= sys.float_info.max:  # NaN, inf, 10**400
                raise ValueError(f"config key {key} must be a finite number, got {value!r}")
            break
    return value
