"""The JSON form of every run config, in one place.

Run configs (``RunConfig``, ``FleetConfig``, ``FlowGuardPolicy``,
``RetryPolicy``, ``FaultSite``, ``FaultPlan``, ``SLObjective``,
``SLOConfig``, ``LoadScenario``, ``TenantSpec``, ``ServeConfig``) are
dataclasses that inherit :class:`JsonConfig`.  Their JSON form follows
from their fields and type hints:

- :func:`to_dict` writes every field in declaration order: enums as
  their values, tuples as lists, frozensets as sorted lists, nested
  configs through their own ``to_dict``;
- :func:`from_dict` rejects unknown keys (``unknown <Class> keys: a,
  b``), decodes ``Optional``, enums, tuples, lists, frozensets and
  nested configs (a value already decoded is kept), widens a JSON
  integer given for a ``float`` field, and runs the class's
  ``validate()`` where it has one.

A class overrides ``to_dict``/``from_dict`` only where its document
really differs (``FaultSite``/``FaultPlan`` leave out what is unset,
``ServeConfig`` versions its document).  A file or name that
:func:`load` or :func:`resolve` rejects raises :class:`ConfigError`.
"""

from __future__ import annotations

import functools
import json
import os
import typing
from dataclasses import fields
from enum import Enum


class ConfigError(ValueError):
    """A config file or builtin name that cannot be loaded."""


class JsonConfig:
    """Base of the run configs: the JSON form this module defines."""

    def to_dict(self) -> dict:
        return to_dict(self)

    @classmethod
    def from_dict(cls, data: dict):
        return from_dict(cls, data)

    @classmethod
    def load(cls, path):
        return load(cls, path)


@functools.lru_cache(maxsize=None)
def _field_hints(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _encode(value):
    if isinstance(value, JsonConfig):
        return value.to_dict()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if isinstance(value, frozenset):
        return sorted(_encode(item) for item in value)
    return value


def _decode(hint, value):
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is typing.Union:  # Optional[X]
        (inner,) = [arg for arg in args if arg is not type(None)]
        return None if value is None else _decode(inner, value)
    if origin in (tuple, list, frozenset):
        return origin(_decode(args[0], item) for item in value)
    if not isinstance(hint, type) or isinstance(value, hint):
        return value
    if issubclass(hint, JsonConfig):
        return hint.from_dict(value)
    if issubclass(hint, Enum):
        return hint(value)
    if hint is float and type(value) is int:
        return float(value)
    return value


def to_dict(obj) -> dict:
    """``obj``'s JSON-ready form: one key per field, in field order."""
    return {f.name: _encode(getattr(obj, f.name)) for f in fields(obj)}


def from_dict(cls, data: dict):
    """A validated ``cls`` from its JSON form; unknown keys raise
    ``ValueError`` naming them."""
    if not isinstance(data, dict):
        raise ValueError(f"a {cls.__name__} is a JSON object, "
                         f"not {type(data).__name__}")
    hints = _field_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} keys: {', '.join(sorted(unknown))}"
        )
    obj = cls(**{key: _decode(hints[key], value)
                 for key, value in data.items()})
    validate = getattr(obj, "validate", None)
    if validate is not None:
        validate()
    return obj


def load(cls, path):
    """A ``cls`` read from the JSON file at ``path``; a file that cannot
    be read, parsed or decoded raises :class:`ConfigError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
    except (AttributeError, OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def resolve(ref: str, builtins: dict, cls, noun: str):
    """A ``cls`` from a name in ``builtins`` (name -> factory) or a
    JSON file path; ``noun`` names the kind of config in the error."""
    if ref in builtins:
        config = builtins[ref]()
        config.validate()
        return config
    if os.path.exists(ref):
        return load(cls, ref)
    raise ConfigError(
        f"no such {noun}: {ref!r} is neither a builtin "
        f"({', '.join(sorted(builtins))}) nor a file"
    )
