"""Exception hierarchy shared across the package, `check_fields` and `field_parser`.

Every error raised on a user-facing path derives from :class:`QlamError`
so the CLI can map failures to categorized exit messages.  Every config
dataclass runs `check_fields` first in ``__post_init__``, so a config is
checked at construction and on every ``dataclasses.replace``.
"""

import numbers
import os
from dataclasses import fields

# config field annotation (without "| None") -> accepted value types
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": (str, os.PathLike)}


class QlamError(Exception):
    """Base class for all package-specific errors."""

    category = "error"


class ConfigError(QlamError, ValueError):
    """Invalid configuration value (qubit counts, shot settings, sizes)."""

    category = "config"


class ShapeError(QlamError, ValueError):
    """Mismatched array lengths or qubit counts."""

    category = "shape"


class NumericError(QlamError, ArithmeticError):
    """Non-finite value where a finite one is required."""

    category = "numeric"


class ValidationError(QlamError, ValueError):
    """Input data outside its documented domain (e.g. tokens not in [0, 1])."""

    category = "validation"


class ParseError(QlamError, ValueError):
    """Malformed dataset file. ``offset`` is the byte position of the defect."""

    category = "parse"

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class DataError(QlamError, ValueError):
    """Dataset files missing or inconsistent with each other."""

    category = "data"


def check_fields(config) -> None:
    """Check each field of a frozen config dataclass against its annotation,
    int, float or str (or a path object), optionally ``| None``, and
    store numbers back as plain Python ints and floats; a bool is none of
    these.  An int field in the config's ``RANGES``, a dict of name ->
    (least, most) where None leaves an end open, must then lie in it."""
    for f in fields(config):
        kind, _, optional = f.type.partition(" | ")
        value = getattr(config, f.name)
        if value is None and optional:
            continue
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind]):
            raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if kind in ("int", "float"):
            value = int(value) if kind == "int" else float(value)
            object.__setattr__(config, f.name, value)
        least, most = config.RANGES.get(f.name, (None, None))
        if least is not None and value < least:
            raise ConfigError(f"{f.name} must be >= {least}, got {value}")
        if most is not None and value > most:
            raise ConfigError(f"{f.name} must be <= {most}, got {value}")


def field_parser(f) -> type:
    """The parser of a dataclass field's text form, a CLI flag's or a CSV
    column's, by its annotation: int, float or str, optionally ``| None``."""
    return {"int": int, "float": float, "str": str}[f.type.partition(" | ")[0]]
