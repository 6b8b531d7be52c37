"""The one binding rule every config table passes: run settings, study
options and preset options alike, each key a parameter of the callable the
table configures and each value typed like the default it replaces."""

from __future__ import annotations

import inspect

_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


class ConfigError(ValueError):
    pass


def typed(value, name, kind):
    """``value`` read as ``kind`` (bool, int, float or str), or a ConfigError
    naming the field.  A float is any number but NaN and an int a number with
    no fractional part (16.0 reads as 16); neither takes a boolean or a
    string."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float and number and value == value:
        return float(value)
    if kind is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if kind in (bool, str) and isinstance(value, kind):
        return value
    raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")


def like(value, name, default):
    """``value`` typed like the ``default`` it replaces: a list of numbers for
    a tuple default, null or a number for a None default, and a value of the
    default's own kind otherwise."""
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
        return tuple(typed(v, name, float) for v in value)
    if default is None:
        return None if value is None else typed(value, name, float)
    return typed(value, name, type(default))


def require(table, names, where):
    """A ConfigError naming ``where`` and the missing keys unless ``table``
    has every key in ``names``."""
    missing = [k for k in names if k not in table]
    if missing:
        raise ConfigError(f"missing required field(s) in {where}: {', '.join(missing)}")


def bind(fn, table, where, skip=0, required=()):
    """The keyword arguments ``table`` gives ``fn``, a function or a
    dataclass: every key one of its parameters after the first ``skip``,
    every parameter without a default and every name in ``required`` given,
    and each value typed ``like`` its default (a required one like a
    number).  Anything else is a ConfigError naming ``where``."""
    params = list(inspect.signature(fn).parameters.values())[skip:]
    defaults = {p.name: 0.0 if p.default is p.empty else p.default for p in params}
    unknown = sorted(set(table) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown field(s) in {where}: {', '.join(unknown)}")
    require(table, [p.name for p in params if p.default is p.empty or p.name in required], where)
    return {k: like(v, f"{where}.{k}", defaults[k]) for k, v in table.items()}
