"""The one reader for JSON configs.

Every subcommand's config passes through these helpers before any work
starts. They check shape and type only: a section is a JSON object holding
no unknown key, a number is finite, a count is integral, a flag is a JSON
bool. Ranges stay with the dataclasses that own them. Every failure raises
``ConfigError``, a ``ValueError``, naming the offending key.
"""

from __future__ import annotations

import math


# The most hosts, expected arrivals, timeline samples, data rates or
# lognormal quantiles one config may ask for: three times the 331,785-host
# snapshot. A finite but huge count would otherwise run out of memory.
MAX_COUNT = 1_000_000


class ConfigError(ValueError):
    """A config value has the wrong shape or type, or is unknown."""


def within_limit(n: float, what: str, limit: int = MAX_COUNT) -> None:
    """Reject a count above ``limit`` before anything is allocated for it."""
    if n > limit:
        raise ConfigError(f"{what} of {n:.6g} exceeds the limit of {limit}")


def section(value, where: str, allowed) -> dict:
    """``value`` as a JSON object whose keys all lie in ``allowed``.

    ``where`` names one key of the section, as in "unknown task option";
    ``allowed=None`` accepts any key.
    """
    if not isinstance(value, dict):
        raise ConfigError(f"expected a JSON object of {where}s, got {value!r}")
    if allowed is not None:
        unknown = sorted(set(value) - set(allowed))
        if unknown:
            raise ConfigError(f"unknown {where}: {unknown[0]!r}")
    return value


def real(value, what: str) -> float:
    """``value`` as a finite float; JSON bools are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return out


def number(sec: dict, key: str, default, where: str) -> float:
    """Finite number under ``key``; ``default=None`` makes the key required."""
    if key not in sec:
        if default is None:
            raise ConfigError(f"{where} {key!r} is required")
        return float(default)
    return real(sec[key], f"{where} {key!r}")


def count(sec: dict, key: str, default: int, where: str) -> int:
    """Integral number under ``key``."""
    value = sec.get(key, default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{where} {key!r} must be an integer, got {value!r}")


def flag(sec: dict, key: str, where: str) -> bool:
    """JSON bool under ``key``, false when absent."""
    value = sec.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{where} {key!r} must be true or false, got {value!r}")
    return value
