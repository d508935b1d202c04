"""Shared key = value text grammar for potential files and experiment configs.

One ``key = value`` pair per line and each key once; ``#`` lines and blank
lines are ignored.  Errors carry the origin and 1-based line number.
"""

from __future__ import annotations

__all__ = ["ConfigError", "parse_kv_lines"]


class ConfigError(ValueError):
    """Malformed configuration or potential text."""


def parse_kv_lines(text: str, origin: str = "<string>"):
    """Return a list of (lineno, key, value) entries from key = value text."""
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{origin}:{lineno}: empty key")
        if not value:
            raise ConfigError(f"{origin}:{lineno}: empty value for key {key!r}")
        if key in entries:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        entries[key] = (lineno, key, value)
    return list(entries.values())
