"""Flat experiment configuration files.

Format: UTF-8 text, one `key = value` per line, `#` comments, optional
`[section]` headers for visual grouping only (keys are global and must be
unique).  No nesting; values are parsed as int, float, or string (no setting
is a flag, so there is no bool literal).
"""

from __future__ import annotations

from .errors import ConfigError


def parse_value(text: str):
    t = text.strip()
    for kind in (int, float):
        try:
            return kind(t)
        except ValueError:
            pass
    return t


def parse_config(text: str) -> dict:
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = parse_value(val)
    return out


def render_config(cfg: dict, header: str | None = None) -> str:
    """One `key = value` line per key, sorted, a float in its repr, after a `# header`."""
    lines = ([f"# {header}"] if header else []) + [
        f"{key} = {repr(v) if isinstance(v, float) else v}" for key, v in sorted(cfg.items())]
    return "\n".join(lines) + "\n"
