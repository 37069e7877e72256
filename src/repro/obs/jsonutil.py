"""Shared JSON helpers: type coercion and the one report writer.

Both the execution subsystem's canonical hashing
(:mod:`repro.exec.hashing`) and the trace exporter
(:mod:`repro.obs.trace`) must turn numpy scalars and tuples into plain
JSON types before serializing, and the validate, chaos, ESS, bench and
redteam reports and the reproducer fixtures are all written by
:func:`write_json`.  The helpers live here, in ``obs`` — the lowest
observability layer — so ``exec`` can import them without ``obs``
ever importing upward.
"""

from __future__ import annotations

import json
import pathlib
import typing

__all__ = ["jsonable", "write_json"]


def jsonable(value: typing.Any) -> typing.Any:
    """Coerce numpy scalars and tuples into plain JSON types.

    Dicts and lists are rebuilt recursively, tuples become lists, and
    anything exposing ``.item()`` (numpy scalars) is unwrapped.  Plain
    JSON values pass through unchanged.
    """
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


def write_json(path: str | pathlib.Path, payload: typing.Any) -> pathlib.Path:
    """Write indent-2, key-sorted JSON plus a newline, creating parents."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path
