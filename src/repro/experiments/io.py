"""Result persistence: JSON-lines archives of sweep outputs.

Sweeps are minutes-long; archiving their rows lets figure projections,
notebooks and regression comparisons re-run instantly.  The format is
one JSON object per line plus a manifest header line (format version,
package version), so archives stay diff-able.
"""

from __future__ import annotations

import json
import pathlib
import typing

from ..obs.jsonutil import unwrap_scalar

__all__ = ["save_results", "load_results"]

_FORMAT = 1


def save_results(
    rows: typing.Sequence[dict],
    path: str | pathlib.Path,
) -> pathlib.Path:
    """Write sweep rows to a JSON-lines archive; returns the path."""
    from .. import __version__

    p = pathlib.Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w") as fh:
        fh.write(
            json.dumps(
                {"_manifest": True, "format": _FORMAT, "repro": __version__}
            )
            + "\n"
        )
        for row in rows:
            fh.write(json.dumps(row, default=unwrap_scalar) + "\n")
    return p


def load_results(path: str | pathlib.Path) -> list[dict]:
    """Read a JSON-lines archive back into sweep rows.

    Raises ``ValueError`` unless the first line is the manifest of a
    supported format (an empty file holds no rows).
    """
    p = pathlib.Path(path)
    rows: list[dict] = []
    with p.open() as fh:
        first = fh.readline()
        if not first:
            return rows
        header = json.loads(first)
        if not isinstance(header, dict) or not header.get("_manifest"):
            raise ValueError(f"{p}: first line is not a manifest")
        if header.get("format") != _FORMAT:
            raise ValueError(
                f"unsupported archive format {header.get('format')!r}"
            )
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows
