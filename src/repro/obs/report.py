"""Human-readable reports over a recorded trace.

The ``python -m repro trace`` CLI prints two sections built here
(followed by a cProfile table of the run, see ``repro.__main__``):

* :func:`render_timeline` — the CFP/CP alternation reconstructed from
  the ``cfp`` trace category: one line per contention-free period
  (start, duration, polls/re-polls/responses/nulls) and the contention
  gap that followed it — the per-frame timeline view the 802.11e
  evaluation literature explains MAC behaviour with;
* :func:`render_category_counts` — buffered event counts per category.
"""

from __future__ import annotations

import typing

from .trace import TraceRecorder

__all__ = [
    "cfp_timeline",
    "render_timeline",
    "render_category_counts",
]


def cfp_timeline(recorder: TraceRecorder) -> list[dict[str, typing.Any]]:
    """Reconstruct per-CFP summaries from the ``cfp`` event stream.

    Returns one dict per completed CFP observed in the buffer:
    ``{"start", "end", "duration", "polls", "repolls", "polls_lost",
    "responses", "nulls", "cp_after"}`` — ``cp_after`` is the
    contention-period gap to the next CFP (None for the last one).
    """
    cfps: list[dict[str, typing.Any]] = []
    current: dict[str, typing.Any] | None = None
    for t, _seq, _cat, ev, fields in recorder.events("cfp"):
        if ev == "start":
            current = {
                "start": t,
                "end": None,
                "duration": None,
                "polls": 0,
                "repolls": 0,
                "polls_lost": 0,
                "responses": 0,
                "nulls": 0,
                "cp_after": None,
            }
        elif current is not None:
            if ev == "poll":
                current["polls"] += 1
            elif ev == "repoll":
                current["repolls"] += 1
            elif ev == "poll_lost":
                current["polls_lost"] += 1
            elif ev == "response":
                current["responses"] += 1
            elif ev == "null":
                current["nulls"] += 1
            elif ev == "end":
                current["end"] = t
                current["duration"] = fields.get("duration", t - current["start"])
                cfps.append(current)
                current = None
    for prev, nxt in zip(cfps, cfps[1:]):
        prev["cp_after"] = nxt["start"] - prev["end"]
    return cfps


def render_timeline(recorder: TraceRecorder, limit: int = 40) -> str:
    """Text CFP/CP timeline (at most ``limit`` CFP lines, tail elided)."""
    cfps = cfp_timeline(recorder)
    if not cfps:
        return "timeline: no completed CFPs in the trace buffer"
    lines = [f"CFP/CP timeline ({len(cfps)} contention-free periods):"]
    shown = cfps if len(cfps) <= limit else cfps[:limit]
    for i, c in enumerate(shown, start=1):
        line = (
            f"  CFP #{i:<4d} [{c['start']:.6f} .. {c['end']:.6f}] "
            f"dur={c['duration'] * 1000:7.3f} ms  "
            f"polls={c['polls']:<3d} responses={c['responses']:<3d} "
            f"nulls={c['nulls']:<3d}"
        )
        if c["repolls"] or c["polls_lost"]:
            line += f" repolls={c['repolls']} lost={c['polls_lost']}"
        lines.append(line)
        if c["cp_after"] is not None:
            lines.append(
                f"       CP    gap {c['cp_after'] * 1000:9.3f} ms (contention)"
            )
    if len(cfps) > limit:
        lines.append(f"  ... {len(cfps) - limit} more CFPs elided")
    total_cfp = sum(c["duration"] for c in cfps)
    span = cfps[-1]["end"] - cfps[0]["start"]
    if span > 0:
        lines.append(
            f"  totals: {total_cfp * 1000:.1f} ms contention-free over a "
            f"{span * 1000:.1f} ms span ({total_cfp / span:.0%} CFP share)"
        )
    return "\n".join(lines)


def render_category_counts(recorder: TraceRecorder) -> str:
    """Buffered/emitted/dropped event counts, per category."""
    counts = recorder.counts_by_category()
    lines = [
        f"trace: {recorder.emitted} events emitted, "
        f"{len(recorder)} buffered, {recorder.dropped} evicted"
    ]
    for cat in sorted(counts):
        lines.append(f"  {cat:<10s} {counts[cat]}")
    return "\n".join(lines)
