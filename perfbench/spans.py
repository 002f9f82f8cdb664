"""Turn the launcher's per-process span dumps into the per-layer table.

A *lane* is one thread of one program process. At any instant a lane is
in its innermost open span (its *self* span) or in none. The wall clock of
a traced run is shared out instant by instant:

* among the lanes whose self span is work, equally;
* when no lane works, among the lanes waiting in an idle span (a poll
  sleep), equally;
* when no lane is in any span, to ``unattributed``.

So the rows always add up to the wall clock exactly, two workers busy at
once each get half of those instants, and a coordinator sleeping while the
workers compute gets none of them.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

UNATTRIBUTED = "unattributed"


def _self_segments(spans: Sequence[list]) -> List[Tuple[float, float, str]]:
    """Disjoint ``(start, end, name)`` pieces where each span is innermost.

    ``spans`` belong to one lane, so they nest: a span's self time is its
    interval minus its children's intervals.
    """
    children: Dict[int, List[list]] = defaultdict(list)
    ids = {span[0] for span in spans}
    for span in spans:
        parent = span[4] if span[4] in ids else 0
        children[parent].append(span)
    segments: List[Tuple[float, float, str]] = []
    for span in spans:
        cursor, end = span[2], span[3]
        for child in sorted(children.get(span[0], ()), key=lambda s: s[2]):
            if child[2] > cursor:
                segments.append((cursor, min(child[2], end), span[1]))
            cursor = max(cursor, child[3])
        if end > cursor:
            segments.append((cursor, end, span[1]))
    segments.sort()
    return segments


def lanes(documents: Iterable[dict]) -> List[List[Tuple[float, float, str]]]:
    """Self segments of every (process, thread) lane of the traced run."""
    grouped: Dict[Tuple[int, int], List[list]] = defaultdict(list)
    for document in documents:
        for span in document["spans"]:
            if span[3] >= span[2]:  # a request cut off at shutdown never closed
                grouped[(document["pid"], span[5])].append(span)
    return [_self_segments(spans) for spans in grouped.values()]


def attribute(
    lane_segments: Sequence[Sequence[Tuple[float, float, str]]],
    start: float,
    end: float,
    idle: frozenset,
) -> Dict[str, float]:
    """Share ``[start, end]`` among span names (see the module docstring)."""
    events: List[Tuple[float, int, int, str]] = []
    for lane, segments in enumerate(lane_segments):
        for seg_start, seg_end, name in segments:
            lo, hi = max(seg_start, start), min(seg_end, end)
            if hi > lo:
                events.append((lo, 1, lane, name))
                events.append((hi, 0, lane, name))
    heapq.heapify(events)
    current: Dict[int, str] = {}
    shares: Dict[str, float] = defaultdict(float)
    cursor = start
    while events:
        moment = events[0][0]
        if moment > cursor:
            _share(shares, current, moment - cursor, idle)
            cursor = moment
        while events and events[0][0] == moment:
            _, opening, lane, name = heapq.heappop(events)
            if opening:
                current[lane] = name
            elif current.get(lane) == name:
                del current[lane]
    if end > cursor:
        _share(shares, current, end - cursor, idle)
    return dict(shares)


def _share(shares: Dict[str, float], current: Dict[int, str], span: float, idle) -> None:
    working = [name for name in current.values() if name not in idle]
    names = working or list(current.values())
    if not names:
        shares[UNATTRIBUTED] += span
        return
    for name in names:
        shares[name] += span / len(names)


def busy(documents: Iterable[dict]) -> Dict[str, float]:
    """Summed self time per span name over every lane (not wall-shared)."""
    totals: Dict[str, float] = defaultdict(float)
    for segments in lanes(documents):
        for seg_start, seg_end, name in segments:
            totals[name] += seg_end - seg_start
    return dict(totals)


def durations(documents: Iterable[dict], name: str,
              window: Tuple[float, float] = (float("-inf"), float("inf"))) -> List[float]:
    """Full (not self) durations of the ``name`` spans that start in ``window``."""
    return [
        span[3] - span[2]
        for document in documents
        for span in document["spans"]
        if span[1] == name and span[3] >= span[2] and window[0] <= span[2] <= window[1]
    ]


def counters(documents: Iterable[dict]) -> Dict[str, float]:
    """Counters summed over processes."""
    totals: Dict[str, float] = defaultdict(float)
    for document in documents:
        for key, value in document["counters"].items():
            totals[key] += value
        for key, value in document.get("store_stats", {}).items():
            totals[f"store.{key}"] += value
    return dict(totals)
