"""Exporters (and inverse parsers) for causal traces.

Three formats over :class:`~repro.obs.trace.Span` trees:

- **Chrome trace events** — ``"X"`` (complete) slices per span plus
  instant events for span events; loads in ``chrome://tracing`` /
  Perfetto. :func:`validate_chrome_trace` checks the event-format
  schema invariants the viewers rely on.
- **Collapsed stacks** — Brendan Gregg's ``frame;frame;frame weight``
  text, weighted by simulated cycles (or microseconds), which
  speedscope and flamegraph.pl both import directly: a sim-time
  flamegraph of where cycles went. Lossy by design (aggregation);
  :func:`parse_collapsed` inverts the aggregation text itself.
- **JSONL** — one span per line, lossless; the archival format.
  :func:`parse_spans_jsonl` inverts :func:`spans_to_jsonl` exactly,
  including non-ASCII attribute values (escaped with ``ensure_ascii``
  so the files survive any transport encoding).

Every exporter takes a tracer or a plain span list, so archived traces
re-export without re-running anything.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.trace import CATEGORIES, Span, Tracer

Spans = List[Span]
Source = Union[Tracer, Iterable[Span]]

# Chrome trace-event phases this exporter emits (and the validator
# accepts): complete slices, instants, and metadata.
_CHROME_PHASES = {"X", "i", "M"}


def _spans(source: Source) -> Spans:
    if isinstance(source, Tracer):
        return list(source.spans)
    return list(source)


# -- Chrome trace events -----------------------------------------------------


def chrome_instant(name: str, time_us: float, tid: int, args: Optional[Dict] = None) -> Dict:
    """One Chrome trace-event-format instant event dict."""
    entry: Dict[str, Any] = {
        "name": name,
        "ph": "i",
        "ts": time_us,
        "pid": 0,
        "tid": tid,
        "s": "t",
    }
    if args:
        entry["args"] = args
    return entry


def chrome_slice(
    name: str, start_us: float, dur_us: float, tid: int, args: Optional[Dict] = None
) -> Dict:
    """One Chrome trace-event-format complete-slice event dict."""
    entry: Dict[str, Any] = {
        "name": name,
        "ph": "X",
        "ts": start_us,
        "dur": dur_us,
        "pid": 0,
        "tid": tid,
    }
    if args:
        entry["args"] = args
    return entry


def to_chrome_trace(source: Source) -> Dict[str, Any]:
    """The trace in Chrome trace-event JSON form (as a dict).

    Each span becomes a complete slice on a per-trace track
    (``tid`` = trace id), carrying its attributes and cycle breakdown
    in ``args``; span events become instants on the same track.
    Timestamps are microseconds, as the format requires.
    """
    events: List[Dict[str, Any]] = []
    for span in _spans(source):
        if span.end is None:
            continue
        args: Dict[str, Any] = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.attributes:
            args.update(span.attributes)
        if span.cycles is not None:
            args["cycles"] = span.cycles
        events.append(
            chrome_slice(
                span.name,
                span.start * 1e6,
                span.duration * 1e6,
                tid=span.trace_id,
                args=args,
            )
        )
        for time, name, attrs in span.events:
            events.append(
                chrome_instant(name, time * 1e6, tid=span.trace_id, args=attrs or None)
            )
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_chrome_trace(source: Source, path: str) -> int:
    """Write Chrome trace-event JSON; returns the number of events."""
    payload = to_chrome_trace(source)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return len(payload["traceEvents"])


def chrome_trace_problems(payload: Any) -> List[str]:
    """Event-format schema violations in a parsed trace (empty = valid).

    Checks the invariants the viewers actually depend on: a
    ``traceEvents`` list; per event a string ``name``, a known ``ph``,
    numeric non-negative ``ts``; slices (``"X"``) need numeric
    non-negative ``dur``; instants need a scope ``s`` of g/p/t.
    """
    if not isinstance(payload, dict):
        return [f"trace must be a JSON object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    problems: List[str] = []
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _CHROME_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing string 'name'")
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            problems.append(f"{where}: bad 'ts' {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur < 0:
                problems.append(f"{where}: bad 'dur' {dur!r}")
        if phase == "i" and event.get("s") not in ("g", "p", "t"):
            problems.append(f"{where}: instant scope must be g/p/t")
    return problems


def validate_chrome_trace(payload: Any) -> Any:
    """Raise ``ValueError`` on schema problems; return the payload."""
    problems = chrome_trace_problems(payload)
    if problems:
        raise ValueError("invalid chrome trace: " + "; ".join(problems))
    return payload


# -- collapsed stacks (speedscope / flamegraph.pl import format) -------------


def _stack_of(span: Span, by_id: Dict[Tuple[int, int], Span]) -> List[str]:
    frames = [span.name]
    seen = {span.span_id}
    current = span
    while current.parent_id is not None:
        parent = by_id.get((current.trace_id, current.parent_id))
        if parent is None or parent.span_id in seen:
            break
        frames.append(parent.name)
        seen.add(parent.span_id)
        current = parent
    frames.reverse()
    return frames


def to_collapsed(source: Source, weight: str = "cycles") -> str:
    """Collapsed-stack text: ``root;child;leaf <weight>`` per line.

    ``weight="cycles"`` expands leaf spans carrying a cycle breakdown
    into one frame per category (the sim-time flamegraph of where
    cycles went); ``weight="us"`` weighs each span by its *self* time in
    microseconds. Identical stacks aggregate by summation, and lines are
    sorted so output is deterministic. Both speedscope (File > Import)
    and flamegraph.pl read this format directly.
    """
    if weight not in ("cycles", "us"):
        raise ValueError(f"unknown weight {weight!r}; use 'cycles' or 'us'")
    spans = [span for span in _spans(source) if span.end is not None]
    by_id = {(span.trace_id, span.span_id): span for span in spans}
    stacks: Dict[str, float] = {}

    def add(frames: List[str], amount: float) -> None:
        if amount > 0:
            key = ";".join(frames)
            stacks[key] = stacks.get(key, 0.0) + amount

    if weight == "cycles":
        for span in spans:
            if span.cycles is None:
                continue
            frames = _stack_of(span, by_id)
            for category in CATEGORIES:
                add(frames + [category], span.cycles.get(category, 0.0))
    else:
        child_time: Dict[Tuple[int, int], float] = {}
        for span in spans:
            if span.parent_id is not None:
                key = (span.trace_id, span.parent_id)
                child_time[key] = child_time.get(key, 0.0) + span.duration
        for span in spans:
            self_time = span.duration - child_time.get(
                (span.trace_id, span.span_id), 0.0
            )
            add(_stack_of(span, by_id), self_time * 1e6)
    lines = [f"{key} {stacks[key]:.6f}" for key in sorted(stacks)]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_collapsed(text: str) -> Dict[Tuple[str, ...], float]:
    """Parse collapsed-stack text back to ``{(frame, ...): weight}``."""
    stacks: Dict[Tuple[str, ...], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        frames_text, _, weight_text = line.rpartition(" ")
        if not frames_text:
            raise ValueError(f"bad collapsed-stack line {line!r}")
        stacks[tuple(frames_text.split(";"))] = float(weight_text)
    return stacks


# -- JSONL -------------------------------------------------------------------


def spans_to_jsonl(source: Source) -> str:
    """One span per line (lossless; inverse: :func:`parse_spans_jsonl`).

    ``ensure_ascii`` keeps non-ASCII attribute values escaped, so the
    byte stream is plain ASCII whatever the attributes contain.
    """
    return "\n".join(
        json.dumps(span.to_dict(), sort_keys=True, ensure_ascii=True)
        for span in _spans(source)
    )


def parse_spans_jsonl(text: str) -> Spans:
    """Inverse of :func:`spans_to_jsonl`."""
    return [
        Span.from_dict(json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]


# -- file convenience --------------------------------------------------------

TRACE_EXPORTERS = {
    "trace.json": lambda source: json.dumps(to_chrome_trace(source)),
    "collapsed": to_collapsed,
    "spans.jsonl": spans_to_jsonl,
}


def write_trace_exports(source: Source, directory: str, stem: str) -> Dict[str, str]:
    """Write ``<stem>.{trace.json,collapsed,spans.jsonl}`` under ``directory``.

    Returns ``{suffix: path}``. Spans are snapshotted once so the three
    files describe the same instant.
    """
    import os

    spans = _spans(source)
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for suffix, exporter in TRACE_EXPORTERS.items():
        path = os.path.join(directory, f"{stem}.{suffix}")
        with open(path, "w") as handle:
            handle.write(exporter(spans))
        paths[suffix] = path
    return paths
