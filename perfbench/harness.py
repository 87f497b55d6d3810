"""Span tracing, host-speed probes, latency statistics and outcome digests
for the repthresh benchmark.  Nothing here imports repthresh: the tracer
wraps whatever callables it is handed, so the arithmetic can be tested on
its own."""

from __future__ import annotations

import hashlib
import json
import signal
import statistics
from bisect import bisect_right
from collections import defaultdict
from time import perf_counter

# Candidate tail percentiles, highest first.  The reported tail is the
# highest one that leaves at least TAIL_MIN_BEYOND samples above its rank
# in two rounds of a workload's task list; a run plays a second round when
# one alone leaves fewer.  So the percentile is a property of the workload,
# not of how many rounds the host's speed let a run play.
TAIL_PERCENTILES = (95.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
# A percentile of one round is the mean of the order statistics within
# RANK_WINDOW ranks of its nearest rank: a single short task's time varies
# by a tenth or more from run to run, and seven neighbours damp that.
RANK_WINDOW = 3


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of the pct-th percentile of n samples, in exact
    integer arithmetic (pct has at most one decimal)."""
    return max(1, -(-round(pct * 10) * n // 1000))


def window_rank(values: list[float], pct: float) -> float:
    """Mean of the sorted values within RANK_WINDOW ranks of the nearest
    rank of pct (fewer at the ends).  The nearest rank is that of the
    smallest value with at least pct% of the samples at or below it."""
    ordered = sorted(values)
    r = _rank(len(ordered), pct) - 1
    return statistics.fmean(ordered[max(0, r - RANK_WINDOW): r + RANK_WINDOW + 1])


def tail_plan(tasks_per_round: int) -> tuple[float, int]:
    """(tail percentile, rounds a run must play) for a task list."""
    pct = tail_percentile(2 * tasks_per_round)
    n = tasks_per_round
    return pct, 1 if n - _rank(n, pct) >= TAIL_MIN_BEYOND else 2


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with TAIL_MIN_BEYOND samples beyond its
    nearest rank; 100 (the maximum) when n is too small for any."""
    for pct in TAIL_PERCENTILES:
        if n - _rank(n, pct) >= TAIL_MIN_BEYOND:
            return pct
    return 100.0


def latency_summary(rounds: list[list[float]], tail_pct: float) -> dict:
    """Median and tail (at tail_pct) of task latencies in milliseconds.
    Both are taken within each round (window_rank) and the median over
    rounds is reported; every round plays the same task list, so a
    percentile falls on the same tasks in each round."""
    n = sum(len(r) for r in rounds)
    return {
        "tasks": n,
        "rounds": len(rounds),
        "p50_ms": statistics.median(window_rank(r, 50.0) for r in rounds) * 1000.0,
        "tail_pct": tail_pct,
        "tail_ms": statistics.median(window_rank(r, tail_pct) for r in rounds) * 1000.0,
        "tail_beyond": n - _rank(n, tail_pct),
    }


# ---------------------------------------------------------------------------
# Host speed.  On a shared host the same work can take up to 1.75x longer,
# for seconds to minutes at a time.  A fixed probe, run every PROBE_PERIOD_S from a timer
# signal (so also in the middle of a long task), measures the host's speed
# as it goes; a task's time is rescaled moment by moment to a reference host
# on which the probe takes REF_PROBE_S, and probe time is left out.

PROBE_PERIOD_S = 0.1
REF_PROBE_S = 0.0025  # a definition, not a measurement: the reference host
PROBE_SMOOTHING = 4  # a probe's speed is the median of it and 4 neighbours each side

_PROBE_LETTERS = tuple((i * i + 3 * i) % 7 % 3 for i in range(600))
_PROBE_INT = int.from_bytes(bytes(range(256)) * 64, "little")


def probe_work() -> int:
    """The probe: fixed work of the kinds the program does -- letter
    comparisons in interpreted loops, small tuples, a big-integer XOR and
    byte searches.  Returns a checksum so that the work is used."""
    w = _PROBE_LETTERS
    n = len(w)
    found = []
    for p in range(1, 81):
        run = 0
        for i in range(n - p):
            if w[i] == w[i + p]:
                run += 1
                if run == p:
                    found.append((i, p))
            else:
                run = 0
    x = _PROBE_INT ^ (_PROBE_INT >> 7)
    b = x.to_bytes((x.bit_length() + 7) // 8, "little")
    return len(found) + b.count(b"\x00") + b.find(b"\xff\xff")


class Probes:
    """Host-speed probes of one phase of a run.  `probe()` runs one now;
    between `start()` and `stop()` one also runs from SIGALRM every
    PROBE_PERIOD_S, between bytecodes of whatever the main thread is doing.
    `intervals` holds their (start, end) in order."""

    def __init__(self) -> None:
        self.intervals: list[tuple[float, float]] = []
        self._busy = False
        self._saved = None

    def probe(self) -> None:
        if self._busy:  # the timer fired during a probe
            return
        self._busy = True
        try:
            t0 = perf_counter()
            probe_work()
            self.intervals.append((t0, perf_counter()))
        finally:
            self._busy = False

    def start(self) -> None:
        self._saved = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)


class HostClock:
    """Turns wall intervals into work time at reference speed, from probe
    intervals (sorted, disjoint).  A moment is weighted by the speed of the
    last probe that started before it (the first probe, for moments before
    any), and moments inside a probe do not count."""

    def __init__(self, probes: list[tuple[float, float]]) -> None:
        if not probes:
            raise ValueError("no host-speed probe ran")
        self.starts = [a for a, _ in probes]
        self.ends = [b for _, b in probes]
        d = [b - a for a, b in probes]
        k = PROBE_SMOOTHING
        self.probe_s = [statistics.median(d[max(0, i - k): i + k + 1]) for i in range(len(d))]

    def work_time(self, a: float, b: float, scaled: bool = True) -> float:
        """Seconds of [a, b] outside probes; rescaled to the reference
        host unless scaled is False."""
        n = len(self.starts)
        i = bisect_right(self.starts, a) - 1
        t, total = a, 0.0
        while t < b:
            if i >= 0:
                t = max(t, self.ends[i])
            nxt = self.starts[i + 1] if i + 1 < n else b
            end = min(b, nxt)
            if end > t:
                total += (end - t) * (REF_PROBE_S / self.probe_s[max(i, 0)] if scaled else 1.0)
                t = end
            i += 1
        return total


def digest(obj) -> str:
    """sha256 of the canonical JSON text of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def spread_summary(values: list[float]) -> dict:
    """Count, median, quartiles and extremes of values."""
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "min": min(values), "q1": q1, "median": q2, "q3": q3, "max": max(values)}


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class Span:
    __slots__ = ("name", "parent", "task", "start", "end", "info", "agg")

    def __init__(self, name: str, parent: int | None, task, start: float, end: float = 0.0):
        self.name = name
        self.parent = parent
        self.task = task
        self.start = start
        self.end = end
        self.info: dict = {}
        # name -> {"calls": n, "time": s, ...}: children folded into counts
        self.agg: dict[str, dict] = {}

    def to_jsonable(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.task, self.info, self.agg]


class Tracer:
    """In-memory span recorder for one process and one thread.

    `wrap` records one span per call, nested under the innermost open span.
    `wrap_aggregated` is for hot callees: it adds a call count and a total
    time to the open parent span instead of recording a span per call.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.task = None
        self._open: list[int] = []

    def wrap(self, name, fn, info=None):
        """name is a string or a function of the call's positional args;
        info(args, result) returns numbers stored on the span."""

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            parent = self._open[-1] if self._open else None
            idx = len(self.spans)
            span = Span(label, parent, self.task, 0.0)
            self.spans.append(span)
            self._open.append(idx)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
            if info is not None:
                span.info = info(args, result)
            return result

        return traced

    def wrap_aggregated(self, name: str, fn, info=None):
        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
            extra = {} if info is None else info(args, result)
            if not self._open:
                # no parent to fold into: record an ordinary span
                span = Span(name, None, self.task, t0, t1)
                span.info = extra
                self.spans.append(span)
                return result
            slot = self.spans[self._open[-1]].agg.setdefault(name, {"calls": 0, "time": 0.0})
            slot["calls"] += 1
            slot["time"] += t1 - t0
            for key, value in extra.items():
                slot[key] = slot.get(key, 0) + value
            return result

        return traced


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part covered by its child spans and
    minus the time of its aggregated children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        folded = sum(a["time"] for a in s.agg.values())
        out.append(s.end - s.start - covered_length(children[i], s.start, s.end) - folded)
    return out


def layer_totals(span_lists: list[list[Span]]) -> dict[str, dict]:
    """Per layer name over several self-contained span lists: busy (self)
    seconds, calls, the largest single call (its whole span) and the sums
    of every numeric info field."""
    totals: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    pairs = ((s, own) for spans in span_lists for s, own in zip(spans, self_times(spans)))
    for s, own in pairs:
        t = totals[s.name]
        t["busy_s"] += own
        t["calls"] += 1
        t["max_call_s"] = max(t["max_call_s"], s.end - s.start)
        for key, value in s.info.items():
            t[key] += value
        for name, slot in s.agg.items():
            t = totals[name]
            t["busy_s"] += slot["time"]
            t["calls"] += slot["calls"]
            for key, value in slot.items():
                if key not in ("calls", "time"):
                    t[key] += value
    return {name: dict(t) for name, t in totals.items()}
