"""repthresh benchmark: one seeded, single-process, closed-loop workload.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program under test is imported from
./src.  Each run plans a fixed task list from the seed, then plays it in
rounds (one client, each task starts when the previous one ends) until the
next round would overrun --seconds; every run plays at least one round, and
two when the tail percentile needs them (harness.tail_plan).  Outputs are
checked outside the timed sections.  End-to-end times are rescaled to a
reference host speed, measured by probes that run during the untraced
rounds (harness.HostClock); the record also keeps them as read.  With
--trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of traced rounds, which
alternate with untraced rounds so that the tracing overhead is measured in
the same run.  A full record with machine and provenance fields is written
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"
SRC = ROOT / "src"

DEFAULT_SEED = 0  # the seed whose outcome digests are frozen in digests.json
SETUP_LAUNCHES = 9
SETUP_CODE = "import repthresh, repthresh.cli"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "ops_ok_ratio": "ratio",
    "proof_coverage": "ratio",
}

PER_LAYER_UNITS = {
    "words.busy_s": "s",
    "words.calls": "count",
    "construct.busy_s": "s",
    "construct.calls": "count",
    "detect.bytes.busy_s": "s",
    "detect.bytes.pairs_per_s": "1/s",
    "detect.generic.busy_s": "s",
    "detect.generic.pairs_per_s": "1/s",
    "detect.naive.busy_s": "s",
    "detect.naive.calls": "count",
    "detect.naive.pairs_per_s": "1/s",
    "search.busy_s": "s",
    "search.calls": "count",
    "search.nodes": "count",
    "search.reached.nodes_per_s": "1/s",
    "search.exhausted.nodes_per_s": "1/s",
    "search.yield": "ratio",
    "verify.busy_s": "s",
    "verify.calls": "count",
    "verify.max_call_s": "s",
    "verify.reproved": "count",
    "verify.unverified": "count",
    "sampler.busy_s": "s",
    "sampler.calls": "count",
    "sampler.resamples": "count",
    "sampler.converged": "count",
    "sampler.short.resamples_per_s": "1/s",
    "sampler.long.resamples_per_s": "1/s",
    "cli.busy_s": "s",
    "cli.calls": "count",
    "cli.bytes_written": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "bench.self_s": "s",
}

# Counts that must repeat exactly between rounds and between runs with the
# same seed.
EXACT_COUNTS = ("search.nodes", "sampler.resamples", "sampler.converged",
                "verify.exhausted", "verify.reproved", "verify.unverified")


@dataclass
class Record:
    task: object
    start: float
    end: float
    result: object
    error: str | None


def run_round(tasks, api, tracer=None) -> tuple[tuple[float, float], list[Record]]:
    """Play the task list once.  A task's follow-ups run right after it,
    except those with an `order` key, which wait until the list is done and
    then run sorted by it.  Returns the round's (start, end) and one record
    per task."""
    records: list[Record] = []
    queue = deque(tasks)
    deferred = []
    t0 = perf_counter()
    while queue or deferred:
        if not queue:
            queue.extend(sorted(deferred, key=lambda t: t.order))
            deferred = []
        task = queue.popleft()
        if tracer is not None:
            tracer.task = len(records)
        start = perf_counter()
        try:
            result, error = task.run(api), None
        except Exception as exc:  # a failing task is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        records.append(Record(task, start, perf_counter(), result, error))
        if error is None and task.then is not None:
            try:
                follow = task.then(result)
                deferred += [t for t in follow if t.order is not None]
                queue.extendleft(reversed([t for t in follow if t.order is None]))
            except Exception as exc:
                records[-1].error = f"{type(exc).__name__}: {exc}"
    return (t0, perf_counter()), records


@contextmanager
def rebound(bindings):
    saved = [(module, name, getattr(module, name)) for module, name, _ in bindings]
    try:
        for module, name, fn in bindings:
            setattr(module, name, fn)
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def measure_setup(harness) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """(start, end) of SETUP_LAUNCHES fresh interpreters importing
    repthresh and its CLI, after one launch that warms the bytecode cache,
    and of the host-speed probes run before, between and after them."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    spans, probes = [], harness.Probes()
    probes.probe()
    for _ in range(SETUP_LAUNCHES):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        spans.append((t0, perf_counter()))
        probes.probe()
    return spans, probes.intervals


class Ledger:
    """Failure accounting across rounds.  The first round's outputs are
    checked and summarised; every later round must reproduce each summary
    exactly.  Task results are dropped once accounted, so that rounds run
    on the same heap."""

    def __init__(self) -> None:
        self.reference: list[tuple[str, object, bool]] | None = None  # label, summary, check failed
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, records: list[Record]) -> list[tuple[str, float, float, int]]:
        """Account one round; return (kind, start, end, bytes written) per task."""
        self.rounds += 1
        self.attempted += len(records)
        if self.reference is None:
            self.reference = []
            for rec in records:
                bad = [rec.error] if rec.error else rec.task.check(rec.result)
                self.problems += [f"{rec.task.label}: {p}" for p in bad]
                summary = None if rec.error else rec.task.summary(rec.result)
                self.reference.append((rec.task.label, summary, bool(bad)))
                self.failed += bool(bad)
        else:
            for i, rec in enumerate(records):
                ref = self.reference[i] if i < len(self.reference) else None
                same = (ref is not None and ref[0] == rec.task.label and rec.error is None
                        and rec.task.summary(rec.result) == ref[1])
                if not same:
                    self.problems.append(f"round {self.rounds}: {rec.task.label}: outcome differs from round 1")
                self.failed += not same or ref[2]
            if len(records) != len(self.reference):
                self.problems.append(f"round {self.rounds}: {len(records)} tasks, round 1 had {len(self.reference)}")
        return [(rec.task.kind, rec.start, rec.end, getattr(rec.result, "bytes_written", 0)) for rec in records]

    def counts(self) -> dict[str, int]:
        counts = dict.fromkeys(EXACT_COUNTS, 0)
        for _, summary, _ in self.reference:
            for key, value in (summary or {}).get("counts", {}).items():
                counts[key] += value
        return counts

    def outcomes(self) -> list:
        return [[label, summary] for label, summary, _ in self.reference]


LAYERS = ("words", "construct", "detect.bytes", "detect.generic", "detect.naive",
          "search", "verify", "sampler", "cli")


def per_layer(traced, untraced_walls, counts, harness) -> dict:
    """Per-layer metrics, per round, from the spans of the traced rounds;
    traced holds (round wall, rows from Ledger.add, spans) per round.
    Times are as read: the traced rounds run without host-speed probes, and
    untraced_walls are the untraced rounds' walls without probe time."""
    totals = harness.layer_totals([rs for _, _, rs in traced])
    n = len(traced)
    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for layer in LAYERS:
        t = totals.get(layer, {})
        m[f"{layer}.busy_s"] = t.get("busy_s", 0.0) / n
        if f"{layer}.calls" in m:
            m[f"{layer}.calls"] = t.get("calls", 0) / n
        if f"{layer}.pairs_per_s" in m and t.get("busy_s"):
            m[f"{layer}.pairs_per_s"] = t.get("pairs", 0) / t["busy_s"]
    m["verify.max_call_s"] = totals.get("verify", {}).get("max_call_s", 0.0)
    m["search.nodes"] = totals.get("search", {}).get("nodes", 0) / n

    # split search and sampler time by outcome and by regime
    by = {key: [0.0, 0] for key in ("reached", "exhausted", "sample.short", "sample.long")}
    depth = nodes = 0
    for _, rows, rs in traced:
        for s, own in zip(rs, harness.self_times(rs)):
            if s.name == "search" and "depth" in s.info:
                depth += s.info["depth"]
                nodes += s.info["nodes"]
                key = "reached" if s.info["reached"] else "exhausted" if s.info["exhausted"] else None
                if key:
                    by[key][0] += own
                    by[key][1] += s.info["nodes"]
            elif s.name == "sampler":
                key = rows[s.task][0]
                by[key][0] += own
                by[key][1] += s.info["resamples"]
    rate = lambda key: by[key][1] / by[key][0] if by[key][0] else 0.0
    m["search.reached.nodes_per_s"] = rate("reached")
    m["search.exhausted.nodes_per_s"] = rate("exhausted")
    m["search.yield"] = depth / nodes if nodes else 0.0
    m["sampler.short.resamples_per_s"] = rate("sample.short")
    m["sampler.long.resamples_per_s"] = rate("sample.long")
    for key in ("verify.reproved", "verify.unverified", "sampler.resamples", "sampler.converged"):
        m[key] = counts[key]
    m["cli.bytes_written"] = sum(row[3] for _, rows, _ in traced for row in rows) / n

    traced_wall = statistics.fmean(wall for wall, _, _ in traced)
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - statistics.fmean(untraced_walls)
    m["bench.self_s"] = traced_wall - sum(m[f"{layer}.busy_s"] for layer in LAYERS)
    return m


def git_commit() -> str:
    """HEAD of the checkout's own .git, if it has one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["scan", "certify", "extend", "sample"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repthresh" / "__init__.py").is_file():
        print(f"error: no repthresh package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repthresh

    if Path(repthresh.__file__).resolve().parent != (SRC / "repthresh").resolve():
        print(f"error: imported repthresh from {repthresh.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import harness
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        launches, setup_probes = measure_setup(harness)
        tasks = workloads.PLANS[args.workload](args.seed, workdir)
        raw = workloads.raw_api()
        ledger = Ledger()
        untraced: list[tuple[tuple[float, float], list]] = []  # round (start, end), task rows
        traced: list[tuple[float, list, list]] = []  # round wall, task rows, spans
        probes = harness.Probes()
        start = perf_counter()
        while True:
            t0 = perf_counter()
            gc.collect()
            probes.start()
            try:
                probes.probe()
                span, records = run_round(tasks, raw)
                probes.probe()
            finally:
                probes.stop()
            untraced.append((span, ledger.add(records)))
            # a round's task count includes follow-ups, known after round 1
            tail_pct, min_rounds = harness.tail_plan(len(ledger.reference))
            if args.trace:
                gc.collect()
                tracer = harness.Tracer()
                with rebound(workloads.rebindings(tracer)):
                    (a, b), records = run_round(tasks, workloads.traced_api(tracer), tracer)
                traced.append((b - a, ledger.add(records), tracer.spans))
            del records
            step = perf_counter() - t0
            if len(untraced) >= min_rounds and perf_counter() - start + step > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = ledger.failed
    problems = ledger.problems
    outcome_digest = harness.digest(ledger.outcomes())
    digest_checked = args.seed == DEFAULT_SEED
    if digest_checked:
        frozen = json.loads((BENCH_DIR / "digests.json").read_text()).get(args.workload)
        if frozen != outcome_digest:
            failed += 1
            problems.append(f"outcome digest {outcome_digest} != frozen {frozen}")
    attempted = ledger.attempted
    failed = min(failed, attempted)
    counts = ledger.counts()

    # Times at reference host speed (see harness.HostClock), and as read.
    clock = harness.HostClock(probes.intervals)
    setup_clock = harness.HostClock(setup_probes)
    walls = [clock.work_time(*span) for span, _ in untraced]
    raw_walls = [clock.work_time(*span, scaled=False) for span, _ in untraced]
    task_s = [[clock.work_time(a, b) for _, a, b, _ in rows] for _, rows in untraced]
    lat = harness.latency_summary(task_s, tail_pct)
    raw_lat = harness.latency_summary([[clock.work_time(a, b, scaled=False) for _, a, b, _ in rows]
                                       for _, rows in untraced], tail_pct)
    labels = [label for label, _, _ in ledger.reference]
    per_task_ms = {label: statistics.median(times[i] for times in task_s) * 1000.0
                   for i, label in enumerate(labels)}
    launch_s = [setup_clock.work_time(a, b) for a, b in launches]
    exhausted = counts["verify.exhausted"]
    end_to_end = {
        "setup_s": statistics.median(launch_s),
        "wall_s": statistics.median(walls),
        "task_p50_ms": lat["p50_ms"],
        "task_tail_ms": lat["tail_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_ratio": 1.0 - failed / attempted,
        # vacuously complete when the workload emits no EXHAUSTED certificate
        "proof_coverage": counts["verify.reproved"] / exhausted if exhausted else 1.0,
    }
    layers = per_layer(traced, raw_walls, counts, harness) if args.trace else None
    shown = layers if args.trace else end_to_end
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS

    record = {
        "schema": "repthresh-bench/1",
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "machine": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "git_commit": git_commit(),
        "rounds": len(untraced),
        "round_wall_s": walls,
        "latency": lat,
        "host": {
            "ref_probe_s": harness.REF_PROBE_S,
            "probe_s": harness.spread_summary([b - a for a, b in probes.intervals]),
            "setup_probe_s": harness.spread_summary([b - a for a, b in setup_probes]),
            "as_read": {
                "setup_s": statistics.median(b - a for a, b in launches),
                "round_wall_s": raw_walls,
                "latency": raw_lat,
            },
        },
        "traced_round_wall_s": [wall for wall, _, _ in traced],
        "task_median_ms": per_task_ms,
        "counts": counts,
        "proof": {"reproved": counts["verify.reproved"], "exhausted": exhausted},
        "outcome_digest": outcome_digest,
        "digest_checked": digest_checked,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "end_to_end": end_to_end,
        "per_layer": layers,
    }
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT_DIR / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        doc = {"task_labels": labels, "rounds": [[s.to_jsonable() for s in rs] for _, _, rs in traced]}
        (OUT_DIR / f"spans_{args.workload}_seed{args.seed}.json").write_text(json.dumps(doc) + "\n")

    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(f"# tail is p{lat['tail_pct']:g} of {lat['tasks']} tasks ({lat['tail_beyond']} beyond); "
          f"{len(untraced)} rounds; proof coverage {counts['verify.reproved']}/{exhausted}")
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
