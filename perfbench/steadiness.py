"""Run the benchmark over several seeds and report how steady each
end-to-end metric is.

    python3 perfbench/steadiness.py --workloads scan sample --seeds 0-9 [--sets 2]
    python3 perfbench/steadiness.py --seeds 0-9 --against perfbench/out/steadiness_<time>.json

For every workload and set, each seed is one run of run.py.  The spread of
a metric is the distance between the first and third quartile of its
values over the seeds, as a share of their median; the benchmark counts as
steady when every spread except that of setup_s is below a third of the
metric's bound.  With two sets, the second set's median must not be worse
than the first's by more than the bound.  The table is printed and saved
as JSON in perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from harness import spread  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--against", type=Path, help="an earlier report whose medians come first")
    args = parser.parse_args()
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    report = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        sets = []
        for _ in range(args.sets):
            runs = []
            for seed in args.seeds:
                t0 = time.perf_counter()
                result = one_run(workload, seed, args.seconds)
                runs.append(result)
                print(f"{workload} seed={seed} correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} ({time.perf_counter() - t0:.0f} s)",
                      flush=True)
                steady &= result["correct"]
            sets.append(runs)
        rows = {}
        for name, m in bounds.items():
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in per_set]
            first = earlier.get(workload, {}).get(name, {}).get("medians", medians)[0]
            spreads = [spread(v) for v in per_set]
            later = medians if args.against else medians[1:]
            worse = [(b - first) / first * (1 if m["better"] == "lower" else -1) for b in later]
            ok = all(s < m["bound"] / 3 for s in spreads) or name == "setup_s"
            ok &= all(w <= m["bound"] for w in worse)
            steady &= ok
            rows[name] = {"medians": medians, "spreads": spreads, "second_worse_by": worse,
                          "bound": m["bound"], "values": per_set, "ok": ok}
            print(f"  {name:15s} median {medians[-1]:12.5g}  spread {max(spreads):7.4f}  "
                  f"worse by {max(worse, default=0.0):7.4f}  bound {m['bound']:5.3f}  "
                  f"{'ok' if ok else 'NOT STEADY'}", flush=True)
        report["workloads"][workload] = rows
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steadiness_{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"{'steady' if steady else 'NOT steady'}; saved {path.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
