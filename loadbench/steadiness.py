"""Run the benchmark over several seeds and report each metric's spread.

    python3 loadbench/steadiness.py --workloads chat rag longctx --seeds 1-10 [--against earlier.json]

For every workload and end-to-end metric it prints the median of the runs and
the distance between their first and third quartiles as a share of that
median, next to the metric's bound from ``BENCHMARK.json``.  A spread at or
above a third of the bound (except ``setup_s``'s) is flagged.  With
``--against`` it also compares each median with an earlier set of runs
written by ``--out``.  Runs go one at a time, so they never compete for
cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seeds_of(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int) -> dict:
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "loadbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    result["record"] = record
    result["wall_s"] = time.monotonic() - started
    return result


def main(argv=None) -> int:
    from loadbench.stats import quartile_spread

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["chat", "rag", "longctx"])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", help="write every run's result here (JSON)")
    parser.add_argument("--against", help="an earlier --out file to compare medians with")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    results = {}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in seeds_of(args.seeds):
            result = run(workload, seed, spec["run_seconds"])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} wall={result['wall_s']:.1f}s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
            steady &= result["correct"]
        results[workload] = runs
        names = list(runs[0]["record"]["metrics"])
        for name in names:
            values = [r["record"]["metrics"][name]["value"] for r in runs if name in r["record"]["metrics"]]
            if len(values) < 4:
                continue
            median, spread = statistics.median(values), quartile_spread(values)
            bound = bounds.get(name)
            line = f"  {workload:8} {name:24} median={median:<12.5g} spread={spread:7.2%}"
            if bound is not None:
                flagged = name != "setup_s" and spread >= bound / 3
                steady &= not flagged
                line += f"  bound={bound:.0%}" + ("  SPREAD TOO WIDE" if flagged else "")
                if workload in earlier:
                    before = statistics.median(
                        r["record"]["metrics"][name]["value"] for r in earlier[workload]
                    )
                    line += f"  earlier median={before:.5g} ({median / before - 1:+.2%})"
            print(line, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results))
    print("steady" if steady else "NOT STEADY")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.path[0] = str(ROOT)  # import the benchmark as a package, not its files as modules
    sys.exit(main())
