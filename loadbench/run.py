"""Closed-loop wall-clock benchmark of the serving stack, one workload per run.

    python3 loadbench/run.py --workload chat --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the same set-up and window twice in one process,
the second time with every layer's entry points wrapped in spans, and reports
the per-layer metrics.  The human-readable report precedes two JSON
lines: ``record`` (the attribution, composition counts, every metric with
its sample count and each set-up's time) and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``, printed also when failed
requests leave a metric unsupported.

The run exits with status 2 and prints no result when the checkout holds no
``src/repro`` package to measure.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
#: where runs keep their temporary directories, span files and composition record
STATE = ROOT / ".loadbench"
#: set-ups per run: this process's plus ``SETUPS - 1`` fresh processes
SETUPS = 3
CHILD_TIMEOUT_S = 150
#: BLAS runs one thread, like the one driver thread the benchmark allows: with
#: OpenBLAS's default two threads on a two-core host, any other busy process
#: made longctx's Longformer requests three times slower (0.41 s against
#: 0.13 s), while one thread held at 0.13 s with or without it
SINGLE_THREADED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = ("setup_s", "peak_rss_mb", "tokens_per_s", "ttft_p50_ms")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("chat", "rag", "longctx"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def child_setup(args) -> float:
    """Time one set-up in a fresh process (import, build, warm-up)."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-only",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed ({done.returncode}): {done.stderr[-2000:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def print_table(title: str, metrics) -> None:
    print(title)
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']:<13} n={metric['n']}")


def measure(args) -> dict:
    from loadbench import env, runner

    measured = runner.measured_requests(args.workload, args.seconds)
    if args.setup_only:
        return {"setup_s": runner.run_once(args.workload, args.seed, measured, setup_only=True).setup_s}
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1)
    problems, setups = [], []
    if args.trace:
        from loadbench.spans import SpanRecorder

        # the untraced window goes first, so it pays the process's one-time
        # costs (imports, the compiled backend) in its set-up, as the traced
        # one does not; both windows run warm
        untraced = runner.run_once(args.workload, args.seed, measured, check=False)
        recorder = SpanRecorder()
        runner.install_spans(recorder)
        try:
            outcome = runner.run_once(args.workload, args.seed, measured, recorder=recorder)
        finally:
            recorder.restore()
        metrics, unsupported = runner.per_layer(outcome, recorder, untraced.window.seconds)
        gated = tuple(runner.PER_LAYER)
        counts = runner.composition(outcome)
        if runner.composition(untraced) != counts:
            problems.append(
                f"the untraced window's composition {runner.composition(untraced)} "
                f"differs from the traced {counts}"
            )
        traces = STATE / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        recorder.write(traces / f"{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        setups = [child_setup(args) for _ in range(SETUPS - 1)]
        outcome = runner.run_once(args.workload, args.seed, measured)
        setups.append(outcome.setup_s)
        metrics, unsupported = runner.end_to_end(args.workload, outcome, setups)
        gated = END_TO_END
        counts = runner.composition(outcome)
    # every seed sends the same request shapes, so the counts must repeat
    # across seeds too, not only across runs of one seed
    key = f"{args.workload}/seconds={args.seconds}/{env.code_hash(ROOT)[:16]}"
    drift = env.composition_guard(STATE / "composition.json", key, counts)
    if drift is not None:
        problems.append(f"composition guard: {drift}")
    problems += outcome.problems
    problems += [f"{name} not reported: {unsupported[name]}" for name in gated if name in unsupported]
    window = outcome.window
    print(f"loadbench {args.workload} seed={args.seed} measured={window.attempted} requests "
          f"in {window.seconds:.3f} s, {window.steps} steps, {window.rows} rows")
    print_table("metrics:", metrics)
    for name, reason in unsupported.items():
        print(f"  {name}: not reported, {reason}")
    print("composition:", json.dumps(counts, sort_keys=True))
    for problem in problems:
        print("PROBLEM:", problem)
    record = {
        "attribution": env.attribution(ROOT, args.seed),
        "composition": counts,
        "metrics": metrics,
        "setups_s": setups,
        "problems": problems,
    }
    print("record " + json.dumps(record, sort_keys=True))
    return result(window, metrics, gated, problems)


def result(window, metrics, gated, problems) -> dict:
    """The result object, printed whatever failed: the ``gated`` metrics the
    run could report, so a run whose failed requests left a percentile too
    few samples still reports what it attempted and what failed."""
    return {
        "correct": not problems,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
            for name in gated
            if name in metrics
        },
    }


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"loadbench: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    for name in SINGLE_THREADED:  # before numpy is first imported
        os.environ[name] = "1"
    # each run builds the compiled backend into its own directory, removed at exit
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=STATE / "tmp")
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    try:
        result = measure(args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # the script's own directory would shadow the package name; import it from the root
    sys.path.pop(0)
    sys.exit(main())
