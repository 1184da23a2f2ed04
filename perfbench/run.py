"""koszulkit benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload for about S seconds: at least two, and no
pass is started when the fastest pass so far would not fit in the time
left. Every pass is a fresh interpreter (perfbench/worker.py) that imports
koszulkit, builds the workload's fixtures and runs every job once, so no
pass sees caches that an earlier pass filled. The first pass also checks
every output against the independent computations in perfbench/oracle.py;
later passes must reproduce its output hashes exactly.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics, medians over the passes. Times are scaled to the speed
of the reference machine by an interleaved calibration kernel (see
worker.py); the times as measured are printed above the JSON. With
--trace 1 traced and untraced passes alternate, and the JSON holds the
per-layer metrics of the traced passes plus trace.overhead_s, the traced
minus the untraced wall time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170  # a run must end within 180 s
MIN_PASSES = 2      # untraced passes, and traced passes in a traced run
SETUP_SAMPLES = 6   # extra set-up-only interpreters, so setup_s is a median of more samples
END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
    ("slowest_job_s", "s"), ("peak_rss_mb", "MiB"),
]


def median(key: str, reports: list[dict]) -> float:
    return statistics.median(r[key] for r in reports)


class PassError(RuntimeError):
    pass


def run_pass(args, timeout: float, check=False, traced=False, spans_file=None,
             setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    if check:
        cmd.append("--check")
    if traced:
        cmd.append("--trace")
    if spans_file is not None:
        cmd += ["--spans", str(spans_file)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassError(f"pass exited with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(passes: list[dict]) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, notes) over every pass, judged by the checked first pass."""
    verdicts = {j["name"]: j for j in passes[0]["jobs"]}
    correct, attempted, failed, notes = True, 0, 0, []
    for rep in passes:
        for job in rep["jobs"]:
            attempted += 1
            ref = verdicts[job["name"]]
            if job["hash"] != ref["hash"]:
                failed += 1
                correct = False
                notes.append(f"{job['name']}: output differs from the first pass")
            elif ref["problems"]:
                failed += 1
                correct = correct and bool(ref["known_fault"])
    for job in passes[0]["jobs"]:
        if job["problems"]:
            tag = f"known fault ({job['known_fault']})" if job["known_fault"] else "FAILED"
            notes.append(f"{job['name']}: {tag}: {'; '.join(job['problems'])}")
    return correct, attempted, failed, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "koszulkit" / "__init__.py").is_file():
        print(f"koszulkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spans_file = ROOT / ".bench_build" / "perfbench" / f"spans-{args.workload}-{args.seed}.npz"
    start = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    fastest = {False: float("inf"), True: float("inf")}  # pass durations, by traced
    try:
        setups = [run_pass(args, TIME_LIMIT_S, setup_only=True)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        while True:
            trace_next = bool(args.trace) and bool(untraced) and len(traced) < len(untraced)
            enough = len(untraced) >= MIN_PASSES and (not args.trace or len(traced) >= MIN_PASSES)
            elapsed = time.monotonic() - start
            if enough and elapsed + fastest[trace_next] > args.seconds:
                break
            rep = run_pass(
                args,
                TIME_LIMIT_S - elapsed,
                check=not untraced,
                traced=trace_next,
                spans_file=spans_file if trace_next and not traced else None,
            )
            if untraced or trace_next:  # the first pass also runs the checks
                fastest[trace_next] = min(fastest[trace_next], time.monotonic() - start - elapsed)
            (traced if trace_next else untraced).append(rep)
    except PassError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    correct, attempted, failed, notes = tally(untraced + traced)

    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes, fingerprint {untraced[0]['fingerprint']}")
    metrics = {name: {"value": median(name, untraced), "unit": unit} for name, unit in END_TO_END}
    metrics["setup_s"]["value"] = statistics.median(setups + [r["setup_s"] for r in untraced])
    for name, m in metrics.items():
        print(f"  {name:<14} {m['value']:12.4f} {m['unit']}")
    raw = [r["raw"] for r in untraced]
    print(f"  as measured, before scaling to the reference machine: setup_s "
          f"{median('setup_s', raw):.4f} s, wall_s {median('wall_s', raw):.4f} s")
    print(f"  {'ops_attempted':<14} {attempted:12d}")
    print(f"  {'ops_failed':<14} {failed:12d}")
    for note in notes:
        print(f"  {note}")

    if args.trace:
        metrics = {}
        for name, unit in METRICS:
            if name == "trace.overhead_s":
                value = median("wall_s", traced) - median("wall_s", untraced)
            else:
                value = statistics.median(r["layers"].get(name, 0) for r in traced)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<44} {value:14.4f} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
