"""One pass of a workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N [--check]
       [--trace] [--spans FILE] [--setup-only]

Prints one JSON object: set-up time (importing numpy and koszulkit and
building the workload's fixtures), wall and CPU time of the jobs, the
slowest job, peak resident memory, a hash of each job's output and, with
--check, the problems the independent checks found (after the timed
region). With --trace the public koszulkit functions are wrapped and the
per-layer metrics are added.

Times are reported twice: as measured (`raw`), and scaled to the speed of
the reference machine. The reference machine, a 2-vCPU virtual machine on
a shared host, runs the same code up to twice as slowly from one second to
the next, because other tenants share its cores. So a fixed calibration kernel is timed at every
job boundary and, from a timer signal, every SAMPLE_EVERY_S inside a job;
the kernel's own time is taken out of the job's, and the job's time is
multiplied by CALIBRATION_REF_S over the mean kernel time of the samples
that bracket it. A slowdown of the host stretches the job and the kernel
alike and cancels; a change to koszulkit only moves the job.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()  # set-up includes importing numpy, which koszulkit needs

import argparse
import gc
import hashlib
import json
import random
import resource
import signal
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from workloads import FIXTURES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
# Time of `calibrate` on an undisturbed core of the reference machine (the
# fastest calls seen over several minutes, rounded): see README.md.
CALIBRATION_REF_S = 0.0085
SAMPLE_EVERY_S = 0.2


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def calibrate() -> float:
    """Seconds taken by a fixed kernel shaped like koszulkit's work:
    tuple-keyed dict updates, a sort, and small int64 array reductions.
    The collector is off, so the program's heap does not enter the time."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        rng = random.Random(7)
        acc: dict = {}
        for i in range(3000):
            key = tuple(rng.randrange(9) for _ in range(4))
            acc[key] = (acc.get(key, 0) + i * 31) % 32003
        sorted(acc.items())
        a = np.arange(20000, dtype=np.int64)
        for _ in range(10):
            a = (a * 3 + 1) % 32003
        return time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


def timed(fn, sample: bool):
    """Run fn(), sampling the calibration kernel every SAMPLE_EVERY_S if asked.

    Returns (result, seconds, CPU seconds, kernel samples), with the time
    spent in the kernel taken out of both times.
    """
    samples: list[float] = []
    spent = [0.0, 0.0]

    def tick(_signum, _frame):
        w0, c0 = time.perf_counter(), cpu_seconds()
        samples.append(calibrate())
        spent[0] += time.perf_counter() - w0
        spent[1] += cpu_seconds() - c0

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S if sample else 0, SAMPLE_EVERY_S)
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    try:
        result = fn()
    finally:
        secs, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return result, secs - spent[0], cpu - spent[1], samples


def run_job(job, ctx):
    try:
        return job.run(ctx)
    except Exception as exc:  # a failing job is a failed operation, not a crash
        return {"error": f"{type(exc).__name__}: {exc}"}, None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import koszulkit

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    fixtures = {name: koszulkit.build_fixture(name) for name in FIXTURES[args.workload]}
    setup_s = time.perf_counter() - SETUP_START

    boundary = calibrate()
    setup_s_scaled = setup_s * CALIBRATION_REF_S / boundary
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s_scaled, "raw": {"setup_s": setup_s}}))
        return 0

    jobs_to_run = WORKLOADS[args.workload](args.seed)
    ctx = SimpleNamespace(kk=koszulkit, fixtures=fixtures)
    results = []
    for job in jobs_to_run:
        # Traced passes sample only at job boundaries, so that no span holds kernel time.
        (out, kept), secs, cpu, inside = timed(lambda: run_job(job, ctx), sample=recorder is None)
        after = calibrate()
        bracket = [boundary, *inside, after]
        speed = CALIBRATION_REF_S / (sum(bracket) / len(bracket))
        results.append((job, out, kept, secs, cpu, speed))
        boundary = after
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    jobs = []
    for job, out, kept, secs, cpu, speed in results:
        entry = {
            "name": job.name,
            "s": secs * speed,
            "cpu_s": cpu * speed,
            "raw_s": secs,
            "speed": speed,
            "hash": hashlib.sha256(canonical(out).encode()).hexdigest(),
            "known_fault": job.known_fault,
        }
        if args.check:
            entry["problems"] = (
                [out["error"]] if "error" in out else job.check(out, kept)
            )
        jobs.append(entry)
    report = {
        "setup_s": setup_s_scaled,
        "wall_s": sum(j["s"] for j in jobs),
        "cpu_s": sum(j["cpu_s"] for j in jobs),
        "slowest_job_s": max(j["s"] for j in jobs),
        "peak_rss_mb": peak_rss_mb,
        "raw": {"setup_s": setup_s, "wall_s": sum(j["raw_s"] for j in jobs)},
        "fingerprint": hashlib.sha256("".join(j["hash"] for j in jobs).encode()).hexdigest(),
        "jobs": jobs,
    }
    if recorder is not None:
        # Span times are scaled by the pass's own speed factor, like wall_s.
        speed = report["wall_s"] / report["raw"]["wall_s"]
        report["layers"] = {
            name: value * speed if name.endswith(("_s", ".s")) else value
            for name, value in recorder.metrics().items()
        }
        if args.spans:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            recorder.save(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
