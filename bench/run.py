"""Closed-loop benchmark of `branchcover verify`, one job process at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any checkout with `src/branchcover`).  The
seed makes one spec file (see workloads.py).  One client then runs jobs
back to back within S seconds, at least MIN_JOBS of them; each job is a
fresh `bench/job.py` process, so at most two processes are live.  The
first report must pass the workload's own check and every later report
must match it byte for byte.  A fixed stdlib `Fraction` loop
(host.probe_s) runs before each job to show slow host phases; it never
rescales a metric.

--trace 0 prints the end-to-end metrics: setup_s and peak_rss_mb in the
result line, and the solve and job times (median, best, tail) before it.
--trace 1 alternates traced and untraced jobs, prints the per-layer
metrics and fails if any count differs between two traced jobs.
Human-readable lines come first; the last line of stdout is one JSON
object {correct, attempted, failed, metrics}.  README.md maps each
per-layer metric to the end-to-end metric and workload it should move.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import tracing
from workloads import WORKLOADS, make_job

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_JOBS = 5
MIN_TRACE_JOBS = 4       # two traced and two untraced
RUN_LIMIT_S = 170        # a job still running this long after start is killed
TAIL_BEYOND = 10         # the printed tail has this many samples above it


def host_probe() -> float:
    """Fixed exact-arithmetic loop, 30-60 ms on a 2-vCPU 2 GHz Xeon VM."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 6000):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
        if acc.denominator > 1 << 64:
            acc = Fraction(acc.numerator % 1000003, 1000003)
    return time.perf_counter() - t0


def run_child(cmd: list[str], env: dict, stderr_path: Path, kill_at: float):
    """Run one process to completion; (exit code, stdout, wall s, ru_maxrss MiB)."""
    t0 = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(kill_at - t0, 1.0), proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    return proc.returncode, out.decode("utf-8", "replace"), wall, usage.ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rows: list[dict]) -> dict:
    """Median setup time and RSS; solve and job times are printed, not returned."""
    for key in ("solve_s", "job_s"):
        vals = sorted(r[key] for r in rows)
        n = len(vals)
        if not n:
            continue
        print(f"{key} = {statistics.median(vals):.4f} s (median of {n} jobs; "
              f"best {vals[0]:.4f} s)")
        if n > TAIL_BEYOND:
            k = n - TAIL_BEYOND - 1
            print(f"{key}_tail = {vals[k]:.4f} s (p{100.0 * (k + 1) / n:.1f} of {n} jobs, "
                  f"{TAIL_BEYOND} above it)")
        else:
            print(f"{key}_tail: undefined, fewer than {TAIL_BEYOND + 1} jobs")
    return {
        "setup_s": metric(statistics.median(r["setup_s"] for r in rows) if rows else 0.0, "s"),
        "peak_rss_mb": metric(statistics.median(r["rss_mb"] for r in rows) if rows else 0.0,
                              "MB"),
    }


def per_layer(rows: list[dict], spans_by_job: dict[int, dict], problems: list[str]) -> dict:
    """Layer self times of the fastest traced job, counts checked equal across jobs."""
    layers = {j: tracing.job_layers(d["spans"]) for j, d in spans_by_job.items()}
    absent = sorted({name for d in spans_by_job.values() for name in d["absent"]})
    if absent:
        print(f"absent (not wrapped): {', '.join(absent)}")
    if len(layers) < 2:
        problems.append("fewer than two traced jobs succeeded")
    elif len({json.dumps(c, sort_keys=True) for _t, c in layers.values()}) != 1:
        problems.append("per-layer counts differ between traced jobs of one seed")

    traced = [r for r in rows if r["traced"] and r["job"] in layers]
    plain = [r for r in rows if not r["traced"]]
    fastest = min(traced, key=lambda r: r["solve_s"], default=None)
    if fastest is None:
        self_s, counts = dict.fromkeys(tracing.TIME_LAYERS, 0.0), dict.fromkeys(tracing.COUNTS, 0)
    else:
        self_s, counts = layers[fastest["job"]]
    metrics = {f"{layer}_s": metric(v, "s") for layer, v in self_s.items()}
    metrics.update((name, metric(v, "count")) for name, v in counts.items())
    metrics.update((name, metric(v, "1")) for name, v in tracing.ratios(counts).items())
    best_plain = min((r["solve_s"] for r in plain), default=0.0)
    metrics["trace.overhead"] = metric(
        fastest["solve_s"] / best_plain - 1 if fastest and best_plain else 0.0, "1")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "branchcover" / "__init__.py").is_file():
        sys.stderr.write(f"error: no branchcover sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import branchcover
    if Path(branchcover.__file__).resolve().parent != (SRC / "branchcover").resolve():
        sys.stderr.write(f"error: imported branchcover from {branchcover.__file__}\n")
        return 2
    kill_at = time.perf_counter() + RUN_LIMIT_S
    job = make_job(args.workload, args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    spec_path = work / "spec.json"
    spec_path.write_text(job.spec_text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    problems: list[str] = []

    reference = None
    records = []
    probes = []
    spans_by_job: dict[int, dict] = {}
    min_jobs = MIN_TRACE_JOBS if args.trace else MIN_JOBS
    start = time.perf_counter()
    i = 0
    while time.perf_counter() < kill_at:
        # start a job only while one more of median length fits in the run
        if i >= min_jobs and (time.perf_counter() - start + statistics.median(
                r["job_s"] for r in records) > args.seconds):
            break
        probes.append(host_probe())
        traced = bool(args.trace) and i % 2 == 0
        out_path = work / f"job{i}.out"
        cmd = [sys.executable, str(BENCH / "job.py"), str(spec_path), *job.verify_args,
               "--out", str(out_path)]
        if traced:
            cmd += ["--spans", str(work / f"spans{i}.json"), "--job", str(i)]
        code, out, wall, rss = run_child(cmd, env, work / f"job{i}.err", kill_at)
        report = out_path.read_bytes() if out_path.exists() else None
        if reference is None and report is not None:
            reference = report   # the first report of the run is checked once
            problems += job.check(report.decode("utf-8", "replace"))
        ok = code == 0 and report is not None and report == reference
        try:
            times = json.loads(out.strip().splitlines()[-1])
        except (json.JSONDecodeError, IndexError):
            times = None
            ok = False
        if times is not None and times["solve_s"] is None:
            times = None
            ok = False
            problems.append(f"job {i}: verify_branched / verify_unbranched was not called "
                            "through branchcover.cli, so setup and solve cannot be split")
        elif not ok:
            err = (work / f"job{i}.err").read_text(errors="replace").strip().splitlines()
            problems.append(f"job {i} exited {code} or its report differs from the run's "
                            "first report" + (f": {err[-1]}" if err else ""))
        if traced and ok:
            spans_by_job[i] = json.loads((work / f"spans{i}.json").read_text())
        records.append({"job": i, "traced": traced, "ok": ok, "job_s": wall, "rss_mb": rss,
                        **(times or {})})
        i += 1

    timed = [r for r in records if r["ok"]]
    failed = len(records) - len(timed)
    print(f"workload {args.workload} seed {args.seed}: {len(records)} jobs, "
          f"{failed} failed, fail_ratio {failed / len(records):.4f}")
    print(f"host.probe_s median {statistics.median(probes):.4f} s "
          f"(min {min(probes):.4f}, max {max(probes):.4f}; diagnostic only)")
    if args.trace:
        metrics = per_layer(timed, spans_by_job, problems)
        metrics["host.probe_s"] = metric(statistics.median(probes), "s")
        merged = [s for j in sorted(spans_by_job) for s in spans_by_job[j]["spans"]]
        (WORK / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(merged))
    else:
        metrics = end_to_end(timed)

    for name, m in metrics.items():
        note = " (computed from sizes)" if name == "local_systems.dense_entries" else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    for p in problems:
        print(f"problem: {p}")
    shutil.rmtree(work, ignore_errors=True)

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
