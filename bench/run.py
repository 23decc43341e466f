"""graphspectra benchmark: certified-eigenvalue throughput of CLI jobs.

    python3 bench/run.py --workload spectrum-generic --seed 1 --seconds 24 --trace 0

Run it from the repository root; it imports the program from ``src/``.
Each workload is a closed loop with one client: one process runs its
jobs one after another, each job being ``graphspectra.cli.main(argv)``
in-process with stdout captured, on seeded graph files that
workloads.py writes.  BLAS and OpenMP are pinned to one thread.  Every
job's output is checked (checks.py); a job fails on an exception, a
nonzero exit or a failed check.

On shared CPUs the speed of a fixed job drifts by up to 2x over seconds
to minutes (measured on a 2-vCPU Xeon VM).  So a fixed probe
(batched 12x12 eigvals plus an interpreter loop, the two things jobs
spend their time on) is timed before every job and after the last,
and each job's wall time is rescaled to the probe's reference time:
job seconds = wall x PROBE_REF_S / mean(probe before, probe after).
Fresh starts for setup_s are bracketed and rescaled the same way.  The
end-to-end times are in these reference seconds (per-layer times are
raw); raw walls and probe times go to the results file.

With ``--trace 0`` the run reports the end-to-end metrics, tracing off.
With ``--trace 1`` it runs half as many jobs twice each, untraced and
then traced (layertrace.py), and reports per-layer figures per job and
the tracing overhead.  The last stdout line is one JSON object with keys
correct, attempted, failed and metrics.  Per-job records, the
environment and the spans go to ``bench/_work/``.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse
import contextlib
import dataclasses
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
REFERENCE_PATH = BENCH_DIR / "reference.json"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 24.0
SETUP_STARTS = 7
# Median probe time on the reference machine (2-vCPU Xeon VM, quiet).
PROBE_REF_S = 0.035

import numpy as np

import checks
import layertrace
import workloads

END_TO_END = {
    "eigs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "solver.eig_s": "s",
    "solver.eig_calls": "count",
    "solver.eig_matrices": "count",
    "solver.svd_s": "s",
    "solver.svd_matrices": "count",
    "solver.det_matrices": "count",
    "solver.matrices_per_eig": "ratio",
    "solver.self_s": "s",
    "solver.calls": "count",
    "scattering.unitary_stack_s": "s",
    "scattering.unitary_stack_matrices": "count",
    "scattering.total_phase_s": "s",
    "eigenfunctions.self_s": "s",
    "eigenfunctions.svd_s": "s",
    "eigenfunctions.svd_calls": "count",
    "eigenfunctions.svd_matrices": "count",
    "stats.self_s": "s",
    "bounds.self_s": "s",
    "graphs.load_s": "s",
    "graphs.decomp_s": "s",
    "cli.self_s": "s",
    "fd.import_s": "s",
    "trace.job_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
}
# Nominal seconds per job at this commit; with run length they fix the
# job count, so a given (workload, seed, seconds) always runs the same
# jobs and two commits are compared on identical work.
JOB_BUDGET_S = {"spectrum-generic": 0.6, "gap-stats": 0.65, "eigfun-degenerate": 0.45}


def job_count(workload: str, seconds: float, smoke: bool) -> int:
    cycle = workloads.cycle_length(workload)
    if smoke:
        return cycle
    cycles = max(1, round(seconds / (JOB_BUDGET_S[workload] * cycle)))
    return cycles * cycle


_rng = np.random.default_rng(0)
PROBE_BATCH = _rng.standard_normal((256, 12, 12)) + 1j * _rng.standard_normal((256, 12, 12))


def probe_s() -> float:
    """Wall time of a fixed piece of work that mirrors what jobs do."""
    start = time.perf_counter()
    np.linalg.eigvals(PROBE_BATCH)
    total = 0
    for i in range(100_000):
        total += i
    return time.perf_counter() - start


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


SETUP_CODE = (
    "import sys, time\n"
    "import graphspectra.cli\n"
    "graphspectra.cli.load_graph_file(sys.argv[1])\n"
    "print(time.monotonic())\n"
)


def fresh_setup_s(graph_path: str) -> tuple:
    """(raw, rescaled) seconds from a fresh interpreter to ready:
    import graphspectra.cli and load a graph file."""
    before = probe_s()
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, graph_path],
        env=child_env(), capture_output=True, text=True, check=True, timeout=60,
    )
    raw = float(done.stdout.strip().splitlines()[-1]) - start
    return raw, raw * PROBE_REF_S / (0.5 * (before + probe_s()))


def fd_import_s() -> float:
    """Cumulative -X importtime of graphspectra.fd under import graphspectra.cli."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import graphspectra.cli"],
        env=child_env(), capture_output=True, text=True, check=True, timeout=60,
    )
    for line in done.stderr.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] == "graphspectra.fd":
            return int(fields[1]) * 1e-6
    return 0.0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_pins": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def run_job(main, job, tracer=None):
    """(wall seconds, exit code or None, stdout, error text) of one job."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = main(job.argv)
            else:
                with tracer.job_span(job.job_id):
                    code = main(job.argv)
    except SystemExit as exc:  # argparse rejects its argv this way
        code = exc.code
    except Exception:  # a crashing job is a failed job, not a crashed benchmark
        error = traceback.format_exc(limit=3)
    wall = time.perf_counter() - start
    if code != 0 and not error:
        error = f"exit {code}: {err.getvalue().strip()[:300]}"
    return wall, code, out.getvalue(), error


def judge(job, code, text, error, reference) -> tuple:
    """(certified eigenvalues, failure message or '') of one finished job."""
    if error:
        return 0, error
    try:
        eigs = checks.check_job(job, text)
        if reference is not None and job.job_id < len(reference):
            checks.compare_reference(job, text, reference[job.job_id])
    except checks.CheckFailure as exc:
        return 0, f"check: {exc}"
    return eigs, ""


def run_pass(main, jobs, reference, deadline, tracer=None, outputs=None, between=None) -> list:
    """Run jobs in order, one at a time; return one record per job run.

    between(i), if given, runs before job i, outside its timing.
    """
    records = []
    for i, job in enumerate(jobs):
        if time.monotonic() > deadline:
            print(f"note: time cap reached after {len(records)} jobs", file=sys.stderr)
            break
        if between is not None:
            between(i)
        probe = probe_s()
        if records:
            records[-1]["probe_after_s"] = probe
        if tracer is None:
            wall, code, text, error = run_job(main, job)
        else:
            with tracer.installed():  # only around the job: the probe stays untraced
                wall, code, text, error = run_job(main, job, tracer)
        eigs, failure = judge(job, code, text, error, reference)
        if outputs is not None and not failure:
            outputs.append(checks.digest(job, text))
        records.append({
            "id": job.job_id, "family": job.family, "command": job.command,
            "wall_s": wall, "probe_before_s": probe, "eigs": eigs, "failure": failure,
        })
        if failure:
            print(f"job {job.job_id} ({job.command} {job.family}) failed: {failure}",
                  file=sys.stderr)
    if records:
        records[-1]["probe_after_s"] = probe_s()
    for r in records:
        r["job_s"] = r["wall_s"] * PROBE_REF_S / (0.5 * (r["probe_before_s"] + r["probe_after_s"]))
    return records


def tail(values: list) -> tuple:
    """Value at the highest percentile with at least 10 jobs beyond it."""
    ordered = sorted(values)
    i = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def warm_up(main, jobs) -> None:
    """One tiny run of each job shape, so lazy imports and caches settle.

    Outcomes are ignored here; the timed runs report any failure.
    """
    for job in jobs:
        run_job(main, dataclasses.replace(job, n_max=24, k_max=None))


def cycle_throughput(records, cycle: int) -> list:
    """Certified eigenvalues per reference job-second of each cycle of jobs."""
    eigs: dict = {}
    secs: dict = {}
    for r in records:
        c = r["id"] // cycle
        eigs[c] = eigs.get(c, 0) + r["eigs"]
        secs[c] = secs.get(c, 0.0) + r["job_s"]
    return [eigs[c] / secs[c] for c in sorted(eigs)]


def end_to_end(records, setup_times, cycle: int) -> tuple:
    times = [r["job_s"] for r in records]
    attempted = len(records)
    failed = sum(1 for r in records if r["failure"])
    tail_value, tail_pct = tail(times)
    rates = cycle_throughput(records, cycle)
    metrics = {
        "eigs_per_s": statistics.median(rates),
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(t[1] for t in setup_times),
        "ok_frac": (attempted - failed) / attempted,
    }
    notes = {
        "jobs": attempted,
        "failed_frac": failed / attempted,
        "tail_percentile": tail_pct,
        "setup_samples_s": [t[0] for t in setup_times],
        "cycle_eigs_per_s": rates,
        "raw_eigs_per_s": sum(r["eigs"] for r in records) / sum(r["wall_s"] for r in records),
        "raw_job_s_p50": statistics.median(r["wall_s"] for r in records),
        "probe_s_p50": statistics.median(r["probe_before_s"] for r in records),
    }
    return metrics, notes


def per_layer(untraced, traced, spans_metrics, fd_times) -> dict:
    jobs = len(traced)
    plain = sum(r["wall_s"] for r in untraced) / len(untraced)
    with_trace = sum(r["wall_s"] for r in traced) / jobs
    metrics = {name: spans_metrics.get(name, 0.0) for name in PER_LAYER}
    metrics["fd.import_s"] = statistics.median(fd_times)
    metrics["trace.job_s"] = plain
    metrics["trace.overhead_s"] = with_trace - plain
    return metrics


def main_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny n, one cycle of jobs, one fresh start")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the reference of its seed")
    args = parser.parse_args(argv)
    if args.write_reference and (args.seed != DEFAULT_SEED or args.smoke or args.trace):
        parser.error("--write-reference stores the default seed's untraced full run")

    if not (SRC / "graphspectra" / "cli.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import graphspectra.cli

    main = graphspectra.cli.main
    started = time.monotonic()
    WORK.mkdir(exist_ok=True)
    graph_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        count = job_count(args.workload, args.seconds, args.smoke)
        jobs = workloads.make_jobs(args.workload, args.seed, count, graph_dir, smoke=args.smoke)
        reference = None
        if (args.seed == DEFAULT_SEED and not args.smoke and not args.write_reference
                and REFERENCE_PATH.exists()):
            stored = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
            reference = stored.get(args.workload)
        cycle = workloads.cycle_length(args.workload)
        warm_up(main, jobs[:cycle])
        starts = 1 if args.smoke else SETUP_STARTS
        deadline = started + min(150.0, 4.0 * args.seconds + 20.0)

        env = environment()
        print("env: " + json.dumps(env, sort_keys=True))
        result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env}
        if args.trace:
            fd_times = [fd_import_s() for _ in range(starts)]
            half = jobs[: max(cycle, (len(jobs) // (2 * cycle)) * cycle)]
            tracer = layertrace.Tracer()
            untraced, traced = [], []
            # each job runs untraced and then traced, back to back, so the
            # machine's speed swings fall on both sides of the overhead
            for job in half:
                untraced += run_pass(main, [job], reference, deadline)
                traced += run_pass(main, [job], reference, deadline, tracer)
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json.gz"
            tracer.write(spans_path)
            metrics = per_layer(
                untraced, traced, layertrace.layer_metrics(tracer.spans, len(traced)), fd_times
            )
            units = PER_LAYER
            records = untraced + traced
            result["spans"] = str(spans_path.relative_to(ROOT))
        else:
            fresh_setup_s(jobs[0].graph_path)  # fills bytecode and file caches
            setup_times = []
            every = max(1, len(jobs) // starts)

            def between(i):
                # fresh starts spread over the run, so one noisy spell
                # of the machine does not set the median
                if i % every == 0 and len(setup_times) < starts:
                    setup_times.append(fresh_setup_s(jobs[0].graph_path))

            outputs = [] if args.write_reference else None
            records = run_pass(main, jobs, reference, deadline, outputs=outputs, between=between)
            while len(setup_times) < starts:
                setup_times.append(fresh_setup_s(jobs[0].graph_path))
            metrics, notes = end_to_end(records, setup_times, cycle)
            units = END_TO_END
            result.update(notes)
            print(f"jobs: {notes['jobs']}, failed_frac: {notes['failed_frac']:.4g}, "
                  f"job_s_tail is p{notes['tail_percentile']:.1f}; unscaled: "
                  f"eigs_per_s {notes['raw_eigs_per_s']:.6g} 1/s, job_s_p50 "
                  f"{notes['raw_job_s_p50']:.6g} s, probe {notes['probe_s_p50']:.6g} s")
            if args.write_reference:
                write_reference(args.workload, outputs, len(records))
        failed = sum(1 for r in records if r["failure"])
        result.update(metrics=metrics, jobs_run=records)
        out_path = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(graph_dir, ignore_errors=True)

    for name, unit in units.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def write_reference(workload: str, outputs: list, attempted: int) -> None:
    if len(outputs) != attempted:
        raise SystemExit("error: refusing to store a reference from a run with failed jobs")
    stored = {}
    if REFERENCE_PATH.exists():
        stored = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    stored[workload] = outputs
    REFERENCE_PATH.write_text(json.dumps(stored, indent=0, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main_cli())
