"""Self-tests of the benchmark: generator, output checks, tracer, smoke runs."""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402
from graphspectra import cli  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


def run_cli(job) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(job.argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def smoke_jobs(tmp_path_factory):
    """One cycle of smoke-sized jobs per workload, with their outputs."""
    out = {}
    for name in WORKLOADS:
        where = tmp_path_factory.mktemp(name)
        count = workloads.cycle_length(name)
        jobs = workloads.make_jobs(name, 5, count, where, smoke=True)
        out[name] = [(job, run_cli(job)) for job in jobs]
    return out


class TestGenerator:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_seeded_and_prefix_stable(self, name, tmp_path):
        a = workloads.make_jobs(name, 7, 6, tmp_path / "a")
        b = workloads.make_jobs(name, 7, 3, tmp_path / "b")
        c = workloads.make_jobs(name, 8, 6, tmp_path / "c")
        assert [j.graph for j in a[:3]] == [j.graph for j in b]
        assert [j.graph for j in a] != [j.graph for j in c]
        assert json.loads(Path(a[0].graph_path).read_text()) == a[0].graph

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_one_cycle_covers_every_combination(self, name, tmp_path):
        cycle = workloads.cycle_length(name)
        jobs = workloads.make_jobs(name, 1, 2 * cycle, tmp_path)
        shape = lambda j: (j.family, j.command, j.n_max is None)
        assert len({shape(j) for j in jobs[:cycle]}) == cycle
        assert [shape(j) for j in jobs[:cycle]] == [shape(j) for j in jobs[cycle:]]

    def test_every_job_names_its_target(self, tmp_path):
        for name in WORKLOADS:
            for job in workloads.make_jobs(name, 2, 12, tmp_path / name):
                argv = job.argv
                assert ("--nmax" in argv) != ("--kmax" in argv)
                assert "--step-scale" not in argv and "--tol" not in argv


class TestChecks:
    def test_real_outputs_pass(self, smoke_jobs):
        for name in WORKLOADS:
            for job, text in smoke_jobs[name]:
                paired = job.command in ("rng", "cdf")
                rows = text.count("\n") - 1
                expected = 2 * job.n_max if paired else job.n_max or rows
                assert checks.check_job(job, text) == expected

    def _first(self, smoke_jobs, command, family=None):
        for name in WORKLOADS:
            for job, text in smoke_jobs[name]:
                if job.command == command and family in (None, job.family):
                    return job, text
        raise AssertionError(f"no {command} job")

    def test_missed_roots_break_the_drift_window(self, smoke_jobs):
        job, text = self._first(smoke_jobs, "spectrum")
        lines = text.splitlines(keepends=True)
        missed = checks.num_slots(job.graph) + 2
        # drop the lowest roots and renumber, as if the scan skipped them
        shifted = [
            f"{i + 1},{line.split(',', 1)[1]}" for i, line in enumerate(lines[1 + missed:])
        ]
        job = workloads.Job(**{**job.__dict__, "n_max": None, "k_max": None})
        checks.check_job(job, text)
        with pytest.raises(checks.CheckFailure, match="drift"):
            checks.check_job(job, lines[0] + "".join(shifted))

    def test_multiplicity_mismatch_is_caught(self, smoke_jobs):
        job, text = self._first(smoke_jobs, "sensitivity", "equilateral-star")
        bad = text.replace(",1\n", ",0\n", 1)
        with pytest.raises(checks.CheckFailure):
            checks.check_job(job, bad)

    def test_closed_form_catches_a_shifted_eigenvalue(self, smoke_jobs):
        job, text = self._first(smoke_jobs, "sensitivity", "equilateral-star")
        header, rows = checks.parse_table(text)
        lam = float(rows[0][1])
        rows[0][1] = repr(lam * (1.0 + 1e-9))
        bad = "\n".join(",".join(r) for r in [header, *rows]) + "\n"
        with pytest.raises(checks.CheckFailure, match="closed-form"):
            checks.check_job(job, bad)

    def test_negative_gap_is_caught(self, smoke_jobs):
        job, text = self._first(smoke_jobs, "rng")
        header, rows = checks.parse_table(text)
        rows[3][1] = "-0.001"
        bad = "\n".join(",".join(r) for r in [header, *rows]) + "\n"
        with pytest.raises(checks.CheckFailure):
            checks.check_job(job, bad)

    def test_reference_round_trip(self, smoke_jobs):
        for name in WORKLOADS:
            for job, text in smoke_jobs[name]:
                ref = json.loads(json.dumps(checks.digest(job, text)))
                checks.compare_reference(job, text, ref)
        job, text = self._first(smoke_jobs, "spectrum")
        ref = checks.digest(job, text)
        ref["k_n"] = [k * (1.0 + 1e-10) for k in ref["k_n"]]
        with pytest.raises(checks.CheckFailure, match="reference"):
            checks.compare_reference(job, text, ref)

    def test_equilateral_star_closed_form_matches_solver(self):
        from graphspectra import RobinSpec, compute_spectrum, make_star

        d, length, sigma = 4, 1.3, 2.5
        spec = compute_spectrum(
            make_star(d, [length] * d), RobinSpec(frozenset([0]), sigma), n_max=40
        )
        expected = checks.equilateral_star_records(d, length, sigma, 40)
        assert np.allclose(spec.wavenumbers(40), [r[0] for r in expected], rtol=1e-12)


class TestTracer:
    def _traced(self, jobs):
        tracer = layertrace.Tracer()
        with tracer.installed():
            for job in jobs:
                with tracer.job_span(job.job_id):
                    with contextlib.redirect_stdout(io.StringIO()):
                        cli.main(job.argv)
        return tracer

    def test_patches_are_restored(self, smoke_jobs):
        before = (cli.compute_spectrum, np.linalg.eigvals, cli.sensitivity)
        self._traced([smoke_jobs["gap-stats"][0][0]])
        assert (cli.compute_spectrum, np.linalg.eigvals, cli.sensitivity) == before

    def test_spans_nest_and_self_times_add_up(self, smoke_jobs):
        jobs = [job for name in WORKLOADS for job, _ in smoke_jobs[name][:3]]
        tracer = self._traced(jobs)
        spans = tracer.spans
        roots = [s for s in spans if s[4] < 0]
        assert [s[5] for s in roots] == [j.job_id for j in jobs]
        for s in spans:
            assert s[2] <= s[3]
            if s[4] >= 0:
                parent = spans[s[4]]
                assert parent[2] <= s[2] and s[3] <= parent[3] and parent[5] == s[5]
        total = sum(s[3] - s[2] for s in roots)
        assert layertrace.self_times(spans).sum() == pytest.approx(total, rel=1e-9)
        layers = {s[1] for s in spans}
        assert {"cli", "solver", "scattering", "linalg", "stats", "eigenfunctions",
                "bounds", "graphs"} <= layers

    def test_counts_repeat_exactly(self, smoke_jobs):
        jobs = [job for job, _ in smoke_jobs["eigfun-degenerate"]]
        first = layertrace.layer_metrics(self._traced(jobs).spans, len(jobs))
        second = layertrace.layer_metrics(self._traced(jobs).spans, len(jobs))
        counted = [k for k in first if k.endswith(("_calls", "_matrices", "per_eig", ".calls"))]
        assert {"solver.eig_matrices", "eigenfunctions.svd_matrices",
                "solver.matrices_per_eig"} <= set(counted)
        assert [first[k] for k in counted] == [second[k] for k in counted]
        # sensitivity decomposes one matrix per SVD call today
        assert first["eigenfunctions.svd_calls"] == first["eigenfunctions.svd_matrices"]


def _run_bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name,trace", [("spectrum-generic", "0"), ("eigfun-degenerate", "1")])
def test_smoke_run_reports_every_metric(name, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    done = _run_bench(["--workload", name, "--seed", "3", "--seconds", "1",
                       "--trace", trace, "--smoke"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = _run_bench(["--workload", "gap-stats", "--seed", "1", "--seconds", "5",
                       "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
