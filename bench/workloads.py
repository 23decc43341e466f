"""Seeded workload generator for the graphspectra benchmark.

A workload is a list of CLI jobs.  Each job is one ``graphspectra``
invocation on a graph JSON file written in the ``fixtures/`` schema.
Job ``i`` of a workload depends only on (workload, seed, i), never on
how many jobs the run asks for, so a longer run extends a shorter one
and the stored reference covers the same jobs at every run length.

Jobs cycle through graph families (and, where there are several,
commands and targets) in a fixed order, so every stretch of one cycle
covers every combination once.  The seed draws the edge lengths,
Robin vertex sets and coupling strengths; the per-job cost depends
mainly on the family, so the job mix, and with it the run-level
figures, stays the same from seed to seed.

Every job passes an explicit ``--nmax`` or ``--kmax``: the CLI default
of 2500 is not wired through to the solver.  ``cdf`` gets no
``--step-scale`` or ``--tol`` because it ignores both.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = {
    "spectrum-generic": (
        "spectrum at fixed nmax (half as an equivalent kmax) on random stars, "
        "K4 and loop/multi-edge/chain graphs: count-1 bisection dominates, "
        "no eigenfunctions or stats"
    ),
    "gap-stats": (
        "rng, cdf and weyl on coupled incommensurate graphs: two spectra per "
        "job at different couplings, batched kernel SVD, stats, bounds, n-row CSV"
    ),
    "eigfun-degenerate": (
        "sensitivity on equilateral and rational stars and equilateral K4: over half "
        "the indices in multiple records, so count>=2 brackets, per-index SVD and real gauge"
    ),
}

# Eigenvalue counts per job.  Per-eigenvalue cost hardly depends on n
# (bisection depth grows like log k), so these are sized for run length:
# a 24 s run must hold about 40 jobs for a tail percentile with ten jobs
# beyond it.  Smoke runs use the small counts.
JOB_N = {"spectrum-generic": 150, "gap-stats": 110, "eigfun-degenerate": 300}
SMOKE_N = {"spectrum-generic": 24, "gap-stats": 30, "eigfun-degenerate": 40}

SPECTRUM_FAMILIES = ("star3", "star5", "loopy", "k4", "star8")
GAP_FAMILIES = ("star3", "star4", "star5", "k4")
GAP_COMMANDS = ("rng", "cdf", "weyl")
EIGFUN_FAMILIES = ("equilateral-star", "rational-star", "equilateral-k4")

K4_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# Odd multiples of one length: cos(k l) vanishes on every edge at once
# at k l_1 = (m + 1/2) pi, which makes those eigenvalues double.
RATIONAL_STAR_RATIOS = (1, 3, 5)


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the graph it runs on."""

    job_id: int
    workload: str
    family: str
    command: str
    graph: dict
    n_max: int | None
    k_max: float | None
    graph_path: str

    @property
    def argv(self) -> list:
        argv = [self.command, "--graph", self.graph_path]
        if self.n_max is not None:
            argv += ["--nmax", str(self.n_max)]
        else:
            argv += ["--kmax", repr(self.k_max)]
        return argv


def _log_uniform(rnd: random.Random, lo: float, hi: float) -> float:
    return math.exp(rnd.uniform(math.log(lo), math.log(hi)))


def _robin_set(rnd: random.Random, num_vertices: int) -> list:
    chosen = [v for v in range(num_vertices) if rnd.random() < 0.5]
    return chosen or [rnd.randrange(num_vertices)]


def _mapping(num_vertices: int, edges, robin_vertices, sigma: float) -> dict:
    return {
        "vertices": num_vertices,
        "edges": [{"u": u, "v": v, "len": length} for u, v, length in edges],
        "robin": {"vertices": sorted(robin_vertices), "sigma": sigma},
    }


def _random_graph(family: str, rnd: random.Random) -> dict:
    """Incommensurate family member with a random Robin set and sigma."""
    if family.startswith("star"):
        d = int(family[4:])
        pairs = [(0, i + 1) for i in range(d)]
        num_vertices = d + 1
    elif family == "k4":
        pairs = K4_PAIRS
        num_vertices = 4
    elif family == "loopy":
        # loop at 0, double edge 0-1, chain 1-2-3 through the degree-2 vertex 2
        pairs = ((0, 0), (0, 1), (0, 1), (1, 2), (2, 3))
        num_vertices = 4
    else:
        raise ValueError(f"unknown family {family!r}")
    edges = [(u, v, _log_uniform(rnd, 0.5, 2.0)) for u, v in pairs]
    robin = _robin_set(rnd, num_vertices)
    return _mapping(num_vertices, edges, robin, _log_uniform(rnd, 0.01, 100.0))


def _degenerate_graph(family: str, rnd: random.Random, variant: int) -> dict:
    length = _log_uniform(rnd, 0.5, 2.0)
    sigma = _log_uniform(rnd, 0.1, 10.0)
    if family == "equilateral-star":
        return _mapping(5, [(0, i + 1, length) for i in range(4)], [0], sigma)
    if family == "rational-star":
        edges = [(0, i + 1, r * length) for i, r in enumerate(RATIONAL_STAR_RATIOS)]
        return _mapping(len(edges) + 1, edges, [0], sigma)
    if family == "equilateral-k4":
        # The coupled set shapes the degeneracy and so the cost; cycling
        # it by job keeps every seed's mix the same.
        edges = [(u, v, length) for u, v in K4_PAIRS]
        return _mapping(4, edges, range(1 + variant % 4), sigma)
    raise ValueError(f"unknown family {family!r}")


def total_length(graph: dict) -> float:
    return sum(e["len"] for e in graph["edges"])


def _job_spec(workload: str, seed: int, i: int, n: int):
    """(family, command, graph, n_max, k_max) of job i."""
    rnd = random.Random(f"{workload}/{seed}/{i}")
    if workload == "spectrum-generic":
        family = SPECTRUM_FAMILIES[i % len(SPECTRUM_FAMILIES)]
        graph = _random_graph(family, rnd)
        if i % 2 == 0:
            return family, "spectrum", graph, n, None
        # Weyl's law: N(k) ~ k |G| / pi, so this k_max yields about n rows.
        return family, "spectrum", graph, None, math.pi * n / total_length(graph)
    if workload == "gap-stats":
        family = GAP_FAMILIES[i % len(GAP_FAMILIES)]
        command = GAP_COMMANDS[i % len(GAP_COMMANDS)]
        return family, command, _random_graph(family, rnd), n, None
    if workload == "eigfun-degenerate":
        family = EIGFUN_FAMILIES[i % len(EIGFUN_FAMILIES)]
        graph = _degenerate_graph(family, rnd, i // len(EIGFUN_FAMILIES))
        return family, "sensitivity", graph, n, None
    raise ValueError(f"unknown workload {workload!r}")


def cycle_length(workload: str) -> int:
    """Jobs needed to cover every family/command/target combination once."""
    return {
        "spectrum-generic": 2 * len(SPECTRUM_FAMILIES),
        "gap-stats": len(GAP_FAMILIES) * len(GAP_COMMANDS),
        "eigfun-degenerate": len(EIGFUN_FAMILIES),
    }[workload]


def make_jobs(workload: str, seed: int, count: int, workdir: Path, *, smoke=False):
    """Write the graph files of jobs 0..count-1 into workdir; return the jobs."""
    n = (SMOKE_N if smoke else JOB_N)[workload]
    Path(workdir).mkdir(parents=True, exist_ok=True)
    jobs = []
    for i in range(count):
        family, command, graph, n_max, k_max = _job_spec(workload, seed, i, n)
        path = Path(workdir) / f"job{i:04d}.json"
        path.write_text(json.dumps(graph, indent=2) + "\n", encoding="utf-8")
        jobs.append(Job(i, workload, family, command, graph, n_max, k_max, str(path)))
    return jobs
