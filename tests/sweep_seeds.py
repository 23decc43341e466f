"""Run chosen tests at several Hypothesis seeds, each with a fresh example
database, and write what fails as JSON lines.

    python tests/sweep_seeds.py --seeds 0 1 2 --out sweep.jsonl \\
        tests/test_refinement.py::test_star_closed_form_matches_the_svd

Each seed runs ``python -m pytest --hypothesis-seed=SEED TEST...`` in a
new temporary directory, so that no stored example replays and none is
left behind (Hypothesis keeps its database under the working directory).
The output gets one line per failing test, with keys seed, test, example
(the falsifying example Hypothesis printed, or null) and message (the
error's first line), then one summary line per seed with keys seed,
passed, failed and seconds.  The exit status is 1 if any test failed.

Pytest does not collect this file, whose name matches no test pattern.
When pytest loads it as a plugin (``-p sweep_seeds``, as the sweep does
for each seed), it appends each failure to the file named by the
environment variable SWEEP_OUT.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _falsifying_example(text: str) -> str | None:
    """The falsifying example in a failure report, its "E" prefixes gone."""
    lines = [line[1:] if line.startswith("E") else line for line in text.splitlines()]
    starts = [i for i, line in enumerate(lines) if "Falsifying example:" in line]
    if not starts:
        return None
    block = []
    for line in lines[starts[-1]:]:
        if not line.strip() or "You can reproduce" in line or "Explanation:" in line:
            break
        block.append(line)
    indent = min(len(line) - len(line.lstrip()) for line in block)
    return "\n".join(line[indent:] for line in block)


def pytest_runtest_logreport(report):
    """Append a failing test's record to SWEEP_OUT (plugin hook)."""
    if not report.failed:
        return
    crash = getattr(report.longrepr, "reprcrash", None)
    record = {
        "seed": int(os.environ["SWEEP_SEED"]),
        "test": report.nodeid,
        "example": _falsifying_example(report.longreprtext),
        "message": crash.message.splitlines()[0] if crash else report.longreprtext[-300:],
    }
    with open(os.environ["SWEEP_OUT"], "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


def sweep(tests: list, seeds: list, out: Path) -> bool:
    """Run tests once per seed; True if every run passed."""
    out.write_text("", encoding="utf-8")
    clean = True
    for seed in seeds:
        with tempfile.TemporaryDirectory(prefix="sweep-") as workdir:
            env = dict(os.environ, SWEEP_OUT=str(out), SWEEP_SEED=str(seed))
            env["PYTHONPATH"] = os.pathsep.join(
                [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH", "")]
            )
            before = sum(1 for _ in open(out, encoding="utf-8"))
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "-p", "sweep_seeds", f"--rootdir={ROOT}", f"--hypothesis-seed={seed}",
                 *(str(ROOT / test) for test in tests)],
                cwd=workdir, env=env, capture_output=True, text=True,
            )
            seconds = time.perf_counter() - start
        failed = sum(1 for _ in open(out, encoding="utf-8")) - before
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
        passed = int(last.split(" passed")[0].split()[-1]) if " passed" in last else 0
        if done.returncode not in (0, 1):  # usage error, no tests, or interrupted
            raise SystemExit(
                f"pytest exited {done.returncode} at seed {seed}:\n{done.stdout[-2000:]}"
            )
        summary = {"seed": seed, "passed": passed, "failed": failed, "seconds": round(seconds, 1)}
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(summary) + "\n")
        print(json.dumps(summary), flush=True)
        clean = clean and failed == 0 and done.returncode == 0
    return clean


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tests", nargs="+", help="test ids, relative to the repository root")
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    parser.add_argument("--out", type=Path, required=True, help="JSON lines file to write")
    args = parser.parse_args(argv)
    return 0 if sweep(args.tests, args.seeds, args.out.resolve()) else 1


if __name__ == "__main__":
    sys.exit(main())
