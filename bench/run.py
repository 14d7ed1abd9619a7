"""matderiv benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload exact-jets --seed 1 --seconds 20 --trace 0

Workloads: exact-jets, spectral-dk, density-response, cli-sweeps (see
BENCHMARK.json for why each exists). The library is imported from
``src/`` of the checkout; nothing is installed. One caller drives the
library in a closed loop, with no concurrency.

Two child processes do the work, both with the BLAS pinned to one
thread: the first computes the references every output is checked
against, the second times the workload, so its peak memory is the
workload's own. With ``--trace 0`` the last line of stdout holds the
end-to-end metrics; with ``--trace 1`` the same ops run again with spans
around every call into a matderiv module, and the last line holds the
per-layer metrics. The line before it is the full report: environment,
failures by cause, known-defect shares, and per-key (route, n, alpha)
tables. Reports and span dumps are also written under
``.bench_build/matderiv/``.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 175.0
BLAS_THREADS = "1"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(args: list[str], deadline: float) -> None:
    """Run a worker in its own process group; on timeout kill the group."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for " + args[0])
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], env=child_env(),
                            cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "matderiv" / "__init__.py").is_file():
        print(f"bench: no matderiv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_build" / "matderiv"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    refs = out_dir / f"refs-{args.workload}-{args.seed}.npz"
    result_path = out_dir / f"{stem}.json"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--refs", str(refs)]
    try:
        run_child(["ref", *common], deadline)
        run_child(["run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out", str(result_path), "--root", str(ROOT)], deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, TimeoutError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    report = json.loads(result_path.read_text())
    metrics = report.pop("metrics")
    print(json.dumps(report))
    print(json.dumps({
        "correct": not report["unexpected_failures"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
