"""Child process of bench/run.py.

``worker.py ref`` computes every reference of a workload and saves them.
``worker.py run`` times the workload, checks each op against the saved
references and writes the result as JSON. Each role is a process of its
own, so reference work never shows in the timed process's peak memory.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

import calibrate
import tracing
import workloads as wl

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
MIN_PASSES = 3  # repeats check that outputs repeat; three give a median pass
IMPORT_CODE = ("import time; t = time.perf_counter(); import {mod}; "
               "print(time.perf_counter() - t)")


def child_import_s(module: str, repeats: int, speed: calibrate.Speed) -> list[float]:
    """Import time of ``module`` in fresh interpreters, one untimed first."""
    times = []
    for i in range(repeats + 1):
        speed.sample()
        done = subprocess.run([sys.executable, "-c", IMPORT_CODE.format(mod=module)],
                              capture_output=True, text=True, check=True)
        if i:
            times.append(float(done.stdout.strip()))
    return times


def environment() -> dict[str, Any]:
    import scipy

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


class Ctx:
    """How ops reach the library: plain functions, CLI in a subprocess."""

    def __init__(self, lib, root: Path) -> None:
        self.lib, self.root = lib, root

    def mf(self, name: str):
        return self.lib.get_function(name)

    def sf(self, name: str):
        return self.lib.get_function(name).scalar

    def cli(self, argv: list[str]) -> tuple[int, bytes]:
        # no timeout, as in calibrate.spawn_kernel
        done = subprocess.run([sys.executable, "-m", "matderiv.cli", *argv],
                              capture_output=True, cwd=self.root)
        return done.returncode, done.stdout


class InProcessCtx(Ctx):
    """CLI ops call ``matderiv.cli.main`` in this process."""

    def cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = importlib.import_module("matderiv.cli").main(argv)
        return code, out.getvalue().encode()


class TracedCtx(InProcessCtx):
    """Matrix functions are spans of their own; scalar functions count calls."""

    def __init__(self, lib, root, tracer: tracing.Tracer) -> None:
        super().__init__(lib, root)
        self.tracer = tracer
        self.sf("exp")  # finds out whether scalar calls can be counted

    def mf(self, name):
        inner = self.lib.get_function(name)
        return tracing.TracedMatrixFunction(inner, self.sf(name), self.tracer)

    def sf(self, name):
        return tracing.counting_scalar(self.lib, self.lib.get_function(name).scalar, self.tracer)


def _feed(h, x) -> None:
    if isinstance(x, np.ndarray):
        h.update(f"{x.shape}{x.dtype}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, dict):
        for k in sorted(x):
            h.update(str(k).encode())
            _feed(h, x[k])
    elif isinstance(x, tuple):
        for v in x:
            _feed(h, v)
    elif isinstance(x, bytes):
        h.update(x)
    else:
        h.update(repr(x).encode())


def digest(x) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    _feed(h, x)
    return h.digest()


def _expected(item: wl.Item, verdict: wl.Verdict, exc: BaseException | None) -> bool:
    """Is this failure the known defect its input was kept for?"""
    if item.expect == wl.NEAR_CONFLUENT:
        return exc is None and verdict.reason.startswith("error ")
    if item.expect == wl.MULTILINEAR_DK:
        return type(exc).__name__ == "MissingJetTerm"
    if item.expect == wl.NONSQUARE_EXIT:
        return verdict.reason.startswith("exit code 2,")
    return False


class Checker:
    """Checks every op output; byte-identical repeats reuse the verdict."""

    def __init__(self, workload: wl.Workload, refs: dict[str, dict[str, np.ndarray]]) -> None:
        self.workload, self.refs = workload, refs
        self.seen: dict[int, tuple[bytes, wl.Verdict]] = {}
        self.changed_outputs = 0
        self.records: list[tuple[int, wl.Verdict, bool]] = []

    def verify(self, idx: int, item: wl.Item, out, exc: BaseException | None) -> None:
        if exc is not None:
            verdict = wl.Verdict(False, f"raised {type(exc).__name__}: {exc}"[:160])
        else:
            dig = digest(out)
            first = self.seen.get(idx)
            if first is not None and first[0] == dig:
                verdict = first[1]
            else:
                verdict = self.workload.check(item, out, self.refs.get(item.group, {}))
                if first is None:
                    self.seen[idx] = (dig, verdict)
                else:
                    self.changed_outputs += 1
                    if isinstance(self.workload, wl.CliSweeps):
                        verdict = wl.Verdict(False, "stdout differs between --deterministic repeats")
        expected = not verdict.ok and _expected(item, verdict, exc)
        self.records.append((idx, verdict, expected))


def measure(workload, items, ctx, seconds: float, checker: Checker, speed: calibrate.Speed,
            tracer: tracing.Tracer | None = None, passes: int | None = None):
    """Run whole passes over the pool, timing the calibration kernel before each op.

    Without ``passes``, passes continue while another one is expected to
    fit in ``seconds`` of op time, and at least ``MIN_PASSES`` run. Whole
    passes keep the op mix, and so the median and tail, the same from run
    to run. Only the ops are timed; checks run between them.
    """
    samples: list[tuple[int, int, float]] = []   # (item index, ns, start s)
    op_ns = 0
    done = 0
    while True:
        for idx, item in enumerate(items):
            speed.sample()
            exc = None
            out = None
            start = time.perf_counter()
            t0 = time.perf_counter_ns()
            try:
                if tracer is None:
                    out = workload.run(item, ctx)
                else:
                    out = tracer.op(len(samples), item.key, workload.run, item, ctx)
            except Exception as e:  # an op that raises is a failed op, not a harness error
                exc = e
            dt = time.perf_counter_ns() - t0
            samples.append((idx, dt, start))
            op_ns += dt
            checker.verify(idx, item, out, exc)
        done += 1
        if passes is not None:
            if done >= passes:
                break
        elif done >= MIN_PASSES and op_ns / 1e9 * (done + 1) / done > seconds:
            break
    return samples, done


def tail(lat_ms: list[float]) -> tuple[float, float]:
    """Highest percentile with ten samples beyond it, and that percentile."""
    s = sorted(lat_ms)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def timing(lat_ms: list[float], pool: int) -> dict[str, Any]:
    """Throughput per pass (median over passes), median and tail latency."""
    pass_rates = [pool / (sum(lat_ms[i:i + pool]) / 1e3) for i in range(0, len(lat_ms), pool)]
    tail_ms, tail_pct = tail(lat_ms)
    return {"ops_per_s": statistics.median(pass_rates), "op_p50_ms": statistics.median(lat_ms),
            "op_tail_ms": tail_ms, "tail_percentile": tail_pct,
            "ops_per_s_by_pass": pass_rates}


def summarize(items, samples, checker: Checker, speed: calibrate.Speed) -> tuple[dict, dict]:
    """Metrics from calibrated latencies; raw figures go in the detail."""
    n = len(samples)
    factors = [speed.factor(t, t + ns / 1e9) for _, ns, t in samples]
    raw_ms = [ns / 1e6 for _, ns, _ in samples]
    lat_ms = [ms / f for ms, f in zip(raw_ms, factors)]
    stats = timing(lat_ms, len(items))
    failed = sum(1 for _, v, _ in checker.records if not v.ok)
    unexpected = [(items[i].key.label(), v.reason) for i, v, e in checker.records if not v.ok and not e]
    errs = [v.err for _, v, _ in checker.records if v.ok and v.err is not None]
    worst = max(errs) if errs else None
    stats["pass_frac"] = (n - failed) / n
    stats["min_digits"] = -math.log10(max(worst, 1e-17)) if worst is not None else 0.0
    per_key: dict[str, dict[str, Any]] = {}
    for (idx, _, _), ms, (_, verdict, expected) in zip(samples, lat_ms, checker.records):
        row = per_key.setdefault(items[idx].key.label(), {"ops": 0, "failed": 0, "lat_ms": []})
        row["ops"] += 1
        row["lat_ms"].append(ms)
        if not verdict.ok:
            row["failed"] += 1
            row["reason"] = verdict.reason
            row["known_defect"] = items[idx].expect if expected else None
    for row in per_key.values():
        row["p50_ms"] = statistics.median(row.pop("lat_ms"))
    defects: dict[str, dict[str, int]] = {}
    for idx, verdict, expected in checker.records:
        if items[idx].expect:
            d = defects.setdefault(items[idx].expect, {"attempted": 0, "failed": 0})
            d["attempted"] += 1
            d["failed"] += 0 if verdict.ok else 1
    for d in defects.values():
        d["fail_share_of_all_ops"] = d["failed"] / n
    raw = timing(raw_ms, len(items))
    detail = {
        "attempted": n, "failed": failed, "fail_frac": failed / n,
        "unexpected_failures": sorted(set(unexpected)),
        "known_defects": defects,
        "tail_percentile": stats.pop("tail_percentile"), "tail_samples_beyond": min(10, n - 1),
        "ops_per_s_by_pass": stats.pop("ops_per_s_by_pass"),
        "uncalibrated": {k: raw[k] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms")},
        "slowdown": {"kernel": speed.kind, "median": speed.overall(),
                     "min": min(factors), "max": max(factors),
                     "kernel_ms": [ms for _, ms in speed.samples]},
        "changed_outputs_on_repeat": checker.changed_outputs,
        "worst_exact_error": worst,
        "by_key": per_key,
        "samples": [[idx, ms, f] for (idx, _, _), ms, f in zip(samples, raw_ms, factors)],
    }
    return stats, detail


def load_refs(path: Path) -> dict[str, dict[str, np.ndarray]]:
    refs: dict[str, dict[str, np.ndarray]] = {}
    with np.load(path) as data:
        for name in data.files:
            group, _, part = name.partition(":")
            refs.setdefault(group, {})[part] = data[name]
    return refs


def role_ref(args) -> None:
    import matderiv

    workload = wl.WORKLOADS[args.workload]()
    arrays = {}
    done = set()
    for item in workload.generate(args.seed, lib=matderiv):
        if item.group not in done:
            done.add(item.group)
            for part, arr in workload.reference(item).items():
                arrays[f"{item.group}:{part}"] = arr
    np.savez(args.refs, **arrays)


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def role_run(args) -> None:
    root = Path(args.root)
    workload = wl.WORKLOADS[args.workload]()
    is_cli = isinstance(workload, wl.CliSweeps)
    gen_dir = Path(args.out).parent / f"inputs-{args.workload}-{args.seed}"
    result: dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace}
    import_speed = calibrate.Speed("spawn")
    setup_speed = calibrate.Speed(workload.calibration)
    import_s = child_import_s("matderiv.cli" if args.trace else "matderiv", IMPORT_REPEATS,
                              import_speed)
    import matderiv as lib

    result["environment"] = environment()
    refs = load_refs(Path(args.refs))
    ctx = InProcessCtx(lib, root) if args.trace else Ctx(lib, root)
    setup = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        setup_speed.sample()
        t0 = time.perf_counter()
        items = workload.generate(args.seed, lib, gen_dir)
        workload.run(items[workload.warmup], ctx)
        setup.append(time.perf_counter() - t0)
    checker = Checker(workload, refs)
    speed = calibrate.Speed(workload.calibration)
    samples, passes = measure(workload, items, ctx, args.seconds, checker, speed)
    stats, detail = summarize(items, samples, checker, speed)
    result.update(detail, passes=passes, pool=len(items), oracle=workload.oracle_note)
    import_med = statistics.median(import_s) / import_speed.overall()
    setup_s = import_med + statistics.median(setup) / setup_speed.overall()
    result["setup_parts_s"] = {"import": import_s, "inputs_and_warmup": setup,
                               "import_slowdown": import_speed.overall(),
                               "inputs_and_warmup_slowdown": setup_speed.overall()}
    result["uncalibrated"]["setup_s"] = statistics.median(import_s) + statistics.median(setup)
    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (stats["ops_per_s"], "1/s"),
            "op_p50_ms": (stats["op_p50_ms"], "ms"),
            "op_tail_ms": (stats["op_tail_ms"], "ms"),
            "pass_frac": (stats["pass_frac"], "ratio"),
            "min_digits": (stats["min_digits"], "digits"),
            "peak_rss_mb": (_peak_rss_mb(is_cli), "MB"),
        }
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        tracer = tracing.Tracer()
        traced_ctx = TracedCtx(lib, root, tracer)
        patches = tracing.install(tracer)
        traced_checker = Checker(workload, refs)
        traced_speed = calibrate.Speed(workload.calibration)
        try:
            traced, _ = measure(workload, items, traced_ctx, args.seconds, traced_checker,
                                traced_speed, tracer=tracer, passes=passes)
        finally:
            tracing.uninstall(patches)
        tstats, tdetail = summarize(items, traced, traced_checker, traced_speed)
        overhead = stats["ops_per_s"] / tstats["ops_per_s"] - 1.0
        fs_ops = sum(1 for i, _, _ in traced if items[i].key.route == "frechet_sum")
        metrics, absent = tracing.layer_metrics(
            tracer, len(traced), fs_ops, import_med, overhead)
        result["metrics"] = metrics
        result["absent"] = absent
        result["traced"] = {"attempted": tdetail["attempted"], "failed": tdetail["failed"],
                            "unexpected_failures": tdetail["unexpected_failures"],
                            "ops_per_s": tstats["ops_per_s"], "untraced_ops_per_s": stats["ops_per_s"],
                            "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped}
        result["layers_by_key"] = {
            key.label(): {name: vals for name, vals in sorted(row.items())}
            for key, row in tracing.by_key(tracer).items() if key is not None}
        spans_path = Path(args.out).with_suffix(".spans.jsonl")
        with spans_path.open("w") as fh:
            for sid, name, t0, t1, parent, op in tracer.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": t0, "end_ns": t1,
                                     "parent": parent, "op": op}) + "\n")
        result["spans_file"] = str(spans_path.relative_to(root))
        result["attempted"] += tdetail["attempted"]
        result["failed"] += tdetail["failed"]
        result["unexpected_failures"] = sorted(set(result["unexpected_failures"])
                                               | set(tdetail["unexpected_failures"]))
    Path(args.out).write_text(json.dumps(result))


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("role", choices=("ref", "run"))
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--refs", required=True)
    p.add_argument("--out", default="")
    p.add_argument("--root", default=".")
    args = p.parse_args()
    if args.role == "ref":
        role_ref(args)
    else:
        role_run(args)


if __name__ == "__main__":
    main()
