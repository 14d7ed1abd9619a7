"""Spans around the calls into each matderiv module, installed from outside.

Every public function defined in a layer module is wrapped, and the
wrapper is bound in every ``matderiv`` namespace that binds the original
object, because the modules import each other's functions by name. Each
span records its name, start, end, parent and op id; self time is the
span's duration minus the time its children cover. Spans are kept in
memory up to ``SPAN_CAP`` and aggregated per op key without limit.

A layer metric whose hook target no longer exists is reported as absent
rather than failing the run.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable

LAYERS = ("blocktri", "funcs", "linalg", "cstep", "divdiff", "multiindex",
          "qperturb", "experiments", "matio", "cli")
SPAN_CAP = 100_000
OP_SPAN = "bench.op"
F_EVAL = "funcs.f_eval"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.dropped = 0
        self.self_ns: dict[tuple[Any, str], int] = defaultdict(int)
        self.calls: dict[tuple[Any, str], int] = defaultdict(int)
        self.counters: dict[tuple[Any, str], float] = defaultdict(float)
        self.maxima: dict[tuple[Any, str], float] = defaultdict(float)
        self.hooked: set[str] = set()
        self.scalar_counted = False
        self._stack: list[list[int]] = []   # [child_ns, span id] per open span
        self._next = 0
        self.key: Any = None
        self.op_id = -1

    def span(self, name: str, fn: Callable, *args, **kwargs):
        sid = self._next
        self._next += 1
        frame = [0, sid]
        parent = self._stack[-1][1] if self._stack else -1
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            dur = t1 - t0
            if self._stack:
                self._stack[-1][0] += dur
            k = (self.key, name)
            self.self_ns[k] += dur - frame[0]
            self.calls[k] += 1
            if len(self.spans) < SPAN_CAP:
                self.spans.append((sid, name, t0, t1, parent, self.op_id))
            else:
                self.dropped += 1

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[(self.key, name)] += value

    def maximum(self, name: str, value: float) -> None:
        k = (self.key, name)
        self.maxima[k] = max(self.maxima[k], value)

    def op(self, op_id: int, key: Any, fn: Callable, *args):
        self.op_id, self.key = op_id, key
        return self.span(OP_SPAN, fn, *args)

    def wrap(self, name: str, fn: Callable, post: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            if post is not None:
                post(tracer, result)
            return result

        return traced


def _embedding_post(tracer: Tracer, x) -> None:
    dim = x.shape[0]
    tracer.maximum("blocktri.embed_dim_max", dim)
    tracer.count("blocktri.embed_bytes", 16.0 * dim * dim)


POST_HOOKS = {"blocktri.build_xk": _embedding_post}


def install(tracer: Tracer) -> list[tuple[Any, str, Any]]:
    """Wrap the layers' public functions; return what to restore."""
    modules = {}
    for short in LAYERS:
        try:
            modules[short] = importlib.import_module(f"matderiv.{short}")
        except ImportError:
            continue
    namespaces = [m for name, m in sys.modules.items()
                  if m is not None and (name == "matderiv" or name.startswith("matderiv."))]
    patches = []
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            wrapper = tracer.wrap(name, obj, POST_HOOKS.get(name))
            tracer.hooked.add(name)
            for ns in namespaces:
                for bound_name, bound in list(vars(ns).items()):
                    if bound is obj:
                        patches.append((ns, bound_name, obj))
                        setattr(ns, bound_name, wrapper)
    return patches


def uninstall(patches: list[tuple[Any, str, Any]]) -> None:
    for ns, name, obj in reversed(patches):
        setattr(ns, name, obj)


class TracedMatrixFunction:
    """Matrix function whose evaluation is its own span, with N^3 counted."""

    def __init__(self, inner, scalar, tracer: Tracer) -> None:
        self.inner, self.scalar, self.tracer = inner, scalar, tracer

    @property
    def name(self) -> str:
        return self.inner.name

    def __call__(self, a):
        dim = len(a)
        self.tracer.count("funcs.f_eval.n3_sum", float(dim) ** 3)
        return self.tracer.span(F_EVAL, self.inner, a)


def counting_scalar(lib, inner, tracer: Tracer):
    """ScalarFunction that counts evaluations and derivative calls.

    ``divided_difference`` asks for derivatives only in its confluent branch.
    If ScalarFunction no longer takes these fields, ``inner`` is returned and
    the two counters are reported absent.
    """

    def ev(x):
        tracer.count("divdiff.scalar_evals")
        return inner.eval_fn(x)

    def dv(x, order):
        tracer.count("divdiff.confluent_derivs")
        return inner.deriv_fn(x, order)

    try:
        counted = lib.ScalarFunction(name=inner.name, eval_fn=ev, deriv_fn=dv,
                                     max_order=inner.max_order)
    except (AttributeError, TypeError):
        return inner
    tracer.scalar_counted = True
    return counted


# Per-layer metric -> (unit, how to compute it). Self times and call counts
# are per op over the traced ops; "max" metrics are the largest value seen.
SELF = "self"
CALLS = "calls"
METRICS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "funcs.f_eval.self_ms": ("ms", SELF, (F_EVAL,)),
    "funcs.f_eval.calls": ("count", CALLS, (F_EVAL,)),
    "funcs.f_eval.n3_sum": ("count", "counter", ("funcs.f_eval.n3_sum",)),
    "blocktri.build_xk.self_ms": ("ms", SELF, ("blocktri.build_xk",)),
    "blocktri.build_xk.calls": ("count", CALLS, ("blocktri.build_xk",)),
    "blocktri.embed_dim_max": ("count", "max", ("blocktri.embed_dim_max",)),
    "blocktri.embed_bytes": ("B", "counter", ("blocktri.embed_bytes",)),
    "blocktri.frechet_terms_per_op": ("count", "frechet_terms", ("blocktri.frechet_via_blocktri",)),
    "cstep.block_embed.self_ms": ("ms", SELF, ("cstep.block_embed",)),
    "cstep.step_route.self_ms": ("ms", SELF, (
        "cstep.cs_frechet_1", "cstep.cs_frechet_2", "cstep.cs_partial_2", "cstep.hybrid_partial_2",
        "cstep.central_fd_1", "cstep.central_fd_2_mixed", "cstep.regular_cs_1")),
    "multiindex.s_partitions.self_ms": ("ms", SELF, ("multiindex.s_partitions",)),
    "multiindex.t_permutations.self_ms": ("ms", SELF, ("multiindex.t_permutations",)),
    "divdiff.dk_general.self_ms": ("ms", SELF, ("divdiff.dk_general",)),
    "divdiff.divided_difference.calls": ("count", CALLS, ("divdiff.divided_difference",)),
    "divdiff.scalar_evals": ("count", "counter", ("divdiff.scalar_evals",)),
    "divdiff.confluent_derivs": ("count", "counter", ("divdiff.confluent_derivs",)),
    "divdiff.jet_to_eigenbasis.self_ms": ("ms", SELF, ("divdiff.jet_to_eigenbasis",)),
    "linalg.hermitian_eig.self_ms": ("ms", SELF, ("linalg.hermitian_eig",)),
    "linalg.hermitian_eig.calls_per_op": ("count", CALLS, ("linalg.hermitian_eig",)),
    "qperturb.density_deriv_1.self_ms": ("ms", SELF, ("qperturb.density_deriv_1",)),
    "qperturb.density_deriv_2.self_ms": ("ms", SELF, ("qperturb.density_deriv_2",)),
    "qperturb.eigvec_correction.self_ms": ("ms", SELF, (
        "qperturb.eigvec_correction_1", "qperturb.eigvec_correction_2")),
    "cli.import_s": ("s", "import", ()),
    "experiments.run_fig.self_ms": ("ms", SELF, (
        "experiments.run_fig1", "experiments.run_fig2", "experiments.run_density_demo")),
    "experiments.rel_error.self_ms": ("ms", SELF, ("experiments.rel_error",)),
    "linalg.spectral_norm.self_ms": ("ms", SELF, ("linalg.spectral_norm",)),
    "matio.read_matrix.self_ms": ("ms", SELF, ("matio.read_matrix",)),
    "experiments.run_custom.self_ms": ("ms", SELF, ("experiments.run_custom",)),
    "trace.overhead_frac": ("ratio", "overhead", ()),
}
# Targets the benchmark provides itself, so they never go missing.
OWN_TARGETS = {F_EVAL, "funcs.f_eval.n3_sum", "blocktri.embed_dim_max", "blocktri.embed_bytes"}


def layer_metrics(tracer: Tracer, n_ops: int, frechet_sum_ops: int, import_s: float,
                  overhead: float) -> tuple[dict, list[str]]:
    """Per-layer metrics for the whole traced run, and the names absent."""
    def total(table, names):
        return sum(v for (_, name), v in table.items() if name in names)

    present = tracer.hooked | OWN_TARGETS
    if tracer.scalar_counted:
        present |= {"divdiff.scalar_evals", "divdiff.confluent_derivs"}
    out, absent = {}, []
    for metric, (unit, kind, names) in METRICS.items():
        if names and not any(n in present for n in names):
            absent.append(metric)
            out[metric] = {"value": 0.0, "unit": unit}
            continue
        if kind == SELF:
            value = total(tracer.self_ns, names) / 1e6 / n_ops
        elif kind == CALLS:
            value = total(tracer.calls, names) / n_ops
        elif kind == "counter":
            value = total(tracer.counters, names) / n_ops
        elif kind == "max":
            value = max((v for (_, n), v in tracer.maxima.items() if n in names), default=0.0)
        elif kind == "frechet_terms":
            calls = sum(v for (key, n), v in tracer.calls.items()
                        if n in names and key is not None and key.route == "frechet_sum")
            value = calls / frechet_sum_ops if frechet_sum_ops else 0.0
        elif kind == "import":
            value = import_s
        else:
            value = overhead
        out[metric] = {"value": value, "unit": unit}
    return out, absent


def by_key(tracer: Tracer) -> dict[Any, dict[str, dict[str, float]]]:
    """Self ms, calls and counters per op, by op key and span name."""
    table: dict[Any, dict[str, dict[str, float]]] = defaultdict(lambda: defaultdict(dict))
    ops = {key: calls for (key, name), calls in tracer.calls.items() if name == OP_SPAN}
    for (key, name), ns in tracer.self_ns.items():
        table[key][name]["self_ms_per_op"] = ns / 1e6 / ops[key]
        table[key][name]["calls_per_op"] = tracer.calls[(key, name)] / ops[key]
    for (key, name), v in tracer.counters.items():
        table[key][name]["per_op"] = v / ops[key]
    for (key, name), v in tracer.maxima.items():
        table[key][name]["max"] = v
    return table
