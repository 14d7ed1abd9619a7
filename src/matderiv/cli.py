"""Command-line runner for the convergence experiments and custom jets.

Subcommands: fig1-real, fig1-complex, fig2, density-demo, custom. Machine
output (CSV or a matrix in the text format) goes to --out when given, else
to stdout; human notes go to stderr. Exit codes: 0 success, 1 bad
configuration or unreadable input, 2 violated route precondition or failed
residual check, 3 failed reference validation.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, MatDerivError, ReferenceValidationFailed
from .experiments import (
    CUSTOM_ROUTES,
    ExperimentConfig,
    checks_to_csv,
    records_to_csv,
    run_custom,
    run_density_demo,
    run_fig1,
    run_fig2,
)
from .funcs import FUNCTIONS
from .matio import dumps_matrix, read_matrix
from .multiindex import resolve_request

_GRID_DEFAULTS = {
    "fig1-real": dict(n=1, h_max=1e-1, h_min=1e-13, points=25),
    "fig1-complex": dict(n=1, h_max=1e-1, h_min=1e-13, points=25),
    "fig2": dict(n=3, h_max=1e-1, h_min=1e-8, points=15),
    "density-demo": dict(n=6, h_max=1e-1, h_min=1e-8, points=15),
    "custom": dict(n=3, h_max=None, h_min=1e-8, points=15),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here wants 1."""

    def error(self, message: str):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_shared(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=0, help="RNG seed (64-bit PCG64 generator)")
    sp.add_argument("--n", type=int, default=None, help="matrix dimension")
    sp.add_argument("--h-max", type=float, default=None, help="largest step in the grid")
    sp.add_argument("--h-min", type=float, default=None, help="smallest step in the grid")
    sp.add_argument("--points", type=int, default=None, help="number of grid points")
    sp.add_argument("--out", type=str, default=None, help="output file (default: stdout)")
    sp.add_argument(
        "--deterministic",
        action="store_true",
        help="zero the runtime column so equal seeds give identical bytes",
    )


def build_parser() -> _Parser:
    p = _Parser(prog="matderiv", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name, desc in [
        ("fig1-real", "first-derivative convergence on the unit real scalar"),
        ("fig1-complex", "first-derivative convergence on random complex scalars"),
        ("fig2", "mixed second-derivative convergence on a random complex jet"),
    ]:
        sp = sub.add_parser(name, help=desc)
        _add_shared(sp)

    sp = sub.add_parser("density-demo", help="density-matrix and ground-state derivative checks")
    _add_shared(sp)
    sp.add_argument("--mu", type=float, default=None, help="chemical potential (default: widest gap)")

    sp = sub.add_parser("custom", help="evaluate a derivative of a user-supplied jet")
    _add_shared(sp)
    sp.add_argument(
        "--jet",
        action="append",
        metavar="INDEX=FILE",
        help="jet term, e.g. --jet 0,0=base.txt --jet 1,0=d1.txt (repeatable)",
    )
    sp.add_argument(
        "--function",
        choices=sorted(FUNCTIONS) + ["identity", "x1", "x2", "x3"],
        default="exp",
    )
    sp.add_argument("--alpha", type=str, default=None, help="multi-index, e.g. 1,1")
    sp.add_argument("--dirs", type=str, default=None, help="direction list, e.g. 1,2")
    sp.add_argument(
        "--route",
        action="append",
        choices=list(CUSTOM_ROUTES),
        help="derivative route; repeat to cross-compare (default: blocktri)",
    )
    return p


def _parse_index(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _config(args: argparse.Namespace) -> ExperimentConfig:
    defaults = _GRID_DEFAULTS[args.command]
    h_max = args.h_max if args.h_max is not None else defaults["h_max"]
    return ExperimentConfig(
        seed=args.seed,
        n=args.n if args.n is not None else defaults["n"],
        h_max=h_max if h_max is not None else 1e-1,
        h_min=args.h_min if args.h_min is not None else defaults["h_min"],
        points=args.points if args.points is not None else defaults["points"],
        deterministic=args.deterministic,
        out=args.out,
    )


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_jet_term(key: tuple[int, ...], path: str, dim: int | None) -> np.ndarray:
    """Read one --jet file and reject what no route can use, naming the file."""
    m = read_matrix(path)
    rows, cols = m.shape
    if rows != cols:
        raise DimensionMismatch(f"{path}: jet term {key} is {rows}x{cols}, not square")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{path}: jet term {key} has non-finite entries")
    if dim is not None and rows != dim:
        raise DimensionMismatch(f"{path}: jet term {key} has dim {rows}, expected {dim}")
    return m


def _parse_custom_inputs(args: argparse.Namespace):
    if not args.jet:
        raise ValueError("custom needs at least one --jet INDEX=FILE term")
    terms = {}
    dim = None
    for item in args.jet:
        key_text, sep, path = item.partition("=")
        if not sep:
            raise ValueError(f"bad --jet value {item!r}; expected INDEX=FILE")
        key = _parse_index(key_text)
        terms[key] = _read_jet_term(key, path, dim)
        dim = terms[key].shape[0]
    alpha_arg = _parse_index(args.alpha) if args.alpha else None
    dirs_arg = _parse_index(args.dirs) if args.dirs else None
    nvars = len(next(iter(terms)))
    alpha, _ = resolve_request(alpha_arg, dirs_arg, nvars)
    routes = args.route or ["blocktri"]
    return terms, alpha, routes


def _cmd_fig1(cfg: ExperimentConfig, variant: str) -> int:
    result = run_fig1(cfg, variant)
    _emit(records_to_csv(result.records), cfg.out)
    for method, note in result.flags.items():
        print(f"note: {method}: {note}", file=sys.stderr)
    return 0


def _cmd_fig2(cfg: ExperimentConfig) -> int:
    result = run_fig2(cfg)
    _emit(records_to_csv(result.records), cfg.out)
    print(
        f"reference validated: extrapolated difference agrees to {result.reference_agreement:.3e}",
        file=sys.stderr,
    )
    orders = " ".join(f"{k}={v:.2f}" for k, v in sorted(result.orders.items()))
    print(f"fitted orders: {orders}", file=sys.stderr)
    return 0


def _cmd_density(cfg: ExperimentConfig, mu: float | None) -> int:
    result = run_density_demo(cfg, mu=mu)
    _emit(checks_to_csv(result.checks), cfg.out)
    print(f"mu = {result.mu!r}, occupied levels = {result.n_occ}", file=sys.stderr)
    if not result.all_passed:
        failed = [c.name for c in result.checks if not c.passed]
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


def _cmd_custom(cfg: ExperimentConfig, args: argparse.Namespace, inputs) -> int:
    terms, alpha, routes = inputs
    result = run_custom(terms, args.function, routes, alpha, h=args.h_max)
    _emit(dumps_matrix(result.primary), cfg.out)
    for left, right, err in result.comparisons:
        print(f"compare,{left},{right},{err!r}", file=sys.stderr)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config(args)
        custom_inputs = _parse_custom_inputs(args) if args.command == "custom" else None
    except (MatDerivError, ValueError, OSError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "fig1-real":
            return _cmd_fig1(cfg, "real")
        if args.command == "fig1-complex":
            return _cmd_fig1(cfg, "complex")
        if args.command == "fig2":
            return _cmd_fig2(cfg)
        if args.command == "density-demo":
            return _cmd_density(cfg, args.mu)
        return _cmd_custom(cfg, args, custom_inputs)
    except ReferenceValidationFailed as exc:
        print(f"reference validation failed: {exc}", file=sys.stderr)
        return 3
    except MatDerivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"runtime input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
