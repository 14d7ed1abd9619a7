"""Command-line runner for the convergence experiments and custom jets.

Subcommands: fig1-real, fig1-complex, fig2, density-demo, custom. Machine
output (CSV or a matrix in the text format) goes to --out when given, else
to stdout; human notes go to stderr. Exit codes: 0 success, 1 bad
configuration or unreadable input, 2 violated route precondition or failed
residual check, 3 failed reference validation.
"""
from __future__ import annotations

import argparse
import math
import sys
from collections import namedtuple
from dataclasses import fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .blocktri import PathJet
from .errors import DimensionMismatch, MatDerivError, ReferenceValidationFailed
from .experiments import (
    ROUTES,
    ExperimentConfig,
    checks_to_csv,
    records_to_csv,
    run_custom,
    run_density_demo,
    run_fig1,
    run_fig2,
)
from .funcs import ALIASES, FUNCTIONS
from .matio import dumps_matrix, read_matrix
from .multiindex import order, resolve_request


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here wants 1."""

    def error(self, message: str):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def _parse_optional(self, arg_string):
        # argparse takes only -N and -N.N as numbers, so "--mu -1e-3" would read
        # -1e-3 as a flag; no flag here parses as a float, so every float is a value
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


# a flag is its name and its add_argument keywords, default included
_SEED = ("--seed", dict(type=int, default=0, help="RNG seed (64-bit PCG64 generator)"))
_OUT = ("--out", dict(type=str, default=None, help="output file (default: stdout)"))
_MU = ("--mu", dict(type=float, default=None, help="chemical potential (default: widest gap)"))
_DETERMINISTIC = ("--deterministic", dict(
    action="store_true", help="zero the runtime column so equal seeds give identical bytes"))


def _n(default: int) -> tuple[str, dict]:
    return "--n", dict(type=int, default=default, help="matrix dimension")


def _grid(h_min: float, points: int) -> tuple[tuple[str, dict], ...]:
    return (
        ("--h-max", dict(type=float, default=1e-1, help="largest step in the grid")),
        ("--h-min", dict(type=float, default=h_min, help="smallest step in the grid")),
        ("--points", dict(type=int, default=points, help="number of grid points")),
    )


def _parse_index(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _config(args: argparse.Namespace) -> ExperimentConfig:
    # knobs the subcommand has no flag for keep defaults that its runner does not read
    names = {f.name for f in fields(ExperimentConfig)}
    return ExperimentConfig(**{k: v for k, v in vars(args).items() if k in names})


def _density_config(args: argparse.Namespace) -> ExperimentConfig:
    # mu needs a level on each side: with one level it has no gap to sit in
    if args.n < 2:
        raise DimensionMismatch(f"density-demo needs --n >= 2, got {args.n}")
    return _config(args)


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
    # no grid: --h-max is the stepped routes' one step
    if args.h_max is not None and not 0.0 < args.h_max < math.inf:
        raise ValueError(f"custom needs a finite step --h-max > 0, got {args.h_max}")
    if not args.jet:
        raise ValueError("custom needs at least one --jet INDEX=FILE term")
    terms = {}
    dim = None
    for item in args.jet:
        key_text, sep, path = item.partition("=")
        if not sep:
            raise ValueError(f"bad --jet value {item!r}; expected INDEX=FILE")
        key = _parse_index(key_text)
        if key in terms:
            raise ValueError(f"{path}: jet term {key} given twice")
        terms[key] = _read_jet_term(key, path, dim)
        dim = terms[key].shape[0]
    if not args.alpha:
        raise ValueError("custom needs --alpha, the multi-index to differentiate, e.g. 1,1")
    alpha = resolve_request(_parse_index(args.alpha), len(next(iter(terms))))
    jet = PathJet(terms=terms, order=max([order(alpha)] + [order(k) for k in terms]))
    routes = args.route or ["blocktri"]
    return jet, alpha, routes


def _cmd_fig1(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    result = run_fig1(cfg, args.command.removeprefix("fig1-"))
    _emit(records_to_csv(result.records), args.out)
    for method, note in result.flags.items():
        print(f"note: {method}: {note}", file=sys.stderr)
    return 0


def _cmd_fig2(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    result = run_fig2(cfg)
    _emit(records_to_csv(result.records), args.out)
    print(
        f"reference validated: extrapolated difference agrees to {result.reference_agreement:.3e}",
        file=sys.stderr,
    )
    orders = " ".join(f"{k}={v:.2f}" for k, v in sorted(result.orders.items()))
    print(f"fitted orders: {orders}", file=sys.stderr)
    return 0


def _cmd_density(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    try:
        result = run_density_demo(cfg, mu=args.mu)
    except ValueError as exc:  # the one input run_density_demo checks is mu
        raise ValueError(f"--mu: {exc}") from exc
    _emit(checks_to_csv(result.checks), args.out)
    print(f"mu = {result.mu!r}, occupied levels = {result.n_occ}", file=sys.stderr)
    if not result.all_passed:
        failed = [c.name for c in result.checks if not c.passed]
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


def _cmd_custom(inputs, args: argparse.Namespace) -> int:
    jet, alpha, routes = inputs
    result = run_custom(jet, args.function, routes, alpha, h=args.h_max)
    _emit(dumps_matrix(result.primary), args.out)
    for left, right, err in result.comparisons:
        print(f"compare,{left},{right},{err!r}", file=sys.stderr)
    return 0


# a subcommand: its help line, the flags its runner reads, the check that turns
# them into the runner's input before anything is computed, and the runner
_Command = namedtuple("_Command", "help flags check run")

_FIG1_FLAGS = (_SEED, *_grid(1e-13, 25), _OUT, _DETERMINISTIC)
_CUSTOM_FLAGS = (
    _SEED,
    _DETERMINISTIC,
    _OUT,
    ("--h-max", dict(type=float, default=None,
                     help="stepped routes' step (default: 1e-5, or 1e-8 at order 1 but for fd)")),
    ("--jet", dict(action="append", metavar="INDEX=FILE",
                   help="jet term, e.g. --jet 0,0=base.txt --jet 1,0=d1.txt (repeatable)")),
    ("--function", dict(choices=sorted(FUNCTIONS) + sorted(ALIASES), default="exp")),
    ("--alpha", dict(type=str, default=None, help="multi-index, e.g. 1,1")),
    ("--route", dict(action="append", choices=list(ROUTES),
                     help="derivative route; repeat to cross-compare (default: blocktri)")),
)
_COMMANDS = {
    "fig1-real": _Command("first-derivative convergence on the unit real scalar",
                          _FIG1_FLAGS, _config, _cmd_fig1),
    "fig1-complex": _Command("first-derivative convergence on random complex scalars",
                             _FIG1_FLAGS, _config, _cmd_fig1),
    "fig2": _Command("mixed second-derivative convergence on a random complex jet",
                     (_SEED, _n(3), *_grid(1e-8, 15), _OUT, _DETERMINISTIC), _config, _cmd_fig2),
    "density-demo": _Command("density-matrix and ground-state derivative checks",
                             (_SEED, _n(6), _MU, _OUT, _DETERMINISTIC),
                             _density_config, _cmd_density),
    "custom": _Command("evaluate a derivative of a user-supplied jet",
                       _CUSTOM_FLAGS, _parse_custom_inputs, _cmd_custom),
}


def build_parser() -> _Parser:
    p = _Parser(prog="matderiv", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for flag, kwargs in command.flags:
            sp.add_argument(flag, **kwargs)
    return p


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = _COMMANDS[args.command]
    try:
        checked = command.check(args)
    except (MatDerivError, ValueError, OSError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        return command.run(checked, args)
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
