"""Stepped derivative approximations on blocktri's coefficient rule.

``blocktri._jet_coeffs`` gives each stepped copy of a direction its own
imaginary unit (j^2 = -1) carrying h times its jet terms, in the same
``linalg.ShiftJet`` as the exact routes. cs steps every copy and hybrid
only the last (|alpha| >= 2); both read the derivative off one f of the
block matrix, with no subtractive cancellation, at any order. fd steps
every copy and realises each unit as j = +1 and j = -1 (the split-complex
step), which is the central difference stencil; it stays at
|alpha| <= 2, where its default step suits. A stepped result that is not
finite raises DomainError. The classic imaginary step on real data is
provided alongside as a baseline.
"""
from __future__ import annotations

import itertools
import math
import warnings
from typing import Callable

import numpy as np

from .blocktri import PathJet, _corner, _jet_coeffs, jet_from_directions
from .errors import DimensionMismatch, DomainError, NotReal
from .linalg import as_matrix, frobenius
from .multiindex import as_index, order, resolve_request

DEFAULT_H_FIRST = 1e-8
DEFAULT_H_SECOND = 1e-5
# largest imaginary entry regular_cs_1 still treats as real data
REAL_IMAG_TOL = 1e-14

MatrixCallable = Callable[[np.ndarray], np.ndarray]


def _over_step(top, h: float, k: int, base, scale: float = 1.0, stacklevel: int = 4) -> np.ndarray:
    """``top / (scale h^k)``: warns when h^k falls below the normal floating
    range at the scale of ``base``, and raises DomainError unless finite."""
    norm = frobenius(base)
    if abs(h) ** k <= float(np.finfo(np.float64).tiny) * max(norm, 1.0):
        warnings.warn(
            f"step {h:.3e} to the power {k} falls below the normal floating range "
            f"at scale {norm:.3e}; results will be dominated by rounding",
            RuntimeWarning,
            stacklevel=stacklevel,
        )
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = top / (scale * math.prod([h] * k))
    if not np.all(np.isfinite(out)):
        raise DomainError(f"step {h:.3e} gave a non-finite derivative")
    return out


def _block_step(f: MatrixCallable, jet: PathJet, alpha, h: float, stepped: int) -> np.ndarray:
    """Derivative ``alpha`` from one f of the embedding stepping the last ``stepped`` copies."""
    top = _corner(f, jet, resolve_request(alpha, jet.nvars), stepped, h)
    return _over_step(top, h, stepped, jet.base)


def _central_fd(f: MatrixCallable, jet: PathJet, alpha, h: float) -> np.ndarray:
    """Derivative ``alpha`` from the 2^k sign corners of the all-stepped
    coefficients, each imaginary unit realised as j = +1 and j = -1."""
    a = resolve_request(alpha, jet.nvars)
    k = order(a)
    if k > 2:
        raise DimensionMismatch(f"route fd supports |alpha| <= 2, got {a}")
    coeffs, _ = _jet_coeffs(jet, a, k, h)
    total = None
    for signs in itertools.product((1, -1), repeat=k):
        x = None
        for digits, c in coeffs.items():
            neg = math.prod(s for s, d in zip(signs, digits) if d) < 0
            x = c if x is None else x - c if neg else x + c
        fx = f(x)
        total = fx if total is None else total - fx if math.prod(signs) < 0 else total + fx
    return _over_step(total, h, k, jet.base, 2.0 ** k)


def cs_frechet_1(f: MatrixCallable, a0, e1, h: float = DEFAULT_H_FIRST) -> np.ndarray:
    """First directional derivative by a one-level block step.

    Works for complex inputs, unlike the regular complex step: the step
    lives on a fresh unit, not on the matrix's own imaginary part.
    """
    return _block_step(f, jet_from_directions(a0, [e1]), (1,), h, 1)


def cs_partial_2(f: MatrixCallable, jet: PathJet, alpha, h: float = DEFAULT_H_SECOND) -> np.ndarray:
    """Partial derivative ``alpha`` of any order by a multicomplex block step.

    Every copy of the directions, repeated ones included, gets its own
    imaginary unit; the jet's cross terms ride on the products of the
    units, so the chain rule's path-curvature contributions are included.
    """
    return _block_step(f, jet, alpha, h, order(alpha))


def hybrid_partial_2(
    f: MatrixCallable, jet: PathJet, alpha, h: float = DEFAULT_H_SECOND
) -> np.ndarray:
    """Partial derivative ``alpha`` (|alpha| >= 2): exact shifts inside one step.

    Nilpotent shifts differentiate exactly in every copy but the last, on
    which the outer imaginary unit steps. Only one factor of h appears, so
    the truncation behaves like a first derivative's.
    """
    if order(alpha) < 2:
        raise DimensionMismatch(f"route hybrid needs |alpha| >= 2, got {as_index(alpha)}")
    return _block_step(f, jet, alpha, h, 1)


def central_fd_1(f: MatrixCallable, a0, e1, h: float) -> np.ndarray:
    """Two-point central difference for a first directional derivative."""
    return _central_fd(f, jet_from_directions(a0, [e1]), (1,), h)


def central_fd_2_mixed(f: MatrixCallable, jet: PathJet, h: float, alpha) -> np.ndarray:
    """Four-point stencil for the second-order partial derivative ``alpha``:
    the corners (+-h, +-h), the cross term signed by the product of both."""
    if order(alpha) != 2:
        raise DimensionMismatch(f"second-order stencil needs |alpha| = 2, got {as_index(alpha)}")
    return _central_fd(f, jet, alpha, h)


def regular_cs_1(
    f: MatrixCallable, a0, e1, h: float = DEFAULT_H_FIRST
) -> np.ndarray:
    """Classic complex step: imaginary part of f(a0 + i h e1) over h.

    Only meaningful when the data is real, because the step shares the
    matrix's own imaginary unit; complex inputs raise NotReal.
    """
    a0 = as_matrix(a0, "a0")
    e1 = as_matrix(e1, "e1")
    if np.max(np.abs(a0.imag)) > REAL_IMAG_TOL or np.max(np.abs(e1.imag)) > REAL_IMAG_TOL:
        raise NotReal("regular complex step requires real input matrices")
    return _over_step(np.imag(f(a0.real + 1j * h * e1.real)), h, 1, a0, stacklevel=3)
