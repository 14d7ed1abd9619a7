"""Complex-step style derivative approximations built from block embeddings.

A multicomplex number with units j_1, ..., j_L (each squaring to -1) is
represented as a block matrix of its coefficients by ``blocktri.embed``;
applying a matrix function to that representation and reading one block
realizes high-order step derivatives without subtractive cancellation.
The same builder with a nilpotent shift of size 2 inside one imaginary
unit gives the hybrid scheme. Plain central differences and the classic
imaginary-step trick are provided alongside as baselines.
"""
from __future__ import annotations

import warnings
from typing import Callable

import numpy as np

from .blocktri import IMAG, PathJet, embed
from .errors import DimensionMismatch, NotReal
from .linalg import as_matrix, extract_block, frobenius
from .multiindex import as_index, order, split_last

DEFAULT_H_FIRST = 1e-8
DEFAULT_H_SECOND = 1e-5
# largest imaginary entry regular_cs_1 still treats as real data
REAL_IMAG_TOL = 1e-14

MatrixCallable = Callable[[np.ndarray], np.ndarray]


def _warn_if_step_underflows(h: float, scale: float) -> None:
    tiny = float(np.finfo(np.float64).tiny)
    if h * h <= tiny * max(scale, 1.0):
        warnings.warn(
            f"step {h:.3e} squares below the normal floating range at scale {scale:.3e}; "
            "results will be dominated by rounding",
            RuntimeWarning,
            stacklevel=3,
        )


def cs_frechet_1(
    f: MatrixCallable, a0, e1, h: float = DEFAULT_H_FIRST
) -> np.ndarray:
    """First directional derivative by a one-level block step.

    Works for complex inputs, unlike the regular complex step: the step
    lives on a fresh unit, not on the matrix's own imaginary part.
    """
    a0 = as_matrix(a0, "a0")
    e1 = as_matrix(e1, "e1")
    _warn_if_step_underflows(h, frobenius(a0))
    x = embed({(0,): a0, (1,): h * e1}, (IMAG,))
    return extract_block(f(x), 0, 1, a0.shape[0]) / h


def _split_second_order(jet: PathJet, alpha) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    alpha = as_index(alpha)
    if order(alpha) != 2:
        raise DimensionMismatch(f"second-order scheme needs |alpha| = 2, got {alpha}")
    beta, gamma = split_last(alpha)
    return jet.base, jet.term(beta), jet.term(gamma), jet.term(alpha)


def cs_partial_2(
    f: MatrixCallable, jet: PathJet, alpha, h: float = DEFAULT_H_SECOND
) -> np.ndarray:
    """Second-order partial derivative by a two-level block step.

    The jet's cross term rides on the product of both units so the chain
    rule's path-curvature contribution is included. A repeated index
    (e.g. alpha = (2, 0)) is handled by splitting it into two unit steps
    in the same direction.
    """
    a0, a_beta, a_gamma, a_alpha = _split_second_order(jet, alpha)
    _warn_if_step_underflows(h, frobenius(a0))
    x = embed(
        {(0, 0): a0, (1, 0): h * a_beta, (0, 1): h * a_gamma, (1, 1): h * h * a_alpha},
        (IMAG, IMAG),
    )
    return extract_block(f(x), 0, 3, jet.dim) / (h * h)


def hybrid_partial_2(
    f: MatrixCallable, jet: PathJet, alpha, h: float = DEFAULT_H_SECOND
) -> np.ndarray:
    """Second-order partial derivative: exact triangular level inside one
    block step level.

    The inner nilpotent shift of size 2 differentiates exactly in the
    first split direction; the outer imaginary unit steps in the second.
    Only one factor of h appears, so the truncation behaves like a first
    derivative's while computing a second derivative.
    """
    a0, a_beta, a_gamma, a_alpha = _split_second_order(jet, alpha)
    _warn_if_step_underflows(h, frobenius(a0))
    x = embed(
        {(0, 0): a0, (1, 0): a_beta, (0, 1): h * a_gamma, (1, 1): h * a_alpha},
        (2, IMAG),
    )
    return extract_block(f(x), 0, 3, jet.dim) / h


def central_fd_1(f: MatrixCallable, a0, e1, h: float) -> np.ndarray:
    """Two-point central difference for a first directional derivative."""
    a0 = as_matrix(a0, "a0")
    e1 = as_matrix(e1, "e1")
    _warn_if_step_underflows(h, frobenius(a0))
    return (f(a0 + h * e1) - f(a0 - h * e1)) / (2.0 * h)


def central_fd_2_mixed(f: MatrixCallable, jet: PathJet, h: float, alpha) -> np.ndarray:
    """Four-point stencil for the second-order partial derivative ``alpha``.

    Evaluates the second-order path surrogate at the four corners
    (+-h, +-h); the cross term enters with the product of the two signs.
    """
    a0, a_beta, a_gamma, a_alpha = _split_second_order(jet, alpha)
    _warn_if_step_underflows(h, frobenius(a0))
    h2 = h * h
    app = f(a0 + h * a_beta + h * a_gamma + h2 * a_alpha)
    apm = f(a0 + h * a_beta - h * a_gamma - h2 * a_alpha)
    amp = f(a0 - h * a_beta + h * a_gamma - h2 * a_alpha)
    amm = f(a0 - h * a_beta - h * a_gamma + h2 * a_alpha)
    return (app - apm - amp + amm) / (4.0 * h2)


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
    _warn_if_step_underflows(h, frobenius(a0))
    return np.imag(f(a0.real + 1j * h * e1.real)) / h
