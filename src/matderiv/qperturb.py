"""Derivatives of spectral projectors and eigenvectors of Hermitian pencils.

The density matrix P = theta(mu - H) is a matrix function of H with a step
scalar function, so its parameter derivatives follow from the eigenbasis
divided-difference formulas; the step function's divided differences have
closed forms driven only by which side of the chemical potential each
eigenvalue sits on. In particular the first table is zero between two
occupied or two virtual levels, so the second derivative is assembled
from occupied/virtual blocks of the eigenbasis, at 6 ne (n - ne) n
multiply-adds beyond the basis rotations. Eigenvector corrections for a
simple lowest eigenvalue come from differentiating the rank-one projector
applied to the unperturbed vector, which keeps everything free of phase
choices.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateGroundState, DomainError, TooCloseToMu
from .funcs import ScalarFunction
from .linalg import SpectralDecomp, as_matrix, require_hermitian

GAP_MIN = 1e-8


def step_function(mu: float) -> ScalarFunction:
    """Indicator of (-inf, mu) as a ScalarFunction.

    Derivatives of positive order are zero away from mu and undefined at
    mu itself (DomainError); the divided-difference code never needs them
    at mu when the spectrum respects the protection band.
    """

    def ev(x: complex) -> complex:
        return 1.0 + 0.0j if complex(x).real < mu else 0.0 + 0.0j

    def dv(x: complex, order: int) -> complex:
        if complex(x).real == mu:
            raise DomainError(f"step function is not differentiable at mu = {mu}")
        return 0.0 + 0.0j

    return ScalarFunction(name=f"step(mu={mu})", eval_fn=ev, deriv_fn=dv)


def _step_dd1_table(lam: np.ndarray, mu: float) -> np.ndarray:
    """First divided differences of the step function at mu over ``lam``:
    -1/|li - lj| between an occupied and a virtual level, else 0. Levels
    within GAP_MIN / 2 of mu raise TooCloseToMu."""
    dist = np.abs(lam - mu)
    if np.any(dist <= 0.5 * GAP_MIN):
        raise TooCloseToMu(
            f"eigenvalue within {float(dist.min()):.3e} of mu = {mu}; "
            f"protection band is {0.5 * GAP_MIN:.1e}"
        )
    below = lam < mu
    diff = lam[:, None] - lam[None, :]
    opposite = below[:, None] != below[None, :]
    table = np.zeros_like(diff)
    table[opposite] = -1.0 / np.abs(diff[opposite])
    return table


def density_matrix(d: SpectralDecomp, mu: float) -> np.ndarray:
    """Spectral projector onto eigenvalues below mu."""
    occ = (d.eigenvalues < mu).astype(np.complex128)
    q = d.vectors
    return (q * occ) @ q.conj().T


def density_deriv_1(d: SpectralDecomp, h_alpha, mu: float) -> np.ndarray:
    """First parameter derivative of the density matrix.

    ``h_alpha`` is the Hamiltonian's derivative in the original basis. Only
    occupied-virtual blocks survive, weighted by -1 over the level spacing.
    """
    h_alpha = require_hermitian(as_matrix(h_alpha, "h_alpha"))
    table = _step_dd1_table(d.eigenvalues, mu)
    u_alpha = d.to_eigenbasis(h_alpha)
    return d.from_eigenbasis(table * u_alpha)


def density_deriv_2(
    d: SpectralDecomp,
    h_beta,
    h_gamma,
    h_alpha,
    mu: float,
) -> np.ndarray:
    """Second mixed parameter derivative of the density matrix.

    ``h_beta`` and ``h_gamma`` are the first derivatives of H along the two
    split directions, ``h_alpha`` the second (cross) derivative, all in the
    original basis. The closed form matches the generic divided-difference
    route but needs only the level spacings. With ``o`` the occupied and
    ``w`` the virtual block of the ascending eigenbasis, the first table T
    vanishes on the ``oo`` and ``ww`` blocks, so ``T * u`` is block
    off-diagonal and the form multiplies blocks: beyond the six n x n
    products that rotate the three directions in and the two that rotate
    the result out, a call costs 6 ne (n - ne) n multiply-adds, about
    1.5 n^3 at half filling.
    """
    h_beta = require_hermitian(as_matrix(h_beta, "h_beta"))
    h_gamma = require_hermitian(as_matrix(h_gamma, "h_gamma"))
    h_alpha = require_hermitian(as_matrix(h_alpha, "h_alpha"))
    lam = d.eigenvalues
    table = _step_dd1_table(lam, mu)
    ne = int(np.sum(lam < mu))
    o, w = slice(0, ne), slice(ne, None)

    ub = d.to_eigenbasis(h_beta)
    ug = d.to_eigenbasis(h_gamma)
    vb = table * ub
    vg = table * ug

    v = table * d.to_eigenbasis(h_alpha)
    v[o, w] += table[o, w] * (
        vb[o, w] @ ug[w, w] - ub[o, o] @ vg[o, w] + vg[o, w] @ ub[w, w] - ug[o, o] @ vb[o, w]
    )
    v[w, o] -= table[w, o] * (
        vb[w, o] @ ug[o, o] - ub[w, w] @ vg[w, o] + vg[w, o] @ ub[o, o] - ug[w, w] @ vb[w, o]
    )
    v[w, w] += vb[w, o] @ vg[o, w] + vg[w, o] @ vb[o, w]
    v[o, o] -= vb[o, w] @ vg[w, o] + vg[o, w] @ vb[w, o]
    return d.from_eigenbasis(v)


def _ground_state_parts(d: SpectralDecomp, h1) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Validate the gap and return (q, denominators, eigenbasis h1)."""
    h1 = require_hermitian(as_matrix(h1, "h1"))
    if d.dim == 1:
        return None
    lam = d.eigenvalues
    if lam[1] - lam[0] <= GAP_MIN:
        raise DegenerateGroundState(
            f"lowest gap {lam[1] - lam[0]:.3e} is within GAP_MIN = {GAP_MIN:.1e}"
        )
    u = d.to_eigenbasis(h1)
    denom = lam[1:] - lam[0]
    return d.vectors, denom, u


def eigvec_correction_1(d: SpectralDecomp, h1) -> np.ndarray:
    """First derivative of P(eps) q1: the ground-state vector's response.

    Differentiates the projected vector rather than a normalized eigenvector,
    which removes the phase ambiguity; the result coincides with the
    phase-fixed eigenvector derivative.
    """
    parts = _ground_state_parts(d, h1)
    if parts is None:
        return np.zeros(1, dtype=np.complex128)
    q, denom, u = parts
    coeff = -u[1:, 0] / denom
    return q[:, 1:] @ coeff


def eigvec_correction_2(d: SpectralDecomp, h1) -> np.ndarray:
    """Second derivative of P(eps) q1 for a linear pencil H + eps H1.

    Along q1 the result dips by the squared first-order weight; across the
    excited states it mixes second-order channels with a factor 2 because
    this is a derivative, not a series coefficient.
    """
    parts = _ground_state_parts(d, h1)
    if parts is None:
        return np.zeros(1, dtype=np.complex128)
    q, denom, u = parts
    u10 = u[1:, 0]
    w = u10 / denom
    coeff = 2.0 * (u[1:, 1:] @ w) / denom
    coeff = coeff - 2.0 * u10 * u[0, 0] / denom**2
    along_q1 = -2.0 * float(np.sum((u10.conj() * u10).real / denom**2))
    return q[:, 1:] @ coeff + along_q1 * q[:, 0]
