"""Scalar functions with derivatives of every order, paired with matrix
backends that do not rely on diagonalization.

The derivative-of-scalar interface is what the divided-difference code
consumes; the matrix backend is what the block constructions consume. The
two must describe the same function, which the tests cross-check.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, InsufficientDerivatives
from .linalg import ShiftJet, as_matrix, matrix_cos, matrix_exp


@dataclass(frozen=True)
class ScalarFunction:
    """A scalar function together with its higher derivatives.

    ``deriv(x, 0)`` equals ``eval(x)``. ``max_order`` of ``None`` means
    derivatives of every order are available.
    """

    name: str
    eval_fn: Callable[[complex], complex]
    deriv_fn: Callable[[complex, int], complex]
    max_order: int | None = None

    def eval(self, x: complex) -> complex:
        return self.eval_fn(x)

    def deriv(self, x: complex, order: int) -> complex:
        if order < 0:
            raise DomainError(f"derivative order must be >= 0, got {order}")
        if order == 0:
            return self.eval_fn(x)
        if self.max_order is not None and order > self.max_order:
            raise InsufficientDerivatives(
                f"{self.name}: derivative order {order} exceeds max_order {self.max_order}"
            )
        return self.deriv_fn(x, order)


@dataclass(frozen=True)
class MatrixFunction:
    """Scalar function plus a dense matrix backend for the same function."""

    scalar: ScalarFunction
    apply: Callable[[np.ndarray], np.ndarray]

    @property
    def name(self) -> str:
        return self.scalar.name

    def __call__(self, a: np.ndarray) -> np.ndarray:
        # a ShiftJet is already a valid dense matrix; passing it on as is lets
        # matrix_exp and matrix_cos evaluate it in its algebra
        return self.apply(a if isinstance(a, ShiftJet) else as_matrix(a))


def _exp_deriv(x: complex, order: int) -> complex:
    return cmath.exp(x)


def _cos_deriv(x: complex, order: int) -> complex:
    # d^k cos = cos, -sin, -cos, sin cycling with period 4
    k = order % 4
    if k == 0:
        return cmath.cos(x)
    if k == 1:
        return -cmath.sin(x)
    if k == 2:
        return -cmath.cos(x)
    return cmath.sin(x)


def _monomial(power: int) -> ScalarFunction:
    def ev(x: complex) -> complex:
        return x**power

    def dv(x: complex, order: int) -> complex:
        if order > power:
            return 0.0 + 0.0j
        coeff = 1.0
        for i in range(order):
            coeff *= power - i
        return coeff * x ** (power - order)

    return ScalarFunction(name=f"x^{power}", eval_fn=ev, deriv_fn=dv)


SCALAR_EXP = ScalarFunction(name="exp", eval_fn=cmath.exp, deriv_fn=_exp_deriv)
SCALAR_COS = ScalarFunction(name="cos", eval_fn=cmath.cos, deriv_fn=_cos_deriv)
SCALAR_X1 = _monomial(1)
SCALAR_X2 = _monomial(2)
SCALAR_X3 = _monomial(3)


def _matpow(power: int) -> Callable[[np.ndarray], np.ndarray]:
    def apply(a: np.ndarray) -> np.ndarray:
        return np.linalg.matrix_power(as_matrix(a), power)

    return apply


FUNCTIONS: dict[str, MatrixFunction] = {
    "exp": MatrixFunction(scalar=SCALAR_EXP, apply=matrix_exp),
    "cos": MatrixFunction(scalar=SCALAR_COS, apply=matrix_cos),
    "x^1": MatrixFunction(scalar=SCALAR_X1, apply=_matpow(1)),
    "x^2": MatrixFunction(scalar=SCALAR_X2, apply=_matpow(2)),
    "x^3": MatrixFunction(scalar=SCALAR_X3, apply=_matpow(3)),
}

# further names get_function accepts, each for an entry of FUNCTIONS
ALIASES = {"x1": "x^1", "identity": "x^1", "x2": "x^2", "x3": "x^3"}


def get_function(name: str) -> MatrixFunction:
    key = ALIASES.get(name, name)
    if key not in FUNCTIONS:
        raise KeyError(f"unknown function {name!r}; choices: {sorted(FUNCTIONS)}")
    return FUNCTIONS[key]
