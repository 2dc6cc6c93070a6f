"""Builtin nonlinearity registry.

Scenario files can only name a right-hand side, so everything runnable
from a config lives here with its certificates attached.  Local reaction
terms for the Burgers case study are registered separately: they act
pointwise on grid values, not on coefficient vectors, and carry the
envelope form |f(z, y)| <= h(z) g(|y|) instead of a plain Lipschitz bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import KinfFunction, Nonlinearity

__all__ = [
    "zero_nonlinearity",
    "scalar_square",
    "arctan_saturation",
    "LocalTerm",
    "make_nonlinearity",
    "make_local_term",
    "NONLINEARITY_BUILDERS",
    "LOCAL_TERM_BUILDERS",
]


def zero_nonlinearity(n_modes: int) -> Nonlinearity:
    """f identically zero: the evolution stays linear."""

    return Nonlinearity(
        eval=lambda x, v: np.zeros_like(x),
        lipschitz=lambda r: 0.0,
        growth_sigma=KinfFunction.identity(),
        uniform_lipschitz=0.0,
        input_modulus=KinfFunction.identity(),
        label="zero",
    )


def scalar_square(n_modes: int = 1) -> Nonlinearity:
    """Componentwise square f_i = x_i^2, the canonical finite-escape source.

    On the r-ball |x_i + y_i| <= 2r, so the local constant is 2r; no
    uniform constant exists and none is declared.
    """

    return Nonlinearity(
        eval=lambda x, v: x ** 2,
        lipschitz=lambda r: 2.0 * r,
        growth_sigma=KinfFunction.identity(),
        input_modulus=KinfFunction.identity(),
        label="scalar_square",
    )


def arctan_saturation(n_modes: int, gain: float = 1.0,
                      input_gain: float = 0.0) -> Nonlinearity:
    """f(x, v) = gain * arctan(x + input_gain * E v) componentwise.

    E embeds the input channels into the leading state coordinates.  The
    global Lipschitz constant gain * max(1, |input_gain|) makes the
    reachability certificate available; the identity serves as the input
    modulus since |arctan a - arctan b| <= |a - b|.
    """
    if gain <= 0:
        raise ValueError("gain must be positive")

    def ev(x, v):
        z = np.array(x)
        if input_gain != 0.0:
            k = min(x.shape[-1], v.shape[-1])
            z[..., :k] += input_gain * v[..., :k]
        return gain * np.arctan(z)

    L = gain * max(1.0, abs(input_gain))
    sigma_scale = max(1.0, gain * abs(input_gain))
    return Nonlinearity(
        eval=ev,
        lipschitz=lambda r: L,
        growth_sigma=KinfFunction.power(1.0, sigma_scale),
        uniform_lipschitz=L,
        input_modulus=KinfFunction.identity(),
        label=f"arctan(gain={gain})",
    )


@dataclass(frozen=True)
class LocalTerm:
    """Pointwise reaction term (z, y) -> fn(z, y) with its envelope certificate.

    envelope and g certify |fn(z, y)| <= envelope(z) * g(|y|) with g positive
    and nondecreasing; lipschitz_y bounds |d fn / d y| uniformly in z and y.
    Both callables are vectorized over z (and fn over y).
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    envelope: Callable[[np.ndarray], np.ndarray]
    g: Callable[[float], float]
    lipschitz_y: float
    label: str = "local"

    def __post_init__(self):
        if self.lipschitz_y < 0:
            raise ValueError("Lipschitz bound must be nonnegative")
        if self.g(0.0) < 0 or self.g(1.0) < self.g(0.0) or self.g(5.0) < self.g(1.0):
            raise ValueError(f"{self.label}: envelope gauge g must be nondecreasing")


def _local_zero() -> LocalTerm:
    return LocalTerm(
        fn=lambda z, y: np.zeros_like(y),
        envelope=lambda z: np.zeros_like(np.asarray(z, float)),
        g=lambda s: 1.0 + s,
        lipschitz_y=0.0,
        label="zero",
    )


def _local_sine_tanh(amplitude: float = 0.3) -> LocalTerm:
    """f(z, y) = amplitude * sin(z) * tanh(y).

    |tanh| <= 1 gives the envelope h(z) = |amplitude sin z| with gauge
    g(s) = 1 + s; the y-derivative is bounded by |amplitude|.  Vanishes at
    y = 0, so the zero state stays an equilibrium.
    """
    a = float(amplitude)
    return LocalTerm(
        fn=lambda z, y: a * np.sin(z) * np.tanh(y),
        envelope=lambda z: abs(a) * np.abs(np.sin(np.asarray(z, float))),
        g=lambda s: 1.0 + s,
        lipschitz_y=abs(a),
        label=f"sine_tanh(amplitude={a})",
    )


NONLINEARITY_BUILDERS = {
    "zero": zero_nonlinearity,
    "scalar_square": scalar_square,
    "arctan": arctan_saturation,
}

LOCAL_TERM_BUILDERS = {
    "zero": _local_zero,
    "sine_tanh": _local_sine_tanh,
}


def make_nonlinearity(name: str, n_modes: int, params: dict = None) -> Nonlinearity:
    if name not in NONLINEARITY_BUILDERS:
        raise KeyError(
            f"unknown nonlinearity {name!r}; builtins: "
            f"{sorted(NONLINEARITY_BUILDERS)}"
        )
    return NONLINEARITY_BUILDERS[name](n_modes, **(params or {}))


def make_local_term(name: str, params: dict = None) -> LocalTerm:
    if name not in LOCAL_TERM_BUILDERS:
        raise KeyError(
            f"unknown local term {name!r}; builtins: {sorted(LOCAL_TERM_BUILDERS)}"
        )
    return LOCAL_TERM_BUILDERS[name](**(params or {}))
