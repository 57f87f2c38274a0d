"""Concrete plants: the nonlinear cart-pole and its analytic linearization.

State vector ``x = [position, velocity, angle, angular velocity]`` with the
angle in radians, zero at the upright equilibrium.  The continuous dynamics

    pos_acc = ( (4/3) m l th_dot^2 sin(th) - m g l sin(th) cos(th)
                + (4/3) l u ) / ( (4/3)(M+m) l - m l cos^2(th) )
    ang_acc = ( -m l th_dot^2 sin(th) cos(th) + (M+m) g sin(th)
                - cos(th) u ) / ( (4/3)(M+m) l - m l cos^2(th) )

are discretized by a forward Euler step of length ``tau``.  The denominator
is positive for any positive masses and length, so the step is total.  One
formula steps one state or a stack of them, each row bit for bit the
float64 formula.

Angles are never wrapped: all analysis is local around the upright position
and wrapping would break the linear approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linsys import StateSpacePlant, make_plant

__all__ = [
    "CartPoleParams",
    "NonlinearPlant",
    "cartpole_step",
    "cartpole_nonlinear",
    "cartpole_linearized",
    "linearization_consistency",
]


@dataclass(frozen=True)
class CartPoleParams:
    """Cart-pole constants (stable-baselines defaults)."""

    g: float = 9.8
    masscart: float = 1.0
    masspole: float = 0.1
    length: float = 0.5
    tau: float = 0.02

    def __post_init__(self):
        for name in ("g", "masscart", "masspole", "length", "tau"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class NonlinearPlant:
    """Generic nonlinear plant the simulator can drive.

        x[t+1] = step(x[t], u[t]) + B_w w[t],   y[t] = C x[t] + D_w w[t]

    ``step`` must satisfy step(0, 0) = 0 for equilibrium plants.  It takes
    one state ``(n,)`` and its input ``(m,)``.  A step whose ``stacks``
    attribute is true, as :func:`cartpole_nonlinear`'s is, also takes a
    stack ``(B, n)`` with inputs ``(B, m)`` and returns ``(B, n)``, each row
    the one-state step's; :func:`loopcert.sysid.collect` then steps all its
    episodes in one call.  The mark belongs to the callable, so a plant
    copied with another ``step`` does not inherit it.
    """

    step: Callable[[np.ndarray, np.ndarray], np.ndarray]
    c: np.ndarray
    d_w: np.ndarray
    b_w: np.ndarray

    @property
    def n(self) -> int:
        return self.c.shape[1]

    @property
    def p(self) -> int:
        return self.d_w.shape[1]


def cartpole_step(params: CartPoleParams, x, u) -> np.ndarray:
    """One Euler step of the nonlinear cart-pole, for one state or a stack.

    ``x`` is one state ``(4,)`` with a one-entry input ``u`` (a number or
    any one-element array), or a stack ``(B, 4)`` with inputs ``(B, 1)``;
    the result has the shape of ``x``.  Every row is bit for bit the
    float64 formula on that row: the arithmetic is elementwise, in the
    formula's order, and sine and cosine are numpy's.  The squares go
    through ``np.float_power``, which calls C ``pow`` as ``**`` on a float
    does; numpy's ``**2`` and ``np.square`` compute ``x * x``, which
    differs from ``pow`` in the last bit on some values (ω =
    8.302149983209311).  A state whose square overflows gives inf or NaN,
    with numpy's warning unless the caller silences it.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (4,) or x.ndim > 2:
        raise ValueError(f"expected a state (4,) or a stack (B, 4), got shape {x.shape}")
    rows = x.reshape(-1, 4)
    force = np.asarray(u, dtype=float).reshape(len(rows))
    pos, vel, theta, omega = rows.T
    m, big_m, l, g = params.masspole, params.masscart, params.length, params.g
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    omega_sq = np.float_power(omega, 2.0)
    denom = (4.0 / 3.0) * (big_m + m) * l - m * l * np.float_power(cos_t, 2.0)
    pos_acc = ((4.0 / 3.0) * m * l**2 * omega_sq * sin_t
               - m * g * l * sin_t * cos_t
               + (4.0 / 3.0) * l * force) / denom
    ang_acc = (-m * l * omega_sq * sin_t * cos_t
               + (big_m + m) * g * sin_t
               - cos_t * force) / denom
    tau = params.tau
    out = np.empty_like(rows)
    out[:, 0] = pos + tau * vel
    out[:, 1] = vel + tau * pos_acc
    out[:, 2] = theta + tau * omega
    out[:, 3] = omega + tau * ang_acc
    return out.reshape(x.shape)


def _angle_measurement(n: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """(C, D_w) for full state measurement with perturbation on the angle."""
    d_w = np.zeros((n, 1))
    d_w[2, 0] = 1.0
    return np.eye(n), d_w


def cartpole_nonlinear(params: CartPoleParams | None = None) -> NonlinearPlant:
    """Nonlinear cart-pole with full state measurement, angle perturbation."""
    params = params or CartPoleParams()
    c, d_w = _angle_measurement()

    # cartpole_step is looked up at each call, so a wrapper bound in its place sees it
    def step(x, u):
        return cartpole_step(params, x, u)

    step.stacks = True
    return NonlinearPlant(step=step, c=c, d_w=d_w, b_w=np.zeros((4, 1)))


def cartpole_linearized(params: CartPoleParams | None = None) -> StateSpacePlant:
    """Linearization of the cart-pole around the upright equilibrium.

    The returned plant measures the full state with the perturbation entering
    the angle measurement only; open loop it is unstable (the upright pole
    falls), so certification must close the loop with a stabilizing gain.
    Its limits are infinite and its ``w_inf`` is 0; set them with
    :func:`loopcert.certify.with_state_limit` or ``dataclasses.replace``.
    """
    params = params or CartPoleParams()
    g, big_m, m = params.g, params.masscart, params.masspole
    l, tau = params.length, params.tau
    denom = 4.0 * big_m + m
    a = np.array([
        [1.0, tau, 0.0, 0.0],
        [0.0, 1.0, -3.0 * m * g * tau / denom, 0.0],
        [0.0, 0.0, 1.0, tau],
        [0.0, 0.0, 3.0 * (big_m + m) * g * tau / (denom * l), 1.0],
    ])
    b = np.array([[0.0],
                  [4.0 * tau / denom],
                  [0.0],
                  [-3.0 * tau / (denom * l)]])
    c, d_w = _angle_measurement()
    return make_plant(a, b, c=c, d_w=d_w)


def linearization_consistency(params: CartPoleParams, radius: float,
                              n_samples: int, seed: int = 0) -> float:
    """Largest Taylor-remainder ratio of the (nonlinear, linearized) pair.

    Samples (x, u) uniformly with magnitudes up to ``radius`` and returns
    ``max ||F(x, u) - (A x + B u)||_inf / radius**2``; for a correct
    linearization the ratio stays bounded by a modest constant as the radius
    shrinks (the remainder is quadratic).
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    lin = cartpole_linearized(params)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        x = rng.uniform(-radius, radius, size=4)
        u = rng.uniform(-radius, radius, size=1)
        exact = cartpole_step(params, x, u)
        approx = lin.a @ x + lin.b @ u
        worst = max(worst, float(np.max(np.abs(exact - approx))) / radius**2)
    return worst
