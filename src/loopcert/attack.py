"""Worst-case attack synthesis and the closed-loop simulation harness.

The designed attack drives one chosen state component as hard as the linear
part of the loop allows: at horizon T the state is the convolution of the
perturbation with the closed-loop impulse response, so injecting

    w_j[t] = sign( (Phi_xw[T - t])_{i j} ),   t = 0..T-1,

scaled by the amplitude, aligns every term of the convolution sum for state
``i``.  Contributions of the residual policy and the uncertainty block are
ignored by the design (it is a strong heuristic, exact when the policy is
linear), which is why the achieved deviation of a linear loop equals the
absolute row sum of the impulse response times the amplitude.

The simulator runs the exact recursion with ``u = pi(y)`` (quantized when
configured) on either the linear plant or a nonlinear plant object.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .linsys import ClosedLoopMaps, StateSpacePlant
from .neural import QuantizationSpec, ReluNetwork, evaluate
from .plant import NonlinearPlant

__all__ = [
    "AttackPlan",
    "SimTrace",
    "SignalStats",
    "DivergedAt",
    "design_attack",
    "simulate",
    "monte_carlo_attack",
    "violation_level",
    "save_plan",
    "load_plan",
    "save_trace",
]

_OVERFLOW = 1e12


@dataclass(frozen=True)
class AttackPlan:
    """Per-channel sign sequence; the injected signal is ``w_inf * signs``."""

    signs: np.ndarray
    w_inf: float
    target: int
    horizon: int

    def __post_init__(self):
        arr = np.asarray(self.signs, dtype=float)
        if arr.ndim != 2:
            raise ValueError("signs must have shape (T, p)")
        if not np.all(np.isin(arr, (-1.0, 0.0, 1.0))):
            raise ValueError("signs entries must be -1, 0 or +1")
        object.__setattr__(self, "signs", arr)

    def signal(self, t_sim: int) -> np.ndarray:
        """Injected perturbation over ``t_sim`` steps (zero past the plan)."""
        w = np.zeros((t_sim, self.signs.shape[1]))
        steps = min(t_sim, self.signs.shape[0])
        w[:steps] = self.w_inf * self.signs[:steps]
        return w


@dataclass(frozen=True)
class SimTrace:
    """Closed-loop time series; all arrays share the step count."""

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        lengths = {a.shape[0] for a in (self.x, self.y, self.u, self.w)}
        if len(lengths) != 1:
            raise ValueError("trace series must share their length")

    @property
    def steps(self) -> int:
        return self.x.shape[0]

    def max_abs(self, signal: str) -> np.ndarray:
        return np.max(np.abs(getattr(self, signal)), axis=0)


@dataclass(frozen=True)
class SignalStats:
    """Per-state mean, standard deviation and maximum absolute deviation."""

    mean: np.ndarray
    std: np.ndarray
    max_abs: np.ndarray

    @classmethod
    def of(cls, series: np.ndarray) -> "SignalStats":
        return cls(mean=np.mean(series, axis=0), std=np.std(series, axis=0),
                   max_abs=np.max(np.abs(series), axis=0))


class DivergedAt(RuntimeError):
    """Simulation overflowed; carries the step index and the partial trace."""

    def __init__(self, step: int, trace: SimTrace):
        super().__init__(f"simulation diverged at step {step}")
        self.step = step
        self.trace = trace


def design_attack(maps: ClosedLoopMaps, target: int, horizon: int,
                  w_inf: float = 1.0) -> AttackPlan:
    """Sign sequence maximizing the linear response of state ``target``.

    Signs beyond the truncation length of the impulse response are zero
    (their exact coefficients are below the truncation tolerance).
    """
    n, _, p, _, _, _ = maps.dims
    if not 0 <= target < n:
        raise IndexError(f"target state {target} out of range for n={n}")
    phi = maps.xw.impulse
    signs = np.zeros((horizon, p))
    lags = np.arange(horizon, 0, -1)  # step t sees Phi_xw at lag horizon - t
    kept = lags < phi.shape[0]
    signs[kept] = np.sign(phi[lags[kept], target, :])
    return AttackPlan(signs=signs, w_inf=float(w_inf), target=target, horizon=horizon)


def _plant_hooks(plant):
    if isinstance(plant, StateSpacePlant):
        return (lambda x, u: plant.a @ x + plant.b @ u), plant.c, plant.d_w, plant.b_w
    if isinstance(plant, NonlinearPlant):
        return plant.step, plant.c, plant.d_w, plant.b_w
    raise TypeError(f"cannot simulate {type(plant).__name__}")


def simulate(plant, net: ReluNetwork, w=None, t_sim: int = 1000, x0=None,
             quantization: QuantizationSpec | None = None) -> SimTrace:
    """Exact closed-loop recursion for ``t_sim`` steps.

    ``w`` may be None (no perturbation), an :class:`AttackPlan`, or an array
    of shape (t_sim, p).  ``x[t]`` is the state at which ``y[t]``/``u[t]``
    are computed.  Uncertainty channels are not excited (delta = 0): the
    nominal loop is a member of every admissible uncertainty family.

    Raises
    ------
    DivergedAt
        When the state overflows; the partial trace rides on the exception.
    """
    step, c, d_w, b_w = _plant_hooks(plant)
    n, p = c.shape[1], d_w.shape[1]
    if isinstance(w, AttackPlan):
        w = w.signal(t_sim)
    elif w is None:
        w = np.zeros((t_sim, p))
    else:
        w = np.asarray(w, dtype=float)
        if w.shape != (t_sim, p):
            raise ValueError(f"w has shape {w.shape}, expected ({t_sim}, {p})")
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()

    xs = np.empty((t_sim, n))
    ys = np.empty((t_sim, c.shape[0]))
    us = np.empty((t_sim, net.output_dim))
    for t in range(t_sim):
        xs[t] = x
        y = c @ x + d_w @ w[t]
        u = evaluate(net, y)
        if quantization is not None:
            u = quantization.apply(u)
        ys[t] = y
        us[t] = u
        x = step(x, u) + b_w @ w[t]
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > _OVERFLOW:
            partial = SimTrace(xs[:t + 1], ys[:t + 1], us[:t + 1], w[:t + 1])
            raise DivergedAt(t, partial)
    return SimTrace(x=xs, y=ys, u=us, w=w)


def monte_carlo_attack(plant, net: ReluNetwork, w_inf: float, t_sim: int,
                       seed: int = 0, quantization: QuantizationSpec | None = None,
                       mode: str = "uniform") -> tuple[SimTrace, SignalStats]:
    """Random persistent perturbation attack, reproducible from the seed.

    Each step draws i.i.d. from the amplitude ball: ``uniform`` on
    [-w_inf, w_inf] per channel, or ``rademacher`` on the extreme points.
    Returns the trace and per-state deviation statistics.
    """
    _, _, d_w, _ = _plant_hooks(plant)
    p = d_w.shape[1]
    rng = np.random.default_rng(seed)
    if mode == "uniform":
        w = rng.uniform(-w_inf, w_inf, size=(t_sim, p))
    elif mode == "rademacher":
        w = w_inf * rng.choice((-1.0, 1.0), size=(t_sim, p))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    trace = simulate(plant, net, w, t_sim, quantization=quantization)
    return trace, SignalStats.of(trace.x)


def violation_level(plant, net: ReluNetwork, maps: ClosedLoopMaps, target: int,
                    horizon: int, x_limit: float, tol: float = 1e-3,
                    quantization: QuantizationSpec | None = None,
                    max_doublings: int = 24) -> float:
    """Smallest amplitude whose designed attack breaks ``|x_target| <= x_limit``.

    Bisection over the amplitude of the designed plan, simulated over its
    horizon.  Returns ``inf`` when no tested amplitude (up to the doubling
    cap) violates the limit.
    """
    plan = design_attack(maps, target, horizon)

    def violates(w: float) -> bool:
        scaled = AttackPlan(plan.signs, w, target, horizon)
        try:
            trace = simulate(plant, net, scaled, horizon, quantization=quantization)
        except DivergedAt:
            return True
        return bool(trace.max_abs("x")[target] > x_limit)

    hi = tol
    doublings = 0
    while not violates(hi):
        hi *= 2.0
        doublings += 1
        if doublings > max_doublings:
            return np.inf
    lo = 0.0
    while hi - lo > tol * hi:
        mid = (lo + hi) / 2.0
        if violates(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Files: plans as JSON, traces as CSV with full-precision decimals.
# ---------------------------------------------------------------------------


def save_plan(path, plan: AttackPlan) -> None:
    obj = {
        "target": int(plan.target),
        "T": int(plan.horizon),
        "w_inf": float(plan.w_inf),
        "signs": [[int(v) for v in row] for row in plan.signs],
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def load_plan(path) -> AttackPlan:
    with open(path) as fh:
        obj = json.load(fh)
    return AttackPlan(signs=np.asarray(obj["signs"], dtype=float),
                      w_inf=float(obj["w_inf"]), target=int(obj["target"]),
                      horizon=int(obj["T"]))


def save_trace(path, trace: SimTrace, header_note: str | None = None) -> None:
    """CSV columns ``t, w_1.., x_1.., y_1.., u_1..`` at 17 significant digits."""
    def cols(tag, arr):
        return [f"{tag}_{i + 1}" for i in range(arr.shape[1])]

    with open(path, "w", newline="") as fh:
        if header_note:
            fh.write(f"# {header_note}\n")
        writer = csv.writer(fh)
        writer.writerow(["t"] + cols("w", trace.w) + cols("x", trace.x)
                        + cols("y", trace.y) + cols("u", trace.u))
        for t in range(trace.steps):
            row = [str(t)] + [f"{v:.17g}" for v in
                              (*trace.w[t], *trace.x[t], *trace.y[t], *trace.u[t])]
            writer.writerow(row)
