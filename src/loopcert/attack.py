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
configured) on either the linear plant or a nonlinear plant object.  On a
linear plant it also takes a batch of perturbations, shape (B, t_sim, p),
and runs the B rollouts in one loop; every row is bit-identical to its own
unbatched run.  The loop is the same for both: it holds one state as an
(n,) vector and a batch as a (B, 1, n) stack, and writes each step's x, y,
u and the policy's layers into buffers allocated once per call.  A single
run's products are ``np.dot`` calls and a batch's are ``np.matmul`` per
row, with the same bits.
:func:`violation_levels` rolls out each amplitude once and keeps one record
per target, the peak of each amplitude (NaN where it diverged).  When its
lock-step bisections ask one not rolled out yet, each adds the amplitudes it
would ask next to one batched rollout: those of a copy of it walked on
verdicts guessed from the record, and of one walked on their negation.
"""

from __future__ import annotations

import bisect
import copy
import csv
import json
from dataclasses import dataclass

import numpy as np

from .certify import _Bisection, _lockstep
from .linsys import ClosedLoopMaps, StateSpacePlant
from .neural import QuantizationSpec, ReluNetwork, _bind, _forward_into
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
    "violation_levels",
    "save_plan",
    "load_plan",
    "save_trace",
]

_OVERFLOW = 1e12
# a state whose sum of squares is at most this has every entry below
# _OVERFLOW, with room to spare for rounding: one dot product per step
_SAFE_SQUARES = 0.1 * _OVERFLOW**2
# steps whose perturbation terms D_w w and B_w w one stacked product forms:
# enough to take the products out of the loop, few enough to cost no memory
_BLOCK = 256

# the doublings after which a violation_levels bisection stops at its cap;
# the amplitudes a pair adds to a rollout: the next _AHEAD it asks under
# guessed verdicts and the next _HEDGE it asks under their negation
_CAP_DOUBLINGS = 24
_AHEAD, _HEDGE = 12, 3


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
    """Closed-loop time series; all arrays share the step count.

    A batched trace has a leading row axis: every series is (B, steps, .).
    """

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        lengths = {a.shape[:-1] for a in (self.x, self.y, self.u, self.w)}
        if len(lengths) != 1:
            raise ValueError("trace series must share their length")

    @property
    def steps(self) -> int:
        return self.x.shape[-2]

    def max_abs(self, signal: str) -> np.ndarray:
        """Largest absolute value over the steps, per component (per row)."""
        return np.max(np.abs(getattr(self, signal)), axis=-2)


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
    """Simulation overflowed; carries the step index and the partial trace.

    For a batched run ``rows`` holds each row's divergence step (-1 where
    the row stayed finite); it is None for an unbatched run.
    """

    def __init__(self, step: int, trace: SimTrace, rows: np.ndarray | None = None):
        super().__init__(f"simulation diverged at step {step}")
        self.step = step
        self.trace = trace
        self.rows = rows


def design_attack(maps: ClosedLoopMaps, target: int, horizon: int,
                  w_inf: float = 1.0) -> AttackPlan:
    """Sign sequence maximizing the linear response of state ``target``.

    Signs beyond the truncation length of the impulse response are zero
    (their exact coefficients are below the truncation tolerance).  A
    ``horizon`` below 1 raises ``ValueError``: a plan of no steps cannot be
    simulated.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    n, _, p, _, _, _ = maps.dims
    if not 0 <= target < n:
        raise IndexError(f"target state {target} out of range for n={n}")
    phi = maps.xw.impulse  # marches the loop once (ClosedLoopMaps.response)
    signs = np.zeros((horizon, p))
    lags = np.arange(horizon, 0, -1)  # step t sees Phi_xw at lag horizon - t
    kept = lags < phi.shape[0]
    signs[kept] = np.sign(phi[lags[kept], target, :])
    return AttackPlan(signs=signs, w_inf=float(w_inf), target=target, horizon=horizon)


def _plant_hooks(plant, batched: bool):
    """(step, C, D_w, B_w); ``step(x, u, out)`` writes the next state, before
    ``B_w w``, into ``out``, for a state and input held as the simulator
    holds them: (n,) and (m,) vectors, whose products are ``np.dot`` calls,
    or (B, 1, n) and (B, 1, m) stacks, whose products are ``np.matmul``."""
    if isinstance(plant, StateSpacePlant):
        a_t, b_t = plant.a.T, plant.b.T
        product = np.matmul if batched else np.dot

        def step(x, u, out):
            product(x, a_t, out=out)
            out += product(u, b_t)

        return step, plant.c, plant.d_w, plant.b_w
    if isinstance(plant, NonlinearPlant):
        if batched:
            raise ValueError("a batched w needs a StateSpacePlant; "
                             "a NonlinearPlant steps one state at a time")

        def step(x, u, out):
            out[...] = np.reshape(plant.step(x, u), out.shape)  # one state, no broadcast

        return step, plant.c, plant.d_w, plant.b_w
    raise TypeError(f"cannot simulate {type(plant).__name__}")


def simulate(plant, net: ReluNetwork, w=None, t_sim: int = 1000, x0=None,
             quantization: QuantizationSpec | None = None) -> SimTrace:
    """Exact closed-loop recursion for ``t_sim`` steps.

    ``w`` may be None (no perturbation), an :class:`AttackPlan`, an array of
    shape (t_sim, p), or a batch of shape (B, t_sim, p) for a
    :class:`StateSpacePlant`.  A batch runs B rollouts in one loop and
    returns a trace whose series have shape (B, t_sim, .); ``x0`` is then
    one state for every row or one per row, (B, n).  Each row equals, bit
    for bit, the unbatched run on its own ``w``.

    One loop serves both: an unbatched run holds its state as an (n,)
    vector, a batch as a (B, 1, n) stack, so every product is a per-row
    matrix-vector product, the same one either way.  A single run's products
    are ``np.dot`` calls and a batch's are ``np.matmul`` per row, with the
    same bits; ``np.dot`` reaches BLAS in fewer steps.  The series live in
    time-major buffers that each step writes in place: ``y[t] = x[t] C'``,
    then ``+= D_w w[t]``; the policy's layers into row buffers, the last
    into ``u[t]``; ``x[t + 1] = x[t] A' + u[t] B'``, then ``+= B_w w[t]``.
    The products ``D_w w`` and ``B_w w`` are formed per row for a block of
    steps at a time.

    ``x[t]`` is the state at which ``y[t]``/``u[t]`` are computed.
    Uncertainty channels are not excited (delta = 0): the nominal loop is a
    member of every admissible uncertainty family.

    Raises
    ------
    ValueError
        When ``t_sim`` is negative, ``w`` or ``x0`` has the wrong shape, the
        network's input does not match the plant's measurement, or its
        output does not match a :class:`StateSpacePlant`'s input.
    DivergedAt
        When the state overflows.  Unbatched, at the step it overflows, with
        the partial trace.  Batched, after the other rows have run to the
        end: ``rows`` gives the step each row first overflowed (-1 where it
        stayed finite), ``step`` the first of them, and the trace holds every
        row in full, NaN past that step.
    """
    if t_sim < 0:
        raise ValueError(f"t_sim must be at least 0, got {t_sim}")
    batched = w is not None and not isinstance(w, AttackPlan) and np.ndim(w) == 3
    step, c, d_w, b_w = _plant_hooks(plant, batched)
    (r, n), p = c.shape, d_w.shape[1]
    if net.input_dim != r:
        raise ValueError(f"the plant measures {r} outputs, the network expects "
                         f"{net.input_dim}")
    if isinstance(plant, StateSpacePlant) and net.output_dim != plant.m:
        raise ValueError(f"policy maps {net.input_dim}->{net.output_dim}, "
                         f"plant needs {r}->{plant.m}")
    if isinstance(w, AttackPlan):
        w = w.signal(t_sim)
    w = np.zeros((t_sim, p)) if w is None else np.asarray(w, dtype=float)
    expected = (len(w), t_sim, p) if batched else (t_sim, p)
    if w.shape != expected:
        raise ValueError(f"w has shape {w.shape}, expected {expected}")
    rows = len(w) if batched else 1
    lead = (rows, 1) if batched else ()
    xs = np.empty((t_sim + 1, *lead, n))  # x[t_sim] is written, never returned
    ys = np.empty((t_sim, *lead, r))
    us = np.empty((t_sim, *lead, net.output_dim))
    if x0 is None:
        xs[0] = 0.0
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape not in ((n,), (rows, n)):
            raise ValueError(f"x0 has shape {x0.shape}, expected ({n},) or ({rows}, {n})")
        xs[0] = x0.reshape(xs.shape[1:]) if x0.ndim == 2 else x0
    flats = xs.reshape(t_sim + 1, -1)
    # w as (t_sim, B, 1, p), so that a block's products are per-row (1, p) ones
    w_rows = (w.transpose(1, 0, 2) if batched else w[:, None])[:, :, None]
    layers = _bind(net.layers)
    outs = [np.empty((*lead, weight_t.shape[1])) for weight_t, _, _ in layers[:-1]] + [None]
    c_t, d_w_t, b_w_t = c.T, d_w.T, b_w.T
    product = np.matmul if batched else np.dot
    diverged = np.full(rows, -1)
    for t in range(t_sim):
        k = t % _BLOCK
        if k == 0:  # the perturbation terms of the next block of steps
            block = w_rows[t:t + _BLOCK]
            dw_w = (block @ d_w_t).reshape(len(block), *ys.shape[1:])
            bw_w = (block @ b_w_t).reshape(len(block), *xs.shape[1:])
        x, y, u, x_next = xs[t], ys[t], us[t], xs[t + 1]
        product(x, c_t, out=y)
        y += dw_w[k]
        outs[-1] = u  # the last layer writes u[t]
        _forward_into(y, layers, outs)
        if quantization is not None:
            u[...] = quantization.apply(u)
        step(x, u, x_next)
        x_next += bw_w[k]
        flat = flats[t + 1]
        if not flat.dot(flat) <= _SAFE_SQUARES:  # also true on inf and NaN
            bad = ~np.all(np.abs(flat.reshape(rows, -1)) <= _OVERFLOW, axis=1)
            if not bad.any():
                continue
            if not batched:
                raise DivergedAt(t, SimTrace(xs[:t + 1], ys[:t + 1], us[:t + 1], w[:t + 1]))
            diverged[bad & (diverged < 0)] = t  # a row's first overflow
            x_next[bad] = 0.0  # a dead row keeps stepping, harmlessly, from rest
            if np.all(diverged >= 0):
                break
    if not batched:
        return SimTrace(x=xs[:t_sim], y=ys, u=us, w=w)
    # (B, t_sim, .) views of the time-major buffers: a copy would double the
    # memory of a batch
    xs, ys, us = (series[:t_sim, :, 0].transpose(1, 0, 2) for series in (xs, ys, us))
    trace = SimTrace(x=xs, y=ys, u=us, w=w)
    if np.any(diverged >= 0):
        for row in np.flatnonzero(diverged >= 0):
            for series in (xs, ys, us):
                series[row, diverged[row] + 1:] = np.nan
        raise DivergedAt(int(diverged[diverged >= 0].min()), trace, diverged)
    return trace


def monte_carlo_attack(plant, net: ReluNetwork, w_inf: float, t_sim: int,
                       seed: int = 0, quantization: QuantizationSpec | None = None,
                       mode: str = "uniform") -> tuple[SimTrace, SignalStats]:
    """Random persistent perturbation attack, reproducible from the seed.

    Each step draws i.i.d. from the amplitude ball: ``uniform`` on
    [-w_inf, w_inf] per channel, or ``rademacher`` on the extreme points.
    Returns the trace and per-state deviation statistics.  A ``t_sim``
    below 1, which has no statistics, or a ``w_inf`` that is negative or not
    finite raises ``ValueError`` before any draw.
    """
    if t_sim < 1:
        raise ValueError(f"t_sim must be at least 1, got {t_sim}")
    if not 0.0 <= w_inf < np.inf:
        raise ValueError(f"w_inf must be finite and nonnegative, got {w_inf}")
    _, _, d_w, _ = _plant_hooks(plant, batched=False)
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
                    quantization: QuantizationSpec | None = None) -> float:
    """Smallest amplitude whose designed attack breaks ``|x_target| <= x_limit``:
    :func:`violation_levels` of one target and one limit."""
    return violation_levels(plant, net, maps, [target], horizon, [x_limit], tol,
                            quantization)[0]


def violation_levels(plant, net: ReluNetwork, maps: ClosedLoopMaps, targets, horizon: int,
                     limits, tol: float, quantization: QuantizationSpec | None) -> list[float]:
    """Per limit, the smallest amplitude whose designed attack breaks
    ``|x_target| <= limit`` for one of the ``targets``.

    For each (target, limit) pair, the ``hi`` end of a
    :class:`loopcert.certify._Bisection` with the doubling cap
    ``_CAP_DOUBLINGS``, on the target's plan (designed once) simulated over
    its horizon; ``inf`` when no amplitude up to the cap violates.  The
    pairs advance in lock-step, a level a round, and every (target,
    amplitude) is rolled out once into one record per target: the peak
    ``|x_target|`` of each amplitude, NaN where the rollout diverged.  A
    pair's verdict is ``not peak <= limit``, so a diverging rollout breaks
    every limit, an infinite one too.  A limit that is negative or NaN, or
    no target at all, raises ``ValueError`` before any rollout.

    A round that asks an amplitude not rolled out yet makes one batched
    rollout, to which every waiting pair adds the amplitudes a copy of its
    bisection asks next (:func:`_ahead`), sent the verdict of each
    amplitude rolled out and a guess from the peaks so far for every other
    (:func:`_guess`): the next ``_AHEAD`` under the guess, and the next
    ``_HEDGE`` under its negation, so a rollout carries a pair past a first
    wrong guess.  Each row is bit-identical to its own rollout and a guess
    only picks which rows to add, so every level is that of one rollout per
    amplitude.
    """
    limits = [float(limit) for limit in limits]
    for limit in limits:
        if not limit >= 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
    signs = {target: design_attack(maps, target, horizon).signs for target in targets}
    if not signs:
        raise ValueError("targets must name at least one state, got none")
    pairs = [(target, limit) for target in signs for limit in limits]
    # the linear loop's peak per unit amplitude, the guess before any rollout
    slopes = {target: float(np.sum(maps.abs_block("xw")[target])) for target in signs}
    peaks = {target: {} for target in signs}  # amplitude -> peak, NaN where diverged
    walks = [_Bisection(tol, _CAP_DOUBLINGS) for _ in pairs]

    def roll_out(rows: list) -> None:
        batch = np.array([amplitude * signs[target] for target, amplitude in rows])
        try:
            x = simulate(plant, net, batch, horizon, quantization=quantization).x
            dead = np.zeros(len(rows), dtype=bool)
        except DivergedAt as exc:
            x, dead = exc.trace.x, exc.rows >= 0
        peak = np.max(np.abs(x[np.arange(len(rows)), :, [t for t, _ in rows]]), axis=1)
        # NaN by hand too: a row that overflows on its last step has no NaN in x
        for (target, amplitude), p in zip(rows, np.where(dead, np.nan, peak).tolist()):
            peaks[target][amplitude] = p

    def answer(asked: dict) -> dict:
        if any(w not in peaks[pairs[i][0]] for i in asked for w in asked[i]):
            rows = []
            for i in asked:
                target, limit = pairs[i]
                guess = _guess(peaks[target], slopes[target], limit)
                for guessed, count in ((guess, _AHEAD), (lambda w: not guess(w), _HEDGE)):
                    rows += [(target, w) for w in
                             _ahead(walks[i], peaks[target], limit, guessed, count)]
            roll_out(list(dict.fromkeys(rows)))
        return {i: [not peaks[pairs[i][0]][w] <= pairs[i][1] for w in levels]
                for i, levels in asked.items()}

    brackets = _lockstep(walks, answer)
    return [min((hi for _, hi in brackets[k::len(limits)]), default=np.inf)
            for k in range(len(limits))]


def _guess(peaks: dict, slope: float, limit: float):
    """A guess of whether an amplitude breaks ``limit``, from one target's
    record ``peaks`` (amplitude -> peak, NaN where the rollout diverged).

    An amplitude breaks the limit when it is at least the least amplitude
    that diverged, or when its guessed peak exceeds the limit.  The peak is
    interpolated linearly between the nearest finite-peaked amplitudes
    around it, or scaled in proportion from the nearest one when it lies
    outside them; before any rollout it is the amplitude times ``slope``.
    """
    finite = sorted((w, p) for w, p in peaks.items() if p == p)
    least_dead = min((w for w, p in peaks.items() if p != p), default=np.inf)

    def breaks(w: float) -> bool:
        if w >= least_dead:
            return True
        k = bisect.bisect_left(finite, (w,))
        if 0 < k < len(finite):
            (w0, p0), (w1, p1) = finite[k - 1], finite[k]
            peak = p0 + (p1 - p0) * (w - w0) / (w1 - w0)
        else:
            near, p = finite[min(k, len(finite) - 1)] if finite else (0.0, 0.0)
            peak = p * (w / near) if near > 0.0 else w * slope
        return peak > limit

    return breaks


def _ahead(walk: _Bisection, peaks: dict, limit: float, guess, count: int) -> list[float]:
    """The first ``count`` levels not in ``peaks`` that a copy of ``walk``
    asks: the copy is sent ``not peaks[level] <= limit`` where the level was
    rolled out and ``guess(level)`` elsewhere."""
    walk, path = copy.copy(walk), []
    while walk.asked and len(path) < count:
        path += [w for w in walk.asked if w not in peaks]
        walk.send([not peaks[w] <= limit if w in peaks else guess(w) for w in walk.asked])
    return path[:count]


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
    text = json.dumps(obj, allow_nan=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


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
