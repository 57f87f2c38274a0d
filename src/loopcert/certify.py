"""Certification engine: invariant-set boundedness under persistent attack.

Two routes are implemented and compared throughout:

* the small-gain baseline, which models the policy only through a scalar
  infinity-gain ``gamma_pi`` (and the uncertainty block through
  ``gamma_delta``) and certifies via the L1-norm conditions ``beta_1 < 1``,
  ``beta_2 < 1`` plus a region check;
* the invariant-set engine, which asks a network relaxation for elementwise
  magnitude bounds and searches for a quadruplet ``(y_bar, u_bar, alpha_bar,
  delta_bar)`` that the closed-loop absolute transfer matrices map into
  itself.  Once such a box exists it is positively invariant, so every
  signal stays inside it for all time and any admissible perturbation.

Whenever the baseline certifies, a quadruplet can be constructed from its
norms in closed form (:func:`constructive_quadruplet`), so the invariant-set
route is never weaker.

The iteration (:func:`algorithm1`) follows the candidate-box inflation
scheme literally: the uncertainty bound of each pass uses the reference
``alpha`` box from the previous pass, not the freshly computed one.  Using
the fresh value instead would also be sound but changes the iterate
sequence; we keep the literal transcription.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import neural
from .linsys import (
    DEFAULT_EPS_TRUNC,
    ClosedLoopMaps,
    NotSchurStable,
    StateSpacePlant,
    close_loop,
    hinf_norm,
)
from .neural import Box, LinearBounds, QuantizationSpec, ReluNetwork

__all__ = [
    "Quadruplet",
    "CertResult",
    "BaselineResult",
    "NoStabilizingGain",
    "check_theorem1",
    "check_lemma1",
    "hinf_corollary",
    "constructive_quadruplet",
    "algorithm1",
    "frontier",
    "with_state_limit",
    "bisect_max_level",
    "baseline_certify",
    "baseline_frontier",
    "sampled_linf_gain",
    "extract_gain",
    "extract_loop",
    "CONSTRAINT_VIOLATED",
    "MAX_ITER_EXCEEDED",
    "NO_STABILIZING_GAIN",
    "NON_FINITE_BOUNDS",
    "STALLED",
]

CONSTRAINT_VIOLATED = "ConstraintViolated"
MAX_ITER_EXCEEDED = "MaxIterExceeded"
NO_STABILIZING_GAIN = "NoStabilizingGain"
NON_FINITE_BOUNDS = "NonFiniteBounds"
STALLED = "Stalled"

# Relative inflation applied to constructed quadruplets so that downstream
# elementwise checks are robust to the last-ulp rounding of equality cases.
_QUAD_INFLATION = 1e-9


class NoStabilizingGain(RuntimeError):
    """No candidate linear gain renders the loop Schur stable."""


@dataclass(frozen=True)
class Quadruplet:
    """Candidate invariant-box bounds on (y, u, alpha, delta), plus x.

    All entries are elementwise magnitude bounds; ``x_bar`` is derived from
    the other four through the closed-loop maps.
    """

    y_bar: np.ndarray
    u_bar: np.ndarray
    alpha_bar: np.ndarray
    delta_bar: np.ndarray
    x_bar: np.ndarray | None = None

    def __post_init__(self):
        for name in ("y_bar", "u_bar", "alpha_bar", "delta_bar", "x_bar"):
            value = getattr(self, name)
            if value is None:
                continue
            arr = np.asarray(value, dtype=float)
            if arr.ndim != 1 or np.any(arr < 0):
                raise ValueError(f"{name} must be a nonnegative vector")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class CertResult:
    """Outcome of the invariant-set search."""

    success: bool
    quadruplet: Quadruplet | None
    iterations: int
    failure_reason: str | None = None
    gain: np.ndarray | None = None

    def to_dict(self) -> dict:
        quad = self.quadruplet
        return {
            "success": bool(self.success),
            "iterations": int(self.iterations),
            "x_bar": [] if quad is None or quad.x_bar is None else [float(v) for v in quad.x_bar],
            "y_bar": [] if quad is None else [float(v) for v in quad.y_bar],
            "u_bar": [] if quad is None else [float(v) for v in quad.u_bar],
            "failure_reason": self.failure_reason,
        }


@dataclass(frozen=True)
class BaselineResult:
    """Small-gain (L1) baseline outcome.

    ``gamma_pi`` is the sampled infinity-gain estimate of the residual
    policy; sampling gives a lower bound of the true local gain, so a
    positive ``certified`` here is an estimate, not a certificate.
    """

    beta1: float
    beta2: float
    certified: bool
    y_inf_implied: float
    gamma_pi: float = float("nan")

    def to_dict(self) -> dict:
        return {
            "beta1": float(self.beta1),
            "beta2": float(self.beta2),
            "certified": bool(self.certified),
            "y_inf_implied": float(self.y_inf_implied),
            "gamma_pi_sampled": float(self.gamma_pi),
            "note": "gamma_pi is a sampled lower bound; a positive result is not a certificate",
        }


def check_theorem1(maps: ClosedLoopMaps, quad: Quadruplet, w_bar) -> tuple[bool, np.ndarray]:
    """Invariant-box feedback check, plus the implied state bound.

    Holds iff

        abs(Phi_yw) w_bar + abs(Phi_yu) u_bar + abs(Phi_ydelta) delta_bar <= y_bar
        abs(Phi_aw) w_bar + abs(Phi_au) u_bar + abs(Phi_adelta) delta_bar <= alpha_bar

    elementwise.  Returns ``(holds, x_bar)`` with ``x_bar`` the matching
    state bound ``abs(Phi_xw) w_bar + abs(Phi_xu) u_bar + abs(Phi_xd) d_bar``.
    """
    w_bar = np.asarray(w_bar, dtype=float)
    _, m, p, q, r, s = maps.dims
    if (w_bar.shape, quad.u_bar.shape, quad.delta_bar.shape) != ((p,), (m,), (q,)):
        raise ValueError("quadruplet dimensions do not match the maps")
    if (quad.y_bar.shape, quad.alpha_bar.shape) != ((r,), (s,)):
        raise ValueError("quadruplet dimensions do not match the maps")
    x_bar, y_out, a_out = _implied_bounds(maps, w_bar, quad.u_bar, quad.delta_bar)
    holds = bool(np.all(y_out <= quad.y_bar) and np.all(a_out <= quad.alpha_bar))
    return holds, x_bar


def _implied_bounds(maps: ClosedLoopMaps, w_bar, u_bar, delta_bar):
    """``(x_bar, y_bar, alpha_bar)`` implied by bounds on ``(w, u0, delta)``.

    Each is ``|Phi_w| w_bar + |Phi_u| u_bar + |Phi_delta| delta_bar``.
    """
    rows = (("xw", "xu", "xdelta"), ("yw", "yu", "ydelta"),
            ("alpha_w", "alpha_u", "alpha_delta"))
    return tuple(maps.abs_block(w) @ w_bar + maps.abs_block(u) @ u_bar
                 + maps.abs_block(d) @ delta_bar for w, u, d in rows)


def _betas(norm: Callable[[str], float], gamma_pi: float,
           gamma_delta: float) -> tuple[float, float]:
    """``(beta1, beta2)`` of the small-gain conditions under the map norm ``norm``.

    ``beta1 = gamma_delta norm(alpha_delta)`` closes the uncertainty loop and

        beta2 = gamma_pi (norm(yu) + gamma_delta/(1-beta1) norm(ydelta) norm(alpha_u))

    the policy loop.  When ``beta1 < 1`` fails, ``beta2`` is ``inf`` and no
    other norm is asked for.
    """
    beta1 = gamma_delta * norm("alpha_delta")
    if not beta1 < 1.0:
        return beta1, np.inf
    return beta1, gamma_pi * (norm("yu") + gamma_delta / (1.0 - beta1) * norm("ydelta")
                              * norm("alpha_u"))


def check_lemma1(maps: ClosedLoopMaps, gamma_pi: float, gamma_delta: float,
                 w_inf: float, y_inf: float) -> BaselineResult:
    """Small-gain baseline on L1 norms.

    With ``(beta1, beta2)`` of :func:`_betas` on the L1 norms, when both are
    below one the implied measurement bound is

        y_implied = (||Phi_yw|| + gamma_delta/(1-beta1) ||Phi_yd|| ||Phi_aw||)
                    * w_inf / (1 - beta2)

    and the configuration is certified iff additionally
    ``y_implied <= y_inf`` (the region where ``gamma_pi`` is valid).
    """
    l1 = maps.l1
    beta1, beta2 = _betas(l1, gamma_pi, gamma_delta)
    if beta1 < 1.0 and beta2 < 1.0:
        y_implied = (l1("yw") + gamma_delta / (1.0 - beta1) * l1("ydelta") * l1("alpha_w")
                     ) * w_inf / (1.0 - beta2)
    else:
        y_implied = np.inf
    # 1-ulp slack so exact-equality boundary cases resolve as certified
    certified = beta1 < 1.0 and beta2 < 1.0 and y_implied <= y_inf * (1.0 + 1e-12)
    return BaselineResult(beta1=float(beta1), beta2=float(beta2),
                          certified=certified, y_inf_implied=float(y_implied),
                          gamma_pi=float(gamma_pi))


def hinf_corollary(maps: ClosedLoopMaps, gamma_pi: float, gamma_delta: float,
                   grid: int = 512) -> bool:
    """Two-norm variant of the small-gain conditions; advisory only.

    :func:`_betas` on the grid-estimated peak gains, so this check is
    indicative rather than certified.
    """
    def peak(which: str) -> float:
        return hinf_norm(*maps.realization(which), grid=grid)

    beta1, beta2 = _betas(peak, gamma_pi, gamma_delta)
    return beta1 < 1.0 and beta2 < 1.0


def constructive_quadruplet(maps: ClosedLoopMaps, gamma_pi: float, gamma_delta: float,
                            w_inf: float) -> Quadruplet:
    """Invariant box implied by the small-gain conditions, in closed form.

    Solves the two-variable fixed point

        y_ref  = ||Phi_yw|| w + gamma_pi ||Phi_yu|| y_ref + gamma_delta ||Phi_yd|| a_ref
        a_ref  = ||Phi_aw|| w + gamma_pi ||Phi_au|| y_ref + gamma_delta ||Phi_ad|| a_ref

    and returns ``(y_ref 1, gamma_pi y_ref 1, a_ref 1, gamma_delta a_ref 1)``.
    Because the L1 norm is the worst row sum, this box always passes
    :func:`check_theorem1` (a tiny relative inflation absorbs rounding of
    the equality rows).  Requires ``beta1 < 1`` and ``beta2 < 1``.
    """
    l1 = maps.l1
    beta1, beta2 = _betas(l1, gamma_pi, gamma_delta)
    if not (beta1 < 1.0 and beta2 < 1.0):
        raise ValueError("small-gain conditions do not hold; no constructive box exists")
    scale = w_inf / ((1.0 - beta1) * (1.0 - beta2))
    adj = np.array([
        [1.0 - beta1, gamma_delta * l1("ydelta")],
        [gamma_pi * l1("alpha_u"), 1.0 - gamma_pi * l1("yu")],
    ])
    y_ref, alpha_ref = scale * (adj @ np.array([l1("yw"), l1("alpha_w")]))
    grow = 1.0 + _QUAD_INFLATION
    _, m, _, q, r, s = maps.dims
    return Quadruplet(
        y_bar=np.full(r, grow * y_ref),
        u_bar=np.full(m, grow * gamma_pi * y_ref),
        alpha_bar=np.full(s, grow * alpha_ref),
        delta_bar=np.full(q, grow * gamma_delta * alpha_ref),
    )


# ---------------------------------------------------------------------------
# Gain extraction and the invariant-set iteration.
# ---------------------------------------------------------------------------


def extract_gain(plant: StateSpacePlant, net: ReluNetwork, box: Box | None,
                 k_d: np.ndarray | None) -> np.ndarray:
    """Pick a stabilizing linear approximation of the policy.

    Candidate order: midpoint of the relaxation envelopes over ``box`` (when
    the box is non-degenerate), then the Jacobian at the origin (when it
    exists), then the supplied default ``k_d``.  The first candidate whose
    loop closes (:func:`close_loop` does not raise ``NotSchurStable``) wins.

    Raises
    ------
    NoStabilizingGain
        If no candidate stabilizes the loop.
    """
    return extract_loop(plant, net, box, k_d)[0]


def extract_loop(plant: StateSpacePlant, net: ReluNetwork, box: Box | None,
                 k_d: np.ndarray | None,
                 eps_trunc: float = DEFAULT_EPS_TRUNC) -> tuple[np.ndarray, ClosedLoopMaps]:
    """:func:`extract_gain` together with the loop it closes, at ``eps_trunc``;
    the winning closure is the only one built."""
    lb = None
    if box is not None and np.any(box.radius > 0):
        lb = neural.linear_relaxation(net, box)
    return _pick_gain(plant, net, lb, k_d, eps_trunc)


def _pick_gain(plant: StateSpacePlant, net: ReluNetwork, lb: LinearBounds | None,
               k_d: np.ndarray | None, eps_trunc: float) -> tuple[np.ndarray, ClosedLoopMaps]:
    """:func:`extract_gain` with the relaxation ``lb`` over the box given,
    returning the winning gain together with its closed-loop maps."""
    candidates = []
    if lb is not None:
        candidates.append((lb.k_u + lb.k_l) / 2.0)
    try:
        candidates.append(neural.jacobian_at(net, np.zeros(net.input_dim)))
    except neural.OnKink:
        pass
    if k_d is not None:
        candidates.append(np.asarray(k_d, dtype=float))
    # zero gain closes nothing; valid whenever the plant is open-loop stable
    candidates.append(np.zeros((plant.m, plant.r)))
    for k in candidates:
        try:
            return k, _closed_loop(plant, k, eps_trunc)
        except NotSchurStable:
            pass
    raise NoStabilizingGain("no stabilizing candidate gain (midpoint, Jacobian, default)")


# Content-addressed memo of the closed-loop maps, evicting the oldest entry
# first.  An entry holds the realization and its absolute sums, not the
# impulse response: 704 bytes of arrays on the cart-pole and 1,984 on the
# learned plant (where a held response took 1.4 MB), 127 KB for 64 entries.
_CLOSURES_MAX = 64
_closures: dict = {}
_closures_lock = threading.Lock()


def _loop_key(plant: StateSpacePlant, k: np.ndarray, eps_trunc: float) -> tuple:
    """The bytes of the plant's matrices and the gain, and ``eps_trunc``."""
    parts = [plant.a, plant.b, plant.b_w, plant.b_delta, plant.c, plant.d_w,
             plant.c_alpha, plant.d_alpha_u, plant.d_alpha_w, k]
    return tuple(np.ascontiguousarray(p).tobytes() for p in parts) + (eps_trunc,)


def _closed_loop(plant: StateSpacePlant, k: np.ndarray, eps_trunc: float) -> ClosedLoopMaps:
    """:func:`close_loop` through the memo; the lock keeps its check-then-insert
    and its eviction whole when threads share it."""
    key = _loop_key(plant, k, eps_trunc)
    with _closures_lock:
        maps = _closures.get(key)
        if maps is None:
            if len(_closures) >= _CLOSURES_MAX:
                _closures.pop(next(iter(_closures)))
            maps = _closures[key] = close_loop(plant, k, eps_trunc)
        return maps


def _uncertainty_gain(plant: StateSpacePlant, gamma_delta) -> np.ndarray:
    """``gamma_delta`` as a nonnegative ``(q, s)`` matrix; zero when None."""
    q, s = plant.q, plant.s
    if gamma_delta is None:
        return np.zeros((q, s))
    gamma_delta = np.asarray(gamma_delta, dtype=float)
    if gamma_delta.shape != (q, s):
        raise ValueError(f"gamma_delta has shape {gamma_delta.shape}, expected ({q}, {s})")
    if np.any(gamma_delta < 0):
        raise ValueError("gamma_delta must be nonnegative")
    return gamma_delta


def _outside_limits(plant: StateSpacePlant, x_bar, y_bar, u_bar) -> bool:
    """Whether a bound on x, y or u exceeds the plant's limit anywhere."""
    return bool(np.any(x_bar > plant.x_lim) or np.any(y_bar > plant.y_lim)
                or np.any(u_bar > plant.u_lim))


def _certified_policy_bounds(net: ReluNetwork, box: Box | None, lb: LinearBounds | None,
                             k: np.ndarray, quantization: QuantizationSpec | None):
    """(u0_bar, u_bar) over ``box`` for the residual and full policy.

    ``lb`` is the relaxation over ``box``.  On the degenerate box (None) the
    bounds are the exact values at the origin.  Output quantization widens
    both bounds by half a step.
    """
    if box is None:
        u0_bar = u_bar = np.abs(neural.evaluate(net, np.zeros(net.input_dim)))
    else:
        # overflow leaves an infinite bound, which algorithm1 reports
        with np.errstate(over="ignore", invalid="ignore"):
            u0_bar, u_bar = neural.residual_magnitudes(lb, box, k)
    if quantization is not None:
        u0_bar = u0_bar + quantization.step / 2.0
        u_bar = u_bar + quantization.step / 2.0
    return u0_bar, u_bar


def algorithm1(plant: StateSpacePlant, net: ReluNetwork,
               k_d: np.ndarray | None = None, gamma_delta: np.ndarray | None = None,
               *, quantization: QuantizationSpec | None = None,
               w_inf: float | None = None, eps: float = 1e-6, max_iter: int = 200,
               eps_trunc: float = DEFAULT_EPS_TRUNC) -> CertResult:
    """Iterative search for a certified invariant box.

    Starting from the degenerate box, each pass (1) bounds the residual
    policy over the current reference box, (2) bounds the uncertainty output
    through ``|delta| <= gamma_delta |alpha|`` using the previous reference,
    (3) rebuilds the closed-loop maps on the extracted gain and computes the
    implied (x, y, alpha) bounds, then (4) declares failure if a limit is
    violated, success if the implied box sits inside the reference box, and
    otherwise inflates the reference by ``1 + eps`` and repeats.  A reference
    box or a relaxation that overflows ends the search with
    ``NON_FINITE_BOUNDS``; numpy's overflow warnings from the relaxation and
    its policy bounds are silenced, since the verdict reports the overflow.
    A search that reaches ``max_iter`` passes ends with ``MAX_ITER_EXCEEDED``.

    A search that stalls stops earlier, reported as ``STALLED``: from pass
    15 on, once the relative growth of the implied box has stayed above
    1e-5 and shrunk by less than 1.5 % per pass over the last six passes.
    This stall exit is a heuristic and can cost a certificate: a slowly
    converging search it stops at pass 17-18 may certify around pass 150 if
    run on.  It bounds the cost of failing searches, which otherwise mostly
    run on until their bounds overflow.

    ``u_bar`` in the result bounds the full policy output (for checking
    ``u_lim``); the residual bound is what feeds the transfer matrices.  The
    gain candidate and both policy bounds come from one relaxation per pass.
    """
    w_amp = plant.w_inf if w_inf is None else float(w_inf)
    m, r = plant.m, plant.r
    if net.input_dim != r or net.output_dim != m:
        raise ValueError(f"policy maps {net.input_dim}->{net.output_dim}, "
                         f"plant needs {r}->{m}")
    gamma_delta = _uncertainty_gain(plant, gamma_delta)
    w_bar = np.full(plant.p, w_amp)

    y_ref = np.zeros(r)
    alpha_ref = np.zeros(plant.s)
    iterations = 0
    growth: list[float] = []
    prev_scale = None
    while iterations < max_iter:
        iterations += 1
        box = lb = None
        if np.any(y_ref != 0.0):
            box = Box(np.zeros(r), y_ref)
            with np.errstate(over="ignore", invalid="ignore"):
                lb = neural.linear_relaxation(net, box)
            # a box near 1e154 overflows the relaxation's products
            if not all(np.all(np.isfinite(v)) for v in (lb.k_l, lb.b_l, lb.k_u, lb.b_u)):
                return CertResult(False, None, iterations, NON_FINITE_BOUNDS)
        try:
            k, maps = _pick_gain(plant, net, lb, k_d, eps_trunc)
        except NoStabilizingGain:
            return CertResult(False, None, iterations, NO_STABILIZING_GAIN)
        u0_bar, u_bar = _certified_policy_bounds(net, box, lb, k, quantization)
        delta_bar = gamma_delta @ alpha_ref
        x_bar, y_bar, alpha_bar = _implied_bounds(maps, w_bar, u0_bar, delta_bar)
        if _outside_limits(plant, x_bar, y_bar, u_bar):
            return CertResult(False, None, iterations, CONSTRAINT_VIOLATED, gain=k)
        if np.all(y_bar <= y_ref) and np.all(alpha_bar <= alpha_ref):
            quad = Quadruplet(y_bar=y_bar, u_bar=u_bar, alpha_bar=alpha_bar,
                              delta_bar=delta_bar, x_bar=x_bar)
            return CertResult(True, quad, iterations, None, gain=k)
        y_ref = (1.0 + eps) * y_bar
        alpha_ref = (1.0 + eps) * alpha_bar
        # an overflowed bound leaves no box to relax the policy over next pass
        if not np.all(np.isfinite(y_ref)):
            return CertResult(False, None, iterations, NON_FINITE_BOUNDS)
        # Stall exit, a heuristic that can change the verdict.  Below the
        # fixed point the per-pass growth factor exceeds 1 with an excess
        # that decays like the slope of the bound map; once the excess stops
        # decaying (ratio near or above 1 for several passes) the slope is
        # close to or above 1, and the search gives up.  A slope just below
        # 1 still converges, but only after about a hundred more passes.
        scale = float(np.max(y_bar, initial=0.0))
        if prev_scale is not None and prev_scale > 0.0:
            growth.append(scale / prev_scale - 1.0)
        prev_scale = scale
        if iterations >= 15 and len(growth) >= 6:
            recent = growth[-6:]
            if (all(e > 1e-5 for e in recent)
                    and all(nxt > 0.985 * cur for cur, nxt in zip(recent, recent[1:]))):
                return CertResult(False, None, iterations, STALLED)
    return CertResult(False, None, iterations, MAX_ITER_EXCEEDED)


# ---------------------------------------------------------------------------
# Attack-level frontiers.
# ---------------------------------------------------------------------------


def with_state_limit(plant: StateSpacePlant, target_state: int | None,
                      value: float) -> StateSpacePlant:
    """Plant with the state limit of ``target_state`` (or all states) set."""
    x_lim = plant.x_lim.copy()
    if target_state is None:
        x_lim[:] = value
    else:
        x_lim[target_state] = value
    return replace(plant, x_lim=x_lim)


def bisect_max_level(certifies: Callable[[float], bool], tol: float = 1e-4,
                     cap_doublings: int = 20) -> float:
    """Largest level certified by a monotone predicate, to relative tol.

    Doubles upward from ``tol`` until the predicate fails (or the cap
    ``2**cap_doublings * tol`` certifies, which is then returned), then
    bisects.  Returns 0 when even level 0 fails.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not certifies(0.0):
        return 0.0
    lo, hi = 0.0, tol
    cap = tol * 2.0**cap_doublings
    while certifies(hi):
        lo = hi
        if hi >= cap:
            return hi
        hi = min(2.0 * hi, cap)
    # the halving count is capped so a certified level of exactly zero
    # (lo never moves) terminates too
    for _ in range(200):
        if hi - lo <= tol * hi:
            break
        mid = (lo + hi) / 2.0
        if certifies(mid):
            lo = mid
        else:
            hi = mid
    return lo


def frontier(plant: StateSpacePlant, net: ReluNetwork,
             k_d: np.ndarray | None = None, gamma_delta: np.ndarray | None = None,
             x_lim_values=(), tol: float = 1e-4, *, target_state: int | None = None,
             quantization: QuantizationSpec | None = None,
             eps_trunc: float = DEFAULT_EPS_TRUNC) -> list[tuple[float, float]]:
    """Largest certifiable attack level per state-deviation limit.

    For each limit the attack amplitude is bisected (relative tolerance
    ``tol``) on the success of :func:`algorithm1` with that limit installed
    on ``target_state`` (every state when None).  The resulting curve is
    nondecreasing in the limit up to the bisection tolerance.
    """
    def certifies(limited: StateSpacePlant, w: float) -> bool:
        return algorithm1(limited, net, k_d, gamma_delta, quantization=quantization,
                          w_inf=w, eps_trunc=eps_trunc).success

    return _frontier(plant, x_lim_values, tol, target_state, certifies)


def _frontier(plant: StateSpacePlant, x_lim_values, tol: float, target_state: int | None,
              certifies: Callable[[StateSpacePlant, float], bool]) -> list[tuple[float, float]]:
    """``(limit, largest level)`` pairs, bisecting ``certifies(limited_plant, w)``."""
    out = []
    for value in x_lim_values:
        limited = with_state_limit(plant, target_state, float(value))
        out.append((float(value), bisect_max_level(lambda w: certifies(limited, w), tol)))
    return out


# ---------------------------------------------------------------------------
# Small-gain baseline with a sampled policy gain.
# ---------------------------------------------------------------------------


def sampled_linf_gain(net: ReluNetwork, k0: np.ndarray, radius, n_samples: int = 4096,
                      seed: int = 0, quantization: QuantizationSpec | None = None) -> float:
    """Sampled infinity-gain of the residual policy over ``|y| <= radius``.

    Maximizes ``||pi(y) - K0 y||_inf / ||y||_inf`` over uniform samples; a
    lower bound of the true local gain (it is an estimate, never a
    certificate).  Diverges as the box shrinks whenever the residual does
    not vanish at the origin, e.g. for quantized outputs.

    The samples are ``low + (high - low) * U`` for the unit sample
    ``U = default_rng(seed).random``, bit for bit what
    ``default_rng(seed).uniform(-radius, radius)`` draws, so that
    :func:`baseline_certify` can draw ``U`` once and rescale it per region.
    The policy is evaluated into row buffers; the gain is bit-identical to
    evaluating fresh draws on fresh arrays.
    """
    return _gain_sampler(net, k0, n_samples, seed, quantization)(radius)


def _gain_sampler(net: ReluNetwork, k0, n_samples: int, seed: int,
                  quantization: QuantizationSpec | None) -> Callable[[object], float]:
    """``radius -> sampled gain`` over one unit sample and one set of row buffers.

    Every call rescales the same unit sample to its radius, so the sampler
    of one seed returns what :func:`sampled_linf_gain` returns for that seed
    at any radius.  The buffers belong to the returned function alone.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    k0 = np.asarray(k0, dtype=float)
    dim = net.input_dim
    unit = np.random.default_rng(seed).random((n_samples, dim))
    ys = np.empty_like(unit)
    outs = [np.empty((n_samples, layer.weight.shape[0])) for layer in net.layers]

    def gain(radius) -> float:
        radius = np.broadcast_to(np.asarray(radius, dtype=float), (dim,))
        if not np.all(np.isfinite(radius)) or np.any(radius < 0):
            raise ValueError("radius must be finite and elementwise >= 0")
        # Generator.uniform(low, high) draws low + (high - low) * U elementwise
        low = -radius
        np.multiply(radius - low, unit, out=ys)
        np.add(ys, low, out=ys)
        u = neural._forward_into(ys, net.layers, outs)
        if quantization is not None:
            u = quantization.apply(u)
        residual = u - ys @ k0.T
        norms_y = np.max(np.abs(ys), axis=1)
        keep = norms_y > 0
        if not np.any(keep):
            return 0.0
        ratios = np.max(np.abs(residual[keep]), axis=1) / norms_y[keep]
        return float(np.max(ratios))

    return gain


def baseline_certify(plant: StateSpacePlant, net: ReluNetwork,
                     k_d: np.ndarray | None = None,
                     gamma_delta: np.ndarray | None = None, *,
                     w_inf: float | None = None,
                     quantization: QuantizationSpec | None = None,
                     n_samples: int = 4096, seed: int = 0,
                     max_region_iter: int = 40,
                     eps_trunc: float = DEFAULT_EPS_TRUNC,
                     check_limits: bool = True) -> tuple[BaselineResult, Quadruplet | None]:
    """Small-gain baseline with an iteratively grown validity region.

    Extracts a fixed gain (Jacobian at the origin, else ``k_d``), samples the
    residual infinity-gain over the current region, evaluates the small-gain
    conditions and grows the region until the implied measurement bound fits
    inside it (certified) or the conditions break.  On success the closed
    form quadruplet is returned as well; with ``check_limits`` the plant
    limits must also contain it.

    The unit sample is drawn once per call and rescaled to each region, and
    the policy is evaluated into row buffers held for the whole region loop;
    every region's gain is bit-identical to :func:`sampled_linf_gain` there.
    When ``beta1 >= 1`` no region can certify, and only the region the scan
    would end on is sampled.

    ``gamma_delta`` is checked as :func:`algorithm1` checks it and enters the
    small-gain conditions as its largest row sum.
    """
    w_amp = plant.w_inf if w_inf is None else float(w_inf)
    gamma = float(np.max(np.sum(_uncertainty_gain(plant, gamma_delta), axis=1), initial=0.0))
    try:
        k0, maps = _pick_gain(plant, net, None, k_d, eps_trunc)
    except NoStabilizingGain:
        return BaselineResult(np.inf, np.inf, False, np.inf), None

    # Region search: the sampled gain is large both on tiny regions (any
    # policy offset at the origin dominates) and on huge ones (saturation),
    # so scan upward and keep the first region that closes all conditions.
    y_inf = max(maps.l1("yw") * w_amp, 1e-9)
    if max_region_iter > 0 and _betas(maps.l1, 0.0, gamma)[0] >= 1.0:
        # beta1 depends on no region, so none certifies and the scan only
        # doubles the region: sample just the one it would end on, whose
        # gain the result reports
        for _ in range(max_region_iter - 1):
            if y_inf * 2.0 > 1e9:
                break
            y_inf *= 2.0
        max_region_iter = 1
    result = BaselineResult(np.inf, np.inf, False, np.inf)
    sampled_gain = _gain_sampler(net, k0, n_samples, seed, quantization)
    for _ in range(max_region_iter):
        result = check_lemma1(maps, sampled_gain(y_inf), gamma, w_amp, y_inf)
        if result.certified:
            break
        if (result.beta1 < 1.0 and result.beta2 < 1.0
                and np.isfinite(result.y_inf_implied) and result.y_inf_implied > y_inf):
            y_inf = result.y_inf_implied * (1.0 + 1e-6)
        else:
            y_inf *= 2.0
        if y_inf > 1e9:
            break
    if not result.certified:
        return result, None

    quad = constructive_quadruplet(maps, result.gamma_pi, gamma, w_amp)
    x_bar, _, _ = _implied_bounds(maps, np.full(plant.p, w_amp), quad.u_bar, quad.delta_bar)
    quad = replace(quad, x_bar=x_bar)
    if check_limits and _outside_limits(plant, x_bar, quad.y_bar, quad.u_bar):
        return replace(result, certified=False), quad
    return result, quad


def baseline_frontier(plant: StateSpacePlant, net: ReluNetwork,
                      k_d: np.ndarray | None = None,
                      gamma_delta: np.ndarray | None = None, x_lim_values=(),
                      tol: float = 1e-4, *, target_state: int | None = None,
                      quantization: QuantizationSpec | None = None,
                      n_samples: int = 4096, seed: int = 0,
                      eps_trunc: float = DEFAULT_EPS_TRUNC) -> list[tuple[float, float]]:
    """Largest attack level the small-gain baseline accepts, per limit."""
    def certifies(limited: StateSpacePlant, w: float) -> bool:
        result, _ = baseline_certify(limited, net, k_d, gamma_delta, w_inf=w,
                                     quantization=quantization, n_samples=n_samples,
                                     seed=seed, eps_trunc=eps_trunc)
        return result.certified

    return _frontier(plant, x_lim_values, tol, target_state, certifies)
