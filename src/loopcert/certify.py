"""Certification engine: invariant-set boundedness under persistent attack.

Two routes are implemented and compared throughout:

* the small-gain baseline, which models the policy only through the affine
  bound ``|pi(y) - K0 y| <= b + gamma_pi ||y||`` (and the uncertainty block
  through ``gamma_delta``) and certifies via the L1-norm conditions
  ``beta_1 < 1``, ``beta_2 < 1`` plus a region check;
* the invariant-set engine, which asks a network relaxation for elementwise
  magnitude bounds and searches for a quadruplet ``(y_bar, u_bar, alpha_bar,
  delta_bar)`` that the closed-loop absolute transfer matrices map into
  itself.  Once such a box exists it is positively invariant, so every
  signal stays inside it for all time and any admissible perturbation.

The baseline's gain and offset come from interval bounds on the policy's
Jacobian (:func:`neural.jacobian_bounds`), so both routes are sound in exact
arithmetic.  Whenever the small-gain conditions hold, a quadruplet can be
constructed from their norms in closed form (:func:`constructive_quadruplet`),
so that box is never weaker than the baseline.  The search of
:func:`algorithm1` is another route and could be weaker; on 1,000 random
loops (seeds 0-199 of the test suite's generators at five amplitudes) it
certifies every one the baseline passes.

The iteration (:func:`algorithm1`) follows the candidate-box inflation
scheme literally: the uncertainty bound of each pass uses the reference
``alpha`` box from the previous pass, not the freshly computed one.  Using
the fresh value instead would also be sound but changes the iterate
sequence; we keep the literal transcription.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import neural
from .linsys import (
    ClosedLoopMaps,
    NotSchurStable,
    StateSpacePlant,
    close_loops,
    implied_bounds,
)
from .neural import Box, LinearBounds, QuantizationSpec, ReluNetwork

__all__ = [
    "Quadruplet",
    "CertResult",
    "BaselineResult",
    "NoStabilizingGain",
    "check_theorem1",
    "check_lemma1",
    "constructive_quadruplet",
    "algorithm1",
    "frontier",
    "with_state_limit",
    "bisect_max_level",
    "baseline_certify",
    "baseline_frontier",
    "extract_gain",
    "extract_loop",
    "CONSTRAINT_VIOLATED",
    "MAX_ITER_EXCEEDED",
    "NO_STABILIZING_GAIN",
    "NON_FINITE_BOUNDS",
]

CONSTRAINT_VIOLATED = "ConstraintViolated"
MAX_ITER_EXCEEDED = "MaxIterExceeded"
NO_STABILIZING_GAIN = "NoStabilizingGain"
NON_FINITE_BOUNDS = "NonFiniteBounds"

# Relative inflation applied to constructed quadruplets so that downstream
# elementwise checks are robust to the last-ulp rounding of equality cases.
_QUAD_INFLATION = 1e-9

# Relative inflation of algorithm1's reference box from one pass to the next,
# the passes it makes at most, the doublings after which a level bisection
# stops at its cap, and the regions the baseline's scan tries at most.
_BOX_INFLATION = 1e-6
_MAX_PASSES = 200
_CAP_DOUBLINGS = 20
_REGION_ITER = 40


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

    ``gamma_pi`` and ``offset`` bound the residual policy on the last
    region ``|y| <= y_inf`` the scan tried: ``|pi(y) - K0 y| <= offset +
    gamma_pi ||y||`` there, in exact arithmetic; both are nan when no gain
    was computed.  ``quadruplet`` is the scan's closed-form box with its
    ``x_bar`` when the scan certified; if the plant limits reject it,
    ``certified`` is False.
    """

    beta1: float
    beta2: float
    certified: bool
    y_inf_implied: float
    gamma_pi: float = float("nan")
    offset: float = float("nan")
    quadruplet: Quadruplet | None = None

    def to_dict(self) -> dict:
        """Strict JSON values (a non-finite number is None), then the box's ``x_bar``."""
        def number(v):
            return float(v) if np.isfinite(v) else None

        obj = {
            "beta1": number(self.beta1),
            "beta2": number(self.beta2),
            "certified": bool(self.certified),
            "y_inf_implied": number(self.y_inf_implied),
            "gamma_pi": number(self.gamma_pi),
            "offset": number(self.offset),
        }
        quad = self.quadruplet
        if quad is not None and quad.x_bar is not None:
            obj["x_bar"] = [float(v) for v in quad.x_bar]
        return obj


def check_theorem1(maps: ClosedLoopMaps, quad: Quadruplet, w_bar) -> tuple[bool, np.ndarray]:
    """Invariant-box feedback check, plus the implied state bound.

    Holds iff

        abs(Phi_yw) w_bar + abs(Phi_yu) u_bar + abs(Phi_ydelta) delta_bar <= y_bar
        abs(Phi_aw) w_bar + abs(Phi_au) u_bar + abs(Phi_adelta) delta_bar <= alpha_bar

    elementwise.  Returns ``(holds, x_bar)`` with ``x_bar`` the matching
    state bound ``abs(Phi_xw) w_bar + abs(Phi_xu) u_bar + abs(Phi_xd) d_bar``,
    all three from :func:`linsys.implied_bounds`.
    """
    w_bar = np.asarray(w_bar, dtype=float)
    _, m, p, q, r, s = maps.dims
    if (w_bar.shape, quad.u_bar.shape, quad.delta_bar.shape) != ((p,), (m,), (q,)):
        raise ValueError("quadruplet dimensions do not match the maps")
    if (quad.y_bar.shape, quad.alpha_bar.shape) != ((r,), (s,)):
        raise ValueError("quadruplet dimensions do not match the maps")
    x_bar, y_out, a_out = implied_bounds(maps.abs_stack, maps.dims, w_bar, quad.u_bar,
                                         quad.delta_bar)
    holds = bool(np.all(y_out <= quad.y_bar) and np.all(a_out <= quad.alpha_bar))
    return holds, x_bar


def _betas(maps: ClosedLoopMaps, gamma_pi: float, gamma_delta: float) -> tuple[float, float]:
    """``(beta1, beta2)`` of the small-gain conditions on the L1 norms of ``maps``.

    ``beta1 = gamma_delta ||Phi_alpha_delta||`` closes the uncertainty loop and

        beta2 = gamma_pi (||Phi_yu|| + gamma_delta/(1-beta1) ||Phi_ydelta|| ||Phi_alpha_u||)

    the policy loop.  When ``beta1 < 1`` fails, ``beta2`` is ``inf`` and no
    other norm is read.
    """
    l1 = maps.l1
    beta1 = gamma_delta * l1("alpha_delta")
    if not beta1 < 1.0:
        return beta1, np.inf
    return beta1, gamma_pi * (l1("yu") + gamma_delta / (1.0 - beta1) * l1("ydelta")
                              * l1("alpha_u"))


def check_lemma1(maps: ClosedLoopMaps, gamma_pi: float, gamma_delta: float,
                 w_inf: float, y_inf: float, offset: float = 0.0) -> BaselineResult:
    """Small-gain baseline on L1 norms, for a residual policy bounded by
    ``offset + gamma_pi ||y||``.

    With ``(beta1, beta2)`` of :func:`_betas` and
    ``c = gamma_delta ||Phi_yd|| / (1 - beta1)``, when both are below one the
    implied measurement bound is

        y_implied = ((||Phi_yw|| + c ||Phi_aw||) w_inf
                     + (||Phi_yu|| + c ||Phi_au||) offset) / (1 - beta2)

    and the configuration is certified iff additionally
    ``y_implied <= y_inf`` (the region where the bound is valid).
    """
    l1 = maps.l1
    beta1, beta2 = _betas(maps, gamma_pi, gamma_delta)
    if beta1 < 1.0 and beta2 < 1.0:
        c = gamma_delta / (1.0 - beta1) * l1("ydelta")
        y_implied = ((l1("yw") + c * l1("alpha_w")) * w_inf
                     + (l1("yu") + c * l1("alpha_u")) * offset) / (1.0 - beta2)
    else:
        y_implied = np.inf
    # 1-ulp slack so exact-equality boundary cases resolve as certified
    certified = beta1 < 1.0 and beta2 < 1.0 and y_implied <= y_inf * (1.0 + 1e-12)
    return BaselineResult(beta1=float(beta1), beta2=float(beta2),
                          certified=certified, y_inf_implied=float(y_implied),
                          gamma_pi=float(gamma_pi), offset=float(offset))


def constructive_quadruplet(maps: ClosedLoopMaps, gamma_pi: float, gamma_delta: float,
                            w_inf: float, offset: float = 0.0) -> Quadruplet:
    """Invariant box implied by the small-gain conditions, in closed form,
    for a residual policy bounded by ``offset + gamma_pi ||y||``.

    Solves the two-variable fixed point (``b`` the offset)

        y_ref  = ||Phi_yw|| w + ||Phi_yu|| (b + gamma_pi y_ref) + gamma_delta ||Phi_yd|| a_ref
        a_ref  = ||Phi_aw|| w + ||Phi_au|| (b + gamma_pi y_ref) + gamma_delta ||Phi_ad|| a_ref

    and returns ``(y_ref 1, (b + gamma_pi y_ref) 1, a_ref 1,
    gamma_delta a_ref 1)``.  Because the L1 norm is the worst row sum, this
    box always passes :func:`check_theorem1` (a tiny relative inflation
    absorbs rounding of the equality rows).  Requires ``beta1 < 1`` and
    ``beta2 < 1``.
    """
    l1 = maps.l1
    beta1, beta2 = _betas(maps, gamma_pi, gamma_delta)
    if not (beta1 < 1.0 and beta2 < 1.0):
        raise ValueError("small-gain conditions do not hold; no constructive box exists")
    adj = np.array([
        [1.0 - beta1, gamma_delta * l1("ydelta")],
        [gamma_pi * l1("alpha_u"), 1.0 - gamma_pi * l1("yu")],
    ])
    rhs = np.array([l1("yw") * w_inf + l1("yu") * offset,
                    l1("alpha_w") * w_inf + l1("alpha_u") * offset])
    y_ref, alpha_ref = (adj @ rhs) / ((1.0 - beta1) * (1.0 - beta2))
    grow = 1.0 + _QUAD_INFLATION
    _, m, _, q, r, s = maps.dims
    return Quadruplet(
        y_bar=np.full(r, grow * y_ref),
        u_bar=np.full(m, grow * (offset + gamma_pi * y_ref)),
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
    exists), then the supplied default ``k_d``, then zero.  The first whose
    loop closes (Schur stable, within the term cap: :meth:`_Loop.gains`) wins.

    Raises
    ------
    NoStabilizingGain
        If no candidate stabilizes the loop.
    """
    return extract_loop(plant, net, box, k_d)[0]


def extract_loop(plant: StateSpacePlant, net: ReluNetwork, box: Box | None,
                 k_d: np.ndarray | None) -> tuple[np.ndarray, ClosedLoopMaps]:
    """:func:`extract_gain` with the loop it closes, the only closure built;
    :attr:`_Loop.fixed` without a box or on a degenerate one."""
    loop = _Loop(plant, net, k_d)
    if box is None or not np.any(box.radius > 0):
        picked = loop.fixed
    else:
        lb = neural.linear_relaxation(net, box)
        picked = loop.gains([(lb.k_u + lb.k_l) / 2.0])[0]
    if picked is None:
        raise NoStabilizingGain("no stabilizing candidate gain (midpoint, Jacobian, default)")
    return picked


# Content-addressed memo of the closed-loop maps, evicting the oldest entry
# first.  An entry holds the realization and its absolute sums, not the
# impulse response: 704 bytes of arrays on the cart-pole and 1,984 on the
# learned plant (where a held response took 1.4 MB), 127 KB for 64 entries.
# A loop that fails to close holds its NotSchurStable instead, so a failing
# candidate is closed once, not once per pass: a loop that fails the term
# cap has marched 2,000,000 terms before it fails.
_CLOSURES_MAX = 64
_closures: dict = {}
_closures_lock = threading.Lock()


def _loop_keys(plant: StateSpacePlant, gains: list) -> list:
    """Per gain, the bytes of the plant's realization matrices and the gain."""
    head = tuple(np.ascontiguousarray(p).tobytes() for p in plant.matrices())
    return [head + (np.ascontiguousarray(k).tobytes(),) for k in gains]


def _closed_loops(plant: StateSpacePlant, gains: list) -> list:
    """:func:`close_loops` of the gains through the memo: each gain is looked
    up, the loops missing from it are closed in one stack (a gain given
    twice once), and each of them, closed or failed, is inserted in the
    order of the gains.  The lock keeps the lookups, the inserts and the
    evictions whole when threads share the memo."""
    keys = _loop_keys(plant, gains)
    with _closures_lock:
        found = {key: _closures[key] for key in keys if key in _closures}
        missing = {key: k for key, k in zip(keys, gains) if key not in found}
        if missing:
            fresh = close_loops(plant, np.stack(list(missing.values())))
            for key, maps in zip(missing, fresh):
                found[key] = maps
                if len(_closures) >= _CLOSURES_MAX:
                    _closures.pop(next(iter(_closures)))
                _closures[key] = maps
    return [found[key] for key in keys]


def _outside_limits(plant: StateSpacePlant, x_bar, y_bar, u_bar) -> bool:
    """Whether a bound on x, y or u exceeds the plant's limit anywhere."""
    return bool((x_bar > plant.x_lim).any() or (y_bar > plant.y_lim).any()
                or (u_bar > plant.u_lim).any())


@dataclass(eq=False)
class _Search:
    """One search of :func:`algorithm1`: the plant with its limits, the
    perturbation bound, and the reference boxes after ``passes`` passes.
    ``result`` is set on the pass that ends it, and every result is built
    here: :meth:`overflowed` when the relaxation over the box overflows,
    :meth:`verdict` for every other ending."""

    plant: StateSpacePlant
    w_bar: np.ndarray
    y_ref: np.ndarray
    alpha_ref: np.ndarray
    passes: int = 0
    result: CertResult | None = None

    def overflowed(self) -> CertResult:
        """The end of a search whose bounds overflowed: no box is left to
        relax the policy over."""
        return CertResult(False, None, self.passes, NON_FINITE_BOUNDS)

    def verdict(self, k, *bounds) -> CertResult | None:
        """The end of a pass with gain ``k`` and the bounds ``(x_bar, y_bar,
        alpha_bar, u_bar, delta_bar)`` it implies: a verdict, or None after
        the reference boxes have grown for the next pass.  ``k`` is None, with
        no bounds, when no candidate gain closes the loop.

        The checks run in order: the limits, containment in the reference
        box, then (after the boxes grow) a non-finite box and the pass cap.
        """
        if k is None:
            return CertResult(False, None, self.passes, NO_STABILIZING_GAIN)
        x_bar, y_bar, alpha_bar, u_bar, delta_bar = bounds
        if _outside_limits(self.plant, x_bar, y_bar, u_bar):
            return CertResult(False, None, self.passes, CONSTRAINT_VIOLATED, gain=k)
        if (y_bar <= self.y_ref).all() and (alpha_bar <= self.alpha_ref).all():
            quad = Quadruplet(y_bar=y_bar, u_bar=u_bar, alpha_bar=alpha_bar,
                              delta_bar=delta_bar, x_bar=x_bar)
            return CertResult(True, quad, self.passes, None, gain=k)
        self.y_ref = (1.0 + _BOX_INFLATION) * y_bar
        self.alpha_ref = (1.0 + _BOX_INFLATION) * alpha_bar
        # an overflowed bound leaves no box to relax the policy over next pass
        if not np.isfinite(self.y_ref).all():
            return self.overflowed()
        if self.passes == _MAX_PASSES:
            return CertResult(False, None, self.passes, MAX_ITER_EXCEEDED)
        return None


class _Loop:
    """The five inputs every route closes its loop from (a plant realization,
    a policy, a default gain ``k_d``, Γ_Δ and the output quantization),
    checked once: a policy of other dimensions than the plant, a ``k_d``
    that is not a finite ``(m, r)`` matrix or a Γ_Δ that is not a
    nonnegative ``(q, s)`` matrix raises ``ValueError``.  Γ_Δ is held as
    that matrix, zero when None.  Searches that differ only in the plant's
    limits and the level share one.

    :meth:`gains` picks gains, :attr:`fixed` is the gain without a box (what
    the baseline and :func:`extract_loop` take), :attr:`origin_bounds` the
    policy bounds without a box, and :meth:`step` makes one pass of any
    number of searches at once.
    """

    def __init__(self, plant: StateSpacePlant, net: ReluNetwork, k_d=None, gamma_delta=None,
                 quantization: QuantizationSpec | None = None):
        m, r, q, s = plant.m, plant.r, plant.q, plant.s
        if net.input_dim != r or net.output_dim != m:
            raise ValueError(f"policy maps {net.input_dim}->{net.output_dim}, "
                             f"plant needs {r}->{m}")
        if k_d is not None:
            # checked here, since a search whose other candidates close the
            # loop never closes it on k_d
            k_d = np.asarray(k_d, dtype=float)
            if k_d.shape != (m, r):
                raise ValueError(f"k_d has shape {k_d.shape}, expected ({m}, {r})")
            if not np.isfinite(k_d).all():
                raise ValueError("k_d contains non-finite entries")
        gamma_delta = np.zeros((q, s)) if gamma_delta is None else np.asarray(gamma_delta, float)
        if gamma_delta.shape != (q, s):
            raise ValueError(f"gamma_delta has shape {gamma_delta.shape}, expected ({q}, {s})")
        if np.any(gamma_delta < 0):
            raise ValueError("gamma_delta must be nonnegative")
        self.plant, self.net, self.quantization = plant, net, quantization
        self.k_d, self.gamma_delta = k_d, gamma_delta

    @functools.cached_property
    def jacobian(self) -> np.ndarray | None:
        """The policy's Jacobian at the origin, or None where it has a kink."""
        try:
            return neural.jacobian_at(self.net, np.zeros(self.net.input_dim))
        except neural.OnKink:
            return None

    @functools.cached_property
    def origin_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """``(u0_bar, u_bar)`` on the degenerate box, where the residual and
        the full policy are both the exact ``|pi(0)|``, widened for the
        quantizer."""
        bound = np.abs(neural.evaluate(self.net, np.zeros(self.net.input_dim)))
        if self.quantization is not None:
            bound = self.quantization.widen(bound)
        return bound, bound

    @functools.cached_property
    def fixed(self) -> tuple[np.ndarray, ClosedLoopMaps] | None:
        """The gain without a box, with its maps: the first of the Jacobian,
        ``k_d`` and zero whose loop closes, or None when none closes."""
        return self.gains([None])[0]

    def _candidates(self, midpoint):
        if midpoint is not None:
            yield midpoint
        if self.jacobian is not None:
            yield self.jacobian
        if self.k_d is not None:
            yield self.k_d
        # zero gain closes nothing; valid whenever the plant is open-loop stable
        yield np.zeros((self.plant.m, self.plant.r))

    def gains(self, midpoints: list) -> list:
        """Per midpoint gain (None where there is no box), the first candidate
        whose loop closes, with its maps, or None when none closes.

        The candidates are tried in order and only as far as needed: the
        midpoint, the Jacobian at the origin (when it exists), ``k_d``, and
        zero.  Each round of tries asks the memo for all searches still open
        at once (:func:`_closed_loops`), so it closes its new loops in one
        stack.
        """
        tries = [self._candidates(mid) for mid in midpoints]
        picked = [None] * len(tries)
        open_ = range(len(tries))
        while open_:
            trial = {i: k for i in open_ if (k := next(tries[i], None)) is not None}
            for (i, k), maps in zip(trial.items(), _closed_loops(self.plant, list(trial.values()))):
                if not isinstance(maps, NotSchurStable):
                    picked[i] = k, maps
            open_ = [i for i in trial if picked[i] is None]
        return picked

    def search(self, plant: StateSpacePlant, w_amp: float) -> _Search:
        """A new search on ``plant`` (this realization with its own limits)
        at perturbation level ``w_amp``, from the degenerate box."""
        return _Search(plant, np.full(plant.p, float(w_amp)), np.zeros(plant.r),
                       np.zeros(plant.s))

    def step(self, searches: list) -> None:
        """One pass of :func:`algorithm1` for each of the searches, none of
        which has ended: their boxes relaxed in one stack, their gains picked
        and their loops closed in one stack, the policy bounded over each box
        and the Theorem-1 product taken in one stack; each search then ends
        its own pass (:class:`_Search`).

        Every stacked product acts on one search's vectors and matrices, so
        each search's pass is bit for bit the pass it makes alone.
        """
        for s in searches:
            s.passes += 1
        boxed = [s for s in searches if s.y_ref.any()]
        plain = [s for s in searches if s not in boxed]
        if boxed:
            radius = np.array([s.y_ref for s in boxed])
            box = Box(np.zeros_like(radius), radius)
            with np.errstate(over="ignore", invalid="ignore"):
                lb = neural.linear_relaxation(self.net, box)
            finite = (np.isfinite(lb.k_l).all(axis=(1, 2)) & np.isfinite(lb.k_u).all(axis=(1, 2))
                      & np.isfinite(lb.b_l).all(axis=1) & np.isfinite(lb.b_u).all(axis=1))
            if not finite.all():
                # a box near 1e154 overflows the relaxation's products
                for s, ok in zip(boxed, finite):
                    if not ok:
                        s.result = s.overflowed()
                boxed = [s for s in boxed if s.result is None]
                lb = LinearBounds(*(v[finite] for v in (lb.k_l, lb.b_l, lb.k_u, lb.b_u)))
                box = Box(box.center[finite], box.radius[finite])
        picked, bounds = [], []
        if boxed:
            picked = self.gains(list((lb.k_u + lb.k_l) / 2.0))
            # the policy bounds over each box from its relaxation; a search
            # whose gain search failed takes zero there, and its bounds go
            # unread.  Overflow leaves an infinite bound, which the verdict
            # reports.
            zero = np.zeros((self.plant.m, self.plant.r))
            k = np.array([zero if pick is None else pick[0] for pick in picked])
            with np.errstate(over="ignore", invalid="ignore"):
                u0_bar, u_bar = neural.residual_magnitudes(lb, box, k)
            if self.quantization is not None:
                u0_bar, u_bar = self.quantization.widen(u0_bar), self.quantization.widen(u_bar)
            bounds = list(zip(u0_bar, u_bar))
        picked += [self.fixed] * len(plain)
        bounds += [self.origin_bounds] * len(plain)

        closed = []
        for s, pick, bound in zip(boxed + plain, picked, bounds):
            if pick is None:
                s.result = s.verdict(None)
            else:
                closed.append((s, *pick, *bound))
        if not closed:
            return
        closed, gains, maps, u0_bar, u_bar = zip(*closed)
        alpha_ref = np.array([s.alpha_ref for s in closed])
        delta_bar = (self.gamma_delta @ alpha_ref[..., None])[..., 0]
        implied = implied_bounds(np.array([m.abs_stack for m in maps]), maps[0].dims,
                                 [s.w_bar for s in closed], u0_bar, delta_bar)
        for i, s in enumerate(closed):
            s.result = s.verdict(gains[i], *(v[i] for v in implied), u_bar[i], delta_bar[i])


def algorithm1(plant: StateSpacePlant, net: ReluNetwork,
               k_d: np.ndarray | None = None, gamma_delta: np.ndarray | None = None,
               *, quantization: QuantizationSpec | None = None,
               w_inf: float | None = None) -> CertResult:
    """Iterative search for a certified invariant box.

    Starting from the degenerate box, each pass (1) bounds the residual
    policy over the current reference box, (2) bounds the uncertainty output
    through ``|delta| <= gamma_delta |alpha|`` using the previous reference,
    (3) rebuilds the closed-loop maps on the extracted gain and computes the
    implied (x, y, alpha) bounds, then (4) declares failure if a limit is
    violated, success if the implied box sits inside the reference box, and
    otherwise inflates the reference by ``1 + _BOX_INFLATION`` (1e-6) and
    repeats.  A reference box or a relaxation that overflows ends the search
    with ``NON_FINITE_BOUNDS``; numpy's overflow warnings from the relaxation
    and its policy bounds are silenced, since the verdict reports the overflow.
    A loop with no stabilizing gain ends with ``NO_STABILIZING_GAIN``, and a
    search that makes ``_MAX_PASSES`` (200) passes without another verdict
    ends with ``MAX_ITER_EXCEEDED``.  No other rule stops a search early: a
    slowly converging one may certify after 150 passes.

    ``u_bar`` in the result bounds the full policy output (for checking
    ``u_lim``); the residual bound is what feeds the transfer matrices.  The
    gain candidate and both policy bounds come from one relaxation per pass.

    The search is the stepper :meth:`_Loop.step` run on this one search
    until it ends.  :func:`frontier` runs many searches through one stepper
    together; each makes the same passes, and ends with the same result, as
    it does here.
    """
    loop = _Loop(plant, net, k_d, gamma_delta, quantization)
    search = loop.search(plant, plant.w_inf if w_inf is None else w_inf)
    while search.result is None:
        loop.step([search])
    return search.result


# ---------------------------------------------------------------------------
# Attack-level frontiers.
# ---------------------------------------------------------------------------


def with_state_limit(plant: StateSpacePlant, target_state: int | None,
                      value: float) -> StateSpacePlant:
    """Plant with the state limit of ``target_state`` (or all states) set.

    Raises ``ValueError`` for an index outside ``[0, n)``, negative included.
    """
    x_lim = plant.x_lim.copy()
    if target_state is None:
        x_lim[:] = value
    elif 0 <= target_state < plant.n:
        x_lim[target_state] = value
    else:
        raise ValueError(f"target state {target_state} out of range for n={plant.n}")
    return replace(plant, x_lim=x_lim)


class _Bisection:
    """Bracket ``(lo, hi)`` of the least failing level of a monotone batch
    predicate: ``lo`` passes (or is 0) and ``hi`` fails (or is inf).

    A walk whose whole state is its bracket, whether 0 has been asked, and
    ``asked``, the batch of levels it waits on (empty once it has ended).
    :meth:`send` takes their verdicts (True for a level that fails), narrows
    the bracket and sets the next batch; :func:`_lockstep` drives many at
    once.  No level is asked twice, and a ``copy.copy`` walks on alone, so a
    caller can guess ahead on a copy (see
    :func:`loopcert.attack.violation_levels`).  ``tol`` is relative and must
    lie in (0, 1): at 1 or above the bracket ``(0, tol)`` would already be
    within it.

    * Doubling: ``tol * 2**k`` for ``k = 0 .. max(cap, 0)``.  ``hi`` is the
      first that fails, ``lo`` the one before; when none fails, the bracket
      is ``(tol * 2**cap, inf)``.
    * Zero: 0 is asked only when ``tol`` fails, with the first midpoint.
      When 0 fails too, the bracket is ``(0, 0)``.
    * Stop: bisect while ``hi - lo > tol * hi``; stop when the midpoint is
      ``lo`` or ``hi`` itself (no float lies between them).
    * Batch: one level a batch, but for 0 and the first midpoint.
    """

    def __init__(self, tol: float, cap: int):
        if not 0 < tol < 1:
            raise ValueError("tol must be in (0, 1)")
        self.tol, self.top = tol, tol * 2.0**max(cap, 0)
        self.lo, self.hi = 0.0, np.inf
        self.zero_asked = False
        self.asked = [tol]

    def send(self, verdicts: list) -> None:
        for level, fails in zip(self.asked, verdicts):
            if fails:
                self.hi = min(self.hi, level)
            else:
                self.lo = max(self.lo, level)
        self.lo = min(self.lo, self.hi)  # 0 failed: (0, 0), whatever its midpoint gave
        if self.hi == np.inf:
            self.asked = [] if self.lo >= self.top else [2.0 * self.lo]
        elif self.lo == 0.0 and not self.zero_asked:
            self.zero_asked = True
            self.asked = list(dict.fromkeys([0.0, self.hi / 2.0]))
        else:
            mid = (self.lo + self.hi) / 2.0
            stop = self.hi - self.lo <= self.tol * self.hi or mid in (self.lo, self.hi)
            self.asked = [] if stop else [mid]


def _lockstep(bisections: list, answer: Callable[[dict], dict]) -> list[tuple[float, float]]:
    """The brackets of the :class:`_Bisection` walks, driven together until
    each has ended: each round ``answer`` gets ``{i: levels}`` of every
    waiting walk and returns ``{i: verdicts}`` of those it answers; the
    others wait."""
    while asked := {i: b.asked for i, b in enumerate(bisections) if b.asked}:
        for i, verdicts in answer(asked).items():
            bisections[i].send(verdicts)
    return [(b.lo, b.hi) for b in bisections]


def bisect_max_level(certifies: Callable[[float], bool], tol: float = 1e-4) -> float:
    """Largest level certified by a monotone predicate, to relative tol: the ``lo``
    end of a :class:`_Bisection`, one level at a time, capped at ``_CAP_DOUBLINGS``."""
    return _lockstep([_Bisection(tol, _CAP_DOUBLINGS)],
                     lambda asked: {0: [not certifies(w) for w in asked[0]]})[0][0]


def frontier(plant: StateSpacePlant, net: ReluNetwork,
             k_d: np.ndarray | None = None, gamma_delta: np.ndarray | None = None,
             x_lim_values=(), tol: float = 1e-4, *, target_state: int | None = None,
             quantization: QuantizationSpec | None = None) -> list[tuple[float, float]]:
    """Largest certifiable attack level per state-deviation limit.

    For each limit, the ``lo`` end of a :class:`_Bisection` (relative
    tolerance ``tol``, capped at ``_CAP_DOUBLINGS``) on the success of
    :func:`algorithm1` with that limit installed on ``target_state`` (every
    state when None).  The curve is nondecreasing in the limit up to ``tol``.

    The limits' bisections run in lock-step (:func:`_lockstep`), and each
    level asked starts a search.  A round makes one pass of every live search
    in one stepper (:meth:`_Loop.step`) and answers the bisections whose
    searches have all ended, so each limit gets the result of bisecting it
    alone.
    """
    loop = _Loop(plant, net, k_d, gamma_delta, quantization)
    limited = [with_state_limit(plant, target_state, float(v)) for v in x_lim_values]
    searches: dict[int, list[_Search]] = {}

    def answer(asked: dict) -> dict:
        for i, levels in asked.items():
            if i not in searches:
                searches[i] = [loop.search(limited[i], w) for w in levels]
        loop.step([s for i in asked for s in searches[i] if s.result is None])
        done = [i for i in asked if all(s.result is not None for s in searches[i])]
        return {i: [not s.result.success for s in searches.pop(i)] for i in done}

    brackets = _lockstep([_Bisection(tol, _CAP_DOUBLINGS) for _ in limited], answer)
    return [(float(v), lo) for v, (lo, _) in zip(x_lim_values, brackets)]


# ---------------------------------------------------------------------------
# Small-gain baseline with an interval-Jacobian policy gain.
# ---------------------------------------------------------------------------


def baseline_certify(plant: StateSpacePlant, net: ReluNetwork,
                     k_d: np.ndarray | None = None,
                     gamma_delta: np.ndarray | None = None, *,
                     w_inf: float | None = None,
                     quantization: QuantizationSpec | None = None) -> BaselineResult:
    """Small-gain baseline with an iteratively grown validity region.

    Takes the loop's fixed gain ``K0`` (:attr:`_Loop.fixed`: the Jacobian at
    the origin, else ``k_d``, else zero) and bounds the residual policy over
    the current region ``|y| <= y_inf`` by ``b + gamma_pi ||y||``: ``b`` is
    ``|pi(0)|`` widened for the quantizer (:attr:`_Loop.origin_bounds`),
    ``gamma_pi`` the largest row sum of ``|J - K0|`` over the interval
    Jacobian ``J`` of the region (:func:`neural.jacobian_bounds`).  It then
    evaluates the small-gain conditions and grows the region until the
    implied measurement bound fits inside it (certified) or the conditions
    break (:func:`_region_scan`).  When the scan certifies, the result
    carries the closed-form quadruplet with its ``x_bar``, and the plant
    limits must also contain it, with ``|K0| y_bar + u_bar`` against
    ``u_lim``.  Without a stabilizing gain every norm is inf.

    The inputs are checked as :func:`algorithm1` checks them, and
    ``gamma_delta`` enters the conditions as its largest row sum
    (:func:`_baseline_checks`).
    """
    check = _baseline_checks(_Loop(plant, net, k_d, gamma_delta, quantization))
    return check(plant, plant.w_inf if w_inf is None else float(w_inf))


def _baseline_checks(loop: _Loop) -> Callable:
    """``(plant, w) -> result``: the baseline at level ``w`` on the loop's
    realization with the limits of ``plant``.  Neither the gain nor the
    region scan reads a limit, so the gain and its maps, the offset and the
    row sum of Γ_Δ are taken once, and each distinct level is scanned once
    (:func:`_region_scan`)."""
    if loop.fixed is None:
        return lambda plant, w: BaselineResult(np.inf, np.inf, False, np.inf)
    k0, maps = loop.fixed
    gamma = float(np.max(np.sum(loop.gamma_delta, axis=1), initial=0.0))
    offset = float(np.max(loop.origin_bounds[0], initial=0.0))

    def gain(y_inf: float) -> float:
        j_lo, j_hi = neural.jacobian_bounds(loop.net, Box.symmetric(np.full(loop.plant.r, y_inf)))
        return float(np.max(np.sum(np.maximum(np.abs(j_lo - k0), np.abs(j_hi - k0)), axis=1),
                            initial=0.0))

    scan = functools.cache(lambda w: _region_scan(maps, gain, offset, gamma, w))

    def check(plant: StateSpacePlant, w: float) -> BaselineResult:
        result = scan(w)
        quad = result.quadruplet
        if quad is not None and _outside_limits(plant, quad.x_bar, quad.y_bar,
                                                np.abs(k0) @ quad.y_bar + quad.u_bar):
            return replace(result, certified=False)
        return result

    return check


def _region_scan(maps: ClosedLoopMaps, gain: Callable[[float], float], offset: float,
                 gamma: float, w_amp: float) -> BaselineResult:
    """The region loop of :func:`baseline_certify`, which reads no plant limit:
    the last region's result, holding the quadruplet with ``x_bar`` if it
    certified.  ``gain(y_inf)`` bounds the residual's slope over the region
    ``|y| <= y_inf``.  At most ``_REGION_ITER`` regions are tried; when
    ``beta1 >= 1`` only the gain of the region the scan would end on is
    taken."""
    # Region search: a larger region can only raise the gain, and the
    # implied bound must fit inside the region, so scan upward and keep the
    # first region that closes all conditions.
    y_inf = max(maps.l1("yw") * w_amp, 1e-9)
    regions = _REGION_ITER
    if _betas(maps, 0.0, gamma)[0] >= 1.0:
        # beta1 depends on no region, so none certifies and the scan only
        # doubles the region: bound just the one it would end on, whose
        # gain the result reports
        for _ in range(regions - 1):
            if y_inf * 2.0 > 1e9:
                break
            y_inf *= 2.0
        regions = 1
    result = BaselineResult(np.inf, np.inf, False, np.inf)
    for _ in range(regions):
        result = check_lemma1(maps, gain(y_inf), gamma, w_amp, y_inf, offset)
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
        return result

    quad = constructive_quadruplet(maps, result.gamma_pi, gamma, w_amp, offset)
    x_bar = implied_bounds(maps.abs_stack, maps.dims, np.full(maps.dims[2], w_amp), quad.u_bar,
                           quad.delta_bar)[0]
    return replace(result, quadruplet=replace(quad, x_bar=x_bar))


def baseline_frontier(plant: StateSpacePlant, net: ReluNetwork,
                      k_d: np.ndarray | None = None,
                      gamma_delta: np.ndarray | None = None, x_lim_values=(),
                      tol: float = 1e-4, *, target_state: int | None = None,
                      quantization: QuantizationSpec | None = None) -> list[tuple[float, float]]:
    """Largest attack level the small-gain baseline accepts, per limit.

    For each limit, the ``lo`` end of a :class:`_Bisection`, as in
    :func:`frontier`, on the ``certified`` of :func:`baseline_certify` with
    that limit installed.  The limits share one :func:`_baseline_checks`, so
    each distinct level ``w`` is scanned once and each limit is checked
    against the box its result carries.  Without a stabilizing gain every
    level is 0.
    """
    check = _baseline_checks(_Loop(plant, net, k_d, gamma_delta, quantization))
    limited = [with_state_limit(plant, target_state, float(v)) for v in x_lim_values]
    brackets = _lockstep([_Bisection(tol, _CAP_DOUBLINGS) for _ in limited],
                         lambda asked: {i: [not check(limited[i], w).certified for w in levels]
                                        for i, levels in asked.items()})
    return [(float(v), lo) for v, (lo, _) in zip(x_lim_values, brackets)]
