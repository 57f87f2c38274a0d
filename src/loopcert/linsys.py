"""Dense linear-systems algebra for discrete-time loop certification.

Everything here works with plain ``numpy`` arrays.  The central object is a
transfer matrix represented by its truncated impulse response

    Phi[0] = D,   Phi[t] = C A^(t-1) B   (t >= 1),

together with a rigorous scalar bound on every entry of the discarded tail
``sum_{t >= T} |Phi[t]|``.  All certified quantities downstream (absolute
transfer matrices, L1 norms, invariant-set bounds) fold that tail bound in
additively, so they over-approximate the exact infinite sums.

The truncation horizon is our own construction (the underlying theory never
needs one).  One contraction certificate per matrix answers both "is A
stable?" and "how fast does it decay?": a quadratic Lyapunov weight W in
which one step of A shrinks every vector by ``rho_w < 1``
(:func:`_contraction`), so the tail is a geometric series in the weighted
norm.  A strongly non-normal A for which no such weight is found in float64
is rejected as not Schur stable.  See :func:`impulse_response`.

The march (:func:`_march`) makes the terms and the horizon in one pass:
each group of chunks advances the tail test and the terms together, and a
response leaves the march in the group where its tail bound first drops
below ``EPS_TRUNC``.  A closed loop (:class:`ClosedLoopMaps`) is held as its
realization and its absolute sums only.  :func:`close_loop` adds the terms
up as the march makes them, and the impulse response, whose size grows with
the horizon, is marched again from the realization whenever a caller reads
it.

:func:`close_loops` closes many gains of one plant at once: one stacked
contraction and one stacked march, each loop to its own horizon.  Each
loop's maps equal closing it alone bit for bit, because every stacked
product acts on one loop's matrices in the memory layout they have alone
(BLAS can round a product with a strided or transposed operand differently
from one with a contiguous copy of it).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NotSchurStable",
    "StateSpacePlant",
    "TruncatedTransferMatrix",
    "ClosedLoopMaps",
    "make_plant",
    "spectral_radius",
    "impulse_response",
    "abs_transfer",
    "l1_norm",
    "hinf_norm",
    "close_loop",
    "close_loops",
    "implied_bounds",
    "load_plant",
    "save_plant",
    "plant_to_dict",
    "plant_from_dict",
]

# Matrices with spectral radius above 1 - SCHUR_MARGIN are treated as unstable.
SCHUR_MARGIN = 1e-9

# Per-entry truncation error of every impulse response; far below every
# certification tolerance used downstream.  Read at call time.
EPS_TRUNC = 1e-9

_MAX_TRUNC_TERMS = 2_000_000

# Chunks of 8 terms that the impulse-response march advances per batched
# product: the length of its stack of powers of A^8.
_GROUP = 32

# Groups of the march that _abs_response adds into its running sum at once.
_FLUSH = 4

# Cap on the doubling steps of the Stein solve in _contraction; step k sums
# 2^k powers, far more than any decay float64 can resolve.
_SMITH_STEPS = 64

# Frequencies on [0, pi] at which hinf_norm evaluates the peak gain before
# refining around the largest.
_HINF_GRID = 512


class NotSchurStable(ValueError):
    """A matrix that must be Schur stable (spectral radius < 1) is not."""


def _as_matrix(value, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _realization(a, bc, cc, dc) -> tuple[np.ndarray, ...]:
    """``(A, B, C, D)`` as float matrices whose shapes fit one another."""
    a, bc, cc, dc = (_as_matrix(v, name) for v, name in
                     ((a, "a"), (bc, "bc"), (cc, "cc"), (dc, "dc")))
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("a must be square")
    if bc.shape[0] != n or cc.shape[1] != n:
        raise ValueError("b/c dimensions do not match a")
    if dc.shape != (cc.shape[0], bc.shape[1]):
        raise ValueError("d dimensions do not match b/c")
    return a, bc, cc, dc


def _as_vector(value, name: str = "vector") -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    return arr


def spectral_radius(a) -> float:
    """Largest absolute value of the eigenvalues of a square matrix.

    Computed with a dense eigenvalue solve, which is exact to machine
    precision at the small sizes used here.  (Power iteration with deflation
    would serve at larger scale but is not needed or wired in.)
    """
    a = _as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"spectral radius needs a square matrix, got {a.shape}")
    if a.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


@dataclass(frozen=True)
class TruncatedTransferMatrix:
    """Finite impulse response ``Phi[0..T)`` plus a certified tail bound.

    ``impulse`` has shape ``(T, out, in)``.  ``tail_bound`` bounds every entry
    of ``sum_{t >= T} |Phi[t]|``, so ``sum_t |impulse[t]| + tail_bound`` is an
    elementwise over-approximation of the exact absolute transfer matrix.
    """

    impulse: np.ndarray
    tail_bound: float

    def __post_init__(self):
        arr = np.asarray(self.impulse, dtype=float)
        if arr.ndim != 3:
            raise ValueError("impulse must have shape (T, out, in)")
        if not (np.isfinite(self.tail_bound) and self.tail_bound >= 0.0):
            raise ValueError("tail_bound must be finite and nonnegative")
        object.__setattr__(self, "impulse", arr)

    @property
    def length(self) -> int:
        return self.impulse.shape[0]

    def block(self, rows: slice, cols: slice) -> "TruncatedTransferMatrix":
        """Sub-map on a row/column slice; the uniform tail bound carries over."""
        return TruncatedTransferMatrix(self.impulse[:, rows, cols], self.tail_bound)


def _weights(p: np.ndarray, a: np.ndarray) -> tuple:
    """``(W, W^-1, rho_w)`` of stacked Stein solutions ``P = W^T W`` of the
    matrices ``a``; W is the transposed view of the Cholesky factor."""
    w = np.swapaxes(np.linalg.cholesky(p), 1, 2)
    w_inv = np.linalg.inv(w)
    return w, w_inv, np.linalg.svd(w @ a @ w_inv, compute_uv=False).max(axis=1, initial=0.0)


def _contraction(a: np.ndarray) -> tuple[list, np.ndarray, tuple]:
    """Lyapunov weights of a ``(B, n, n)`` stack of matrices:
    ``(errors, held, (W, W^-1, rho_w))``.

    ``errors`` holds per matrix None, or the :class:`NotSchurStable` it
    fails with; ``held`` indexes the matrices without an error, in order,
    and ``W``, ``W^-1`` and ``rho_w`` are stacked over them.

    With ``r = (1 + rho(A)) / 2`` and ``S = A / r``, ``P = W^T W`` (W upper
    triangular, the Cholesky factor) solves the Stein equation
    ``S^T P S - P = -I`` by Smith doubling: from ``P = I`` and ``S^1 = S``,
    ``P <- P + (S^k)^T P S^k`` and ``S^k <- S^k S^k`` until P stops changing.
    In the norm ``||x||_W = ||W x||_2`` one step of A shrinks every vector by
    ``rho_w = ||W A W^-1||_2 < 1``, so for all t

        |z A^t b| <= ||z W^-1||_2  rho_w^t  ||W b||_2.

    That bound needs only ``rho_w < 1`` for the computed W, not an accurate
    solve.  A matrix fails if ``rho(A) >= 1 - SCHUR_MARGIN``, or if the
    solve yields no weight with ``rho_w < 1`` (P not finite or not positive
    definite), as for a strongly non-normal A whose P is too ill-conditioned
    for float64.

    The stack is solved at once, and every product, factorization and norm
    acts on one matrix.  The doubling stops when no P changes; a P that has
    stopped changing stays the same while the others double on, because
    its added terms round away, so each result equals solving its matrix
    alone bit for bit.
    """
    if not np.isfinite(a).all():
        raise ValueError("a contains non-finite entries")
    rho = np.abs(np.linalg.eigvals(a)).max(axis=-1, initial=0.0)
    errors = [None if r < 1.0 - SCHUR_MARGIN
              else NotSchurStable(f"spectral radius {r:.12g} is not below 1") for r in rho]
    held = np.flatnonzero(rho < 1.0 - SCHUR_MARGIN)
    a = a[held]
    power = a / ((1.0 + rho[held]) / 2.0)[:, None, None]
    p = np.empty_like(power)
    p[:] = np.eye(a.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_SMITH_STEPS):
            grown = p + power.transpose(0, 2, 1) @ p @ power
            if (grown == p).all():
                break
            p, power = grown, power @ power
        try:
            if not np.isfinite(p).all():
                raise np.linalg.LinAlgError
            w, w_inv, rho_w = _weights(p, a)
        except np.linalg.LinAlgError:
            # one matrix at a time: one whose P is not finite, or whose
            # factor, inverse or norm fails, keeps rho_w = NaN and fails
            w = np.swapaxes(np.full(a.shape, np.nan), 1, 2)
            w_inv, rho_w = np.full(a.shape, np.nan), np.full(len(a), np.nan)
            for i in np.flatnonzero(np.isfinite(p).all(axis=(1, 2))):
                try:
                    w[i:i + 1], w_inv[i:i + 1], rho_w[i:i + 1] = _weights(p[i:i + 1], a[i:i + 1])
                except np.linalg.LinAlgError:
                    pass
    good = rho_w < 1.0
    for b, r in zip(held[~good], rho[held[~good]]):
        errors[b] = NotSchurStable(
            f"no Lyapunov weight certifies the decay (spectral radius {r:.12g}); "
            "the matrix is too non-normal to be treated as Schur stable")
    if not good.all():
        held, w, w_inv, rho_w = held[good], w[good], w_inv[good], rho_w[good]
    return errors, held, (w, w_inv, rho_w)


def impulse_response(a, bc, cc, dc) -> TruncatedTransferMatrix:
    """Truncated impulse response of ``C (zI - A)^-1 B + D``.

    The response is cut at the first horizon T = 1 + 8k whose tail bound
    drops below ``EPS_TRUNC``; that bound is recorded on the result so
    downstream sums stay sound.  With the weight W and contraction
    ``rho_w`` of :func:`_contraction` and ``Z_k = C A^(8k)``, every entry of
    ``sum_{t >= T} |Phi[t]|`` is at most

        max_i ||(Z_k W^-1)_i||_2  max_j ||(W B)_j||_2 / (1 - rho_w)

    (rows i of ``Z_k W^-1``, columns j of ``W B``).  The bound is exact for
    a scalar A and loosens with the non-normality of A; a loop too
    non-normal for any weight to be found raises ``NotSchurStable``.

    The terms come from :func:`_march`, which :func:`close_loop` shares, a
    group of ``_GROUP`` chunks of 8 at a time, and fill one buffer that
    grows in place.  Their last bits depend on that grouping (by about
    1e-14 relative against stepping one chunk at a time), so T could move
    only where a tail bound sits that close to ``EPS_TRUNC``.

    Raises
    ------
    NotSchurStable
        If ``rho(A) >= 1 - SCHUR_MARGIN`` or no contracting weight is found.
    RuntimeError
        If the bound stays above ``EPS_TRUNC`` past ``_MAX_TRUNC_TERMS`` terms.
    """
    a, bc, cc, dc = _realization(a, bc, cc, dc)
    # the march of _abs_response takes its realizations C-contiguous too
    a, bc, cc = (np.ascontiguousarray(v)[None] for v in (a, bc, cc))
    errors, _, weights = _contraction(a)
    if errors[0] is not None:
        raise errors[0]
    impulse = np.empty((1, *dc.shape))
    impulse[0] = dc
    for _, terms, _, tails in _march(a, bc, cc, weights):
        # alone in the stack, the response takes every term of each group
        filled = len(impulse)
        impulse.resize((filled + terms.shape[1], *dc.shape), refcheck=False)
        impulse[filled:] = terms[0]
    if tails[0] == np.inf:
        raise RuntimeError("impulse response did not decay below EPS_TRUNC")
    # drop exactly-zero trailing terms (they contribute nothing to any sum
    # and the tail bound stays valid); keeps nilpotent responses minimal
    length = impulse.shape[0]
    while length > 1 and not impulse[length - 1].any():
        length -= 1
    return TruncatedTransferMatrix(impulse[:length], float(tails[0]))


def _march(a: np.ndarray, bc: np.ndarray, cc: np.ndarray, weights: tuple):
    """Yield the impulse responses of a stack of B checked realizations
    (``a`` of shape ``(B, n, n)`` and so on, with their ``(W, W^-1, rho_w)``
    from :func:`_contraction`) a group of ``_GROUP`` chunks of 8 terms at a
    time, as ``(live, terms, stops, tails)``.

    A group advances ``Z_k = C A^(8k)`` (for the tail test of
    :func:`impulse_response`) and ``X_k = A^(8k) B`` (for the terms)
    together, by batched products against the stacked powers ``(A^8)^j``.
    ``terms[j]`` holds the group's terms of response ``live[j]``, in a view
    of one buffer that the next group overwrites.  A response stops at the
    first chunk whose tail bound is at most ``EPS_TRUNC`` and leaves the
    stack; one that would first need a chunk k with ``1 + 8k`` above
    ``_MAX_TRUNC_TERMS`` stops with none of the group's chunks and an
    infinite tail.  ``stops`` and ``tails`` are None when no response stops
    in the group.  Otherwise ``stops[j]`` counts the chunks response
    ``live[j]`` takes from it (``_GROUP`` if it goes on) and ``tails[j]`` is
    its tail bound (NaN if it goes on).

    Every product acts on one response's matrices, in the same layout as
    when it is marched alone, so each response's terms, horizon and tail
    bound equal its march alone bit for bit.
    """
    w, w_inv, rho_w = weights
    count, n = a.shape[:2]
    out_dim, in_dim = cc.shape[1], bc.shape[2]
    # each norm is reduced on its own, as np.linalg.norm reduces it
    wb = w @ bc
    wb_max = np.sqrt(np.add.reduce(wb * wb, axis=1)).max(axis=1, initial=0.0)

    # powers[:, j] = (A^8)^j for j < _GROUP, by doubling: each product fills
    # the next block from the ones already there
    chunk = 8
    a_chunk = np.linalg.matrix_power(a, chunk)
    powers = np.empty((count, _GROUP, n, n))
    powers[:, 0] = np.eye(n)
    filled = 1
    while filled < _GROUP:
        step = min(filled, _GROUP - filled)
        np.matmul(powers[:, :step], (powers[:, filled - 1] @ a_chunk)[:, None],
                  out=powers[:, filled:filled + step])
        filled += step
    # row block r of ca is C A^r.  Taking the terms as Z_k (A^r B) instead
    # would need a transposed copy of all of them, which costs more than
    # the X groups on wide maps.
    ca = [cc]
    for _ in range(chunk - 1):
        ca.append(ca[-1] @ a)
    ca = np.concatenate(ca, axis=1)[:, None]

    cap = (_MAX_TRUNC_TERMS - 1) // chunk + 1  # chunks within the term cap
    xs = np.empty((count, _GROUP, n, in_dim))
    terms = np.empty((count, _GROUP, chunk * out_dim, in_dim))
    live, marched = np.arange(count), 0
    z, x, inverse, scale, margin = (cc, bc, w_inv[:, None], wb_max[:, None],
                                    (1.0 - rho_w)[:, None])
    while live.size:
        k = live.size
        zs = z[:, None] @ powers
        weighted = zs @ inverse
        row_max = np.sqrt(np.add.reduce(weighted * weighted, axis=3)).max(axis=2, initial=0.0)
        bounds = row_max * scale / margin
        below = bounds <= EPS_TRUNC
        ends = below.any(axis=1)
        stops = tails = None
        size = _GROUP
        if ends.any() or marched + _GROUP > cap:
            first = below.argmax(axis=1)
            stops = np.where(ends, first, _GROUP)
            tails = np.where(ends, bounds[np.arange(k), first], np.nan)
            over = marched + stops > cap
            stops[over], tails[over] = 0, np.inf
            size = int(stops.max())
        np.matmul(powers[:, :size], x[:, None], out=xs[:k, :size])
        np.matmul(ca, xs[:k, :size], out=terms[:k, :size])
        yield live, terms[:k, :size].reshape(k, chunk * size, out_dim, in_dim), stops, tails
        x = xs[:k, _GROUP - 1]
        if stops is not None:
            keep = stops == _GROUP
            live, zs, x, powers, a_chunk, ca, inverse, scale, margin = (
                v[keep] for v in (live, zs, x, powers, a_chunk, ca, inverse, scale, margin))
        z = zs[:, -1] @ a_chunk
        x = a_chunk @ x
        marched += _GROUP


def _time_sum(terms: np.ndarray) -> np.ndarray:
    """``terms.sum(axis=0)``, added in time order for every shape.

    ``np.sum`` adds along axis 0 one row after the other, except on a
    single-entry stack, which it adds pairwise; a cumulative sum keeps that
    case in time order too.
    """
    if terms.shape[1:] == (1, 1) and len(terms) > 1:
        return np.cumsum(terms, axis=0)[-1]
    return np.sum(terms, axis=0)


def abs_transfer(phi: TruncatedTransferMatrix) -> np.ndarray:
    """Elementwise ``sum_t |Phi[t]|`` with the tail bound folded in.

    Sound over-approximation of the exact infinite absolute sum.  The terms
    are added in time order for every shape, so a sub-map's sum equals the
    matching slice of the sum over the whole map bit for bit.
    """
    return _time_sum(np.abs(phi.impulse)) + phi.tail_bound


def _abs_response(a: np.ndarray, bc: np.ndarray, cc: np.ndarray,
                  dc: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """``abs_transfer(impulse_response(...))`` and the tail bound of each of
    a stack of B realizations, bit for bit, without holding the responses;
    and per realization None or the :class:`NotSchurStable` it fails with
    (its sum and tail bound are NaN then).  A response that does not decay
    within ``_MAX_TRUNC_TERMS`` terms fails too.

    The stable ones march together (:func:`_march`).  ``|Phi[t]|`` of the
    j-th response in the stack goes into row j of one buffer whose entry 0
    carries the running sum.  Every ``_FLUSH`` groups each row is added up
    into its entry 0.  In a group that responses leave, each of them is
    summed, and each one that goes on is added up into the entry 0 of its
    row in the smaller stack.  So each fold adds its terms after all
    earlier ones, in the time order of :func:`abs_transfer`.
    """
    errors, held, weights = _contraction(a)
    sums = np.full(dc.shape, np.nan)
    tails = np.full(len(a), np.nan)
    buffer = np.empty((len(held), 1 + 8 * _FLUSH * _GROUP, *dc.shape[1:]))
    np.abs(dc[held], out=buffer[:, 0])
    filled = 1
    for live, terms, stops, bounds in _march(a[held], bc[held], cc[held], weights):
        k, size = terms.shape[:2]
        if filled + size > buffer.shape[1]:
            for j in range(k):
                buffer[j, 0] = _time_sum(buffer[j, :filled])
            filled = 1
        np.abs(terms, out=buffer[:k, filled:filled + size])
        filled += size
        if stops is None:
            continue
        going = 0
        for j, (b, stop, tail) in enumerate(zip(held[live].tolist(), stops.tolist(),
                                                bounds.tolist())):
            if stop == _GROUP:
                buffer[going, 0] = _time_sum(buffer[j, :filled])
                going += 1
            elif tail == np.inf:
                errors[b] = NotSchurStable(
                    "the impulse response did not decay below EPS_TRUNC within "
                    f"{_MAX_TRUNC_TERMS} terms; the loop decays too slowly to be "
                    "treated as Schur stable")
            else:
                sums[b] = _time_sum(buffer[j, :filled - size + 8 * stop]) + tail
                tails[b] = tail
        filled = 1
    return sums, tails, errors


def l1_norm(phi: TruncatedTransferMatrix) -> float:
    """L1 system norm: maximum row sum of :func:`abs_transfer`.

    Upper bounds the exact infinity-to-infinity induced gain of the map.
    """
    return float(np.max(np.sum(abs_transfer(phi), axis=1), initial=0.0))


def _golden_section_max(f, lo: float, hi: float, iters: int = 80) -> float:
    """Maximum value of a unimodal f on [lo, hi] by golden-section search."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = f(x1)
    return max(f1, f2)


def hinf_norm(a, bc, cc, dc) -> float:
    """Peak singular value of ``C (e^{jw} I - A)^-1 B + D`` over the unit circle.

    Grid search over ``_HINF_GRID`` points of ``w in [0, pi]`` followed by one
    local golden-section refinement around the grid maximizer.  This is an
    estimator (a lower bound of the true peak up to grid resolution), not a
    certified norm, and no certificate or command reads it.
    """
    a, bc, cc, dc = _realization(a, bc, cc, dc)
    n = a.shape[0]
    if n and spectral_radius(a) >= 1.0 - SCHUR_MARGIN:
        raise NotSchurStable("hinf_norm requires a Schur stable matrix")

    if n == 0 or bc.shape[1] == 0 or cc.shape[0] == 0:
        return float(np.linalg.svd(dc, compute_uv=False)[0]) if dc.size else 0.0

    eye = np.eye(n)

    def peak(omega: float) -> float:
        h = cc @ np.linalg.solve(np.exp(1j * omega) * eye - a, bc) + dc
        return float(np.linalg.svd(h, compute_uv=False)[0])

    omegas = np.linspace(0.0, np.pi, _HINF_GRID)
    values = np.array([peak(w) for w in omegas])
    k = int(np.argmax(values))
    lo = omegas[max(k - 1, 0)]
    hi = omegas[min(k + 1, _HINF_GRID - 1)]
    return max(float(values[k]), _golden_section_max(peak, lo, hi))


# The plant's realization: each matrix in field order with its plant-file key
# and its shape in the sizes n (states), m (controls), p (perturbations),
# q (uncertainty outputs), r (measurements) and s (uncertainty inputs).
_REALIZATION = (
    ("a", "A", "nn"), ("b", "B", "nm"), ("b_w", "Bw", "np"), ("b_delta", "Bdelta", "nq"),
    ("c", "C", "rn"), ("d_w", "Dw", "rp"),
    ("c_alpha", "Calpha", "sn"), ("d_alpha_u", "Dalpha_u", "sm"),
    ("d_alpha_w", "Dalpha_w", "sp"),
)

# The magnitude limits, each a vector over one of those sizes; the field is
# also the plant-file key.
_LIMITS = (("x_lim", "n"), ("y_lim", "r"), ("u_lim", "m"))


@dataclass(frozen=True)
class StateSpacePlant:
    """Discrete-time uncertain plant with a measurement and an uncertainty tap.

        x[t+1] = A x[t] + B u[t] + B_w w[t] + B_delta delta[t]
        y[t]   = C x[t] + D_w w[t]
        alpha[t] = C_alpha x[t] + D_alpha_u u[t] + D_alpha_w w[t]

    ``y`` has no feedthrough from ``u`` or ``delta`` and ``alpha`` none from
    ``delta``, so the feedback interconnection with a static policy is
    well-posed (no algebraic loop).

    ``x_lim``/``y_lim``/``u_lim`` are elementwise magnitude limits (``inf``
    meaning unconstrained) and ``w_inf`` is the per-entry amplitude of the
    persistent perturbation.
    """

    a: np.ndarray
    b: np.ndarray
    b_w: np.ndarray
    b_delta: np.ndarray
    c: np.ndarray
    d_w: np.ndarray
    c_alpha: np.ndarray
    d_alpha_u: np.ndarray
    d_alpha_w: np.ndarray
    x_lim: np.ndarray
    y_lim: np.ndarray
    u_lim: np.ndarray
    w_inf: float

    def __post_init__(self):
        for name, _, _ in _REALIZATION:
            object.__setattr__(self, name, _as_matrix(getattr(self, name), name))
        sizes = dict(zip("nmpqrs", (self.n, self.m, self.p, self.q, self.r, self.s)))
        for name, _, dims in _REALIZATION:
            shape, expected = getattr(self, name).shape, tuple(sizes[d] for d in dims)
            if shape != expected:
                raise ValueError(f"{name} has shape {shape}, expected {expected}")
        for name, dim in _LIMITS:
            vec = _as_vector(getattr(self, name), name)
            if vec.shape != (sizes[dim],):
                raise ValueError(f"{name} has shape {vec.shape}, expected ({sizes[dim]},)")
            if np.any(vec < 0) or np.any(np.isnan(vec)):
                raise ValueError(f"{name} must be elementwise >= 0")
            object.__setattr__(self, name, vec)
        if not (self.w_inf >= 0 and not np.isnan(self.w_inf)):
            raise ValueError("w_inf must be >= 0")
        object.__setattr__(self, "w_inf", float(self.w_inf))

    def matrices(self) -> tuple[np.ndarray, ...]:
        """The nine realization matrices, in the order of :data:`_REALIZATION`."""
        return tuple(getattr(self, name) for name, _, _ in _REALIZATION)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    @property
    def p(self) -> int:
        return self.b_w.shape[1]

    @property
    def q(self) -> int:
        return self.b_delta.shape[1]

    @property
    def r(self) -> int:
        return self.c.shape[0]

    @property
    def s(self) -> int:
        return self.c_alpha.shape[0]


def make_plant(a, b, *, b_w=None, b_delta=None, c=None, d_w=None, c_alpha=None,
               d_alpha_u=None, d_alpha_w=None, x_lim=None, y_lim=None, u_lim=None,
               w_inf: float = 0.0) -> StateSpacePlant:
    """Build a :class:`StateSpacePlant`, defaulting absent blocks sensibly.

    Defaults: full state measurement (``C = I``), no uncertainty channel
    (zero-width ``B_delta``/``C_alpha``), zero perturbation feedthroughs, and
    infinite limits.  The perturbation width is taken from ``b_w`` or ``d_w``
    (1 if both are absent).
    """
    given = dict(a=a, b=b, b_w=b_w, b_delta=b_delta, c=c, d_w=d_w, c_alpha=c_alpha,
                 d_alpha_u=d_alpha_u, d_alpha_w=d_alpha_w)
    mats = {name: None if value is None else _as_matrix(value, name)
            for name, value in given.items()}
    n = mats["a"].shape[0]
    if mats["c"] is None:
        mats["c"] = np.eye(n)
    sizes = dict(n=n, m=mats["b"].shape[1], q=0, r=mats["c"].shape[0],
                 p=next((mats[k].shape[1] for k in ("b_w", "d_w") if mats[k] is not None), 1),
                 s=0 if mats["c_alpha"] is None else mats["c_alpha"].shape[0])
    for name, _, dims in _REALIZATION:
        if mats[name] is None:
            mats[name] = np.zeros(tuple(sizes[d] for d in dims))
    limits = {name: np.full(sizes[dim], np.inf) if value is None
              else np.asarray(value, dtype=float)
              for (name, dim), value in zip(_LIMITS, (x_lim, y_lim, u_lim))}
    return StateSpacePlant(**mats, **limits, w_inf=w_inf)


# The nine loop maps by name, as (output, input) blocks of the stacked map.
_MAP_BLOCKS = {
    "xu": ("x", "u"), "xw": ("x", "w"), "xdelta": ("x", "delta"),
    "yu": ("y", "u"), "yw": ("y", "w"), "ydelta": ("y", "delta"),
    "alpha_u": ("alpha", "u"), "alpha_w": ("alpha", "w"), "alpha_delta": ("alpha", "delta"),
}


@functools.lru_cache(maxsize=None)
def _layout(dims: tuple) -> dict:
    """Slices of the stacked map of a loop of ``dims``: the rows of each output (x, y,
    alpha), the columns of each input (u, w, delta) and the (rows, columns) of each map."""
    n, m, p, q, r, s = dims
    table = {"x": slice(0, n), "y": slice(n, n + r), "alpha": slice(n + r, n + r + s),
             "u": slice(0, m), "w": slice(m, m + p), "delta": slice(m + p, m + p + q)}
    return table | {name: (table[out], table[inp]) for name, (out, inp) in _MAP_BLOCKS.items()}


def implied_bounds(abs_stack: np.ndarray, dims: tuple, w_bar, u_bar, delta_bar) -> tuple:
    """The product of Theorem 1: ``(x_bar, y_bar, alpha_bar)`` implied by bounds on
    ``(w, u0, delta)``, each ``|Phi_w| w_bar + |Phi_u| u_bar + |Phi_delta| delta_bar``
    added in that order, from a loop's ``abs_stack`` (``dims`` as in
    :class:`ClosedLoopMaps`).  A ``(B, rows, cols)`` stack of B loops takes
    ``(B, ·)`` bounds and gives each loop's bounds as it alone would."""
    layout = _layout(dims)
    bars = [(layout[inp], np.asarray(bar, dtype=float))
            for inp, bar in (("w", w_bar), ("u", u_bar), ("delta", delta_bar))]

    def bound(rows: slice) -> np.ndarray:
        w, u, delta = ((abs_stack[..., rows, cols] @ bar[..., None])[..., 0]
                       for cols, bar in bars)
        return w + u + delta

    return tuple(bound(layout[out]) for out in ("x", "y", "alpha"))


@dataclass(frozen=True)
class ClosedLoopMaps:
    """The loop closed with a gain K0, held once as one stacked realization.

    Closing ``u = K0 y + u0`` turns the plant into

        x[t+1] = A_cl x[t] + B u0[t] + (B K0 D_w + B_w) w[t] + B_delta delta[t]

    with ``A_cl = A + B K0 C``; the alpha output picks up the matching
    ``D_alpha_u K0`` terms.  All nine loop maps share ``A_cl``, so they are
    kept as one realization ``(a_cl, bc, cc, dc)`` whose outputs stack
    ``(x, y, alpha)`` as rows and whose inputs stack ``(u0, w, delta)`` as
    columns.  ``abs_stack`` is the :func:`abs_transfer` of its truncated
    impulse response at ``EPS_TRUNC``, whose uniform tail bound is
    ``tail_bound``.  ``dims`` is ``(n, m, p, q, r, s)``, which fixes where
    each block sits in the one table of that layout (:func:`_layout`).

    The impulse response itself is not held: its size grows with the
    horizon, and certification reads only ``abs_stack``.  :meth:`response`
    marches it again from the realization, bit for bit the same.

    Maps are named output-input: ``xu`` sends the residual control ``u0`` to
    the state, ``yw`` the perturbation to the measurement, and so on.  Each
    name reads as an attribute (``maps.xw``), the block of :meth:`response`,
    so every such read marches the loop once; :meth:`abs_block` and
    :meth:`l1` take the name as an argument and march nothing.  Each L1 norm
    is summed on its first read.
    """

    a_cl: np.ndarray
    bc: np.ndarray
    cc: np.ndarray
    dc: np.ndarray
    tail_bound: float
    abs_stack: np.ndarray
    dims: tuple[int, int, int, int, int, int]
    _l1: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __getattr__(self, name: str) -> TruncatedTransferMatrix:
        # only reached when normal lookup fails, i.e. for the nine map names
        if name not in _MAP_BLOCKS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.response().block(*_layout(self.dims)[name])

    def response(self) -> TruncatedTransferMatrix:
        """The stacked truncated impulse response, marched again on each call."""
        return impulse_response(self.a_cl, self.bc, self.cc, self.dc)

    def abs_block(self, which: str) -> np.ndarray:
        """``abs_transfer`` of one of the nine maps, as a block of ``abs_stack``."""
        return self.abs_stack[_layout(self.dims)[which]]

    def l1(self, which: str) -> float:
        """:func:`l1_norm` of one of the nine maps, read from ``abs_stack``.

        The norm is summed on the first read of ``which`` and held with the
        maps; later reads return it without touching ``abs_stack``.
        """
        norm = self._l1.get(which)
        if norm is None:
            # threads that share the maps may both sum it; they store the same float
            norm = self._l1[which] = float(np.max(np.sum(self.abs_block(which), axis=1),
                                                  initial=0.0))
        return norm


def close_loop(plant: StateSpacePlant, k0) -> ClosedLoopMaps:
    """Close the measurement loop with a static gain and build all nine maps.

    ``k0`` may be zero for an open-loop-stable plant, which reproduces the
    open-loop maps.  This is :func:`close_loops` of the one gain.

    Raises
    ------
    NotSchurStable
        If ``rho(A + B K0 C) >= 1 - SCHUR_MARGIN``.
    """
    maps = close_loops(plant, _as_matrix(k0, "k0")[None])[0]
    if isinstance(maps, NotSchurStable):
        raise maps
    return maps


def close_loops(plant: StateSpacePlant, gains) -> list:
    """Close the loop with each of a ``(B, m, r)`` stack of gains at once.

    Returns per gain its :class:`ClosedLoopMaps`, or the
    :class:`NotSchurStable` its loop fails with.  All nine impulse responses
    of a loop share one stacked march (same A_cl) and therefore one uniform
    tail bound, and the B loops march together, each to its own horizon
    (:func:`_abs_response`).  The march's terms go straight into
    ``abs_stack`` as they come, so no response is held whole (see
    :class:`ClosedLoopMaps`).  Each loop's maps equal closing it alone bit
    for bit.  The blocks are written where :func:`_layout` puts them.
    """
    gains = np.asarray(gains, dtype=float)
    dims = n, m, _, _, r, _ = plant.n, plant.m, plant.p, plant.q, plant.r, plant.s
    if gains.ndim != 3 or gains.shape[1:] != (m, r):
        raise ValueError(f"k0 has shape {gains.shape[1:]}, expected ({m}, {r})")
    if not np.all(np.isfinite(gains)):
        raise ValueError("k0 contains non-finite entries")
    count = len(gains)

    layout = _layout(dims)
    b_k = plant.b @ gains
    a_cl = plant.a + b_k @ plant.c
    bc = np.empty((count, n, layout["delta"].stop))
    bc[..., layout["u"]] = plant.b
    bc[..., layout["w"]] = b_k @ plant.d_w + plant.b_w
    bc[..., layout["delta"]] = plant.b_delta
    cc = np.empty((count, layout["alpha"].stop, n))
    cc[:, layout["x"]] = np.eye(n)
    cc[:, layout["y"]] = plant.c
    cc[:, layout["alpha"]] = plant.c_alpha + plant.d_alpha_u @ gains @ plant.c
    dc = np.zeros((count, cc.shape[1], bc.shape[2]))
    dc[(..., *layout["yw"])] = plant.d_w
    dc[(..., *layout["alpha_u"])] = plant.d_alpha_u
    dc[(..., *layout["alpha_w"])] = plant.d_alpha_u @ gains @ plant.d_w + plant.d_alpha_w

    sums, tails, errors = _abs_response(a_cl, bc, cc, dc)
    return [error if error is not None
            else ClosedLoopMaps(a_cl[b], bc[b], cc[b], dc[b], float(tails[b]), sums[b], dims)
            for b, error in enumerate(errors)]


# ---------------------------------------------------------------------------
# Plant file format.
#
# JSON object with one field per realization matrix, keyed as _REALIZATION
# lists them ("A", "B", "Bw", "Bdelta", "C", "Dw", "Calpha", "Dalpha_u",
# "Dalpha_w"), each {"rows": int, "cols": int, "data": [row-major floats]},
# plus the _LIMITS arrays "x_lim"/"y_lim"/"u_lim" (null entries mean
# unconstrained) and a scalar "w_inf".  Only "A" and "B" are required; the
# other matrices default as in make_plant.  An optional "Gamma_Delta" matrix
# carries the learned uncertainty gain.  Angles and every other quantity are
# in the plant's native units (radians for the bundled cart-pole).
# ---------------------------------------------------------------------------


def matrix_to_dict(arr: np.ndarray) -> dict:
    arr = _as_matrix(arr)
    return {"rows": arr.shape[0], "cols": arr.shape[1], "data": [float(v) for v in arr.ravel()]}


def matrix_from_dict(obj: dict, name: str = "matrix") -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = np.asarray(obj["data"], dtype=float)
    if data.size != rows * cols:
        raise ValueError(f"{name}: data length {data.size} != rows*cols = {rows * cols}")
    return data.reshape(rows, cols)


def plant_to_dict(plant: StateSpacePlant, gamma_delta: np.ndarray | None = None) -> dict:
    obj = {key: matrix_to_dict(arr) for (_, key, _), arr in zip(_REALIZATION, plant.matrices())}
    for name, _ in _LIMITS:
        obj[name] = [None if np.isinf(v) else float(v) for v in getattr(plant, name)]
    obj["w_inf"] = float(plant.w_inf)
    if gamma_delta is not None:
        obj["Gamma_Delta"] = matrix_to_dict(gamma_delta)
    return obj


def plant_from_dict(obj: dict) -> tuple[StateSpacePlant, np.ndarray | None]:
    """Plant plus the optional uncertainty gain ``Gamma_Delta`` (may be None)."""
    def matrix(key):
        # "A" and "B" are required; any other matrix may be absent or null
        if key in ("A", "B") or obj.get(key) is not None:
            return matrix_from_dict(obj[key], key)
        return None

    def limits(name):
        values = obj.get(name)
        return None if values is None else [np.inf if v is None else float(v) for v in values]

    plant = make_plant(**{name: matrix(key) for name, key, _ in _REALIZATION},
                       **{name: limits(name) for name, _ in _LIMITS},
                       w_inf=float(obj.get("w_inf", 0.0)))
    return plant, matrix("Gamma_Delta")


def save_plant(path, plant: StateSpacePlant, gamma_delta: np.ndarray | None = None) -> None:
    """Write strict JSON: an infinite ``w_inf`` raises ValueError before the file opens."""
    text = json.dumps(plant_to_dict(plant, gamma_delta), indent=1, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_plant(path) -> tuple[StateSpacePlant, np.ndarray | None]:
    with open(path) as fh:
        return plant_from_dict(json.load(fh))
