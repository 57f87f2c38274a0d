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

A closed loop (:class:`ClosedLoopMaps`) is held as its realization and its
absolute sums only.  :func:`close_loop` adds the terms up as the march makes
them, and the impulse response, whose size grows with the horizon, is
marched again from the realization whenever a caller reads it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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
    "load_plant",
    "save_plant",
    "plant_to_dict",
    "plant_from_dict",
]

# Matrices with spectral radius above 1 - SCHUR_MARGIN are treated as unstable.
SCHUR_MARGIN = 1e-9

# Default per-entry truncation error; far below every certification tolerance
# used downstream.
DEFAULT_EPS_TRUNC = 1e-9

_MAX_TRUNC_TERMS = 2_000_000

# Chunks of 8 terms that the impulse-response march advances per batched
# product: the length of its stack of powers of A^8.
_GROUP = 32

# Groups of the march that _abs_response adds into its running sum at once.
_FLUSH = 4

# Cap on the doubling steps of the Stein solve in _contraction; step k sums
# 2^k powers, far more than any decay float64 can resolve.
_SMITH_STEPS = 64


class NotSchurStable(ValueError):
    """A matrix that must be Schur stable (spectral radius < 1) is not."""


def _as_matrix(value, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


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


def _contraction(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Lyapunov weight ``W`` of a Schur-stable A, ``W^-1`` and the contraction ``rho_w``.

    With ``r = (1 + rho(A)) / 2`` and ``S = A / r``, ``P = W^T W`` (W upper
    triangular, the Cholesky factor) solves the Stein equation
    ``S^T P S - P = -I`` by Smith doubling: from ``P = I`` and ``S^1 = S``,
    ``P <- P + (S^k)^T P S^k`` and ``S^k <- S^k S^k`` until P stops changing.
    In the norm ``||x||_W = ||W x||_2`` one step of A shrinks every vector by
    ``rho_w = ||W A W^-1||_2 < 1``, so for all t

        |z A^t b| <= ||z W^-1||_2  rho_w^t  ||W b||_2.

    That bound needs only ``rho_w < 1`` for the computed W, not an accurate
    solve.

    Raises
    ------
    NotSchurStable
        If ``rho(A) >= 1 - SCHUR_MARGIN``, or if the solve yields no weight
        with ``rho_w < 1`` (P not finite or not positive definite), as for
        a strongly non-normal A whose P is too ill-conditioned for float64.
    """
    rho = spectral_radius(a)
    if rho >= 1.0 - SCHUR_MARGIN:
        raise NotSchurStable(f"spectral radius {rho:.12g} is not below 1")
    power = a / ((1.0 + rho) / 2.0)
    p = np.eye(a.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_SMITH_STEPS):
            grown = p + power.T @ p @ power
            if np.array_equal(grown, p):
                break
            p = grown
            power = power @ power
        rho_w = np.inf
        if np.all(np.isfinite(p)):
            try:
                w = np.linalg.cholesky(p).T
                w_inv = np.linalg.inv(w)
                rho_w = float(np.linalg.norm(w @ a @ w_inv, 2))
            except np.linalg.LinAlgError:
                pass
    if not rho_w < 1.0:
        raise NotSchurStable(
            f"no Lyapunov weight certifies the decay (spectral radius {rho:.12g}); "
            "the matrix is too non-normal to be treated as Schur stable"
        )
    return w, w_inv, rho_w


def impulse_response(a, bc, cc, dc, eps_trunc: float = DEFAULT_EPS_TRUNC) -> TruncatedTransferMatrix:
    """Truncated impulse response of ``C (zI - A)^-1 B + D``.

    The response is cut at the first horizon T = 1 + 8k whose tail bound
    drops below ``eps_trunc``; that bound is recorded on the result so
    downstream sums stay sound.  With the weight W and contraction
    ``rho_w`` of :func:`_contraction` and ``Z_k = C A^(8k)``, every entry of
    ``sum_{t >= T} |Phi[t]|`` is at most

        max_i ||(Z_k W^-1)_i||_2  max_j ||(W B)_j||_2 / (1 - rho_w)

    (rows i of ``Z_k W^-1``, columns j of ``W B``).  The bound is exact for
    a scalar A and loosens with the non-normality of A; a loop too
    non-normal for any weight to be found raises ``NotSchurStable``.

    The terms come in chunks of 8, ``Phi[8k + r + 1] = (C A^r) X_k`` with
    ``X_k = A^(8k) B``, and both ``Z_k`` and ``X_k`` advance a group of
    ``_GROUP`` chunks per batched product against the stacked powers
    ``(A^8)^j``.  Their last bits depend on that grouping (by about 1e-14
    relative against stepping one chunk at a time), so T could move only
    where a tail bound sits that close to ``eps_trunc``.  The march is
    :func:`_march`, which :func:`close_loop` shares.

    Raises
    ------
    NotSchurStable
        If ``rho(A) >= 1 - SCHUR_MARGIN`` or no contracting weight is found.
    RuntimeError
        If the bound stays above ``eps_trunc`` past ``_MAX_TRUNC_TERMS`` terms.
    """
    a = _as_matrix(a, "a")
    bc = _as_matrix(bc, "bc")
    cc = _as_matrix(cc, "cc")
    dc = _as_matrix(dc, "dc")
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("a must be square")
    if bc.shape[0] != n or cc.shape[1] != n:
        raise ValueError("b/c dimensions do not match a")
    if dc.shape != (cc.shape[0], bc.shape[1]):
        raise ValueError("d dimensions do not match b/c")
    chunks, tail, groups = _march(a, bc, cc, dc, eps_trunc)
    impulse = np.empty((1 + 8 * chunks, *dc.shape))
    impulse[0] = dc
    filled = 1
    for terms in groups:
        impulse[filled:filled + len(terms)] = terms
        filled += len(terms)
    # drop exactly-zero trailing terms (they contribute nothing to any sum
    # and the tail bound stays valid); keeps nilpotent responses minimal
    length = impulse.shape[0]
    while length > 1 and not impulse[length - 1].any():
        length -= 1
    return TruncatedTransferMatrix(impulse[:length], tail)


def _march(a: np.ndarray, bc: np.ndarray, cc: np.ndarray, dc: np.ndarray, eps_trunc: float):
    """``(chunks, tail, groups)`` of the impulse response of a checked realization.

    The response is cut after ``1 + 8 chunks`` terms with tail bound
    ``tail`` (see :func:`impulse_response`).  ``groups`` yields the terms
    ``Phi[1:]`` in time order, a group of ``_GROUP`` chunks (fewer in the
    last) at a time, as a ``(8 g, out, in)`` view of one buffer that the
    next group overwrites.
    """
    if not eps_trunc > 0:
        raise ValueError("eps_trunc must be positive")
    n = a.shape[0]
    w, w_inv, rho_w = _contraction(a)
    wb_max = float(np.max(np.linalg.norm(w @ bc, axis=0), initial=0.0))

    # powers[j] = (A^8)^j for j < _GROUP, by doubling: each product fills
    # the next block from the ones already there
    chunk = 8
    a_chunk = np.linalg.matrix_power(a, chunk)
    powers = np.empty((_GROUP, n, n))
    powers[0] = np.eye(n)
    filled = 1
    while filled < _GROUP:
        step = min(filled, _GROUP - filled)
        np.matmul(powers[:step], powers[filled - 1] @ a_chunk, out=powers[filled:filled + step])
        filled += step

    # A group starting at Z_k holds Z_(k+j) = Z_k powers[j]; the march stops
    # at the first k whose tail bound (see impulse_response) is at most
    # eps_trunc, and the products past the stop in the last group are
    # thrown away
    z, chunks = cc, 0
    while True:
        zs = z @ powers
        # each row norm is reduced on its own, so a group's bounds equal the
        # ones of its chunks computed alone bit for bit
        row_max = np.max(np.linalg.norm(zs @ w_inv, axis=2), axis=1, initial=0.0)
        tails = row_max * wb_max / (1.0 - rho_w)
        below = np.flatnonzero(tails <= eps_trunc)
        stop = int(below[0]) if below.size else len(zs)
        # chunk k is added only while 1 + chunk*k terms stay within the cap
        if stop and 1 + chunk * (chunks + stop - 1) > _MAX_TRUNC_TERMS:
            raise RuntimeError("impulse response did not decay below eps_trunc")
        chunks += stop
        if below.size:
            tail = float(tails[stop])
            break
        z = zs[-1] @ a_chunk

    def groups():
        # X_k = A^(8k) B the same way, a group per product, and then the
        # group's terms in one batched product: row block r of C A^r against
        # X_k, in time order.  Taking the terms as Z_k (A^r B) instead would
        # need a transposed copy of all of them, which costs more than the
        # X groups on wide maps.
        out_dim, in_dim = dc.shape
        ca = [cc]
        for _ in range(chunk - 1):
            ca.append(ca[-1] @ a)
        ca = np.vstack(ca)
        size = min(chunks, _GROUP)
        xs = np.empty((size, n, in_dim))
        terms = np.empty((size, chunk * out_dim, in_dim))
        x = bc
        for start in range(0, chunks, _GROUP):
            g = min(_GROUP, chunks - start)
            np.matmul(powers[:g], x, out=xs[:g])
            x = a_chunk @ xs[g - 1]
            np.matmul(ca, xs[:g], out=terms[:g])
            yield terms[:g].reshape(chunk * g, out_dim, in_dim)

    return chunks, tail, groups()


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


def _abs_response(a: np.ndarray, bc: np.ndarray, cc: np.ndarray, dc: np.ndarray,
                  eps_trunc: float) -> tuple[np.ndarray, float]:
    """``abs_transfer(impulse_response(...))`` and the tail bound of a checked
    realization, bit for bit, without holding the response.

    ``|Phi[t]|`` goes into one buffer whose row 0 carries the running sum,
    and every ``_FLUSH`` groups of the march the buffer is added up into row
    0.  So each flush adds its terms after all earlier ones, in the time
    order of :func:`abs_transfer`.
    """
    chunks, tail, groups = _march(a, bc, cc, dc, eps_trunc)
    sums = np.empty((1 + 8 * min(chunks, _FLUSH * _GROUP), *dc.shape))
    np.abs(dc, out=sums[0])
    filled = 1
    for terms in groups:
        if filled + len(terms) > len(sums):
            sums[0] = _time_sum(sums[:filled])
            filled = 1
        np.abs(terms, out=sums[filled:filled + len(terms)])
        filled += len(terms)
    return _time_sum(sums[:filled]) + tail, tail


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


def hinf_norm(a, bc, cc, dc, grid: int = 512) -> float:
    """Peak singular value of ``C (e^{jw} I - A)^-1 B + D`` over the unit circle.

    Grid search over ``w in [0, pi]`` followed by one local golden-section
    refinement around the grid maximizer.  This is an estimator (a lower bound
    of the true peak up to grid resolution), not a certified norm; it only
    feeds the advisory small-gain check based on the 2-norm.
    """
    a = _as_matrix(a, "a")
    bc = _as_matrix(bc, "bc")
    cc = _as_matrix(cc, "cc")
    dc = _as_matrix(dc, "dc")
    if grid < 64:
        raise ValueError("grid must be at least 64")
    n = a.shape[0]
    if n and spectral_radius(a) >= 1.0 - SCHUR_MARGIN:
        raise NotSchurStable("hinf_norm requires a Schur stable matrix")

    if n == 0 or bc.shape[1] == 0 or cc.shape[0] == 0:
        return float(np.linalg.svd(dc, compute_uv=False)[0]) if dc.size else 0.0

    eye = np.eye(n)

    def peak(omega: float) -> float:
        h = cc @ np.linalg.solve(np.exp(1j * omega) * eye - a, bc) + dc
        return float(np.linalg.svd(h, compute_uv=False)[0])

    omegas = np.linspace(0.0, np.pi, grid)
    values = np.array([peak(w) for w in omegas])
    k = int(np.argmax(values))
    lo = omegas[max(k - 1, 0)]
    hi = omegas[min(k + 1, grid - 1)]
    return max(float(values[k]), _golden_section_max(peak, lo, hi))


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
        fields = {
            "a": _as_matrix(self.a, "a"),
            "b": _as_matrix(self.b, "b"),
            "b_w": _as_matrix(self.b_w, "b_w"),
            "b_delta": _as_matrix(self.b_delta, "b_delta"),
            "c": _as_matrix(self.c, "c"),
            "d_w": _as_matrix(self.d_w, "d_w"),
            "c_alpha": _as_matrix(self.c_alpha, "c_alpha"),
            "d_alpha_u": _as_matrix(self.d_alpha_u, "d_alpha_u"),
            "d_alpha_w": _as_matrix(self.d_alpha_w, "d_alpha_w"),
        }
        for name, arr in fields.items():
            object.__setattr__(self, name, arr)
        n, m, p, q = self.n, self.m, self.p, self.q
        r, s = self.r, self.s
        checks = [
            ("a", (n, n)), ("b", (n, m)), ("b_w", (n, p)), ("b_delta", (n, q)),
            ("c", (r, n)), ("d_w", (r, p)),
            ("c_alpha", (s, n)), ("d_alpha_u", (s, m)), ("d_alpha_w", (s, p)),
        ]
        for name, shape in checks:
            if fields[name].shape != shape:
                raise ValueError(f"{name} has shape {fields[name].shape}, expected {shape}")
        limits = {
            "x_lim": (_as_vector(self.x_lim, "x_lim"), n),
            "y_lim": (_as_vector(self.y_lim, "y_lim"), r),
            "u_lim": (_as_vector(self.u_lim, "u_lim"), m),
        }
        for name, (vec, dim) in limits.items():
            if vec.shape != (dim,):
                raise ValueError(f"{name} has shape {vec.shape}, expected ({dim},)")
            if np.any(vec < 0) or np.any(np.isnan(vec)):
                raise ValueError(f"{name} must be elementwise >= 0")
            object.__setattr__(self, name, vec)
        if not (self.w_inf >= 0 and not np.isnan(self.w_inf)):
            raise ValueError("w_inf must be >= 0")
        object.__setattr__(self, "w_inf", float(self.w_inf))

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
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    n, m = a.shape[0], b.shape[1]
    c = np.eye(n) if c is None else _as_matrix(c, "c")
    r = c.shape[0]
    if b_w is None and d_w is None:
        p = 1
    else:
        p = _as_matrix(b_w, "b_w").shape[1] if b_w is not None else _as_matrix(d_w, "d_w").shape[1]
    b_w = np.zeros((n, p)) if b_w is None else _as_matrix(b_w, "b_w")
    d_w = np.zeros((r, p)) if d_w is None else _as_matrix(d_w, "d_w")
    b_delta = np.zeros((n, 0)) if b_delta is None else _as_matrix(b_delta, "b_delta")
    c_alpha = np.zeros((0, n)) if c_alpha is None else _as_matrix(c_alpha, "c_alpha")
    s = c_alpha.shape[0]
    d_alpha_u = np.zeros((s, m)) if d_alpha_u is None else _as_matrix(d_alpha_u, "d_alpha_u")
    d_alpha_w = np.zeros((s, p)) if d_alpha_w is None else _as_matrix(d_alpha_w, "d_alpha_w")
    x_lim = np.full(n, np.inf) if x_lim is None else np.asarray(x_lim, dtype=float)
    y_lim = np.full(r, np.inf) if y_lim is None else np.asarray(y_lim, dtype=float)
    u_lim = np.full(m, np.inf) if u_lim is None else np.asarray(u_lim, dtype=float)
    return StateSpacePlant(a, b, b_w, b_delta, c, d_w, c_alpha, d_alpha_u, d_alpha_w,
                           x_lim, y_lim, u_lim, w_inf)


# The nine loop maps by name, as (output, input) blocks of the stacked map.
_MAP_BLOCKS = {
    "xu": ("x", "u"), "xw": ("x", "w"), "xdelta": ("x", "delta"),
    "yu": ("y", "u"), "yw": ("y", "w"), "ydelta": ("y", "delta"),
    "alpha_u": ("alpha", "u"), "alpha_w": ("alpha", "w"), "alpha_delta": ("alpha", "delta"),
}


def _block_slices(n: int, m: int, p: int, q: int, r: int, s: int) -> dict:
    """(row, column) slices of each map in the stacked map.

    Rows stack the outputs (x, y, alpha), columns the inputs (u, w, delta).
    """
    rows = {"x": slice(0, n), "y": slice(n, n + r), "alpha": slice(n + r, n + r + s)}
    cols = {"u": slice(0, m), "w": slice(m, m + p), "delta": slice(m + p, m + p + q)}
    return {name: (rows[out], cols[inp]) for name, (out, inp) in _MAP_BLOCKS.items()}


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
    impulse response at ``eps_trunc``, whose uniform tail bound is
    ``tail_bound``.  ``dims`` is ``(n, m, p, q, r, s)``, which fixes where
    each block sits (:func:`_block_slices`).

    The impulse response itself is not held: its size grows with the
    horizon, and certification reads only ``abs_stack``.  :meth:`response`
    marches it again from the realization, bit for bit the same.

    Maps are named output-input: ``xu`` sends the residual control ``u0`` to
    the state, ``yw`` the perturbation to the measurement, and so on.  Each
    name reads as an attribute (``maps.xw``), the block of :meth:`response`,
    so every such read marches the loop once; :meth:`abs_block`,
    :meth:`l1` and :meth:`realization` take the name as an argument and
    march nothing.
    """

    a_cl: np.ndarray
    bc: np.ndarray
    cc: np.ndarray
    dc: np.ndarray
    eps_trunc: float
    tail_bound: float
    abs_stack: np.ndarray
    dims: tuple[int, int, int, int, int, int]

    def _slices(self, which: str) -> tuple[slice, slice]:
        return _block_slices(*self.dims)[which]

    def __getattr__(self, name: str) -> TruncatedTransferMatrix:
        # only reached when normal lookup fails, i.e. for the nine map names
        if name not in _MAP_BLOCKS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.response().block(*self._slices(name))

    def response(self) -> TruncatedTransferMatrix:
        """The stacked truncated impulse response, marched again on each call."""
        return impulse_response(self.a_cl, self.bc, self.cc, self.dc, self.eps_trunc)

    def abs_block(self, which: str) -> np.ndarray:
        """``abs_transfer`` of one of the nine maps, as a block of ``abs_stack``."""
        return self.abs_stack[self._slices(which)]

    def l1(self, which: str) -> float:
        """:func:`l1_norm` of one of the nine maps, read from ``abs_stack``."""
        return float(np.max(np.sum(self.abs_block(which), axis=1), initial=0.0))

    def realization(self, which: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """State-space quadruple (A, B, C, D) of one of the nine maps."""
        rows, cols = self._slices(which)
        return self.a_cl, self.bc[:, cols], self.cc[rows], self.dc[rows, cols]


def close_loop(plant: StateSpacePlant, k0, eps_trunc: float = DEFAULT_EPS_TRUNC) -> ClosedLoopMaps:
    """Close the measurement loop with a static gain and build all nine maps.

    ``k0`` may be zero for an open-loop-stable plant, which reproduces the
    open-loop maps.  All nine impulse responses share one stacked march
    (same A_cl) and therefore one uniform tail bound.  The march's terms go
    straight into ``abs_stack`` as they come, so the response is never
    held whole (see :class:`ClosedLoopMaps`).

    Raises
    ------
    NotSchurStable
        If ``rho(A + B K0 C) >= 1 - SCHUR_MARGIN``.
    """
    k0 = _as_matrix(k0, "k0")
    dims = n, m, p, q, r, s = plant.n, plant.m, plant.p, plant.q, plant.r, plant.s
    if k0.shape != (m, r):
        raise ValueError(f"k0 has shape {k0.shape}, expected ({m}, {r})")

    a_cl = plant.a + plant.b @ k0 @ plant.c
    bc = np.hstack([plant.b, plant.b @ k0 @ plant.d_w + plant.b_w, plant.b_delta])
    cc = np.vstack([np.eye(n), plant.c, plant.c_alpha + plant.d_alpha_u @ k0 @ plant.c])
    dc = np.zeros((n + r + s, m + p + q))
    blocks = _block_slices(*dims)
    dc[blocks["yw"]] = plant.d_w
    dc[blocks["alpha_u"]] = plant.d_alpha_u
    dc[blocks["alpha_w"]] = plant.d_alpha_u @ k0 @ plant.d_w + plant.d_alpha_w

    # _abs_response raises NotSchurStable for an unstable a_cl
    abs_stack, tail = _abs_response(a_cl, bc, cc, dc, eps_trunc)
    return ClosedLoopMaps(a_cl, bc, cc, dc, eps_trunc, tail, abs_stack, dims)


# ---------------------------------------------------------------------------
# Plant file format.
#
# JSON object with named matrix fields "A","B","Bw","Bdelta","C","Dw",
# "Calpha","Dalpha_u","Dalpha_w", each {"rows": int, "cols": int,
# "data": [row-major floats]}, plus "x_lim"/"y_lim"/"u_lim" arrays (null
# entries mean unconstrained) and a scalar "w_inf".  Missing uncertainty
# matrices default to zero.  An optional "Gamma_Delta" matrix carries the
# learned uncertainty gain.  Angles and every other quantity are in the
# plant's native units (radians for the bundled cart-pole).
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


def _limits_to_list(vec: np.ndarray) -> list:
    return [None if np.isinf(v) else float(v) for v in vec]


def _limits_from_list(values, dim: int, name: str) -> np.ndarray:
    if values is None:
        return np.full(dim, np.inf)
    vec = np.array([np.inf if v is None else float(v) for v in values])
    if vec.shape != (dim,):
        raise ValueError(f"{name} has length {vec.shape[0]}, expected {dim}")
    return vec


def plant_to_dict(plant: StateSpacePlant, gamma_delta: np.ndarray | None = None) -> dict:
    obj = {
        "A": matrix_to_dict(plant.a),
        "B": matrix_to_dict(plant.b),
        "Bw": matrix_to_dict(plant.b_w),
        "Bdelta": matrix_to_dict(plant.b_delta),
        "C": matrix_to_dict(plant.c),
        "Dw": matrix_to_dict(plant.d_w),
        "Calpha": matrix_to_dict(plant.c_alpha),
        "Dalpha_u": matrix_to_dict(plant.d_alpha_u),
        "Dalpha_w": matrix_to_dict(plant.d_alpha_w),
        "x_lim": _limits_to_list(plant.x_lim),
        "y_lim": _limits_to_list(plant.y_lim),
        "u_lim": _limits_to_list(plant.u_lim),
        "w_inf": float(plant.w_inf),
    }
    if gamma_delta is not None:
        obj["Gamma_Delta"] = matrix_to_dict(gamma_delta)
    return obj


def plant_from_dict(obj: dict) -> tuple[StateSpacePlant, np.ndarray | None]:
    """Plant plus the optional uncertainty gain ``Gamma_Delta`` (may be None)."""
    a = matrix_from_dict(obj["A"], "A")
    b = matrix_from_dict(obj["B"], "B")

    def opt(name):
        return matrix_from_dict(obj[name], name) if name in obj and obj[name] is not None else None

    c = opt("C")
    n, m = a.shape[0], b.shape[1]
    r = n if c is None else c.shape[0]
    plant = make_plant(
        a, b, b_w=opt("Bw"), b_delta=opt("Bdelta"), c=c, d_w=opt("Dw"),
        c_alpha=opt("Calpha"), d_alpha_u=opt("Dalpha_u"), d_alpha_w=opt("Dalpha_w"),
        x_lim=_limits_from_list(obj.get("x_lim"), n, "x_lim"),
        y_lim=_limits_from_list(obj.get("y_lim"), r, "y_lim"),
        u_lim=_limits_from_list(obj.get("u_lim"), m, "u_lim"),
        w_inf=float(obj.get("w_inf", 0.0)),
    )
    return plant, opt("Gamma_Delta")


def save_plant(path, plant: StateSpacePlant, gamma_delta: np.ndarray | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(plant_to_dict(plant, gamma_delta), fh, indent=1)
        fh.write("\n")


def load_plant(path) -> tuple[StateSpacePlant, np.ndarray | None]:
    with open(path) as fh:
        return plant_from_dict(json.load(fh))
