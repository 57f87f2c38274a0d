"""Model learning: least-squares identification with bootstrap error boxes.

Episodes of (state, input) pairs from a black-box plant are regressed onto a
one-step linear model ``x[t+1] ~ A x[t] + B u[t]``.  The modeling error is
over-approximated by refitting on bootstrap resamples of the episodes and
taking the elementwise maximum deviation from the nominal fit:

    Delta_A = max_j |A_j - A_0|,   Delta_B = max_j |B_j - B_0|.

Every bootstrap fit lies inside the reported box by construction; empirically
the true local linearization falls inside it with high probability once
enough episodes are collected.  The box feeds certification as the gain
matrix ``Gamma_Delta = [Delta_A  Delta_B]`` of the uncertainty channel
``|delta| <= Gamma_Delta |alpha|`` with ``alpha = (x, u)``.

Resampling is per episode (not per transition), matching the episodic
structure of the data collection.  The transitions are stacked into one
design once, with each episode's column maxima and Gram matrix.  A
resample takes its episodes' rows from the design in one index take, so
its least-squares solve sees the bits of a refit of the resampled
episodes from scratch.  Its rank test reads a Gram matrix summed from the
per-episode Grams, equilibrated by the resample's column maxima, in place
of one formed from its rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .linsys import StateSpacePlant, make_plant
from .plant import NonlinearPlant

__all__ = [
    "RankDeficient",
    "EpisodeDiverged",
    "Episode",
    "LearnedModel",
    "collect",
    "least_squares_fit",
    "bootstrap_uncertainty",
    "uncertain_plant",
    "save_episodes",
    "load_episodes",
]

_COND_LIMIT = 1e12


class RankDeficient(ValueError):
    """The regressor Gram matrix is numerically singular."""


class EpisodeDiverged(ArithmeticError):
    """A collected state is not finite: the lowest such ``episode`` at the
    first such ``step`` (the transition into state ``step + 1``)."""

    def __init__(self, episode: int, step: int):
        super().__init__(f"episode {episode} diverged at step {step}: "
                         "its state is not finite")
        self.episode = episode
        self.step = step


@dataclass(frozen=True)
class Episode:
    """One rollout: ``states`` has one more row than ``inputs``."""

    states: np.ndarray
    inputs: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.states, dtype=float)
        u = np.asarray(self.inputs, dtype=float)
        if x.ndim != 2 or u.ndim != 2 or x.shape[0] != u.shape[0] + 1:
            raise ValueError("states must have exactly one more row than inputs")
        object.__setattr__(self, "states", x)
        object.__setattr__(self, "inputs", u)


@dataclass(frozen=True)
class LearnedModel:
    """Nominal (A0, B0) plus elementwise bootstrap deviation boxes."""

    a0: np.ndarray
    b0: np.ndarray
    delta_a: np.ndarray
    delta_b: np.ndarray

    @property
    def gamma_delta(self) -> np.ndarray:
        return np.hstack([self.delta_a, self.delta_b])


def collect(plant: NonlinearPlant, n_episodes: int, ep_len: int = 30,
            u_amplitude: float = 0.5, seed: int = 0) -> list[Episode]:
    """Roll out ``n_episodes`` from the origin under i.i.d. uniform inputs.

    All episodes advance together, one time step at a time, in one
    ``(n_episodes, ep_len + 1, n)`` buffer that each episode views.  A step
    that takes stacks (see :class:`~loopcert.plant.NonlinearPlant`) makes
    one call per time step; any other step runs row by row.  Either way an
    episode is bit for bit its own rollout.  Raises
    :exc:`EpisodeDiverged` at the first step that leaves a state not
    finite.
    """
    if n_episodes < 1:
        raise ValueError("need at least one episode")
    if ep_len < 1:
        raise ValueError("need at least one step per episode")
    rng = np.random.default_rng(seed)
    # one draw is the stream of one (ep_len, 1) draw per episode, in turn
    inputs = rng.uniform(-u_amplitude, u_amplitude, size=(n_episodes, ep_len, 1))
    states = np.zeros((n_episodes, ep_len + 1, plant.n))
    step = plant.step
    if not getattr(step, "stacks", False):
        def step(x, u):  # a one-state step, row by row
            return np.array([plant.step(x_i, u_i) for x_i, u_i in zip(x, u)])
    # a diverging episode overflows to inf or NaN, reported below
    with np.errstate(all="ignore"):
        for t in range(ep_len):
            nxt = states[:, t + 1]
            nxt[...] = step(states[:, t], inputs[:, t])
            if not np.isfinite(nxt).all():
                raise EpisodeDiverged(int(np.argmin(np.isfinite(nxt).all(axis=1))), t)
    return [Episode(states=x, inputs=u) for x, u in zip(states, inputs)]


def _stack(episodes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(regressors, targets, offsets)`` of the episodes' transitions:
    rows ``[x[t], u[t]]`` and ``x[t+1]``, episode ``i`` in rows
    ``offsets[i]:offsets[i + 1]``."""
    if len(episodes) == 0:
        raise ValueError("need at least one episode")
    regressors = np.vstack([np.hstack([ep.states[:-1], ep.inputs]) for ep in episodes])
    targets = np.vstack([ep.states[1:] for ep in episodes])
    offsets = np.cumsum([0] + [ep.inputs.shape[0] for ep in episodes])
    return regressors, targets, offsets


def _per_episode(reduce: np.ufunc, rows: np.ndarray, starts: np.ndarray,
                 lengths: np.ndarray) -> np.ndarray:
    """``reduce`` over each episode's ``rows``; 0 for an episode of none."""
    out = np.zeros((len(lengths), rows.shape[1]))
    filled = lengths > 0
    # reduceat gives an empty segment the next row, not 0
    if filled.any():
        out[filled] = reduce.reduceat(rows, starts[filled], axis=0)
    return out


class _Transitions:
    """The episodes' transitions stacked once, with each episode's column
    maxima ``m_i`` of ``|regressors|`` and its Gram matrix ``G_i = E_i' E_i``.

    ``E_i`` is the episode's rows over its own column maxima, so no entry
    exceeds 1.  A resample's Gram over its column maxima ``s`` is then
    ``sum_p D_p G_p D_p`` over its picks ``p``, with ``D_p = diag(m_p / s)``:
    equal to the Gram of its rows but for rounding, at any spread of
    column scales between episodes.
    """

    def __init__(self, episodes):
        self.regressors, self.targets, offsets = _stack(episodes)
        self.starts, self.lengths = offsets[:-1], np.diff(offsets)
        self.col_max = _per_episode(np.maximum, np.abs(self.regressors),
                                    self.starts, self.lengths)
        # an episode's zero column stays zero in its Gram
        e = self.regressors / np.repeat(np.where(self.col_max > 0.0, self.col_max, 1.0),
                                        self.lengths, axis=0)
        k = e.shape[1]
        self.grams = _per_episode(np.add, (e[:, :, None] * e[:, None, :]).reshape(-1, k * k),
                                  self.starts, self.lengths).reshape(-1, k, k)

    def fit(self, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:func:`least_squares_fit` of the episodes ``picks``, in order.

        The solve takes the bits of their rows stacked from scratch; the
        rank test reads the Gram summed from the episodes' Grams.
        """
        # rows starts[i] .. starts[i] + lengths[i] - 1 of each pick i, in order
        taken = self.lengths[picks]
        ends = np.cumsum(taken)
        rows = np.arange(ends[-1]) + np.repeat(self.starts[picks] - (ends - taken), taken)
        if rows.size < self.regressors.shape[1]:
            raise RankDeficient("fewer transitions than parameters per state row")
        # column equilibration keeps the singularity test scale-free
        col_max = self.col_max[picks]
        scale = col_max.max(axis=0)
        if np.any(scale == 0.0):
            raise RankDeficient("a regressor column is identically zero")
        # no ratio exceeds 1, so no term overflows; a term that underflows is
        # below 1e-308 of the Gram's diagonal, whose entries are at least 1
        ratio = col_max / scale
        gram = np.einsum("pj,pk,pjk->jk", ratio, ratio, self.grams[picks])
        return _fit(self.regressors.take(rows, axis=0), self.targets.take(rows, axis=0), gram)


def _fit(regressors: np.ndarray, targets: np.ndarray,
         gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`least_squares_fit` of stacked transitions whose regressors
    have the column-equilibrated Gram matrix ``gram``."""
    if np.linalg.cond(gram) > _COND_LIMIT:
        raise RankDeficient("regressor Gram matrix is numerically singular")
    theta, *_ = np.linalg.lstsq(regressors, targets, rcond=None)
    theta = theta.T
    n = targets.shape[1]
    return theta[:, :n], theta[:, n:]


def least_squares_fit(episodes) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ``sum ||x[t+1] - A x[t] - B u[t]||^2`` over all transitions.

    Solved by orthogonal factorization.  Raises :exc:`RankDeficient` when the
    regressor Gram matrix has condition number above 1e12 (the excitation
    does not identify the model).
    """
    return _Transitions(episodes).fit(np.arange(len(episodes)))


def bootstrap_uncertainty(episodes, n_boot: int = 100, seed: int = 0) -> LearnedModel:
    """Nominal fit plus elementwise max deviation over bootstrap refits.

    Episodes are resampled with replacement ``n_boot`` times; each resample
    is refit and its deviation from the full-data fit recorded.  The box
    contains every bootstrap fit by construction.

    Each refit takes its resample's rows from one stack of the transitions,
    and its least-squares solve sees the bits :func:`least_squares_fit` of
    the resampled episodes would see.  Its rank test reads a Gram matrix
    summed from per-episode Grams formed once (:class:`_Transitions`).
    """
    if n_boot < 2:
        raise ValueError("need at least two bootstrap resamples")
    transitions = _Transitions(episodes)
    count = len(episodes)
    a0, b0 = transitions.fit(np.arange(count))
    delta_a = np.zeros_like(a0)
    delta_b = np.zeros_like(b0)
    rng = np.random.default_rng(seed)
    for _ in range(n_boot):
        a_j, b_j = transitions.fit(rng.integers(0, count, size=count))
        delta_a = np.maximum(delta_a, np.abs(a_j - a0))
        delta_b = np.maximum(delta_b, np.abs(b_j - b0))
    return LearnedModel(a0=a0, b0=b0, delta_a=delta_a, delta_b=delta_b)


def save_episodes(path, episodes) -> None:
    """Episodes as CSV rows ``episode,t,x_1..,u_1..`` at full precision.

    The final state of each episode appears with empty input cells.
    """
    episodes = list(episodes)
    n = episodes[0].states.shape[1]
    m = episodes[0].inputs.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "t"] + [f"x_{i + 1}" for i in range(n)]
                        + [f"u_{j + 1}" for j in range(m)])
        for index, ep in enumerate(episodes):
            steps = ep.inputs.shape[0]
            for t in range(steps + 1):
                state = [f"{v:.17g}" for v in ep.states[t]]
                inputs = [f"{v:.17g}" for v in ep.inputs[t]] if t < steps else [""] * m
                writer.writerow([index, t] + state + inputs)


def load_episodes(path) -> list[Episode]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        n = sum(1 for name in header if name.startswith("x_"))
        rows: dict[int, list] = {}
        for row in reader:
            rows.setdefault(int(row[0]), []).append(row[1:])
    episodes = []
    for index in sorted(rows):
        chunk = sorted(rows[index], key=lambda r: int(r[0]))
        states = np.array([[float(v) for v in r[1:1 + n]] for r in chunk])
        inputs = np.array([[float(v) for v in r[1 + n:]] for r in chunk[:-1]])
        episodes.append(Episode(states=states, inputs=inputs))
    return episodes


def uncertain_plant(model: LearnedModel, *, c=None, d_w=None, b_w=None,
                    w_inf: float = 0.0) -> StateSpacePlant:
    """Wrap a learned model as an uncertain plant.

    The uncertainty output enters the state additively (``B_delta = I``) and
    its input stacks state over control (``alpha = (x, u)``), so
    ``|delta| <= [Delta_A  Delta_B] |alpha|`` covers every linear model inside
    the learned box.  Pair with ``model.gamma_delta`` for certification.
    Its limits are infinite; set them with
    :func:`loopcert.certify.with_state_limit` or ``dataclasses.replace``.
    """
    n, m = model.a0.shape[0], model.b0.shape[1]
    c_alpha = np.vstack([np.eye(n), np.zeros((m, n))])
    d_alpha_u = np.vstack([np.zeros((n, m)), np.eye(m)])
    return make_plant(model.a0, model.b0, b_w=b_w, b_delta=np.eye(n), c=c, d_w=d_w,
                      c_alpha=c_alpha, d_alpha_u=d_alpha_u, w_inf=w_inf)
