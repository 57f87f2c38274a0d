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
design once; a resample takes its episodes' rows from it in one index
take, and its column scale from per-episode column maxima, so every refit
sees the bits a refit of the resampled episodes from scratch would.
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
    regressors = np.vstack([np.hstack([ep.states[:-1], ep.inputs]) for ep in episodes])
    targets = np.vstack([ep.states[1:] for ep in episodes])
    offsets = np.cumsum([0] + [ep.inputs.shape[0] for ep in episodes])
    return regressors, targets, offsets


def _fit(regressors: np.ndarray, targets: np.ndarray,
         scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`least_squares_fit` of stacked transitions whose column maxima
    of ``|regressors|`` are ``scale``."""
    n = targets.shape[1]
    if regressors.shape[0] < regressors.shape[1]:
        raise RankDeficient("fewer transitions than parameters per state row")
    # column equilibration keeps the singularity test scale-free
    if np.any(scale == 0.0):
        raise RankDeficient("a regressor column is identically zero")
    equilibrated = regressors / scale
    if np.linalg.cond(equilibrated.T @ equilibrated) > _COND_LIMIT:
        raise RankDeficient("regressor Gram matrix is numerically singular")
    theta, *_ = np.linalg.lstsq(regressors, targets, rcond=None)
    theta = theta.T
    return theta[:, :n], theta[:, n:]


def least_squares_fit(episodes) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ``sum ||x[t+1] - A x[t] - B u[t]||^2`` over all transitions.

    Solved by orthogonal factorization.  Raises :exc:`RankDeficient` when the
    regressor Gram matrix has condition number above 1e12 (the excitation
    does not identify the model).
    """
    regressors, targets, _ = _stack(episodes)
    return _fit(regressors, targets, np.max(np.abs(regressors), axis=0, initial=0.0))


def bootstrap_uncertainty(episodes, n_boot: int = 100, seed: int = 0) -> LearnedModel:
    """Nominal fit plus elementwise max deviation over bootstrap refits.

    Episodes are resampled with replacement ``n_boot`` times; each resample
    is refit and its deviation from the full-data fit recorded.  The box
    contains every bootstrap fit by construction.

    Each refit takes its resample's rows from one stack of the transitions
    and sees the bits :func:`least_squares_fit` of the resampled episodes
    would see.
    """
    if n_boot < 2:
        raise ValueError("need at least two bootstrap resamples")
    regressors, targets, offsets = _stack(episodes)
    starts, lengths = offsets[:-1], np.diff(offsets)
    # np.maximum.reduceat gives an empty segment the next row, not 0
    col_max = np.zeros((len(lengths), regressors.shape[1]))
    filled = lengths > 0
    if filled.any():
        col_max[filled] = np.maximum.reduceat(np.abs(regressors), starts[filled], axis=0)
    a0, b0 = _fit(regressors, targets, col_max.max(axis=0))
    delta_a = np.zeros_like(a0)
    delta_b = np.zeros_like(b0)
    rng = np.random.default_rng(seed)
    for _ in range(n_boot):
        picks = rng.integers(0, len(lengths), size=len(lengths))
        # rows starts[i] .. starts[i] + lengths[i] - 1 of each pick i, in order
        taken = lengths[picks]
        ends = np.cumsum(taken)
        rows = np.arange(ends[-1]) + np.repeat(starts[picks] - (ends - taken), taken)
        a_j, b_j = _fit(regressors.take(rows, axis=0), targets.take(rows, axis=0),
                        col_max[picks].max(axis=0))
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
