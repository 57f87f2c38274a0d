"""Test-policy synthesis: discrete-time LQR and behavior cloning into a ReLU net.

The LQR solution comes from the fixed-point Riccati iteration

    P <- Q + A' P A - A' P B (R + B' P B)^-1 B' P A,

which is the simplest correct method at the matrix sizes used here.  The
resulting law ``u = -K x`` is then cloned into a small ReLU network by
sampling inputs in a box and regressing the network output onto ``-K y``
with momentum gradient descent.  Cloning replaces any reinforcement-learning
pipeline: it produces policies that are near-linear around the origin, which
is exactly the regime the certification engine is exercised on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .neural import Layer, ReluNetwork, _bind, _forward_into, evaluate

__all__ = [
    "NoConvergence",
    "LqrSpec",
    "CloneConfig",
    "CloneResult",
    "dare_solve",
    "behavior_clone",
]


# The step size and momentum of the cloning descent.
_LEARNING_RATE = 1e-2
_MOMENTUM = 0.9


class NoConvergence(RuntimeError):
    """The Riccati iteration did not reach its tolerance."""


@dataclass(frozen=True)
class LqrSpec:
    """Quadratic cost ``sum x'Qx + u'Ru`` (Q PSD, R PD, both symmetric)."""

    q: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        r = np.asarray(self.r, dtype=float)
        for name, mat in (("q", q), ("r", r)):
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"{name} must be square")
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"{name} must be finite")
            if np.max(np.abs(mat - mat.T), initial=0.0) > 1e-12:
                raise ValueError(f"{name} must be symmetric")
        if np.any(np.linalg.eigvalsh(r) <= 0):
            raise ValueError("r must be positive definite")
        if np.any(np.linalg.eigvalsh(q) < -1e-12):
            raise ValueError("q must be positive semidefinite")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)


def dare_solve(a, b, q, r, tol: float = 1e-12, max_iter: int = 100_000):
    """Solve the discrete algebraic Riccati equation by fixed-point iteration.

    Returns ``(P, K)`` with ``u = -K x`` the optimal law,
    ``K = (R + B'PB)^-1 B'PA``.  ``Q`` must be ``(n, n)`` and ``R``
    ``(m, m)`` for an ``(n, m)`` input matrix ``B``, else :exc:`ValueError`.
    Requires a stabilizable pair; divergence or stagnation past ``max_iter``
    raises :exc:`NoConvergence`.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    spec = LqrSpec(q, r)
    n, m = b.shape
    if spec.q.shape != (n, n) or spec.r.shape != (m, m):
        raise ValueError(f"q is {spec.q.shape} and r is {spec.r.shape}; "
                         f"a plant with {n} states and {m} inputs needs ({n}, {n}) and ({m}, {m})")
    p = spec.q.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is detected below
        for _ in range(max_iter):
            btp = b.T @ p
            gain = np.linalg.solve(spec.r + btp @ b, btp @ a)
            p_next = spec.q + a.T @ p @ (a - b @ gain)
            p_next = (p_next + p_next.T) / 2.0
            delta = float(np.max(np.abs(p_next - p), initial=0.0))
            p = p_next
            if delta < tol:
                btp = b.T @ p
                k = np.linalg.solve(spec.r + btp @ b, btp @ a)
                return p, k
            if not np.all(np.isfinite(p)):
                break
    raise NoConvergence("Riccati iteration did not converge; is (A, B) stabilizable?")


@dataclass(frozen=True)
class CloneConfig:
    """Behavior-cloning hyperparameters.

    ``hidden`` lists the ReLU layer widths; a linear output layer is appended.
    ``box_radius`` is one finite positive radius, or one per input.
    Sampling and initialization are driven entirely by ``seed``.
    """

    hidden: tuple[int, ...] = (16, 16, 16)
    box_radius: float | tuple = 1.0
    n_samples: int = 10_000
    steps: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not all(w >= 1 for w in self.hidden):
            raise ValueError("hidden widths must be >= 1")
        if self.n_samples < 1 or self.steps < 1:
            raise ValueError("n_samples and steps must be >= 1")
        radius = np.asarray(self.box_radius, dtype=float)
        if radius.ndim > 1 or not np.all(np.isfinite(radius) & (radius > 0)):
            raise ValueError(f"box_radius entries must be finite and > 0, got {self.box_radius}")


@dataclass(frozen=True)
class CloneResult:
    net: ReluNetwork
    mse: float


def _init_params(dims, rng):
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def behavior_clone(k, config: CloneConfig | None = None) -> CloneResult:
    """Clone the linear law ``u = -K y`` into a ReLU network.

    Minimizes the mean squared error over a fixed sample of inputs drawn
    uniformly from the configured box, by full-batch gradient descent with
    momentum.  Deterministic for a fixed config.  The row-sized activations
    and gradients live in buffers allocated once per call, and the momentum
    is updated in place.  Each step rounds every sum and product in the same
    order as the plain ``grad.sum(axis=0)``, ``grad @ W`` and
    ``v = mu * v - lr * g`` on fresh arrays, so the result is bit-identical
    to that.
    """
    config = config or CloneConfig()
    k = np.asarray(k, dtype=float)
    m, n = k.shape
    rng = np.random.default_rng(config.seed)
    radius = np.asarray(config.box_radius, dtype=float)
    if radius.ndim == 1 and radius.size != n:
        raise ValueError(f"box_radius has {radius.size} entries; the gain has {n} inputs")
    radius = np.broadcast_to(radius, (n,))
    inputs = rng.uniform(-radius, radius, size=(config.n_samples, n))
    raw_targets = inputs @ (-k.T)
    # Regress against per-output standardized targets so the fixed learning
    # rate works for any gain scale; the scale is folded back into the final
    # linear layer below and the reported MSE is in original units.
    scale_out = np.maximum(np.sqrt(np.mean(raw_targets**2, axis=0)), 1e-12)
    targets = raw_targets / scale_out

    dims = [n, *config.hidden, m]
    weights, biases = _init_params(dims, rng)
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    n_layers = len(weights)
    scale = 1.0 / (config.n_samples * m)
    # The training layers share their arrays with weights and biases, which
    # are updated in place.  Row buffers for every step: acts[i + 1] is
    # layer i's output and grads[i] the gradient with respect to it.
    train = _bind(Layer(w, b, "relu" if i < n_layers - 1 else "linear")
                  for i, (w, b) in enumerate(zip(weights, biases)))
    acts = [inputs] + [np.empty((config.n_samples, d)) for d in dims[1:]]
    grads = [np.empty((config.n_samples, d)) for d in dims[1:]]

    for _ in range(config.steps):
        z = _forward_into(inputs, train, acts[1:])
        grad = np.subtract(z, targets, out=grads[-1])
        grad *= 2.0 * scale
        for i in range(n_layers - 1, -1, -1):
            if i < n_layers - 1:
                # relu(pre) > 0 exactly where pre > 0
                grad *= acts[i + 1] > 0.0
            g_w = grad.T @ acts[i]
            # The bits of grad.sum(axis=0) and grad @ weights[i], faster:
            # einsum adds rows in sum's order, vectorized across columns.  A
            # one-wide grad is special: sum is pairwise there, so it stays, and
            # the product is an outer product, which broadcasting forms faster.
            one_wide = grad.shape[1] == 1
            g_b = grad.sum(axis=0) if one_wide else np.einsum("ij->j", grad)
            vel_w[i] *= _MOMENTUM
            vel_w[i] -= _LEARNING_RATE * g_w
            vel_b[i] *= _MOMENTUM
            vel_b[i] -= _LEARNING_RATE * g_b
            if i > 0:
                product = np.multiply if one_wide else np.matmul
                grad = product(grad, weights[i], out=grads[i - 1])
            weights[i] += vel_w[i]
            biases[i] += vel_b[i]

    layers = [Layer(w, b, "relu") for w, b in zip(weights[:-1], biases[:-1])]
    layers.append(Layer(weights[-1] * scale_out[:, None], biases[-1] * scale_out, "linear"))
    net = ReluNetwork(tuple(layers))
    # The cloned law vanishes at the origin; pin the network to the known
    # equilibrium action by absorbing its residual offset into the last bias.
    offset = evaluate(net, np.zeros(n))
    last = net.layers[-1]
    layers[-1] = Layer(last.weight, last.bias - offset, "linear")
    net = ReluNetwork(tuple(layers))
    final_mse = float(np.mean((evaluate(net, inputs) - raw_targets) ** 2))
    return CloneResult(net=net, mse=final_mse)
