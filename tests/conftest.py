"""Shared fixtures: the cart-pole stack and random-system generators."""

import sys
import threading

import numpy as np
import pytest

from loopcert import linsys, neural, plant, policysynth, sysid
from loopcert.certify import check_lemma1

# One clone is trained per session and shared by every test that needs the
# cart-pole policy; the config is the reference configuration used across
# the suite (wide enough sampling box for the loop-amplified coordinates).
CLONE_CONFIG = policysynth.CloneConfig(
    hidden=(16, 16, 16),
    box_radius=(1.0, 1.0, 0.25, 0.6),
    n_samples=4000,
    steps=3000,
    seed=7,
)


@pytest.fixture(scope="session")
def cartpole():
    return plant.cartpole_linearized()


@pytest.fixture(scope="session")
def cartpole_nl():
    return plant.cartpole_nonlinear()


@pytest.fixture(scope="session")
def lqr_gain(cartpole):
    _, k = policysynth.dare_solve(cartpole.a, cartpole.b, np.eye(4), [[1.0]])
    return k


@pytest.fixture(scope="session")
def kd(lqr_gain):
    return -lqr_gain


@pytest.fixture(scope="session")
def cloned_policy(lqr_gain):
    return policysynth.behavior_clone(lqr_gain, CLONE_CONFIG).net


@pytest.fixture(scope="session")
def learned_cartpole(cartpole_nl):
    """Criterion 6's learned cart-pole (100 episodes, seed 1) and its
    bootstrap Gamma_Delta."""
    model = sysid.bootstrap_uncertainty(
        sysid.collect(cartpole_nl, 100, u_amplitude=0.5, seed=1), seed=1)
    return (sysid.uncertain_plant(model, c=cartpole_nl.c, d_w=cartpole_nl.d_w,
                                  b_w=cartpole_nl.b_w), model.gamma_delta)


def scalar_plant(a=0.5, w_inf=0.1, **kwargs):
    """The scalar reference loop: x+ = a x + u + w, y = x."""
    return linsys.make_plant([[a]], [[1.0]], b_w=[[1.0]], w_inf=w_inf, **kwargs)


def linear_policy(gain=-0.2):
    return neural.mlp([(np.array([[float(gain)]]), np.array([0.0]))])


def single_relu_policy():
    """pi(y) = relu(y): one ReLU neuron behind an identity readout."""
    return neural.mlp([
        (np.array([[1.0]]), np.array([0.0])),
        (np.array([[1.0]]), np.array([0.0])),
    ])


def random_relu_net(rng, max_hidden_layers=3, max_width=16, d_in=None, d_out=None):
    d_in = int(rng.integers(1, 5)) if d_in is None else d_in
    d_out = int(rng.integers(1, 4)) if d_out is None else d_out
    widths = [int(rng.integers(1, max_width + 1))
              for _ in range(int(rng.integers(1, max_hidden_layers + 1)))]
    dims = [d_in] + widths + [d_out]
    pairs = [(rng.normal(size=(b, a)) / np.sqrt(a), rng.normal(size=b) * 0.5)
             for a, b in zip(dims[:-1], dims[1:])]
    return neural.mlp(pairs)


def random_stable_plant(rng, n_max=4, with_uncertainty=True):
    """Random Schur-stable plant with all channels populated."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, 3))
    p = int(rng.integers(1, 3))
    r = int(rng.integers(1, 3))
    if with_uncertainty:
        q = int(rng.integers(1, 3))
        s = int(rng.integers(1, 3))
    else:
        q = s = 0
    a = rng.normal(size=(n, n))
    rho = linsys.spectral_radius(a)
    a = a * (rng.uniform(0.2, 0.9) / max(rho, 1e-9))
    return linsys.make_plant(
        a, rng.normal(size=(n, m)),
        b_w=rng.normal(size=(n, p)),
        b_delta=rng.normal(size=(n, q)),
        c=rng.normal(size=(r, n)),
        d_w=rng.normal(size=(r, p)) * 0.3,
        c_alpha=rng.normal(size=(s, n)),
        d_alpha_u=rng.normal(size=(s, m)) * 0.3,
        d_alpha_w=rng.normal(size=(s, p)) * 0.3,
    )


def valid_small_gains(maps, rng):
    """(gamma_pi, gamma_delta) with both small-gain conditions satisfied."""
    norm_ad = linsys.l1_norm(maps.alpha_delta)
    if norm_ad > 0 and maps.dims[3] > 0:
        gamma_delta = float(rng.uniform(0.0, 0.8)) / norm_ad
    else:
        gamma_delta = float(rng.uniform(0.0, 1.0))
    probe = check_lemma1(maps, 1.0, gamma_delta, 1.0, np.inf)
    denom = probe.beta2  # beta2 at gamma_pi = 1
    if denom > 0:
        gamma_pi = float(rng.uniform(0.05, 0.9)) / denom
    else:
        gamma_pi = float(rng.uniform(0.1, 2.0))
    return gamma_pi, gamma_delta


def fresh_draw_gain(net, k0, radius, n_samples, seed, quantization=None, offset=0.0):
    """Sampled gain of the residual policy over ``|y| <= radius``: the largest
    ``(||pi(y) - K0 y||_inf - offset) / ||y||_inf`` over ``n_samples`` uniform
    draws of ``default_rng(seed)`` (samples with ``y = 0`` left out, 0.0 when
    every sample is 0), with ``pi`` quantized when ``quantization`` is given.

    A lower bound of the true local gain, never a certificate: the test-side
    oracle that a sound bound ``offset + gamma ||y||`` must never fall below.
    """
    radius = np.broadcast_to(np.asarray(radius, dtype=float), (net.input_dim,))
    ys = np.random.default_rng(seed).uniform(-radius, radius, size=(n_samples, net.input_dim))
    outs = ys
    for layer in net.layers:
        outs = outs @ layer.weight.T + layer.bias
        if layer.activation == "relu":
            outs = np.maximum(outs, 0.0)
    if quantization is not None:
        outs = quantization.apply(outs)
    residual = outs - ys @ np.asarray(k0, dtype=float).T
    norms_y = np.max(np.abs(ys), axis=1)
    keep = norms_y > 0
    if not np.any(keep):
        return 0.0
    return float(np.max((np.max(np.abs(residual[keep]), axis=1) - offset) / norms_y[keep]))


def run_in_threads(fn, n=4, timeout=300):
    """``fn(i)`` from threads ``i = 0..n-1`` at once, switching every microsecond.

    Asserts that every thread finished without raising and returns the
    ``n`` results in thread order.
    """
    results, errors = [None] * n, []

    def worker(i):
        try:
            results[i] = fn(i)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    return results


def threshold_cases(count, seed=0):
    """``(threshold, strict, tol)`` for monotone threshold predicates.

    Thresholds are log-uniform over 1e-60 .. 1e5, with 0 and inf mixed in;
    a strict case fails above the threshold, the others at it and above.
    ``tol`` is one of 1e-20, 1e-4, 1e-3 and 0.3.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        kind = i % 20
        threshold = 0.0 if kind == 0 else np.inf if kind == 1 else 10.0 ** rng.uniform(-60, 5)
        cases.append((float(threshold), bool(rng.integers(2)),
                      float(rng.choice([1e-20, 1e-4, 1e-3, 0.3]))))
    return cases
