"""Riccati solver and behavior cloning."""

import numpy as np
import pytest

from loopcert import linsys, neural, policysynth
from loopcert.policysynth import (
    CloneConfig,
    LqrSpec,
    NoConvergence,
    _init_params,
    behavior_clone,
    dare_solve,
)

from conftest import run_in_threads

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


class TestDare:
    def test_golden_ratio_scalar(self):
        p, k = dare_solve([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert p[0, 0] == pytest.approx(GOLDEN, abs=1e-9)
        assert k[0, 0] == pytest.approx(GOLDEN / (1.0 + GOLDEN), abs=1e-9)

    def test_stable_plant_without_input(self):
        # B = 0 reduces to the discrete Lyapunov sum: p = 1/(1 - a^2)
        p, k = dare_solve([[0.5]], [[0.0]], [[1.0]], [[1.0]])
        assert p[0, 0] == pytest.approx(1.0 / 0.75, abs=1e-9)
        assert k[0, 0] == 0.0

    def test_cartpole_stabilizes(self, cartpole):
        p, k = dare_solve(cartpole.a, cartpole.b, np.eye(4), [[1.0]])
        assert linsys.spectral_radius(cartpole.a - cartpole.b @ k) < 1.0
        # fixed-point residual of the returned solution
        btp = cartpole.b.T @ p
        gain = np.linalg.solve(np.array([[1.0]]) + btp @ cartpole.b, btp @ cartpole.a)
        residual = p - (np.eye(4) + cartpole.a.T @ p @ (cartpole.a - cartpole.b @ gain))
        assert np.max(np.abs(residual)) < 1e-11

    def test_not_stabilizable_raises(self):
        with pytest.raises(NoConvergence):
            dare_solve([[2.0]], [[0.0]], [[1.0]], [[1.0]], max_iter=2000)

    def test_weights_must_match_the_plant(self):
        # a 1x1 R would broadcast to r * ones((2, 2)) on a two-input plant
        a, b = np.array([[1.0, 0.1], [0.0, 1.0]]), np.array([[0.5, 0.0], [0.1, 1.0]])
        with pytest.raises(ValueError, match=r"r is \(1, 1\)"):
            dare_solve(a, b, np.eye(2), [[1.0]])
        with pytest.raises(ValueError, match=r"q is \(3, 3\)"):
            dare_solve(a, b, np.eye(3), np.eye(2))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LqrSpec(q=[[1.0, 0.1], [0.0, 1.0]], r=[[1.0]])  # asymmetric
        with pytest.raises(ValueError):
            LqrSpec(q=np.eye(2), r=[[0.0]])  # not positive definite

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_are_rejected_first(self, bad):
        # nan <= 0 is False, so a NaN R would pass the definiteness check and
        # fail later as a plant that cannot be stabilized; an inf in Q would
        # warn in the symmetry check (pytest makes that an error here)
        with pytest.raises(ValueError, match="^r must be finite"):
            dare_solve([[1.0]], [[1.0]], [[1.0]], [[bad]])
        with pytest.raises(ValueError, match="^q must be finite"):
            dare_solve(np.eye(2), np.eye(2), np.diag([1.0, bad]), np.eye(2))


class TestBehaviorClone:
    def test_linear_map_default_budget(self):
        # full default step/sample budget on a wide-enough single hidden layer
        config = CloneConfig(hidden=(8,), box_radius=1.0, seed=3)
        result = behavior_clone(np.array([[0.6, -0.4]]), config)
        assert result.mse < 1e-4

    def test_zero_target(self):
        config = CloneConfig(hidden=(8,), n_samples=500, steps=300, seed=1)
        result = behavior_clone(np.zeros((1, 2)), config)
        assert result.mse < 1e-6

    def test_deterministic_per_seed(self):
        config = CloneConfig(hidden=(8,), n_samples=400, steps=200, seed=5)
        first = behavior_clone(np.array([[1.0, 0.5]]), config)
        second = behavior_clone(np.array([[1.0, 0.5]]), config)
        assert first.mse == second.mse
        for la, lb in zip(first.net.layers, second.net.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_clone_vanishes_at_origin(self):
        config = CloneConfig(hidden=(8,), n_samples=400, steps=200, seed=5)
        result = behavior_clone(np.array([[1.0, 0.5]]), config)
        np.testing.assert_allclose(neural.evaluate(result.net, np.zeros(2)),
                                   np.zeros(1), atol=1e-15)

    @pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf, 0.0, -1.0,
                                        (1.0, np.nan), (1.0, 0.0), ((1.0, 1.0),)])
    def test_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(ValueError, match="box_radius entries must be finite and > 0"):
            CloneConfig(box_radius=radius)

    @pytest.mark.parametrize("radius", [(), (1.0,), (1.0, 1.0, 1.0)])
    def test_radius_list_must_match_the_inputs(self, radius):
        config = CloneConfig(hidden=(2,), box_radius=radius, n_samples=10, steps=1)
        with pytest.raises(ValueError,
                           match=rf"box_radius has {len(radius)} entries; the gain has 2 inputs"):
            behavior_clone(np.ones((1, 2)), config)

    def test_cartpole_clone_jacobian_and_stability(self, cartpole, lqr_gain,
                                                   cloned_policy):
        jac = neural.jacobian_at(cloned_policy, np.zeros(4))
        rel_err = np.abs((jac + lqr_gain) / lqr_gain)
        assert np.max(rel_err) < 0.20
        rho = linsys.spectral_radius(cartpole.a + cartpole.b @ jac @ cartpole.c)
        assert rho < 1.0


def _plain_forward(weights, biases, z):
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = z @ w.T + b
        if i < len(weights) - 1:
            z = np.maximum(z, 0.0)
    return z


def reference_clone(k, config):
    """Behavior cloning on fresh arrays every step: the loop buffers must not change a bit."""
    k = np.asarray(k, dtype=float)
    m, n = k.shape
    rng = np.random.default_rng(config.seed)
    radius = np.broadcast_to(np.asarray(config.box_radius, dtype=float), (n,))
    inputs = rng.uniform(-radius, radius, size=(config.n_samples, n))
    raw_targets = inputs @ (-k.T)
    scale_out = np.maximum(np.sqrt(np.mean(raw_targets**2, axis=0)), 1e-12)
    targets = raw_targets / scale_out
    weights, biases = _init_params([n, *config.hidden, m], rng)
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    n_layers = len(weights)
    scale = 1.0 / (config.n_samples * m)
    for _ in range(config.steps):
        acts = [inputs]
        pres = []
        z = inputs
        for i in range(n_layers):
            pre = z @ weights[i].T + biases[i]
            pres.append(pre)
            z = np.maximum(pre, 0.0) if i < n_layers - 1 else pre
            acts.append(z)
        grad = 2.0 * scale * (z - targets)
        for i in range(n_layers - 1, -1, -1):
            if i < n_layers - 1:
                grad = grad * (pres[i] > 0.0)
            g_w = grad.T @ acts[i]
            g_b = grad.sum(axis=0)
            vel_w[i] = policysynth._MOMENTUM * vel_w[i] - policysynth._LEARNING_RATE * g_w
            vel_b[i] = policysynth._MOMENTUM * vel_b[i] - policysynth._LEARNING_RATE * g_b
            if i > 0:
                grad = grad @ weights[i]
            weights[i] = weights[i] + vel_w[i]
            biases[i] = biases[i] + vel_b[i]
    weights[-1] = weights[-1] * scale_out[:, None]
    biases[-1] = biases[-1] * scale_out
    biases[-1] = biases[-1] - _plain_forward(weights, biases, np.zeros(n))
    mse = float(np.mean((_plain_forward(weights, biases, inputs) - raw_targets) ** 2))
    return weights, biases, mse


def assert_same_clone(result, weights, biases, mse):
    assert len(result.net.layers) == len(weights)
    for layer, w, b in zip(result.net.layers, weights, biases):
        assert layer.weight.tobytes() == w.tobytes()
        assert layer.bias.tobytes() == b.tobytes()
    assert np.float64(result.mse).tobytes() == np.float64(mse).tobytes()


class TestCloneBuffers:
    # m = 1 and the hidden width 1 take the one-wide branches, the rest einsum's
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("hidden", [(3,), (8, 8), (16, 16, 16), (1,), (5, 1, 7)])
    def test_bit_identical_to_fresh_arrays(self, m, hidden):
        for seed in (0, 4, 9):
            k = np.random.default_rng(50 + seed).normal(size=(m, 3))
            config = CloneConfig(hidden=hidden, box_radius=(1.0, 0.5, 2.0),
                                 n_samples=300 + 37 * seed, steps=40, seed=seed)
            assert_same_clone(behavior_clone(k, config), *reference_clone(k, config))

    def test_bit_identical_at_reference_rows(self):
        # 4000 rows as in the reference clone, where the products are row-blocked
        k = np.array([[-1.0, -2.0, 30.0, 5.0]])
        config = CloneConfig(hidden=(16, 16, 16), box_radius=(1.0, 1.0, 0.25, 0.6),
                             n_samples=4000, steps=8, seed=7)
        assert_same_clone(behavior_clone(k, config), *reference_clone(k, config))

    @pytest.mark.parametrize("rows", [1, 2, 7, 300, 4000, 10_000])
    @pytest.mark.parametrize("width", [2, 3, 16, 33])
    def test_einsum_column_sums_are_sum_bit_for_bit(self, rows, width):
        # behavior_clone takes its bias gradients from np.einsum("ij->j", g)
        # because it adds in the order of g.sum(axis=0), only faster.  If a
        # numpy upgrade reorders either sum, this fails before the clones change.
        rng = np.random.default_rng(rows * 100 + width)
        g = rng.normal(size=(rows, width)) * 10.0 ** rng.uniform(-12, 12, size=(rows, width))
        assert np.einsum("ij->j", g).tobytes() == g.sum(axis=0).tobytes()

    def test_concurrent_clones_match_sequential(self):
        # the buffers are per call, so threads cloning at once cannot mix them
        cases = [(np.array([[0.6, -0.4]]), CloneConfig(hidden=(8, 8), n_samples=500,
                                                        steps=60, seed=s)) for s in range(3)]
        cases.append((np.array([[1.0, 0.5], [-0.3, 0.2]]),
                      CloneConfig(hidden=(16, 16, 16), n_samples=700, steps=60, seed=3)))

        def run_all():
            return [behavior_clone(k, config) for k, config in cases]

        def flat(results):
            return [(tuple(layer.weight.tobytes() + layer.bias.tobytes()
                           for layer in r.net.layers), r.mse) for r in results]

        expected = flat(run_all())
        assert run_in_threads(lambda i: flat(run_all())) == [expected] * 4
