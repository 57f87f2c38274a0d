"""Cart-pole dynamics and the analytic linearization."""

import dataclasses
import warnings

import numpy as np
import pytest

from loopcert import linsys, sysid
from loopcert.plant import (
    CartPoleParams,
    cartpole_linearized,
    cartpole_nonlinear,
    cartpole_step,
    linearization_consistency,
)


def closed_form_matrices(params):
    """Independent transcription of the linearized entries."""
    g, big_m, m = params.g, params.masscart, params.masspole
    l, tau = params.length, params.tau
    denom = 4.0 * big_m + m
    a = np.eye(4)
    a[0, 1] = tau
    a[1, 2] = -3.0 * m * g * tau / denom
    a[2, 3] = tau
    a[3, 2] = 3.0 * (big_m + m) * g * tau / (denom * l)
    b = np.array([[0.0], [4.0 * tau / denom], [0.0], [-3.0 * tau / (denom * l)]])
    return a, b


def reference_step(params, x, u):
    """The step's formula on numpy float64 scalars, as it was first written."""
    x = np.asarray(x, dtype=float)
    force = float(np.asarray(u).reshape(-1)[0]) if np.ndim(u) else float(u)
    pos, vel, theta, omega = x
    m, big_m, l, g = params.masspole, params.masscart, params.length, params.g
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    denom = (4.0 / 3.0) * (big_m + m) * l - m * l * cos_t**2
    pos_acc = ((4.0 / 3.0) * m * l**2 * omega**2 * sin_t
               - m * g * l * sin_t * cos_t
               + (4.0 / 3.0) * l * force) / denom
    ang_acc = (-m * l * omega**2 * sin_t * cos_t
               + (big_m + m) * g * sin_t
               - cos_t * force) / denom
    tau = params.tau
    return np.array([pos + tau * vel,
                     vel + tau * pos_acc,
                     theta + tau * omega,
                     omega + tau * ang_acc])


PARAM_SETS = (CartPoleParams(),
              CartPoleParams(g=9.81, masscart=2.5, masspole=0.3, length=1.2, tau=0.05))


class TestStep:
    def test_matches_the_float64_scalar_formula_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for params in (CartPoleParams(),
                       CartPoleParams(g=9.81, masscart=2.5, masspole=0.3, length=1.2, tau=0.05)):
            for _ in range(5000):
                x = rng.normal(scale=[2.0, 5.0, 1.0, 10.0])
                x[2] = rng.uniform(-np.pi, np.pi)
                u = rng.uniform(-10.0, 10.0, size=1)
                got, want = cartpole_step(params, x, u), reference_step(params, x, u)
                assert got.tobytes() == want.tobytes(), (x, u)
        for u in (0.3, np.float64(-0.7), [0.25], np.array([[1.5]])):
            x = [0.1, -0.2, np.pi, -np.pi]
            assert (cartpole_step(CartPoleParams(), x, u).tobytes()
                    == reference_step(CartPoleParams(), x, u).tobytes())

    def test_collected_episodes_match_the_float64_scalar_formula(self):
        params = CartPoleParams()
        nl = cartpole_nonlinear(params)
        reference = dataclasses.replace(nl, step=lambda x, u: reference_step(params, x, u))
        for seed in range(3):
            for got, want in zip(sysid.collect(nl, 20, u_amplitude=2.0, seed=seed),
                                 sysid.collect(reference, 20, u_amplitude=2.0, seed=seed)):
                assert got.states.tobytes() == want.states.tobytes()
                assert got.inputs.tobytes() == want.inputs.tobytes()

    def test_collection_compares_the_stacked_step_with_the_one_state_formula(self):
        # the test above steps nl's stacks against a step that takes one state
        params = CartPoleParams()
        nl = cartpole_nonlinear(params)
        reference = dataclasses.replace(nl, step=lambda x, u: reference_step(params, x, u))
        assert getattr(nl.step, "stacks", False)
        assert not getattr(reference.step, "stacks", False)

    def test_stack_matches_one_state_calls_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for params in PARAM_SETS:
            for angle in (np.pi, 1e3, 1e6):
                x = rng.normal(scale=[2.0, 5.0, 1.0, 10.0], size=(2000, 4))
                x[:, 2] = rng.uniform(-angle, angle, size=len(x))
                # pow(w, 2) and w * w differ in the last bit here
                x[:20, 3] = 8.302149983209311
                u = rng.uniform(-10.0, 10.0, size=(len(x), 1))
                got = cartpole_step(params, x, u)
                assert got.shape == x.shape
                for row, x_i, u_i in zip(got, x, u):
                    want = reference_step(params, x_i, u_i)
                    assert row.tobytes() == want.tobytes(), (x_i, u_i)
                    assert row.tobytes() == cartpole_step(params, x_i, u_i).tobytes()

    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_collect_matches_a_per_episode_loop_of_the_formula(self, params):
        nl = cartpole_nonlinear(params)
        for seed in range(20):
            for ep_len in (1, 30, 200):
                for amplitude in (0.1, 2.0, 50.0):  # at 50 the pole falls
                    got = sysid.collect(nl, 3, ep_len=ep_len, u_amplitude=amplitude,
                                        seed=seed)
                    rng = np.random.default_rng(seed)
                    for episode in got:
                        inputs = rng.uniform(-amplitude, amplitude, size=(ep_len, 1))
                        states = [np.zeros(4)]
                        for u in inputs:
                            states.append(reference_step(params, states[-1], u))
                        assert episode.inputs.tobytes() == inputs.tobytes()
                        assert episode.states.tobytes() == np.array(states).tobytes()

    def test_diverging_collection_names_the_episode_and_step(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sysid.EpisodeDiverged,
                               match=r"^episode \d+ diverged at step \d+") as err:
                sysid.collect(cartpole_nonlinear(), 5, u_amplitude=1e6)
        # the lowest episode whose state first leaves the finite floats
        with np.errstate(all="ignore"):
            first = []
            rng = np.random.default_rng(0)
            for episode in range(5):
                x = np.zeros(4)
                for t, u in enumerate(rng.uniform(-1e6, 1e6, size=(30, 1))):
                    x = cartpole_step(CartPoleParams(), x, u)
                    if not np.all(np.isfinite(x)):
                        first.append((t, episode))
                        break
        assert (err.value.step, err.value.episode) == min(first)

    def test_equilibrium_is_fixed(self):
        assert np.array_equal(cartpole_step(CartPoleParams(), np.zeros(4), 0.0),
                              np.zeros(4))

    def test_small_angle_matches_linear_row(self):
        params = CartPoleParams()
        lin = cartpole_linearized(params)
        theta = 1e-5
        nxt = cartpole_step(params, np.array([0.0, 0.0, theta, 0.0]), 0.0)
        # angular acceleration linear coefficient to O(theta^2)
        assert nxt[3] / theta == pytest.approx(lin.a[3, 2], rel=1e-9)
        assert nxt[1] / theta == pytest.approx(lin.a[1, 2], rel=1e-9)

    def test_inverted_symmetry(self):
        nxt = cartpole_step(CartPoleParams(), np.array([0.0, 0.0, np.pi, 0.0]), 0.0)
        assert nxt[3] == pytest.approx(0.0, abs=1e-12)  # sin(pi) = 0


class TestLinearized:
    def test_default_entries(self):
        lin = cartpole_linearized()
        assert lin.a[1, 2] == pytest.approx(-3 * 0.1 * 9.8 * 0.02 / 4.1, abs=1e-12)
        assert lin.a[3, 2] == pytest.approx(3 * 1.1 * 9.8 * 0.02 / (4.1 * 0.5), abs=1e-12)
        expected_b = [0.0, 4 * 0.02 / 4.1, 0.0, -3 * 0.02 / (4.1 * 0.5)]
        np.testing.assert_allclose(lin.b.ravel(), expected_b, atol=1e-12)
        np.testing.assert_array_equal(lin.c, np.eye(4))
        np.testing.assert_array_equal(lin.d_w.ravel(), [0.0, 0.0, 1.0, 0.0])

    def test_entries_across_random_parameters(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            params = CartPoleParams(
                g=rng.uniform(5, 15), masscart=rng.uniform(0.5, 3),
                masspole=rng.uniform(0.02, 0.5), length=rng.uniform(0.2, 1.5),
                tau=rng.uniform(0.005, 0.05))
            lin = cartpole_linearized(params)
            a, b = closed_form_matrices(params)
            np.testing.assert_allclose(lin.a, a, atol=1e-12)
            np.testing.assert_allclose(lin.b, b, atol=1e-12)

    def test_vanishing_sampling_time(self):
        lin = cartpole_linearized(CartPoleParams(tau=1e-12))
        np.testing.assert_allclose(lin.a, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(lin.b, np.zeros((4, 1)), atol=1e-10)

    def test_open_loop_unstable(self):
        params = CartPoleParams()
        lin = cartpole_linearized(params)
        rho = linsys.spectral_radius(lin.a)
        assert rho > 1.0
        # dominant eigenvalue of the double-integrator pendulum block
        expected = 1 + params.tau * np.sqrt(lin.a[3, 2] / params.tau)
        assert rho == pytest.approx(expected, rel=1e-9)


class TestConsistency:
    def test_small_radius_ratio_bounded(self):
        ratio = linearization_consistency(CartPoleParams(), 1e-4, 200, seed=0)
        assert 0.0 <= ratio <= 100.0

    def test_residual_shrinks_superquadratically(self):
        params = CartPoleParams()
        big = linearization_consistency(params, 1e-3, 500, seed=1) * (1e-3) ** 2
        small = linearization_consistency(params, 5e-4, 500, seed=1) * (5e-4) ** 2
        # raw residual must drop at least quadratically when radius halves
        assert big / small >= 3.5

    def test_zero_samples_at_origin(self):
        params = CartPoleParams()
        lin = cartpole_linearized(params)
        residual = cartpole_step(params, np.zeros(4), 0.0) - lin.a @ np.zeros(4)
        assert np.array_equal(residual, np.zeros(4))


class TestNonlinearWrapper:
    def test_measurement_maps(self):
        nl = cartpole_nonlinear()
        np.testing.assert_array_equal(nl.c, np.eye(4))
        np.testing.assert_array_equal(nl.d_w.ravel(), [0.0, 0.0, 1.0, 0.0])
        assert (nl.n, nl.p) == (4, 1)
