"""Attack synthesis and the simulation harness."""

import numpy as np
import pytest

from loopcert import attack, linsys, neural
from loopcert.attack import (
    AttackPlan,
    DivergedAt,
    design_attack,
    load_plan,
    monte_carlo_attack,
    save_plan,
    save_trace,
    simulate,
)
from loopcert.plant import CartPoleParams, cartpole_linearized, cartpole_nonlinear

from conftest import linear_policy, random_stable_plant, scalar_plant


@pytest.fixture(scope="module")
def scalar_loop():
    plant = scalar_plant()
    net = linear_policy(-0.2)
    maps = linsys.close_loop(plant, np.array([[-0.2]]))  # a_cl = 0.3
    return plant, net, maps


class TestDesignAttack:
    def test_positive_impulse_gives_all_ones(self, scalar_loop):
        _, _, maps = scalar_loop
        plan = design_attack(maps, 0, 30)
        used = plan.signs[plan.signs != 0.0]
        assert used.size > 0 and np.all(used == 1.0)

    def test_alternating_for_negative_pole(self):
        plant = linsys.make_plant([[-0.3]], [[1.0]], b_w=[[1.0]])
        maps = linsys.close_loop(plant, np.array([[-0.2]]))  # a_cl = -0.5
        plan = design_attack(maps, 0, 8)
        signs = plan.signs.ravel()
        # signs of (-0.5)^(lag-1) with lag = horizon - t
        expected = [np.sign((-0.5) ** (8 - t - 1)) for t in range(8)]
        np.testing.assert_array_equal(signs, expected)

    def test_convolution_identity_on_linear_loop(self, scalar_loop):
        # with a linear policy the residual vanishes, so the achieved value
        # at the horizon equals the absolute impulse-response sum exactly
        plant, net, maps = scalar_loop
        horizon = 60
        plan = design_attack(maps, 0, horizon, w_inf=0.1)
        trace = simulate(plant, net, plan, horizon + 1)
        predicted = 0.1 * np.sum(np.abs(maps.xw.impulse[1:horizon + 1, 0, :]))
        assert trace.x[horizon, 0] == pytest.approx(predicted, abs=1e-9)

    def test_gather_matches_per_step_loop(self):
        # the per-step loop the gather replaced, on random maps with
        # horizons below, at and above the truncation length T
        def loop_signs(maps, target, horizon):
            phi = maps.xw.impulse
            signs = np.zeros((horizon, maps.dims[2]))
            for t in range(horizon):
                lag = horizon - t
                if lag < phi.shape[0]:
                    signs[t] = np.sign(phi[lag, target, :])
            return signs

        rng = np.random.default_rng(12)
        for _ in range(20):
            plant = random_stable_plant(rng)
            maps = linsys.close_loop(plant, np.zeros((plant.m, plant.r)))
            length = maps.xw.length
            for horizon in (0, 1, length // 2, length - 1, length, length + 7, 2 * length):
                for target in range(plant.n):
                    plan = design_attack(maps, target, horizon)
                    np.testing.assert_array_equal(plan.signs,
                                                  loop_signs(maps, target, horizon))

    def test_bad_index(self, scalar_loop):
        _, _, maps = scalar_loop
        with pytest.raises(IndexError):
            design_attack(maps, 3, 10)


class TestSimulate:
    def test_zero_everything_stays_zero(self, scalar_loop):
        plant, net, _ = scalar_loop
        trace = simulate(plant, net, None, 50)
        assert np.array_equal(trace.max_abs("x"), [0.0])
        assert np.array_equal(trace.max_abs("u"), [0.0])

    def test_nonlinear_matches_linear_for_small_states(self, kd):
        params = CartPoleParams()
        nl = cartpole_nonlinear(params)
        lin = cartpole_linearized(params)
        net = neural.mlp([(kd, np.zeros(1))])
        x0 = np.array([0.0, 0.0, 1e-3, 0.0])
        t_nl = simulate(nl, net, None, 100, x0=x0)
        t_li = simulate(lin, net, None, 100, x0=x0)
        assert np.max(np.abs(t_nl.x - t_li.x)) <= 1e-5

    def test_divergence_carries_partial_trace(self):
        plant = linsys.make_plant([[2.0]], [[1.0]], b_w=[[1.0]])
        net = linear_policy(0.0)
        with pytest.raises(DivergedAt) as err:
            simulate(plant, net, None, 10_000, x0=np.array([1.0]))
        assert err.value.trace.steps == err.value.step + 1

    def test_quantized_steps_are_exact_multiples(self, scalar_loop):
        plant, net, _ = scalar_loop
        spec = neural.QuantizationSpec(0.05)
        rng = np.random.default_rng(0)
        w = rng.uniform(-0.1, 0.1, size=(50, 1))
        trace = simulate(plant, net, w, 50, quantization=spec)
        steps = trace.u / spec.step
        np.testing.assert_allclose(steps, np.round(steps), atol=1e-9)


class TestMonteCarlo:
    def test_zero_amplitude(self, scalar_loop):
        plant, net, _ = scalar_loop
        _, stats = monte_carlo_attack(plant, net, 0.0, 200, seed=1)
        assert np.array_equal(stats.max_abs, [0.0])
        assert np.array_equal(stats.mean, [0.0])
        assert np.array_equal(stats.std, [0.0])

    def test_stats_consistent_with_trace(self, scalar_loop):
        plant, net, _ = scalar_loop
        trace, stats = monte_carlo_attack(plant, net, 0.1, 500, seed=2)
        np.testing.assert_array_equal(stats.max_abs, np.max(np.abs(trace.x), axis=0))
        np.testing.assert_array_equal(stats.mean, np.mean(trace.x, axis=0))
        np.testing.assert_array_equal(stats.std, np.std(trace.x, axis=0))

    def test_seeded_bit_reproducible(self, scalar_loop):
        plant, net, _ = scalar_loop
        t1, _ = monte_carlo_attack(plant, net, 0.1, 300, seed=7)
        t2, _ = monte_carlo_attack(plant, net, 0.1, 300, seed=7)
        assert np.array_equal(t1.x, t2.x) and np.array_equal(t1.w, t2.w)

    def test_rademacher_mode_hits_extremes(self, scalar_loop):
        plant, net, _ = scalar_loop
        trace, _ = monte_carlo_attack(plant, net, 0.1, 100, seed=3, mode="rademacher")
        assert np.all(np.isin(trace.w, (-0.1, 0.1)))

    def test_designed_beats_monte_carlo_on_cartpole(self, cartpole, cloned_policy, kd):
        # same amplitude and step budget; the designed sequence must win big
        w_level = 0.005
        horizon = 2500
        gain = neural.jacobian_at(cloned_policy, np.zeros(4))
        maps = linsys.close_loop(cartpole, gain)
        plan = design_attack(maps, 2, horizon, w_inf=w_level)
        designed = simulate(cartpole, cloned_policy, plan, horizon).max_abs("x")[2]
        mc_best = max(
            monte_carlo_attack(cartpole, cloned_policy, w_level, horizon, seed=s)[1].max_abs[2]
            for s in range(3))
        assert designed >= 2.0 * mc_best


class TestViolationLevel:
    def test_scalar_threshold(self, scalar_loop):
        plant, net, maps = scalar_loop
        # achieved deviation is w/0.7 at long horizons, so the minimal
        # violating amplitude for limit L approaches 0.7 L
        level = attack.violation_level(plant, net, maps, 0, 200, 0.1, tol=1e-4)
        assert level == pytest.approx(0.07, rel=1e-2)


class TestFiles:
    def test_plan_round_trip(self, tmp_path, scalar_loop):
        _, _, maps = scalar_loop
        plan = design_attack(maps, 0, 25, w_inf=0.3)
        path = tmp_path / "plan.json"
        save_plan(path, plan)
        loaded = load_plan(path)
        assert loaded.target == plan.target
        assert loaded.horizon == plan.horizon
        assert loaded.w_inf == plan.w_inf
        np.testing.assert_array_equal(loaded.signs, plan.signs)

    def test_trace_csv(self, tmp_path, scalar_loop):
        plant, net, _ = scalar_loop
        trace, _ = monte_carlo_attack(plant, net, 0.1, 20, seed=4)
        path = tmp_path / "trace.csv"
        save_trace(path, trace, "units: radians")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "# units: radians"
        assert lines[1] == "t,w_1,x_1,y_1,u_1"
        assert len(lines) == 22
        cells = lines[2].split(",")
        assert float(cells[2]) == trace.x[0, 0]


class TestPlanSignal:
    def test_zero_padding_past_horizon(self, scalar_loop):
        _, _, maps = scalar_loop
        plan = design_attack(maps, 0, 10, w_inf=0.5)
        signal = plan.signal(15)
        assert signal.shape == (15, 1)
        assert np.array_equal(signal[10:], np.zeros((5, 1)))
        assert np.max(np.abs(signal)) <= 0.5

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            AttackPlan(signs=np.array([[0.5]]), w_inf=1.0, target=0, horizon=1)
