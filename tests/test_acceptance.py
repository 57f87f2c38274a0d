"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import contextlib

import numpy as np
import pytest

from loopcert import attack, certify, linsys, neural, sysid
from loopcert.certify import algorithm1, check_theorem1, constructive_quadruplet
from loopcert.cli import EXIT_NEGATIVE, main
from loopcert.plant import CartPoleParams
from loopcert.policysynth import dare_solve
from loopcert.sysid import NonlinearPlant

from conftest import (
    fresh_draw_gain,
    linear_policy,
    random_relu_net,
    random_stable_plant,
    scalar_plant,
    valid_small_gains,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

# reference configuration shared by the cart-pole criteria
SWEEP = (0.001, 0.002, 0.003, 0.005, 0.008)
TARGET = 2          # pole angle
TOL = 1e-3          # frontier bisection, relative
REFERENCE_X_LIM = 0.005


@contextlib.contextmanager
def _report(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{label}]: PASS")


def test_criterion_1_invariant_set_dominates_small_gain(cartpole, cloned_policy, kd):
    with _report(1, "small-gain dominance"):
        # (a) whenever the small-gain conditions certify a random loop, the
        # closed-form box exists and passes the invariant feedback check
        rng = np.random.default_rng(1234)
        for _ in range(100):
            plant = random_stable_plant(rng)
            maps = linsys.close_loop(plant, np.zeros((plant.m, plant.r)))
            gamma_pi, gamma_delta = valid_small_gains(maps, rng)
            w_inf = float(rng.uniform(0.01, 2.0))
            quad = constructive_quadruplet(maps, gamma_pi, gamma_delta, w_inf)
            holds, _ = check_theorem1(maps, quad, np.full(plant.p, w_inf))
            assert holds

        # (b) on the cart-pole with the cloned policy the certified frontier
        # dominates the baseline frontier at every sweep point and is
        # strictly better somewhere
        fr = certify.frontier(cartpole, cloned_policy, kd, x_lim_values=SWEEP,
                              tol=TOL, target_state=TARGET)
        base = certify.baseline_frontier(cartpole, cloned_policy, kd,
                                         x_lim_values=SWEEP, tol=TOL,
                                         target_state=TARGET)
        ratios = []
        for (x_lim, w_cert), (_, w_base) in zip(fr, base):
            assert w_cert > 0.0
            assert w_cert >= w_base * (1.0 - 2.0 * TOL)
            if w_base > 0:
                ratios.append(w_cert / w_base)
        assert max(ratios) > 1.0 + 2.0 * TOL


@pytest.fixture(scope="module")
def certified_fixtures(cartpole, cloned_policy, kd):
    """Certified (plant, policy, quantization, w_inf, result) tuples."""
    fixtures = []
    scalar = scalar_plant()
    fixtures.append(("scalar", scalar, linear_policy(-0.2), None,
                     0.1, algorithm1(scalar, linear_policy(-0.2))))
    limited = certify.with_state_limit(cartpole, TARGET, REFERENCE_X_LIM)
    fixtures.append(("cartpole-clone", limited, cloned_policy, None, 0.001,
                     algorithm1(limited, cloned_policy, kd, w_inf=0.001)))
    quant = neural.QuantizationSpec(0.1)
    wide = certify.with_state_limit(cartpole, TARGET, 0.5)
    fixtures.append(("cartpole-quantized", wide, cloned_policy, quant, 2e-4,
                     algorithm1(wide, cloned_policy, kd, quantization=quant,
                                w_inf=2e-4)))
    for name, *_, result in fixtures:
        assert result.success, f"fixture {name} failed to certify"
    return fixtures


def test_criterion_2_certified_bounds_contain_all_attacks(certified_fixtures):
    with _report(2, "invariant-set soundness"):
        slack = 1e-6
        for name, plant, net, quant, w_inf, result in certified_fixtures:
            quad = result.quadruplet
            maps = linsys.close_loop(plant, result.gain)
            plan = attack.design_attack(maps, TARGET if plant.n > 1 else 0,
                                        2500, w_inf=w_inf)
            trace = attack.simulate(plant, net, plan, 2500, quantization=quant)
            assert np.all(trace.max_abs("x") <= quad.x_bar + slack), name
            assert np.all(trace.max_abs("y") <= quad.y_bar + slack), name
            assert np.all(trace.max_abs("u") <= quad.u_bar + slack), name
            # the five Monte-Carlo seeds run as one batch of five rollouts
            w = np.stack([np.random.default_rng(seed).uniform(-w_inf, w_inf,
                                                              size=(100_000, plant.p))
                          for seed in range(5)])
            mc = attack.simulate(plant, net, w, 100_000, quantization=quant)
            assert np.all(mc.max_abs("x") <= quad.x_bar + slack), name
            assert np.all(mc.max_abs("y") <= quad.y_bar + slack), name
            assert np.all(mc.max_abs("u") <= quad.u_bar + slack), name


def test_criterion_3_designed_attack_beats_monte_carlo(cartpole, cloned_policy):
    with _report(3, "attack effectiveness"):
        w_level, horizon = 0.005, 2500
        gain = neural.jacobian_at(cloned_policy, np.zeros(4))
        maps = linsys.close_loop(cartpole, gain)
        plan = attack.design_attack(maps, TARGET, horizon, w_inf=w_level)
        designed = attack.simulate(cartpole, cloned_policy, plan,
                                   horizon).max_abs("x")[TARGET]
        mc_best = max(
            attack.monte_carlo_attack(cartpole, cloned_policy, w_level, horizon,
                                      seed=seed)[1].max_abs[TARGET]
            for seed in range(5))
        assert designed >= 2.0 * mc_best


def test_criterion_4_analytic_oracles(cartpole):
    with _report(4, "analytic oracles"):
        phi = linsys.impulse_response([[0.5]], [[1.0]], [[1.0]], [[0.0]])
        assert abs(linsys.l1_norm(phi) - 2.0) <= 1e-6
        assert abs(linsys.hinf_norm([[0.5]], [[1.0]], [[1.0]], [[0.0]]) - 2.0) <= 1e-3
        p, _ = dare_solve([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert abs(p[0, 0] - GOLDEN) <= 1e-9
        params = CartPoleParams()
        denom = 4 * params.masscart + params.masspole
        assert abs(cartpole.a[1, 2]
                   - (-3 * params.masspole * params.g * params.tau / denom)) <= 1e-12
        assert abs(cartpole.a[3, 2]
                   - 3 * (params.masscart + params.masspole) * params.g * params.tau
                   / (denom * params.length)) <= 1e-12
        assert abs(cartpole.b[1, 0] - 4 * params.tau / denom) <= 1e-12
        assert abs(cartpole.b[3, 0] - (-3 * params.tau / (denom * params.length))) <= 1e-12


def test_criterion_5_relaxation_soundness_corpus():
    with _report(5, "relaxation soundness"):
        rng = np.random.default_rng(0)
        for _ in range(50):
            net = random_relu_net(rng)
            d = net.input_dim
            center = rng.normal(size=d) * 0.5
            radius = rng.uniform(0.05, 1.5, size=d)
            box = neural.Box(center, radius)
            lb = neural.linear_relaxation(net, box)
            ys = rng.uniform(box.center - box.radius, box.center + box.radius,
                             size=(10_000, d))
            outs = neural.evaluate(net, ys)
            upper = ys @ lb.k_u.T + lb.b_u
            lower = ys @ lb.k_l.T + lb.b_l
            assert not np.any(outs > upper + 1e-9)
            assert not np.any(outs < lower - 1e-9)
            # interval dominance on the certified magnitude bound
            relaxed = neural.magnitude_bound(*neural.concretize(lb, box))
            _, (olo, ohi) = neural.interval_bounds(net, box)
            assert np.all(relaxed <= neural.magnitude_bound(olo, ohi) + 1e-9)
            # box monotonicity across nested shrinks
            prev = relaxed
            for factor in (0.5, 0.25):
                small = neural.Box(center, radius * factor)
                cur = neural.magnitude_bound(
                    *neural.concretize(neural.linear_relaxation(net, small), small))
                assert np.all(cur <= prev + 1e-9)
                prev = cur


def test_criterion_6_learned_model_pipeline(cartpole, cartpole_nl, cloned_policy, kd):
    with _report(6, "learned-model pipeline"):
        # noiseless linear recovery
        toy = NonlinearPlant(step=lambda x, u: np.array([0.9 * x[0] + 0.5 * u[0]]),
                             c=np.eye(1), d_w=np.zeros((1, 1)), b_w=np.zeros((1, 1)))
        a_fit, b_fit = sysid.least_squares_fit(sysid.collect(toy, 5, ep_len=10, seed=0))
        assert abs(a_fit[0, 0] - 0.9) <= 1e-10
        assert abs(b_fit[0, 0] - 0.5) <= 1e-10

        # error boxes tighten with more data (above the float-noise floor of
        # the exactly-fitted integrator rows)
        floor = 1e-9
        m10 = sysid.bootstrap_uncertainty(
            sysid.collect(cartpole_nl, 10, u_amplitude=0.5, seed=1), seed=1)
        m100 = sysid.bootstrap_uncertainty(
            sysid.collect(cartpole_nl, 100, u_amplitude=0.5, seed=1), seed=1)
        assert np.all((m100.delta_a <= m10.delta_a) | (m10.delta_a < floor))
        assert np.all((m100.delta_b <= m10.delta_b) | (m10.delta_b < floor))

        # certification on the learned model: positive level, below but within
        # 50% of the true-model frontier at the reference limit
        w_true = certify.frontier(cartpole, cloned_policy, kd,
                                  x_lim_values=[REFERENCE_X_LIM], tol=TOL,
                                  target_state=TARGET)[0][1]
        learned = sysid.uncertain_plant(m100, c=cartpole_nl.c, d_w=cartpole_nl.d_w,
                                        b_w=cartpole_nl.b_w)
        limited = certify.with_state_limit(learned, TARGET, REFERENCE_X_LIM)

        def certifies(w):
            return algorithm1(limited, cloned_policy, kd, m100.gamma_delta,
                              w_inf=w).success

        w_learned = certify.bisect_max_level(certifies, TOL)
        assert w_learned > 0.0
        assert w_learned <= w_true * (1.0 + 2.0 * TOL)
        assert w_learned >= 0.5 * w_true


def test_criterion_7_non_lipschitz_policy(cartpole, cloned_policy, kd, tmp_path):
    with _report(7, "non-Lipschitz certification"):
        quant = neural.QuantizationSpec(0.1)
        gain = neural.jacobian_at(cloned_policy, np.zeros(4))

        # the residual gain diverges as the box shrinks: the sampled lower
        # bound of the test-side oracle already does
        gains = [fresh_draw_gain(cloned_policy, gain, radius, 4096, seed=2,
                                 quantization=quant)
                 for radius in (0.1, 0.01, 0.001)]
        assert gains[0] < gains[1] < gains[2]
        assert gains[2] > 10.0

        # the baseline front end reports the negative answer
        policy_path = tmp_path / "quantized.json"
        neural.save_policy(policy_path, cloned_policy, quant)
        lqr_path = tmp_path / "lqr.json"
        assert main(["lqr", "--plant", "cartpole", "--out", str(lqr_path)]) == 0
        code = main(["baseline", "--plant", "cartpole", "--policy", str(policy_path),
                     "--kd", str(lqr_path), "--w-inf", "2e-4", "--x-lim", "0.5",
                     "--target-state", str(TARGET),
                     "--out", str(tmp_path / "baseline.json")])
        assert code == EXIT_NEGATIVE

        # while the invariant-set engine still certifies a positive level
        wide = certify.with_state_limit(cartpole, TARGET, 0.5)
        result = algorithm1(wide, cloned_policy, kd, quantization=quant, w_inf=2e-4)
        assert result.success
        assert result.quadruplet.x_bar[TARGET] <= 0.5
