"""Certification engine against hand-derived scalar closed forms."""

import copy
import dataclasses
import warnings

import numpy as np
import pytest

from loopcert import attack, certify, linsys, neural
from loopcert.certify import (
    BaselineResult,
    Quadruplet,
    algorithm1,
    baseline_certify,
    baseline_frontier,
    check_lemma1,
    check_theorem1,
    constructive_quadruplet,
    frontier,
)
from loopcert.plant import NonlinearPlant

from conftest import (
    fresh_draw_gain,
    linear_policy,
    random_relu_net,
    random_stable_plant,
    run_in_threads,
    scalar_plant,
    threshold_cases,
    valid_small_gains,
)


@pytest.fixture(scope="module")
def scalar_maps():
    return linsys.close_loop(scalar_plant(), np.zeros((1, 1)))


class TestCheckTheorem1:
    def test_zero_everything(self, scalar_maps):
        quad = Quadruplet(y_bar=[0.0], u_bar=[0.0], alpha_bar=np.zeros(0),
                          delta_bar=np.zeros(0))
        holds, x_bar = check_theorem1(scalar_maps, quad, [0.0])
        assert holds
        assert x_bar == pytest.approx([0.0])

    def test_hand_inequality(self, scalar_maps):
        # abs maps are 2, so 2*0.1 + 2*0.4*y <= y iff y >= 1
        quad = Quadruplet(y_bar=[1.0], u_bar=[0.4], alpha_bar=np.zeros(0),
                          delta_bar=np.zeros(0))
        assert check_theorem1(scalar_maps, quad, [0.1])[0]

    def test_violating_box(self, scalar_maps):
        quad = Quadruplet(y_bar=[0.5], u_bar=[0.2], alpha_bar=np.zeros(0),
                          delta_bar=np.zeros(0))
        assert not check_theorem1(scalar_maps, quad, [0.1])[0]


class TestCheckLemma1:
    def test_certified_scalar(self, scalar_maps):
        result = check_lemma1(scalar_maps, 0.4, 0.0, 0.1, 1.0)
        assert result.beta1 == 0.0
        assert result.beta2 == pytest.approx(0.8, abs=1e-9)
        assert result.y_inf_implied == pytest.approx(1.0, abs=1e-9)
        assert result.certified

    def test_policy_gain_too_large(self, scalar_maps):
        result = check_lemma1(scalar_maps, 0.6, 0.0, 0.1, 1.0)
        assert result.beta2 == pytest.approx(1.2, abs=1e-9)
        assert not result.certified

    def test_huge_uncertainty_gain(self):
        plant = linsys.make_plant([[0.5]], [[1.0]], b_w=[[1.0]], b_delta=[[1.0]],
                                  c_alpha=[[1.0]])
        maps = linsys.close_loop(plant, np.zeros((1, 1)))
        result = check_lemma1(maps, 0.0, 1e9, 0.1, 1.0)
        assert result.beta1 >= 1.0
        assert not result.certified  # beta1 fails even with a perfect policy


class TestConstructiveQuadruplet:
    def test_scalar_closed_form(self, scalar_maps):
        quad = constructive_quadruplet(scalar_maps, 0.4, 0.0, 0.1)
        # y_ref = ||Phi_yw|| w / (1 - beta2) = 2*0.1/0.2 = 1
        assert quad.y_bar == pytest.approx([1.0], rel=1e-8)
        assert quad.u_bar == pytest.approx([0.4], rel=1e-8)

    def test_zero_amplitude(self, scalar_maps):
        quad = constructive_quadruplet(scalar_maps, 0.4, 0.0, 0.0)
        assert np.array_equal(quad.y_bar, [0.0])
        assert np.array_equal(quad.u_bar, [0.0])

    def test_rejects_failed_conditions(self, scalar_maps):
        with pytest.raises(ValueError):
            constructive_quadruplet(scalar_maps, 0.6, 0.0, 0.1)

    def test_always_passes_feedback_check(self):
        # the closed-form box satisfies the invariant condition on random
        # stable systems with admissible gains; zero counterexamples
        rng = np.random.default_rng(2024)
        for _ in range(100):
            plant = random_stable_plant(rng)
            maps = linsys.close_loop(plant, np.zeros((plant.m, plant.r)))
            gamma_pi, gamma_delta = valid_small_gains(maps, rng)
            w_inf = float(rng.uniform(0.01, 2.0))
            quad = constructive_quadruplet(maps, gamma_pi, gamma_delta, w_inf)
            holds, _ = check_theorem1(maps, quad, np.full(plant.p, w_inf))
            assert holds


class TestAlgorithm1:
    def test_scalar_linear_policy_closed_form(self):
        result = algorithm1(scalar_plant(), linear_policy(-0.2))
        assert result.success
        assert result.iterations <= 3
        quad = result.quadruplet
        assert quad.y_bar == pytest.approx([0.1 / 0.7], rel=1e-5)
        assert quad.x_bar == pytest.approx([0.1 / 0.7], rel=1e-5)
        assert quad.u_bar == pytest.approx([0.2 * 0.1 / 0.7], rel=1e-5)

    def test_zero_amplitude_zero_policy(self):
        result = algorithm1(scalar_plant(w_inf=0.0), linear_policy(-0.2))
        assert result.success and result.iterations == 1
        assert np.array_equal(result.quadruplet.y_bar, [0.0])

    def test_tight_limit_fails(self):
        plant = scalar_plant(x_lim=[0.14])
        result = algorithm1(plant, linear_policy(-0.2))
        assert not result.success
        assert result.failure_reason == certify.CONSTRAINT_VIOLATED

    def test_no_stabilizing_gain(self):
        plant = linsys.make_plant([[1.2]], [[1.0]], b_w=[[1.0]], w_inf=0.1)
        result = algorithm1(plant, linear_policy(0.0))  # zero gain cannot stabilize
        assert not result.success
        assert result.failure_reason == certify.NO_STABILIZING_GAIN

    def test_unstable_plant_with_default_gain(self):
        plant = linsys.make_plant([[1.2]], [[1.0]], b_w=[[1.0]], w_inf=0.1)
        result = algorithm1(plant, linear_policy(-0.9))
        assert result.success
        # a_cl = 0.3, residual 0: y_bar = w/(1-0.3)
        assert result.quadruplet.y_bar == pytest.approx([0.1 / 0.7], rel=1e-5)

    def test_overflowing_bounds_return_a_verdict(self):
        # a policy gain of 1e30 multiplies the y bound by about 1e30 a pass,
        # so the bounds overflow long before the 200-pass budget is spent:
        # behind a ReLU the relaxation over the box overflows first (pass 7),
        # a linear policy's reference box itself (pass 12); the verdict
        # reports the overflow, so numpy warns about none of it
        plant = linsys.make_plant([[0.5]], [[1.0]], b_w=[[1.0]], w_inf=0.1)
        for layers, passes in (([([[1e30]], [0.0]), ([[1.0]], [0.0])], 7),
                               ([([[1e30]], [0.0])], 12)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = algorithm1(plant, neural.mlp(layers))
            assert caught == []
            assert not result.success and result.quadruplet is None
            assert result.failure_reason == certify.NON_FINITE_BOUNDS
            assert result.iterations == passes

    def test_slow_search_runs_on_to_a_certificate(self):
        # seed 77 of the random corpus converges slowly: every amplitude
        # certifies only after 135-155 passes, so no early exit may stop it.
        # The box is invariant: with the residual policy bound over y_bar
        # (what feeds the maps; the result's u_bar bounds the full policy)
        # it passes the feedback check on the loop closed at the result's gain
        rng = np.random.default_rng(77)
        plant = random_stable_plant(rng, with_uncertainty=True)
        net = random_relu_net(rng, d_in=plant.r, d_out=plant.m)
        gamma_delta = 0.1 * np.abs(rng.normal(size=(plant.q, plant.s)))
        for w, passes in zip((0.01, 0.05, 0.2, 1.0, 5.0), (155, 153, 149, 142, 135)):
            result = algorithm1(plant, net, gamma_delta=gamma_delta, w_inf=w)
            assert result.success and result.failure_reason is None
            assert result.iterations == passes
            quad = result.quadruplet
            box = neural.Box(np.zeros(plant.r), quad.y_bar)
            u0_bar, _ = neural.residual_magnitudes(neural.linear_relaxation(net, box), box,
                                                   result.gain)
            holds, x_bar = check_theorem1(linsys.close_loop(plant, result.gain),
                                          dataclasses.replace(quad, u_bar=u0_bar),
                                          np.full(plant.p, w))
            assert holds and np.all(x_bar <= quad.x_bar)

    def test_pass_budget_reports_max_iter_exceeded(self, monkeypatch):
        # the seed-77 search needs 155 passes at w 0.01; a budget of 10 ends
        # it with the budget verdict after exactly 10 passes
        rng = np.random.default_rng(77)
        plant = random_stable_plant(rng, with_uncertainty=True)
        net = random_relu_net(rng, d_in=plant.r, d_out=plant.m)
        gamma_delta = 0.1 * np.abs(rng.normal(size=(plant.q, plant.s)))
        monkeypatch.setattr(certify, "_MAX_PASSES", 10)
        short = algorithm1(plant, net, gamma_delta=gamma_delta, w_inf=0.01)
        assert not short.success and short.quadruplet is None
        assert short.failure_reason == certify.MAX_ITER_EXCEEDED == "MaxIterExceeded"
        assert short.iterations == 10

    def test_loop_that_does_not_decay_within_the_term_cap_fails_its_candidate(
            self, monkeypatch):
        # with the cap at 32 terms (4 chunks) the policy's own loop, a_cl =
        # 0.6, needs 6 chunks and the k_d loop, a_cl = 0.3, needs 3: the
        # slow loop fails alone in its stack, and the gain search moves on
        _empty_memo(monkeypatch)
        monkeypatch.setattr(linsys, "_MAX_TRUNC_TERMS", 32)
        plant, k_d = scalar_plant(), np.array([[-0.2]])
        slow, *closed = linsys.close_loops(plant, np.array([[[0.1]], k_d, [[0.0]]]))
        assert isinstance(slow, linsys.NotSchurStable) and "did not decay" in str(slow)
        for k, got in zip((k_d, [[0.0]]), closed):
            want = linsys.close_loop(plant, k)
            assert got.abs_stack.tobytes() == want.abs_stack.tobytes()
            assert got.tail_bound == want.tail_bound
        result = algorithm1(plant, linear_policy(0.1), k_d)
        assert result.success
        np.testing.assert_array_equal(result.gain, k_d)
        # the residual 0.3 y through 1 / 0.7 leaves the policy's own bound
        assert result.quadruplet.x_bar == pytest.approx([0.1 / 0.4], rel=1e-5)

    def test_default_gain_is_checked_before_any_search(self):
        # the policy's Jacobian closes the loop, so no search would close it
        # on k_d
        for k_d, message in (([[-0.2, 0.0]], r"k_d has shape \(1, 2\), expected \(1, 1\)"),
                             ([[np.nan]], "k_d contains non-finite entries")):
            with pytest.raises(ValueError, match=message):
                algorithm1(scalar_plant(), linear_policy(-0.2), k_d)

    def test_uncertainty_feedback(self):
        # scalar with alpha = x, delta feeding the state: gamma scales the box
        plant = linsys.make_plant([[0.5]], [[1.0]], b_w=[[1.0]], b_delta=[[1.0]],
                                  c_alpha=[[1.0]], w_inf=0.1)
        gamma = np.array([[0.1]])
        result = algorithm1(plant, linear_policy(-0.2), gamma_delta=gamma)
        assert result.success
        # closed-loop abs maps are 1/0.7, so the fixed point solves
        # alpha = (0.1 + 0.1 alpha)/0.7, i.e. alpha* = 1/6
        assert result.quadruplet.y_bar == pytest.approx([1.0 / 6.0], rel=1e-4)
        no_unc = algorithm1(plant, linear_policy(-0.2))
        assert result.quadruplet.y_bar[0] > no_unc.quadruplet.y_bar[0]

    def test_bit_identical_reruns(self, cartpole, cloned_policy, kd):
        plant = certify.with_state_limit(cartpole, 2, 0.005)
        first = algorithm1(plant, cloned_policy, kd, w_inf=0.001)
        second = algorithm1(plant, cloned_policy, kd, w_inf=0.001)
        assert first.success and second.success
        assert first.iterations == second.iterations
        for name in ("y_bar", "u_bar", "alpha_bar", "delta_bar", "x_bar"):
            np.testing.assert_array_equal(getattr(first.quadruplet, name),
                                          getattr(second.quadruplet, name))

    def test_one_relaxation_per_pass(self, cartpole, cloned_policy, kd, monkeypatch):
        calls = []
        relax = neural.linear_relaxation

        def counting(net, box):
            calls.append(box)
            return relax(net, box)

        monkeypatch.setattr(neural, "linear_relaxation", counting)
        relu = neural.mlp([(np.array([[1.0]]), np.array([0.0])),
                           (np.array([[-0.2]]), np.array([0.0]))])
        runs = [(scalar_plant(w_inf=0.05), relu, None, 0.05),
                (certify.with_state_limit(cartpole, 2, 0.005), cloned_policy, kd, 0.001)]
        for plant, net, k_d, w_inf in runs:
            calls.clear()
            result = algorithm1(plant, net, k_d, w_inf=w_inf)
            assert result.success
            # the first pass starts from the degenerate box and relaxes nothing
            assert 0 < len(calls) <= result.iterations - 1

    def test_result_serialization(self):
        result = algorithm1(scalar_plant(), linear_policy(-0.2))
        obj = result.to_dict()
        assert obj["success"] is True
        assert obj["failure_reason"] is None
        assert len(obj["x_bar"]) == 1


class TestSoundnessProperty:
    def test_attacks_stay_inside_certified_boxes(self):
        # every success on random plants and nets bounds a designed attack on
        # each state and a Rademacher attack, up to float rounding
        successes = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            plant = random_stable_plant(rng, with_uncertainty=False)
            net = random_relu_net(rng, d_in=plant.r, d_out=plant.m)
            w_inf = float(rng.uniform(0.01, 0.2))
            result = algorithm1(plant, net, w_inf=w_inf)
            if not result.success:
                continue
            successes += 1
            quad = result.quadruplet
            maps = linsys.close_loop(plant, result.gain)
            traces = [attack.simulate(plant, net, attack.design_attack(maps, i, 300, w_inf), 300)
                      for i in range(plant.n)]
            traces.append(attack.monte_carlo_attack(plant, net, w_inf, 300, seed=seed,
                                                    mode="rademacher")[0])
            for trace in traces:
                for signal, bar in (("x", quad.x_bar), ("y", quad.y_bar), ("u", quad.u_bar)):
                    assert np.all(trace.max_abs(signal) <= bar * (1 + 1e-9) + 1e-15), \
                        (seed, signal)
        assert successes >= 10

    def test_uncertain_loops_stay_inside_certified_boxes(self):
        # Theorem 1 covers every admissible uncertainty, and a static Delta
        # with |Delta| <= Gamma_Delta elementwise is one (|delta| = |Delta
        # alpha| <= Gamma_Delta |alpha|).  It folds into a plain plant, which
        # the simulator steps: Delta = 0 and three sign vertices +-Gamma_Delta
        # per certificate, each with designed attacks on every state (on the
        # perturbed loop's own maps where that loop closes) and a Rademacher
        # run.  Seeds 0-59 give 10 certificates and 124 traces.
        successes = traces_checked = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            plant = random_stable_plant(rng, with_uncertainty=True)
            net = random_relu_net(rng, d_in=plant.r, d_out=plant.m)
            w_inf = float(rng.uniform(0.01, 0.2))
            gamma = 0.1 * np.abs(rng.normal(size=(plant.q, plant.s)))
            result = algorithm1(plant, net, gamma_delta=gamma, w_inf=w_inf)
            if not result.success:
                continue
            successes += 1
            quad = result.quadruplet
            deltas = [np.zeros_like(gamma)] + [
                gamma * rng.choice((-1.0, 1.0), size=gamma.shape) for _ in range(3)]
            for delta in deltas:
                perturbed = _fold_delta(plant, delta)
                traces = [attack.monte_carlo_attack(perturbed, net, w_inf, 300, seed=seed,
                                                    mode="rademacher")[0]]
                try:
                    maps = linsys.close_loop(perturbed, result.gain)
                except linsys.NotSchurStable:
                    pass  # no designed attack where the perturbed loop does not close
                else:
                    traces += [attack.simulate(perturbed, net,
                                               attack.design_attack(maps, i, 300, w_inf), 300)
                               for i in range(plant.n)]
                for trace in traces:
                    for signal, bar in (("x", quad.x_bar), ("y", quad.y_bar),
                                        ("u", quad.u_bar)):
                        assert np.all(trace.max_abs(signal) <= bar * (1 + 1e-9) + 1e-15), \
                            (seed, signal)
                traces_checked += len(traces)
        assert successes >= 8 and traces_checked >= 100

    def test_learned_cartpole_stays_inside_certified_boxes(self, learned_cartpole,
                                                            cloned_policy, kd):
        # the same on criterion 6's learned cart-pole at its bootstrap
        # Gamma_Delta: two certified points, each under Delta = 0, +-Gamma_Delta
        # and two random sign patterns, with designed attacks on every state
        # (on the perturbed loop's own maps) and a Rademacher run: 50 traces
        plant, gamma = learned_cartpole
        rng = np.random.default_rng(0)
        deltas = [np.zeros_like(gamma), gamma, -gamma] + [
            gamma * rng.choice((-1.0, 1.0), size=gamma.shape) for _ in range(2)]
        horizon = 2500
        for x_lim, w_inf in ((0.005, 5e-4), (0.01, 1e-3)):
            limited = certify.with_state_limit(plant, 2, x_lim)
            result = algorithm1(limited, cloned_policy, kd, gamma, w_inf=w_inf)
            assert result.success, x_lim
            quad = result.quadruplet
            for k, delta in enumerate(deltas):
                perturbed = _fold_delta(limited, delta)
                maps = linsys.close_loop(perturbed, result.gain)
                traces = [attack.simulate(perturbed, cloned_policy,
                                          attack.design_attack(maps, i, horizon, w_inf), horizon)
                          for i in range(plant.n)]
                traces.append(attack.monte_carlo_attack(perturbed, cloned_policy, w_inf, horizon,
                                                        seed=k, mode="rademacher")[0])
                for trace in traces:
                    for signal, bar in (("x", quad.x_bar), ("y", quad.y_bar),
                                        ("u", quad.u_bar)):
                        assert np.all(trace.max_abs(signal) <= bar * (1 + 1e-9)), \
                            (x_lim, k, signal)

    def test_learned_cartpole_under_time_varying_delta(self, learned_cartpole,
                                                       cloned_policy, kd):
        # Theorem 1 covers a Delta_t that changes every step.  The learned
        # plant has D_alpha_w = 0, so alpha_t = C_alpha x + D_alpha_u u and a
        # nonlinear plant stepping A0 x + B0 u + B_delta Delta_t alpha_t carries
        # its whole uncertainty path.  Each trace draws its own seeded schedule
        # of +-Gamma_Delta sign patterns, one a step.  The same two certified
        # points, designed attacks from the nominal maps on every state and a
        # Rademacher run: 10 traces
        plant, gamma = learned_cartpole
        assert not np.any(plant.d_alpha_w)
        rng = np.random.default_rng(1)
        horizon = 2500
        for x_lim, w_inf in ((0.005, 5e-4), (0.01, 1e-3)):
            limited = certify.with_state_limit(plant, 2, x_lim)
            result = algorithm1(limited, cloned_policy, kd, gamma, w_inf=w_inf)
            assert result.success, x_lim
            quad = result.quadruplet
            maps = linsys.close_loop(limited, result.gain)
            traces = [attack.simulate(_scheduled_delta(limited, gamma, horizon, rng),
                                      cloned_policy,
                                      attack.design_attack(maps, i, horizon, w_inf), horizon)
                      for i in range(plant.n)]
            traces.append(attack.monte_carlo_attack(
                _scheduled_delta(limited, gamma, horizon, rng), cloned_policy, w_inf, horizon,
                seed=0, mode="rademacher")[0])
            for k, trace in enumerate(traces):
                for signal, bar in (("x", quad.x_bar), ("y", quad.y_bar), ("u", quad.u_bar)):
                    assert np.all(trace.max_abs(signal) <= bar * (1 + 1e-9)), \
                        (x_lim, k, signal)


def _scheduled_delta(plant, gamma, steps, rng):
    """``plant`` as a nonlinear plant under a time-varying uncertainty: step
    t applies ``Delta_t = gamma * S_t``, with ``S_t`` a sign pattern drawn
    from ``rng``, to ``alpha_t = C_alpha x + D_alpha_u u``."""
    deltas = iter(gamma * rng.choice((-1.0, 1.0), size=(steps, *gamma.shape)))

    def step(x, u):
        alpha = plant.c_alpha @ x + plant.d_alpha_u @ u
        return plant.a @ x + plant.b @ u + plant.b_delta @ (next(deltas) @ alpha)

    return NonlinearPlant(step=step, c=plant.c, d_w=plant.d_w, b_w=plant.b_w)


def _fold_delta(plant, delta):
    """The plant with the static uncertainty ``delta`` closed into it:
    ``delta_t = Delta alpha_t`` folds into A, B and B_w, and the uncertainty
    channel goes."""
    tap = plant.b_delta @ delta
    return dataclasses.replace(
        plant, a=plant.a + tap @ plant.c_alpha, b=plant.b + tap @ plant.d_alpha_u,
        b_w=plant.b_w + tap @ plant.d_alpha_w, b_delta=np.zeros((plant.n, 0)),
        c_alpha=np.zeros((0, plant.n)), d_alpha_u=np.zeros((0, plant.m)),
        d_alpha_w=np.zeros((0, plant.p)))


def _empty_memo(monkeypatch, size=64):
    """Certify's closed-loop memo, emptied and holding at most ``size`` entries."""
    monkeypatch.setattr(certify, "_closures", {})
    monkeypatch.setattr(certify, "_CLOSURES_MAX", size)


class TestMapsCache:
    def test_concurrent_get_matches_close_loop(self, monkeypatch):
        # the last gain leaves a_cl = 1.1: its entry holds the failure, which
        # every thread gets back as the serial call gives it
        plant = scalar_plant()
        gains = [np.array([[-0.1 * (i + 1)]]) for i in range(5)] + [np.array([[0.6]])]
        expected = [linsys.close_loop(plant, k) for k in gains[:-1]]
        expected += linsys.close_loops(plant, np.stack(gains[-1:]))
        assert isinstance(expected[-1], linsys.NotSchurStable)
        _empty_memo(monkeypatch, size=2)

        def same(maps, want):
            if isinstance(want, linsys.NotSchurStable):
                return isinstance(maps, linsys.NotSchurStable) and str(maps) == str(want)
            return (np.array_equal(maps.a_cl, want.a_cl)
                    and np.array_equal(maps.abs_stack, want.abs_stack))

        def mismatches(offset):
            bad = []
            for i in range(100):
                j = (i + offset) % len(gains)
                if not same(certify._closed_loops(plant, [gains[j]])[0], expected[j]):
                    bad.append(j)
            return bad

        assert mismatches(0) == []
        assert run_in_threads(mismatches, timeout=120) == [[]] * 4
        assert len(certify._closures) <= 2

    def test_a_loop_that_fails_to_close_is_closed_once(self, monkeypatch):
        # the policy's own gain leaves a_cl = 0.999999, a loop marched to the
        # 2,000,000-term cap before it fails; the midpoint equals the Jacobian
        # bit for bit, so with the failure held in the memo each of the two
        # gains is closed once in the 200 passes, not on every pass
        _empty_memo(monkeypatch)
        closed = []

        def spy(plant, gains):
            closed.extend(k.tobytes() for k in gains)
            return linsys.close_loops(plant, gains)

        monkeypatch.setattr(certify, "close_loops", spy)
        own, k_d = np.array([[0.499999]]), np.array([[-0.2]])
        result = algorithm1(scalar_plant(), linear_policy(0.499999), k_d)
        assert result.failure_reason == certify.MAX_ITER_EXCEEDED
        assert result.iterations == 200
        assert sorted(closed) == sorted([own.tobytes(), k_d.tobytes()])
        failure = certify._closures[certify._loop_keys(scalar_plant(), [own])[0]]
        assert isinstance(failure, linsys.NotSchurStable)


    def test_key_covers_the_whole_realization(self, monkeypatch):
        # one changed entry in any of the nine matrices is another loop: its
        # key differs and the memo closes it afresh instead of handing back
        # the cached maps
        plant = random_stable_plant(np.random.default_rng(5), with_uncertainty=True)
        k = np.zeros((plant.m, plant.r))
        fields = ("a_cl", "bc", "cc", "dc", "abs_stack")
        _empty_memo(monkeypatch)
        cached = certify._closed_loops(plant, [k])[0]
        for name in ("a", "b", "b_w", "b_delta", "c", "d_w", "c_alpha", "d_alpha_u",
                     "d_alpha_w"):
            matrix = getattr(plant, name).copy()
            matrix[-1, -1] += 1e-3
            perturbed = dataclasses.replace(plant, **{name: matrix})
            assert certify._loop_keys(perturbed, [k]) != certify._loop_keys(plant, [k]), name
            maps = certify._closed_loops(perturbed, [k])[0]
            fresh = linsys.close_loop(perturbed, k)
            assert all(np.array_equal(getattr(maps, f), getattr(fresh, f)) for f in fields), name
            assert not all(np.array_equal(getattr(maps, f), getattr(cached, f))
                           for f in fields), name

    def test_entries_hold_no_impulse_response(self, cartpole, cloned_policy, kd,
                                              monkeypatch):
        # after a cart-pole sweep every entry holds a few arrays of the
        # loop's dimensions, none as long as the horizon T (1,601-1,993 here)
        _empty_memo(monkeypatch)
        frontier(cartpole, cloned_policy, kd, x_lim_values=[0.001, 0.002, 0.003, 0.005, 0.008],
                 tol=1e-3, target_state=2)
        assert len(certify._closures) == 64
        for maps in certify._closures.values():
            arrays = [value for value in vars(maps).values() if isinstance(value, np.ndarray)]
            assert len(arrays) == 5
            assert all(max(a.shape) <= sum(maps.dims) for a in arrays)
            assert not any(isinstance(value, linsys.TruncatedTransferMatrix)
                           for value in vars(maps).values())
            assert sum(a.nbytes for a in arrays) < 64 * 1024


class TestFrontier:
    def test_scalar_closed_form_line(self):
        # certified iff w/(1-0.3) <= x_lim, so w*(x_lim) = 0.7 x_lim
        points = frontier(scalar_plant(), linear_policy(-0.2),
                          x_lim_values=[0.5, 1.0, 2.0], tol=1e-5, target_state=0)
        for x_lim, w_star in points:
            assert w_star == pytest.approx(0.7 * x_lim, rel=1e-4)

    def test_concurrent_frontiers_match_sequential(self, monkeypatch):
        # the README promises thread safety; threads share the maps cache, which
        # is kept small here so that they also evict each other's entries
        rng = np.random.default_rng(25)
        plant = random_stable_plant(rng, with_uncertainty=False)
        cases = [(scalar_plant(), linear_policy(-0.2), [0.5, 1.0, 2.0]),
                 (plant, random_relu_net(rng, d_in=plant.r, d_out=plant.m), [1.0, 2.0, 4.0])]

        def run_all():
            return [frontier(p, net, x_lim_values=limits, tol=1e-3) for p, net, limits in cases]

        _empty_memo(monkeypatch)
        expected = run_all()
        assert all(w > 0 for points in expected for _, w in points)
        _empty_memo(monkeypatch, size=4)
        assert run_in_threads(lambda i: run_all()) == [expected] * 4

    def test_zero_limit(self):
        points = frontier(scalar_plant(), linear_policy(-0.2),
                          x_lim_values=[0.0], tol=1e-4, target_state=0)
        assert points[0][1] == 0.0

    def test_moves_past_a_loop_that_does_not_decay_within_the_term_cap(self, monkeypatch):
        # the loops of TestAlgorithm1's term-cap test: certified iff
        # w / 0.4 <= x_lim, on the k_d loop
        _empty_memo(monkeypatch)
        monkeypatch.setattr(linsys, "_MAX_TRUNC_TERMS", 32)
        points = frontier(scalar_plant(), linear_policy(0.1), np.array([[-0.2]]),
                          x_lim_values=[0.5, 1.0], tol=1e-4, target_state=0)
        for x_lim, w_star in points:
            assert w_star == pytest.approx(0.4 * x_lim, rel=1e-3)

    def test_nondecreasing_in_limit(self, cartpole, cloned_policy, kd):
        values = [0.001, 0.002, 0.004, 0.006, 0.01]
        points = frontier(cartpole, cloned_policy, kd, x_lim_values=values,
                          tol=1e-3, target_state=2)
        levels = [w for _, w in points]
        for lo, hi in zip(levels, levels[1:]):
            assert hi >= lo * (1.0 - 2e-3)

    def test_origin_bounds_are_evaluated_once_per_sweep(self, cartpole, cloned_policy, kd,
                                                        monkeypatch):
        # every search starts from the degenerate box, where the policy bound
        # is |pi(0)|: the loop record evaluates it once, not once per round
        calls = []
        evaluate = neural.evaluate

        def counting(net, y):
            calls.append(y)
            return evaluate(net, y)

        monkeypatch.setattr(neural, "evaluate", counting)
        started = _record_searches(monkeypatch)
        frontier(cartpole, cloned_policy, kd, x_lim_values=[0.001, 0.002, 0.003, 0.005, 0.008],
                 tol=1e-3, target_state=2)
        assert len(started) == 64 and len(calls) == 1

    def test_cartpole_levels_match_fingerprint(self, cartpole, cloned_policy, kd):
        # the cart-pole frontier fingerprint of perfbench/README.md, exactly:
        # a change to the loop closure or the relaxation that moves a single
        # bisection step shows here
        values = [0.001, 0.002, 0.003, 0.005, 0.008]
        points = frontier(cartpole, cloned_policy, kd, x_lim_values=values,
                          tol=1e-3, target_state=2)
        assert points == list(zip(values, [0.000268798828125, 0.0005341796875,
                                           0.0007690429687500001, 0.0011777343750000002,
                                           0.0017304687500000002]))


def _sequential_bisect_max_level(certifies, tol=1e-4):
    """The one-level-at-a-time search bisect_max_level ran before the shared
    driver: level 0 first, doubling up to the cap, then at most 200 halvings."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not certifies(0.0):
        return 0.0
    lo, hi = 0.0, tol
    cap = tol * 2.0**certify._CAP_DOUBLINGS
    while certifies(hi):
        lo = hi
        if hi >= cap:
            return hi
        hi = min(2.0 * hi, cap)
    for _ in range(200):
        if hi - lo <= tol * hi:
            break
        mid = (lo + hi) / 2.0
        if certifies(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _recorded(certifies):
    """``certifies`` and the list of the levels it is asked, in order."""
    asked = []

    def spy(w):
        asked.append(w)
        return certifies(w)
    return spy, asked


class TestBisectMaxLevel:
    def test_threshold_predicates_match_sequential(self):
        for threshold, strict, tol in threshold_cases(2000, seed=1):
            def passes(w):
                return w <= threshold if strict else w < threshold

            certifies, asked = _recorded(passes)
            level = certify.bisect_max_level(certifies, tol)
            case = (threshold, strict, tol)
            assert level == _sequential_bisect_max_level(passes, tol), case
            assert len(asked) == len(set(asked)), case

    def test_zero_is_asked_only_when_tol_fails(self):
        # a predicate that is not monotone at 0: the sequential search asked 0
        # first and gave up there; the driver asks 0 only when tol fails
        def certifies(w):
            return 0.0 < w <= 0.5

        assert _sequential_bisect_max_level(certifies, 1e-3) == 0.0
        level = certify.bisect_max_level(certifies, 1e-3)
        assert certifies(level) and level == pytest.approx(0.5, rel=1e-3)
        certifies, asked = _recorded(lambda w: w <= 0.5)
        certify.bisect_max_level(certifies, 1e-3)
        assert 0.0 not in asked
        certifies, asked = _recorded(lambda w: w <= 1e-4)
        assert certify.bisect_max_level(certifies, 1e-3) == pytest.approx(1e-4, rel=1e-3, abs=0)
        assert asked[:2] == [1e-3, 0.0]

    def test_level_below_the_old_halving_cap(self):
        # 200 halvings from tol = 1e-3 reach 1e-3 * 2**-200 (6e-64) at best, so
        # the sequential search returned 0.0 for a level of 1e-70; the driver
        # bisects until the bracket is within tol
        def certifies(w):
            return w <= 1e-70

        assert _sequential_bisect_max_level(certifies, 1e-3) == 0.0
        level = certify.bisect_max_level(certifies, 1e-3)
        assert certifies(level) and level == pytest.approx(1e-70, rel=1e-3, abs=0)

    def test_bracket_of_adjacent_floats_ends(self):
        # tol far below one ulp: the bracket narrows to 3.5e-15 and the next
        # float, whose midpoint is one of them, and the search stops there
        # where the sequential search asked the same floats until its cap
        certifies, asked = _recorded(lambda w: w <= 3.5e-15)
        assert certify.bisect_max_level(certifies, 1e-20) == 3.5e-15
        assert len(asked) == len(set(asked))
        old, old_asked = _recorded(lambda w: w <= 3.5e-15)
        assert _sequential_bisect_max_level(old, 1e-20) == 3.5e-15
        assert set(old_asked) == set(asked) | {0.0}
        assert len(old_asked) > 2 * len(asked)

    def test_copied_bisection_walks_on_alone(self):
        # a copy sent the same verdicts asks what the walk asks and ends on
        # its bracket; a copy sent other verdicts leaves the walk as it was
        for threshold, strict, tol in threshold_cases(400, seed=3):
            case = (threshold, strict, tol)
            walk = certify._Bisection(tol, 24)
            while walk.asked:
                state = (list(walk.asked), walk.lo, walk.hi)
                verdicts = [w > threshold if strict else w >= threshold for w in walk.asked]
                other, twin = copy.copy(walk), copy.copy(walk)
                other.send([not fails for fails in verdicts])
                assert (walk.asked, walk.lo, walk.hi) == state, case
                walk.send(verdicts)
                twin.send(verdicts)
                assert (twin.asked, twin.lo, twin.hi) == (walk.asked, walk.lo, walk.hi), case

    def test_zero_failing_ends_at_zero_whatever_the_midpoint(self):
        # 0 and the first midpoint are asked together: when 0 fails the walk
        # ends at (0, 0), although the midpoint passed
        tol = 1e-3
        walk = certify._Bisection(tol, 24)
        walk.send([True])
        assert walk.asked == [0.0, tol / 2]
        walk.send([True, False])
        assert (walk.asked, walk.lo, walk.hi) == ([], 0.0, 0.0)
        assert certify.bisect_max_level(lambda w: w == tol / 2, tol) == 0.0

    @pytest.mark.parametrize("zero_fails, bracket", [(False, (0.0, 5e-324)),
                                                     (True, (0.0, 0.0))])
    def test_least_subnormal_tol_asks_zero_once(self, zero_fails, bracket):
        # the first midpoint of (0, 5e-324) rounds to 0, so the zero probe is
        # one level, and no float lies between the bracket's ends after it
        walk = certify._Bisection(5e-324, 24)
        walk.send([True])
        assert walk.asked == [0.0]
        walk.send([zero_fails])
        assert (walk.asked, (walk.lo, walk.hi)) == ([], bracket)
        certifies, asked = _recorded(lambda w: w == 0.0 and not zero_fails)
        assert certify.bisect_max_level(certifies, 5e-324) == 0.0
        assert asked == [5e-324, 0.0]

    @pytest.mark.parametrize("tol", [0.0, -1e-3, np.nan, 1.0, 2.0, np.inf])
    def test_rejects_nonpositive_tol(self, tol):
        # a relative tolerance of 1 or more holds on the first bracket (0, tol)
        with pytest.raises(ValueError, match=r"tol must be in \(0, 1\)"):
            certify.bisect_max_level(lambda w: True, tol)

    def test_cartpole_sweep_visits_only_levels_the_sequential_search_visits(
            self, cartpole, cloned_policy, kd, monkeypatch):
        # the perfbench cart-pole sweep: the sequential search asked level 0 on
        # each of the five limits; the driver skips it where tol certifies
        values = [0.001, 0.002, 0.003, 0.005, 0.008]
        started = _record_searches(monkeypatch)
        points = frontier(cartpole, cloned_policy, kd, x_lim_values=values, tol=1e-3,
                          target_state=2)
        driver = [(float(s.plant.x_lim[2]), w) for s, w in started]
        started.clear()
        assert _per_limit_frontier(cartpole, cloned_policy, values, 1e-3, target_state=2,
                                   k_d=kd, bisect=_sequential_bisect_max_level) == points
        visits = [(float(s.plant.x_lim[2]), w) for s, w in started]
        assert (len(driver), len(visits)) == (64, 66)
        assert len(set(driver)) == len(driver) and set(driver) <= set(visits)


def _record_searches(monkeypatch):
    """The list that every search the stepper starts goes into, as
    ``(search, level)``, whether frontier or algorithm1 starts it."""
    started = []
    real = certify._Loop.search

    def spy(self, plant, w_amp):
        search = real(self, plant, w_amp)
        started.append((search, w_amp))
        return search

    monkeypatch.setattr(certify._Loop, "search", spy)
    return started


def _per_limit_frontier(plant, net, values, tol, *, target_state=None,
                        bisect=certify.bisect_max_level, **lib):
    """frontier as it ran before its limits went in lock-step: one bisection
    of algorithm1 per limit, one limit after the other."""
    points = []
    for value in values:
        limited = certify.with_state_limit(plant, target_state, float(value))
        points.append((float(value), bisect(
            lambda w: algorithm1(limited, net, w_inf=w, **lib).success, tol)))
    return points


def _outcomes(started) -> dict:
    """Per (limits, level) the passes, verdict, gain and quadruplet of its
    search, as bytes."""
    out = {}
    for search, w in started:
        result = search.result
        quad = result.quadruplet
        out[search.plant.x_lim.tobytes(), w] = (
            result.iterations, result.failure_reason,
            None if result.gain is None else result.gain.tobytes(),
            None if quad is None else tuple(getattr(quad, name).tobytes() for name in (
                "y_bar", "u_bar", "alpha_bar", "delta_bar", "x_bar")))
    assert len(out) == len(started)
    return out


class TestLockStep:
    """frontier's limits in lock-step against bisecting each limit alone."""

    @staticmethod
    def matches_per_limit(monkeypatch, plant, net, values, tol, target_state=None, **lib):
        started = _record_searches(monkeypatch)
        points = frontier(plant, net, x_lim_values=values, tol=tol, target_state=target_state,
                          **lib)
        together = _outcomes(started)
        started.clear()
        assert points == _per_limit_frontier(plant, net, values, tol,
                                             target_state=target_state, **lib)
        # the same levels asked, and each search the same passes and result
        assert together == _outcomes(started)
        return together

    def test_cartpole_sweep(self, cartpole, cloned_policy, kd, monkeypatch):
        visits = self.matches_per_limit(monkeypatch, cartpole, cloned_policy,
                                        [0.001, 0.002, 0.003, 0.005, 0.008], 1e-3,
                                        target_state=2, k_d=kd)
        assert len(visits) == 64

    @pytest.mark.parametrize("seed", [1, 2, 3, 6, 11])
    def test_random_loops(self, seed, monkeypatch):
        # with uncertainty on odd seeds, quantized outputs on seeds 3 and 6,
        # and a zero limit first; every seed certifies some levels
        rng = np.random.default_rng(seed)
        uncertain = seed % 2 == 1
        plant = random_stable_plant(rng, with_uncertainty=uncertain)
        net = random_relu_net(rng, d_in=plant.r, d_out=plant.m)
        gamma = 0.1 * np.abs(rng.normal(size=(plant.q, plant.s))) if uncertain else None
        quant = neural.QuantizationSpec(0.01) if seed % 3 == 0 else None
        visits = self.matches_per_limit(monkeypatch, plant, net, [0.0, 0.3, 1.0, 3.0, 10.0],
                                        1e-2, gamma_delta=gamma, quantization=quant)
        verdicts = {reason for _, reason, _, _ in visits.values()}
        assert None in verdicts and certify.CONSTRAINT_VIOLATED in verdicts

    def test_one_step_ends_searches_every_way(self):
        # an open-loop unstable scalar plant and the policy
        # -0.6 y + 0.01 relu(y) near the origin, whose kink there leaves no
        # Jacobian: on the degenerate box no candidate closes the loop, over
        # a box the midpoint gain does.  One step of six searches ends each
        # its own way, as a step of each alone does.
        plant = linsys.make_plant([[1.2]], [[1.0]], b_w=[[1.0]])
        net = neural.mlp([(np.array([[1.0], [1.0]]), np.array([10.0, 0.0])),
                          (np.array([[-0.6, 0.01]]), np.array([6.0]))])
        states = [  # (x_lim, w, y_ref, passes before the step)
            (1.0, 0.01, 0.0, 0),                               # NoStabilizingGain
            (1.0, 0.01, 1e308, 3),                             # NonFiniteBounds
            (1e-6, 0.1, 1.0, 3),                               # ConstraintViolated
            (1.0, 0.01, 1.0, 3),                               # certified
            (1.0, 0.01, 1e-3, certify._MAX_PASSES - 1),        # MaxIterExceeded
            (1.0, 0.01, 1e-3, 5),                              # goes on
        ]

        def start(loop, x_lim, w, y_ref, passes):
            search = loop.search(certify.with_state_limit(plant, None, x_lim), w)
            search.y_ref, search.passes = np.array([y_ref]), passes
            return search

        def outcome(search):
            result = search.result
            return (search.passes, search.y_ref.tobytes(), search.alpha_ref.tobytes(),
                    None if result is None else (result.failure_reason, result.iterations,
                                                 _outcomes([(search, 0.0)])))

        loop = certify._Loop(plant, net)
        batch = [start(loop, *state) for state in states]
        loop.step(batch)
        alone = []
        for state in states:
            search = start(certify._Loop(plant, net), *state)
            certify._Loop(plant, net).step([search])
            alone.append(outcome(search))
        assert [outcome(search) for search in batch] == alone
        assert [s.result and s.result.failure_reason for s in batch] == [
            certify.NO_STABILIZING_GAIN, certify.NON_FINITE_BOUNDS,
            certify.CONSTRAINT_VIOLATED, None, certify.MAX_ITER_EXCEEDED, None]
        assert batch[3].result.success and batch[5].result is None


class TestWithStateLimit:
    @pytest.mark.parametrize("index", [4, 9, -1, -5])
    def test_rejects_an_index_outside_the_states(self, cartpole, index):
        with pytest.raises(ValueError, match=f"target state {index} out of range for n=4"):
            certify.with_state_limit(cartpole, index, 0.01)

    def test_sets_one_state_or_all(self, cartpole):
        assert list(certify.with_state_limit(cartpole, 3, 0.01).x_lim[3:]) == [0.01]
        assert np.all(certify.with_state_limit(cartpole, None, 0.01).x_lim == 0.01)


class TestExtractGain:
    """The gain over a non-degenerate box: the relaxation midpoint first."""

    def test_linear_policy_takes_the_relaxation_midpoint(self, monkeypatch):
        plant = linsys.make_plant(0.5 * np.eye(2), [[1.0], [0.5]], b_w=np.eye(2))
        net = neural.mlp([(np.array([[-0.2, 0.1]]), np.array([0.05]))])
        box = neural.Box(np.array([0.1, -0.2]), np.array([0.3, 0.7]))
        relaxed = []
        real = neural.linear_relaxation

        def spy(net, box):
            relaxed.append(box)
            return real(net, box)

        monkeypatch.setattr(neural, "linear_relaxation", spy)
        got = certify.extract_gain(plant, net, box, np.zeros((1, 2)))
        assert len(relaxed) == 1
        lb = real(net, box)
        assert got.tobytes() == ((lb.k_u + lb.k_l) / 2.0).tobytes()

    def test_relu_policy_falls_back_to_the_jacobian(self):
        # pi(y) = -0.2 y + 4 relu(y - 1) near the origin: the Jacobian -0.2
        # closes x+ = 0.5 x + u, while over |y| <= 5 the relaxed kink pulls the
        # midpoint gain up until the loop no longer closes
        plant = scalar_plant()
        net = neural.mlp([(np.array([[1.0], [1.0]]), np.array([10.0, -1.0])),
                          (np.array([[-0.2, 4.0]]), np.array([2.0]))])
        box = neural.Box.symmetric([5.0])
        lb = neural.linear_relaxation(net, box)
        midpoint = (lb.k_u + lb.k_l) / 2.0
        assert linsys.spectral_radius(plant.a + plant.b @ midpoint @ plant.c) >= 1.0
        got = certify.extract_gain(plant, net, box, np.array([[-0.1]]))
        jacobian = neural.jacobian_at(net, np.zeros(1))
        assert got.tobytes() == jacobian.tobytes()
        assert got.tolist() == [[-0.2]]


def interval_gain(net, k0, radius):
    """The baseline's policy gain over ``|y| <= radius``: the largest row sum
    of ``|J - K0|`` over the interval Jacobian ``J``."""
    box = neural.Box.symmetric(np.full(net.input_dim, float(radius)))
    j_lo, j_hi = neural.jacobian_bounds(net, box)
    return float(np.max(np.sum(np.maximum(np.abs(j_lo - k0), np.abs(j_hi - k0)), axis=1),
                        initial=0.0))


class TestBaseline:
    def test_report_matches_direct_check(self):
        plant = scalar_plant(w_inf=0.05)
        result = baseline_certify(plant, linear_policy(-0.2))
        assert result.certified and result.quadruplet is not None
        # a linear policy is its own gain: its residual bound is exactly 0
        assert (result.gamma_pi, result.offset) == (0.0, 0.0)
        direct = check_lemma1(linsys.close_loop(plant, [[-0.2]]), 0.0, 0.0, 0.05, np.inf)
        assert result.beta2 == direct.beta2 == 0.0
        assert result.y_inf_implied == pytest.approx(direct.y_inf_implied, rel=1e-12)

    def test_offset_of_a_policy_that_is_not_zero_at_the_origin(self):
        # pi(y) = -0.2 y + 0.2 around its gain -0.2 is the constant 0.2: no
        # slope, offset 0.2, and the box is abs(Phi_yu(a_cl=0.3)) * 0.2 = 0.2/0.7,
        # the box algorithm1 settles at (TestPolicyBoundsPath)
        net = neural.mlp([(np.array([[-0.2]]), np.array([0.2]))])
        result = baseline_certify(scalar_plant(w_inf=0.0), net)
        assert result.certified
        assert (result.gamma_pi, result.offset) == (0.0, 0.2)
        quad = result.quadruplet
        assert quad.y_bar == pytest.approx([0.2 / 0.7], rel=1e-6)
        assert quad.u_bar == pytest.approx([0.2], rel=1e-6)

    def test_limit_check(self):
        plant = scalar_plant(w_inf=0.1, x_lim=[0.01])
        result = baseline_certify(plant, linear_policy(-0.2))
        assert not result.certified

    def test_u_lim_bounds_the_full_policy_output(self):
        # u = K0 y + r(y): the box's u_bar bounds only the residual r, which is
        # 0 here, while |u| reaches 0.2 |y|, past u_lim
        plant = linsys.make_plant([[0.5]], [[1.0]], b_w=[[1.0]], w_inf=0.1, u_lim=[1e-3])
        net = linear_policy(-0.2)
        result = baseline_certify(plant, net)
        assert not result.certified
        assert algorithm1(plant, net).failure_reason == certify.CONSTRAINT_VIOLATED
        quad = result.quadruplet
        assert quad.u_bar.tolist() == [0.0] and 0.2 * quad.y_bar[0] > 1e-3
        trace, _ = attack.monte_carlo_attack(plant, net, 0.1, 2000, seed=0)
        assert trace.max_abs("u")[0] > 1e-3
        assert baseline_certify(dataclasses.replace(plant, u_lim=np.array([0.03])),
                                net).certified

    def test_result_carries_the_box_the_limits_reject(self):
        net = linear_policy(-0.2)
        free = baseline_certify(scalar_plant(w_inf=0.1), net)
        limited = baseline_certify(scalar_plant(w_inf=0.1, x_lim=[0.01]), net)
        assert free.certified and not limited.certified
        assert limited.quadruplet.x_bar.tobytes() == free.quadruplet.x_bar.tobytes()
        obj = limited.to_dict()
        assert list(obj)[-2:] == ["offset", "x_bar"]
        assert obj["x_bar"] == [float(v) for v in free.quadruplet.x_bar]
        assert "x_bar" not in BaselineResult(np.inf, np.inf, False, np.inf).to_dict()

    def test_bounds_one_region_when_beta1_is_at_least_one(self, monkeypatch):
        # beta1 = gamma_delta ||Phi_alpha_delta|| depends on no region, so the
        # call bounds the gain only on the region the full scan (below) ends on
        def full_scan(plant, net, gamma, w, max_region_iter):
            k0, maps = certify.extract_loop(plant, net, None, None)
            offset = float(np.max(np.abs(neural.evaluate(net, np.zeros(plant.r)))))
            y_inf = max(maps.l1("yw") * w, 1e-9)
            result = BaselineResult(np.inf, np.inf, False, np.inf)
            for _ in range(max_region_iter):
                result = check_lemma1(maps, interval_gain(net, k0, y_inf), gamma, w, y_inf,
                                      offset)
                assert result.beta1 >= 1.0 and not result.certified
                y_inf *= 2.0
                if y_inf > 1e9:
                    break
            return result

        regions = []
        real = neural.jacobian_bounds
        monkeypatch.setattr(neural, "jacobian_bounds",
                            lambda net, box: regions.append(box) or real(net, box))
        for seed in range(8):
            rng = np.random.default_rng(600 + seed)
            plant = random_stable_plant(rng)
            net = random_relu_net(rng, d_in=plant.r, d_out=plant.m)
            _, maps = certify.extract_loop(plant, net, None, None)
            for factor in (1.5, 40.0):
                gamma_delta = np.full((plant.q, plant.s), factor / maps.l1("alpha_delta") / plant.s)
                gamma = float(np.max(np.sum(gamma_delta, axis=1)))
                for w in (1e-3, 1.0, 3e8):
                    for iters in (1, 3, 40):
                        monkeypatch.setattr(certify, "_REGION_ITER", iters)
                        regions.clear()
                        result = baseline_certify(plant, net, gamma_delta=gamma_delta, w_inf=w)
                        assert len(regions) == 1
                        want = full_scan(plant, net, gamma, w, iters)
                        assert repr(result) == repr(want) and result.quadruplet is None

    @pytest.mark.parametrize("gamma_delta", [[[0.1, 0.1]], np.zeros((3, 3)), [[-0.1]]])
    def test_baseline_checks_gamma_delta_as_algorithm1_does(self, gamma_delta):
        # Gamma_Delta must be a nonnegative (q, s) matrix on both routes
        plant = linsys.make_plant([[0.5]], [[1.0]], b_w=[[1.0]], b_delta=[[1.0]],
                                  c_alpha=[[1.0]], w_inf=0.1)
        with pytest.raises(ValueError) as want:
            algorithm1(plant, linear_policy(-0.2), gamma_delta=gamma_delta)
        with pytest.raises(ValueError) as got:
            baseline_certify(plant, linear_policy(-0.2), gamma_delta=gamma_delta)
        assert str(got.value) == str(want.value)

    def test_cartpole_baseline_levels_match_fingerprint(self, cartpole, cloned_policy, kd):
        # the w_baseline levels of the reference cart-pole sweep, exactly: a
        # change to the region scan or the policy gain that moves a single
        # bisection step shows here.  The clone is affine up to a radius of
        # about 0.01, where its gain is exactly 0, so every limit from 0.002
        # on stops at the same level.
        values = [0.001, 0.002, 0.003, 0.005, 0.008]
        points = baseline_frontier(cartpole, cloned_policy, kd, x_lim_values=values,
                                   tol=1e-3, target_state=2)
        assert points == list(zip(values, [0.000268798828125] + [0.00030175781250000005] * 4))

    def test_one_scan_per_level_matches_per_limit_bisection(self, monkeypatch):
        # the region scan reads no limit, so the frontier scans each level once
        # and checks every limit against the scan's quadruplet; its levels are
        # those of one full baseline_certify call per limited plant, including
        # when a limit on another state, on y or on u binds
        def per_limit_frontier(plant, net, values, **kwargs):
            out = []
            for value in values:
                limited = certify.with_state_limit(plant, 0, value)
                out.append((value, certify.bisect_max_level(
                    lambda w: real_certify(limited, net, w_inf=w, **kwargs).certified,
                    tol=1e-2)))
            return out

        real_certify, real_scan = certify.baseline_certify, certify._region_scan
        levels_scanned = []

        def spy(maps, gain, offset, gamma, w_amp):
            levels_scanned.append(w_amp)
            return real_scan(maps, gain, offset, gamma, w_amp)

        monkeypatch.setattr(certify, "_region_scan", spy)
        values = [0.25, 1.0, 4.0]
        # random nets shifted to pi(0) = 0, on which the baseline certifies
        # positive levels that every limit below lowers
        for seed in (2, 24, 25):
            rng = np.random.default_rng(seed)
            plant = random_stable_plant(rng, with_uncertainty=False)
            net = random_relu_net(rng, d_in=plant.r, d_out=plant.m)
            *hidden, last = net.layers
            net = neural.ReluNetwork((*hidden, neural.Layer(
                last.weight, last.bias - neural.evaluate(net, np.zeros(plant.r)), "linear")))
            variants = (plant,
                        dataclasses.replace(plant, x_lim=np.r_[np.inf, np.full(plant.n - 1, 0.3)]),
                        dataclasses.replace(plant, y_lim=np.full(plant.r, 0.5)),
                        dataclasses.replace(plant, u_lim=np.full(plant.m, 0.1)))
            for quant in (None, neural.QuantizationSpec(1e-3)):
                kwargs = dict(quantization=quant)
                got = []
                for limited in variants:
                    levels_scanned.clear()
                    got.append(baseline_frontier(limited, net, x_lim_values=values, tol=1e-2,
                                                 target_state=0, **kwargs))
                    assert levels_scanned
                    assert sorted(levels_scanned) == sorted(set(levels_scanned))
                    assert got[-1] == per_limit_frontier(limited, net, values, **kwargs)
                # every extra limit lowers some level, so each check is exercised
                assert all(points != got[0] for points in got[1:]), seed
                assert all(w > 0 for points in got for _, w in points), seed

    def test_one_gain_per_frontier_and_one_scan_per_level(self, monkeypatch):
        # neither the gain nor the region scan reads a limit: a sweep picks the
        # gain once, and scans each distinct level once
        picked, scanned = [], []
        real_jacobian, real_scan = neural.jacobian_at, certify._region_scan

        def jacobian_spy(net, y0):
            picked.append(y0)
            return real_jacobian(net, y0)

        def scan_spy(maps, gain, offset, gamma, w_amp):
            scanned.append(w_amp)
            return real_scan(maps, gain, offset, gamma, w_amp)

        monkeypatch.setattr(neural, "jacobian_at", jacobian_spy)
        monkeypatch.setattr(certify, "_region_scan", scan_spy)
        points = baseline_frontier(scalar_plant(), linear_policy(-0.2),
                                   x_lim_values=[0.5, 1.0, 2.0], tol=1e-3, target_state=0)
        assert len(picked) == 1
        assert len(scanned) > 3 and len(scanned) == len(set(scanned))
        assert all(w > 0 for _, w in points)

    def test_serialization_writes_gain_and_offset(self):
        obj = BaselineResult(0.0, 0.5, True, 1.0, 0.2, 0.05).to_dict()
        assert list(obj) == ["beta1", "beta2", "certified", "y_inf_implied", "gamma_pi",
                             "offset"]
        assert (obj["gamma_pi"], obj["offset"]) == (0.2, 0.05)


class TestBaselineSoundness:
    def test_gain_and_offset_bound_the_sampled_residual(self):
        # offset + gamma ||y|| bounds |pi(y) - K0 y| for every y of the region:
        # the sampled gain beyond the offset never exceeds gamma, up to the
        # rounding of the forward pass, on nets quantized every third time
        checked = 0
        for seed in range(60):
            rng = np.random.default_rng(300 + seed)
            net = random_relu_net(rng)
            k0 = rng.normal(size=(net.output_dim, net.input_dim))
            quant = neural.QuantizationSpec(0.05) if seed % 3 == 0 else None
            offset = np.max(np.abs(neural.evaluate(net, np.zeros(net.input_dim))))
            if quant is not None:
                offset = quant.widen(offset)
            for radius in (1e-3, 0.1, 0.3, 2.0):
                gamma = interval_gain(net, k0, radius)
                sampled = fresh_draw_gain(net, k0, radius, 1024, seed, quant, offset)
                assert sampled <= gamma + 1e-9 * (1.0 + gamma + offset / radius), \
                    (seed, radius)
                checked += 1
        assert checked == 240

    def test_baseline_certificates_hold_on_random_loops(self):
        # every baseline certificate on seeds 0-59 of the random loops (odd
        # seeds uncertain) passes the Theorem-1 check; its residual bound
        # holds over the box, Monte-Carlo and designed runs at Delta = 0
        # stay inside x_bar and y_bar, with |u| inside |K0| y_bar + u_bar,
        # and the invariant-set search certifies the same run
        certified, uncertain = 0, 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            plant = random_stable_plant(rng, with_uncertainty=seed % 2 == 1)
            net = random_relu_net(rng, d_in=plant.r, d_out=plant.m)
            gamma = 0.1 * np.abs(rng.normal(size=(plant.q, plant.s)))
            for w in (0.01, 0.05, 0.2, 1.0, 5.0):
                result = baseline_certify(plant, net, gamma_delta=gamma, w_inf=w)
                if not result.certified:
                    continue
                certified += 1
                uncertain += seed % 2
                quad = result.quadruplet
                k0, maps = certify.extract_loop(plant, net, None, None)
                holds, x_bar = check_theorem1(maps, quad, np.full(plant.p, w))
                assert holds and x_bar.tobytes() == quad.x_bar.tobytes(), (seed, w)
                assert algorithm1(plant, net, gamma_delta=gamma, w_inf=w).success, (seed, w)
                ys = rng.uniform(-quad.y_bar, quad.y_bar, size=(2000, plant.r))
                residual = np.abs(neural.evaluate(net, ys) - ys @ k0.T)
                assert np.all(residual <= quad.u_bar * (1 + 1e-9) + 1e-15), (seed, w)
                traces = [attack.monte_carlo_attack(plant, net, w, 2000, seed=seed)[0]]
                traces += [attack.simulate(plant, net, attack.design_attack(maps, i, 300, w), 300)
                           for i in range(plant.n)]
                u_bound = np.abs(k0) @ quad.y_bar + quad.u_bar
                for trace in traces:
                    for signal, bar in (("x", quad.x_bar), ("y", quad.y_bar), ("u", u_bound)):
                        assert np.all(trace.max_abs(signal) <= bar * (1 + 1e-9) + 1e-15), \
                            (seed, w, signal)
        assert certified >= 30 and uncertain >= 10


def _certify_bits(result) -> tuple:
    """A CertResult as bytes: verdict, passes, gain and quadruplet."""
    quad = result.quadruplet
    return (result.success, result.iterations, result.failure_reason,
            None if result.gain is None else result.gain.tobytes(),
            None if quad is None else tuple(getattr(quad, name).tobytes() for name in (
                "y_bar", "u_bar", "alpha_bar", "delta_bar", "x_bar")))


# One bad input each, on the uncertain scalar plant of TestEntryPoints; the
# other inputs are the linear policy -0.2 with no k_d and no Gamma_Delta.
_BAD_INPUTS = {
    "k_d of the wrong shape": dict(k_d=np.zeros((2, 1))),
    "k_d not finite": dict(k_d=np.array([[np.inf]])),
    "gamma_delta of the wrong shape": dict(gamma_delta=np.zeros((1, 2))),
    "gamma_delta negative": dict(gamma_delta=np.array([[-0.1]])),
    "net of other dimensions": dict(net=neural.mlp([(np.zeros((1, 2)), np.zeros(1))])),
}


class TestEntryPoints:
    """Every route closes its loop from the same checked inputs (certify._Loop)."""

    plant = linsys.make_plant([[0.5]], [[1.0]], b_w=[[1.0]], b_delta=[[1.0]],
                              c_alpha=[[1.0]], w_inf=0.1)

    @pytest.mark.parametrize("bad", list(_BAD_INPUTS))
    def test_bad_inputs_rejected_alike(self, bad):
        args = {"net": linear_policy(-0.2), "k_d": None, "gamma_delta": None, **_BAD_INPUTS[bad]}
        net, k_d, gamma_delta = args["net"], args["k_d"], args["gamma_delta"]
        sweep = dict(x_lim_values=[0.5], tol=1e-2)
        routes = {
            "algorithm1": lambda: algorithm1(self.plant, net, k_d, gamma_delta),
            "frontier": lambda: frontier(self.plant, net, k_d, gamma_delta, **sweep),
            "baseline_certify": lambda: baseline_certify(self.plant, net, k_d, gamma_delta),
            "baseline_frontier": lambda: baseline_frontier(self.plant, net, k_d, gamma_delta,
                                                           **sweep),
        }
        if gamma_delta is None:  # extract_loop takes no Gamma_Delta
            routes["extract_loop"] = lambda: certify.extract_loop(self.plant, net, None, k_d)
        messages = {}
        for name, call in routes.items():
            with pytest.raises(ValueError) as err:
                call()
            messages[name] = str(err.value)
        assert len(set(messages.values())) == 1, messages

    def test_certify_baseline_and_attack_routes_match_serial_in_threads(self, monkeypatch):
        # the README promises thread safety; the threads share a memo small
        # enough that they evict each other's loops
        loops = [(self.plant, linear_policy(-0.2), np.array([[0.3]]))]
        for seed in (11, 15, 35):
            rng = np.random.default_rng(seed)
            plant = random_stable_plant(rng, with_uncertainty=True)
            net = random_relu_net(rng, d_in=plant.r, d_out=plant.m)
            loops.append((plant, net, 0.1 * np.abs(rng.normal(size=(plant.q, plant.s)))))

        def run_all():
            certified, baseline, attacked = [], [], []
            for plant, net, gamma in loops:
                for w in (0.01, 0.3):
                    certified.append(_certify_bits(algorithm1(plant, net, gamma_delta=gamma,
                                                              w_inf=w)))
                    result = baseline_certify(plant, net, gamma_delta=gamma, w_inf=w)
                    quad = result.quadruplet
                    baseline.append((repr(result), quad and quad.x_bar.tobytes()))
                _, maps = certify.extract_loop(plant, net, None, None)
                attacked.append(np.array(attack.violation_levels(
                    plant, net, maps, range(plant.n), 60, [0.05, 0.5, np.inf], 1e-2,
                    None)).tobytes())
            return certified, baseline, attacked

        _empty_memo(monkeypatch)
        expected = run_all()
        certified, baseline, _ = expected
        assert any(bits[0] for bits in certified) and not all(bits[0] for bits in certified)
        assert any("certified=True" in text for text, _ in baseline)
        _empty_memo(monkeypatch, size=4)
        assert run_in_threads(lambda i: run_all()) == [expected] * 4


class TestPolicyBoundsPath:
    def test_first_pass_uses_exact_origin_value(self):
        # a policy with pi(0) != 0 forces a nonzero floor on the first pass:
        # the residual around the gain -0.2 is the constant 0.2, so the box
        # settles at abs(Phi_yw(a_cl=0.3)) * 0.2 = 0.2/0.7
        net = neural.mlp([(np.array([[-0.2]]), np.array([0.2]))])
        result = algorithm1(scalar_plant(w_inf=0.0), net)
        assert result.success
        assert result.quadruplet.y_bar == pytest.approx([0.2 / 0.7], rel=1e-5)
        assert result.quadruplet.u_bar[0] >= 0.2

    def test_relu_policy_certifies(self):
        # genuine nonlinear policy: pi(y) = -0.2 relu(y) stabilized loop
        net = neural.mlp([(np.array([[1.0]]), np.array([0.0])),
                          (np.array([[-0.2]]), np.array([0.0]))])
        result = algorithm1(scalar_plant(w_inf=0.05), net)
        assert result.success
        holds, _ = check_theorem1(
            linsys.close_loop(scalar_plant(), result.gain),
            Quadruplet(result.quadruplet.y_bar,
                       np.abs(neural.evaluate(net, result.quadruplet.y_bar)),
                       result.quadruplet.alpha_bar, result.quadruplet.delta_bar),
            [0.05])
        assert result.quadruplet.y_bar[0] > 0
