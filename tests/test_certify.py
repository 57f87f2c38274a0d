"""Certification engine against hand-derived scalar closed forms."""

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
    hinf_corollary,
    sampled_linf_gain,
)

from conftest import (
    linear_policy,
    random_relu_net,
    random_stable_plant,
    run_in_threads,
    scalar_plant,
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


class TestHinfCorollary:
    def test_certified(self, scalar_maps):
        assert hinf_corollary(scalar_maps, 0.4, 0.0)

    def test_not_certified(self, scalar_maps):
        assert not hinf_corollary(scalar_maps, 0.6, 0.0)

    def test_trivial_gains(self, scalar_maps):
        assert hinf_corollary(scalar_maps, 0.0, 0.0)


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
        # so the bounds overflow long before the stall exit could fire at
        # pass 15: behind a ReLU the relaxation over the box overflows first
        # (pass 7), a linear policy's reference box itself (pass 12); the
        # verdict reports the overflow, so numpy warns about none of it
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

    def test_stall_exit_reports_stalled(self):
        # seed 77 of the random corpus: the stall exit stops every amplitude
        # at pass 17-18 (run on, each certifies near pass 150), so the
        # verdict says the search stalled, not that the budget was spent
        rng = np.random.default_rng(77)
        plant = random_stable_plant(rng, with_uncertainty=True)
        net = random_relu_net(rng, d_in=plant.r, d_out=plant.m)
        gamma_delta = 0.1 * np.abs(rng.normal(size=(plant.q, plant.s)))
        for w in (0.01, 0.05, 0.2, 1.0, 5.0):
            result = algorithm1(plant, net, gamma_delta=gamma_delta, w_inf=w)
            assert not result.success and result.quadruplet is None
            assert result.failure_reason == certify.STALLED == "Stalled"
            assert result.iterations in (17, 18)
        short = algorithm1(plant, net, gamma_delta=gamma_delta, w_inf=0.01, max_iter=10)
        assert short.failure_reason == certify.MAX_ITER_EXCEEDED
        assert short.iterations == 10

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


def _empty_memo(monkeypatch, size=64):
    """Certify's closed-loop memo, emptied and holding at most ``size`` entries."""
    monkeypatch.setattr(certify, "_closures", {})
    monkeypatch.setattr(certify, "_CLOSURES_MAX", size)


class TestMapsCache:
    def test_concurrent_get_matches_close_loop(self, monkeypatch):
        plant = scalar_plant()
        gains = [np.array([[-0.1 * (i + 1)]]) for i in range(5)]
        expected = [linsys.close_loop(plant, k) for k in gains]
        _empty_memo(monkeypatch, size=2)

        def mismatches(offset):
            bad = []
            for i in range(100):
                j = (i + offset) % len(gains)
                maps = certify._closed_loop(plant, gains[j], linsys.DEFAULT_EPS_TRUNC)
                if not (np.array_equal(maps.a_cl, expected[j].a_cl)
                        and np.array_equal(maps.abs_stack, expected[j].abs_stack)):
                    bad.append(j)
            return bad

        assert run_in_threads(mismatches, timeout=120) == [[]] * 4
        assert len(certify._closures) <= 2


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

    def test_nondecreasing_in_limit(self, cartpole, cloned_policy, kd):
        values = [0.001, 0.002, 0.004, 0.006, 0.01]
        points = frontier(cartpole, cloned_policy, kd, x_lim_values=values,
                          tol=1e-3, target_state=2)
        levels = [w for _, w in points]
        for lo, hi in zip(levels, levels[1:]):
            assert hi >= lo * (1.0 - 2e-3)

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


class TestBaseline:
    def test_linear_policy_gain_recovered_exactly(self):
        net = linear_policy(0.3)
        gain = sampled_linf_gain(net, np.zeros((1, 1)), 1.0, 512, seed=0)
        assert gain == pytest.approx(0.3, rel=1e-12)

    def test_report_matches_direct_check(self, scalar_maps):
        plant = scalar_plant(w_inf=0.05)
        net = linear_policy(-0.2)
        result, quad = baseline_certify(plant, net, n_samples=512, seed=0)
        assert result.certified
        # residual of the linear policy around its own gain is zero
        direct = check_lemma1(linsys.close_loop(plant, [[-0.2]]), result.gamma_pi,
                              0.0, 0.05, np.inf)
        assert result.beta2 == pytest.approx(direct.beta2, abs=1e-12)
        assert quad is not None

    def test_limit_check(self):
        plant = scalar_plant(w_inf=0.1, x_lim=[0.01])
        result, _ = baseline_certify(plant, linear_policy(-0.2), n_samples=256, seed=0)
        assert not result.certified

    def test_samples_one_region_when_beta1_is_at_least_one(self, monkeypatch):
        # beta1 = gamma_delta ||Phi_alpha_delta|| depends on no region, so the
        # call samples only the region the full scan (below) ends on
        def full_scan(plant, net, gamma, w, n_samples, seed, max_region_iter):
            k0, maps = certify.extract_loop(plant, net, None, None)
            y_inf = max(maps.l1("yw") * w, 1e-9)
            result = BaselineResult(np.inf, np.inf, False, np.inf)
            for _ in range(max_region_iter):
                gain = real_sampler(net, k0, n_samples, seed, None)(y_inf)
                result = check_lemma1(maps, gain, gamma, w, y_inf)
                assert result.beta1 >= 1.0 and not result.certified
                y_inf *= 2.0
                if y_inf > 1e9:
                    break
            return result

        regions = []
        real_sampler = certify._gain_sampler

        def counting_sampler(*args):
            gain = real_sampler(*args)
            return lambda radius: regions.append(radius) or gain(radius)

        monkeypatch.setattr(certify, "_gain_sampler", counting_sampler)
        for seed in range(8):
            rng = np.random.default_rng(600 + seed)
            plant = random_stable_plant(rng)
            net = random_relu_net(rng, d_in=plant.r, d_out=plant.m)
            _, maps = certify.extract_loop(plant, net, None, None)
            for factor in (1.5, 40.0):
                gamma_delta = np.full((plant.q, plant.s), factor / maps.l1("alpha_delta") / plant.s)
                gamma = float(np.max(np.sum(gamma_delta, axis=1)))
                for w in (1e-3, 1.0, 3e8):
                    for iters in (0, 1, 3, 40):
                        regions.clear()
                        result, quad = baseline_certify(plant, net, gamma_delta=gamma_delta,
                                                        w_inf=w, n_samples=200, seed=seed,
                                                        max_region_iter=iters)
                        want = full_scan(plant, net, gamma, w, 200, seed, iters)
                        assert repr(result) == repr(want) and quad is None
                        assert len(regions) == min(iters, 1)

    @pytest.mark.parametrize("gamma_delta", [[[0.1, 0.1]], np.zeros((3, 3)), [[-0.1]]])
    def test_baseline_checks_gamma_delta_as_algorithm1_does(self, gamma_delta):
        # Gamma_Delta must be a nonnegative (q, s) matrix on both routes
        plant = linsys.make_plant([[0.5]], [[1.0]], b_w=[[1.0]], b_delta=[[1.0]],
                                  c_alpha=[[1.0]], w_inf=0.1)
        with pytest.raises(ValueError) as want:
            algorithm1(plant, linear_policy(-0.2), gamma_delta=gamma_delta)
        with pytest.raises(ValueError) as got:
            baseline_certify(plant, linear_policy(-0.2), gamma_delta=gamma_delta,
                             n_samples=64)
        assert str(got.value) == str(want.value)

    def test_serialization_flags_estimate(self):
        result = BaselineResult(0.0, 0.5, True, 1.0, 0.2)
        obj = result.to_dict()
        assert "not a certificate" in obj["note"]
        assert obj["gamma_pi_sampled"] == 0.2


def fresh_draw_gain(net, k0, radius, n_samples, seed, quantization=None):
    """The sampled gain from fresh ``uniform`` draws and fresh arrays: the reference
    that the shared unit sample and the row buffers must match bit for bit."""
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
    return float(np.max(np.max(np.abs(residual[keep]), axis=1) / norms_y[keep]))


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestBaselineBuffers:
    def test_sampled_gain_matches_fresh_draws(self):
        for seed in range(40):
            rng = np.random.default_rng(300 + seed)
            net = random_relu_net(rng)
            k0 = rng.normal(size=(net.output_dim, net.input_dim))
            quant = neural.QuantizationSpec(0.05) if seed % 3 == 0 else None
            n_samples = 4096 if seed % 5 == 0 else 257
            radii = (0.3, rng.uniform(0.1, 2.0, size=net.input_dim), 1e-9, 0.0)
            for radius in radii:
                got = sampled_linf_gain(net, k0, radius, n_samples, seed, quant)
                want = fresh_draw_gain(net, k0, radius, n_samples, seed, quant)
                assert same_bits(got, want), (seed, radius)

    def test_baseline_certify_matches_fresh_draws(self, monkeypatch):
        cases = []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            plant = random_stable_plant(rng, with_uncertainty=False)
            net = random_relu_net(rng, d_in=plant.r, d_out=plant.m)
            quant = neural.QuantizationSpec(0.01) if seed % 3 == 0 else None
            for w in (0.01, 0.1, 1.0):
                cases.append((plant, net, quant, w, seed))

        def run(plant, net, quant, w, seed):
            result, quad = baseline_certify(plant, net, w_inf=w, quantization=quant,
                                            n_samples=300, seed=seed, check_limits=False)
            arrays = () if quad is None else (quad.y_bar, quad.u_bar, quad.x_bar)
            return repr(result), tuple(a.tobytes() for a in arrays)

        got = [run(*case) for case in cases]
        regions = []

        def fresh_sampler(net, k0, n_samples, seed, quantization):
            regions.append(0)

            def gain(radius):
                regions[-1] += 1
                return fresh_draw_gain(net, k0, radius, n_samples, seed, quantization)
            return gain

        monkeypatch.setattr(certify, "_gain_sampler", fresh_sampler)
        assert got == [run(*case) for case in cases]
        # the shared sample and buffers served several regions of one call
        assert max(regions) >= 3
        assert sum("certified=True" in text for text, _ in got) >= 10

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_no_samples_rejected(self, n_samples):
        net = linear_policy(0.3)
        with pytest.raises(ValueError, match="n_samples"):
            sampled_linf_gain(net, np.zeros((1, 1)), 1.0, n_samples)
        with pytest.raises(ValueError, match="n_samples"):
            baseline_certify(scalar_plant(w_inf=0.05), net, n_samples=n_samples)

    @pytest.mark.parametrize("radius", [-1.0, np.inf, np.nan])
    def test_bad_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius"):
            sampled_linf_gain(linear_policy(0.3), np.zeros((1, 1)), radius, 16)

    def test_concurrent_baseline_frontiers_match_sequential(self, monkeypatch):
        # the buffers are per call, so threads sampling at once cannot mix them;
        # random seeds 23 and 49 are corpus loops the baseline certifies
        cases = [(scalar_plant(), linear_policy(-0.2), [0.5, 1.0, 2.0])]
        for seed in (23, 49):
            rng = np.random.default_rng(seed)
            plant = random_stable_plant(rng, with_uncertainty=False)
            cases.append((plant, random_relu_net(rng, d_in=plant.r, d_out=plant.m),
                          [1.0, 2.0, 4.0]))

        def run_all():
            return [baseline_frontier(p, net, x_lim_values=limits, tol=1e-3, n_samples=1024)
                    for p, net, limits in cases]

        _empty_memo(monkeypatch)
        expected = run_all()
        assert all(w > 0 for points in expected for _, w in points)
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
