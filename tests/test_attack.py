"""Attack synthesis and the simulation harness."""

import collections
import re
import threading

import numpy as np
import pytest

from loopcert import attack, certify, linsys, neural
from loopcert.attack import (
    AttackPlan,
    DivergedAt,
    SimTrace,
    design_attack,
    load_plan,
    monte_carlo_attack,
    save_plan,
    save_trace,
    simulate,
)
from loopcert.plant import (
    CartPoleParams,
    NonlinearPlant,
    cartpole_linearized,
    cartpole_nonlinear,
    cartpole_step,
)

from conftest import (
    linear_policy,
    random_relu_net,
    random_stable_plant,
    scalar_plant,
    threshold_cases,
)


def _trace_or_partial(*args, **kwargs):
    """simulate's trace, or the partial trace it diverged with."""
    try:
        return simulate(*args, **kwargs)
    except DivergedAt as exc:
        return exc.trace


def _finishes(fn, timeout=30.0):
    """``fn()`` run in a daemon thread, failing instead of hanging past ``timeout``."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()), daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still running after {timeout} s"
    return result[0]


def _assert_row_matches(batch, row, single):
    """Row ``row`` of a batched trace equals ``single`` bit for bit, and is
    NaN past the steps ``single`` ran before diverging."""
    k = single.steps
    for signal in ("x", "y", "u"):
        got = getattr(batch, signal)[row]
        assert np.array_equal(got[:k], getattr(single, signal)), (row, signal)
        assert np.all(np.isnan(got[k:])), (row, signal)
    assert np.array_equal(batch.w[row, :k], single.w)


def _plain_recursion(plant, net, w, quant=None, x0=None, step=None):
    """x, y and u of the loop, one fresh array per product, step by step.

    ``step(x, u)`` is the plant's step before ``B_w w``; ``A x + B u`` when
    None.
    """
    if step is None:
        def step(x, u):
            return plant.a @ x + plant.b @ u
    x = np.zeros(plant.n) if x0 is None else x0
    xs, ys, us = [], [], []
    for t in range(w.shape[0]):
        y = plant.c @ x + plant.d_w @ w[t]
        u = neural.evaluate(net, y)
        if quant is not None:
            u = quant.apply(u)
        xs.append(x)
        ys.append(y)
        us.append(u)
        x = step(x, u) + plant.b_w @ w[t]
    return np.array(xs), np.array(ys), np.array(us)


def _assert_plain(trace, expected):
    """``trace`` equals the :func:`_plain_recursion` series bit for bit, over
    the steps it ran."""
    for signal, series in zip("xyu", expected):
        assert np.array_equal(getattr(trace, signal), series[:trace.steps]), signal


def _sequential_violation_level(plant, net, maps, target, horizon, x_limit, tol=1e-3,
                                quantization=None, max_doublings=24):
    """The one-rollout-per-amplitude bisection violation_level reproduces.

    Returns the level and the number of rollouts it took.
    """
    plan = design_attack(maps, target, horizon)
    rollouts = 0

    def violates(w):
        nonlocal rollouts
        rollouts += 1
        scaled = AttackPlan(plan.signs, w, target, horizon)
        try:
            trace = simulate(plant, net, scaled, horizon, quantization=quantization)
        except DivergedAt:
            return True
        return bool(trace.max_abs("x")[target] > x_limit)

    hi = tol
    doublings = 0
    while not violates(hi):
        hi *= 2.0
        doublings += 1
        if doublings > max_doublings:
            return np.inf, rollouts
    if hi == tol and violates(0.0):
        return 0.0, rollouts
    lo = 0.0
    while hi - lo > tol * hi:
        mid = (lo + hi) / 2.0
        if violates(mid):
            hi = mid
        else:
            lo = mid
    return hi, rollouts


@pytest.fixture()
def count_simulations(monkeypatch):
    """The row count of each simulate call made through the attack module,
    in call order (1 for an unbatched run)."""
    rows = []
    real = attack.simulate

    def spy(plant, net, w=None, *args, **kwargs):
        rows.append(len(w) if np.ndim(w) == 3 else 1)
        return real(plant, net, w, *args, **kwargs)

    monkeypatch.setattr(attack, "simulate", spy)
    return rows


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
            for horizon in (1, length // 2, length - 1, length, length + 7, 2 * length):
                for target in range(plant.n):
                    plan = design_attack(maps, target, horizon)
                    np.testing.assert_array_equal(plan.signs,
                                                  loop_signs(maps, target, horizon))

    def test_signs_match_the_stacked_impulse_response(self, cartpole, kd, cloned_policy):
        # the maps hold no impulse response; design_attack marches it again
        # from the realization, which must give the same signs as a response
        # built directly from impulse_response, on the LQR and the clone loops
        clone_gain = certify.extract_gain(cartpole, cloned_policy, None, kd)
        for gain in (kd, clone_gain):
            maps = linsys.close_loop(cartpole, gain)
            n, m, p, *_ = maps.dims
            phi = linsys.impulse_response(maps.a_cl, maps.bc, maps.cc,
                                          maps.dc).impulse[:, :n, m:m + p]
            for horizon in (2500, phi.shape[0] - 1, phi.shape[0] + 3):
                for target in range(n):
                    expected = np.zeros((horizon, p))
                    for t in range(max(horizon - phi.shape[0] + 1, 0), horizon):
                        expected[t] = np.sign(phi[horizon - t, target])
                    np.testing.assert_array_equal(
                        design_attack(maps, target, horizon).signs, expected)

    def test_bad_index(self, scalar_loop):
        _, _, maps = scalar_loop
        with pytest.raises(IndexError):
            design_attack(maps, 3, 10)

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_below_one(self, scalar_loop, horizon):
        # a plan of no steps has signs of shape (0, p), which simulate could
        # not read back from its file
        _, _, maps = scalar_loop
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            design_attack(maps, 0, horizon)


class TestSimulate:
    def test_zero_everything_stays_zero(self, scalar_loop):
        plant, net, _ = scalar_loop
        trace = simulate(plant, net, None, 50)
        assert np.array_equal(trace.max_abs("x"), [0.0])
        assert np.array_equal(trace.max_abs("u"), [0.0])

    def test_negative_steps(self, scalar_loop):
        # refused by name, not by numpy's "negative dimensions"; no steps is a run
        plant, net, maps = scalar_loop
        for w in (None, design_attack(maps, 0, 5)):
            with pytest.raises(ValueError, match="t_sim must be at least 0, got -1"):
                simulate(plant, net, w, -1)
            assert simulate(plant, net, w, 0).steps == 0

    def test_plan_of_other_channel_count(self, scalar_loop):
        # the plan's signal gets the same shape check as an array w, before
        # the loop's first product could fail on it
        plant, net, _ = scalar_loop
        plan = AttackPlan(signs=np.ones((5, 2)), w_inf=0.1, target=0, horizon=5)
        for w in (plan, plan.signal(8)):
            with pytest.raises(ValueError, match=r"w has shape \(8, 2\), expected \(8, 1\)"):
                simulate(plant, net, w, 8)

    def test_nonlinear_matches_linear_for_small_states(self, kd):
        params = CartPoleParams()
        nl = cartpole_nonlinear(params)
        lin = cartpole_linearized(params)
        net = neural.mlp([(kd, np.zeros(1))])
        x0 = np.array([0.0, 0.0, 1e-3, 0.0])
        t_nl = simulate(nl, net, None, 100, x0=x0)
        t_li = simulate(lin, net, None, 100, x0=x0)
        assert np.max(np.abs(t_nl.x - t_li.x)) <= 1e-5

    def test_matches_plain_recursion(self):
        # the per-step recursion of the simulator, over enough steps to cross
        # several blocks of precomputed perturbation terms
        for seed in range(12):
            rng = np.random.default_rng(seed)
            plant = random_stable_plant(rng)
            net = random_relu_net(rng, d_in=plant.r, d_out=plant.m)
            quant = neural.QuantizationSpec(0.05) if seed % 3 == 0 else None
            w = rng.uniform(-1.0, 1.0, size=(700, plant.p))
            trace = _trace_or_partial(plant, net, w, 700, quantization=quant)
            with np.errstate(all="ignore"):
                expected = _plain_recursion(plant, net, w, quant)
            _assert_plain(trace, expected)

    @pytest.mark.parametrize("quant", [None, neural.QuantizationSpec(0.1)])
    def test_clone_monte_carlo_matches_plain_recursion(self, cartpole, cloned_policy, quant):
        # the benchmark's Monte-Carlo runs: 5,000 steps of the session clone
        trace, _ = monte_carlo_attack(cartpole, cloned_policy, 1e-3, 5000, seed=3,
                                      quantization=quant)
        assert trace.steps == 5000
        _assert_plain(trace, _plain_recursion(cartpole, cloned_policy, trace.w, quant))

    def test_clone_designed_attack_matches_plain_recursion(self, cartpole, cloned_policy, kd):
        # the benchmark's designed attack and violation_level rollouts
        limited = certify.with_state_limit(cartpole, 2, 0.005)
        _, maps = certify.extract_loop(limited, cloned_policy, None, kd)
        plan = design_attack(maps, 2, 2500, w_inf=1e-3)
        trace = simulate(cartpole, cloned_policy, plan, 2500)
        _assert_plain(trace, _plain_recursion(cartpole, cloned_policy, plan.signal(2500)))

    def test_nonlinear_matches_plain_cartpole_step_loop(self, cloned_policy):
        params = CartPoleParams()
        plant = cartpole_nonlinear(params)
        w = np.random.default_rng(4).uniform(-1e-3, 1e-3, size=(3000, 1))
        x0 = np.array([0.0, 0.0, 0.05, 0.0])
        trace = simulate(plant, cloned_policy, w, 3000, x0=x0)
        assert trace.steps == 3000
        _assert_plain(trace, _plain_recursion(plant, cloned_policy, w, x0=x0,
                                              step=lambda x, u: cartpole_step(params, x, u)))

    def test_rejects_misshapen_inputs(self, kd):
        # x0 is one state, or one per row; the network reads the plant's y
        net = neural.mlp([(kd, np.zeros(1))])
        for plant in (cartpole_linearized(), cartpole_nonlinear()):
            for x0 in (np.zeros(3), np.zeros((2, 4)), np.zeros((1, 1, 4)), 0.0):
                with pytest.raises(ValueError, match="x0"):
                    simulate(plant, net, None, 5, x0=x0)
        with pytest.raises(ValueError, match="x0"):
            simulate(cartpole_linearized(), net, np.zeros((2, 5, 1)), 5, x0=np.zeros((3, 4)))
        with pytest.raises(ValueError, match="network expects 3"):
            simulate(cartpole_linearized(), neural.mlp([(np.ones((1, 3)), np.zeros(1))]),
                     None, 5)
        # a nonlinear step must return one whole state, not one to broadcast
        short = NonlinearPlant(step=lambda x, u: x[:1], c=np.eye(2), d_w=np.zeros((2, 1)),
                               b_w=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            simulate(short, neural.mlp([(np.ones((1, 2)), np.zeros(1))]), None, 5)

    def test_rejects_a_policy_of_other_output_width(self, kd):
        # the cart-pole takes one control; a two-output policy is refused on
        # entry, unbatched and batched, before any step runs
        net = neural.mlp([(np.vstack([kd, kd]), np.zeros(2))])
        plant = cartpole_linearized()
        for w in (None, np.zeros((5, 1)), np.zeros((3, 5, 1))):
            with pytest.raises(ValueError, match=r"^policy maps 4->2, plant needs 4->1$"):
                simulate(plant, net, w, 5)

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


class TestBatchedSimulate:
    def test_rows_match_single_runs_on_corpus(self):
        # 60 random loops, 4 rows each with their own w and x0; every third
        # loop quantized; some rows diverge, and are then NaN past it
        for seed in range(60):
            rng = np.random.default_rng(seed)
            plant = random_stable_plant(rng)
            net = random_relu_net(rng, d_in=plant.r, d_out=plant.m)
            quant = neural.QuantizationSpec(0.05) if seed % 3 == 0 else None
            w = rng.uniform(-1.0, 1.0, size=(4, 150, plant.p))
            x0 = rng.normal(size=(4, plant.n))
            batch = _trace_or_partial(plant, net, w, 150, x0=x0, quantization=quant)
            assert batch.x.shape == (4, 150, plant.n)
            for row in range(4):
                single = _trace_or_partial(plant, net, w[row], 150, x0=x0[row],
                                           quantization=quant)
                _assert_row_matches(batch, row, single)

    def test_rows_match_single_runs_on_cartpole_clone(self, cartpole, cloned_policy, kd):
        # 16 rows through the clone's 16-wide layers: a 2-D (B, 16) @ (16, 16)
        # product differs in bits from the per-row one for B >= 8, which the
        # corpus's 4 rows do not reach; the amplitudes run from below the
        # violation levels (about 1e-3) to far past them, as a search's do
        _, maps = certify.extract_loop(cartpole, cloned_policy, None, kd)
        signs = design_attack(maps, 2, 1000).signs
        w = np.geomspace(1e-4, 1.0, 16)[:, None, None] * signs
        batch = _trace_or_partial(cartpole, cloned_policy, w, 1000)
        assert batch.x.shape == (16, 1000, 4)
        for row in range(16):
            _assert_row_matches(batch, row, _trace_or_partial(cartpole, cloned_policy, w[row],
                                                              1000))

    def test_diverging_row_leaves_the_others_alone(self, scalar_loop):
        plant, net, _ = scalar_loop
        rng = np.random.default_rng(5)
        w = rng.uniform(-0.1, 0.1, size=(3, 60, 1))
        w[1, 20] = 1e13  # row 1 overflows at step 20
        with pytest.raises(DivergedAt) as err:
            simulate(plant, net, w, 60)
        assert err.value.step == 20
        np.testing.assert_array_equal(err.value.rows, [-1, 20, -1])
        for row in range(3):
            _assert_row_matches(err.value.trace, row,
                                _trace_or_partial(plant, net, w[row], 60))

    def test_all_rows_diverging_stops_the_loop(self):
        plant = linsys.make_plant([[2.0]], [[1.0]], b_w=[[1.0]])
        with pytest.raises(DivergedAt) as err:
            simulate(plant, linear_policy(0.0), np.zeros((2, 10_000, 1)), 10_000,
                     x0=np.array([[1.0], [-4.0]]))
        single = _trace_or_partial(plant, linear_policy(0.0), None, 10_000, x0=np.array([1.0]))
        assert err.value.rows[0] == single.steps - 1
        assert err.value.step == err.value.rows[1] < err.value.rows[0]

    def test_a_dead_row_keeps_its_first_overflow(self):
        # row 0 overflows at step 12; moved back to rest, it keeps stepping
        # under w = 1 and overflows again at step 38, which must not move
        # its divergence step or the start of its NaN fill
        plant = linsys.make_plant([[10.0]], [[1.0]], b_w=[[1.0]])
        w = np.zeros((2, 40, 1))
        w[0] = 1.0
        with pytest.raises(DivergedAt) as err:
            simulate(plant, linear_policy(0.0), w, 40)
        single = _trace_or_partial(plant, linear_policy(0.0), w[0], 40)
        assert err.value.step == single.steps - 1 == 12
        np.testing.assert_array_equal(err.value.rows, [12, -1])
        for row in range(2):
            _assert_row_matches(err.value.trace, row,
                                _trace_or_partial(plant, linear_policy(0.0), w[row], 40))

    def test_unbatched_shapes_unchanged(self, scalar_loop):
        plant, net, maps = scalar_loop
        plan = design_attack(maps, 0, 30, w_inf=0.1)
        for w in (None, plan, np.zeros((40, 1))):
            trace = simulate(plant, net, w, 40)
            assert trace.x.shape == (40, 1) and trace.w.shape == (40, 1)
            assert trace.max_abs("x").shape == (1,)
        batch = simulate(plant, net, np.zeros((2, 40, 1)), 40)
        assert batch.steps == 40 and batch.max_abs("u").shape == (2, 1)

    def test_one_state_step_matches_plain_product_and_stack_row(self):
        # an (n,) state steps through np.dot and a (B, 1, n) stack through
        # np.matmul, both with the bits of A x + B u: when this class's two
        # simulator paths part, this test tells whether the plant's step did
        for seed in range(40):
            rng = np.random.default_rng(seed)
            plant = random_stable_plant(rng)
            single, _, _, _ = attack._plant_hooks(plant, batched=False)
            stacked, _, _, _ = attack._plant_hooks(plant, batched=True)
            xs, us = rng.normal(size=(5, 1, plant.n)), rng.normal(size=(5, 1, plant.m))
            stack_out = np.empty((5, 1, plant.n))
            stacked(xs, us, stack_out)
            for row in range(5):
                x, u, out = xs[row, 0], us[row, 0], np.empty(plant.n)
                single(x, u, out)
                assert np.array_equal(out, plant.a @ x + plant.b @ u), (seed, row)
                assert np.array_equal(out, stack_out[row, 0]), (seed, row)

    def test_rejects_batch_on_nonlinear_plant(self, kd):
        net = neural.mlp([(kd, np.zeros(1))])
        with pytest.raises(ValueError):
            simulate(cartpole_nonlinear(), net, np.zeros((2, 10, 1)), 10)

    def test_rejects_mismatched_batch(self, scalar_loop):
        plant, net, _ = scalar_loop
        with pytest.raises(ValueError):
            simulate(plant, net, np.zeros((2, 9, 1)), 10)


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

    @pytest.mark.parametrize("w_inf, t_sim, message", [
        (0.1, 0, "t_sim must be at least 1, got 0"),
        (0.1, -3, "t_sim must be at least 1, got -3"),
        (-1.0, 10, "w_inf must be finite and nonnegative, got -1.0"),
        (np.nan, 10, "w_inf must be finite and nonnegative, got nan"),
        (np.inf, 10, "w_inf must be finite and nonnegative, got inf"),
    ])
    def test_rejects_bad_inputs_before_any_draw(self, scalar_loop, monkeypatch,
                                                count_simulations, w_inf, t_sim, message):
        # numpy's errors named neither argument: a reduction over no steps,
        # "high - low < 0" and an OverflowError
        plant, net, _ = scalar_loop
        draws = []
        monkeypatch.setattr(np.random, "default_rng", lambda *args: draws.append(args))
        with pytest.raises(ValueError, match=re.escape(message)):
            monte_carlo_attack(plant, net, w_inf, t_sim)
        assert draws == [] and count_simulations == []

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
        reference, _ = _sequential_violation_level(plant, net, maps, 0, 200, 0.1, tol=1e-4)
        assert level == reference

    def test_cartpole_matches_sequential_with_fewer_rollouts(self, cartpole, cloned_policy,
                                                             kd, count_simulations):
        limited = certify.with_state_limit(cartpole, 2, 0.005)
        _, maps = certify.extract_loop(limited, cloned_policy, None, kd)
        level = attack.violation_level(limited, cloned_policy, maps, 2, 2500, 0.005)
        calls = list(count_simulations)
        reference, rollouts = _sequential_violation_level(limited, cloned_policy, maps,
                                                          2, 2500, 0.005)
        assert level == reference
        assert rollouts == 13 and calls == [14]

    def test_learned_cartpole_in_one_call(self, learned_cartpole, cloned_policy, kd,
                                          count_simulations):
        # the benchmark's search on the learned plant's wider loop
        learned, _ = learned_cartpole
        limited = certify.with_state_limit(learned, 2, 0.005)
        _, maps = certify.extract_loop(limited, cloned_policy, None, kd)
        level = attack.violation_level(limited, cloned_policy, maps, 2, 2500, 0.005)
        assert len(count_simulations) == 1
        assert level == _sequential_violation_level(limited, cloned_policy, maps,
                                                    2, 2500, 0.005)[0]

    def test_random_loops_match_sequential(self, count_simulations):
        # random ReLU loops, some of whose rollouts diverge, with quantization
        # on every third; on seeds 4, 5 and 8 the unforced loop already
        # leaves the box, so amplitudes tol and 0 both violate and the level
        # is 0 after two rollouts, both rows of the first batched call
        calls = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            plant = random_stable_plant(rng, with_uncertainty=False)
            net = random_relu_net(rng, d_in=plant.r, d_out=plant.m)
            quant = neural.QuantizationSpec(0.05) if seed % 3 == 0 else None
            maps = linsys.close_loop(plant, np.zeros((plant.m, plant.r)))
            target = int(rng.integers(plant.n))
            x_limit = float(rng.uniform(0.5, 5.0))
            tol = float(rng.choice([1e-3, 1e-2]))
            args = (plant, net, maps, target, 50, x_limit, tol, quant)
            count_simulations.clear()
            level = attack.violation_level(*args)
            reference, rollouts = _sequential_violation_level(*args)
            assert level == reference
            if seed in (4, 5, 8):
                assert (level, rollouts, len(count_simulations)) == (0.0, 2, 1), seed
            calls += len(count_simulations)
        # 47 with a blind depth-3 midpoint tree a round
        assert calls == 26

    def test_threshold_amplitudes_match_sequential(self, scalar_loop, monkeypatch):
        # a stand-in simulator whose every state is the amplitude of its row
        # (its largest |w|), so a limit on x is a threshold on the amplitude;
        # a non-strict case puts every state one float above its amplitude,
        # so that the threshold itself, 0 too, breaks the limit
        plant, net, maps = scalar_loop
        asked = collections.Counter()

        class AskedForever(Exception):
            pass

        def peak(level):
            return level if strict else np.nextafter(level, np.inf)

        def amplitude_trace(plant, net, w, t_sim, quantization=None):
            w = w.signal(t_sim) if isinstance(w, AttackPlan) else np.asarray(w)
            level = np.max(np.abs(w), axis=(-2, -1))
            for v in np.ravel(level).tolist():
                asked[v] += 1
                if asked[v] > 2:
                    raise AskedForever
            x = np.broadcast_to(peak(level)[..., None, None], w.shape[:-1] + (plant.n,))
            return SimTrace(x, x, x, w)

        monkeypatch.setattr(attack, "simulate", amplitude_trace)
        monkeypatch.setitem(globals(), "simulate", amplitude_trace)
        # 500 cases: the sequential reference takes about 8 ms per case
        for threshold, strict, tol in threshold_cases(500, seed=2):
            args = (plant, net, maps, 0, 4, threshold, tol)
            case = (threshold, strict, tol)
            asked.clear()
            level = attack.violation_level(*args)
            assert max(asked.values()) == 1, case
            asked.clear()
            try:
                reference = _sequential_violation_level(*args)[0]
            except AskedForever:
                # the sequential search bisects [0, hi] and so asks the last
                # doubling twice; it asks a third time only once no float lies
                # inside its bracket, and would then ask forever, with hi the
                # least violating amplitude asked
                reference = min(v for v in asked if peak(v) > threshold)
            assert level == reference, case

    def test_no_violation_returns_inf(self, scalar_loop, monkeypatch):
        plant, net, maps = scalar_loop
        args = (plant, net, maps, 0, 50, 1e3, 1e-3, None)
        monkeypatch.setattr(attack, "_CAP_DOUBLINGS", 5)
        assert attack.violation_level(*args) == np.inf
        assert _sequential_violation_level(*args, max_doublings=5) == (np.inf, 6)

    def test_bracket_of_adjacent_floats_ends(self, scalar_loop, monkeypatch):
        # tol far below one ulp: the bisection narrows to two adjacent floats,
        # whose midpoint is one of them, and must stop there
        plant, net, maps = scalar_loop
        monkeypatch.setattr(attack, "_CAP_DOUBLINGS", 80)
        level = _finishes(lambda: attack.violation_level(plant, net, maps, 0, 200, 0.5,
                                                         tol=1e-20))
        assert level == pytest.approx(0.35, rel=1e-9)

    def test_every_positive_amplitude_violating_ends(self):
        # a deadzone loop: the quantizer holds u = 0 while |x| < 5e-13, so the
        # open-loop growth 1e12 carries any positive amplitude past x_limit,
        # while amplitude 0 stays at the origin; the bracket ends at [0, 5e-324]
        gain = -(1e12 - 0.5)
        plant = scalar_plant(a=1e12)
        net = linear_policy(gain)
        maps = linsys.close_loop(plant, np.array([[gain]]))
        quant = neural.QuantizationSpec(1.0)
        level = _finishes(lambda: attack.violation_level(plant, net, maps, 0, 50, 1e-13,
                                                         quantization=quant))
        assert level == 5e-324

    @pytest.mark.parametrize("tol", [0.0, -1e-3, np.nan, 1.0, 2.0, np.inf])
    def test_rejects_nonpositive_tol(self, scalar_loop, tol):
        plant, net, maps = scalar_loop
        with pytest.raises(ValueError, match=r"tol must be in \(0, 1\)"):
            attack.violation_level(plant, net, maps, 0, 50, 0.1, tol=tol)

    def test_rejects_empty_horizon(self, scalar_loop):
        plant, net, maps = scalar_loop
        with pytest.raises(ValueError, match="horizon"):
            attack.violation_level(plant, net, maps, 0, 0, 0.1)


class TestViolationLevels:
    """Every (target, limit) pair in lock-step against one sequential search each."""

    def test_random_loops_match_least_sequential_level_over_targets(self, count_simulations):
        # limits 0 and inf with every target; at inf only a diverging row
        # breaks the limit, which happens on some seeds; quantized outputs on
        # every third seed, where peaks are least linear in the amplitude and
        # the guessed verdicts most often wrong
        finite_at_inf = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            plant = random_stable_plant(rng, with_uncertainty=False)
            net = random_relu_net(rng, d_in=plant.r, d_out=plant.m)
            maps = linsys.close_loop(plant, np.zeros((plant.m, plant.r)))
            limits = [0.0, float(rng.uniform(0.2, 1.0)), float(rng.uniform(1.0, 5.0)), np.inf]
            tol = float(rng.choice([1e-3, 1e-2]))
            quant = neural.QuantizationSpec(0.05) if seed % 3 == 0 else None
            targets = range(plant.n)
            levels = attack.violation_levels(plant, net, maps, targets, 50, limits, tol, quant)
            for limit, level in zip(limits, levels):
                reference = min(_sequential_violation_level(plant, net, maps, target, 50, limit,
                                                            tol, quant)[0] for target in targets)
                assert level == reference, (seed, limit)
            finite_at_inf += levels[-1] < np.inf
        assert 0 < finite_at_inf < 8
        # 38 with a blind depth-3 midpoint tree a round
        assert len(count_simulations) == 23

    def test_cartpole_column_in_two_calls(self, cartpole, cloned_policy, kd,
                                          count_simulations):
        # the frontier --with-attack column of the cart-pole sweep: one
        # violation_level per limit made 25 simulate calls, and a blind
        # depth-3 midpoint tree a round made 5
        values = [0.001, 0.002, 0.003, 0.005, 0.008]
        _, maps = certify.extract_loop(cartpole, cloned_policy, None, kd)
        levels = attack.violation_levels(cartpole, cloned_policy, maps, [2], 2500, values, 1e-3,
                                          None)
        assert (len(count_simulations), sum(count_simulations)) == (2, 61)
        assert levels == [attack.violation_level(cartpole, cloned_policy, maps, 2, 2500, v)
                          for v in values]
        assert levels == [0.00026928710937500005, 0.0005385742187500001,
                          0.00080761718750000007, 0.0013457031249999999,
                          0.0021640625000000002]

    @pytest.mark.parametrize("limit", [-1e-3, -np.inf, np.nan])
    def test_rejects_a_negative_or_nan_limit(self, scalar_loop, count_simulations, limit):
        # every peak would break it, and the level would read 0.0
        plant, net, maps = scalar_loop
        with pytest.raises(ValueError, match=re.escape(f"limit must be >= 0, got {limit}")):
            attack.violation_levels(plant, net, maps, [0], 50, [0.1, limit], 1e-3, None)
        assert count_simulations == []

    def test_rejects_no_target(self, scalar_loop, count_simulations):
        # no pair would be bisected, and the level would read inf
        plant, net, maps = scalar_loop
        with pytest.raises(ValueError, match="targets must name at least one state"):
            attack.violation_levels(plant, net, maps, [], 50, [0.1], 1e-3, None)
        assert count_simulations == []


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

    def test_non_finite_plan_is_not_written(self, tmp_path, scalar_loop):
        # strict JSON has no Infinity; the plan is refused before the file opens
        _, _, maps = scalar_loop
        path = tmp_path / "plan.json"
        with pytest.raises(ValueError):
            save_plan(path, design_attack(maps, 0, 25, w_inf=np.inf))
        assert not path.exists()

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
