"""Identification and bootstrap error boxes."""

import numpy as np
import pytest

from loopcert import sysid
from loopcert.plant import NonlinearPlant, cartpole_linearized
from loopcert.sysid import (
    Episode,
    RankDeficient,
    bootstrap_uncertainty,
    collect,
    least_squares_fit,
    uncertain_plant,
)


def linear_test_plant(a=0.9, b=0.5):
    return NonlinearPlant(step=lambda x, u: np.array([a * x[0] + b * u[0]]),
                          c=np.eye(1), d_w=np.zeros((1, 1)), b_w=np.zeros((1, 1)))


class TestCollect:
    def test_single_transition(self):
        episodes = collect(linear_test_plant(), 1, ep_len=1, seed=0)
        assert len(episodes) == 1
        assert episodes[0].states.shape == (2, 1)
        assert episodes[0].inputs.shape == (1, 1)

    @pytest.mark.parametrize("ep_len", [0, -1])
    def test_rejects_empty_episodes(self, ep_len):
        with pytest.raises(ValueError, match="at least one step"):
            collect(linear_test_plant(), 1, ep_len=ep_len)

    def test_seeded_determinism(self):
        a = collect(linear_test_plant(), 3, ep_len=5, seed=9)
        b = collect(linear_test_plant(), 3, ep_len=5, seed=9)
        for ea, eb in zip(a, b):
            np.testing.assert_array_equal(ea.states, eb.states)
            np.testing.assert_array_equal(ea.inputs, eb.inputs)

    def test_one_state_step_collects_its_per_episode_loop(self):
        # a step without the stacks mark gets one state and one input per call
        def one_state(x, u):
            assert x.shape == (2,) and u.shape == (1,)
            return np.array([0.9 * x[0] + np.sin(x[1]) * u[0], 0.5 * x[0] - x[1] ** 2 + u[0]])

        plant = NonlinearPlant(step=one_state, c=np.eye(2), d_w=np.zeros((2, 1)),
                               b_w=np.zeros((2, 1)))
        for seed in range(3):
            got = collect(plant, 4, ep_len=7, u_amplitude=0.3, seed=seed)
            rng = np.random.default_rng(seed)
            for episode in got:
                inputs = rng.uniform(-0.3, 0.3, size=(7, 1))
                states = np.zeros((8, 2))
                for t in range(7):
                    states[t + 1] = one_state(states[t], inputs[t])
                assert episode.inputs.tobytes() == inputs.tobytes()
                assert episode.states.tobytes() == states.tobytes()

    def test_episodes_view_one_buffer(self):
        episodes = collect(linear_test_plant(), 3, ep_len=4, seed=1)
        for episode in episodes:
            assert episode.states.flags.c_contiguous and episode.inputs.flags.c_contiguous
        assert episodes[0].states.base is episodes[2].states.base is not None

    def test_spread_grows_with_amplitude(self, cartpole_nl):
        small = collect(cartpole_nl, 20, u_amplitude=0.1, seed=3)
        large = collect(cartpole_nl, 20, u_amplitude=1.0, seed=3)
        var_small = np.var(np.vstack([e.states for e in small]))
        var_large = np.var(np.vstack([e.states for e in large]))
        assert var_large > var_small


class TestLeastSquares:
    def test_noiseless_scalar_recovery(self):
        episodes = collect(linear_test_plant(0.9, 0.5), 5, ep_len=10, seed=0)
        a, b = least_squares_fit(episodes)
        assert abs(a[0, 0] - 0.9) < 1e-10
        assert abs(b[0, 0] - 0.5) < 1e-10

    def test_cartpole_fit_approaches_linearization(self, cartpole_nl):
        lin = cartpole_linearized()
        dist = {}
        for amp in (0.5, 0.1):
            a, b = least_squares_fit(collect(cartpole_nl, 50, u_amplitude=amp, seed=3))
            dist[amp] = np.linalg.norm(a - lin.a) + np.linalg.norm(b - lin.b)
        assert dist[0.1] < dist[0.5] < 1e-2

    def test_repeated_transition_is_rank_deficient(self):
        episode = Episode(states=np.zeros((2, 4)), inputs=np.zeros((1, 1)))
        with pytest.raises(RankDeficient):
            least_squares_fit([episode] * 10)

    @pytest.mark.parametrize("fit", [least_squares_fit, bootstrap_uncertainty])
    def test_no_episodes_is_an_error(self, fit):
        with pytest.raises(ValueError, match="^need at least one episode$"):
            fit([])


def reference_fit(episodes):
    """:func:`least_squares_fit` as first written, restacking its episodes."""
    regressors = np.vstack([np.hstack([ep.states[:-1], ep.inputs]) for ep in episodes])
    targets = np.vstack([ep.states[1:] for ep in episodes])
    n = targets.shape[1]
    if regressors.shape[0] < regressors.shape[1]:
        raise RankDeficient("fewer transitions than parameters per state row")
    scale = np.max(np.abs(regressors), axis=0)
    if np.any(scale == 0.0):
        raise RankDeficient("a regressor column is identically zero")
    gram = (regressors / scale).T @ (regressors / scale)
    if np.linalg.cond(gram) > sysid._COND_LIMIT:
        raise RankDeficient("regressor Gram matrix is numerically singular")
    theta, *_ = np.linalg.lstsq(regressors, targets, rcond=None)
    return theta.T[:, :n], theta.T[:, n:]


def reference_bootstrap(episodes, n_boot, seed):
    """:func:`bootstrap_uncertainty` as first written: every resample's
    episodes refit from scratch."""
    a0, b0 = reference_fit(episodes)
    delta_a, delta_b = np.zeros_like(a0), np.zeros_like(b0)
    rng = np.random.default_rng(seed)
    for _ in range(n_boot):
        picks = rng.integers(0, len(episodes), size=len(episodes))
        a_j, b_j = reference_fit([episodes[i] for i in picks])
        delta_a = np.maximum(delta_a, np.abs(a_j - a0))
        delta_b = np.maximum(delta_b, np.abs(b_j - b0))
    return a0, b0, delta_a, delta_b


def outcome(fn, *args):
    """The bytes of every array ``fn`` returns, or the RankDeficient it raises."""
    try:
        result = fn(*args)
    except RankDeficient as exc:
        return str(exc)
    if isinstance(result, sysid.LearnedModel):
        result = result.a0, result.b0, result.delta_a, result.delta_b
    return [a.tobytes() for a in result]


def decision(result):
    """The RankDeficient message of an :func:`outcome`, or ``"fit"``."""
    return result if isinstance(result, str) else "fit"


def truncated(episode, steps):
    return Episode(states=episode.states[:steps + 1], inputs=episode.inputs[:steps])


class TestRefitsMatchTheRestackingLoop:
    """The bootstrap's refits take rows of one stacked design; each must see
    the bits a refit of the resampled episodes from scratch sees."""

    def test_unequal_and_empty_episodes(self, cartpole_nl):
        rng = np.random.default_rng(4)
        full = collect(cartpole_nl, 40, ep_len=30, u_amplitude=0.5, seed=4)
        episodes = [truncated(ep, int(k)) for ep, k in zip(full, rng.integers(0, 31, size=40))]
        # zero transitions in the middle and last, where np.maximum.reduceat
        # would read the next row or past the end
        episodes[7] = episodes[-1] = truncated(full[7], 0)
        for seed in range(3):
            want = outcome(reference_bootstrap, episodes, 100, seed)
            assert isinstance(want, list)
            assert outcome(bootstrap_uncertainty, episodes, 100, seed) == want
        assert outcome(least_squares_fit, episodes) == outcome(reference_fit, episodes)

    def test_rank_deficient_resamples_raise_the_same_way(self, cartpole_nl):
        # a resample of only the all-zero and the empty episode has a zero
        # column, one of only the empty episode too few rows; the nominal fit
        # is well posed.  The empty episode's column maxima are 0, not those
        # of the next episode's first row, which has no zero entry.
        excited = collect(cartpole_nl, 1, ep_len=33, u_amplitude=0.5, seed=5)[0]
        episodes = [Episode(states=np.zeros((7, 4)), inputs=np.zeros((6, 1))),
                    Episode(states=np.zeros((1, 4)), inputs=np.zeros((0, 1))),
                    Episode(states=excited.states[3:], inputs=excited.inputs[3:])]
        assert np.all(episodes[2].states[0] != 0.0)
        seen = set()
        for seed in range(40):
            want = outcome(reference_bootstrap, episodes, 3, seed)
            assert outcome(bootstrap_uncertainty, episodes, 3, seed) == want
            seen.add(want if isinstance(want, str) else "fit")
        assert seen == {"fit", "a regressor column is identically zero",
                        "fewer transitions than parameters per state row"}


def near_collinear(rng, episodes=6, steps=8):
    """Episodes whose input is the first state plus noise of a log-uniform
    width, each episode's within two decades of the design's.  Every column
    is scaled by a log-uniform factor from 1e-8 to 1e3, and each episode's
    states by one more from 1e-3 to 1 (its input by the first state's), so
    that a resample's condition number and column maxima are not the whole
    design's."""
    col = 10.0 ** rng.uniform(-8, 3, size=5)
    lowest = rng.uniform(-10, -1)
    out = []
    for _ in range(episodes):
        ep_col = col * 10.0 ** rng.uniform(-3, 0, size=4)[[0, 1, 2, 3, 0]]
        width = 10.0 ** rng.uniform(lowest, lowest + 2)
        states = rng.standard_normal((steps + 1, 4))
        inputs = states[:-1, :1] + width * rng.standard_normal((steps, 1))
        out.append(Episode(states=states * ep_col[:4], inputs=inputs * ep_col[4]))
    return out


def equilibrated_cond(episodes):
    regressors = np.vstack([np.hstack([ep.states[:-1], ep.inputs]) for ep in episodes])
    equilibrated = regressors / np.max(np.abs(regressors), axis=0)
    return np.linalg.cond(equilibrated.T @ equilibrated)


def scaled(episodes, factor):
    return [Episode(states=ep.states * factor, inputs=ep.inputs * factor) for ep in episodes]


class TestRankTestFromEpisodeGrams:
    """The rank test reads a Gram summed from per-episode Grams, not one
    formed from the rows; its decisions must be those of the rows' Gram."""

    def test_near_collinear_designs_decide_as_the_rows_gram(self):
        rng = np.random.default_rng(11)
        conds, decisions = [], set()
        for seed in range(150):
            episodes = near_collinear(rng)
            conds.append(equilibrated_cond(episodes))
            want = outcome(reference_fit, episodes)
            assert outcome(least_squares_fit, episodes) == want
            decisions.add(decision(want))
            assert outcome(bootstrap_uncertainty, episodes, 4, seed) == \
                outcome(reference_bootstrap, episodes, 4, seed)
        assert min(conds) < 1e3 and max(conds) > 1e16
        assert decisions == {"fit", "regressor Gram matrix is numerically singular"}

    @pytest.mark.parametrize("factor", [1e150, 1e-150])
    def test_extreme_scales_fit_and_decide_as_unscaled(self, factor):
        # the per-episode Grams are formed over the column maxima, so scaling
        # the design changes no decision and neither overflows nor underflows
        rng = np.random.default_rng(12)
        kinds = set()
        for seed in range(30):
            episodes = near_collinear(rng)
            big = scaled(episodes, factor)
            want = outcome(reference_bootstrap, big, 4, seed)
            assert outcome(bootstrap_uncertainty, big, 4, seed) == want
            assert outcome(least_squares_fit, big) == outcome(reference_fit, big)
            plain = decision(outcome(bootstrap_uncertainty, episodes, 4, seed))
            assert decision(want) == plain
            kinds.add(plain)
        assert "fit" in kinds and len(kinds) > 1

    @pytest.mark.parametrize("tiny", [1e-160, 1e-200, 1e-300])
    def test_resamples_far_below_the_design_scale_fit_as_the_rows(self, tiny):
        # one episode's input is 1 / tiny times the others', so a resample
        # without it equilibrates by a scale far below the whole design's
        rng = np.random.default_rng(14)
        episodes = [Episode(states=rng.standard_normal((9, 4)),
                            inputs=rng.standard_normal((8, 1)) * (1.0 if i == 0 else tiny))
                    for i in range(6)]
        assert outcome(bootstrap_uncertainty, episodes, 20, 3) == \
            outcome(reference_bootstrap, episodes, 20, 3)

    def test_learned_cartpole_bootstrap_is_the_reference(self, cartpole_nl):
        episodes = collect(cartpole_nl, 100, seed=1)
        want = outcome(reference_bootstrap, episodes, 100, 1)
        assert isinstance(want, list)
        assert outcome(bootstrap_uncertainty, episodes, 100, 1) == want


class TestBootstrap:
    def test_noiseless_data_gives_zero_boxes(self):
        episodes = collect(linear_test_plant(), 8, ep_len=6, seed=1)
        model = bootstrap_uncertainty(episodes, n_boot=30, seed=1)
        assert np.max(model.delta_a) < 1e-12
        assert np.max(model.delta_b) < 1e-12

    def test_every_bootstrap_fit_inside_box(self, cartpole_nl):
        episodes = collect(cartpole_nl, 20, u_amplitude=0.5, seed=6)
        model = bootstrap_uncertainty(episodes, n_boot=40, seed=6)
        rng = np.random.default_rng(6)
        for _ in range(40):
            picks = rng.integers(0, len(episodes), size=len(episodes))
            a_j, b_j = least_squares_fit([episodes[i] for i in picks])
            assert np.all(np.abs(a_j - model.a0) <= model.delta_a + 1e-15)
            assert np.all(np.abs(b_j - model.b0) <= model.delta_b + 1e-15)

    def test_boxes_shrink_with_more_episodes(self, cartpole_nl):
        # entries at the float-noise floor (exactly fitted integrator rows)
        # are excluded; every meaningful entry tightens from N=10 to N=100
        floor = 1e-9
        m10 = bootstrap_uncertainty(collect(cartpole_nl, 10, u_amplitude=0.5, seed=1),
                                    n_boot=100, seed=1)
        m100 = bootstrap_uncertainty(collect(cartpole_nl, 100, u_amplitude=0.5, seed=1),
                                     n_boot=100, seed=1)
        assert np.all((m100.delta_a <= m10.delta_a) | (m10.delta_a < floor))
        assert np.all((m100.delta_b <= m10.delta_b) | (m10.delta_b < floor))
        assert np.max(m100.delta_a) < np.max(m10.delta_a)

    def test_full_fit_residual_never_beaten(self, cartpole_nl):
        episodes = collect(cartpole_nl, 15, u_amplitude=0.5, seed=8)
        a0, b0 = least_squares_fit(episodes)

        def residual(a, b):
            total = 0.0
            for ep in episodes:
                pred = ep.states[:-1] @ a.T + ep.inputs @ b.T
                total += float(np.sum((ep.states[1:] - pred) ** 2))
            return total

        base = residual(a0, b0)
        rng = np.random.default_rng(8)
        for _ in range(20):
            picks = rng.integers(0, len(episodes), size=len(episodes))
            a_j, b_j = least_squares_fit([episodes[i] for i in picks])
            assert residual(a_j, b_j) >= base - 1e-9

    @pytest.mark.xfail(
        strict=True,
        reason="the nonlinearity-induced fit bias is systematic while episode "
               "resampling only measures variance, so the true linearization "
               "sits outside the bootstrap box by a factor of about three at "
               "every excitation amplitude and episode length; see the "
               "decisions ledger")
    def test_true_matrices_covered_in_most_runs(self, cartpole_nl):
        lin = cartpole_linearized()
        covered = 0
        for seed in range(20):
            model = bootstrap_uncertainty(
                collect(cartpole_nl, 100, u_amplitude=0.5, seed=100 + seed),
                n_boot=100, seed=100 + seed)
            inside = (np.all(np.abs(lin.a - model.a0) <= model.delta_a)
                      and np.all(np.abs(lin.b - model.b0) <= model.delta_b))
            covered += inside
        assert covered >= 18  # >= 90% of 20 runs


class TestEpisodeFiles:
    def test_csv_round_trip(self, tmp_path, cartpole_nl):
        episodes = sysid.collect(cartpole_nl, 3, ep_len=5, u_amplitude=0.5, seed=4)
        path = tmp_path / "episodes.csv"
        sysid.save_episodes(path, episodes)
        loaded = sysid.load_episodes(path)
        assert len(loaded) == len(episodes)
        for original, copy in zip(episodes, loaded):
            np.testing.assert_array_equal(original.states, copy.states)
            np.testing.assert_array_equal(original.inputs, copy.inputs)


class TestUncertainPlant:
    def test_wiring(self, cartpole_nl):
        episodes = collect(cartpole_nl, 20, u_amplitude=0.5, seed=2)
        model = bootstrap_uncertainty(episodes, n_boot=20, seed=2)
        plant = uncertain_plant(model, d_w=cartpole_nl.d_w)
        assert (plant.n, plant.m, plant.q, plant.s) == (4, 1, 4, 5)
        np.testing.assert_array_equal(plant.b_delta, np.eye(4))
        np.testing.assert_array_equal(plant.c_alpha, np.vstack([np.eye(4), np.zeros((1, 4))]))
        np.testing.assert_array_equal(plant.d_alpha_u,
                                      np.vstack([np.zeros((4, 1)), np.eye(1)]))
        assert model.gamma_delta.shape == (4, 5)
