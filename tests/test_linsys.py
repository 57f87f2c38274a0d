"""Transfer-matrix algebra against closed-form geometric-series oracles."""

import functools

import numpy as np
import pytest

from loopcert import certify, linsys, neural
from loopcert.linsys import (
    NotSchurStable,
    abs_transfer,
    close_loop,
    hinf_norm,
    impulse_response,
    l1_norm,
    make_plant,
    spectral_radius,
)

from conftest import random_stable_plant, scalar_plant


# The impulse-response march as it was written before its loop was batched:
# one chunk and one tail bound at a time, with the weighted-norm tail of
# linsys._contraction.  The batched code groups its products differently, so
# it must reproduce the horizon exactly and the values to 1e-12 relative.

def _max_row_norm(a):
    return float(np.max(np.linalg.norm(a, axis=1), initial=0.0))


def _sequential_impulse_response(a, bc, cc, dc, eps_trunc=linsys.DEFAULT_EPS_TRUNC):
    a, bc, cc, dc = (np.asarray(v, dtype=float) for v in (a, bc, cc, dc))
    w, w_inv, rho_w = linsys._contraction(a)
    wb_max = float(np.max(np.linalg.norm(w @ bc, axis=0), initial=0.0))
    chunk = 8
    ca = [cc]
    for _ in range(chunk - 1):
        ca.append(ca[-1] @ a)
    ca_stack = np.vstack(ca)
    a_chunk = np.linalg.matrix_power(a, chunk)
    blocks = [dc[None, :, :]]
    x_state, z_state, total = bc, cc, 1
    while True:
        tail = _max_row_norm(z_state @ w_inv) * wb_max / (1.0 - rho_w)
        if tail <= eps_trunc:
            break
        if total > linsys._MAX_TRUNC_TERMS:
            raise RuntimeError("impulse response did not decay below eps_trunc")
        blocks.append((ca_stack @ x_state).reshape(chunk, cc.shape[0], bc.shape[1]))
        x_state = a_chunk @ x_state
        z_state = z_state @ a_chunk
        total += chunk
    impulse = np.concatenate(blocks, axis=0)
    length = impulse.shape[0]
    while length > 1 and not impulse[length - 1].any():
        length -= 1
    return linsys.TruncatedTransferMatrix(impulse[:length], tail)


def _random_systems(radius=None):
    """240 seeded random systems (n 1-13, 1-13 outputs, 1-7 inputs, eps_trunc
    1e-12-1e-3), a third made non-normal; spectral radius in [0.2, 0.97], or
    ``radius`` for all of them when given."""
    rng = np.random.default_rng(2024)
    for i in range(240):
        n, out, inp = (int(rng.integers(1, hi)) for hi in (14, 14, 8))
        a = rng.normal(size=(n, n))
        if i % 3 == 0:  # a diagonal similarity keeps the spectrum, adds non-normality
            d = np.exp(1.5 * rng.normal(size=n))
            a = a * d[:, None] / d[None, :]
        target = rng.uniform(0.2, 0.97)
        a = a * ((target if radius is None else radius) / max(spectral_radius(a), 1e-9))
        bc = rng.normal(size=(n, inp))
        cc = rng.normal(size=(out, n))
        dc = rng.normal(size=(out, inp))
        yield a, bc, cc, dc, 10.0 ** rng.uniform(-12, -3)


def _jordan_chain(n, lam):
    return lam * np.eye(n) + np.eye(n, k=1)


def _assert_close_response(phi, ref, rel=1e-12):
    """Same horizon; every term within ``rel`` of the largest, and the tail
    bound and every entry of the absolute sum within ``rel`` relative."""
    assert phi.length == ref.length
    assert phi.impulse.shape == ref.impulse.shape
    scale = np.max(np.abs(ref.impulse), initial=0.0)
    assert np.all(np.abs(phi.impulse - ref.impulse) <= rel * scale)
    assert abs(phi.tail_bound - ref.tail_bound) <= rel * ref.tail_bound
    np.testing.assert_allclose(abs_transfer(phi), abs_transfer(ref), rtol=rel, atol=0.0)


def _assert_streamed_sums_exact(a, bc, cc, dc, eps):
    """``linsys._abs_response`` equals ``abs_transfer(impulse_response(...))``
    and its tail bound bit for bit; returns the response."""
    phi = impulse_response(a, bc, cc, dc, eps)
    got, tail = linsys._abs_response(*(np.asarray(v, dtype=float) for v in (a, bc, cc, dc)), eps)
    assert np.array_equal(got, abs_transfer(phi))
    assert tail == phi.tail_bound
    return phi


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(np.diag([0.3, -0.9])) == pytest.approx(0.9, rel=1e-10)

    def test_identity(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0, rel=1e-10)

    def test_cartpole_closed_loop_vs_companion_roots(self, cartpole, lqr_gain):
        a_cl = cartpole.a - cartpole.b @ lqr_gain
        rho = spectral_radius(a_cl)
        assert rho < 1.0
        # independent oracle: roots of the characteristic polynomial
        oracle = np.max(np.abs(np.roots(np.poly(a_cl))))
        assert rho == pytest.approx(oracle, rel=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((2, 3)))


class TestImpulseResponse:
    def test_scalar_geometric(self):
        phi = impulse_response([[0.5]], [[1.0]], [[1.0]], [[0.0]], eps_trunc=1e-9)
        assert phi.impulse[0, 0, 0] == 0.0
        for t in range(1, 6):
            assert phi.impulse[t, 0, 0] == pytest.approx(0.5 ** (t - 1))
        # the geometric series sums to 2; the truncated total must bracket it
        total = abs_transfer(phi)[0, 0]
        assert 2.0 <= total <= 2.0 + 1e-9

    def test_tightening_eps_never_decreases_below_exact(self):
        previous = np.inf
        for eps in (1e-3, 1e-6, 1e-9, 1e-12):
            total = abs_transfer(impulse_response([[0.5]], [[1.0]], [[1.0]], [[0.0]], eps))[0, 0]
            assert 2.0 <= total <= previous + 1e-15
            previous = total

    def test_deadbeat_exact(self):
        phi = impulse_response(np.zeros((2, 2)), np.eye(2), np.eye(2), np.zeros((2, 2)))
        assert phi.length == 2
        assert phi.tail_bound == 0.0
        assert np.array_equal(phi.impulse[1], np.eye(2))

    def test_static_system(self):
        phi = impulse_response([[0.5]], np.zeros((1, 2)), [[1.0]], [[1.0, -2.0]])
        assert phi.tail_bound == 0.0
        assert np.array_equal(phi.impulse[0], [[1.0, -2.0]])

    def test_unstable_raises(self):
        with pytest.raises(NotSchurStable):
            impulse_response([[1.0]], [[1.0]], [[1.0]], [[0.0]])


class TestBatchedMarch:
    """The batched decay window and march against the sequential reference."""

    def test_matches_sequential_march_on_random_systems(self):
        for a, bc, cc, dc, eps in _random_systems():
            _assert_close_response(impulse_response(a, bc, cc, dc, eps),
                                   _sequential_impulse_response(a, bc, cc, dc, eps))

    def test_close_loop_matches_sequential_march(self, cartpole, lqr_gain):
        rng = np.random.default_rng(31)
        cases = [(cartpole, -lqr_gain)]
        for _ in range(30):
            plant = random_stable_plant(rng, n_max=6)
            gain = 0.1 * rng.normal(size=(plant.m, plant.r))
            if spectral_radius(plant.a + plant.b @ gain @ plant.c) >= 0.99:
                gain = np.zeros_like(gain)
            cases.append((plant, gain))
        for plant, gain in cases:
            maps = close_loop(plant, gain)
            ref = _sequential_impulse_response(maps.a_cl, maps.bc, maps.cc, maps.dc)
            np.testing.assert_allclose(maps.abs_stack, abs_transfer(ref), rtol=1e-12, atol=0.0)
            assert abs(maps.tail_bound - ref.tail_bound) <= 1e-12 * ref.tail_bound
            for name in linsys._MAP_BLOCKS:
                _assert_close_response(getattr(maps, name), ref.block(*maps._slices(name)))

    def test_streamed_sums_equal_abs_transfer_on_random_systems(self):
        # close_loop's sums never hold the response, yet equal the absolute
        # sum over the whole of it bit for bit; the (1, 1) cut of each system
        # takes the time-ordered path of a single-entry stack
        for a, bc, cc, dc, eps in _random_systems():
            for args in ((a, bc, cc, dc), (a, bc[:, :1], cc[:1], dc[:1, :1])):
                _assert_streamed_sums_exact(*args, eps)

    def test_streamed_sums_on_short_and_trimmed_responses(self):
        # chunks == 0: nothing enters the loop, the sum is |D|
        got, tail = linsys._abs_response(np.array([[0.5]]), np.zeros((1, 2)),
                                         np.array([[1.0]]), np.array([[1.0, -2.0]]), 1e-9)
        assert np.array_equal(got, [[1.0, 2.0]]) and tail == 0.0
        # a nilpotent loop (A^5 = 0): the one chunk runs three terms past the
        # last nonzero one, which impulse_response trims and the sums add
        shift = np.eye(5, k=1)
        for bc, cc in ((np.eye(5), np.eye(5)), (np.eye(5)[:, -1:], np.eye(5)[:1])):
            dc = np.zeros((cc.shape[0], bc.shape[1]))
            phi = _assert_streamed_sums_exact(shift, bc, cc, dc, 1e-9)
            assert phi.length == 6 and phi.tail_bound == 0.0
            assert np.array_equal(abs_transfer(phi), np.triu(np.ones((5, 5)))[:len(cc), -bc.shape[1]:])

    @pytest.mark.parametrize("chunks", [128, 129])
    def test_streamed_sums_on_both_sides_of_a_flush(self, chunks):
        # 128 chunks fill the buffer of _abs_response exactly; the 129th
        # flushes it first.  For a scalar A the tail of chunk k is
        # max|C| max|B| a^(8k) / (1 - a), so an eps between the tails of
        # chunks - 1 and chunks cuts the march at exactly ``chunks``.
        assert 8 * linsys._FLUSH * linsys._GROUP == 8 * 128
        a = 0.97
        for bc, cc in (([[1.0]], [[1.0]]), ([[1.0, -0.5]], [[1.0], [0.3], [-2.0]])):
            bc, cc = np.array(bc), np.array(cc)
            dc = np.arange(cc.shape[0] * bc.shape[1], dtype=float).reshape(-1, bc.shape[1])
            scale = np.max(np.abs(cc)) * np.max(np.abs(bc))
            eps = scale * a ** (8 * (chunks - 0.5)) / (1.0 - a)
            phi = _assert_streamed_sums_exact(np.array([[a]]), bc, cc, dc, eps)
            assert phi.length == 1 + 8 * chunks
            # and both add in time order, one term after the other
            in_order = functools.reduce(np.add, np.abs(phi.impulse)) + phi.tail_bound
            assert np.array_equal(abs_transfer(phi), in_order)

    def test_term_cap_boundary_matches_sequential_rule(self, monkeypatch):
        # chunk k is marched only while 1 + 8k <= _MAX_TRUNC_TERMS, so a
        # response with K chunks raises exactly when 1 + 8 (K - 1) exceeds it
        args = ([[0.999]], [[1.0]], [[1.0]], [[0.0]])
        chunks = (impulse_response(*args).length - 1) // 8
        assert chunks > 2 * linsys._GROUP
        edge = 1 + 8 * (chunks - 1)
        for cap in (0, 100, 8 * linsys._GROUP + 1, edge - 1, edge, edge + 8):
            monkeypatch.setattr(linsys, "_MAX_TRUNC_TERMS", cap)
            for march in (impulse_response, _sequential_impulse_response):
                if edge > cap:
                    with pytest.raises(RuntimeError, match="did not decay"):
                        march(*args)
                else:
                    assert march(*args).length == 1 + 8 * chunks



class TestContraction:
    """The weighted-norm tail of ``linsys._contraction`` and its limits."""

    def test_tail_bounds_brute_force_tail(self):
        # the next 20,000 terms past T, summed; 1e-14 relative allows for the
        # rounding of the brute-force sum, which meets the bound exactly
        # wherever the bound is exact (a scalar A)
        extra, block = 20_000, 250
        for a, bc, cc, dc, eps in _random_systems():
            phi = impulse_response(a, bc, cc, dc, eps)
            powers = np.empty((block, *a.shape))
            powers[0] = np.eye(a.shape[0])
            for prev, cur in zip(powers, powers[1:]):
                np.matmul(prev, a, out=cur)
            a_block = powers[-1] @ a
            x = np.linalg.matrix_power(a, phi.length - 1) @ bc  # Phi[T] = C x
            brute = np.zeros(dc.shape)
            for _ in range(extra // block):
                brute += np.sum(np.abs(cc @ (powers @ x)), axis=0)
                x = a_block @ x
            assert np.all(brute <= phi.tail_bound * (1.0 + 1e-14))

    def test_near_unit_radius_and_non_normal_chain_close(self):
        # a search for a power with ||A^m||_inf < 1 within 4096 steps gives
        # up on some of these and on the chain
        for a, bc, cc, dc, eps in _random_systems(radius=0.999):
            assert impulse_response(a, bc, cc, dc, eps).tail_bound <= eps
        chain = _jordan_chain(8, 0.99)
        phi = impulse_response(chain, np.eye(8)[:, -1:], np.eye(8)[:1], np.zeros((1, 1)))
        assert phi.tail_bound <= linsys.DEFAULT_EPS_TRUNC

    def test_uncertifiable_chain_raises_and_algorithm1_moves_on(self):
        # a 30x30 Jordan chain at 0.95: its powers peak near 4e36 and the
        # computed Stein solution (entries up to 1e93) is not positive
        # definite in float64, so no weight exists and the loop is rejected
        chain = _jordan_chain(30, 0.95)
        with pytest.raises(NotSchurStable):
            impulse_response(chain, np.eye(30), np.eye(30), np.zeros((30, 30)))
        # a policy whose Jacobian closes the plant into that chain: the gain
        # search skips it and takes the next candidate, k_d (a_cl = 0.3 I)
        plant = make_plant(0.5 * np.eye(30), np.eye(30), x_lim=np.ones(30))
        net = neural.mlp([(chain - 0.5 * np.eye(30), np.zeros(30))])
        with pytest.raises(NotSchurStable):
            close_loop(plant, neural.jacobian_at(net, np.zeros(30)))
        k_d = -0.2 * np.eye(30)
        np.testing.assert_array_equal(certify.extract_gain(plant, net, None, k_d), k_d)
        result = certify.algorithm1(plant, net, k_d, w_inf=0.0)
        assert result.success
        np.testing.assert_array_equal(result.gain, k_d)


class TestAbsTransferAndL1:
    def test_scalar_value(self):
        phi = impulse_response([[0.5]], [[1.0]], [[1.0]], [[0.0]])
        assert l1_norm(phi) == pytest.approx(2.0, abs=1e-6)

    def test_static_gain_abs(self):
        phi = impulse_response(np.zeros((1, 1)), np.zeros((1, 2)), np.zeros((1, 1)),
                               [[1.0, -2.0]])
        assert np.array_equal(abs_transfer(phi), [[1.0, 2.0]])

    def test_static_max_row_sum(self):
        phi = impulse_response(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)),
                               [[1.0, -2.0], [0.5, 0.5]])
        assert l1_norm(phi) == pytest.approx(3.0)

    def test_zero_system(self):
        phi = impulse_response([[0.5]], [[0.0]], [[1.0]], [[0.0]])
        assert l1_norm(phi) == 0.0

    def test_simulated_outputs_respect_abs_bound(self):
        # |y[t]| <= abs(Phi) w_bar for any |w| <= w_bar; 100 random systems
        # simulated in lockstep for 10^4 steps.
        rng = np.random.default_rng(0)
        count, steps, n, p, r = 100, 10_000, 4, 2, 2
        a_all = np.empty((count, n, n))
        b_all = rng.normal(size=(count, n, p))
        c_all = rng.normal(size=(count, r, n))
        d_all = rng.normal(size=(count, r, p)) * 0.5
        bounds = np.empty((count, r))
        w_bar = rng.uniform(0.1, 2.0, size=(count, p))
        for i in range(count):
            a = rng.normal(size=(n, n))
            a_all[i] = a * (rng.uniform(0.2, 0.9) / max(linsys.spectral_radius(a), 1e-9))
            phi = impulse_response(a_all[i], b_all[i], c_all[i], d_all[i])
            bounds[i] = abs_transfer(phi) @ w_bar[i]
        x = np.zeros((count, n))
        worst = np.zeros((count, r))
        for _ in range(steps):
            w = rng.uniform(-w_bar, w_bar)
            y = np.einsum("irn,in->ir", c_all, x) + np.einsum("irp,ip->ir", d_all, w)
            worst = np.maximum(worst, np.abs(y))
            x = np.einsum("inm,im->in", a_all, x) + np.einsum("inp,ip->in", b_all, w)
        assert np.all(worst <= bounds + 1e-9)


class TestHinfNorm:
    def test_scalar_peak_at_dc(self):
        assert hinf_norm([[0.5]], [[1.0]], [[1.0]], [[0.0]]) == pytest.approx(2.0, abs=1e-3)

    def test_scalar_peak_at_nyquist(self):
        assert hinf_norm([[-0.5]], [[1.0]], [[1.0]], [[0.0]]) == pytest.approx(2.0, abs=1e-3)

    def test_static_is_largest_singular_value(self):
        d = np.array([[1.0, 2.0], [0.0, 1.0]])
        expected = np.linalg.svd(d, compute_uv=False)[0]
        got = hinf_norm(np.zeros((1, 1)), np.zeros((1, 2)), np.zeros((2, 1)), d)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_scalar_analytic_vs_l1(self):
        # no ordering asserted between the norms; each matches its own value
        phi = impulse_response([[0.5]], [[1.0]], [[1.0]], [[0.0]])
        assert l1_norm(phi) == pytest.approx(2.0, abs=1e-6)
        assert hinf_norm([[0.5]], [[1.0]], [[1.0]], [[0.0]]) == pytest.approx(2.0, abs=1e-6)

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            hinf_norm([[0.5]], [[1.0]], [[1.0]], [[0.0]], grid=32)


class TestCloseLoop:
    def test_open_loop_scalar_norms(self):
        maps = close_loop(scalar_plant(), np.zeros((1, 1)))
        assert l1_norm(maps.yu) == pytest.approx(2.0, abs=1e-6)
        assert l1_norm(maps.yw) == pytest.approx(2.0, abs=1e-6)

    def test_stabilized_unstable_scalar(self):
        plant = make_plant([[1.2]], [[1.0]], b_w=[[1.0]])
        maps = close_loop(plant, [[-0.9]])
        assert abs_transfer(maps.yw)[0, 0] == pytest.approx(1.0 / 0.7, abs=1e-6)

    def test_abs_stack_blocks_equal_abs_transfer_of_each_map(self):
        # the scalar plant makes every block 1x1, the random one mixes shapes
        scalar = make_plant([[0.5]], [[1.0]], b_w=[[1.0]], b_delta=[[1.0]], c_alpha=[[1.0]],
                            d_alpha_u=[[0.3]], d_alpha_w=[[0.2]])
        rng = np.random.default_rng(17)
        mixed = random_stable_plant(rng)
        for plant, gain in ((scalar, np.array([[-0.2]])),
                            (mixed, 0.3 * rng.normal(size=(mixed.m, mixed.r)))):
            maps = close_loop(plant, gain)
            response = maps.response()
            assert response.tail_bound == maps.tail_bound
            n, m, p, q, r, s = maps.dims
            assert q > 0 and s > 0
            assert maps.abs_stack.shape == (n + r + s, m + p + q)
            rows = {"x": slice(0, n), "y": slice(n, n + r), "alpha": slice(n + r, None)}
            cols = {"u": slice(0, m), "w": slice(m, m + p), "delta": slice(m + p, None)}
            # each map's quadruple, built by hand from the plant and the gain
            a_cl = plant.a + plant.b @ gain @ plant.c
            outputs = {"x": np.eye(n), "y": plant.c,
                       "alpha": plant.c_alpha + plant.d_alpha_u @ gain @ plant.c}
            inputs = {"u": plant.b, "w": plant.b @ gain @ plant.d_w + plant.b_w,
                      "delta": plant.b_delta}
            feedthrough = {"yw": plant.d_w, "alpha_u": plant.d_alpha_u,
                           "alpha_w": plant.d_alpha_u @ gain @ plant.d_w + plant.d_alpha_w}
            for out_name in ("x", "y", "alpha"):
                for in_name in ("u", "w", "delta"):
                    name = out_name + ("_" if out_name == "alpha" else "") + in_name
                    expected = abs_transfer(getattr(maps, name))
                    block = maps.abs_stack[rows[out_name], cols[in_name]]
                    np.testing.assert_array_equal(block, expected)
                    np.testing.assert_array_equal(maps.abs_block(name), expected)
                    assert maps.l1(name) == l1_norm(getattr(maps, name))
                    np.testing.assert_array_equal(
                        getattr(maps, name).impulse,
                        response.impulse[:, rows[out_name], cols[in_name]])
                    c_out, b_in = outputs[out_name], inputs[in_name]
                    d = feedthrough.get(name, np.zeros((c_out.shape[0], b_in.shape[1])))
                    for got, want in zip(maps.realization(name), (a_cl, b_in, c_out, d)):
                        np.testing.assert_array_equal(got, want)
            with pytest.raises(KeyError):
                maps.realization("uy")
            with pytest.raises(AttributeError):
                maps.uy

    def test_rejects_unstable_closure(self):
        plant = make_plant([[1.2]], [[1.0]], b_w=[[1.0]])
        with pytest.raises(NotSchurStable):
            close_loop(plant, [[-0.15]])  # a_cl = 1.05

    def test_zero_gain_reproduces_open_loop_maps(self):
        rng = np.random.default_rng(5)
        plant = random_stable_plant(rng)
        maps = close_loop(plant, np.zeros((plant.m, plant.r)))
        direct = {
            "xu": impulse_response(plant.a, plant.b, np.eye(plant.n),
                                   np.zeros((plant.n, plant.m))),
            "yw": impulse_response(plant.a, plant.b_w, plant.c, plant.d_w),
            "alpha_u": impulse_response(plant.a, plant.b, plant.c_alpha, plant.d_alpha_u),
            "alpha_delta": impulse_response(plant.a, plant.b_delta, plant.c_alpha,
                                            np.zeros((plant.s, plant.q))),
        }
        for name, phi in direct.items():
            closed = getattr(maps, name)
            common = min(phi.length, closed.length)
            np.testing.assert_allclose(closed.impulse[:common], phi.impulse[:common],
                                       atol=1e-13)
            assert abs(l1_norm(closed) - l1_norm(phi)) < 1e-8


class TestPlantFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        plant = random_stable_plant(rng)
        path = tmp_path / "plant.json"
        linsys.save_plant(path, plant, gamma_delta=np.abs(rng.normal(size=(plant.q, plant.s))))
        loaded, gamma = linsys.load_plant(path)
        for name in ("a", "b", "b_w", "b_delta", "c", "d_w", "c_alpha",
                     "d_alpha_u", "d_alpha_w", "x_lim", "y_lim", "u_lim"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(plant, name))
        assert loaded.w_inf == plant.w_inf
        assert gamma is not None and gamma.shape == (plant.q, plant.s)

    def test_missing_uncertainty_defaults_to_zero_width(self, tmp_path):
        path = tmp_path / "plant.json"
        obj = {
            "A": {"rows": 1, "cols": 1, "data": [0.5]},
            "B": {"rows": 1, "cols": 1, "data": [1.0]},
            "Dw": {"rows": 1, "cols": 1, "data": [1.0]},
            "w_inf": 0.1,
        }
        import json

        path.write_text(json.dumps(obj))
        plant, gamma = linsys.load_plant(path)
        assert (plant.q, plant.s) == (0, 0)
        assert gamma is None
        assert np.all(np.isinf(plant.x_lim))

    def test_infinite_limits_serialized_as_null(self, tmp_path):
        path = tmp_path / "plant.json"
        linsys.save_plant(path, scalar_plant())
        assert '"x_lim": [\n  null\n ]' in path.read_text()
