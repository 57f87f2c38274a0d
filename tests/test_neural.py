"""Network evaluation, interval bounds and relaxation envelopes."""

import numpy as np
import pytest

from loopcert import neural
from loopcert.neural import (
    Box,
    OnKink,
    QuantizationSpec,
    concretize,
    evaluate,
    interval_bounds,
    jacobian_at,
    jacobian_bounds,
    linear_relaxation,
    magnitude_bound,
    residual_magnitudes,
)

from conftest import random_relu_net, single_relu_policy


def _loop_forward(net, y):
    """Independent straight-line re-implementation of the forward pass."""
    z = [float(v) for v in y]
    for layer in net.layers:
        out = []
        for i in range(layer.weight.shape[0]):
            acc = float(layer.bias[i])
            for j in range(layer.weight.shape[1]):
                acc += float(layer.weight[i, j]) * z[j]
            out.append(max(acc, 0.0) if layer.activation == "relu" else acc)
        z = out
    return np.array(z)


def _reference_lines(lo, hi, adaptive):
    """Envelope lines of one variant, as first written: the chord above and,
    below, a line through the origin with slope 1 when ``adaptive`` and
    hi >= |lo|, slope 0 otherwise."""
    dead = hi <= 0.0
    active = lo >= 0.0
    unstable = ~(dead | active)
    up_slope = np.where(dead, 0.0, np.where(active, 1.0, 0.0))
    up_icept = np.zeros_like(lo)
    if np.any(unstable):
        span = hi[unstable] - lo[unstable]
        up_slope[unstable] = hi[unstable] / span
        up_icept[unstable] = -hi[unstable] * lo[unstable] / span
    lo_slope = np.where(dead, 0.0, np.where(active, 1.0, 0.0))
    if adaptive and np.any(unstable):
        lo_slope[unstable] = (hi[unstable] >= -lo[unstable]).astype(float)
    return up_slope, up_icept, lo_slope


def _reference_relaxation(net, box):
    """linear_relaxation as first written: one validated linear Layer per
    head, every layer's pre-activation bounds recomputed for each lower-slope
    variant, and the readout passed as the last layer of the backward pass.

    Returns the bounds and, per output row, whether the flat variant won."""
    def backward(layers, lines):
        last = layers[-1]
        k_u, b_u = last.weight.copy(), last.bias.copy()
        k_l, b_l = last.weight.copy(), last.bias.copy()
        relu_idx = len(lines) - 1
        for layer in reversed(layers[:-1]):
            if layer.activation == "relu":
                up_slope, up_icept, lo_slope = lines[relu_idx]
                relu_idx -= 1
                pos_u, neg_u = np.maximum(k_u, 0.0), np.minimum(k_u, 0.0)
                b_u = b_u + pos_u @ up_icept
                k_u = pos_u * up_slope + neg_u * lo_slope
                pos_l, neg_l = np.maximum(k_l, 0.0), np.minimum(k_l, 0.0)
                b_l = b_l + neg_l @ up_icept
                k_l = pos_l * lo_slope + neg_l * up_slope
            b_u, k_u = b_u + k_u @ layer.bias, k_u @ layer.weight
            b_l, k_l = b_l + k_l @ layer.bias, k_l @ layer.weight
        return neural.LinearBounds(k_l=k_l, b_l=b_l, k_u=k_u, b_u=b_u)

    def variant(adaptive):
        lines = []
        for idx, layer in enumerate(net.layers):
            head = list(net.layers[:idx]) + [neural.Layer(layer.weight, layer.bias, "linear")]
            lo, hi = concretize(backward(head, lines), box)
            if layer.activation == "relu":
                lines.append(_reference_lines(lo, hi, adaptive))
        return backward(list(net.layers), lines)

    adaptive, flat = variant(True), variant(False)
    use_flat = (magnitude_bound(*concretize(flat, box))
                < magnitude_bound(*concretize(adaptive, box)))
    if not np.any(use_flat):
        return adaptive, use_flat
    pick = lambda a, f: np.where(use_flat[:, None] if a.ndim == 2 else use_flat, f, a)
    return neural.LinearBounds(k_l=pick(adaptive.k_l, flat.k_l), b_l=pick(adaptive.b_l, flat.b_l),
                               k_u=pick(adaptive.k_u, flat.k_u),
                               b_u=pick(adaptive.b_u, flat.b_u)), use_flat


class TestEvaluate:
    def test_single_linear_layer(self):
        net = neural.mlp([(np.array([[2.0]]), np.array([1.0]))])
        assert evaluate(net, [3.0]) == pytest.approx([7.0])

    def test_single_relu_clamps(self):
        assert evaluate(single_relu_policy(), [-1.0]) == pytest.approx([0.0])

    def test_matches_loop_reimplementation(self):
        rng = np.random.default_rng(1)
        net = random_relu_net(rng, max_hidden_layers=2, d_in=3, d_out=2)
        for _ in range(100):
            y = rng.normal(size=3)
            np.testing.assert_allclose(evaluate(net, y), _loop_forward(net, y),
                                       rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(single_relu_policy(), [1.0, 2.0])

    def test_one_row_pass_matches_plain_loop_and_stack_row(self):
        # a 1-D row takes np.dot, a (B, 1, n) stack np.matmul: layer by layer,
        # with and without buffers, both give the bits of a plain
        # weight @ z + bias loop, so a parting names its layer
        widest = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            net = random_relu_net(rng)
            layers = neural._bind(net.layers)
            widest = max(widest, *(layer.weight.shape[0] for layer in net.layers))
            stack = rng.normal(size=(5, 1, net.input_dim))
            stack_outs = [np.empty((5, 1, weight_t.shape[1])) for weight_t, _, _ in layers]
            neural._forward_into(stack, layers, stack_outs)
            for row in range(5):
                z = stack[row, 0]
                outs = [np.empty(weight_t.shape[1]) for weight_t, _, _ in layers]
                last = neural._forward_into(z, layers, outs)
                assert np.array_equal(neural._forward_into(z, layers), last), seed
                plain = z
                for k, layer in enumerate(net.layers):
                    plain = layer.weight @ plain + layer.bias
                    if layer.activation == "relu":
                        plain = np.maximum(plain, 0.0)
                    assert np.array_equal(outs[k], plain), (seed, row, k)
                    assert np.array_equal(outs[k], stack_outs[k][row, 0]), (seed, row, k)
        assert widest == 16


class TestIntervalBounds:
    def test_signed_linear_layer(self):
        net = neural.mlp([(np.array([[1.0, -1.0]]), np.array([0.0]))])
        _, (lo, hi) = interval_bounds(net, Box.symmetric([1.0, 1.0]))
        assert lo == pytest.approx([-2.0])
        assert hi == pytest.approx([2.0])

    def test_zero_radius_collapses_to_evaluation(self):
        rng = np.random.default_rng(2)
        net = random_relu_net(rng, d_in=3)
        center = rng.normal(size=3)
        _, (lo, hi) = interval_bounds(net, Box(center, np.zeros(3)))
        np.testing.assert_allclose(lo, evaluate(net, center), atol=1e-12)
        np.testing.assert_allclose(hi, evaluate(net, center), atol=1e-12)

    def test_samples_stay_inside(self):
        rng = np.random.default_rng(3)
        net = random_relu_net(rng, max_hidden_layers=3, d_in=2, d_out=2)
        box = Box(rng.normal(size=2) * 0.3, rng.uniform(0.2, 1.0, size=2))
        pre, (lo, hi) = interval_bounds(net, box)
        ys = rng.uniform(box.center - box.radius, box.center + box.radius,
                         size=(10_000, 2))
        outs = evaluate(net, ys)
        assert np.all(outs >= lo - 1e-9) and np.all(outs <= hi + 1e-9)
        # every layer's sampled pre-activations inside the reported intervals
        z = ys
        for (p_lo, p_hi), layer in zip(pre, net.layers):
            z = z @ layer.weight.T + layer.bias
            assert np.all(z >= p_lo - 1e-9) and np.all(z <= p_hi + 1e-9)
            if layer.activation == "relu":
                z = np.maximum(z, 0.0)


class TestLinearRelaxation:
    def test_single_relu_lines(self):
        lb = linear_relaxation(single_relu_policy(), Box.symmetric([1.0]))
        np.testing.assert_allclose(lb.k_u, [[0.5]])
        np.testing.assert_allclose(lb.b_u, [0.5])
        np.testing.assert_allclose(lb.k_l, [[1.0]])
        np.testing.assert_allclose(lb.b_l, [0.0])
        # grid oracle: the envelope encloses relu on a dense grid
        grid = np.linspace(-1.0, 1.0, 1001)
        vals = np.maximum(grid, 0.0)
        assert np.all(vals <= 0.5 * grid + 0.5 + 1e-12)
        assert np.all(vals >= 1.0 * grid - 1e-12)

    def test_pure_linear_net_is_exact(self):
        w1, b1 = np.array([[1.0, 2.0], [0.5, -1.0]]), np.array([0.1, -0.2])
        w2, b2 = np.array([[1.0, -1.0]]), np.array([0.3])
        net = neural.ReluNetwork((neural.Layer(w1, b1, "linear"),
                                  neural.Layer(w2, b2, "linear")))
        lb = linear_relaxation(net, Box.symmetric([1.0, 1.0]))
        np.testing.assert_allclose(lb.k_l, w2 @ w1)
        np.testing.assert_allclose(lb.k_u, w2 @ w1)
        np.testing.assert_allclose(lb.b_l, w2 @ b1 + b2)
        np.testing.assert_allclose(lb.b_u, w2 @ b1 + b2)

    def test_all_dead_net_constant(self):
        net = neural.mlp([(np.array([[1.0]]), np.array([-10.0])),
                          (np.array([[2.0]]), np.array([0.5]))])
        lb = linear_relaxation(net, Box.symmetric([1.0]))
        np.testing.assert_allclose(lb.k_l, [[0.0]])
        np.testing.assert_allclose(lb.k_u, [[0.0]])
        np.testing.assert_allclose(lb.b_l, [0.5])
        np.testing.assert_allclose(lb.b_u, [0.5])

    def test_soundness_on_random_nets(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            net = random_relu_net(rng)
            d = net.input_dim
            box = Box(rng.normal(size=d) * 0.5, rng.uniform(0.05, 1.5, size=d))
            lb = linear_relaxation(net, box)
            ys = rng.uniform(box.center - box.radius, box.center + box.radius,
                             size=(2000, d))
            outs = evaluate(net, ys)
            assert np.all(outs <= ys @ lb.k_u.T + lb.b_u + 1e-9)
            assert np.all(outs >= ys @ lb.k_l.T + lb.b_l - 1e-9)

    def test_matches_reference_bit_for_bit(self):
        # the random_relu_net corpus, plus nets with a linear hidden layer
        # (whose bounds no envelope needs) and nets whose first layer is linear
        rng = np.random.default_rng(12)
        nets = [random_relu_net(rng, max_hidden_layers=4) for _ in range(60)]
        for first in ("relu", "linear"):
            dims = [3, 5, 4, 6, 2]
            acts = [first, "linear" if first == "relu" else "relu", "relu", "linear"]
            nets.append(neural.ReluNetwork(tuple(
                neural.Layer(rng.normal(size=(b, a)), rng.normal(size=b) * 0.5, act)
                for a, b, act in zip(dims, dims[1:], acts))))
        patterns = set()
        for net in nets:
            d = net.input_dim
            for scale in (0.05, 1.0, 4.0):
                box = Box(rng.normal(size=d) * 0.5, scale * rng.uniform(0.1, 1.5, size=d))
                got = linear_relaxation(net, box)
                want, use_flat = _reference_relaxation(net, box)
                for name in ("k_l", "b_l", "k_u", "b_u"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
                patterns.add("flat" if use_flat.all() else "mixed" if use_flat.any()
                             else "adaptive")
        # the corpus picks every row adaptive, every row flat, and a mix
        assert patterns == {"adaptive", "flat", "mixed"}

    def test_stack_of_boxes_matches_each_box_alone(self):
        # B boxes in one relaxation, from tiny to wide and with a degenerate
        # coordinate: each box's bounds and their concretization bit for bit
        rng = np.random.default_rng(31)
        for _ in range(40):
            net = random_relu_net(rng, max_hidden_layers=4)
            d, count = net.input_dim, int(rng.integers(2, 7))
            center = rng.normal(size=(count, d)) * 0.5
            radius = rng.uniform(0.0, 1.5, size=(count, d)) * 10.0 ** rng.uniform(-4, 1, (count, 1))
            radius[0, 0] = 0.0
            boxes = Box(center, radius)
            stacked = linear_relaxation(net, boxes)
            bounds = concretize(stacked, boxes)
            for b in range(count):
                box = Box(center[b], radius[b])
                alone = linear_relaxation(net, box)
                for name in ("k_l", "b_l", "k_u", "b_u"):
                    assert getattr(stacked, name)[b].tobytes() == getattr(alone, name).tobytes()
                for got, want in zip(bounds, concretize(alone, box)):
                    assert got[b].tobytes() == want.tobytes()


class TestConcretize:
    def test_single_relu(self):
        box = Box.symmetric([1.0])
        u_min, u_max = concretize(linear_relaxation(single_relu_policy(), box), box)
        assert u_min == pytest.approx([-1.0])
        assert u_max == pytest.approx([1.0])
        assert magnitude_bound(u_min, u_max) == pytest.approx([1.0])

    def test_zero_radius_is_exact(self):
        rng = np.random.default_rng(5)
        net = random_relu_net(rng, d_in=3)
        y0 = rng.normal(size=3)
        box = Box(y0, np.zeros(3))
        u_min, u_max = concretize(linear_relaxation(net, box), box)
        np.testing.assert_allclose(u_min, evaluate(net, y0), atol=1e-10)
        np.testing.assert_allclose(u_max, evaluate(net, y0), atol=1e-10)

    def test_linear_gain(self):
        net = neural.mlp([(np.array([[2.0]]), np.array([0.0]))])
        box = Box.symmetric([0.5])
        u_min, u_max = concretize(linear_relaxation(net, box), box)
        assert magnitude_bound(u_min, u_max) == pytest.approx([1.0])


class TestResidualBounds:
    def test_exactly_linear_residual_vanishes(self):
        net = neural.mlp([(np.array([[0.7, -0.3]]), np.array([0.0]))])
        box = Box.symmetric([2.0, 1.0])
        u0, u_full = residual_magnitudes(linear_relaxation(net, box), box,
                                         np.array([[0.7, -0.3]]))
        assert u0 == pytest.approx([0.0], abs=1e-12)
        assert u_full == pytest.approx([1.7])

    def test_single_relu_half_gain(self):
        # true max |relu(y) - y/2| over [-1, 1] is 0.5; any sound value >= 0.5
        box = Box.symmetric([1.0])
        u0, u_full = residual_magnitudes(linear_relaxation(single_relu_policy(), box), box,
                                         [[0.5]])
        grid = np.linspace(-1.0, 1.0, 1001)
        oracle = np.max(np.abs(np.maximum(grid, 0.0) - 0.5 * grid))
        assert oracle == pytest.approx(0.5)
        assert u0[0] >= oracle - 1e-12
        assert u_full == pytest.approx([1.0])

    def test_midpoint_gain_beats_full_bound(self):
        box = Box.symmetric([1.0])
        lb = linear_relaxation(single_relu_policy(), box)
        midpoint = (lb.k_u + lb.k_l) / 2.0
        u0, u_full = residual_magnitudes(lb, box, midpoint)
        assert u0[0] < u_full[0]

    def test_zero_gain_matches_concretize(self):
        rng = np.random.default_rng(6)
        net = random_relu_net(rng, d_in=2, d_out=2)
        box = Box(np.zeros(2), rng.uniform(0.1, 1.0, size=2))
        u0, u_full = residual_magnitudes(linear_relaxation(net, box), box, np.zeros((2, 2)))
        np.testing.assert_array_equal(u0, u_full)
        lb = linear_relaxation(net, box)
        np.testing.assert_array_equal(u_full, magnitude_bound(*concretize(lb, box)))


class TestJacobian:
    def test_linear_net(self):
        w1 = np.array([[1.0, 2.0], [0.0, 1.0]])
        w2 = np.array([[1.0, -1.0]])
        net = neural.ReluNetwork((neural.Layer(w1, np.zeros(2), "linear"),
                                  neural.Layer(w2, np.zeros(1), "linear")))
        np.testing.assert_allclose(jacobian_at(net, [0.3, -0.4]), w2 @ w1)

    def test_single_relu_pattern(self):
        net = single_relu_policy()
        np.testing.assert_allclose(jacobian_at(net, [1.0]), [[1.0]])
        np.testing.assert_allclose(jacobian_at(net, [-1.0]), [[0.0]])

    def test_on_kink_raises(self):
        with pytest.raises(OnKink):
            jacobian_at(single_relu_policy(), [0.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        net = random_relu_net(rng, d_in=3, d_out=2)
        step = 1e-6
        checked = 0
        while checked < 20:
            y0 = rng.normal(size=3)
            try:
                jac = jacobian_at(net, y0)
            except OnKink:
                continue
            fd = np.empty_like(jac)
            for j in range(3):
                e = np.zeros(3)
                e[j] = step
                fd[:, j] = (evaluate(net, y0 + e) - evaluate(net, y0 - e)) / (2 * step)
            np.testing.assert_allclose(jac, fd, atol=1e-5)
            checked += 1


class TestJacobianBounds:
    def test_linear_net_is_exact(self):
        w1 = np.array([[1.0, 2.0], [0.0, 1.0]])
        w2 = np.array([[1.0, -1.0]])
        net = neural.ReluNetwork((neural.Layer(w1, np.zeros(2), "linear"),
                                  neural.Layer(w2, np.zeros(1), "linear")))
        j_lo, j_hi = jacobian_bounds(net, Box.symmetric([5.0, 5.0]))
        assert j_lo.tolist() == j_hi.tolist() == (w2 @ w1).tolist()

    def test_single_relu_slopes(self):
        # relu(y) over [c - 1, c + 1]: slope 0 left of the kink, 1 right of
        # it, and [0, 1] across it
        net = single_relu_policy()
        for center, want in ((-2.0, (0.0, 0.0)), (2.0, (1.0, 1.0)), (0.5, (0.0, 1.0))):
            j_lo, j_hi = jacobian_bounds(net, Box([center], [1.0]))
            assert (j_lo.item(), j_hi.item()) == want

    def test_fixed_pattern_matches_jacobian_bit_for_bit(self):
        # a box small enough that no pre-activation interval holds 0
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(30):
            net = random_relu_net(rng)
            center = rng.normal(size=net.input_dim)
            box = Box(center, np.full(net.input_dim, 1e-9))
            pre, _ = interval_bounds(net, box)
            if any(np.any((lo <= 0.0) & (hi >= 0.0)) for lo, hi in pre[:-1]):
                continue
            j_lo, j_hi = jacobian_bounds(net, box)
            want = jacobian_at(net, center)
            assert j_lo.tobytes() == j_hi.tobytes() == want.tobytes()
            checked += 1
        assert checked >= 20

    def test_stack_equals_each_box_alone(self, cloned_policy):
        # a (B, d) stack gives each box the interval and Jacobian bounds of
        # bounding it alone, bit for bit: random nets with zero radii among
        # their boxes, a net with no ReLU layer, relu(y) on boxes whose ends
        # sit on its kink, and the cart-pole clone on the regions |y| <= y
        # that the baseline's scan doubles up to 1e9
        rng = np.random.default_rng(17)
        cases = []
        for _ in range(40):
            net = random_relu_net(rng)
            d = net.input_dim
            radius = rng.uniform(0.0, 2.0, size=(6, d)) * 10.0 ** rng.uniform(-6, 1, size=(6, 1))
            radius[0] = 0.0
            cases.append((net, Box(rng.normal(size=(6, d)), radius)))
        cases.append((neural.mlp([(rng.normal(size=(2, 3)), rng.normal(size=2))]),
                      Box(rng.normal(size=(3, 3)), np.abs(rng.normal(size=(3, 3))))))
        cases.append((single_relu_policy(),
                      Box([[0.0], [1.0], [-1.0], [0.25], [0.5], [2.0]],
                          [[0.0], [1.0], [1.0], [0.5], [0.5], [0.0]])))
        radii = 1e-4 * 2.0 ** np.arange(44)
        radii = radii[radii <= 1e9]
        assert len(radii) == 44
        cases.append((cloned_policy, Box.symmetric(np.repeat(radii[:, None], 4, axis=1))))
        for net, stack in cases:
            pre, _ = interval_bounds(net, stack)
            bounds = jacobian_bounds(net, stack)
            assert bounds[0].shape == (len(stack.center), net.output_dim, net.input_dim)
            for b, (center, radius) in enumerate(zip(stack.center, stack.radius)):
                box = Box(center, radius)
                for (lo, hi), (lo1, hi1) in zip(pre, interval_bounds(net, box)[0]):
                    assert lo[b].tobytes() == lo1.tobytes() and hi[b].tobytes() == hi1.tobytes()
                for got, want in zip(bounds, jacobian_bounds(net, box)):
                    assert got[b].tobytes() == want.tobytes()
        # on the kinks: slope 0 where hi == 0, 1 where lo == 0, [0, 1] across
        j_lo, j_hi = jacobian_bounds(*cases[-2])
        assert j_lo.ravel().tolist() == [0.0, 1.0, 0.0, 0.0, 1.0, 1.0]
        assert j_hi.ravel().tolist() == [0.0, 1.0, 0.0, 1.0, 1.0, 1.0]

    def test_interval_bounds_is_private_to_the_jacobian(self):
        # importable by name for the tests, but not part of the public surface
        assert "interval_bounds" not in neural.__all__
        assert "jacobian_bounds" in neural.__all__

    def test_contains_the_jacobian_at_sampled_points(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            net = random_relu_net(rng)
            d = net.input_dim
            box = Box(rng.normal(size=d) * 0.5, rng.uniform(0.05, 1.5, size=d))
            j_lo, j_hi = jacobian_bounds(net, box)
            assert np.all(j_lo <= j_hi)
            for y in rng.uniform(box.center - box.radius, box.center + box.radius, size=(50, d)):
                jac = jacobian_at(net, y)
                assert np.all(j_lo - 1e-12 <= jac) and np.all(jac <= j_hi + 1e-12)


class TestQuantization:
    """Output quantization widens the certified policy bounds by h/2."""

    def test_widening(self):
        net = single_relu_policy()
        box = Box.symmetric([1.0])
        lb = linear_relaxation(net, box)
        u0_bar, u_bar = (QuantizationSpec(0.1).widen(b)
                         for b in residual_magnitudes(lb, box, np.zeros((1, 1))))
        assert u0_bar == pytest.approx([1.05])
        assert u_bar == pytest.approx([1.05])

    def test_vanishing_step_recovers_plain_bounds(self):
        net = single_relu_policy()
        box = Box.symmetric([1.0])
        lb = linear_relaxation(net, box)
        k = np.array([[0.5]])
        plain = residual_magnitudes(lb, box, k)
        tiny = [QuantizationSpec(1e-15).widen(b) for b in plain]
        np.testing.assert_allclose(tiny[0], plain[0], atol=1e-12)
        np.testing.assert_allclose(tiny[1], plain[1], atol=1e-12)

    def test_quantized_outputs_inside_widened_bounds(self):
        rng = np.random.default_rng(8)
        net = random_relu_net(rng, d_in=2, d_out=1)
        box = Box(np.zeros(2), rng.uniform(0.2, 1.0, size=2))
        spec = QuantizationSpec(0.1)
        k = rng.normal(size=(1, 2))
        lb = linear_relaxation(net, box)
        u0_bar, u_bar = (spec.widen(b) for b in residual_magnitudes(lb, box, k))
        ys = rng.uniform(box.center - box.radius, box.center + box.radius,
                         size=(10_000, 2))
        outs = spec.apply(evaluate(net, ys))
        assert np.all(np.abs(outs) <= u_bar + 1e-12)
        assert np.all(np.abs(outs - ys @ k.T) <= u0_bar + 1e-12)

    def test_rounding_error_bound(self):
        spec = QuantizationSpec(0.3)
        u = np.linspace(-2.0, 2.0, 1001)
        assert np.max(np.abs(spec.apply(u) - u)) <= 0.15 + 1e-12

    @pytest.mark.parametrize("step", [0.0, -1.0, np.nan, np.inf])
    def test_step_must_be_finite_and_positive(self, step):
        # a zero step would divide by zero; an infinite one rounds every
        # output to 0 or NaN and cannot be written as JSON
        with pytest.raises(ValueError, match="quantization step must be finite and positive"):
            QuantizationSpec(step)


class TestRelaxationProperties:
    """Corpus-level soundness, interval dominance and box monotonicity."""

    def _corpus(self, seed=0, count=20):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            net = random_relu_net(rng)
            d = net.input_dim
            center = rng.normal(size=d) * 0.5
            radius = rng.uniform(0.05, 1.5, size=d)
            yield net, Box(center, radius), rng

    def test_magnitude_never_looser_than_intervals(self):
        for net, box, _ in self._corpus(seed=10):
            lb = linear_relaxation(net, box)
            relaxed = magnitude_bound(*concretize(lb, box))
            _, (lo, hi) = interval_bounds(net, box)
            assert np.all(relaxed <= magnitude_bound(lo, hi) + 1e-9)

    def test_shrinking_box_never_loosens(self):
        for net, box, _ in self._corpus(seed=11):
            prev = magnitude_bound(*concretize(linear_relaxation(net, box), box))
            for factor in (0.5, 0.25):
                small = Box(box.center, box.radius * factor)
                cur = magnitude_bound(*concretize(linear_relaxation(net, small), small))
                assert np.all(cur <= prev + 1e-9)
                prev = cur


class TestPolicyFiles:
    def test_round_trip_bit_faithful(self, tmp_path):
        rng = np.random.default_rng(12)
        net = random_relu_net(rng)
        path = tmp_path / "policy.json"
        neural.save_policy(path, net, QuantizationSpec(0.25), metadata={"note": "t"})
        loaded, quant = neural.load_policy(path)
        assert quant is not None and quant.step == 0.25
        for original, copy in zip(net.layers, loaded.layers):
            np.testing.assert_array_equal(original.weight, copy.weight)
            np.testing.assert_array_equal(original.bias, copy.bias)
            assert original.activation == copy.activation

    def test_no_quantization_round_trip(self, tmp_path):
        path = tmp_path / "policy.json"
        neural.save_policy(path, single_relu_policy())
        _, quant = neural.load_policy(path)
        assert quant is None

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_numbers_are_refused_before_the_file_is_opened(self, tmp_path, value):
        path = tmp_path / "policy.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            neural.save_policy(path, single_relu_policy(), metadata={"mse": value})
        assert not path.exists()

    @pytest.mark.parametrize("rows, cols, weights, message", [
        (-1, 1, [1.0], "layer 1: rows and cols must be >= 1, got -1 x 1"),
        (1, -1, [1.0], "layer 1: rows and cols must be >= 1, got 1 x -1"),
        (0, 0, [], "layer 1: rows and cols must be >= 1, got 0 x 0"),
        (1, 1, [1.0, 2.0], "layer 1: 2 weights, expected rows*cols = 1"),
    ])
    def test_rejects_bad_layer_sizes(self, rows, cols, weights, message):
        # a -1 would otherwise be inferred by reshape and the net would load
        obj = neural.policy_to_dict(single_relu_policy())
        obj["layers"][1].update(rows=rows, cols=cols, weights=weights)
        with pytest.raises(ValueError) as err:
            neural.policy_from_dict(obj)
        assert str(err.value) == message
