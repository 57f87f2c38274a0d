"""ReLU multilayer perceptrons and their sound linear relaxations over a box.

A policy is a chain of affine layers with ReLU or identity activations (the
final layer is always linear).  For a box of inputs the module produces:

* interval bounds on every pre-activation (plain interval arithmetic),
* affine envelopes ``K_L y + b_L <= pi(y) <= K_U y + b_U`` valid on the box,
  built by backward propagation through per-neuron ReLU relaxations,
* concretized output ranges, residual bounds after subtracting a linear gain,
  and widened ranges for quantized outputs,
* interval bounds on the Jacobian (:func:`jacobian_bounds`).

Relaxation rules for a neuron with pre-activation range ``l < 0 < u``: the
upper envelope is the chord (slope ``u/(u-l)``, intercept ``-u*l/(u-l)``);
the lower envelope passes through the origin.  Two lower slopes are carried
side by side on a leading axis of size 2 through one backward pass: the
adaptive one (index 0; slope 1 when ``u >= |l|`` and 0 otherwise, ties to 1,
as in CROWN) and the flat one (index 1; slope 0).  Each output row keeps the
variant with the smaller concretized magnitude.  Neurons whose range does
not straddle zero use the exact identity/zero lines.

A :class:`Box` may hold a stack of B boxes (``(B, d)`` centers and radii);
:func:`linear_relaxation` then relaxes all of them in one pass, with slopes
of shape ``(B, rows, d)``, and each box's bounds are bit for bit those of
relaxing it alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OnKink",
    "Layer",
    "ReluNetwork",
    "Box",
    "LinearBounds",
    "QuantizationSpec",
    "evaluate",
    "linear_relaxation",
    "concretize",
    "magnitude_bound",
    "residual_magnitudes",
    "jacobian_bounds",
    "jacobian_at",
    "load_policy",
    "save_policy",
]

ACTIVATIONS = ("relu", "linear")

KINK_TOL = 1e-12


class OnKink(ValueError):
    """A Jacobian was requested at a point where some pre-activation is 0."""


@dataclass(frozen=True)
class Layer:
    weight: np.ndarray
    bias: np.ndarray
    activation: str = "relu"

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        b = np.asarray(self.bias, dtype=float)
        if w.ndim != 2:
            raise ValueError("layer weight must be a matrix")
        if b.shape != (w.shape[0],):
            raise ValueError("bias length must match weight rows")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("layer parameters must be finite")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class ReluNetwork:
    """Static feedforward policy; the last layer must be linear."""

    layers: tuple[Layer, ...]

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise ValueError("consecutive layer dimensions do not chain")
        if layers[-1].activation != "linear":
            raise ValueError("final layer must be linear")
        object.__setattr__(self, "layers", layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[0]


def mlp(weights_and_biases) -> ReluNetwork:
    """Network from a [(W, b), ...] list; all but the last layer get ReLU."""
    pairs = list(weights_and_biases)
    layers = [Layer(w, b, "relu") for w, b in pairs[:-1]]
    layers.append(Layer(pairs[-1][0], pairs[-1][1], "linear"))
    return ReluNetwork(tuple(layers))


@dataclass(frozen=True)
class Box:
    """Axis-aligned input region ``|y - center| <= radius`` (elementwise).

    ``center`` and ``radius`` are vectors, or ``(B, d)`` stacks of B boxes,
    which :func:`linear_relaxation` and :func:`concretize` take at once.
    """

    center: np.ndarray
    radius: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        r = np.asarray(self.radius, dtype=float)
        if c.ndim not in (1, 2) or r.shape != c.shape:
            raise ValueError("center and radius must be matching vectors or stacks of them")
        if np.any(r < 0) or not np.all(np.isfinite(r)):
            raise ValueError("radius must be finite and elementwise >= 0")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @classmethod
    def symmetric(cls, radius) -> "Box":
        r = np.atleast_1d(np.asarray(radius, dtype=float))
        return cls(np.zeros_like(r), r)


@dataclass(frozen=True)
class LinearBounds:
    """Affine envelopes of the network output over an associated box.

    Soundness contract: ``K_L y + b_L <= pi(y) <= K_U y + b_U`` elementwise
    for every y in the box the bounds were built from.
    """

    k_l: np.ndarray
    b_l: np.ndarray
    k_u: np.ndarray
    b_u: np.ndarray


@dataclass(frozen=True)
class QuantizationSpec:
    """Round-to-nearest-multiple output quantization with step ``h``.

    The rounding error satisfies ``|Q(u) - u| <= h/2`` elementwise, so
    :meth:`widen` turns a bound on ``|u|`` into one on ``|Q(u)|``.
    """

    step: float

    def __post_init__(self):
        if not 0 < self.step < np.inf:
            raise ValueError(f"quantization step must be finite and positive, got {self.step}")
        object.__setattr__(self, "step", float(self.step))

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.step * np.round(np.asarray(u, dtype=float) / self.step)

    def widen(self, bound: np.ndarray) -> np.ndarray:
        """A bound on ``|u|`` (or on ``|u - K0 y|``) widened by half a step,
        so that it bounds the quantized output too."""
        return bound + self.step / 2.0


def evaluate(net: ReluNetwork, y) -> np.ndarray:
    """Exact forward pass.

    Accepts a single input vector or a batch with samples in rows.  Each
    layer makes one fresh array and adds its bias and applies its ReLU in
    place; a single vector's products are ``np.dot`` calls and a batch's
    ``np.matmul``.  Callers that evaluate many equal-sized batches reuse row
    buffers through :func:`_forward_into` instead, with bit-identical results.
    """
    z = np.asarray(y, dtype=float)
    if z.shape[-1] != net.input_dim:
        raise ValueError(f"input has {z.shape[-1]} entries, network expects {net.input_dim}")
    return _forward_into(z, _bind(net.layers))


def _bind(layers) -> list:
    """``(weight.T, bias, relu)`` per layer: the layers :func:`_forward_into` takes.

    The arrays are views of the layers' own, so a caller that binds once and
    then updates the weights in place evaluates the updated network.
    """
    return [(layer.weight.T, layer.bias, layer.activation == "relu") for layer in layers]


def _forward_into(z: np.ndarray, layers, outs=None) -> np.ndarray:
    """Forward pass of ``z`` through ``layers`` (as :func:`_bind` makes them),
    layer k written into ``outs[k]``.

    Without ``outs`` each layer makes one fresh array.  A layer is
    ``z weight'``, then ``+= bias``, then ``maximum(., 0)`` in place for a
    ReLU layer, so a buffer holds the same bits a fresh array would.  The
    product of a single row, a 1-D ``z``, is an ``np.dot`` call, which reaches
    BLAS's matrix-vector product in fewer steps than ``np.matmul``; a batch's
    is ``np.matmul``, per row for a (B, 1, n) stack, with the same bits.
    Returns the last layer's output.
    """
    product = np.dot if z.ndim == 1 else np.matmul
    for k, (weight_t, bias, relu) in enumerate(layers):
        z = product(z, weight_t) if outs is None else product(z, weight_t, out=outs[k])
        z += bias
        if relu:
            np.maximum(z, 0.0, out=z)
    return z


def interval_bounds(net: ReluNetwork, box: Box):
    """Interval arithmetic through the network.

    Returns ``(pre, out)`` where ``pre`` lists one ``(lower, upper)``
    pre-activation pair per layer and ``out`` is the output interval (equal to
    the last pre-activation pair because the final layer is linear).  Sound:
    every input in the box produces pre-activations inside the intervals.

    A ``(B, d)`` stack of boxes gives ``(B, width)`` bounds, and each box's
    equal bounding it alone bit for bit: every product takes one box's
    vector as a column.
    """
    if box.center.shape[-1] != net.input_dim:
        raise ValueError("box does not match the network input dimension")
    mid, rad = box.center[..., None], box.radius[..., None]
    pre = []
    for layer in net.layers:
        p_mid = layer.weight @ mid + layer.bias[:, None]
        p_rad = np.abs(layer.weight) @ rad
        lo, hi = p_mid - p_rad, p_mid + p_rad
        pre.append((lo[..., 0], hi[..., 0]))
        if layer.activation == "relu":
            lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
        mid, rad = (lo + hi) / 2.0, (hi - lo) / 2.0
    return pre, pre[-1]


def _relu_lines(lo: np.ndarray, hi: np.ndarray):
    """Per-neuron envelope lines (upper slope/intercept, lower slope).

    ``lo`` and ``hi`` are stacked ``(..., 2, width)`` pre-activation bounds,
    row 0 for the adaptive variant and row 1 for the flat one.  The upper
    line is the chord over [lo, hi].  The lower line runs through the origin;
    in row 0 its slope is 1 when hi >= |lo| and 0 otherwise (tightest area,
    ties to 1), in row 1 it is always 0, which keeps the envelope inside the
    interval-arithmetic constants.
    """
    dead = hi <= 0.0
    active = lo >= 0.0
    unstable = ~(dead | active)
    up_slope = (active & ~dead).astype(float)
    up_icept = np.zeros_like(lo)
    lo_slope = up_slope.copy()
    if unstable.any():
        h, l = hi[unstable], lo[unstable]
        span = h - l
        up_slope[unstable] = h / span
        up_icept[unstable] = -h * l / span
        adaptive = unstable[..., 0, :]
        lo_slope[..., 0, :][adaptive] = hi[..., 0, :][adaptive] >= -lo[..., 0, :][adaptive]
    return up_slope, up_icept, lo_slope


def _backward_bounds(layers, lines: list, weight: np.ndarray, bias: np.ndarray,
                     boxes: tuple) -> LinearBounds:
    """One backward pass of the linear readout ``(weight, bias)`` over ``layers``.

    ``lines`` holds one stacked (up_slope, up_icept, lo_slope) triple per
    ReLU layer among ``layers``, which feed the readout.  Both variants of
    every box run at once: ``boxes`` is the box stack's leading shape, ``()``
    or ``(B,)``, and the returned slopes are ``(*boxes, 2, rows, in)`` and
    the intercepts ``(*boxes, 2, rows)``, variant 0 adaptive and 1 flat.
    """
    # the readout is shared until the first ReLU layer spreads it over the
    # boxes and variants
    k_u = k_l = weight
    b_u = b_l = bias
    relu_idx = len(lines) - 1
    for layer in reversed(layers):
        if layer.activation == "relu":
            up_slope, up_icept, lo_slope = lines[relu_idx]
            relu_idx -= 1
            up_slope, lo_slope = up_slope[..., None, :], lo_slope[..., None, :]
            up_icept = up_icept[..., None]
            # positive coefficients take the upper line, negative the lower;
            # the lower line has zero intercept so only up_icept contributes.
            pos_u, neg_u = np.maximum(k_u, 0.0), np.minimum(k_u, 0.0)
            b_u = b_u + (pos_u @ up_icept)[..., 0]
            k_u = pos_u * up_slope + neg_u * lo_slope
            pos_l, neg_l = np.maximum(k_l, 0.0), np.minimum(k_l, 0.0)
            b_l = b_l + (neg_l @ up_icept)[..., 0]
            k_l = pos_l * lo_slope + neg_l * up_slope
        b_u = b_u + k_u @ layer.bias
        k_u = k_u @ layer.weight
        b_l = b_l + k_l @ layer.bias
        k_l = k_l @ layer.weight
    if k_u.ndim == 2:
        k_u = k_l = np.broadcast_to(k_u, (*boxes, 2, *k_u.shape))
        b_u = b_l = np.broadcast_to(b_u, (*boxes, 2, *b_u.shape))
    return LinearBounds(k_l=k_l, b_l=b_l, k_u=k_u, b_u=b_u)


def linear_relaxation(net: ReluNetwork, box: Box) -> LinearBounds:
    """Backward propagation of affine output envelopes over the box.

    Intermediate pre-activation ranges come from layer-by-layer backward
    bounding (tighter than plain interval propagation): a ReLU layer's
    bounds come from a backward pass of the subnetwork that ends at it, with
    the envelope lines of the earlier ReLU layers.  Each ReLU is replaced by
    its envelope lines and the output row coefficients select the upper or
    lower line by sign while walking back to the input.

    Two sound variants run through one stacked pass per ReLU layer and one
    final pass: the adaptive lower slope (tightest area per neuron) and the
    zero lower slope, whose concretization provably never exceeds the
    interval-arithmetic output bounds.  Each variant bounds every layer with
    its own earlier lines.  Per output row the flat variant wins only when
    its concretized magnitude is strictly smaller, so ties keep the adaptive
    lines.  The result is therefore elementwise at least as tight as plain
    interval propagation.

    A stack of B boxes is relaxed in the same passes, on a leading axis of
    size B ahead of the variant axis; every product acts on one box's
    matrices, so each box's bounds equal those of relaxing it alone.
    """
    *hidden, last = net.layers
    boxes = box.center.shape[:-1]
    lines = []
    for idx, layer in enumerate(hidden):
        if layer.activation == "relu":
            head = _backward_bounds(hidden[:idx], lines, layer.weight, layer.bias, boxes)
            lines.append(_relu_lines(*concretize(head, box)))
    both = _backward_bounds(hidden, lines, last.weight, last.bias, boxes)
    mag = magnitude_bound(*concretize(both, box))
    flat = mag[..., 1, :] < mag[..., 0, :]
    k_l, k_u = (np.where(flat[..., None], k[..., 1, :, :], k[..., 0, :, :])
                for k in (both.k_l, both.k_u))
    b_l, b_u = (np.where(flat, b[..., 1, :], b[..., 0, :]) for b in (both.b_l, both.b_u))
    return LinearBounds(k_l=k_l, b_l=b_l, k_u=k_u, b_u=b_u)


def concretize(lb: LinearBounds, box: Box) -> tuple[np.ndarray, np.ndarray]:
    """Extreme values of the affine envelopes over the box.

    ``u_max = b_U + K_U c + |K_U| r`` and ``u_min = b_L + K_L c - |K_L| r``;
    together they bracket every network output on the box.  Over a stack of
    boxes the slopes lead with the stack's axis, and may carry the variant
    axis of :func:`linear_relaxation` after it.
    """
    # each box's vectors as columns, broadcast over any axis between the
    # stack's and the slopes' rows
    spread = (1,) * (lb.k_u.ndim - box.center.ndim - 1)
    center = box.center.reshape(*box.center.shape[:-1], *spread, -1, 1)
    radius = box.radius.reshape(center.shape)
    u_max = lb.b_u + (lb.k_u @ center)[..., 0] + (np.abs(lb.k_u) @ radius)[..., 0]
    u_min = lb.b_l + (lb.k_l @ center)[..., 0] - (np.abs(lb.k_l) @ radius)[..., 0]
    return u_min, u_max


def magnitude_bound(u_min: np.ndarray, u_max: np.ndarray) -> np.ndarray:
    """Elementwise bound on |output| from a (min, max) bracket."""
    return np.maximum(np.abs(u_min), np.abs(u_max))


def residual_magnitudes(lb: LinearBounds, box: Box, k0) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude bounds for the residual policy and for the full policy.

    The residual ``pi0(y) = pi(y) - K0 y`` inherits the envelopes ``lb`` of
    ``pi``, built over ``box``, with ``K0`` subtracted from both slope
    matrices.  Returns ``(u0_bar, u_bar)``: elementwise bounds on
    ``|pi0(y)|`` and ``|pi(y)|`` over the box.
    """
    k0 = np.asarray(k0, dtype=float)
    if k0.shape != lb.k_u.shape:
        raise ValueError(f"k0 has shape {k0.shape}, expected {lb.k_u.shape}")
    res = LinearBounds(k_l=lb.k_l - k0, b_l=lb.b_l, k_u=lb.k_u - k0, b_u=lb.b_u)
    u0_bar = magnitude_bound(*concretize(res, box))
    u_bar = magnitude_bound(*concretize(lb, box))
    return u0_bar, u_bar


def jacobian_bounds(net: ReluNetwork, box: Box) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise bounds ``(J_lo, J_hi)`` on the policy's Jacobian over the box.

    As in Fast-Lip (Weng et al., 2018): the pre-activation bounds of
    :func:`interval_bounds` give each ReLU a slope of 0 (``hi <= 0``), 1
    (``lo >= 0``) or anything in [0, 1], and the Jacobian is carried through
    the layers as a centre and a radius.  A layer maps them to ``W C`` and
    ``|W| R``; a slope interval ``m +- h`` to ``m C`` and
    ``m R + h (|C| + R)``.  Every generalized Jacobian of the policy at a
    point of the box lies within the bounds, in exact arithmetic.  Where the
    interval bounds fix every slope, both bounds are the Jacobian that
    :func:`jacobian_at` computes inside the box, bit for bit.

    A ``(B, d)`` stack of boxes gives ``(B, out, d)`` bounds in one pass,
    each box's equal to bounding it alone bit for bit.
    """
    pre, _ = interval_bounds(net, box)
    centre = np.eye(net.input_dim)
    radius = np.zeros_like(centre)
    for layer, (lo, hi) in zip(net.layers, pre):
        centre, radius = layer.weight @ centre, np.abs(layer.weight) @ radius
        if layer.activation == "relu":
            top = (hi > 0.0).astype(float)  # the slope's upper and lower ends
            bottom = top * (lo >= 0.0)
            mid, half = ((top + bottom) / 2.0)[..., None], ((top - bottom) / 2.0)[..., None]
            centre, radius = mid * centre, mid * radius + half * (np.abs(centre) + radius)
    if centre.ndim < box.center.ndim + 1:
        # no ReLU layer: one Jacobian for every box of the stack
        shape = (*box.center.shape[:-1], *centre.shape)
        centre, radius = np.broadcast_to(centre, shape), np.broadcast_to(radius, shape)
    return centre - radius, centre + radius


def jacobian_at(net: ReluNetwork, y0) -> np.ndarray:
    """Exact Jacobian at a point via the activation-pattern chain product.

    Raises
    ------
    OnKink
        If any pre-activation magnitude is within ``KINK_TOL`` of zero, where
        the ReLU pattern (and hence the Jacobian) is ill-defined.
    """
    z = np.asarray(y0, dtype=float)
    if z.shape != (net.input_dim,):
        raise ValueError("y0 must be a single input vector")
    jac = np.eye(net.input_dim)
    for layer in net.layers:
        pre = layer.weight @ z + layer.bias
        jac = layer.weight @ jac
        if layer.activation == "relu":
            if np.any(np.abs(pre) <= KINK_TOL):
                raise OnKink("pre-activation exactly on a ReLU kink")
            mask = pre > 0.0
            jac = jac * mask[:, None]
            z = np.maximum(pre, 0.0)
        else:
            z = pre
    return jac


# ---------------------------------------------------------------------------
# Policy file format: JSON {"layers": [{"rows": R, "cols": C,
# "weights": [row-major], "bias": [...], "activation": "relu"|"linear"}],
# "quantization": null | {"step": h}}.  Floats are written with full
# round-trip precision.  Extra keys (e.g. training metadata) are ignored on
# load.
# ---------------------------------------------------------------------------


def policy_to_dict(net: ReluNetwork, quantization: QuantizationSpec | None = None,
                   metadata: dict | None = None) -> dict:
    obj = {
        "layers": [
            {
                "rows": layer.weight.shape[0],
                "cols": layer.weight.shape[1],
                "weights": [float(v) for v in layer.weight.ravel()],
                "bias": [float(v) for v in layer.bias],
                "activation": layer.activation,
            }
            for layer in net.layers
        ],
        "quantization": None if quantization is None else {"step": quantization.step},
    }
    if metadata is not None:
        obj["metadata"] = metadata
    return obj


def policy_from_dict(obj: dict) -> tuple[ReluNetwork, QuantizationSpec | None]:
    layers = []
    for index, entry in enumerate(obj["layers"]):
        rows, cols = int(entry["rows"]), int(entry["cols"])
        w = np.asarray(entry["weights"], dtype=float)
        # reshape would infer a -1 and accept the layer
        if rows < 1 or cols < 1:
            raise ValueError(f"layer {index}: rows and cols must be >= 1, got {rows} x {cols}")
        if w.size != rows * cols:
            raise ValueError(f"layer {index}: {w.size} weights, expected rows*cols = "
                             f"{rows * cols}")
        w = w.reshape(rows, cols)
        b = np.asarray(entry["bias"], dtype=float)
        layers.append(Layer(w, b, entry.get("activation", "relu")))
    net = ReluNetwork(tuple(layers))
    quant = obj.get("quantization")
    return net, (None if quant is None else QuantizationSpec(float(quant["step"])))


def save_policy(path, net: ReluNetwork, quantization: QuantizationSpec | None = None,
                metadata: dict | None = None) -> None:
    """Write strict JSON: a non-finite number raises ValueError before the file opens."""
    text = json.dumps(policy_to_dict(net, quantization, metadata), indent=1, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_policy(path) -> tuple[ReluNetwork, QuantizationSpec | None]:
    with open(path) as fh:
        return policy_from_dict(json.load(fh))
