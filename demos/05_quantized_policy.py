"""A policy with quantized output has no Lipschitz constant; certify it anyway.

Rounding the control to multiples of 0.1 makes the policy discontinuous: the
residual ``pi0(y) = Q(pi(y)) - K0 y`` is bounded only as ``b + gamma ||y||``
with an offset ``b`` of half a step, so ``||pi0(y)||/||y||`` blows up as the
region shrinks and the small-gain baseline fails.  The invariant-set engine
only needs output *ranges*, which quantization merely widens by half a step,
so certification still goes through at a reduced perturbation level.
"""

import numpy as np

from loopcert import certify, neural, policysynth
from loopcert.plant import cartpole_linearized

cartpole = cartpole_linearized()
_, lqr_k = policysynth.dare_solve(cartpole.a, cartpole.b, np.eye(4), [[1.0]])
config = policysynth.CloneConfig(box_radius=(1.0, 1.0, 0.25, 0.6),
                                 n_samples=4000, steps=3000, seed=7)
policy = policysynth.behavior_clone(lqr_k, config).net
quantizer = neural.QuantizationSpec(0.1)
gain = neural.jacobian_at(policy, np.zeros(4))

offset = quantizer.widen(np.abs(neural.evaluate(policy, np.zeros(4)))).max()
print(f"sound residual bound |pi0(y)| <= b + gamma |y| of the quantized policy, b = {offset:g}:")
for radius in (0.01, 0.001, 0.0001):
    j_lo, j_hi = neural.jacobian_bounds(policy, neural.Box.symmetric(np.full(4, radius)))
    slope = np.max(np.sum(np.maximum(np.abs(j_lo - gain), np.abs(j_hi - gain)), axis=1))
    print(f"  box radius {radius:6}: gamma {slope:g}, (b + gamma r)/r = "
          f"{(offset + slope * radius) / radius:8.1f}")
print("-> diverges like (step/2)/radius; no finite local gain exists")

limited = certify.with_state_limit(cartpole, 2, 0.5)
result = certify.baseline_certify(limited, policy, -lqr_k, w_inf=2e-4,
                                  quantization=quantizer)
print(f"\nsmall-gain baseline: gamma = {result.gamma_pi:.1f}, b = {result.offset:g}, "
      f"beta2 = {result.beta2:.1f} -> certified: {result.certified}")

for quant, label in ((None, "exact output"), (quantizer, "quantized output")):
    def certifies(w, quant=quant):
        return certify.algorithm1(limited, policy, -lqr_k, quantization=quant,
                                  w_inf=w).success

    level = certify.bisect_max_level(certifies, 1e-3)
    print(f"invariant-set certified level with {label}: {level:.6f} rad")
print("-> quantization costs certified amplitude but not certifiability")
