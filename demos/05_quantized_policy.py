"""A policy with quantized output has no Lipschitz constant; certify it anyway.

Rounding the control to multiples of 0.1 makes the policy discontinuous: the
residual gain ||pi0(y)||/||y|| blows up as the region shrinks, so any
small-gain argument built on a sampled gain becomes inapplicable.  The
invariant-set engine only needs output *ranges*, which quantization merely
widens by half a step, so certification still goes through at a reduced
perturbation level.
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

print("sampled residual gain of the quantized policy over shrinking boxes:")
for radius in (0.1, 0.01, 0.001):
    value = certify.sampled_linf_gain(policy, gain, radius, 4096, seed=2,
                                      quantization=quantizer)
    print(f"  box radius {radius:6}: gain estimate {value:8.2f}")
print("-> diverges like (step/2)/radius; no finite local gain exists")

limited = certify.with_state_limit(cartpole, 2, 0.5)
result = certify.baseline_certify(limited, policy, -lqr_k, w_inf=2e-4,
                                  quantization=quantizer, n_samples=4096, seed=11)
print(f"\nsmall-gain baseline: beta2 = {result.beta2:.1f} -> certified: {result.certified}")

for quant, label in ((None, "exact output"), (quantizer, "quantized output")):
    def certifies(w, quant=quant):
        return certify.algorithm1(limited, policy, -lqr_k, quantization=quant,
                                  w_inf=w).success

    level = certify.bisect_max_level(certifies, 1e-3)
    print(f"invariant-set certified level with {label}: {level:.6f} rad")
print("-> quantization costs certified amplitude but not certifiability")
