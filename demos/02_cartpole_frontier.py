"""Certified attack-level frontier for a cloned cart-pole policy.

Trains a small ReLU policy by behavior cloning of the LQR law, then sweeps
the pole-angle deviation limit and records, per limit, the largest
perturbation amplitude certified by the invariant-set engine next to the
level accepted by the small-gain baseline, whose policy gain and offset come
from interval bounds on the policy's Jacobian.  The invariant-set curve
dominates, increasingly so at looser limits, because it reasons about one
coordinate box per measurement instead of a single scalar gain.

Writes ``cartpole_frontier.csv`` next to this script (columns in radians).
"""

import pathlib

import numpy as np

from loopcert import certify, policysynth
from loopcert.plant import cartpole_linearized

cartpole = cartpole_linearized()
_, lqr_k = policysynth.dare_solve(cartpole.a, cartpole.b, np.eye(4), [[1.0]])
print("LQR gain:", np.array2string(lqr_k, precision=3))

config = policysynth.CloneConfig(box_radius=(1.0, 1.0, 0.25, 0.6),
                                 n_samples=4000, steps=3000, seed=7)
print("cloning the LQR law into a 3x16 ReLU policy "
      f"({config.steps} steps x {config.n_samples} samples)...")
clone = policysynth.behavior_clone(lqr_k, config)
print(f"final cloning MSE: {clone.mse:.2e}")

sweep = [0.001, 0.002, 0.003, 0.005, 0.008]   # pole-angle limits, radians
print("\nbisecting the certified level per limit (this takes a few seconds)")
frontier = certify.frontier(cartpole, clone.net, -lqr_k, x_lim_values=sweep,
                            tol=1e-3, target_state=2)
baseline = certify.baseline_frontier(cartpole, clone.net, -lqr_k,
                                     x_lim_values=sweep, tol=1e-3,
                                     target_state=2)

out = pathlib.Path(__file__).with_name("cartpole_frontier.csv")
with out.open("w") as fh:
    fh.write("x_lim,w_certified,w_baseline\n")
    print(f"\n{'x_lim':>8} {'certified':>12} {'baseline':>12} {'ratio':>7}")
    for (x_lim, w_cert), (_, w_base) in zip(frontier, baseline):
        ratio = w_cert / w_base if w_base > 0 else float("inf")
        print(f"{x_lim:8.3f} {w_cert:12.6f} {w_base:12.6f} {ratio:7.2f}")
        fh.write(f"{x_lim:.17g},{w_cert:.17g},{w_base:.17g}\n")
print(f"\nwrote {out}")

limited = certify.with_state_limit(cartpole, 2, 0.005)
result = certify.baseline_certify(limited, clone.net, -lqr_k, w_inf=2e-4)
print(f"\nbaseline at x_lim 0.005, w 2e-4: |pi(y) - K0 y| <= {result.offset:g} "
      f"+ {result.gamma_pi:g} |y| -> certified: {result.certified}")
print("-> the clone is affine near the origin, so its residual bound there is exactly 0")
