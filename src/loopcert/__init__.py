"""Boundedness certificates and worst-case attacks for ReLU policies in feedback.

The package certifies that state, measurement and control signals of a
discrete-time (possibly learned and uncertain) linear plant in feedback with
a ReLU network policy stay inside elementwise limits under any persistent
amplitude-bounded perturbation, and synthesizes perturbation sequences that
probe how tight those certificates are.

Modules
-------
linsys       dense state-space algebra, truncated transfer matrices, norms
neural       ReLU networks, interval bounds, linear relaxations, quantization
certify      small-gain baseline, invariant-set engine, frontiers
attack       designed and Monte-Carlo attacks, simulation harness
plant        nonlinear cart-pole and its analytic linearization
sysid        least-squares identification with bootstrap error boxes
policysynth  discrete LQR and behavior cloning of linear laws
cli          command-line front end (imported on first use, not with the package)
"""

# cli is not imported here: ``python -m loopcert.cli`` must find it unimported,
# or runpy warns and runs a second copy of the module
from . import attack, certify, linsys, neural, plant, policysynth, sysid

__all__ = ["attack", "certify", "cli", "linsys", "neural", "plant",
           "policysynth", "sysid"]

__version__ = "0.1.0"
