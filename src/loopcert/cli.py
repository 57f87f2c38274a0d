"""Command-line front end wiring the library into end-to-end workflows.

Subcommands: certify, baseline, frontier, attack, simulate, learn,
train-policy, lqr.  Exit codes: 0 on success (or a positive certificate),
2 when the run completed but the answer is negative (not certified, limit
violated), 1 on usage or file errors, so shell pipelines can distinguish
falsification from failure.

All randomness is driven by ``--seed`` and every float is written with 17
significant digits, so identical invocations produce byte-identical outputs.
Plant and policy JSON files always store radians; ``--degrees`` converts the
scalar angle-valued options (attack level, state limits) and the matching
output columns at the terminal, never the files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import attack as attack_mod
from . import certify, linsys, neural, policysynth, sysid
from .plant import CartPoleParams, cartpole_linearized, cartpole_nonlinear

__all__ = ["main", "entrypoint", "build_parser"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2


class CliError(Exception):
    """Usage or I/O problem; message goes to stderr, exit code 1."""


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _write_json(path, obj) -> None:
    text = json.dumps(obj, indent=1)
    if path in (None, "-"):
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _load_plant(spec: str):
    """Plant from a JSON path or the built-in name ``cartpole``."""
    if spec == "cartpole":
        return cartpole_linearized(), None
    try:
        return linsys.load_plant(spec)
    except FileNotFoundError as exc:
        raise CliError(f"plant file not found: {spec}") from exc
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise CliError(f"cannot parse plant file {spec}: {exc}") from exc


def _load_policy(spec: str):
    try:
        return neural.load_policy(spec)
    except FileNotFoundError as exc:
        raise CliError(f"policy file not found: {spec}") from exc
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise CliError(f"cannot parse policy file {spec}: {exc}") from exc


def _load_gain(spec: str | None):
    if spec is None:
        return None
    try:
        with open(spec) as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise CliError(f"gain file not found: {spec}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"cannot parse gain file {spec}: {exc}") from exc
    key = "Kd" if "Kd" in obj else "K"
    if key not in obj:
        raise CliError(f"gain file {spec} has neither 'Kd' nor 'K'")
    return linsys.matrix_from_dict(obj[key], key)


def _angle_scale(args) -> float:
    """Multiplier turning user-facing angle units into radians."""
    return math.pi / 180.0 if getattr(args, "degrees", False) else 1.0


def _apply_limits(plant, args, scale: float):
    if args.x_lim is not None:
        plant = certify.with_state_limit(plant, args.target_state, args.x_lim * scale)
    if args.w_inf is not None:
        plant = replace(plant, w_inf=args.w_inf * scale)
    return plant


def cmd_certify(args) -> int:
    plant, gamma = _load_plant(args.plant)
    net, quant = _load_policy(args.policy)
    scale = _angle_scale(args)
    plant = _apply_limits(plant, args, scale)
    k_d = _load_gain(args.kd)
    result = certify.algorithm1(plant, net, k_d, gamma, quantization=quant,
                                eps_trunc=args.eps_trunc)
    _write_json(args.out, result.to_dict())
    return EXIT_OK if result.success else EXIT_NEGATIVE


def cmd_baseline(args) -> int:
    plant, gamma = _load_plant(args.plant)
    net, quant = _load_policy(args.policy)
    scale = _angle_scale(args)
    plant = _apply_limits(plant, args, scale)
    k_d = _load_gain(args.kd)
    result, quad = certify.baseline_certify(plant, net, k_d, gamma, quantization=quant,
                                            n_samples=args.samples, seed=args.seed,
                                            eps_trunc=args.eps_trunc)
    obj = result.to_dict()
    if quad is not None and quad.x_bar is not None:
        obj["x_bar"] = [float(v) for v in quad.x_bar]
    _write_json(args.out, obj)
    return EXIT_OK if result.certified else EXIT_NEGATIVE


def cmd_frontier(args) -> int:
    plant, gamma = _load_plant(args.plant)
    net, quant = _load_policy(args.policy)
    scale = _angle_scale(args)
    k_d = _load_gain(args.kd)
    try:
        x_values = [float(v) * scale for v in args.x_lim_list.split(",")]
    except ValueError as exc:
        raise CliError(f"bad --x-lim-list: {exc}") from exc

    unit = "degrees" if args.degrees else "radians"
    lines = [f"# angle unit: {unit}", "x_lim,w_certified,w_baseline,w_attack"]
    for value in x_values:
        certified = certify.frontier(plant, net, k_d, gamma, x_lim_values=[value],
                                     tol=args.tol, target_state=args.target_state,
                                     quantization=quant, eps_trunc=args.eps_trunc)[0][1]
        base = ""
        if args.with_baseline:
            base = certify.baseline_frontier(plant, net, k_d, gamma, x_lim_values=[value],
                                             tol=args.tol, target_state=args.target_state,
                                             quantization=quant, n_samples=args.samples,
                                             seed=args.seed, eps_trunc=args.eps_trunc)[0][1]
        atk = ""
        if args.with_attack:
            target = args.target_state if args.target_state is not None else 0
            limited = certify.with_state_limit(plant, args.target_state, value)
            try:
                _, maps = certify.extract_loop(limited, net, None, k_d, args.eps_trunc)
                atk = attack_mod.violation_level(limited, net, maps, target,
                                                 args.horizon, value,
                                                 quantization=quant)
            except certify.NoStabilizingGain:
                atk = math.inf
        cells = [_fmt(value / scale), _fmt(certified / scale)]
        cells.append(_fmt(base / scale) if base != "" else "")
        cells.append(_fmt(atk / scale) if atk != "" and math.isfinite(atk) else "")
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out in (None, "-"):
        print(text, end="")
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_attack(args) -> int:
    plant, _ = _load_plant(args.plant)
    net, _ = _load_policy(args.policy)
    scale = _angle_scale(args)
    k_d = _load_gain(args.kd)
    try:
        _, maps = certify.extract_loop(plant, net, None, k_d, args.eps_trunc)
    except certify.NoStabilizingGain:
        print("no stabilizing gain; cannot build closed-loop maps", file=sys.stderr)
        return EXIT_NEGATIVE
    w_inf = (args.w_inf if args.w_inf is not None else plant.w_inf) * scale
    plan = attack_mod.design_attack(maps, args.target, args.horizon, w_inf)
    if args.out in (None, "-"):
        raise CliError("attack requires --out PATH for the plan file")
    attack_mod.save_plan(args.out, plan)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.plant == "cartpole-nonlinear":
        plant = cartpole_nonlinear()
    else:
        plant, _ = _load_plant(args.plant)
    net, quant = _load_policy(args.policy)
    scale = _angle_scale(args)
    if args.plan is not None:
        w = attack_mod.load_plan(args.plan)
    elif args.random:
        w_inf = (args.w_inf if args.w_inf is not None else 0.0) * scale
        rng = np.random.default_rng(args.seed)
        p = plant.d_w.shape[1]
        w = rng.uniform(-w_inf, w_inf, size=(args.steps, p))
    else:
        w = None
    x0 = None
    if args.x0 is not None:
        try:
            x0 = np.array([float(v) for v in args.x0.split(",")])
        except ValueError as exc:
            raise CliError(f"bad --x0: {exc}") from exc
    try:
        trace = attack_mod.simulate(plant, net, w, args.steps, x0=x0, quantization=quant)
    except attack_mod.DivergedAt as exc:
        print(f"simulation diverged at step {exc.step}", file=sys.stderr)
        if args.out not in (None, "-"):
            attack_mod.save_trace(args.out, exc.trace, "diverged; partial trace, radians")
        return EXIT_NEGATIVE
    if args.out in (None, "-"):
        raise CliError("simulate requires --out PATH for the trace CSV")
    attack_mod.save_trace(args.out, trace, "units: radians")
    return EXIT_OK


def cmd_learn(args) -> int:
    params = CartPoleParams(**json.loads(args.params)) if args.params else CartPoleParams()
    plant = cartpole_nonlinear(params)
    episodes = sysid.collect(plant, args.episodes, ep_len=args.ep_len,
                             u_amplitude=args.amplitude, seed=args.seed)
    if args.episodes_out:
        sysid.save_episodes(args.episodes_out, episodes)
    try:
        model = sysid.bootstrap_uncertainty(episodes, n_boot=args.n_boot, seed=args.seed)
    except sysid.RankDeficient as exc:
        print(f"identification failed: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    learned = sysid.uncertain_plant(model, c=plant.c, d_w=plant.d_w, b_w=plant.b_w,
                                    w_inf=args.w_inf or 0.0)
    if args.out in (None, "-"):
        _write_json(None, linsys.plant_to_dict(learned, model.gamma_delta))
    else:
        linsys.save_plant(args.out, learned, model.gamma_delta)
    return EXIT_OK


def _lqr_design(args, plant):
    """LQR ``(P, K)`` for ``Q = diag(--q-diag)`` (default I), ``R = --r``; None on failure."""
    q = np.diag([float(v) for v in args.q_diag.split(",")]) if args.q_diag else np.eye(plant.n)
    try:
        return policysynth.dare_solve(plant.a, plant.b, q, np.array([[args.r]]))
    except policysynth.NoConvergence as exc:
        print(f"LQR design failed: {exc}", file=sys.stderr)
        return None


def cmd_train_policy(args) -> int:
    plant, _ = _load_plant(args.plant)
    design = _lqr_design(args, plant)
    if design is None:
        return EXIT_NEGATIVE
    _, k = design
    hidden = tuple(int(v) for v in args.hidden.split(",")) if args.hidden else (16, 16, 16)
    radius = ([float(v) for v in args.radius.split(",")]
              if args.radius and "," in args.radius
              else float(args.radius or 1.0))
    config = policysynth.CloneConfig(hidden=hidden, box_radius=radius,
                                     n_samples=args.samples, steps=args.steps,
                                     seed=args.seed)
    result = policysynth.behavior_clone(k, config)
    quant = neural.QuantizationSpec(args.quantize) if args.quantize else None
    metadata = {
        "teacher": "lqr",
        "mse": result.mse,
        "hidden": list(hidden),
        "box_radius": radius if isinstance(radius, float) else list(radius),
        "steps": args.steps, "samples": args.samples, "seed": args.seed,
    }
    if args.out in (None, "-"):
        _write_json(None, neural.policy_to_dict(result.net, quant, metadata))
    else:
        neural.save_policy(args.out, result.net, quant, metadata)
    return EXIT_OK


def cmd_lqr(args) -> int:
    plant, _ = _load_plant(args.plant)
    design = _lqr_design(args, plant)
    if design is None:
        return EXIT_NEGATIVE
    p, k = design
    obj = {
        "P": linsys.matrix_to_dict(p),
        "K": linsys.matrix_to_dict(k),
        "Kd": linsys.matrix_to_dict(-k),
        "closed_loop_spectral_radius": linsys.spectral_radius(plant.a - plant.b @ k),
    }
    _write_json(args.out, obj)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopcert",
        description="Certify and attack ReLU policies in discrete-time feedback loops.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, plant=True, policy=True):
        if plant:
            p.add_argument("--plant", required=True,
                           help="plant JSON path or the built-in 'cartpole'")
        if policy:
            p.add_argument("--policy", required=True, help="policy JSON path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--eps-trunc", dest="eps_trunc", type=float, default=None,
                       help="impulse-response truncation tolerance")
        p.add_argument("--degrees", action="store_true",
                       help="angle-valued options and reports in degrees")

    p = sub.add_parser("certify", help="run the invariant-set certification")
    common(p)
    p.add_argument("--kd", default=None, help="JSON file with a default gain (Kd or K)")
    p.add_argument("--w-inf", dest="w_inf", type=float, default=None)
    p.add_argument("--x-lim", dest="x_lim", type=float, default=None)
    p.add_argument("--target-state", dest="target_state", type=int, default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("baseline", help="run the sampled small-gain baseline")
    common(p)
    p.add_argument("--kd", default=None)
    p.add_argument("--w-inf", dest="w_inf", type=float, default=None)
    p.add_argument("--x-lim", dest="x_lim", type=float, default=None)
    p.add_argument("--target-state", dest="target_state", type=int, default=None)
    p.add_argument("--samples", type=int, default=4096)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("frontier", help="attack-level frontier over state limits")
    common(p)
    p.add_argument("--kd", default=None)
    p.add_argument("--x-lim-list", dest="x_lim_list", required=True,
                   help="comma-separated state limits")
    p.add_argument("--target-state", dest="target_state", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--with-baseline", dest="with_baseline", action="store_true")
    p.add_argument("--with-attack", dest="with_attack", action="store_true")
    p.add_argument("--horizon", type=int, default=2500)
    p.add_argument("--samples", type=int, default=4096)
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser("attack", help="design a worst-case sign sequence")
    common(p)
    p.add_argument("--kd", default=None)
    p.add_argument("--target", type=int, required=True, help="state index to excite")
    p.add_argument("--horizon", type=int, default=2500)
    p.add_argument("--w-inf", dest="w_inf", type=float, default=None)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("simulate", help="closed-loop simulation to a trace CSV")
    common(p)
    p.add_argument("--plan", default=None, help="attack plan JSON")
    p.add_argument("--random", action="store_true", help="random perturbation")
    p.add_argument("--w-inf", dest="w_inf", type=float, default=None)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--x0", default=None, help="comma-separated initial state")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("learn", help="identify a cart-pole model with bootstrap boxes")
    common(p, plant=False, policy=False)
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--ep-len", dest="ep_len", type=int, default=30)
    p.add_argument("--amplitude", type=float, default=0.5)
    p.add_argument("--n-boot", dest="n_boot", type=int, default=100)
    p.add_argument("--w-inf", dest="w_inf", type=float, default=None)
    p.add_argument("--params", default=None, help="JSON overrides for cart-pole constants")
    p.add_argument("--episodes-out", dest="episodes_out", default=None,
                   help="also write the collected episodes as CSV")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("train-policy", help="behavior-clone an LQR law into a ReLU net")
    common(p, policy=False)
    p.add_argument("--q-diag", dest="q_diag", default=None,
                   help="comma-separated diagonal of Q (default identity)")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--hidden", default=None, help="comma-separated hidden widths")
    p.add_argument("--radius", default=None, help="sampling box radius (scalar or comma list)")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--quantize", type=float, default=None,
                   help="attach an output quantization step to the policy file")
    p.set_defaults(func=cmd_train_policy)

    p = sub.add_parser("lqr", help="discrete LQR gain and value matrix")
    common(p, policy=False)
    p.add_argument("--q-diag", dest="q_diag", default=None)
    p.add_argument("--r", type=float, default=1.0)
    p.set_defaults(func=cmd_lqr)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())
