"""Command-line front end wiring the library into end-to-end workflows.

Subcommands: certify, baseline, frontier, attack, simulate, learn,
train-policy, lqr.  Exit codes: 0 on success (or a positive certificate),
2 when the run completed but the answer is negative (not certified, limit
violated), 1 on usage or file errors, so shell pipelines can distinguish
falsification from failure.

Each command takes only the flags it reads, but for frontier's ``--seed``,
which nothing reads.  ``--seed`` drives the randomness of simulate, learn
and train-policy, and every float is written with 17 significant digits, so
identical invocations produce byte-identical outputs.  Every JSON file
written is strict JSON (the baseline writes a non-finite number as null).
attack and simulate write files and require ``--out PATH``; the other
commands print to stdout without ``--out``.

Plant and policy JSON files always store radians; ``--degrees`` (on certify,
baseline, frontier, attack and simulate) converts the scalar angle-valued
options (attack level, state limits) and the matching output columns at the
terminal, never the files.
"""

from __future__ import annotations

import argparse
import functools
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


def _write_text(path, text: str) -> None:
    if path in (None, "-"):
        print(text, end="")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_json(path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=1, allow_nan=False) + "\n")


def _read(kind: str, load, spec: str):
    """``load(spec)``, with a missing ``kind`` file, or one whose JSON does
    not parse or holds a missing key or a wrong type or value, as a CliError."""
    try:
        return load(spec)
    except FileNotFoundError as exc:
        raise CliError(f"{kind} file not found: {spec}") from exc
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        raise CliError(f"cannot parse {kind} file {spec}: {exc}") from exc


def _load_plant(spec: str):
    """Plant from a JSON path or the built-in name ``cartpole``."""
    if spec == "cartpole":
        return cartpole_linearized(), None
    return _read("plant", linsys.load_plant, spec)


def _gain_from_file(path) -> np.ndarray:
    with open(path) as fh:
        obj = json.load(fh)
    key = "Kd" if "Kd" in obj else "K"
    if key not in obj:
        raise ValueError("it has neither 'Kd' nor 'K'")
    return linsys.matrix_from_dict(obj[key], key)


def _amplitude(flag: str, value: float) -> float:
    """``value`` of ``flag`` as a perturbation bound w, whose uniform draw on
    [-w, w] must have a finite float width 2w; a CliError otherwise."""
    if not 0.0 <= value <= sys.float_info.max / 2.0:
        raise CliError(f"{flag} must be finite, nonnegative and at most half the largest "
                       f"float, got {value}")
    return value


def _angle_scale(args) -> float:
    """Multiplier turning user-facing angle units into radians."""
    return math.pi / 180.0 if args.degrees else 1.0


def _loop(args, x_lim: float | None = None, w_inf: float | None = None,
          state: int | None = None):
    """``(plant, net, scale, lib)``: the inputs of a loop-closing command.

    ``state`` (``--target-state``, or attack's ``--target``) must index a
    state of the plant when given, with or without ``x_lim``.  The plant
    carries ``x_lim`` (on ``state``, every state when None) and ``w_inf``
    (checked by :func:`_amplitude`) when given, both in user angle units;
    ``scale`` turns those units into radians.  ``lib`` holds the keyword
    arguments every certify call shares: the ``--kd`` gain, the plant's
    Gamma_Delta and the policy's quantization.
    """
    plant, gamma = _load_plant(args.plant)
    net, quant = _read("policy", neural.load_policy, args.policy)
    if state is not None and not 0 <= state < plant.n:
        raise CliError(f"target state {state} out of range for n={plant.n}")
    scale = _angle_scale(args)
    if x_lim is not None:
        plant = certify.with_state_limit(plant, state, x_lim * scale)
    if w_inf is not None:
        plant = replace(plant, w_inf=_amplitude("--w-inf", w_inf) * scale)
    k_d = None if args.kd is None else _read("gain", _gain_from_file, args.kd)
    lib = dict(k_d=k_d, gamma_delta=gamma, quantization=quant)
    return plant, net, scale, lib


def cmd_certify(args) -> int:
    plant, net, _, lib = _loop(args, args.x_lim, args.w_inf, args.target_state)
    result = certify.algorithm1(plant, net, **lib)
    _write_json(args.out, result.to_dict())
    return EXIT_OK if result.success else EXIT_NEGATIVE


def cmd_baseline(args) -> int:
    plant, net, _, lib = _loop(args, args.x_lim, args.w_inf, args.target_state)
    result = certify.baseline_certify(plant, net, **lib)
    _write_json(args.out, result.to_dict())
    return EXIT_OK if result.certified else EXIT_NEGATIVE


def cmd_frontier(args) -> int:
    if args.with_attack and args.horizon < 1:
        raise CliError(f"--horizon must be at least 1, got {args.horizon}")
    plant, net, scale, lib = _loop(args, state=args.target_state)
    try:
        limits = [float(v) * scale for v in args.x_lim_list.split(",")]
    except ValueError as exc:
        raise CliError(f"bad --x-lim-list: {exc}") from exc
    sweep = dict(lib, x_lim_values=limits, tol=args.tol, target_state=args.target_state)
    certified = [w for _, w in certify.frontier(plant, net, **sweep)]
    baseline = attacked = [math.nan] * len(limits)  # nan and inf are written as empty cells
    if args.with_baseline:
        baseline = [w for _, w in certify.baseline_frontier(plant, net, **sweep)]
    if args.with_attack:
        # the limit is on the target state, or on every state when none is
        # given; a limit changes neither the gain nor the maps: one closure
        try:
            _, maps = certify.extract_loop(plant, net, None, lib["k_d"])
            targets = range(plant.n) if args.target_state is None else [args.target_state]
            attacked = attack_mod.violation_levels(plant, net, maps, targets, args.horizon,
                                                   limits, args.tol, lib["quantization"])
        except certify.NoStabilizingGain:
            pass  # no loop to attack: the cells stay empty
    unit = "degrees" if args.degrees else "radians"
    lines = [f"# angle unit: {unit}", "x_lim,w_certified,w_baseline,w_attack"]
    # an infinite limit is written as inf, so every row names its limit
    lines += [",".join([_fmt(x_lim / scale) if math.isfinite(x_lim) else "inf"]
                       + [_fmt(v / scale) if math.isfinite(v) else "" for v in levels])
              for x_lim, *levels in zip(limits, certified, baseline, attacked)]
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_attack(args) -> int:
    if args.horizon < 1:
        raise CliError(f"--horizon must be at least 1, got {args.horizon}")
    plant, net, _, lib = _loop(args, w_inf=args.w_inf, state=args.target)
    try:
        _, maps = certify.extract_loop(plant, net, None, lib["k_d"])
    except certify.NoStabilizingGain:
        print("no stabilizing gain; cannot build closed-loop maps", file=sys.stderr)
        return EXIT_NEGATIVE
    attack_mod.save_plan(args.out, attack_mod.design_attack(maps, args.target, args.horizon,
                                                            plant.w_inf))
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.steps < 0:
        raise CliError(f"--steps must be at least 0, got {args.steps}")
    # a flag the run would not read is a usage error: --w-inf bounds only
    # --random's draw, and a plan fixes the perturbation
    if args.random and args.plan is not None:
        raise CliError("--random cannot be combined with --plan, which fixes the perturbation")
    if args.random and args.w_inf is None:
        raise CliError("--random needs --w-inf, the bound of its uniform draw")
    if args.w_inf is not None and not args.random:
        raise CliError("--w-inf is read only with --random")
    if args.plant == "cartpole-nonlinear":
        plant = cartpole_nonlinear()
    else:
        plant, _ = _load_plant(args.plant)
    net, quant = _read("policy", neural.load_policy, args.policy)
    if args.plan is not None:
        w = attack_mod.load_plan(args.plan)
    elif args.random:
        w_inf = _amplitude("--w-inf", args.w_inf) * _angle_scale(args)
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
        if not np.all(np.isfinite(x0)):
            raise CliError(f"bad --x0: entries must be finite, got {args.x0}")
        if x0.size != plant.n:
            raise CliError(f"bad --x0: the plant has {plant.n} states, got {x0.size} entries")
    try:
        trace = attack_mod.simulate(plant, net, w, args.steps, x0=x0, quantization=quant)
    except attack_mod.DivergedAt as exc:
        print(f"simulation diverged at step {exc.step}", file=sys.stderr)
        attack_mod.save_trace(args.out, exc.trace, "diverged; partial trace, radians")
        return EXIT_NEGATIVE
    attack_mod.save_trace(args.out, trace, "units: radians")
    return EXIT_OK


def cmd_learn(args) -> int:
    try:
        params = json.loads(args.params) if args.params else {}
        if not isinstance(params, dict):
            raise TypeError(f"expected a JSON object, got {args.params}")
        plant = cartpole_nonlinear(CartPoleParams(**params))
    except (ValueError, TypeError) as exc:
        raise CliError(f"bad --params: {exc}") from exc
    w_inf = _amplitude("--w-inf", args.w_inf or 0.0)
    amplitude = _amplitude("--amplitude", args.amplitude)
    if args.n_boot < 2:
        raise CliError(f"--n-boot must be at least 2, got {args.n_boot}")
    try:
        episodes = sysid.collect(plant, args.episodes, ep_len=args.ep_len,
                                 u_amplitude=amplitude, seed=args.seed)
        if args.episodes_out:
            sysid.save_episodes(args.episodes_out, episodes)
        model = sysid.bootstrap_uncertainty(episodes, n_boot=args.n_boot, seed=args.seed)
    except (sysid.EpisodeDiverged, sysid.RankDeficient) as exc:
        print(f"identification failed: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    learned = sysid.uncertain_plant(model, c=plant.c, d_w=plant.d_w, b_w=plant.b_w,
                                    w_inf=w_inf)
    _write_json(args.out, linsys.plant_to_dict(learned, model.gamma_delta))
    return EXIT_OK


def _lqr_design(args, plant):
    """LQR ``(P, K)`` for ``Q = diag(--q-diag)`` (default I), ``R = --r * I``; None on failure."""
    q = np.diag([float(v) for v in args.q_diag.split(",")]) if args.q_diag else np.eye(plant.n)
    try:
        return policysynth.dare_solve(plant.a, plant.b, q, args.r * np.eye(plant.m))
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
    # checked before the clone trains: a bad step fails at once
    quant = None if args.quantize is None else neural.QuantizationSpec(args.quantize)
    result = policysynth.behavior_clone(k, config)
    metadata = {
        "teacher": "lqr",
        "mse": result.mse,
        "hidden": list(hidden),
        "box_radius": radius if isinstance(radius, float) else list(radius),
        "steps": args.steps, "samples": args.samples, "seed": args.seed,
    }
    _write_json(args.out, neural.policy_to_dict(result.net, quant, metadata))
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


def _file_path(value: str) -> str:
    if value == "-":
        raise argparse.ArgumentTypeError("needs a file path, not '-'")
    return value


def _group(*flags) -> argparse.ArgumentParser:
    """Parent parser holding ``(name, options)`` flags, for ``parents=``."""
    group = argparse.ArgumentParser(add_help=False)
    for name, options in flags:
        group.add_argument(name, **options)
    return group


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopcert",
        description="Certify and attack ReLU policies in discrete-time feedback loops.")
    sub = parser.add_subparsers(dest="command", required=True)

    out = _group(("--out", dict(default=None, help="output path (default: stdout)")))
    out_file = _group(("--out", dict(required=True, type=_file_path, help="output file path")))
    seed = _group(("--seed", dict(type=int, default=0)))
    plant = _group(("--plant", dict(required=True,
                                    help="plant JSON path or the built-in 'cartpole'")))
    policy = _group(("--policy", dict(required=True, help="policy JSON path")),
                    ("--degrees", dict(action="store_true",
                                       help="angle-valued options and reports in degrees")))
    # --kd goes with --plant and --policy wherever the loop is closed
    loop = [plant, policy, _group(
        ("--kd", dict(default=None, help="JSON file with a default gain (Kd or K)")))]
    w_inf = _group(("--w-inf", dict(type=float, default=None)))
    x_lim = _group(("--x-lim", dict(type=float, default=None)))
    target = _group(("--target-state", dict(type=int, default=None)))
    horizon = _group(("--horizon", dict(type=int, default=2500)))
    lqr = _group(("--q-diag", dict(default=None,
                                   help="comma-separated diagonal of Q (default identity)")),
                 ("--r", dict(type=float, default=1.0)))

    def command(name, func, summary, parents):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(func=func)
        return p

    command("certify", cmd_certify, "run the invariant-set certification",
            loop + [w_inf, x_lim, target, out])
    command("baseline", cmd_baseline, "run the small-gain baseline",
            loop + [w_inf, x_lim, target, out])

    p = command("frontier", cmd_frontier, "attack-level frontier over state limits",
                loop + [target, horizon, out])
    p.add_argument("--seed", type=int, default=0,
                   help="ignored: nothing in frontier is random; accepted so that "
                        "existing scripts keep running")
    p.add_argument("--x-lim-list", required=True, help="comma-separated state limits")
    p.add_argument("--tol", type=float, default=1e-4,
                   help="relative bisection tolerance, in (0, 1)")
    p.add_argument("--with-baseline", action="store_true")
    p.add_argument("--with-attack", action="store_true")

    p = command("attack", cmd_attack, "design a worst-case sign sequence",
                loop + [w_inf, horizon, out_file])
    p.add_argument("--target", type=int, required=True, help="state index to excite")

    p = command("simulate", cmd_simulate, "closed-loop simulation to a trace CSV",
                [plant, policy, w_inf, seed, out_file])
    p.add_argument("--plan", default=None, help="attack plan JSON")
    p.add_argument("--random", action="store_true", help="random perturbation")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--x0", default=None, help="comma-separated initial state")

    p = command("learn", cmd_learn, "identify a cart-pole model with bootstrap boxes",
                [w_inf, seed, out])
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--ep-len", type=int, default=30)
    p.add_argument("--amplitude", type=float, default=0.5)
    p.add_argument("--n-boot", type=int, default=100)
    p.add_argument("--params", default=None, help="JSON overrides for cart-pole constants")
    p.add_argument("--episodes-out", default=None,
                   help="also write the collected episodes as CSV")

    p = command("train-policy", cmd_train_policy, "behavior-clone an LQR law into a ReLU net",
                [plant, lqr, seed, out])
    p.add_argument("--hidden", default=None, help="comma-separated hidden widths")
    p.add_argument("--radius", default=None, help="sampling box radius (scalar or comma list)")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--quantize", type=float, default=None,
                   help="attach an output quantization step (finite, > 0) to the policy file")

    command("lqr", cmd_lqr, "discrete LQR gain and value matrix", [plant, lqr, out])
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads, built on its first call; parsing leaves
    it unchanged, so every later call and thread shares it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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


if __name__ == "__main__":
    entrypoint()
