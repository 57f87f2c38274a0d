"""The two benchmark workloads: one round of operations each, plus their checks.

Both workloads run the same user-visible operations, so both report every
end-to-end metric; they differ in the plant the operations act on.

* ``cartpole``: the linearized cart-pole (true model).  Its closed-loop maps
  are narrow (8 x 2 blocks, T = 2681), so the certification operations spend
  their time in loop closure and relaxation.  The soundness simulations run
  against three certified boxes: the scalar loop, the cart-pole clone and
  the quantized clone.
* ``learned``: the cart-pole learned by ``loopcert learn`` with its bootstrap
  uncertainty ``Gamma_Delta``.  Its maps are wide (13 x 6 blocks, four
  uncertainty channels), so the same linsys and certify code works on larger
  blocks and the maps cache holds more memory.

Every operation goes through ``loopcert.cli.main`` or a public function,
looked up on its module at call time so that a traced run sees it.  Every
check is made apart from the program (a plain numpy recursion, a closed
form) or from a property the method must have (soundness, monotonicity).
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from typing import NamedTuple

import numpy as np

from loopcert import attack, certify, cli, linsys, neural, plant, sysid

TARGET = 2                 # pole angle
TOL = 1e-3                 # frontier bisection, relative
SWEEP = (0.001, 0.002, 0.003, 0.005, 0.008)
LEARNED_SWEEP = (0.002, 0.005)
REF_X_LIM = 0.005
REF_W = {"cartpole": 1e-3, "learned": 5e-4}
HORIZON = 2500
# The baseline's sampling seed and the learned plant behind the learned
# frontier stay fixed: both change how many bisection passes a sweep needs
# (the baseline frontier took 1.9-2.5 s over sampling seeds 0-11, the learned
# frontier 1.2-3.0 s over learning seeds 0-7), which would swamp the timing.
BASELINE_SEED = 11
LEARNED_PLANT_SEED = 1
MC_RUNS = 6                # timed, per round, on the workload's own box
MC_STEPS = 5_000
CERTIFY_REPEATS = 20       # per round
LEARN_REPEATS = 8          # per round
CLONE_ARGS = ["--hidden", "16,16,16", "--radius", "1,1,0.25,0.6",
              "--samples", "4000", "--steps", "3000", "--seed", "7"]
SLACK = 1e-9               # relative, for float rounding in simulations

WORKLOADS = ("cartpole", "learned")


class Timing(NamedTuple):
    """One measurement: CPU seconds at reference speed, and as read."""

    seconds: float
    cpu_s: float


class Run:
    """Counts operations, collects timing samples and check outcomes."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[Timing]] = {}
        self.checks: list[tuple[str, bool, str]] = []
        self.fingerprint: dict = {}
        self.rng = np.random.default_rng(seed)
        self.probe = None  # a speed.SpeedProbe while timings are scaled

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def op(self, fn, *args, **kwargs) -> tuple[Timing, object] | None:
        """Run one operation; returns (timing, result), or None if it failed."""
        self.attempted += 1
        mark = self.probe.mark() if self.probe else 0
        start = time.process_time()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.note(f"operation {getattr(fn, '__name__', fn)} raised {exc!r}")
            return None
        cpu_s = time.process_time() - start
        seconds = self.probe.scaled(cpu_s, mark) if self.probe else cpu_s
        return Timing(seconds, cpu_s), result

    def cli(self, *argv) -> Timing | None:
        """Timing of one ``loopcert`` invocation that exits with 0."""
        out = self.op(cli.main, [str(a) for a in argv])
        if out is None:
            return None
        timing, code = out
        if code != cli.EXIT_OK:
            self.failed += 1
            self.note(f"loopcert {argv[0]} exited with {code}")
            return None
        return timing

    def sample(self, metric: str, timing: Timing | None) -> None:
        if timing is not None:
            self.samples.setdefault(metric, []).append(timing)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.note(f"check failed: {name} {detail}")

    @staticmethod
    def note(text: str) -> None:
        print(f"# {text}", flush=True)


# ---------------------------------------------------------------------------
# Set-up: the LQR gain and the reference behaviour clone.
# ---------------------------------------------------------------------------


def warm_setup(run: Run) -> None:
    """Untimed first calls of both set-up commands (a tiny clone)."""
    run.cli("lqr", "--plant", "cartpole", "--out", run.path("warm-lqr.json"))
    run.cli("train-policy", "--plant", "cartpole", "--samples", "64", "--steps", "5",
            "--out", run.path("warm-policy.json"))


def setup(run: Run, index: int) -> None:
    """``loopcert lqr`` plus ``loopcert train-policy`` with the reference clone."""
    t_lqr = run.cli("lqr", "--plant", "cartpole", "--out", run.path(f"lqr-{index}.json"))
    t_clone = run.cli("train-policy", "--plant", "cartpole", *CLONE_ARGS,
                      "--out", run.path(f"policy-{index}.json"))
    if t_lqr is not None and t_clone is not None:
        run.sample("setup_s", Timing(t_lqr.seconds + t_clone.seconds,
                                     t_lqr.cpu_s + t_clone.cpu_s))


def check_setup(run: Run, repeats: int) -> None:
    def read(name):
        with open(run.path(name), "rb") as fh:
            return fh.read()

    same = all(read(f"{kind}-{i}.json") == read(f"{kind}-0.json")
               for kind in ("lqr", "policy") for i in range(repeats))
    run.check("set-up is byte-identical across repeats", same)


# ---------------------------------------------------------------------------
# Inputs shared by the rounds (untimed).
# ---------------------------------------------------------------------------


def _read_frontier(path: str) -> list[tuple[float, float, float | None]]:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    return [(float(r[0]), float(r[1]), float(r[2]) if r[2] else None) for r in rows[1:]]


def _scalar_loop():
    plant_ = linsys.make_plant([[0.5]], [[1.0]], b_w=[[1.0]], w_inf=0.1)
    policy = neural.mlp([(np.array([[-0.2]]), np.array([0.0]))])
    return plant_, policy


def _abs_impulse_sum(a_cl, b, c, d, terms):
    """``|D| + sum_{t=1..terms-1} |C A^(t-1) B|`` by a plain power recursion."""
    total = np.abs(d).astype(float)
    power_b = b.copy()
    for _ in range(terms - 1):
        total += np.abs(c @ power_b)
        power_b = a_cl @ power_b
    return total


class Inputs:
    """Policy, plant, certified boxes and maps one workload needs."""

    def __init__(self, run: Run, plant_arg: str, sweep: tuple):
        self.policy_path = run.path("policy-0.json")
        self.lqr_path = run.path("lqr-0.json")
        self.net, _ = neural.load_policy(self.policy_path)
        with open(self.lqr_path) as fh:
            self.kd = linsys.matrix_from_dict(json.load(fh)["Kd"])
        self.cartpole = plant.cartpole_linearized()
        self.plant_arg = plant_arg  # the --plant argument of every command
        self.sweep = sweep
        self.plant, self.gamma = self.cartpole, None
        self.boxes = []  # (name, plant, policy, quantization, w_inf, CertResult)
        self.true_level = None
        self.limited = self.violation_maps = None


def prepare_cartpole(run: Run) -> Inputs:
    inp = Inputs(run, "cartpole", SWEEP)

    # Sum |Phi| at the Jacobian gain against a plain numpy recursion: equal
    # over the computed horizon, and an upper bound of a horizon twice as long.
    gain = neural.jacobian_at(inp.net, np.zeros(4))
    maps = linsys.close_loop(inp.cartpole, gain)
    cp = inp.cartpole
    a_cl = cp.a + cp.b @ gain @ cp.c
    b_w_cl = cp.b @ gain @ cp.d_w + cp.b_w
    terms = maps.xw.length
    ref_xw = _abs_impulse_sum(a_cl, b_w_cl, np.eye(4), np.zeros((4, 1)), terms)
    ref_yu = _abs_impulse_sum(a_cl, cp.b, cp.c, np.zeros((4, 1)), terms)
    got_xw, got_yu = linsys.abs_transfer(maps.xw), linsys.abs_transfer(maps.yu)
    tail = maps.xw.tail_bound
    run.check("abs_transfer(xw) matches a numpy power recursion",
              np.allclose(got_xw - tail, ref_xw, rtol=1e-9, atol=1e-15),
              f"max diff {np.max(np.abs(got_xw - tail - ref_xw)):.3g}")
    run.check("abs_transfer(yu) matches a numpy power recursion",
              np.allclose(got_yu - tail, ref_yu, rtol=1e-9, atol=1e-15))
    longer = _abs_impulse_sum(a_cl, b_w_cl, np.eye(4), np.zeros((4, 1)), 2 * terms)
    run.check("abs_transfer(xw) bounds a horizon twice as long",
              np.all(longer <= got_xw * (1 + 1e-12)))

    # Scalar loop x+ = 0.5 x + u + w, u = -0.2 x, |w| <= 0.1: x_bar = 0.1 / 0.7.
    scalar, linear = _scalar_loop()
    result = certify.algorithm1(scalar, linear)
    exact = 0.1 / (1.0 - 0.3)
    x_bar = float(result.quadruplet.x_bar[0]) if result.success else math.nan
    run.check("scalar loop x_bar = 0.1/(1-0.3)",
              result.success and exact <= x_bar <= exact * (1 + 1e-8), f"x_bar {x_bar!r}")

    limited = certify.with_state_limit(cp, TARGET, REF_X_LIM)
    inp.boxes.append(("cartpole-clone", limited, inp.net, None, REF_W["cartpole"],
                      certify.algorithm1(limited, inp.net, inp.kd, w_inf=REF_W["cartpole"])))
    inp.boxes.append(("scalar", scalar, linear, None, 0.1, result))
    quant = neural.QuantizationSpec(0.1)
    wide = certify.with_state_limit(cp, TARGET, 0.5)
    inp.boxes.append(("cartpole-quantized", wide, inp.net, quant, 2e-4,
                      certify.algorithm1(wide, inp.net, inp.kd, quantization=quant,
                                         w_inf=2e-4)))
    _violation_maps(inp)
    return inp


def prepare_learned(run: Run) -> Inputs:
    learned_path = run.path("learned-plant.json")
    run.cli("learn", "--episodes", 100, "--seed", LEARNED_PLANT_SEED, "--out", learned_path)
    inp = Inputs(run, learned_path, LEARNED_SWEEP)
    inp.plant, inp.gamma = linsys.load_plant(learned_path)

    # Noiseless least squares on a scalar toy recovers it exactly.
    toy = plant.NonlinearPlant(step=lambda x, u: np.array([0.9 * x[0] + 0.5 * u[0]]),
                               c=np.eye(1), d_w=np.zeros((1, 1)), b_w=np.zeros((1, 1)))
    episodes = sysid.collect(toy, 5, ep_len=10, seed=int(run.rng.integers(1 << 30)))
    a_fit, b_fit = sysid.least_squares_fit(episodes)
    run.check("toy least squares recovers a=0.9, b=0.5",
              abs(a_fit[0, 0] - 0.9) <= 1e-10 and abs(b_fit[0, 0] - 0.5) <= 1e-10)

    inp.true_level = certify.frontier(inp.cartpole, inp.net, inp.kd, x_lim_values=[REF_X_LIM],
                                      tol=TOL, target_state=TARGET)[0][1]
    limited = certify.with_state_limit(inp.plant, TARGET, REF_X_LIM)
    inp.boxes.append(("learned-clone", limited, inp.net, None, REF_W["learned"],
                      certify.algorithm1(limited, inp.net, inp.kd, inp.gamma,
                                         w_inf=REF_W["learned"])))
    _violation_maps(inp)
    return inp


def _violation_maps(inp: Inputs) -> None:
    """Closed-loop maps the violation search designs its attack on."""
    inp.limited = certify.with_state_limit(inp.plant, TARGET, REF_X_LIM)
    gain = certify.extract_gain(inp.limited, inp.net, None, inp.kd)
    inp.violation_maps = linsys.close_loop(inp.limited, gain)


PREPARE = {"cartpole": prepare_cartpole, "learned": prepare_learned}


# ---------------------------------------------------------------------------
# Rounds: every timed operation, the short ones repeated between the long.
# ---------------------------------------------------------------------------


def warm_up(run: Run, inp: Inputs) -> None:
    """One untimed call of every operation, on its smallest input.

    Set-up and input preparation have already run every code path once;
    this adds the command-line round trips and leaves the maps cache as a
    user's earlier calls would.  (A full untimed round would cost 12 s of
    the run's budget.)
    """
    common = ["--policy", inp.policy_path, "--kd", inp.lqr_path, "--target-state", TARGET]
    first = str(inp.sweep[0])
    run.cli("frontier", "--plant", inp.plant_arg, *common, "--x-lim-list", first,
            "--tol", TOL, "--out", run.path("warm-frontier.csv"))
    run.cli("frontier", "--plant", inp.plant_arg, *common, "--x-lim-list", first, "--tol", TOL,
            "--with-baseline", "--seed", BASELINE_SEED, "--out", run.path("warm-baseline.csv"))
    run.cli("certify", "--plant", inp.plant_arg, *common, "--w-inf", REF_W[run.workload],
            "--x-lim", REF_X_LIM, "--out", run.path("warm-cert.json"))
    _, plant_, net, quant, w_inf, _ = inp.boxes[0]
    run.op(attack.monte_carlo_attack, plant_, net, w_inf, HORIZON, quantization=quant)
    run.op(attack.violation_level, inp.limited, inp.net, inp.violation_maps, TARGET,
           HORIZON // 10, REF_X_LIM)
    run.cli("learn", "--episodes", 100, "--out", run.path("warm-learn.json"))


def one_round(run: Run, inp: Inputs, timed: bool, tag: str) -> None:
    """Run every operation once; record samples and checks when ``timed``.

    The repeated short operations are spread between the long ones, so their
    medians sample the whole round rather than one moment of it.
    """
    record = run.sample if timed else (lambda metric, timing: None)
    common = ["--policy", inp.policy_path, "--kd", inp.lqr_path, "--target-state", TARGET]
    sweep = ",".join(str(v) for v in inp.sweep)
    w_ref = REF_W[run.workload]
    cert_out = run.path(f"cert-{tag}.json")

    def short_ops():
        for _ in range(CERTIFY_REPEATS // 4):
            record("certify_s", run.cli("certify", "--plant", inp.plant_arg, *common, "--w-inf",
                                        w_ref, "--x-lim", REF_X_LIM, "--out", cert_out))
        for _ in range(LEARN_REPEATS // 4):
            seed = int(run.rng.integers(1 << 30))
            record("learn_s", run.cli("learn", "--episodes", 100, "--seed", seed,
                                      "--out", run.path(f"learn-{tag}.json")))

    out = run.path(f"frontier-{tag}.csv")
    record("frontier_s", run.cli("frontier", "--plant", inp.plant_arg, *common,
                                 "--x-lim-list", sweep, "--tol", TOL, "--out", out))
    levels = _read_frontier(out) if os.path.exists(out) else []
    short_ops()
    out_b = run.path(f"frontier-baseline-{tag}.csv")
    record("frontier_with_baseline_s",
           run.cli("frontier", "--plant", inp.plant_arg, *common, "--x-lim-list", sweep,
                   "--tol", TOL, "--with-baseline", "--seed", BASELINE_SEED, "--out", out_b))
    with_base = _read_frontier(out_b) if os.path.exists(out_b) else []
    short_ops()
    designed_vs_mc = _soundness(run, inp, record)
    short_ops()
    timing = run.op(attack.violation_level, inp.limited, inp.net, inp.violation_maps,
                    TARGET, HORIZON, REF_X_LIM)
    record("violation_s", None if timing is None else timing[0])
    violation = math.nan if timing is None else timing[1]
    short_ops()

    if timed:
        _check_round(run, inp, levels, with_base, cert_out, violation, designed_vs_mc)


def _within(trace, quad) -> bool:
    return all(np.all(trace.max_abs(sig) <= bar * (1 + SLACK) + 1e-15)
               for sig, bar in (("x", quad.x_bar), ("y", quad.y_bar), ("u", quad.u_bar)))


def _soundness(run: Run, inp: Inputs, record):
    """Designed and Monte-Carlo attacks against every certified box.

    The first box is the workload's own clone box: its MC_RUNS Monte-Carlo
    runs are timed, one ``sim_steps_per_s`` sample each, so that the median
    is taken over runs of one kind.  Every other box gets one run, for its
    check only.  Returns designed / best Monte-Carlo deviation on the first
    box, or None.
    """
    ratio = None
    for index, (name, plant_, net, quant, w_inf, result) in enumerate(inp.boxes):
        if not result.success:
            run.check(f"{name} box certifies", False)
            continue
        quad = result.quadruplet
        target = TARGET if plant_.n > 1 else 0
        maps = linsys.close_loop(plant_, result.gain)
        plan = attack.design_attack(maps, target, HORIZON, w_inf=w_inf)
        designed = run.op(attack.simulate, plant_, net, plan, HORIZON, quantization=quant)
        ok = designed is not None and _within(designed[1], quad)
        best_mc = 0.0
        for _ in range(MC_RUNS if index == 0 else 1):
            seed = int(run.rng.integers(1 << 30))
            mc = run.op(attack.monte_carlo_attack, plant_, net, w_inf, MC_STEPS,
                        seed=seed, quantization=quant)
            if mc is None:
                ok = False
                continue
            timing, (trace, stats) = mc
            if index == 0:
                # a rate: steps over scaled seconds, and over CPU seconds as read
                record("sim_steps_per_s",
                       Timing(MC_STEPS / timing.seconds, MC_STEPS / timing.cpu_s))
            ok = ok and _within(trace, quad)
            best_mc = max(best_mc, float(stats.max_abs[target]))
        run.check(f"{name}: simulated |x|, |y|, |u| stay in the certified box", ok)
        if index == 0 and designed is not None and best_mc > 0:
            ratio = float(designed[1].max_abs("x")[target]) / best_mc
    return ratio


def _check_round(run, inp, levels, with_base, cert_out, violation, designed_vs_mc) -> None:
    values = [w for _, w, _ in levels]
    run.check("frontier has one level per limit", len(values) == len(inp.sweep))
    run.check("certified levels are positive", all(w > 0 for w in values))
    run.check("certified levels are nondecreasing within tol",
              all(b >= a * (1 - 2 * TOL) for a, b in zip(values, values[1:])))
    run.check("--with-baseline keeps the certified levels",
              [w for _, w, _ in with_base] == values)
    run.check("certified level >= baseline level x (1 - 2 tol)",
              len(with_base) == len(inp.sweep)
              and all(b is not None and w >= b * (1 - 2 * TOL) for _, w, b in with_base))
    at_ref = dict((x, w) for x, w, _ in levels).get(REF_X_LIM, math.nan)
    run.check("certified level at the reference limit < violation level",
              at_ref < violation, f"{at_ref!r} vs {violation!r}")
    try:
        with open(cert_out) as fh:
            cert = json.load(fh)
        ok = cert["success"] and cert["x_bar"][TARGET] <= REF_X_LIM
    except (OSError, KeyError, IndexError, ValueError):
        ok = False
    run.check("certify succeeds inside the reference limit", ok)
    run.check("designed attack >= 2 x best Monte-Carlo deviation",
              designed_vs_mc is not None and designed_vs_mc >= 2.0, f"ratio {designed_vs_mc!r}")
    if run.workload == "learned":
        true = inp.true_level
        run.check("learned level within [0.5, 1 + 2 tol] x true-model level",
                  0 < at_ref and 0.5 * true <= at_ref <= true * (1 + 2 * TOL),
                  f"{at_ref!r} vs true {true!r}")
    run.fingerprint = {
        "x_lim": [x for x, _, _ in levels],
        "w_certified": values,
        "w_baseline": [b for _, _, b in with_base],
        "w_violation_at_ref": violation,
        "designed_over_best_mc": designed_vs_mc,
    }
    if run.workload == "learned":
        run.fingerprint["w_true_model_at_ref"] = inp.true_level
