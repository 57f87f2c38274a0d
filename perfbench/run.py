"""loopcert benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload cartpole|learned --seed N --seconds S --trace 0|1

Run from the root of a source checkout; loopcert is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the layers are wrapped from outside
(see ``spans.py``) and the per-layer metrics are reported instead.  Earlier
lines carry the machine facts and the frontier fingerprint.  Result and trace
files go to ``perfbench/out/``.
"""

import os
import sys

# Pin every thread pool before numpy is imported: OpenBLAS threads competing
# for a small machine's cores were the largest source of run-to-run spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "LOOPCERT_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
MIN_ROUNDS = 2  # so that each long operation is timed at least twice

END_TO_END = {
    "setup_s": "s", "frontier_s": "s", "frontier_with_baseline_s": "s", "certify_s": "s",
    "sim_steps_per_s": "steps/s", "violation_s": "s", "learn_s": "s", "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_loopcert():
    """Import loopcert from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "loopcert", "__init__.py")):
        sys.exit(f"perfbench: no loopcert sources under {SRC}")
    sys.path.insert(0, SRC)
    import loopcert

    if not os.path.abspath(loopcert.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: loopcert was imported from {loopcert.__file__}, not {SRC}")
    return loopcert


def machine_facts() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS", "LOOPCERT_THREADS")},
    }


def measure(run, workloads, seconds: float, tracer=None) -> dict:
    """Set up, warm up, then run whole rounds for ``seconds``."""
    def phase(name):
        if tracer:
            tracer.phase = name

    phase("warmup")
    workloads.warm_setup(run)
    phase("setup")
    for index in range(SETUP_REPEATS):
        workloads.setup(run, index)
    phase("warmup")
    workloads.check_setup(run, SETUP_REPEATS)
    inputs = workloads.PREPARE[run.workload](run)
    workloads.warm_up(run, inputs)
    phase("round")
    rounds, round_seconds = 0, []
    start = time.perf_counter()
    # Whole rounds only; after the first MIN_ROUNDS another starts while the
    # previous one would still have fitted in the measuring time.
    while rounds < MIN_ROUNDS or (time.perf_counter() - start) + round_seconds[-1] <= seconds:
        t0 = time.perf_counter()
        workloads.one_round(run, inputs, timed=True, tag=str(rounds))
        round_seconds.append(time.perf_counter() - t0)
        rounds += 1
    return {"inputs": inputs, "rounds": rounds, "round_seconds": round_seconds}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_loopcert()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    work = os.path.join(OUT, "work", f"{args.workload}-s{args.seed}-t{args.trace}")
    os.makedirs(work, exist_ok=True)
    facts = machine_facts()
    print(json.dumps({"machine": facts}), flush=True)

    run = workloads.Run(args.workload, args.seed, work)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    else:
        import speed

        run.probe = speed.SpeedProbe()
        run.probe.start()
    try:
        done = measure(run, workloads, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
        else:
            run.probe.stop()

    if tracer:
        # one more round, untraced, to price the tracing itself
        traced = statistics.median(done["round_seconds"])
        t0 = time.perf_counter()
        workloads.one_round(run, done["inputs"], timed=False, tag="untraced")
        untraced = time.perf_counter() - t0
        overhead = 100.0 * (traced / untraced - 1.0)
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in tracer.per_layer(SETUP_REPEATS, done["rounds"],
                                                       overhead).items()}
    else:
        values = {name: statistics.median([t.seconds for t in samples])
                  for name, samples in run.samples.items()}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        missing = sorted(set(END_TO_END) - set(values))
        for name in missing:
            run.check(f"metric {name} was measured", False)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items() if name in values}

    correct = all(ok for _, ok, _ in run.checks) and bool(run.checks)
    print(json.dumps({"fingerprint": run.fingerprint}), flush=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "rounds": done["rounds"],
              "round_seconds": done["round_seconds"],
              "samples": {k: [t.seconds for t in v] for k, v in run.samples.items()},
              "cpu_samples": {k: [t.cpu_s for t in v] for k, v in run.samples.items()},
              "cpu_medians": {k: statistics.median([t.cpu_s for t in v])
                              for k, v in run.samples.items()},
              "probe_samples": len(run.probe.samples) if run.probe else 0,
              "probe_median_s": statistics.median(run.probe.samples) if run.probe else None,
              "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in run.checks],
              "fingerprint": run.fingerprint, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as fh:
        json.dump(header, fh, indent=1)
    if tracer:
        header["absent_layers"] = tracer.absent
        tracer.write(os.path.join(OUT, f"trace-{stem}.json"), header)
        if tracer.absent:
            print(f"# absent layers: {', '.join(tracer.absent)}", flush=True)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
