"""Per-layer tracing of loopcert from outside the package.

Each traced layer is a public function (or the maps-cache method) of a
loopcert module.  :class:`Tracer` replaces the function object in every
loopcert module namespace that binds it, so a name imported with
``from .linsys import close_loop`` is wrapped in ``certify`` as well as in
``linsys``; nothing inside the package is edited.  A layer that a later
version of the package no longer has is reported as absent instead of
failing the run.

Spans nest through a stack: a span's self time is its duration minus the
durations of the traced spans it directly encloses.  Every span is kept in
memory (columnar arrays) and written as JSON when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict


# Extra counts read from one call: (args, kwargs, result, error) -> number or
# None.  ``result`` is None when the call raised ``error``.

def _result_length(args, kwargs, result, error):
    return None if error else result.length


def _result_iterations(args, kwargs, result, error):
    return None if error else result.iterations


def _rows(args, kwargs, result, error):
    y = args[1] if len(args) > 1 else kwargs["y"]
    shape = getattr(y, "shape", None)
    return shape[0] if shape is not None and len(shape) == 2 else 1


def _steps(args, kwargs, result, error):
    # a diverged simulation carries its partial trace on the exception
    trace = getattr(error, "trace", None) if error else result
    return None if trace is None else trace.steps


# (metric prefix, module, attribute path, extra count: (name, reader) or None)
LAYERS = (
    ("linsys.close_loop", "linsys", "close_loop", None),
    ("linsys.impulse_response", "linsys", "impulse_response", ("terms", _result_length)),
    ("linsys._decay_window", "linsys", "_decay_window", None),
    ("linsys.abs_transfer", "linsys", "abs_transfer", None),
    ("linsys.spectral_radius", "linsys", "spectral_radius", None),
    ("certify.algorithm1", "certify", "algorithm1", ("passes", _result_iterations)),
    ("certify.sampled_linf_gain", "certify", "sampled_linf_gain", None),
    ("certify.baseline_certify", "certify", "baseline_certify", None),
    ("certify._MapsCache.get", "certify", "_MapsCache.get", None),
    ("neural.linear_relaxation", "neural", "linear_relaxation", None),
    ("neural.evaluate", "neural", "evaluate", ("rows", _rows)),
    ("attack.simulate", "attack", "simulate", ("steps", _steps)),
    ("attack.design_attack", "attack", "design_attack", None),
    ("attack.violation_level", "attack", "violation_level", None),
    # the nonlinear cart-pole's step: NonlinearPlant.step calls this by name
    ("plant.step", "plant", "cartpole_step", None),
    ("sysid.collect", "sysid", "collect", None),
    ("sysid.least_squares_fit", "sysid", "least_squares_fit", None),
    ("policysynth.behavior_clone", "policysynth", "behavior_clone", None),
    ("policysynth.dare_solve", "policysynth", "dare_solve", None),
    ("cli.main", "cli", "main", None),
)

# (metric, ancestor layer, descendant layer, divide by this count of the ancestor)
DESCENDANT_RATIOS = (
    ("certify.closures_per_pass", "certify.algorithm1", "linsys.close_loop", "passes"),
    ("certify.relaxations_per_pass", "certify.algorithm1", "neural.linear_relaxation", "passes"),
    ("attack.violation_level.simulations", "attack.violation_level", "attack.simulate", "calls"),
)


def per_layer_metric_names() -> list[str]:
    """Every metric a traced run reports, in a fixed order."""
    names = []
    for label, _, _, extra in LAYERS:
        names += [f"{label}.calls", f"{label}.self_s"]
        if extra:
            names.append(f"{label}.{extra[0]}")
    names += [name for name, *_ in DESCENDANT_RATIOS]
    names += ["certify.maps_cache.hits", "trace.overhead_pct"]
    return names


class _Stats:
    __slots__ = ("calls", "self_s", "extra", "descendants")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = 0.0  # the layer's extra count, if it has one
        self.descendants = defaultdict(int)


class Tracer:
    """Wraps the loopcert layers listed in :data:`LAYERS` while installed.

    Aggregates are kept per phase (``setup``, ``warmup``, ``round``), so a
    run can report the cost of one set-up plus one measured round however
    many rounds fit in its measuring time.
    """

    def __init__(self):
        self.phase = "setup"
        self.labels: list[str] = []
        self.absent: list[str] = []
        self._stats: dict[str, dict[str, _Stats]] = defaultdict(lambda: defaultdict(_Stats))
        self._stack: list[list] = []  # [label_id, start, child_time, span_index]
        self._span_label = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._restore: list[tuple] = []
        self._t0 = time.perf_counter()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "loopcert" or name.startswith("loopcert."))]
        for label, module_name, path, extra in LAYERS:
            module = sys.modules.get(f"loopcert.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = None if owner is None else vars(owner).get(attr)
            if not callable(original):
                self.absent.append(label)
                continue
            wrapper = self._wrap(label, original, extra)
            if owner_name:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, label: str, fn, extra):
        label_id = len(self.labels)
        self.labels.append(label)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            index = len(self._span_start)
            self._span_label.append(label_id)
            self._span_parent.append(stack[-1][3] if stack else -1)
            self._span_start.append(start - self._t0)
            self._span_end.append(-1.0)
            stats = self._stats[self.phase]
            for frame in stack:
                stats[self.labels[frame[0]]].descendants[label] += 1
            frame = [label_id, start, 0.0, index]
            stack.append(frame)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                self._span_end[index] = end - self._t0
                entry = stats[label]
                entry.calls += 1
                entry.self_s += duration - frame[2]
                if extra is not None:
                    value = extra[1](args, kwargs, result, error)
                    if value is not None:
                        entry.extra += value

        return traced

    # -- reporting --------------------------------------------------------

    def per_layer(self, setups: int, rounds: int, overhead_pct: float) -> dict:
        """Metrics for one set-up plus one measured round."""
        setup, measured = self._stats["setup"], self._stats["round"]

        def one(label, get):
            value = get(setup.get(label, _Stats())) / max(setups, 1)
            return value + get(measured.get(label, _Stats())) / max(rounds, 1)

        out = {}
        for label, _, _, extra in LAYERS:
            out[f"{label}.calls"] = one(label, lambda s: s.calls)
            out[f"{label}.self_s"] = one(label, lambda s: s.self_s)
            if extra:
                out[f"{label}.{extra[0]}"] = one(label, lambda s: s.extra)
        for name, ancestor, descendant, per in DESCENDANT_RATIOS:
            count = one(ancestor, lambda s: s.descendants[descendant])
            base = out[f"{ancestor}.{per}"]
            out[name] = count / base if base else 0.0
        misses = one("certify._MapsCache.get", lambda s: s.descendants["linsys.close_loop"])
        out["certify.maps_cache.hits"] = out["certify._MapsCache.get.calls"] - misses
        out["trace.overhead_pct"] = overhead_pct
        return out

    def write(self, path, header: dict) -> None:
        """Spans (columnar, seconds since tracer start) plus a summary."""
        obj = dict(header)
        obj["absent_layers"] = self.absent
        obj["phases"] = {
            phase: {label: {"calls": s.calls, "self_s": s.self_s, "extra": s.extra,
                            "descendants": dict(s.descendants)}
                    for label, s in stats.items()}
            for phase, stats in self._stats.items()
        }
        obj["spans"] = {
            "labels": self.labels,
            "label": self._span_label.tolist(),
            "parent": self._span_parent.tolist(),
            "start_s": [round(v, 7) for v in self._span_start],
            "end_s": [round(v, 7) for v in self._span_end],
        }
        with open(path, "w") as fh:
            json.dump(obj, fh, separators=(",", ":"))
            fh.write("\n")
