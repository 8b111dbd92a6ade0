"""Span tracing of speclab's public functions, installed from outside the
package for one traced pass.

A wrapper must sit at every name a caller looks up: `from .mobius import
classify` in spectrum.py binds its own copy of the name, so each original
function is replaced in every speclab module that holds it.  The
`speclab.spectrum` attribute is the spectrum() function, which shadows the
submodule, so modules are reached through importlib.

Spans (name, parent, start, end) are kept in flat arrays while the pass
runs and reduced to per-name totals when it ends.  A span's self time is
its duration minus the durations of its child spans; no traced function
calls itself, so child spans never overlap.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter

MODULES = (
    "speclab",
    "speclab.mobius",
    "speclab.surface_group",
    "speclab.characters",
    "speclab.fricke",
    "speclab.spectrum",
    "speclab.boundary",
    "speclab.cli",
)

LAYERS = ("mobius", "surface_group", "characters", "fricke", "spectrum", "boundary", "cli")

# "<layer>.<function>" -> function of the result added to that span's sum
SPANS = {
    "mobius.classify": None,
    "mobius.translation_length": None,
    "mobius.fixed_points": None,
    "mobius.act": None,
    "mobius.boundary_derivative": None,
    "surface_group.enumerate_classes": len,
    "surface_group.evaluate": None,
    "characters.trace_poly": None,
    "characters.rmin_pairs": None,
    "fricke.schottky_sample": None,
    "fricke.rep_from_json": None,
    "spectrum.spectrum": None,
    "spectrum.pattern": None,
    "spectrum.subrelation": None,
    "spectrum.rmin_pattern": None,
    "boundary.run_all_checks": None,
    "boundary.northsouth_limits": None,
    "boundary.pairing_check": None,
    "boundary.recover_cocycle_from_C": None,
    "boundary.step1_identity_check": None,
    "boundary.busemann": None,
    "cli.main": None,
}

# Kernel methods called millions of times: counted only, their time stays
# in the caller's self time.  name -> (layer, class, method)
COUNTED = {
    "mobius.mul": ("mobius", "Mat2", "__mul__"),
    "characters.eval": ("characters", "TracePoly", "evaluate"),
}

MARK = "_perfbench_wrapper"


def _module(layer: str):
    return importlib.import_module(f"speclab.{layer}")


def count_wrapped() -> int:
    """Number of names in speclab's modules and kernel classes bound to a
    tracing wrapper."""
    owners = [importlib.import_module(m) for m in MODULES]
    owners += [getattr(_module(layer), cls) for layer, cls, _ in COUNTED.values()]
    return sum(1 for owner in owners for value in vars(owner).values() if hasattr(value, MARK))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised: Counter = Counter()  # (span name, exception class name)
        self.sums: Counter = Counter()
        self.counts: dict[str, list[int]] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for name, measure in SPANS.items():
            layer, attr = name.split(".")
            original = getattr(_module(layer), attr)
            wrapper = self._span(name, original, measure)
            for modname in MODULES:
                mod = importlib.import_module(modname)
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for name, (layer, cls, method) in COUNTED.items():
            owner = getattr(_module(layer), cls)
            self._patch(owner, method, self._counter(name, vars(owner)[method]))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _span(self, name, fn, measure):
        nid = len(self.names)
        self.names.append(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, raised, sums = self._stack, self.raised, self.sums
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                raised[name, type(exc).__name__] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if measure is not None:
                sums[name] += measure(result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def _counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        setattr(wrapper, MARK, name)
        return wrapper

    # -- reduction ------------------------------------------------------

    def summary(self, wall: float) -> dict:
        """Per-name calls, inclusive and self seconds; per-layer self
        seconds; and the part of `wall` no span covers."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        top = 0.0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
            else:
                top += dur[i]
        k = len(self.names)
        calls, incl, self_s = [0] * k, [0.0] * k, [0.0] * k
        for i in range(n):
            s = self.span_name[i]
            calls[s] += 1
            incl[s] += dur[i]
            self_s[s] += dur[i] - covered[i]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for s, name in enumerate(self.names):
            layer_self[name.split(".")[0]] += self_s[s]
        return {
            "calls": dict(zip(self.names, calls)),
            "incl": dict(zip(self.names, incl)),
            "self": dict(zip(self.names, self_s)),
            "layer_self": layer_self,
            "uncovered": wall - top,
            "raised": dict(self.raised),
            "sums": dict(self.sums),
            "counts": {name: cell[0] for name, cell in self.counts.items()},
        }


def layer_metrics(t: dict, wall: float, counts: dict, memo_entries: int) -> dict:
    """The per-layer metrics of one traced pass, by BENCHMARK.json name."""
    calls, incl, self_s, raised = t["calls"], t["incl"], t["self"], t["raised"]
    samples = calls["fricke.schottky_sample"]
    degenerate_calls = calls["boundary.step1_identity_check"] + calls["boundary.northsouth_limits"]
    degenerate = sum(
        raised.get((name, "DegenerateConfiguration"), 0)
        for name in ("boundary.step1_identity_check", "boundary.northsouth_limits")
    )
    out = {
        "surface_group.enumerate_calls": calls["surface_group.enumerate_classes"],
        "surface_group.enumerate_s": incl["surface_group.enumerate_classes"],
        "surface_group.evaluate_calls": calls["surface_group.evaluate"],
        "surface_group.evaluate_s": incl["surface_group.evaluate"],
        "surface_group.classes": t["sums"].get("surface_group.enumerate_classes", 0),
        "mobius.mul_calls": t["counts"]["mobius.mul"],
        "mobius.classify_calls": calls["mobius.classify"],
        "mobius.classify_s": incl["mobius.classify"],
        "mobius.fixed_points_s": incl["mobius.fixed_points"],
        "mobius.act_s": incl["mobius.act"],
        "mobius.boundary_derivative_s": incl["mobius.boundary_derivative"],
        "mobius.translation_length_s": incl["mobius.translation_length"],
        "characters.trace_poly_calls": calls["characters.trace_poly"],
        "characters.trace_poly_s": incl["characters.trace_poly"],
        "characters.rmin_s": incl["characters.rmin_pairs"],
        "characters.key_self_s": self_s["characters.rmin_pairs"],
        "characters.memo_entries": memo_entries,
        "characters.eval_calls": t["counts"]["characters.eval"],
        "characters.blocks": counts.get("blocks", 0),
        "characters.flagged_pairs": counts.get("flagged_pairs", 0),
        "fricke.sample_calls": samples,
        "fricke.sample_s": incl["fricke.schottky_sample"],
        "fricke.sample_failed": raised.get(("fricke.schottky_sample", "SamplingFailed"), 0),
        "fricke.accept_ratio": counts.get("trials_sampled", 0) / samples if samples else 0.0,
        "fricke.rep_from_json_s": incl["fricke.rep_from_json"],
        "spectrum.spectrum_calls": calls["spectrum.spectrum"],
        "spectrum.spectrum_self_s": self_s["spectrum.spectrum"],
        "spectrum.pattern_s": incl["spectrum.pattern"],
        "spectrum.subrelation_s": incl["spectrum.subrelation"],
        "spectrum.dropped_trials": counts.get("dropped_trials", 0),
        "boundary.run_all_checks_s": incl["boundary.run_all_checks"],
        "boundary.northsouth_limits_s": incl["boundary.northsouth_limits"],
        "boundary.pairing_check_s": incl["boundary.pairing_check"],
        "boundary.recover_s": incl["boundary.recover_cocycle_from_C"],
        "boundary.step1_s": incl["boundary.step1_identity_check"],
        "boundary.busemann_calls": calls["boundary.busemann"],
        "boundary.degenerate_rejects": degenerate / degenerate_calls if degenerate_calls else 0.0,
        "boundary.failed_checks": counts.get("failed_checks", 0),
        "cli.stdout_bytes": counts.get("stdout_bytes", 0),
        "uncovered_s": t["uncovered"],
        "trace.wall_s": wall,
    }
    for layer, seconds in t["layer_self"].items():
        out[f"{layer}.self_s"] = seconds
    return out
