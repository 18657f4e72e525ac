"""Outside-in trace of padamp's layers, without editing the package.

`Tracer.install` replaces the public functions each padamp module calls into,
at the name the caller binds them under (`padamp.optimizers.moment_direction`,
`padamp.harness.write_telemetry`, ...), with wrappers that record a span and
then call the original. `Tracer.restore` puts every original back. The
objective and the lemma monitor are created inside `harness.run`, so their
methods are wrapped on the instance that `build_objective` / `LemmaMonitor`
returns, and die with it.

A span is (name, start, end, parent). Its layer is the name up to the first
dot. A layer's self time is the sum over its spans of the span's duration
minus its direct children's, so the self times of all layers add up to the
root span; what the root wrapper itself costs is reported as unattributed.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

LAYERS = ("harness", "objectives", "optimizers", "kernels", "geometry", "diagnostics")

# Exact per-run counts: the same config and seed must give the same values.
COUNT_METRICS = (
    "objectives.eval_calls", "objectives.grad_calls",
    "objectives.window_grad_calls", "objectives.forward_passes",
    "optimizers.step_calls", "kernels.moment_direction_calls",
    "kernels.moment_direction_bytes", "kernels.norm_growth_bytes",
    "geometry.calls", "geometry.group_steps", "geometry.projected",
    "diagnostics.monitor_calls", "harness.telemetry_bytes",
)


class Tracer:
    """Span recorder plus the wrappers that feed it. One tracer per traced run."""

    def __init__(self):
        self.names: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        """fn wrapped in a span; before(args) / after(result, args) count work."""
        names, start, end, parent, stack = (self.names, self.start, self.end,
                                            self.parent, self._stack)

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            i = len(names)
            names.append(name)
            parent.append(stack[-1])
            end.append(float("nan"))
            stack.append(i)
            start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- installing and removing the wrappers ---------------------------------

    def install(self) -> None:
        """Wrap padamp's inter-module calls. Pair every call with restore()."""
        import padamp.diagnostics as diagnostics
        import padamp.harness as harness
        import padamp.optimizers as optimizers

        counts = self.counts

        def kernel_bytes(args):
            # Reads m, v, g (and max_v); writes m, v (and max_v) and the
            # returned direction: 8-byte floats, temporaries not counted.
            use_max = bool(args[10]) if len(args) > 10 else False
            counts["kernels.moment_direction_bytes"] += 8 * args[0].size * (
                8 if use_max else 6)

        def growth_bytes(args):
            # Reads u (T floats); writes gd and gdm (T + 1 floats each).
            t = len(args[0])
            counts["kernels.norm_growth_bytes"] += 8 * t + 16 * (t + 1)

        def decision(result, args):
            counts["geometry.group_steps"] += 1

        def telemetry_bytes(result, args):
            counts["harness.telemetry_bytes"] += os.path.getsize(args[1])

        self._patch(optimizers, "moment_direction",
                    self.wrap("kernels.moment_direction", optimizers.moment_direction,
                              before=kernel_bytes))
        for attr in ("cosine_similarity", "projection_condition"):
            self._patch(optimizers, attr,
                        self.wrap(f"geometry.{attr}", getattr(optimizers, attr),
                                  after=decision))
        self._patch(optimizers, "project_tangent",
                    self.wrap("geometry.project_tangent", optimizers.project_tangent))
        self._patch(diagnostics, "norm_growth_arrays",
                    self.wrap("kernels.norm_growth", diagnostics.norm_growth_arrays,
                              before=growth_bytes))
        for attr in ("track_convergence", "validate_schedule"):
            self._patch(harness, attr,
                        self.wrap("diagnostics.report", getattr(harness, attr)))
        self._patch(harness, "write_telemetry",
                    self.wrap("harness.write_telemetry", harness.write_telemetry,
                              after=telemetry_bytes))

        make_step = harness.make_step
        self._patch(harness, "make_step",
                    lambda kind: self.wrap("optimizers.step", make_step(kind)))

        monitor_cls = harness.LemmaMonitor

        def traced_monitor(*args, **kwargs):
            monitor = monitor_cls(*args, **kwargs)
            monitor.update = self.wrap("diagnostics.monitor", monitor.update)
            return monitor

        self._patch(harness, "LemmaMonitor", traced_monitor)
        self._patch(harness, "build_objective",
                    self.wrap("objectives.build", harness.build_objective,
                              after=lambda obj, args: self._trace_objective(obj)))

    def _trace_objective(self, obj) -> None:
        # harness.run calls eval then grad once per step; any further grad
        # before the next eval is an eval-window gradient.
        main_grad_due = [False]
        eval_fn = self.wrap("objectives.eval", obj.eval)
        main_grad = self.wrap("objectives.grad", obj.grad)
        window_grad = self.wrap("objectives.window_grad", obj.grad)

        def traced_eval(*args, **kwargs):
            main_grad_due[0] = True
            return eval_fn(*args, **kwargs)

        def traced_grad(*args, **kwargs):
            if main_grad_due[0]:
                main_grad_due[0] = False
                return main_grad(*args, **kwargs)
            return window_grad(*args, **kwargs)

        def accuracy_forward(result, args):
            if result is not None:
                self.counts["objectives.accuracy_forward"] += 1

        obj.eval = traced_eval
        obj.grad = traced_grad
        obj.accuracy = self.wrap("objectives.accuracy", obj.accuracy,
                                 after=accuracy_forward)

    def restore(self) -> List[str]:
        """Put every original back; return the names that did not come back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        return [f"{owner.__name__}.{attr}" for owner, attr, original in self._patches
                if getattr(owner, attr) is not original]

    # -- analysis -----------------------------------------------------------

    def nesting_errors(self) -> List[str]:
        """Spans must form one tree under a single root, children inside parents."""
        errors = []
        roots = [i for i, p in enumerate(self.parent) if p < 0]
        if len(roots) != 1:
            errors.append(f"expected one root span, found {len(roots)}")
        if self._stack != [-1]:
            errors.append("span stack not empty after the run")
        for i, p in enumerate(self.parent):
            if not self.start[i] <= self.end[i]:
                errors.append(f"span {self.names[i]} ends before it starts")
            elif p >= 0 and not (self.start[p] <= self.start[i]
                                 and self.end[i] <= self.end[p]):
                errors.append(f"span {self.names[i]} escapes its parent {self.names[p]}")
        return errors

    def self_times(self) -> List[float]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def layer_self(self) -> Dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, own in zip(self.names, self.self_times()):
            out[name.split(".", 1)[0]] += own
        return out

    def step_durations(self) -> List[float]:
        return [e - s for n, s, e in zip(self.names, self.start, self.end)
                if n == "optimizers.step"]

    def metrics(self, outer_s: float) -> Dict[str, float]:
        """Per-run layer metrics; outer_s is the root call timed by its caller."""
        calls = Counter(self.names)
        total: Dict[str, float] = Counter()
        own_by_name: Dict[str, float] = Counter()
        for name, s, e, own in zip(self.names, self.start, self.end, self.self_times()):
            total[name] += e - s
            own_by_name[name] += own
        layers = self.layer_self()
        geometry_spans = [n for n in calls if n.startswith("geometry.")]
        group_steps = self.counts["geometry.group_steps"]
        m = {
            "objectives.eval_calls": calls["objectives.eval"],
            "objectives.grad_calls": calls["objectives.grad"],
            "objectives.window_grad_calls": calls["objectives.window_grad"],
            "objectives.forward_passes": (
                calls["objectives.eval"] + calls["objectives.grad"]
                + calls["objectives.window_grad"]
                + self.counts["objectives.accuracy_forward"]),
            "objectives.eval_s": total["objectives.eval"],
            "objectives.grad_s": total["objectives.grad"],
            "objectives.window_grad_s": total["objectives.window_grad"],
            "optimizers.step_calls": calls["optimizers.step"],
            "optimizers.step_self_s": own_by_name["optimizers.step"],
            "kernels.moment_direction_calls": calls["kernels.moment_direction"],
            "kernels.moment_direction_s": total["kernels.moment_direction"],
            "kernels.moment_direction_bytes": self.counts["kernels.moment_direction_bytes"],
            "kernels.norm_growth_s": total["kernels.norm_growth"],
            "kernels.norm_growth_bytes": self.counts["kernels.norm_growth_bytes"],
            "geometry.calls": sum(calls[n] for n in geometry_spans),
            "geometry.s": sum(total[n] for n in geometry_spans),
            "geometry.group_steps": group_steps,
            "geometry.projected": calls["geometry.project_tangent"],
            "geometry.projected_ratio": (calls["geometry.project_tangent"] / group_steps
                                         if group_steps else 0.0),
            "diagnostics.monitor_calls": calls["diagnostics.monitor"],
            "diagnostics.monitor_s": total["diagnostics.monitor"],
            "diagnostics.trace_build_s": own_by_name["diagnostics.simulate_norm_growth"],
            "harness.write_telemetry_s": total["harness.write_telemetry"],
            "harness.telemetry_bytes": self.counts["harness.telemetry_bytes"],
            "harness.loop_self_s": own_by_name["harness.run"],
            "trace.run_s": outer_s,
            "trace.unattributed_s": outer_s - sum(layers.values()),
        }
        for layer, own in layers.items():
            m[f"{layer}.self_s"] = own
        return m


def percentile_us(durations: List[float], q: int) -> float:
    """q-th percentile (1..99) of durations, in microseconds."""
    if len(durations) < 2:
        return durations[0] * 1e6 if durations else 0.0
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e6
