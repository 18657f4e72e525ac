#!/usr/bin/env python3
"""padamp benchmark: end-to-end run metrics, or a per-layer trace, for one workload.

    python3 perfbench/run.py --workload quad_d20 --seed 0 --seconds 20 --trace 0

Workloads are defined in perfbench/workloads.py. One closed-loop caller in this
process calls padamp's public entry points back to back (`padamp.harness.run`,
or `padamp.diagnostics.simulate_norm_growth` for norm_sim) for `--seconds`,
with BLAS pinned to one thread. Every call's outputs are checked; a call that
raises or fails a check counts as failed.

--trace 0 reports the end-to-end metrics:
  steps_per_s  optimizer steps (norm_sim: simulated steps) per second of wall
               time inside the call, as the median over calls. Each call is
               scaled by the hostspeed slice of the workload's kind timed
               around it, so the figure reads as on a host where that slice
               takes hostspeed.REFERENCE_S; the raw wall median is printed too.
  setup_s      median over fresh processes of importing padamp and building
               the config and objective (norm_sim: the update norms), scaled
               the same way.
  peak_rss_mb  peak resident memory of this process, in MiB.
--trace 1 alternates untraced calls with calls traced by layertrace.py and
reports per-layer counts and times, and the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it say the same for people,
with sample counts, the raw timings and the environment.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 9
MIN_SAMPLES = 3
PROBE_TIMEOUT_S = 60
RATIO_REL_TOL = 1e-9  # norm_sim: final growth ratio against its closed form


class CheckFailed(Exception):
    """A call returned, but its output is wrong."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


# -- outputs and their checks --------------------------------------------------


def load_reference(workload, seed):
    """(final_loss, final_accuracy, how) recorded for this workload and seed."""
    ref = json.loads((HERE / "reference.json").read_text())
    table = ref["workloads"][workload]
    if str(seed) in table:
        loss, acc = table[str(seed)]
        return {"loss": loss, "accuracy": acc, "exact": True, "tol": ref["tolerance"]}
    # A seed outside the table is checked against the recorded seeds' range.
    losses = [v[0] for v in table.values()]
    accs = [v[1] for v in table.values() if v[1] is not None]
    return {"loss_range": (min(losses) / 2, max(losses) * 2),
            "accuracy_min": min(accs) - 0.05 if accs else None, "exact": False}


def check_final(summary, ref):
    loss, acc = summary["final_loss"], summary["final_accuracy"]
    if ref["exact"]:
        tol = ref["tol"]
        if abs(loss - ref["loss"]) > tol["final_loss_rel"] * abs(ref["loss"]):
            raise CheckFailed(f"final_loss {loss!r} != reference {ref['loss']!r}")
        if ref["accuracy"] is None:
            if acc == acc:
                raise CheckFailed(f"final_accuracy {acc!r}, reference has none")
        elif not abs(acc - ref["accuracy"]) <= tol["final_accuracy_abs"]:
            raise CheckFailed(f"final_accuracy {acc!r} != reference {ref['accuracy']!r}")
        return
    lo, hi = ref["loss_range"]
    if not lo <= loss <= hi:
        raise CheckFailed(f"final_loss {loss!r} outside recorded range [{lo}, {hi}]")
    if ref["accuracy_min"] is not None and not acc >= ref["accuracy_min"]:
        raise CheckFailed(f"final_accuracy {acc!r} below recorded minimum")


def final_ratio(u, beta):
    """Closed form of the momentum / plain growth ratio after T = len(u) steps.

    The cross term adds 2 sum_k u_k sum_{j=1}^{T-1-k} beta^j, so the ratio is
    1 + 2 beta / (1 - beta) * (1 - sum_k u_k beta^(T-1-k) / sum_k u_k). The
    last factor is why it sits below momentum_norm_ratio_limit(beta): at 1e5
    steps by up to 5e-9 relative over seeds 0-299, at 1e6 steps by ~3e-11.
    """
    import numpy as np

    tail = beta ** np.arange(len(u) - 1, -1, -1, dtype=np.float64)
    return 1.0 + 2.0 * beta / (1.0 - beta) * (1.0 - float(u @ tail) / float(u.sum()))


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Workload:
    """One workload at one seed: its call, its work count and its output checks."""

    def __init__(self, name, seed, scratch):
        import padamp.harness

        self.name = name
        self.seed = seed
        self.digest = None
        if name == "norm_sim":
            self.steps = workloads.NORM_SIM_STEPS
            self.updates = workloads.norm_sim_updates(seed)
            self.expected_ratio = final_ratio(self.updates, workloads.NORM_SIM_BETA)
        else:
            self.csv = str(scratch / f"{name}.csv")
            over = dict(workloads.overrides(name, seed), **{"run.out": self.csv})
            self.config = padamp.harness.build_config({}, over)
            self.steps = self.config.steps
            self.reference = load_reference(name, seed)

    def entry(self):
        """The public function this workload times, looked up at call time."""
        import padamp.diagnostics
        import padamp.harness

        if self.name == "norm_sim":
            return padamp.diagnostics.simulate_norm_growth
        return padamp.harness.run

    def call(self, fn):
        if self.name == "norm_sim":
            return fn(self.updates, workloads.NORM_SIM_BETA, workloads.NORM_SIM_ETA,
                      workloads.NORM_SIM_THETA0_SQ)
        return fn(self.config)

    def check(self, out):
        """Raise CheckFailed unless out is right; every call must match the first."""
        if self.name == "norm_sim":
            if len(out) != self.steps or out[-1].t != self.steps:
                raise CheckFailed(f"trace has {len(out)} steps, expected {self.steps}")
            rel = abs(out[-1].ratio - self.expected_ratio) / self.expected_ratio
            if not rel <= RATIO_REL_TOL:
                raise CheckFailed(f"final ratio {out[-1].ratio!r} is {rel:.3g} from "
                                  f"its closed form {self.expected_ratio!r}")
            digest = repr((out[-1].norm_sq_gd, out[-1].norm_sq_gdm, out[-1].ratio))
        else:
            if not out.report.all_passed:
                raise CheckFailed(f"diagnostics failed:\n{out.report}")
            if len(out.records) != self.steps:
                raise CheckFailed(f"{len(out.records)} step records, expected {self.steps}")
            check_final(out.summary, self.reference)
            digest = file_digest(self.csv)
            os.remove(self.csv)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise CheckFailed("output differs from the first call with the same seed")


# -- measurement ---------------------------------------------------------------


class Runner:
    """Closed-loop calls with a host-speed slice between each two of them."""

    def __init__(self, workload):
        import hostspeed

        self.hostspeed = hostspeed
        self.workload = workload
        self.kind = workloads.SLICE[workload.name]
        self.attempted = 0
        self.failed = 0
        self.slices = []
        hostspeed.slice_seconds(self.kind)  # warm-up
        self._last_slice = hostspeed.slice_seconds(self.kind)

    def sample(self, fn):
        """Call once; return (wall_s, slice_s) or None if the call failed."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = self.workload.call(fn)
            wall = time.perf_counter() - t0
            self.workload.check(out)
            del out
        except Exception as exc:  # a failed call is counted, and the loop goes on
            self.failed += 1
            print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        after = self.hostspeed.slice_seconds(self.kind)
        self.slices.append(after)
        slice_s = 0.5 * (self._last_slice + after)
        self._last_slice = after
        return wall, slice_s

    def scaled_rate(self, wall, slice_s):
        return (self.workload.steps / wall * slice_s
                / self.hostspeed.REFERENCE_S[self.kind])


def setup_times(workload, seed):
    """Median scaled set-up time over fresh processes, and the raw median."""
    import hostspeed

    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=str(ROOT))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(probe["padamp"]).resolve().parent != (SRC / "padamp").resolve():
            raise RuntimeError(f"set-up probe imported padamp from {probe['padamp']}")
        raw.append(probe["setup_s"])
        scaled.append(probe["setup_s"] * hostspeed.REFERENCE_S[workloads.SETUP_SLICE]
                      / probe["slice_s"])
    return statistics.median(scaled), statistics.median(raw)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def measure_end_to_end(wl, seconds, lines):
    setup_s, setup_raw = setup_times(wl.name, wl.seed)
    runner = Runner(wl)
    fn = wl.entry()
    runner.sample(fn)  # warm-up; also records the reference output digest
    rates, walls = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(rates) < MIN_SAMPLES:
        if runner.failed > MIN_SAMPLES and not rates:
            break
        got = runner.sample(fn)
        if got is not None:
            rates.append(runner.scaled_rate(*got))
            walls.append(got[0])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not rates:
        return runner, {}
    rate = statistics.median(rates)
    q1, q3 = quartiles(rates)
    wall = statistics.median(walls)
    lines += [
        f"steps_per_s {rate:.6g} 1/s  (median of {len(rates)} calls, host-scaled; "
        f"quartiles {q1:.6g}..{q3:.6g})",
        f"  raw wall: median {wl.steps / wall:.6g} steps/s = {wall / wl.steps * 1e6:.4g} "
        f"us/step over {wl.steps} steps per call; {runner.kind} slice median "
        f"{statistics.median(runner.slices) * 1e3:.4g} ms",
        f"setup_s {setup_s:.6g} s  (median of {SETUP_PROBES} fresh processes, "
        f"host-scaled; raw median {setup_raw:.6g} s)",
        f"peak_rss_mb {peak_mb:.6g} MiB",
    ]
    metrics = {
        "steps_per_s": {"value": rate, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MiB"},
    }
    return runner, metrics


def measure_layers(wl, seconds, lines):
    import layertrace

    runner = Runner(wl)
    runner.sample(wl.entry())  # warm-up; also records the reference output digest
    untraced, traced, per_run, steps = [], [], [], []
    first_counts = None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(per_run) < MIN_SAMPLES:
        if runner.failed > MIN_SAMPLES and not per_run:
            break
        got = runner.sample(wl.entry())
        if got is not None:
            untraced.append(runner.scaled_rate(*got))
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            got = runner.sample(tracer.wrap(_root_span(wl), wl.entry()))
        finally:
            unrestored = tracer.restore()
        try:
            if unrestored:
                raise CheckFailed(f"wrappers left in place: {unrestored}")
            if got is None:
                continue
            errors = tracer.nesting_errors()
            if errors:
                raise CheckFailed("; ".join(errors))
            m = tracer.metrics(got[0])
            counts = {k: m[k] for k in layertrace.COUNT_METRICS}
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                raise CheckFailed(f"exact counts changed between traced runs: "
                                  f"{counts} vs {first_counts}")
        except CheckFailed as exc:
            runner.failed += 1
            print(f"trace check failed: {exc}", file=sys.stderr)
            continue
        traced.append(runner.scaled_rate(*got))
        per_run.append(m)
        steps.extend(tracer.step_durations())
    if not per_run or not untraced:
        return runner, {}
    metrics = {}
    for key in per_run[0]:
        values = [m[key] for m in per_run]
        value = statistics.median(values)
        if key.endswith("_ratio"):
            unit = "ratio"
        elif key.endswith("_bytes"):
            unit = "bytes_computed" if key.startswith("kernels.") else "bytes"
        elif key.endswith(("_s", ".s")):
            unit = "s"
        else:
            unit = "count"
        metrics[key] = {"value": value, "unit": unit}
    metrics["optimizers.step_us_p50"] = {"value": layertrace.percentile_us(steps, 50),
                                         "unit": "us"}
    metrics["optimizers.step_us_p99"] = {"value": layertrace.percentile_us(steps, 99),
                                         "unit": "us"}
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace_overhead"] = {"value": overhead, "unit": "1/s"}
    run_s = metrics["trace.run_s"]["value"]
    lines.append(f"traced {len(per_run)} calls, {len(steps)} step spans; untraced "
                 f"{statistics.median(untraced):.6g} steps/s, traced "
                 f"{statistics.median(traced):.6g} steps/s (host-scaled)")
    lines.append(f"run span by layer (self time, median call {run_s:.6g} s):")
    for layer in layertrace.LAYERS + ("trace.unattributed",):
        key = f"{layer}.self_s" if layer in layertrace.LAYERS else f"{layer}_s"
        own = metrics[key]["value"]
        lines.append(f"  {layer:<20} {own:.6g} s  {100 * own / run_s:5.1f}%")
    for key, entry in metrics.items():
        lines.append(f"{key} {entry['value']:.6g} {entry['unit']}")
    return runner, metrics


def _root_span(wl):
    return ("diagnostics.simulate_norm_growth" if wl.name == "norm_sim"
            else "harness.run")


# -- environment ---------------------------------------------------------------


def environment(args):
    import importlib.metadata

    import numpy

    import padamp._kernels

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    llc = None
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = sorted(cache.glob("index*"), key=lambda p: int(p.name[5:]))
        if levels:
            top = levels[-1]
            llc = f"L{(top / 'level').read_text().strip()} {(top / 'size').read_text().strip()}"
    except (OSError, ValueError):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": version("scipy"),
        "numba_imports": padamp._kernels.HAS_NUMBA,
        "kernel_backend": padamp._kernels.backend(),
        "nproc": os.cpu_count(), "cpu_model": cpu_model, "llc": llc,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "padamp" / "__init__.py").is_file():
        print(f"error: no padamp sources at {SRC / 'padamp'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import padamp

    if Path(padamp.__file__).resolve().parent != (SRC / "padamp").resolve():
        print(f"error: imported padamp from {padamp.__file__}, not {SRC}", file=sys.stderr)
        return 2

    lines = []
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        wl = Workload(args.workload, args.seed, scratch)
        measure = measure_layers if args.trace else measure_end_to_end
        runner, metrics = measure(wl, args.seconds, lines)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("environment " + json.dumps(environment(args), sort_keys=True))
    for line in lines:
        print(line)
    print(f"failed_runs {runner.failed} of {runner.attempted} attempted")
    correct = runner.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
