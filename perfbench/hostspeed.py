"""Fixed slices of reference work that measure how fast the host runs right now.

This machine shares its cores with other tenants. The same run of the same code
measured 30-45% apart between invocations, while `process_time` tracked wall
time, so the spread comes from the host, not from scheduling. The benchmark
times a slice between each two workload calls and scales each call to a host
on which the slice takes its `REFERENCE_S`. No slice touches padamp, so a change
to padamp moves the workload's time and leaves the slice's alone.

The host does not slow every kind of work alike: scaling an array-bound
workload by an interpreter-bound slice left its spread as wide as the raw
times. So each workload is scaled by the slice that does its kind of work
(`workloads.SLICE`):
  interpreter  small-array numpy calls and float conversions (quad_d20)
  arrays       elementwise updates, a power and norms over 1e5 floats (quad_d100k)
  batch        batch-norm and softmax arithmetic on a 128 x 16 batch (tiny_mlp)
  objects      a scalar recursion that allocates one small object per step
               (norm_sim)
The set-up probe uses the interpreter slice.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

_SMALL = np.linspace(0.0, 1.0, 20)
_ONES = np.ones(20)
_LARGE = np.random.default_rng(0).standard_normal(100_000)
_M = np.zeros(100_000)
_V = np.zeros(100_000)
_BATCH = np.random.default_rng(1).standard_normal((128, 16))
_W = np.random.default_rng(2).standard_normal((2, 16))


@dataclass(frozen=True)
class _Record:
    t: int
    value: float


def _interpreter():
    acc = 0.0
    for _ in range(1500):
        z = _SMALL * 0.5 + _ONES
        acc += float(np.linalg.norm(z)) + float(z @ _SMALL)
    return acc


def _arrays():
    for _ in range(6):
        _M.__imul__(0.9)
        _M.__iadd__(0.1 * _LARGE)
        _V.__imul__(0.999)
        _V.__iadd__(0.001 * (_LARGE * _LARGE))
        d = (_M / 0.1) / ((_V / 0.001 + 1e-8) ** 0.25)
        float(np.linalg.norm(d))
        float(np.linalg.norm(_LARGE - d))


def _batch():
    acc = 0.0
    for _ in range(100):
        mu = _BATCH.mean(axis=0)
        var = _BATCH.var(axis=0)
        a = np.maximum((_BATCH - mu) / np.sqrt(np.maximum(var, 1e-12)), 0.0)
        logits = a @ _W.T
        lmax = logits.max(axis=1, keepdims=True)
        acc += float(np.log(np.exp(logits - lmax).sum(axis=1)).mean())
    return acc


def _objects():
    acc = 0.0
    out = []
    for i in range(20_000):
        acc = 0.9 * (acc + i * 1e-6)
        out.append(_Record(i, float(acc)))
    return out


_SLICES = {"interpreter": _interpreter, "arrays": _arrays, "batch": _batch,
           "objects": _objects}

# Median seconds of each slice on a 2-vCPU KVM guest of an Intel Xeon (family 6,
# model 207) with numpy 2.4 at a quiet moment. Only the ratio of workload to
# slice matters; these constants set the scale.
REFERENCE_S = {"interpreter": 0.0062, "arrays": 0.0100, "batch": 0.0065,
               "objects": 0.0125}


def slice_seconds(kind: str) -> float:
    """Wall seconds of one slice of the given kind, with the cyclic collector
    paused so the slice does not pay for garbage the workload left behind."""
    work = _SLICES[kind]
    gc.disable()
    try:
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0
    finally:
        gc.enable()
