"""Workload definitions shared by the benchmark runner and the set-up probe.

This module imports only the standard library at import time, so the set-up
probe can import it before it starts timing `import padamp`.

Every harness workload runs `padamp` with `table1_defaults("padamp")` (which
`build_config` applies for `optimizer.kind=padamp`); the run settings that
shape the work are pinned here rather than left to library defaults.
"""

from __future__ import annotations

# Why each workload exists: which layer it stresses and which it bypasses.
WHY = {
    "quad_d20": "quadratic d=20: tiny arrays, so per-step Python in optimizers, "
                "diagnostics and harness dominates; bypasses the moment kernel",
    "quad_d100k": "quadratic d=1e5: 0.8 MB arrays (L3-resident), so the moment "
                  "kernel, the norms and the lemma monitor dominate",
    "tiny_mlp": "batch-normalized MLP: objective-bound, the only workload with "
                "tangent projection and eval-window gradients",
    "norm_sim": "simulate_norm_growth over 1e5 update norms: only the norm-growth "
                "recursion and trace construction run, no harness",
}

# The hostspeed slice that does each workload's kind of work.
SLICE = {"quad_d20": "interpreter", "quad_d100k": "arrays", "tiny_mlp": "batch",
         "norm_sim": "objects"}
SETUP_SLICE = "interpreter"

_PADAMP = {"optimizer.kind": "padamp"}

# Dotted `build_config` keys per harness workload (the seed is added per run).
HARNESS = {
    "quad_d20": dict(_PADAMP, **{
        "objective.name": "quadratic", "objective.dim": "20",
        "objective.condition": "100", "run.steps": "2000",
    }),
    "quad_d100k": dict(_PADAMP, **{
        "objective.name": "quadratic", "objective.dim": "100000",
        "objective.condition": "100", "run.steps": "100",
    }),
    "tiny_mlp": dict(_PADAMP, **{
        "objective.name": "tiny_mlp", "objective.d_in": "10",
        "objective.hidden": "16", "objective.n": "512",
        "run.batch_size": "128", "run.eval_every": "50",
        "run.eval_window": "32", "run.steps": "500",
    }),
}

# norm_sim: `padamp norm-sim --pattern random --beta 0.9 --steps 100000`
# with the CLI's defaults eta = 1 and theta0_norm_sq = 1. At 1e6 steps one
# call takes seconds, too long for the host-speed slices around it to track
# the host; 1e5 steps still hold about 33 MB of per-step trace records.
NORM_SIM_STEPS = 100_000
NORM_SIM_BETA = 0.9
NORM_SIM_ETA = 1.0
NORM_SIM_THETA0_SQ = 1.0

NAMES = tuple(HARNESS) + ("norm_sim",)


def overrides(workload: str, seed: int) -> dict:
    """`build_config` overrides for a harness workload at the given seed."""
    return dict(HARNESS[workload], **{"run.seed": str(seed)})


def norm_sim_updates(seed: int):
    """The CLI's `random` update-norm pattern: z_t^2 / t^2 with z ~ N(0, 1)."""
    import numpy as np

    t = np.arange(1, NORM_SIM_STEPS + 1, dtype=np.float64)
    return np.random.default_rng(seed).standard_normal(NORM_SIM_STEPS) ** 2 / t**2


def data_seed(seed: int) -> int:
    """The objective data seed `harness.run` derives from the run seed."""
    import numpy as np

    return int(np.random.SeedSequence(seed).spawn(4)[0].generate_state(1)[0])
