"""Time one cold set-up of a workload in this fresh process; print it as JSON.

Set-up is importing padamp, then `build_config` and `build_objective` for a
harness workload, or generating the update-norm sequence for norm_sim. After
the timed part the probe times two reference slices (the first warms up the
slice) so the runner can scale the set-up time like the run times.

Usage: python3 perfbench/setup_probe.py <src-dir> <workload> <seed>
"""

import sys
import time

import workloads


def main() -> None:
    src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import padamp  # noqa: F401  (the import is what is being timed)

    if workload == "norm_sim":
        workloads.norm_sim_updates(seed)
    else:
        from padamp.harness import build_config, build_objective

        cfg = build_config({}, workloads.overrides(workload, seed))
        build_objective(cfg.objective, cfg.objective_params,
                        workloads.data_seed(cfg.seed))
    setup_s = time.perf_counter() - t0

    import json

    import hostspeed

    hostspeed.slice_seconds(workloads.SETUP_SLICE)
    print(json.dumps({"setup_s": setup_s,
                      "slice_s": hostspeed.slice_seconds(workloads.SETUP_SLICE),
                      "padamp": padamp.__file__}))


if __name__ == "__main__":
    main()
