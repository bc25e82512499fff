"""One measured pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--traced | --setup-only]

A pass imports `semibandit_conformal` from the checkout's `src/`, loads the
workload's config with `cfg.seed = N` and its outputs under DIR, runs the
batch and writes its outputs, then checks them.  With `--traced` it then
repeats set-up and run under the span tracer, checks that the traced
outputs are byte-identical, and reports the per-layer numbers; the spans
of the last traced pass of each workload are saved to
`.perfbench/spans-<workload>.npz`.  `--setup-only` stops after set-up.
The last line of standard output is one JSON object.

Every pass also times `reference_s` right before and right after its run.
Their mean over REF_S is the pass's `slowdown`: how much slower the host
ran than when REF_S was taken.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("uniform_sweep", "sps_long", "auction_trace")
# about what reference_s() takes on an Intel Xeon at 2.1 GHz with Python 3.11
REF_S = 0.12


def reference_s() -> float:
    """Seconds taken by a fixed, stdlib-only computation: a host-speed probe.

    A shared host's speed can drift by a third over minutes, for this loop
    as for the simulator, so times divided by the probe's slowdown stay
    steadier than raw times.
    """
    rnd = random.Random(0)
    values: list[float] = []
    total = 0.0
    t0 = time.perf_counter()
    for i in range(600_000):
        v = rnd.random()
        if i < 20_000:
            bisect.insort(values, v)
        total += abs(v - 0.5)
    return time.perf_counter() - t0


def setup(workload: str, overrides: dict):
    """Import the package, load and validate the config, build the specs."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from semibandit_conformal import harness

    if not os.path.abspath(harness.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported {harness.__file__}, not the package under {SRC}")
    cfg = harness.load_config(os.path.join(BENCH_DIR, "workloads", f"{workload}.ini"),
                              overrides)
    cfg.environment.build()
    for entry in cfg.policies:
        for _, grid in entry.grid_points():
            cfg.policy_spec(entry, grid)
    return harness, cfg


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, in MB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def simulate(harness, cfg, problems: list) -> dict:
    """Run the batch, write its outputs and check them.

    `wall_s` spans run_batch and emit_csv.  Executed runs are counted at
    `harness.run_single`, so a sweep that skips grid points shows as less
    work, not as faster rounds.
    """
    import checks

    planned = cfg.runs * sum(len(entry.grid_points()) for entry in cfg.policies)
    executed = 0
    run_single = harness.run_single

    def counted(*args, **kwargs):
        nonlocal executed
        executed += 1
        return run_single(*args, **kwargs)

    harness.run_single = counted
    try:
        t0 = time.perf_counter()
        result = harness.run_batch(cfg)
        written = harness.emit_csv(result, cfg)
        wall = time.perf_counter() - t0
    except harness.RunError as exc:
        problems.append(f"batch aborted: {exc}")
        return {"attempted": planned, "failed": planned, "digests": {}}
    finally:
        harness.run_single = run_single

    out_dir = cfg.out_dir
    regret, undercover, failed = checks.check_sps(out_dir, cfg.alpha, cfg.horizon,
                                                  cfg.runs, problems)
    failed += checks.check_trace_regret(out_dir, problems)
    return {
        "wall_s": wall,
        "rounds": executed * cfg.horizon,
        "attempted": executed,
        "failed": failed,
        "selected_runs": len(result.traces),
        "bytes": sum(os.path.getsize(path) for name, path in written.items()
                     if name in checks.DIGESTED),
        "digests": checks.digests(out_dir),
        "sps_final_regret": regret,
        "sps_undercover_rounds": undercover,
    }


def traced_pass(workload: str, overrides: dict, plain: dict, problems: list) -> dict:
    """Set-up and run again under the tracer; returns the per-layer numbers."""
    import checks
    from tracer import Tracer

    tracer = Tracer()
    with tracer.installed():
        harness, cfg = setup(workload, overrides)
        run = simulate(harness, cfg, problems)
    run["failed"] += checks.check_digests(run["digests"], plain["digests"],
                                          "traced run", run["attempted"], problems)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    tracer.write(os.path.join(ROOT, ".perfbench", f"spans-{workload}.npz"))

    layers = tracer.layer_metrics()
    layers["cdf_band.cutoff_neg_inf_frac"] = (
        tracer.cutoff_neg_inf / layers["cdf_band.conformal_cutoff.calls"])
    layers["policies.sps_tau_raised_frac"] = tracer.sps_raised / tracer.sps_updates
    layers["harness.selected_runs_frac"] = run["selected_runs"] / run["attempted"]
    layers["harness.emit_csv.bytes"] = run["bytes"]
    layers["trace_overhead_frac"] = run["wall_s"] / plain["wall_s"] - 1.0
    return {"attempted": run["attempted"], "failed": run["failed"], "layers": layers}


def run_pass(workload: str, seed: int, out_dir: str, traced: bool = False,
             horizon: int | None = None, runs: int | None = None) -> dict:
    """One pass; `horizon` and `runs` shrink the workload for smoke tests."""
    import checks

    overrides = {"seed": seed, "out": os.path.join(out_dir, "plain")}
    if horizon is not None:
        overrides["horizon"] = horizon
    if runs is not None:
        overrides["runs"] = runs
    t0 = time.perf_counter()
    harness, cfg = setup(workload, overrides)
    setup_s = time.perf_counter() - t0

    problems: list[str] = []
    ref_before = reference_s()
    plain = simulate(harness, cfg, problems)
    out = dict(plain, setup_s=setup_s, peak_rss_mb=peak_rss_mb(), problems=problems,
               slowdown=(ref_before + reference_s()) / (2 * REF_S))
    pinned = checks.golden(workload)
    if seed == pinned["seed"] and horizon is None and runs is None:
        out["failed"] += checks.check_digests(plain["digests"], pinned["files"],
                                              "golden", plain["attempted"], problems)
    if traced and "wall_s" in plain:
        run = traced_pass(workload, dict(overrides, out=os.path.join(out_dir, "traced")),
                          plain, problems)
        out["attempted"] += run["attempted"]
        out["failed"] += run["failed"]
        out["layers"] = run["layers"]
    out["failed"] = min(out["failed"], out["attempted"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--traced", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        t0 = time.perf_counter()
        setup(args.workload, {"seed": args.seed, "out": args.out})
        result = {"setup_s": time.perf_counter() - t0}
    else:
        result = run_pass(args.workload, args.seed, args.out, traced=args.traced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
