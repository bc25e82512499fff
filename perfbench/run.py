"""Benchmark of the semibandit-conformal simulator: closed-loop batch runs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload uniform_sweep --seed 0 --seconds 35 --trace 0

Each workload is a config under `perfbench/workloads/` run through
`harness.load_config`, `harness.run_batch` and `harness.emit_csv`, one
simulation at a time.  A run repeats passes of the workload, each in a
fresh interpreter (`perfbench/worker.py`), until about `--seconds` have
gone, and reports medians over the passes.  Every pass checks its outputs
(see `perfbench/checks.py`); a failed check counts its runs as failed.

`--trace 0` reports the end-to-end metrics, with set-up measured at least
MIN_SETUPS times, and prints the OUTCOMES beside them.  `wall_s` and
`rounds_per_s` are host-normalised: each pass's wall time is divided by its
slowdown, the time of a fixed reference computation timed right before and
after the run over REF_S (see `worker.reference_s`).  The raw median wall
time is printed too.  `setup_s` is raw: set-up moves with the host less
than the reference does.  `--trace 1` reports the per-layer metrics, in raw
seconds: each pass runs once plainly and once under the span tracer
(`perfbench/tracer.py`).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when
every check passed, 1 when one failed, and 2 when the benchmark could not
run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from worker import BENCH_DIR, ROOT, WORKLOADS

WORKER = os.path.join(BENCH_DIR, "worker.py")

# name -> unit; the JSON result carries exactly these
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Printed beside the end-to-end metrics but kept out of the JSON result.
# The failure figures are 0 whenever the checks pass, and `failed` and
# `attempted` carry them.  The regret is fixed by the seed, so it cannot
# move without the outputs moving, and its seed-to-seed spread on the single
# sps_long trajectory (about 9%) is wider than a bound can hold.  The raw
# times drift with the host by up to a third between runs.
OUTCOMES = {"sps_final_regret": "loss", "runs_failed_frac": "ratio",
            "sps_undercover_rounds": "count", "raw_wall_s": "s", "host_slowdown": "ratio"}
PER_LAYER = {
    "cdf_band.insert.calls": "count",
    "cdf_band.insert.self_s": "s",
    "cdf_band.insert.us_first_decile": "us",
    "cdf_band.insert.us_last_decile": "us",
    "cdf_band.conformal_cutoff.calls": "count",
    "cdf_band.conformal_cutoff.self_s": "s",
    "cdf_band.sup_quantile.calls": "count",
    "cdf_band.sup_quantile.self_s": "s",
    "cdf_band.cutoff_neg_inf_frac": "ratio",
    "policies.update.calls": "count",
    "policies.update.self_s": "s",
    "policies.propose.self_s": "s",
    "policies.sps_tau_raised_frac": "ratio",
    "environments.next_round.calls": "count",
    "environments.next_round.self_s": "s",
    "environments.apply_feedback.self_s": "s",
    "environments.build.calls": "count",
    "environments.build.self_s": "s",
    "environments.oracle.self_s": "s",
    "metrics.loss_phi.calls": "count",
    "metrics.loss_phi.self_s": "s",
    "harness.run_single.self_s": "s",
    "harness.run_batch.self_s": "s",
    "harness.selected_runs_frac": "ratio",
    "harness.emit_csv.self_s": "s",
    "harness.emit_csv.bytes": "bytes",
    "harness.load_config.self_s": "s",
    "trace_overhead_frac": "ratio",
}
MIN_SETUPS = 5
# every run ends well inside the 180 s a run may take
LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON line."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError(f"no time left for a pass within {LIMIT_S:.0f} s")
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not finish within {LIMIT_S:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, traced: bool, out_base: str):
    """Passes until `seconds` are used, then extra set-ups up to MIN_SETUPS."""
    start = time.perf_counter()
    deadline = start + LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]
    passes, durations = [], []
    while True:
        t0 = time.perf_counter()
        out = os.path.join(out_base, f"pass{len(passes)}")
        passes.append(worker(common + ["--out", out] + ["--traced"] * traced, deadline))
        durations.append(time.perf_counter() - t0)
        # written data left behind would be flushed to disk during later passes
        shutil.rmtree(out, ignore_errors=True)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while not traced and len(setups) < MIN_SETUPS:
        out = os.path.join(out_base, "setup")
        setups.append(worker(common + ["--out", out, "--setup-only"], deadline)["setup_s"])
    return passes, setups


def summarize(passes: list[dict], setups: list[float], traced: bool):
    """(metrics, outcomes, attempted, failed, problems) over the passes.

    `metrics` go into the JSON result; `outcomes` (untraced runs only) are
    printed beside them.
    """
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    for i, p in enumerate(passes[1:], start=1):
        if p["digests"] != passes[0]["digests"]:
            problems.append(f"pass {i} outputs differ from pass 0 at the same seed")
            failed += p["attempted"]
    done = [p for p in passes if "wall_s" in p]
    if not done:
        raise BenchError("every pass aborted: " + "; ".join(problems))

    def median(key):
        return statistics.median(key(p) for p in done)

    if traced:
        metrics = {name: median(lambda p: p["layers"][name]) for name in PER_LAYER}
        return metrics, {}, attempted, failed, problems
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": median(lambda p: p["wall_s"] / p["slowdown"]),
        "rounds_per_s": median(lambda p: p["rounds"] * p["slowdown"] / p["wall_s"]),
        "peak_rss_mb": median(lambda p: p["peak_rss_mb"]),
    }
    outcomes = {
        "sps_final_regret": median(lambda p: p["sps_final_regret"]),
        "runs_failed_frac": failed / attempted,
        "sps_undercover_rounds": max(p["sps_undercover_rounds"] for p in done),
        "raw_wall_s": median(lambda p: p["wall_s"]),
        "host_slowdown": median(lambda p: p["slowdown"]),
    }
    return metrics, outcomes, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)

    if not os.path.isfile(os.path.join(ROOT, "src", "semibandit_conformal", "__init__.py")):
        print(f"perfbench: no package source under {ROOT}/src", file=sys.stderr)
        return 2
    out_base = os.path.join(ROOT, ".perfbench", f"{args.workload}-{os.getpid()}")
    try:
        passes, setups = measure(args.workload, args.seed, args.seconds, traced, out_base)
        metrics, outcomes, attempted, failed, problems = summarize(passes, setups, traced)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(out_base, ignore_errors=True)

    units = PER_LAYER if traced else END_TO_END
    print(f"{args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}")
    for name, value in {**metrics, **outcomes}.items():
        print(f"  {name:<36} {value:>16.6g} {units.get(name) or OUTCOMES[name]}")
    for msg in problems:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
