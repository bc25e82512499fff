"""Smoke test of the benchmark at a tiny horizon.

    python3 perfbench/smoke.py

Runs one plain and one traced pass of every workload in this process at
T = 1200 with two runs each.  It checks that every metric BENCHMARK.json
names is reported with the unit BENCHMARK.json gives it, that no check
failed, and that every function and method of the package is the original
object again after the traced pass.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

import run
import worker
from tracer import PACKAGE, package_modules

HORIZON = 1200  # above the largest default etc grid point, m = 1000
RUNS = 2


def package_callables() -> dict:
    """(owner, attribute) -> object for every callable the package holds."""
    found = {}
    for mod in package_modules():
        owners = [mod] + [obj for obj in vars(mod).values()
                          if isinstance(obj, type) and obj.__module__.startswith(PACKAGE)]
        for owner in owners:
            for attr, value in vars(owner).items():
                if callable(value):
                    found[(owner.__name__, attr)] = value
    return found


def declared_units(section: str) -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke: FAIL: {what}")


def main() -> int:
    check(declared_units("end_to_end") == run.END_TO_END,
          "BENCHMARK.json end_to_end differs from run.END_TO_END")
    check(declared_units("per_layer") == run.PER_LAYER,
          "BENCHMARK.json per_layer differs from run.PER_LAYER")
    out_base = os.path.join(run.ROOT, ".perfbench", "smoke")
    try:
        for workload in run.WORKLOADS:
            for traced in (False, True):
                out = os.path.join(out_base, f"{workload}-{int(traced)}")
                before = package_callables() if traced else None
                p = worker.run_pass(workload, 0, out, traced=traced, horizon=HORIZON, runs=RUNS)
                metrics, outcomes, attempted, failed, problems = run.summarize([p], [p["setup_s"]], traced)
                units = run.PER_LAYER if traced else run.END_TO_END
                what = f"{workload} trace={int(traced)}"
                check(failed == 0 and attempted > 0 and not problems, f"{what}: {problems}")
                check(sorted(metrics) == sorted(units), f"{what}: metric names {sorted(metrics)}")
                check(all(math.isfinite(v) for v in metrics.values()), f"{what}: {metrics}")
                if traced:
                    after = package_callables()
                    changed = [k for k in before if after.get(k) is not before[k]]
                    check(not changed, f"{what}: still patched after the traced run: {changed}")
                else:
                    check(all(v > 0 for v in metrics.values()), f"{what}: zero metric {metrics}")
                    check(sorted(outcomes) == sorted(run.OUTCOMES), f"{what}: {sorted(outcomes)}")
                for name, value in {**metrics, **outcomes}.items():
                    print(f"{what:<26} {name:<36} {value:>14.6g} {units.get(name) or run.OUTCOMES[name]}")
    finally:
        shutil.rmtree(out_base, ignore_errors=True)
    print("smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
