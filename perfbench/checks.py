"""Output checks for one benchmark pass.

Every check returns the number of runs it finds wrong, where a run is one
(policy, grid point, run index) trajectory, and appends a message to the
`problems` list it is given.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# meta.json holds a timestamp, so it is never digested
DIGESTED = ("summary.csv", "sweep.csv", "trace.csv")


def digests(out_dir: str) -> dict[str, str]:
    """SHA-256 of each deterministic output file present in `out_dir`."""
    out = {}
    for name in DIGESTED:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def golden(workload: str) -> dict:
    """{"seed": s, "files": {name: sha256}} pinned for the workload."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def check_digests(got: dict, want: dict, what: str, runs: int, problems: list) -> int:
    if got == want:
        return 0
    problems.append(f"{what}: output digests differ: {got} != {want}")
    return runs


def check_sps(out_dir: str, alpha: float, horizon: int, runs: int,
              problems: list) -> tuple[float, int, int]:
    """Final SPS regret and undercover rounds read from summary.csv.

    Returns (final regret, undercover rounds, failed runs).  SPS must
    never play above tau* and must reach coverage >= alpha.
    """
    final = {}
    with open(os.path.join(out_dir, "summary.csv"), newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["policy"] == "sps" and int(row["t"]) == horizon:
                final[row["metric"]] = float(row["mean"])
    regret = final["cum_regret"]
    undercover = round(final["undercoverage_count"] * runs)
    failed = 0
    if undercover != 0:
        problems.append(f"sps played above tau* in {undercover} rounds")
        failed = runs
    if not final["coverage_rate"] >= alpha:
        problems.append(f"sps final coverage {final['coverage_rate']} < alpha {alpha}")
        failed = runs
    return regret, undercover, failed


def check_trace_regret(out_dir: str, problems: list) -> int:
    """Runs whose cum_regret is not the 12-digit running sum of inst_regret."""
    path = os.path.join(out_dir, "trace.csv")
    if not os.path.exists(path):
        return 0
    cum: dict[tuple[str, str], float] = {}
    bad = set()
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = (row["run_id"], row["policy"])
            total = float(f"{cum.get(key, 0.0) + float(row['inst_regret']):.12g}")
            cum[key] = total
            if f"{total:.12g}" != row["cum_regret"]:
                bad.add(key)
    if bad:
        problems.append(f"trace.csv cum_regret is not the running sum in runs {sorted(bad)}")
    return len(bad)
