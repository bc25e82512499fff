"""Experiment orchestration: run grids, aggregation, CSV output.

`run_single` draws a run's scores as one column and plays the policy
over it CHUNK_ROUNDS rounds at a time.  Each chunk becomes a
`metrics.RunColumns`: numpy columns tau, covered and set_size, plus
inst_regret, cum_regret and undercover derived from them, its regret
carried on from the chunk before.  The run is returned as its
`RunSample`, what summary.csv and sweep.csv read of it at the logging
checkpoints; with the trace on the sample also keeps the run's chunks,
and `run_batch` hands the selected runs' chunks to trace.csv.  A
trace-off batch so holds O(runs x checkpoints) numbers, and its run the
scores plus one chunk's columns, not O(T) columns.

Outputs (floats at 12 significant digits, -inf spelled ``-inf``, +inf
``inf``; each written to a temp file first):

    summary.csv  policy,t,metric,mean,ci_lo,ci_hi
    sweep.csv    policy,param,value,mean_final_regret,selected
    trace.csv    run_id,policy,t,tau,covered,inst_regret,cum_regret,undercover,set_size
    meta.json    timestamp sidecar (the only nondeterministic output)

Output is rendered from columns, not from per-round objects.  Summary
rows reduce one (checkpoint x run) matrix per metric.  trace.csv is
rendered as bytes and written one chunk at a time, so its buffers hold
CHUNK_ROUNDS rounds, not a run: each field of a chunk is an S column of
NUL-padded strings, the fields are the members of one record per round,
and the chunk's bytes are the records' bytes with the NULs deleted by
one `bytes.translate`.  A column that repeats (tau, inst_regret, the
flags, set_size) is formatted once per distinct bit pattern, so -0.0
still prints ``-0``; cum_regret, on its 12-digit grid, is put together
from its digits.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, ExperimentConfig, PolicyEntry, load_config  # noqa: F401
from .environments import set_size
from .metrics import _POWERS_OF_TEN, RunColumns
from .policies import PolicySpec


class RunError(RuntimeError):
    """A run aborted (exit code 2)."""


class OutputError(OSError):
    """Result files could not be written (exit code 3)."""


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def derive_seed(base_seed: int, policy_id: str, grid_key: str, run_idx: int) -> int:
    """Stable cross-machine run seed from the identifying tuple."""
    tag = f"{base_seed}|{policy_id}|{grid_key}|{run_idx}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:8], "big")


def checkpoint_grid(horizon: int) -> list[int]:
    """Sparse logging grid: decades plus every 1% of the horizon."""
    step = max(1, horizon // 100)
    points = set(range(step, horizon + 1, step))
    points.update(p for p in (1, 10, 100, 1000, horizon) if p <= horizon)
    return sorted(points)


# Rounds per `play` call, a view of the score column: the per-round Python
# floats and ints some policies make of a block (ACI's and DLR's loops,
# SPS's need column) are made one block at a time, never T at once.
BLOCK_ROUNDS = 4096
# Rounds played, derived and rendered at a time: a whole number of
# blocks, so the block boundaries are those of a run played whole.
CHUNK_ROUNDS = 4 * BLOCK_ROUNDS


def _play(play, scores: np.ndarray) -> np.ndarray:
    """The thresholds `play` gives over `scores`, fed BLOCK_ROUNDS at a time."""
    taus = np.empty(len(scores))
    for start in range(0, len(scores), BLOCK_ROUNDS):
        block = slice(start, start + BLOCK_ROUNDS)
        taus[block] = play(scores[block])
    return taus


def run_single(cfg: ExperimentConfig, spec: PolicySpec, seed: int,
               at: np.ndarray) -> RunSample:
    """One (environment, policy, seed) trajectory of exactly T rounds, as
    its `RunSample` at the increasing checkpoint indices `at`, which end
    at T - 1.

    The environment draws all T scores up front; the policy then plays
    them CHUNK_ROUNDS rounds at a time, each chunk block by block with
    semi-bandit feedback (`Policy.play`: a score that clears tau is
    observed, any other is a miss).  Each chunk's columns are derived,
    sampled at its checkpoints, and kept only when the trace is on; its
    last cum_regret and its flag counts carry into the next chunk.  Set
    sizes, which only trace.csv reads, are counted only with the trace on.
    """
    env = cfg.environment.build()
    scores, candidates = env.draw(np.random.default_rng(seed), cfg.horizon)
    if not cfg.trace:
        candidates = None
    play = spec.build().play
    oracle = env.oracle_tau_star(cfg.alpha), env.oracle_cdf(), cfg.loss
    # (cum_regret, covered, undercover) at each chunk's checkpoints
    pieces, chunks = [], []
    before, covered, undercover = None, 0, 0
    for start in range(0, cfg.horizon, CHUNK_ROUNDS):
        rounds = slice(start, start + CHUNK_ROUNDS)
        taus = _play(play, scores[rounds])
        sizes = None if candidates is None else set_size(candidates[rounds], taus)
        part = RunColumns.derive(taus, scores[rounds] >= taus, sizes, *oracle, before)
        lo, hi = np.searchsorted(at, (start, start + len(taus)))
        if lo < hi:
            here = at[lo:hi] - start
            pieces.append((part.cum_regret[here], covered + _running_count(part.covered, here),
                           undercover + _running_count(part.undercover, here)))
        before = float(part.cum_regret[-1])
        covered += int(np.count_nonzero(part.covered))
        undercover += int(np.count_nonzero(part.undercover))
        if cfg.trace:
            chunks.append(part)
    return RunSample(*map(np.concatenate, zip(*pieces)), tuple(chunks))


def _running_count(flags: np.ndarray, at: np.ndarray) -> np.ndarray:
    """`np.cumsum(flags)[at]` for increasing indices `at`, as exact int64
    counts: one sum per stretch between checkpoints, then their running
    sum, which is faster than the running column of a chunk."""
    starts = np.concatenate(([0], at[:-1] + 1))
    return np.cumsum(np.add.reduceat(flags[:at[-1] + 1], starts, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class RunSample:
    """What summary.csv and sweep.csv read of one run: entry i holds round
    t = checkpoints[i], and the last checkpoint is the horizon.  With the
    trace on it also keeps the run's per-round columns, one `RunColumns`
    per CHUNK_ROUNDS rounds, in order."""

    cum_regret: np.ndarray  # float64 cum_regret at t
    covered: np.ndarray     # int64 covered rounds in 1..t
    undercover: np.ndarray  # int64 undercovering rounds in 1..t
    chunks: tuple[RunColumns, ...] = ()


@dataclass
class BatchResult:
    summary_rows: list[tuple]   # (policy, t, metric, mean, ci_lo, ci_hi)
    sweep_rows: list[tuple]     # (policy, param, value, mean_final_regret, selected)
    # (run_id, policy, chunks) per selected run: its `RunSample.chunks`,
    # empty when the trace is off
    traces: list[tuple[int, str, tuple[RunColumns, ...]]]
    selected: dict[str, str]    # policy_id -> winning grid_key


def _aggregate(policy_id: str, samples: list[RunSample],
               checkpoints: list[int]) -> list[tuple]:
    """Summary rows: mean and 95% CI of each metric at each checkpoint.

    Each metric is one C-contiguous (checkpoint x run) matrix, so every
    row reduces as one contiguous 1-D sum, the same pairwise sum that
    `np.mean` gives one checkpoint's values; a strided reduction over the
    transpose would sum in another order.  A covered count over t is
    `metrics.coverage_rate` at t bit for bit: both divide exact integers.
    """
    t = np.asarray(checkpoints)
    n = len(samples)
    columns = {
        "cum_regret": [sample.cum_regret for sample in samples],
        "coverage_rate": [sample.covered / t for sample in samples],
        "undercoverage_count": [sample.undercover for sample in samples],
    }
    per_metric = []
    for metric, cols in columns.items():
        matrix = np.stack(cols, axis=1, dtype=float)
        mean = matrix.mean(axis=1)
        # one run: the CI degenerates to zero width (run_batch warns)
        half = (1.96 * matrix.std(axis=1, ddof=1) / math.sqrt(n) if n > 1
                else np.zeros_like(mean))
        per_metric.append((metric, mean.tolist(), (mean - half).tolist(),
                           (mean + half).tolist()))
    return [(policy_id, t, metric, mean[i], lo[i], hi[i])
            for i, t in enumerate(checkpoints)
            for metric, mean, lo, hi in per_metric]


def run_batch(cfg: ExperimentConfig) -> BatchResult:
    """Run every (policy, grid point, seed) and aggregate the winners.

    Swept parameters are selected by lowest mean final cumulative regret;
    summary checkpoints and traces come from the selected grid point.
    Each run is reduced to its `RunSample` by `run_single`.
    """
    if cfg.runs == 1:
        warnings.warn("runs = 1: confidence intervals degenerate to zero width")
    checkpoints = checkpoint_grid(cfg.horizon)
    at = np.asarray(checkpoints) - 1
    summary_rows: list[tuple] = []
    sweep_rows: list[tuple] = []
    traces: list[tuple[int, str, tuple[RunColumns, ...]]] = []
    selected: dict[str, str] = {}

    for entry in cfg.policies:
        points = entry.grid_points()
        finals = []
        best_final = math.inf
        for grid_key, overrides in points:
            spec = cfg.policy_spec(entry, overrides)
            samples = []
            for run_idx in range(cfg.runs):
                seed = derive_seed(cfg.seed, entry.policy_id, grid_key, run_idx)
                try:
                    samples.append(run_single(cfg, spec, seed, at))
                except Exception as exc:
                    raise RunError(
                        f"run failed: policy={entry.policy_id} grid={grid_key!r} "
                        f"run={run_idx} seed={seed}: {exc}"
                    ) from exc
            final = float(np.mean([sample.cum_regret[-1] for sample in samples]))
            # strict: ties keep the earlier grid point
            if final < best_final:
                best_key, best_final = grid_key, final
                best_samples = samples
            finals.append(final)
        selected[entry.policy_id] = best_key
        if len(points) > 1:
            param = points[0][0].split("=", 1)[0]
            for (grid_key, _), final in zip(points, finals):
                sweep_rows.append((
                    entry.policy_id, param, grid_key.split("=", 1)[1], final,
                    int(grid_key == best_key),
                ))
        summary_rows.extend(_aggregate(entry.policy_id, best_samples, checkpoints))
        traces.extend((run_idx, entry.policy_id, sample.chunks)
                      for run_idx, sample in enumerate(best_samples))
    return BatchResult(summary_rows, sweep_rows, traces, selected)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


# 12 significant digits; the sentinels serialize as '-inf' and 'inf'
FLOAT_FORMAT = "%.12g"
# a trace field and the comma after it
FLOAT_FIELD = FLOAT_FORMAT + ","
INT_FIELD = "%d,"


def _render_rows(header: str, rows) -> str:
    """`header`, then one line per row: float fields as FLOAT_FORMAT, the
    rest by str.  Every row has the first row's field types."""
    line = ",".join(FLOAT_FORMAT if isinstance(x, float) else "%s" for x in rows[0])
    return "\n".join([header] + [line % row for row in rows]) + "\n"


def _field(col: np.ndarray, fmt) -> np.ndarray:
    """`fmt(x)` for every entry x, as bytes in an S array.

    fmt is called once per distinct entry, and entries are compared once
    per stretch of equal ones (the trace columns repeat in long
    stretches).  Floats are told apart by bits, not value: -0.0 and 0.0
    are equal but print apart.
    """
    bits = col.view(np.int64) if col.dtype.kind == "f" else col
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    keys, inverse = np.unique(bits[starts], return_inverse=True)
    strings = np.array([fmt(x).encode() for x in keys.view(col.dtype).tolist()])
    return strings[np.repeat(inverse, np.diff(starts, append=len(bits)))]


def _size_field(n: int) -> str:
    return "\n" if n < 0 else f"{n}\n"


# ASCII digits of 0..999, three to an entry
_DIGITS3 = (np.arange(1000)[:, None] // np.array([100, 10, 1]) % 10
            + ord("0")).astype(np.uint8).view("S3").ravel()


def _t_field(n: int) -> np.ndarray:
    """`_field(np.arange(1, n + 1), INT_FIELD.__mod__)`, the t column,
    from `_DIGITS3`.  The k-th 3-digit group of t = 0, 1, ... runs
    through the 1000 entries of the table, each repeated 1000**k times;
    the t with d digits are one slice of rows, d digits and a comma, taken
    from the right end of their groups."""
    width = len(str(n))
    groups = -(-width // 3)
    digits = np.empty((n + 1, groups), "S3")
    for k in range(groups):
        run = 1000 ** k
        digits[:, groups - 1 - k] = np.repeat(np.resize(_DIGITS3, n // run + 1), run)[:n + 1]
    digits = digits[1:].view(np.uint8).reshape(n, 3 * groups)
    out = np.zeros((n, width + 1), np.uint8)
    for d in range(1, width + 1):
        rows = slice(10 ** (d - 1) - 1, min(10 ** d - 1, n))
        out[rows, :d] = digits[rows, 3 * groups - d:]
        out[rows, d] = ord(",")
    return out.view(f"S{width + 1}").ravel()


def _cum_templates() -> np.ndarray:
    """FLOAT_FIELD of r / 10**s at [12 * s + z], for 0 <= s <= 15 and a
    12-digit integer r with z trailing zeros, in 29 bytes: '0.' and up to
    three zeros, r's digits each with a slot for the point after it (the
    last without), the comma.  0xFF marks each printed digit of r, NUL
    each unused byte.  With e = 11 - s, '%.12g' puts the point after
    digit e, or '0.' and -e-1 zeros before r when e < 0, and strips
    trailing zeros and a bare point.
    """
    e = 11 - np.arange(16)[:, None, None]
    z = np.arange(12)[:, None]
    j = np.arange(12)
    p = np.arange(5)
    out = np.zeros((16, 12, 29), np.uint8)
    out[..., :5] = np.where(e >= 0, 0, np.where(p == 1, ord("."), np.where(p <= -e, ord("0"), 0)))
    out[..., 5::2] = np.where((j <= e) | (j < 12 - z), 0xFF, 0)
    out[..., 6:-1:2] = np.where((j[:-1] == e) & (j[:-1] < 11 - z), ord("."), 0)
    out[..., -1] = ord(",")
    return out.view("S29").ravel()


_CUM_TEMPLATES = _cum_templates()


def _cum_field(c: np.ndarray) -> np.ndarray:
    """`_field(c, FLOAT_FIELD.__mod__)` for a cum_regret column, up to NULs
    inside each entry.

    `metrics.cum_regret` puts c on a 12-significant-digit grid.  With
    s = 11 - floor(log10(x)), an x with 0 <= s <= 15 whose
    r = rint(x * 10**s) has 12 digits and gives r / 10**s == x exactly
    is within 1.2e-4 units of r, so '%.12g' prints r's digits in fixed
    notation: r's 3-digit groups fill a `_cum_templates` entry.  Every
    other value (0, -0.0, inf, NaN, negative, exponent form or off the
    grid) takes `_field`.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = 11.0 - np.floor(np.log10(c))
        fast = (shift >= 0.0) & (shift <= 15.0)
        s = np.where(fast, shift, 0.0).astype(np.intp)
        r = np.rint(c * _POWERS_OF_TEN[s])
        fast &= (r >= 1e11) & (r < 1e12) & (r / _POWERS_OF_TEN[s] == c)
    # r's two 6-digit halves are exact in float64
    r = np.where(fast, r, 1e11)
    high = np.floor(r / 1e6)
    halves = np.stack([high, r - 1e6 * high], axis=1).astype(np.intp)
    digits = _DIGITS3[np.stack(np.divmod(halves, 1000), axis=2)].view(np.uint8).reshape(-1, 12)
    zeros = (digits[:, ::-1] != ord("0")).argmax(axis=1)
    field = _CUM_TEMPLATES[12 * s + zeros]
    field.view(np.uint8).reshape(-1, 29)[:, 5::2] &= digits
    rest = np.flatnonzero(~fast)
    if len(rest):
        field[rest] = _field(c[rest], FLOAT_FIELD.__mod__)
    return field


def _render_trace(traces):
    """trace.csv as bytes: the header, then one bytes object per chunk of
    a run (see the module doc).  The t strings are sliced from one
    `_t_field` of the longest run.  CSV text holds no NUL, so a policy id
    with one is refused.
    """
    yield b"run_id,policy,t,tau,covered,inst_regret,cum_regret,undercover,set_size\n"
    rounds = _t_field(max((sum(len(run.tau) for run in chunks) for _, _, chunks in traces),
                          default=0))
    for run_id, policy, chunks in traces:
        if "\0" in policy:
            raise ValueError(f"policy id {policy!r} holds a NUL character")
        prefix = np.asarray(f"{run_id},{policy},".encode())
        start = 0
        for run in chunks:
            n = len(run.tau)
            fields = [
                prefix,
                rounds[start:start + n],
                _field(run.tau, FLOAT_FIELD.__mod__),
                _field(run.covered, INT_FIELD.__mod__),
                _field(run.inst_regret, FLOAT_FIELD.__mod__),
                _cum_field(run.cum_regret),
                _field(run.undercover, INT_FIELD.__mod__),
                np.asarray(b"\n") if run.set_size is None else _field(run.set_size, _size_field),
            ]
            start += n
            records = np.empty(n, ",".join(field.dtype.str for field in fields))
            for name, field in zip(records.dtype.names, fields):
                records[name] = field
            yield records.tobytes().translate(None, b"\0")


# every file `emit_csv` may write
RESULT_FILES = ("summary.csv", "sweep.csv", "trace.csv", "meta.json")


def emit_csv(result: BatchResult, cfg: ExperimentConfig) -> dict[str, str]:
    """Write summary/sweep/trace CSVs plus the timestamp sidecar.

    Every body is written as bytes to a temporary file in the output
    directory, trace.csv chunk by chunk as it is rendered, before any is
    moved into place with `os.replace`, so a failure leaves the earlier
    result files whole, never a truncated one, and removes the temporary
    files.  Once all are in place, result files this run did not write
    (an earlier run's trace.csv or sweep.csv) are removed, so every
    result file in the directory comes from this run.  A trace asked of
    a batch that ran with the trace off is refused before any write.
    """
    if not result.summary_rows:
        raise ValueError("nothing to emit: empty batch result")
    if cfg.trace and not all(chunks for _, _, chunks in result.traces):
        raise ValueError("nothing to trace: the batch ran with the trace off")
    bodies = {"summary.csv": [_render_rows("policy,t,metric,mean,ci_lo,ci_hi",
                                            result.summary_rows).encode()]}
    if result.sweep_rows:
        bodies["sweep.csv"] = [_render_rows("policy,param,value,mean_final_regret,selected",
                                           result.sweep_rows).encode()]
    if cfg.trace:
        bodies["trace.csv"] = _render_trace(result.traces)
    meta = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "selected": result.selected,
        "alpha": cfg.alpha,
        "horizon": cfg.horizon,
        "runs": cfg.runs,
        "seed": cfg.seed,
    }
    bodies["meta.json"] = [(json.dumps(meta, indent=2, sort_keys=True) + "\n").encode()]
    temps: dict[str, str] = {}
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        for name, chunks in bodies.items():
            temps[name] = os.path.join(cfg.out_dir, f".{name}.{os.getpid()}.tmp")
            with open(temps[name], "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
        written = {name: os.path.join(cfg.out_dir, name) for name in bodies}
        for name, temp in temps.items():
            os.replace(temp, written[name])
        for name in RESULT_FILES:
            if name not in bodies:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(cfg.out_dir, name))
    except OSError as exc:
        raise OutputError(f"cannot write results to {cfg.out_dir!r}: {exc}") from exc
    finally:
        # after a write error or a render error (a NUL in a policy id); the
        # replaces leave none behind
        for temp in temps.values():
            with contextlib.suppress(OSError):
                os.remove(temp)
    return written
