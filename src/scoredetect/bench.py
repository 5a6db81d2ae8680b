"""Monte Carlo benchmark harness: drift, average run length (ARL), and
expected detection delay (EDD) for score-based CUSUM detectors.

Paths are simulated in fixed-size shards of 256, each drawing from its own
deterministic substream, so results are exactly reproducible for a fixed
stream.  A shard draws its observations in blocks of steps, one ``sample``
call per block: 8 steps, doubling to 256, clipped at the cap, laid out
step-major, so a Gibbs or Langevin sampler pays its burn-in once per block.
Shards advance in lockstep groups of up to 4096 paths: at each block every
shard of a group draws for its own live paths, and the group's increments
are scored in one batch per step, on the live paths only.  The group size
changes no draw.

A single pass records the first crossing of every threshold in a grid at
once; a single threshold is a one-point grid.  The grid is sorted, so a
statistic that reaches ``omega_j`` has reached every lower threshold at
that step or earlier: the thresholds a path has crossed are always a prefix
of the grid, and one count per path records them.  A path is censored at
exactly the thresholds past its count.
"""

import csv
import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .detectors import DetectorConfig, batch_scores
from .rngs import RngStream

__all__ = [
    "TrialSummary",
    "SweepRow",
    "estimate_drift",
    "run_lengths",
    "threshold_grid",
    "arl_edd_sweep",
    "write_sweep_csv",
    "SWEEP_COLUMNS",
]

_SHARD_PATHS = 256  # fixed shard width; part of the determinism contract
# block lengths in steps: 8, doubling to 256, one ``sample`` call per block;
# part of the determinism contract
_FIRST_BLOCK, _LAST_BLOCK = 8, 256
# paths per lockstep group, a multiple of the shard width; it changes no draw
_LOCKSTEP_PATHS = 4096


@dataclass(frozen=True)
class TrialSummary:
    """Mean stopping time with its uncertainty and censoring bookkeeping.

    Censored paths enter the mean at the cap value, so with ``censored > 0``
    the mean is a lower bound (flagged by ``is_lower_bound``).
    """

    mean_stop: float
    stderr: float
    censored: int
    paths: int
    is_lower_bound: bool


@dataclass(frozen=True)
class SweepRow:
    omega: float
    arl: float
    arl_stderr: float
    arl_censored: int
    edd: float
    edd_stderr: float
    edd_censored: int


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))


def estimate_drift(model, detector: DetectorConfig, n: int, rng):
    """Mean and standard error of the detector increment under ``model``."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    draws = model.sample(n, rng)
    z = np.asarray(batch_scores(detector, draws))
    return float(z.mean()), float(z.std(ddof=1) / math.sqrt(n))


def _first_crossings(model, detector: DetectorConfig, omegas: np.ndarray,
                     paths: int, cap: int, stream: RngStream):
    """First crossing time of each threshold for every path.

    Returns ``(times, crossed)``: ``times`` has shape ``(paths,
    len(omegas))`` and holds the cap where a path never crossed;
    ``crossed[i]`` counts the thresholds path ``i`` crossed, which are the
    first ``crossed[i]`` of the ascending grid.  A path retires once it has
    crossed the largest threshold.  Shards have a fixed width and their own
    substreams, and blocks a schedule fixed by the step, so the blocks of a
    lockstep group line up and the result depends only on ``stream``.
    """
    n_omega = omegas.size
    times = np.full((paths, n_omega), cap, dtype=np.int64)
    crossed = np.zeros(paths, dtype=np.int64)
    columns = np.arange(n_omega)
    bounds = np.append(omegas, np.inf)  # bounds[k]: the next threshold after k crossings
    for first in range(0, paths, _LOCKSTEP_PATHS):
        alive = np.arange(first, min(first + _LOCKSTEP_PATHS, paths))
        starts = alive[::_SHARD_PATHS]  # the first path of each shard
        gens = [stream.substream(s // _SHARD_PATHS).generator() for s in starts.tolist()]
        stat = np.zeros(alive.size)
        nxt = np.full(alive.size, bounds[0])  # each live path's next threshold
        n, length = 0, _FIRST_BLOCK
        while alive.size and n < cap:
            steps = min(length, cap - n)
            # shard s draws step-major for its own live paths, which are the
            # columns [cuts[s], cuts[s + 1]) of the group's block
            cuts = np.append(np.searchsorted(alive, starts), alive.size)
            block = np.empty((steps, alive.size, model.dim))
            for gen, lo, hi in zip(gens, cuts[:-1], cuts[1:]):
                if hi > lo:  # a shard with no live path draws nothing
                    part = model.sample(steps * (hi - lo), gen)
                    block[:, lo:hi] = part.reshape(steps, hi - lo, -1)
            live = None  # block columns of the live paths, once one has retired
            for t in range(steps):
                n += 1
                draws = block[t] if live is None else block[t, live]
                stat += batch_scores(detector, draws)
                np.maximum(stat, 0.0, out=stat)
                rose = stat >= nxt
                if rose.any():
                    rows = alive[rose]
                    low = crossed[rows]
                    top = np.searchsorted(omegas, stat[rose], side="right")
                    # the new crossings of each rising row are columns [low, top)
                    hit, col = np.nonzero((columns >= low[:, None]) & (columns < top[:, None]))
                    times[rows[hit], col] = n
                    crossed[rows] = top
                    nxt[rose] = bounds[top]
                    if (top == n_omega).any():
                        keep = nxt < np.inf
                        alive, stat, nxt = alive[keep], stat[keep], nxt[keep]
                        live = np.flatnonzero(keep) if live is None else live[keep]
                        if alive.size == 0:
                            break
            length = min(2 * length, _LAST_BLOCK)
    return times, crossed


def _summarize(times_col, censored: int) -> TrialSummary:
    paths = times_col.size
    vals = times_col.astype(float)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0
    return TrialSummary(mean, stderr, censored, paths, censored > 0)


def threshold_grid(omegas) -> np.ndarray:
    """``omegas`` checked as a non-empty, strictly increasing grid of finite ``omega >= 0``."""
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1 or omegas.size == 0:
        raise ValueError("omegas must be a non-empty 1-d grid")
    if not np.isfinite(omegas).all():
        raise ValueError("omegas must be finite")
    if omegas.size > 1 and not np.all(np.diff(omegas) > 0):
        raise ValueError("omegas must be strictly increasing")
    if (omegas < 0).any():
        raise ValueError("omegas must be non-negative")
    return omegas


def run_lengths(law, detector: DetectorConfig, omegas, paths: int, cap: int,
                rng: RngStream) -> list[TrialSummary]:
    """Mean stopping time at each threshold of a grid, with observations
    drawn from ``law`` from the first step on.

    With the pre-change law this is the average run length (ARL); with the
    post-change law, the expected detection delay (EDD) of a change at
    time 1.  ``omegas`` must be non-negative and strictly increasing;
    ``detector.omega`` is ignored, since the grid replaces it.  Paths still
    running at ``cap`` enter the mean at the cap and are counted as
    censored.
    """
    omegas = threshold_grid(omegas)
    if paths < 1 or cap < 1:
        raise ValueError("paths and cap must be at least 1")
    if not isinstance(rng, RngStream):
        raise TypeError("run_lengths needs an RngStream")
    times, crossed = _first_crossings(law, detector, omegas, paths, cap, rng)
    # path i is censored at threshold j exactly when j >= crossed[i]
    return [_summarize(times[:, j], int((crossed <= j).sum())) for j in range(omegas.size)]


def arl_edd_sweep(p_inf, p_post, detector: DetectorConfig, omegas,
                  arl_paths: int, edd_paths: int, cap: int,
                  rng: RngStream) -> list[SweepRow]:
    """ARL under ``p_inf`` and EDD under ``p_post`` across a threshold
    grid: one :func:`run_lengths` pass each, on substreams 0 and 1 of
    ``rng``."""
    arl = run_lengths(p_inf, detector, omegas, arl_paths, cap, rng.substream(0))
    edd = run_lengths(p_post, detector, omegas, edd_paths, cap, rng.substream(1))
    return [
        SweepRow(
            omega=float(omega),
            arl=a.mean_stop,
            arl_stderr=a.stderr,
            arl_censored=a.censored,
            edd=e.mean_stop,
            edd_stderr=e.stderr,
            edd_censored=e.censored,
        )
        for omega, a, e in zip(np.asarray(omegas, dtype=float), arl, edd)
    ]


def write_sweep_csv(rows, path) -> None:
    """Write sweep rows to ``path`` as CSV (header mandatory, LF endings, '%.10g' floats)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for r in rows:  # counts as integers, every other column as '%.10g'
            writer.writerow([v if name.endswith("_censored") else f"{v:.10g}"
                             for name, v in zip(SWEEP_COLUMNS, astuple(r))])
