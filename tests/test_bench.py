import math

import numpy as np
import pytest

from conftest import GAP_NEAR, drift_stats, make_rbm_family
from scoredetect import (DetectorConfig, Gaussian, RngStream, arl_edd_sweep, batch_scores,
                         estimate_drift, run_lengths, write_sweep_csv)
from scoredetect import bench
from scoredetect.bench import SWEEP_COLUMNS, _first_crossings


@pytest.fixture()
def detector(inf_a, post_a):
    return DetectorConfig(inf_a, post_a, omega=2.0, rho=1.0)


def null_run(detector, model, seed, omega, paths=512, cap=1000):
    """Run length at the single threshold ``omega``."""
    return run_lengths(model, detector, [omega], paths, cap, RngStream(seed))[0]


# ---------------------------------------------------------------------------
# drift


def test_drift_estimate_matches_the_closed_form(detector, inf_a):
    m, var = drift_stats(inf_a.mean, inf_a.mean, detector.model_post.mean)
    est, se = estimate_drift(inf_a, detector, 50000, RngStream(901))
    assert est == pytest.approx(-GAP_NEAR, abs=3 * se)
    assert se == pytest.approx(math.sqrt(var / 50000), rel=0.05)


def test_drift_scales_exactly_with_rho(detector, inf_a, post_a):
    doubled = DetectorConfig(inf_a, post_a, omega=2.0, rho=2.0)
    base = estimate_drift(inf_a, detector, 4000, RngStream(902))
    twice = estimate_drift(inf_a, doubled, 4000, RngStream(902))
    assert twice[0] == pytest.approx(2.0 * base[0], rel=1e-15)


def test_drift_validation(detector, inf_a):
    with pytest.raises(ValueError):
        estimate_drift(inf_a, detector, 1, RngStream(903))


# ---------------------------------------------------------------------------
# ARL / EDD point estimates


def test_zero_threshold_alarms_immediately(detector, inf_a):
    out = null_run(detector, inf_a, 904, 0.0, paths=64)
    assert out.mean_stop == 1.0
    assert out.stderr == 0.0
    assert out.censored == 0 and not out.is_lower_bound


def test_censoring_is_flagged_and_counted(detector, inf_a):
    cap = 20
    out = null_run(detector, inf_a, 905, 1.5, cap=cap)
    assert 0 < out.censored < out.paths
    assert out.is_lower_bound
    assert out.mean_stop < cap  # some paths alarmed before the cap
    full = null_run(detector, inf_a, 905, 1.5, cap=100000)
    assert full.censored == 0 and not full.is_lower_bound
    assert full.mean_stop > out.mean_stop


def test_edd_lands_in_the_wald_window(inf_a, post_a, post_b):
    # linear increment: mean delay ~ omega/drift plus an overshoot of at
    # most E[z^2]/E[z] per Wald, with a small allowance below for the
    # reflection at zero
    det = DetectorConfig(inf_a, post_a, omega=10.0, rho=1.0)
    m, var = drift_stats(post_b.mean, inf_a.mean, post_a.mean)
    out, = run_lengths(post_b, det, [det.omega], 3000, 2000, RngStream(906))
    assert out.censored == 0
    lo = 0.85 * det.omega / m
    hi = 1.15 * det.omega / m + (m * m + var) / (m * m)
    assert lo <= out.mean_stop <= hi


def test_run_lengths_validation(detector, inf_a):
    with pytest.raises(ValueError):
        run_lengths(inf_a, detector, [1.0], 0, 10, RngStream(910))
    with pytest.raises(ValueError):
        run_lengths(inf_a, detector, [1.0], 8, 0, RngStream(909))
    with pytest.raises(TypeError):
        run_lengths(inf_a, detector, [1.0], 8, 10, 911)


# ---------------------------------------------------------------------------
# sweeps


def sweep(detector, inf_a, post_a, seed, grid, arl_paths, edd_paths, cap):
    return arl_edd_sweep(inf_a, post_a, detector, grid, arl_paths=arl_paths,
                         edd_paths=edd_paths, cap=cap, rng=RngStream(seed))


def test_sweep_is_deterministic(detector, inf_a, post_a):
    grid = [0.5, 1.0, 2.0]
    first = sweep(detector, inf_a, post_a, 912, grid, 600, 400, 500)
    again = sweep(detector, inf_a, post_a, 912, grid, 600, 400, 500)
    assert first == again


def test_sweep_is_monotone_in_the_threshold(detector, inf_a, post_a):
    rows = sweep(detector, inf_a, post_a, 913, [0.25, 0.5, 1.0, 2.0], 2000, 1000, 5000)
    arls = [r.arl for r in rows]
    edds = [r.edd for r in rows]
    assert np.all(np.diff(arls) > 0)
    assert np.all(np.diff(edds) >= 0)
    assert all(r.arl_stderr > 0 and r.edd_stderr > 0 for r in rows)


def test_sweep_grid_validation(detector, inf_a, post_a):
    for grid in ([2.0, 1.0], [1.0, 1.0], [], [-1.0, 2.0]):
        with pytest.raises(ValueError):
            sweep(detector, inf_a, post_a, 914, grid, 16, 16, 10)
    with pytest.raises(ValueError):
        sweep(detector, inf_a, post_a, 914, [1.0], 16, 0, 10)


def test_grid_pass_matches_one_threshold_at_a_time(detector, inf_a, post_a):
    # a top threshold no path reaches within the cap keeps every path alive
    # to the cap, so every grid below consumes the same draws and the grid
    # pass must agree path by path with one pass per threshold
    grid, huge, paths, cap = [0.0, 0.3, 0.7, 1.5, 2.5], 1e6, 300, 40
    for law in (inf_a, post_a):
        times, crossed = _first_crossings(law, detector, np.array(grid + [huge]),
                                          paths, cap, RngStream(916))
        rows = run_lengths(law, detector, grid + [huge], paths, cap, RngStream(916))
        alone_times, alone_censored = [], []
        for j, omega in enumerate(grid):
            t, c = _first_crossings(law, detector, np.array([omega, huge]),
                                    paths, cap, RngStream(916))
            alone_times.append(t[:, 0])
            alone_censored.append(c == 0)
            assert rows[j] == run_lengths(law, detector, [omega, huge], paths, cap,
                                          RngStream(916))[0]
        alone_times = np.stack(alone_times, axis=1)
        alone_censored = np.stack(alone_censored, axis=1)
        assert np.array_equal(times[:, :-1], alone_times)
        assert np.array_equal(np.arange(len(grid)) >= crossed[:, None], alone_censored)
        # per path: times never fall along the grid, censoring is a suffix
        assert np.all(np.diff(alone_times, axis=1) >= 0)
        assert np.all(alone_censored[:, :-1] <= alone_censored[:, 1:])
        assert np.all(alone_times[alone_censored] == cap)
        assert np.all(times[:, -1] == cap) and rows[-1].censored == paths
        assert alone_censored.any() and not alone_censored.all()


# ---------------------------------------------------------------------------
# block sampling


def record_shards(monkeypatch, law):
    """Row counts of every ``law.sample`` call, per shard in the order the
    shards first draw (a shard is known by the generator it samples with),
    and of every ``bench.batch_scores`` call, in order."""
    shards, scored = {}, []
    sample, score = law.sample, bench.batch_scores

    def counted_sample(n, gen):
        shards.setdefault(gen, []).append(n)
        return sample(n, gen)

    def counted_scores(detector, x):
        scored.append(len(x))
        return score(detector, x)

    monkeypatch.setattr(law, "sample", counted_sample)
    monkeypatch.setattr(bench, "batch_scores", counted_scores)
    return shards, scored


def test_blocks_keep_one_increment_batch_per_step_on_the_live_paths(monkeypatch, detector, inf_a):
    # three shards of one lockstep group, the last one partial; some paths
    # retire, some are censored, and the cap runs past the first 256-step block
    law = Gaussian(inf_a.mean, inf_a.cov)
    shards, scored = record_shards(monkeypatch, law)
    paths, cap = 600, 700
    times, _ = _first_crossings(law, detector, np.array([1.0, 3.0]), paths, cap,
                                RngStream(917))
    stops = times[:, -1]  # min(T_top, cap): the steps each path was scored
    assert 0 < (stops == cap).sum() < paths
    assert len(shards) == math.ceil(paths / 256)
    for k, calls in enumerate(shards.values()):
        mine = stops[256 * k:256 * (k + 1)]
        assert len(calls) <= 6 + math.ceil(cap / 256)
        # blocks of 8 steps doubling to 256, clipped at the cap, each drawn
        # for the shard's paths alive at its start
        want, n, length = [], 0, 8
        while (mine > n).any():
            steps = min(length, cap - n)
            want.append(steps * int((mine > n).sum()))
            n, length = n + steps, min(2 * length, 256)
        assert calls == want
    # one increment batch per step for the whole group, on exactly the
    # paths still alive
    assert scored == [int((stops >= n).sum()) for n in range(1, stops.max() + 1)]
    assert sum(scored) == stops.sum()


def test_lockstep_group_size_changes_no_draw(monkeypatch, detector, inf_a, post_a):
    # 5000 paths make two lockstep groups; groups of 256 advance one shard
    # at a time, and 8192 takes every path in one group
    assert detector._affine is not None  # a row scores alike in any batch
    omegas, paths, cap = np.array([1.0, 3.0]), 5000, 40
    scored, score = [], bench.batch_scores

    def counted_scores(detector, x):
        scored.append(len(x))
        return score(detector, x)

    monkeypatch.setattr(bench, "batch_scores", counted_scores)
    for law in (inf_a, post_a):
        runs = []
        for group in (bench._LOCKSTEP_PATHS, 256, 8192):
            monkeypatch.setattr(bench, "_LOCKSTEP_PATHS", group)
            scored.clear()
            runs.append(_first_crossings(law, detector, omegas, paths, cap, RngStream(921)))
            # the first step of the first group scores all of its paths
            assert max(scored) == min(group, paths)
        times, crossed = runs[0]
        assert (crossed == omegas.size).any() and (crossed < omegas.size).any()
        for other_times, other_crossed in runs[1:]:
            assert np.array_equal(other_times, times)
            assert np.array_equal(other_crossed, crossed)


def replay_first_crossings(shard_blocks, detector, omegas, paths, cap):
    """``(times, crossed)`` from each path's scalar recursion on its own
    column of the recorded blocks: shards of 256 paths, ``shard_blocks[k]``
    the blocks of shard ``k`` in order, each laid out step-major over the
    shard's paths alive at its start."""
    times = np.full((paths, omegas.size), cap, dtype=np.int64)
    crossed = np.zeros(paths, dtype=np.int64)
    assert len(shard_blocks) == math.ceil(paths / 256)
    for start, blocks in zip(range(0, paths, 256), shard_blocks):
        blocks = iter(blocks)
        alive = list(range(start, min(start + 256, paths)))
        stat = dict.fromkeys(alive, 0.0)
        n = 0
        while alive and n < cap:
            block = next(blocks)
            steps = len(block) // len(alive)
            assert steps * len(alive) == len(block)
            # rows score alike in any batch, so one call covers the block
            z = batch_scores(detector, block).reshape(steps, len(alive))
            for j, i in enumerate(alive):
                for t in range(steps):
                    if crossed[i] == omegas.size:
                        break
                    stat[i] = max(stat[i] + float(z[t, j]), 0.0)
                    while crossed[i] < omegas.size and stat[i] >= omegas[crossed[i]]:
                        times[i, crossed[i]] = n + t + 1
                        crossed[i] += 1
            n += steps
            alive = [i for i in alive if crossed[i] < omegas.size]
        assert next(blocks, None) is None  # every block the shard drew was replayed
    return times, crossed


def test_first_crossings_match_a_per_path_replay(monkeypatch, detector, inf_a, post_a):
    omegas, paths, cap = np.array([0.5, 1.0, 2.0, 3.0]), 600, 300
    all_retired = []
    for mean in (inf_a.mean, post_a.mean):
        law, blocks = Gaussian(mean, inf_a.cov), {}
        sample = law.sample

        def recorded(n, gen):
            out = sample(n, gen)
            blocks.setdefault(gen, []).append(out.copy())  # by shard, in order
            return out

        monkeypatch.setattr(law, "sample", recorded)
        times, crossed = _first_crossings(law, detector, omegas, paths, cap, RngStream(920))
        want_times, want_crossed = replay_first_crossings(list(blocks.values()), detector,
                                                          omegas, paths, cap)
        assert np.array_equal(times, want_times)
        assert np.array_equal(crossed, want_crossed)
        assert (crossed == omegas.size).any()
        all_retired.append(bool((crossed == omegas.size).all()))
    # pre-change paths are censored part-way along the grid; post-change
    # paths all retire, most of them inside a block
    assert all_retired == [False, True]


@pytest.mark.parametrize("paths", [256, 2])
def test_increments_along_a_path_are_uncorrelated(monkeypatch, paths):
    # Gibbs draws of one chain land side by side in a block; with fewer
    # live paths than draws per chain, consecutive steps of one path come
    # from one chain a few thinning intervals apart
    basis_inf, basis_post = make_rbm_family(RngStream(918))
    law = basis_inf[1]
    det = DetectorConfig(basis_inf[1], basis_post[0], omega=0.0, rho=1.0)
    increments, score = [], bench.batch_scores

    def recorded(detector, x):
        z = np.asarray(score(detector, x))
        increments.append(z)
        return z

    monkeypatch.setattr(bench, "batch_scores", recorded)
    cap = 300
    out, = run_lengths(law, det, [1e9], paths, cap, RngStream(919))
    assert out.censored == paths  # no path retires, so step n scores every path
    z = np.stack(increments, axis=1)
    assert z.shape == (paths, cap)
    z = z - z.mean()
    lag1 = float((z[:, :-1] * z[:, 1:]).sum() / (z * z).sum())
    assert abs(lag1) <= 3.0 / math.sqrt(paths * (cap - 1))


# ---------------------------------------------------------------------------
# CSV output


def test_sweep_csv_roundtrip(tmp_path, detector, inf_a, post_a):
    rows = sweep(detector, inf_a, post_a, 915, [0.5, 1.5], 256, 256, 200)
    out = tmp_path / "sweep.csv"
    write_sweep_csv(rows, out)
    raw = out.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 1 + len(rows)
    for line, row in zip(lines[1:], rows):
        parts = line.split(",")
        assert float(parts[0]) == row.omega
        assert float(parts[1]) == pytest.approx(row.arl, rel=1e-9)
        assert int(parts[3]) == row.arl_censored
        assert int(parts[6]) == row.edd_censored
