"""Command line interface.

All commands are driven by a JSON config file (``--config``) carrying a
``version`` field, a ``models`` table of named model descriptions, and one
section per subcommand; randomized commands additionally need an explicit
seed (``--seed`` or a ``seed`` entry).  Outputs are written under ``--out``
and are byte-identical for a fixed config and seed.

``detect`` reads a file or a pipe alike: the complete lines of each read
are parsed by numpy's C reader into the same doubles as ``float`` and scored
in one ``batch_scores`` call, then the recursion steps once per observation.
A block the reader rejects is parsed line by line, so the accepted syntax is
unchanged and a bad line is named.

Exit codes: 0 success (including "no alarm" and degenerate calibration),
2 input or config errors (``ConfigError``, ``ModelError`` and
``DisjointnessError``), 3 assumption violations such as a positive
pre-change drift.  Any other exception is a bug and ends in a traceback.
"""

import argparse
import codecs
import io
import json
import math
import os
import sys
from contextlib import nullcontext

import numpy as np

from .bench import arl_edd_sweep, estimate_drift, threshold_grid, write_sweep_csv
from .calibration import (CalibrationError, DriftSignError, solve_rho_star,
                          threshold_for_arl)
from .detectors import DetectorConfig, DetectorState, batch_scores, step
from .lfd import (DisjointnessError, MeanPolytope, TrainConfig, TrainingDivergedError,
                  gaussian_polytope_lfd, train_beta_networks,
                  verify_drift_condition)
from .models import Gaussian, Gbrbm, ModelError
from .rngs import RngStream
from .samplers import LangevinConfig
from .serialize import (dump_lfd_pair, dump_rho_solution, float_array,
                        load_lfd_pair, load_model, write_json)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3

# bytes per read of a detect stream, a Linux pipe's capacity; a row scores
# alike in any batch, so the block a read makes is not in the determinism contract
_READ_BYTES = 1 << 16


class ConfigError(ValueError):
    pass


def _require(mapping, key, context):
    if key not in mapping:
        raise ConfigError(f"config section '{context}' is missing '{key}'")
    return mapping[key]


def _object(value, name):
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def _array(value, name):
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a JSON array, got {type(value).__name__}")
    return value


def _number(value, name, low, kind=int, closed=False):
    """``value`` as an integer of at least ``low``, or with ``kind=float`` a finite
    number above it (at least it if ``closed``); else a ConfigError naming ``name``."""
    closed = closed or kind is int
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = float("nan")
    if isinstance(value, bool) or number != value or not (
            (low <= number if closed else low < number) and number < float("inf")):
        need = ("an integer" if kind is int else "a finite number") + (" of at least" if closed else " above")
        raise ConfigError(f"{name} must be {need} {low}, got {value!r}")
    return number


def _field(section, context, key, default, low, kind=int, closed=False):
    """``section[key]`` (or ``default``) checked by :func:`_number` as ``context.key``."""
    return _number(section.get(key, default), f"{context}.{key}", low, kind, closed)


def _path(value, name):
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{name} must be a non-empty JSON string, got {value!r}")
    return value


def _open(path, name):
    try:
        return open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {name}: {exc}") from None


def _read_json(path, name):
    with _open(path, name) as handle:
        try:
            return _object(json.load(handle), name)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{name} is not valid JSON: {exc}") from None


def _load_config(path):
    if path is None:
        raise ConfigError("--config is required")
    cfg = _read_json(path, "config")
    if cfg.get("version") != 1:
        raise ConfigError("config must declare \"version\": 1")
    return cfg


def _models_table(cfg):
    table = {}
    for name, desc in _object(cfg.get("models", {}), "models").items():
        try:
            table[name] = load_model(desc)
        except ModelError as exc:
            raise ConfigError(f"models.{name}: {exc}") from None
    return table


def _named_model(table, name, context):
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"config section '{context}' references unknown model '{name}'")
    return table[name]


def _named_models(table, section, key, context):
    names = _array(_require(section, key, context), f"{context}.{key}")
    if not names:
        raise ConfigError(f"{context}.{key} must name at least one model")
    return [_named_model(table, name, f"{context}.{key}") for name in names]


def _seed_stream(cfg, args):
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        raise ConfigError("an explicit seed is required (--seed or a 'seed' config entry)")
    return RngStream(_number(seed, "seed", 0))


def _out_dir(cfg, args):
    configured = _path(cfg.get("out", "."), "out")  # checked where --out overrides it too
    out = args.out or configured
    os.makedirs(out, exist_ok=True)
    return out


def _detector_from(table, desc, context):
    desc = _object(desc, f"{context}.detector")
    models = (_named_model(table, _require(desc, key, context), context)
              for key in ("model_inf", "model_post"))
    return DetectorConfig(*models,
                          omega=_field(desc, f"{context}.detector", "omega", 0.0, 0, float, True),
                          rho=_field(desc, f"{context}.detector", "rho", 1.0, 0, float))


def cmd_lfd(cfg, args):
    section = _object(_require(cfg, "lfd", "top level"), "lfd")
    table = _models_table(cfg)
    verify = _object(section.get("verify", {}), "lfd.verify")
    verify_n = _field(verify, "lfd.verify", "n", 50000, 2)
    method = section.get("method", "analytic")
    verify_basis = None  # an analytic pair is checked against its pre-change vertices
    if "basis_inf" in verify or (verify and method == "learned"):
        verify_basis = _named_models(table, verify, "basis_inf", "lfd.verify")
    # an analytic pair is Gaussian, so only a non-Gaussian member's drift row draws
    sampled = method == "learned" or any(not isinstance(p, Gaussian) for p in verify_basis or ())
    stream = _seed_stream(cfg, args) if sampled else None
    out = _out_dir(cfg, args)
    if method == "analytic":
        cov, pre, post = (float_array(_require(section, key, "lfd"), f"lfd.{key}")
                          for key in ("cov", "pre_vertices", "post_vertices"))
        pre, post = MeanPolytope(pre, cov), MeanPolytope(post, cov)
        pair = gaussian_polytope_lfd(pre, post)
        report = None
        if verify and verify_basis is None:
            verify_basis = [Gaussian(v, cov) for v in pre.vertices]
    elif method == "learned":
        basis_inf = _named_models(table, section, "basis_inf", "lfd")
        basis_post = _named_models(table, section, "basis_post", "lfd")
        train = section.get("train", {})
        lang = train.get("langevin", {}) if isinstance(train, dict) else None
        if not isinstance(lang, dict):
            raise ConfigError("lfd.train and lfd.train.langevin must be JSON objects")
        tc = TrainConfig(
            rng=stream.substream(0),
            epochs=_field(train, "lfd.train", "epochs", 50, 1),
            learning_rate=_field(train, "lfd.train", "learning_rate", 1e-3, 0, float),
            langevin=LangevinConfig(step=_field(lang, "lfd.train.langevin", "step", 0.01, 0, float),
                                    steps=_field(lang, "lfd.train.langevin", "steps", 1000, 0)),
            particle_count=_field(train, "lfd.train", "particles", 10000, 2),
            minibatch=_field(train, "lfd.train", "minibatch", 256, 1),
            hidden=_field(train, "lfd.train", "hidden", 5, 1),
            holdout=_field(train, "lfd.train", "holdout", 1000, 2),
            init_basis=_field(train, "lfd.train", "init_basis", 0, 0),
        )
        if tc.init_basis >= len(basis_post):
            raise ConfigError(f"lfd.train.init_basis must be below len(lfd.basis_post) = {len(basis_post)}")
        pair, report = train_beta_networks(basis_inf, basis_post, tc)
    else:
        raise ConfigError("lfd.method must be 'analytic' or 'learned'")
    write_json(dump_lfd_pair(pair), os.path.join(out, "lfd.json"))
    print(f"provenance={pair.provenance} fisher_gap={pair.fisher_gap:.10g}")
    for note in pair.notes:
        print(f"note: {note}")
    if report is not None:
        beta_inf = " ".join(f"{b:.6g}" for b in report.avg_beta_inf)
        beta_post = " ".join(f"{b:.6g}" for b in report.avg_beta_post)
        print(f"avg_beta_inf=[{beta_inf}] avg_beta_post=[{beta_post}]")
        write_json(
            {
                "avg_beta_inf": list(map(float, report.avg_beta_inf)),
                "avg_beta_post": list(map(float, report.avg_beta_post)),
                "loss_history": list(report.loss_history),
                "holdout_count": report.holdout_count,
            },
            os.path.join(out, "lfd_report.json"),
        )
    if verify:
        rep = verify_drift_condition(verify_basis, pair.q_inf, pair.q_post, verify_n,
                                     stream and stream.substream(9).generator())
        for row in rep.rows:
            print(
                f"vertex {row.index}: gap={row.gap:.6g} (stderr {row.gap_stderr:.2g})"
                f" verdict={row.verdict}"
            )
        print(f"drift_condition={rep.verdict}")
    return EXIT_OK


def cmd_calibrate(cfg, args):
    section = _object(_require(cfg, "calibrate", "top level"), "calibrate")
    table = _models_table(cfg)
    out = _out_dir(cfg, args)
    stream = _seed_stream(cfg, args)
    p_inf = _named_model(table, _require(section, "p_inf", "calibrate"), "calibrate")
    if "pair_file" in section:
        pair_file = _path(section["pair_file"], "calibrate.pair_file")
        try:
            pair = load_lfd_pair(_read_json(pair_file, "calibrate.pair_file"))
        except KeyError as exc:
            raise ConfigError(f"calibrate.pair_file is missing {exc}") from None
        except ModelError as exc:
            raise ConfigError(f"calibrate.pair_file: {exc}") from None
        q_inf, q_post = pair.q_inf, pair.q_post
    else:
        names = _object(_require(section, "pair", "calibrate"), "calibrate.pair")
        q_inf, q_post = (
            _named_model(table, _require(names, key, "calibrate.pair"), "calibrate.pair")
            for key in ("q_inf", "q_post"))
    gammas = [_number(g, f"calibrate.gammas[{i}]", 1, float, True)
              for i, g in enumerate(_array(section.get("gammas", []), "calibrate.gammas"))]
    method = section.get("method", "monte_carlo")
    if method not in ("monte_carlo", "closed_form", "auto"):
        raise ConfigError("calibrate.method must be 'monte_carlo', 'closed_form' or 'auto',"
                          f" got {method!r}")
    sol = solve_rho_star(p_inf, q_inf, q_post, _field(section, "calibrate", "n", 200000, 2),
                         stream.substream(1).generator(), method=method)
    thresholds = [{"gamma": g, "omega": threshold_for_arl(g)} for g in gammas]
    payload = dump_rho_solution(sol)
    payload["thresholds"] = thresholds
    write_json(payload, os.path.join(out, "calibration.json"))
    stderr = "none" if sol.rho_star_stderr is None else f"{sol.rho_star_stderr:.3g}"
    print(f"rho_star={sol.rho_star:.10g} method={sol.method} degenerate={sol.degenerate}"
          f" rho_star_stderr={stderr}")
    for row in thresholds:
        print(f"gamma={row['gamma']:.10g} omega={row['omega']:.10g}")
    return EXIT_OK


def _bench_trial(table, trial, i):
    """A bench trial's models, sizes and thresholds, checked before any trial runs."""
    name = _require(_object(trial, f"bench.trials[{i}]"), "name", "bench.trials")
    detector = _detector_from(table, _require(trial, "detector", name), name)
    laws = [_named_model(table, _require(trial, key, name), name) for key in ("p_inf", "p_post")]
    sizes = {key: _field(trial, f"bench.trials[{i}]", key, default, 2 if key == "drift_n" else 1)
             for key, default in (("drift_n", 50000), ("arl_paths", 2000), ("edd_paths", 5000),
                                  ("cap", 100000))}
    omegas = _array(trial.get("omegas", []), f"bench.trials[{i}].omegas")
    try:  # a trial without thresholds reports its drifts only
        omegas = threshold_grid(omegas) if omegas else None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bench.trials[{i}].omegas: {exc}") from None
    return name, detector, *laws, sizes, omegas


def cmd_bench(cfg, args):
    section = _object(_require(cfg, "bench", "top level"), "bench")
    table = _models_table(cfg)
    trials = [_bench_trial(table, trial, i)
              for i, trial in enumerate(_array(_require(section, "trials", "bench"), "bench.trials"))]
    out = _out_dir(cfg, args)
    stream = _seed_stream(cfg, args)
    drift_lines = ["trial,pre_drift,pre_stderr,post_drift,post_stderr"]
    for i, (name, detector, p_inf, p_post, sizes, omegas) in enumerate(trials):
        tstream = stream.substream(2, i)
        pre = estimate_drift(p_inf, detector, sizes["drift_n"], tstream.substream(0))
        post = estimate_drift(p_post, detector, sizes["drift_n"], tstream.substream(1))
        drift_lines.append(
            f"{name},{pre[0]:.10g},{pre[1]:.10g},{post[0]:.10g},{post[1]:.10g}"
        )
        print(
            f"{name}: pre_drift={pre[0]:.6g} (stderr {pre[1]:.2g})"
            f" post_drift={post[0]:.6g} (stderr {post[1]:.2g})"
        )
        if omegas is not None:
            rows = arl_edd_sweep(
                p_inf, p_post, detector, omegas,
                arl_paths=sizes["arl_paths"], edd_paths=sizes["edd_paths"],
                cap=sizes["cap"], rng=tstream.substream(2),
            )
            path = os.path.join(out, f"{name}_sweep.csv")
            write_sweep_csv(rows, path)
            print(f"{name}: wrote {len(rows)} sweep rows to {path}")
    with open(os.path.join(out, "drifts.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(drift_lines) + "\n")
    return EXIT_OK


def _parse_line(lineno, line, dim):
    """The coordinates on ``line`` (line ``lineno`` of the stream), split at
    commas and whitespace and read by ``float``, or a ConfigError saying why
    they are not one finite observation of dimension ``dim``."""
    try:
        line.encode()  # a surrogate stands for a byte that is not UTF-8
        row = [float(tok) for tok in line.replace(",", " ").split()]
    except UnicodeEncodeError:
        raise ConfigError(f"line {lineno}: not UTF-8 text") from None
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse observation vector") from None
    if len(row) != dim:
        raise ConfigError(f"line {lineno}: expected dimension {dim}, got {len(row)}")
    if not all(map(math.isfinite, row)):
        raise ConfigError(f"line {lineno}: non-finite observation")
    return row


def _parse_block(block, dim):
    """A read's ``(line number, line)`` pairs as one ``(k, dim)`` array.

    numpy's C reader splits at the same whitespace as ``str.split`` and
    converts as ``float`` does, correctly rounded; it rejects the tokens only
    ``float`` reads (``1_0``, non-ASCII digits).  A block it rejects, of the
    wrong width or with a non-finite value goes through :func:`_parse_line`:
    the rows before the first bad line, then that line's error."""
    if not block:
        return
    try:
        xs = np.loadtxt([line.replace(",", " ") for _, line in block], comments=None, ndmin=2)
    except ValueError:
        xs = None
    if xs is not None and xs.shape == (len(block), dim) and np.isfinite(xs).all():
        yield xs
        return
    rows = []
    for lineno, line in block:
        try:
            rows.append(_parse_line(lineno, line, dim))
        except ConfigError:
            if rows:
                yield np.array(rows)
            raise
    yield np.array(rows)


def _observation_blocks(stream, dim):
    """``(k, dim)`` arrays of the observations on the complete lines of each
    ``read1`` from the binary ``stream``.  A pipe or terminal yields what its
    writer has sent, so a live alarm never waits for more input.  Lines split
    at ``\\n``, ``\\r\\n`` or ``\\r``, as in a text-mode file, and are numbered
    with the blank ones; bytes that are not UTF-8 become surrogates, which
    :func:`_parse_line` names.  A bad line raises a ConfigError once the rows
    before it have been consumed."""
    decoder = io.IncrementalNewlineDecoder(
        codecs.getincrementaldecoder("utf-8")("surrogateescape"), translate=True)
    lineno, tail, final = 0, "", False
    while not final:
        data = stream.read1(_READ_BYTES)
        final = not data
        lines = (tail + decoder.decode(data, final)).split("\n")
        tail = "" if final else lines.pop()  # a partial line waits for the next read
        block = [(lineno + i, line) for i, line in enumerate(lines, start=1) if line.strip()]
        lineno += len(lines)
        yield from _parse_block(block, dim)


def cmd_detect(cfg, args):
    section = _object(_require(cfg, "detect", "top level"), "detect")
    table = _models_table(cfg)
    detector = _detector_from(table, _require(section, "detector", "detect"), "detect")
    cap = _field(section, "detect", "cap", 10**9, 1)
    state = DetectorState()
    with _open(args.input, "detect --input") if args.input else nullcontext(sys.stdin) as handle:
        for xs in _observation_blocks(handle.buffer, detector.model_inf.dim):
            for inc in batch_scores(detector, xs[:cap - state.n]).tolist():
                if step(state, inc, detector.omega).stopped_at is not None:
                    break
            if state.stopped_at is not None or state.n >= cap:
                break
    if state.stopped_at is not None:
        print(f"stopped_at={state.stopped_at} statistic={state.statistic:.10g}")
    else:
        print(f"stopped_at=none steps={state.n} statistic={state.statistic:.10g}")
    return EXIT_OK


def cmd_sample(cfg, args):
    section = _object(_require(cfg, "sample", "top level"), "sample")
    table = _models_table(cfg)
    model = _named_model(table, _require(section, "model", "sample"), "sample")
    n = _field(section, "sample", "n", _require(section, "n", "sample"), 1)
    kwargs = {key: _field(section, "sample", key, None, 0 if key == "burn_in" else 1)
              for key in ("burn_in", "thin") if key in section}
    if kwargs and not isinstance(model, Gbrbm):  # Gibbs options of a gbrbm only
        raise ConfigError(f"sample.{min(kwargs)} applies only to a gbrbm model")
    out = _out_dir(cfg, args)
    stream = _seed_stream(cfg, args)
    draws = model.sample(n, stream.substream(3).generator(), **kwargs)
    path = os.path.join(out, "samples.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in np.atleast_2d(draws):
            fh.write(",".join(f"{v:.10g}" for v in row) + "\n")
    print(f"wrote {n} samples to {path}")
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="scoredetect",
        description="Score-based quickest change detection for unnormalized models",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--out", help="output directory (default: config 'out' or '.')")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("lfd", help="identify the least-favorable model pair")
    sub.add_parser("calibrate", help="solve for rho* and ARL thresholds")
    sub.add_parser("bench", help="run drift/ARL/EDD benchmarks")
    detect = sub.add_parser("detect", help="run the detector over a stream")
    detect.add_argument("--input", help="observation file (default: stdin)")
    sub.add_parser("sample", help="draw samples from a configured model")
    return parser


_COMMANDS = {
    "lfd": cmd_lfd,
    "calibrate": cmd_calibrate,
    "bench": cmd_bench,
    "detect": cmd_detect,
    "sample": cmd_sample,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, ModelError, DisjointnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DriftSignError, CalibrationError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
