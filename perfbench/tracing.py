"""Spans around calls into scoredetect's public functions, and the
per-layer metrics computed from them.

The tracer replaces each public function where its callers look it up
(for example ``scoredetect.bench.batch_scores`` or a model class method)
with a wrapper that records one span: name, start, end (process CPU
time, like the stage times), the enclosing span, and up to two work
counts.  Spans stay in memory until the end of a round, when ``metrics``
reduces them and ``save`` writes them out.  A target that no longer exists
is skipped, and every metric of its span is left out of ``metrics``, so
the workload still runs and no metric reads a zero that only means the
function is gone.
"""

import contextlib
import time
from array import array

import numpy as np


def _points(x):
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _gibbs_work(args, kwargs):
    n = args[1] if len(args) > 1 else kwargs["n"]
    burn_in = kwargs.get("burn_in", args[2] if len(args) > 2 else 1000)
    thin = kwargs.get("thin", args[3] if len(args) > 3 else 10)
    chains = max(1, min(int(kwargs.get("chains", args[5] if len(args) > 5 else 64)), n))
    return burn_in + thin * -(-n // chains), n


def _langevin_work(args, kwargs):
    particles, cfg = args[1], args[2]
    return np.shape(particles)[0] * cfg.steps, 0


def _hutchinson_work(args, kwargs):
    n_probes = args[2] if len(args) > 2 else kwargs["n_probes"]
    return n_probes * _points(args[1]), 0


def _first_points(args, kwargs):
    return _points(args[1]), 0


def _sample_size(args, kwargs):
    return args[1], 0


def _one(args, kwargs):
    return 1, 0


# (module, owner attribute or None, attribute, span name, work counter)
TARGETS = (
    ("models", "Gaussian", "score", "models.gaussian.score", _first_points),
    ("models", "Gaussian", "laplacian", "models.gaussian.laplacian", _first_points),
    ("models", "Gaussian", "sample", "models.gaussian.sample", _sample_size),
    ("models", "Gbrbm", "score", "models.gbrbm.score", _first_points),
    ("models", "Gbrbm", "laplacian", "models.gbrbm.laplacian", _first_points),
    ("models", "ScoreMixture", "score", "models.score_mixture.score", _first_points),
    ("models", None, "hutchinson_laplacian", "models.hutchinson", _hutchinson_work),
    ("detectors", None, "hutchinson_laplacian", "models.hutchinson", _hutchinson_work),
    ("lfd", "BetaNetwork", "__call__", "models.beta_network", _first_points),
    ("models", None, "gibbs_gbrbm", "samplers.gibbs", _gibbs_work),
    ("models", None, "langevin_chain", "samplers.langevin", _langevin_work),
    ("lfd", None, "langevin_chain", "lfd.refresh", _langevin_work),
    ("bench", None, "batch_scores", "detectors.increment", _first_points),
    ("calibration", None, "batch_scores", "detectors.increment", _first_points),
    ("cli", None, "step", "detectors.step", _one),
    ("cli", None, "arl_edd_sweep", "bench.sweep", _one),
    ("cli", None, "estimate_drift", "bench.drift", _one),
    ("cli", None, "solve_rho_star", "calibration.solve", _one),
    ("cli", None, "train_beta_networks", "lfd.train", _one),
    ("lfd", None, "loss_and_grads", "lfd.loss_and_grads", _one),
    ("cli", None, "verify_drift_condition", "lfd.verify", _one),
    ("cli", None, "load_model", "cli.load", _one),
    ("cli", None, "load_lfd_pair", "cli.load", _one),
    ("cli", None, "write_json", "cli.write", _one),
    ("cli", None, "write_sweep_csv", "cli.write", _one),
    ("rngs", "RngStream", "generator", "rngs.generator", _one),
)

# self-time metric -> the spans it sums
SELF_TIME = {
    "models.gaussian.score_s": ("models.gaussian.score",),
    "models.gbrbm.score_s": ("models.gbrbm.score",),
    "models.score_mixture.score_s": ("models.score_mixture.score",),
    "models.gaussian.laplacian_s": ("models.gaussian.laplacian",),
    "models.gbrbm.laplacian_s": ("models.gbrbm.laplacian",),
    "models.hutchinson_s": ("models.hutchinson",),
    "models.gaussian.sample_s": ("models.gaussian.sample",),
    "models.beta_network_s": ("models.beta_network",),
    "samplers.gibbs_s": ("samplers.gibbs",),
    "samplers.langevin_s": ("samplers.langevin", "lfd.refresh"),
    "detectors.increment_s": ("detectors.increment",),
    "detectors.step_s": ("detectors.step",),
    "bench.sweep_self_s": ("bench.sweep",),
    "bench.drift_s": ("bench.drift",),
    "calibration.solve_self_s": ("calibration.solve",),
    "lfd.train_s": ("lfd.train",),
    "lfd.loss_and_grads_s": ("lfd.loss_and_grads",),
    "lfd.refresh_s": ("lfd.refresh",),
    "lfd.verify_s": ("lfd.verify",),
    "cli.detect_self_s": ("cli.detect",),
    "cli.load_s": ("cli.load",),
    "cli.write_s": ("cli.write",),
    "rngs.generator_s": ("rngs.generator",),
}
# work metric -> (the spans it sums, which work count; None counts calls)
WORK = {
    "models.gaussian.score_points": (("models.gaussian.score",), 0),
    "models.gbrbm.score_points": (("models.gbrbm.score",), 0),
    "models.score_mixture.score_points": (("models.score_mixture.score",), 0),
    "models.hutchinson_probes": (("models.hutchinson",), 0),
    "models.gaussian.sample_draws": (("models.gaussian.sample",), 0),
    "samplers.gibbs_iterations": (("samplers.gibbs",), 0),
    "samplers.gibbs_draws": (("samplers.gibbs",), 1),
    "samplers.langevin_particle_steps": (("samplers.langevin", "lfd.refresh"), 0),
    "detectors.increment_calls": (("detectors.increment",), None),
    "detectors.increment_obs": (("detectors.increment",), 0),
    "detectors.step_calls": (("detectors.step",), None),
    "lfd.sgd_steps": (("lfd.loss_and_grads",), None),
    "rngs.generators": (("rngs.generator",), None),
}


class Tracer:
    """In-memory spans of the wrapped calls."""

    def __init__(self):
        self.names = []
        self.spans = set()  # span names whose calls are all traced
        self._ids = {}
        self._stack = []
        self._restore = []
        self.clear()

    def clear(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work0 = array("d")
        self.work1 = array("d")

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name):
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.process_time())
        self.end.append(0.0)
        self.work0.append(0.0)
        self.work1.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, work=(0, 0)):
        self.end[idx] = time.process_time()
        self._stack.pop()
        self.work0[idx], self.work1[idx] = work

    @contextlib.contextmanager
    def span(self, name):
        self.spans.add(name)
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                try:
                    work = counter(args, kwargs)
                except (IndexError, KeyError, AttributeError, TypeError):
                    work = (0, 0)  # the signature changed; the cross-checks show it
                tracer._close(idx, work)

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Wrap every target that exists in ``package``'s modules.  A span
        counts as traced only if all of its targets exist: one missing
        target would make its sums cover part of the calls."""
        missing = set()
        for module_name, owner_name, attr, name, counter in TARGETS:
            owner = getattr(package, module_name, None)
            if owner is not None and owner_name is not None:
                owner = getattr(owner, owner_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            # an inherited method is skipped: wrapping it here would shadow the base
            if fn is None or (owner_name is not None and attr not in vars(owner)):
                missing.add(name)
                continue
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter))
            self.spans.add(name)
        self.spans -= missing

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def arrays(self):
        names = np.frombuffer(self.name_id, dtype=np.int32).copy() if len(self.name_id) else np.zeros(0, np.int32)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        return names, dur, parent

    def metrics(self):
        """Per-layer metrics of the spans recorded since the last ``clear``."""
        names, dur, parent = self.arrays()
        work0, work1 = np.asarray(self.work0), np.asarray(self.work1)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child

        def mask(span_names):
            ids = [self._ids[n] for n in span_names if n in self._ids]
            return np.isin(names, ids)

        def traced(span_names):
            return self.spans.issuperset(span_names)

        out = {}
        for metric, span_names in SELF_TIME.items():
            if traced(span_names):
                out[metric] = float(self_time[mask(span_names)].sum())
        for metric, (span_names, which) in WORK.items():
            if traced(span_names):
                m = mask(span_names)
                out[metric] = int(m.sum()) if which is None else int((work0, work1)[which][m].sum())
        if traced(("detectors.step",)):
            steps = dur[mask(("detectors.step",))] * 1e6
            out["detectors.step_p50_us"] = float(np.percentile(steps, 50)) if steps.size else 0.0
            out["detectors.step_p99_us"] = float(np.percentile(steps, 99)) if steps.size else 0.0
        if traced(("detectors.increment", "bench.sweep")):
            in_sweep = mask(("detectors.increment",)) & has_parent
            in_sweep[in_sweep] = mask(("bench.sweep",))[parent[in_sweep]]
            out["bench.path_steps"] = int(work0[in_sweep].sum())
            out["bench.shard_steps"] = int(in_sweep.sum())
        return out

    def save(self, path):
        names, dur, parent = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=names, parent=parent,
                 start=np.asarray(self.start), duration=dur,
                 work0=np.asarray(self.work0), work1=np.asarray(self.work1))
