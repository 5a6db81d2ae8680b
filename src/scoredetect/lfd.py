"""Least-favorable pair identification over uncertainty classes.

Two routes produce a ``(q_inf, q_post)`` pair minimizing the Fisher
divergence between the pre- and post-change classes:

* **Analytic** (:func:`gaussian_polytope_lfd`): Gaussian families whose
  means range over polytopes with a shared covariance ``V``.  The pair is
  the nearest pair of hull points under the norm ``||t||_V = sqrt(t'V^-2 t)``,
  equivalently the Euclidean nearest points of the ``V^-1``-transformed
  hulls.  Their difference is the min-norm point of the difference
  polytope ``conv{V^-1 (a_i - b_j)}``, found for any vertex count by one
  exact active-set solve (Lawson-Hanson NNLS), so optima at vertices are
  returned bit-exactly.

* **Learned** (:func:`train_beta_networks`): finite bases of arbitrary
  score models.  Two small softmax networks map a point to simplex weights
  over each basis; both are trained jointly by SGD on the mean squared
  difference of the weighted score fields over a particle population that
  tracks the current post-change mixture through Langevin refreshes.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .models import Gaussian, ModelError, ScoreMixture, fisher_gaussian
from .rngs import RngStream, as_generator
from .samplers import LangevinConfig, langevin_chain

__all__ = [
    "MeanPolytope",
    "LfdPair",
    "BetaNetwork",
    "TrainConfig",
    "TrainReport",
    "DriftConditionReport",
    "DisjointnessError",
    "TrainingDivergedError",
    "gaussian_polytope_lfd",
    "verify_drift_condition",
    "train_beta_networks",
]

_DISJOINT_TOL = 1e-10    # hulls closer than this, relative to their largest V^-1 vertex, overlap
_CLIP_NORM = 10.0        # SGD gradient-norm clip, per network and step


class DisjointnessError(ValueError):
    """The two mean polytopes intersect, so no least-favorable pair exists."""


class TrainingDivergedError(RuntimeError):
    """Training loss or a Langevin refresh of the particles became non-finite."""


@dataclass(frozen=True)
class MeanPolytope:
    """Convex hull of mean vectors with a shared covariance."""

    vertices: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        verts = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        cov = np.asarray(self.cov, dtype=float)
        Gaussian(verts[0], cov)  # validates dimension match and positive definiteness
        if not np.isfinite(verts).all():
            raise ModelError("non-finite polytope vertices")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]


@dataclass(frozen=True)
class LfdPair:
    """Least-favorable pre/post model pair with its Fisher gap."""

    q_inf: object
    q_post: object
    fisher_gap: float
    provenance: str
    fisher_gap_stderr: float = 0.0
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.provenance not in ("analytic", "learned"):
            raise ModelError("provenance must be 'analytic' or 'learned'")
        if not self.fisher_gap > 0:
            raise ModelError("fisher_gap must be positive (classes must be separated)")


def _min_norm_weights(points: np.ndarray) -> np.ndarray:
    """Simplex weights ``lam`` that put ``lam @ points`` at the point of the
    convex hull of ``points`` (rows) nearest the origin.

    Lawson-Hanson NNLS on ``[points'; 1] mu ~ (0, 1)``: for ``mu = t lam``
    the squared residual ``t^2 r^2 + (t - 1)^2``, ``r = |lam @ points|``, has
    minimum ``r^2 / (1 + r^2)`` over ``t``, so ``lam = mu / sum(mu)`` is the
    exact min-norm weighting.  Columns enter one at a time, most violated
    first (ties to the lowest index), so an optimum at a lone vertex keeps
    the exact weight 1.
    """
    k, d = points.shape
    # the weights are scale-free; unit scale keeps the dual vector O(1)
    scale = float(np.max(np.linalg.norm(points, axis=1))) or 1.0
    mat = np.vstack([points.T / scale, np.ones(k)])
    rhs = np.eye(d + 1)[d]
    tol = 64.0 * np.finfo(float).eps  # a weight this small is rounding, and is dropped
    mu = np.zeros(k)
    active = np.zeros(k, dtype=bool)
    for _ in range(3 * k):  # Lawson and Hanson's iteration bound
        dual = np.where(active, -np.inf, mat.T @ (rhs - mat @ mu))
        j = int(np.argmax(dual))
        # an entering weight is at least half its dual (columns have |c|^2 <= 2),
        # so a column admitted above 4 tol is never dropped on entry
        if dual[j] <= 4.0 * tol:
            return mu / mu.sum()
        active[j] = True
        while True:
            z = np.zeros(k)
            z[active] = np.linalg.lstsq(mat[:, active], rhs, rcond=None)[0]
            z = np.where(z > tol, z, np.minimum(z, 0.0))
            if z[active].min() > 0.0:
                break
            # move toward z until the first active weight reaches zero; drop it
            ratio = np.divide(mu, mu - z, out=np.full(k, np.inf), where=active & (z <= 0.0))
            drop = int(np.argmin(ratio))
            mu = np.maximum(mu + ratio[drop] * (z - mu), 0.0)
            mu[drop] = 0.0
            active &= mu > 0.0
        mu = z
    raise RuntimeError("nearest-pair solve did not converge")


def gaussian_polytope_lfd(family_inf: MeanPolytope, family_post: MeanPolytope) -> LfdPair:
    """Least-favorable Gaussian pair for two mean polytopes sharing ``V``.

    The minimizing means are the nearest points of the two hulls under the
    ``V``-norm, read off the exact min-norm point of the difference polytope
    ``conv{V^-1 (a_i - b_j)}`` for any vertex count; when they land on
    vertices the vertex coordinates are returned exactly.  Raises
    :class:`DisjointnessError` when the hulls (effectively) intersect.  The
    min-norm difference is unique but the pair need not be, so the solve is
    repeated on seeded permutations of the differences and a note is
    attached when one reaches other means.
    """
    if family_inf.dim != family_post.dim:
        raise ModelError("polytopes must share a dimension")
    if np.abs(family_inf.cov - family_post.cov).max() > 1e-10:
        raise ModelError("polytopes must share a covariance")
    cov = family_inf.cov
    vinv = Gaussian(np.zeros(family_inf.dim), cov).cov_inv
    va, vb = family_inf.vertices, family_post.vertices
    ia, ib = np.divmod(np.arange(len(va) * len(vb)), len(vb))
    pairs = np.hstack([va[ia], vb[ib]])  # the vertex pair behind each difference
    diffs = (va[ia] - vb[ib]) @ vinv  # vinv is symmetric
    lam = _min_norm_weights(diffs)
    dist = float(np.linalg.norm(lam @ diffs))
    # the rounding error of a difference grows with the vertices it is made from
    scale = float(np.linalg.norm(np.vstack([va, vb]) @ vinv, axis=1).max())
    if dist <= _DISJOINT_TOL * scale:
        raise DisjointnessError(
            f"mean polytopes are not disjoint: distance {dist:.3e} is at most"
            f" {_DISJOINT_TOL:.0e} times the largest V^-1 vertex norm {scale:.3e}"
        )
    means = lam @ pairs
    gen = np.random.default_rng(np.random.SeedSequence(20_08_14))
    restarts = (gen.permutation(lam.size) for _ in range(4))
    unique = all(np.abs(_min_norm_weights(diffs[p]) @ pairs[p] - means).max() <= 1e-6
                 for p in restarts)
    notes = () if unique else ("least-favorable pair is not unique: restarts reached a"
                               " different minimizer of equal Fisher gap",)
    q_inf, q_post = (Gaussian(m, cov) for m in np.split(means, 2))
    gap = fisher_gaussian(q_post, q_inf)
    return LfdPair(q_inf, q_post, gap, "analytic", notes=notes)


# ---------------------------------------------------------------------------
# drift-condition verification


@dataclass(frozen=True)
class DriftConditionRow:
    index: int
    fisher_inf: float
    fisher_inf_stderr: float
    fisher_post: float
    fisher_post_stderr: float
    gap: float
    gap_stderr: float
    verdict: str


@dataclass(frozen=True)
class DriftConditionReport:
    rows: tuple[DriftConditionRow, ...]

    @property
    def verdict(self) -> str:
        verdicts = {r.verdict for r in self.rows}
        if verdicts == {"PASS"}:
            return "PASS"
        if "FAIL" in verdicts:
            return "FAIL"
        return "INCONCLUSIVE"


def verify_drift_condition(basis_inf, q_inf, q_post, n: int, rng) -> DriftConditionReport:
    """Check ``D_F(P || q_inf) < D_F(P || q_post)`` for every pre-change basis
    member ``P``, which is what makes the detector's pre-change drift negative
    across the whole class.

    Both divergences are estimated from the same draws of each ``P`` so the
    reported gap standard error is that of the paired difference.  Verdicts:
    ``PASS`` when the gap is negative by more than 3 standard errors, ``FAIL``
    when it is non-negative beyond doubt, ``INCONCLUSIVE`` otherwise.
    """
    if n < 2:
        raise ValueError("need at least 2 samples per basis member")
    gen = as_generator(rng)
    rows = []
    for i, p in enumerate(basis_inf):
        draws = p.sample(n, gen)
        s_p = np.asarray(p.score(draws))
        t_inf = 0.5 * np.sum((s_p - np.asarray(q_inf.score(draws))) ** 2, axis=-1)
        t_post = 0.5 * np.sum((s_p - np.asarray(q_post.score(draws))) ** 2, axis=-1)
        gap_vals = t_inf - t_post
        gap = float(gap_vals.mean())
        gap_se = float(gap_vals.std(ddof=1) / math.sqrt(n))
        if gap < -3.0 * gap_se:
            verdict = "PASS"
        elif gap > 3.0 * gap_se or (gap_se == 0.0 and gap >= 0.0):
            verdict = "FAIL"
        else:
            verdict = "INCONCLUSIVE"
        rows.append(
            DriftConditionRow(
                index=i,
                fisher_inf=float(t_inf.mean()),
                fisher_inf_stderr=float(t_inf.std(ddof=1) / math.sqrt(n)),
                fisher_post=float(t_post.mean()),
                fisher_post_stderr=float(t_post.std(ddof=1) / math.sqrt(n)),
                gap=gap,
                gap_stderr=gap_se,
                verdict=verdict,
            )
        )
    return DriftConditionReport(tuple(rows))


# ---------------------------------------------------------------------------
# learned route: softmax weight networks over score bases


class BetaNetwork:
    """Small MLP (input -> ReLU hidden -> softmax) producing simplex weights.

    The architecture is fixed and shallow, so forward and reverse passes are
    written out directly in numpy; gradients are validated against finite
    differences in the test suite.
    """

    def __init__(self, w1, b1, w2, b2):
        self.w1 = np.asarray(w1, dtype=float)
        self.b1 = np.asarray(b1, dtype=float)
        self.w2 = np.asarray(w2, dtype=float)
        self.b2 = np.asarray(b2, dtype=float)
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ValueError("weight matrices must be 2-d")
        hidden, dim = self.w1.shape
        outputs = self.w2.shape[0]
        if self.b1.shape != (hidden,) or self.w2.shape != (outputs, hidden) \
                or self.b2.shape != (outputs,):
            raise ValueError("inconsistent layer shapes")
        self.dim = dim
        self.hidden = hidden
        self.outputs = outputs

    @classmethod
    def initialize(cls, dim: int, outputs: int, rng, hidden: int = 5) -> "BetaNetwork":
        gen = as_generator(rng)
        w1 = gen.standard_normal((hidden, dim)) / math.sqrt(dim)
        b1 = np.zeros(hidden)
        # small head weights start the output near the uniform simplex point
        w2 = 0.1 * gen.standard_normal((outputs, hidden)) / math.sqrt(hidden)
        b2 = np.zeros(outputs)
        return cls(w1, b1, w2, b2)

    def _forward_full(self, x: np.ndarray):
        pre = x @ self.w1.T + self.b1
        hid = np.maximum(pre, 0.0)
        logits = hid @ self.w2.T + self.b2
        logits = logits - logits.max(axis=-1, keepdims=True)
        expl = np.exp(logits)
        beta = expl / expl.sum(axis=-1, keepdims=True)
        return beta, hid, pre

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1, x.shape[-1])
        beta, _, _ = self._forward_full(flat)
        return beta.reshape(x.shape[:-1] + (self.outputs,))

    def weights_and_jacobian(self, x):
        """``beta(x)`` ``(..., m)`` and ``d beta / dx`` ``(..., m, d)`` from one
        forward pass: the softmax Jacobian ``diag(beta) - beta beta'`` times
        the logits' Jacobian ``W2 diag(relu'(pre)) W1``."""
        x = np.asarray(x, dtype=float)
        beta, _, pre = self._forward_full(x.reshape(-1, x.shape[-1]))
        dlogits = self.w2 @ ((pre > 0)[:, :, None] * self.w1)
        jac = beta[:, :, None] * (dlogits - np.einsum("nm,nmd->nd", beta, dlogits)[:, None])
        lead = x.shape[:-1] + (self.outputs,)
        return beta.reshape(lead), jac.reshape(lead + (self.dim,))

    def get_params(self) -> np.ndarray:
        return np.concatenate(
            [self.w1.ravel(), self.b1, self.w2.ravel(), self.b2]
        )

    def set_params(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=float)
        sizes = [self.w1.size, self.b1.size, self.w2.size, self.b2.size]
        if vec.shape != (sum(sizes),):
            raise ValueError("parameter vector has the wrong length")
        parts = np.split(vec, np.cumsum(sizes)[:-1])
        self.w1 = parts[0].reshape(self.w1.shape)
        self.b1 = parts[1].copy()
        self.w2 = parts[2].reshape(self.w2.shape)
        self.b2 = parts[3].copy()

    def to_dict(self) -> dict:
        return {
            "kind": "beta_network",
            "dim": self.dim,
            "hidden": self.hidden,
            "outputs": self.outputs,
            "w1": self.w1.tolist(),
            "b1": self.b1.tolist(),
            "w2": self.w2.tolist(),
            "b2": self.b2.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BetaNetwork":
        if d.get("kind") != "beta_network":
            raise ModelError("not a serialized weight network")
        try:
            net = cls(d["w1"], d["b1"], d["w2"], d["b2"])
        except (TypeError, ValueError) as exc:
            raise ModelError(f"beta: {exc}") from None
        if (net.dim, net.hidden, net.outputs) != (d["dim"], d["hidden"], d["outputs"]):
            raise ModelError("serialized layer shapes are inconsistent")
        return net


def loss_and_grads(net_inf: BetaNetwork, net_post: BetaNetwork, x, s_inf, s_post):
    """Batch loss ``mean(0.5 ||sum_j beta_post_j s_post_j - sum_k beta_inf_k s_inf_k||^2)``
    and its parameter gradients for both networks (reverse mode by hand).

    ``s_inf``/``s_post`` are precomputed basis scores of shape ``(B, m, d)``.
    The 0.5 makes the loss an estimate of the Fisher divergence between the
    two weighted fields under the particle law.
    """
    x = np.asarray(x, dtype=float)
    batch = x.shape[0]
    beta_i, hid_i, pre_i = net_inf._forward_full(x)
    beta_p, hid_p, pre_p = net_post._forward_full(x)
    delta = np.einsum("bm,bmd->bd", beta_p, s_post) - np.einsum(
        "bm,bmd->bd", beta_i, s_inf
    )
    loss = 0.5 * float(np.sum(delta * delta)) / batch
    ddelta = delta / batch
    grads = {}
    for tag, net, beta, hid, pre, scores, sign in (
        ("inf", net_inf, beta_i, hid_i, pre_i, s_inf, -1.0),
        ("post", net_post, beta_p, hid_p, pre_p, s_post, 1.0),
    ):
        g = sign * np.einsum("bd,bmd->bm", ddelta, scores)
        dlogits = beta * (g - np.sum(g * beta, axis=-1, keepdims=True))
        dw2 = dlogits.T @ hid
        db2 = dlogits.sum(axis=0)
        dhid = dlogits @ net.w2
        dpre = dhid * (pre > 0)
        dw1 = dpre.T @ x
        db1 = dpre.sum(axis=0)
        grads[tag] = (dw1, db1, dw2, db2)
    return loss, grads["inf"], grads["post"]


def _sgd_step(net: BetaNetwork, grads, lr: float) -> None:
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    scale = lr * min(1.0, _CLIP_NORM / total) if total > 0 else lr
    net.w1 -= scale * grads[0]
    net.b1 -= scale * grads[1]
    net.w2 -= scale * grads[2]
    net.b2 -= scale * grads[3]


@dataclass(frozen=True)
class TrainConfig:
    """Settings for the learned least-favorable-pair search."""

    rng: RngStream
    epochs: int = 50
    learning_rate: float = 1e-3
    langevin: LangevinConfig = field(default_factory=LangevinConfig)
    particle_count: int = 10000
    minibatch: int = 256
    init_basis: int = 0
    hidden: int = 5
    holdout: int = 1000

    def __post_init__(self):
        if not isinstance(self.rng, RngStream):
            raise TypeError("TrainConfig.rng must be an RngStream")
        if self.epochs < 1 or self.particle_count < 2 or self.minibatch < 1:
            raise ValueError("epochs >= 1, particle_count >= 2, minibatch >= 1 required")
        if self.learning_rate <= 0 or self.holdout < 2:
            raise ValueError("learning_rate > 0 and holdout >= 2 required")


@dataclass(frozen=True)
class TrainReport:
    avg_beta_inf: np.ndarray
    avg_beta_post: np.ndarray
    loss_history: tuple[float, ...]
    holdout_count: int


def _basis_scores(basis, x):
    return np.stack([np.asarray(b.score(x)) for b in basis], axis=1)


def _refresh(mixture, particles, cfg: TrainConfig, gen):
    """``langevin_chain`` under the current mixture; a particle that leaves
    the finite range means training diverged."""
    try:
        return langevin_chain(mixture, particles, cfg.langevin, gen)
    except ValueError as exc:
        raise TrainingDivergedError(f"training diverged: {exc}") from None


def train_beta_networks(basis_inf, basis_post, cfg: TrainConfig):
    """Jointly train the two weight networks and return the learned pair.

    Each epoch runs one pass of minibatch SGD (gradient norms clipped) on the
    score-difference loss, then refreshes the particle population with
    ``cfg.langevin`` steps of Langevin dynamics under the *current*
    post-change mixture, so the loss keeps estimating the Fisher divergence
    under a law close to the evolving ``q_post``.

    Returns ``(LfdPair, TrainReport)``; the report carries average weights
    over a held-out particle set and the per-epoch loss history.
    """
    basis_inf = tuple(basis_inf)
    basis_post = tuple(basis_post)
    if not basis_inf or not basis_post:
        raise ModelError("both bases must be non-empty")
    dims = {b.dim for b in basis_inf} | {b.dim for b in basis_post}
    if len(dims) != 1:
        raise ModelError("all basis members must share a dimension")
    dim = dims.pop()
    if not 0 <= cfg.init_basis < len(basis_post):
        raise ValueError("init_basis out of range for the post-change basis")

    gen_particles = cfg.rng.substream(0).generator()
    gen_nets = cfg.rng.substream(1).generator()
    gen_epochs = cfg.rng.substream(2).generator()
    gen_langevin = cfg.rng.substream(3).generator()
    gen_holdout = cfg.rng.substream(4).generator()

    net_inf = BetaNetwork.initialize(dim, len(basis_inf), gen_nets, hidden=cfg.hidden)
    net_post = BetaNetwork.initialize(dim, len(basis_post), gen_nets, hidden=cfg.hidden)
    mixture_post = ScoreMixture(basis_post, net_post)  # live view of net_post

    init = basis_post[cfg.init_basis]
    particles = np.asarray(init.sample(cfg.particle_count, gen_particles), dtype=float)

    history = []
    for _ in range(cfg.epochs):
        perm = gen_epochs.permutation(cfg.particle_count)
        epoch_loss = 0.0
        for start in range(0, cfg.particle_count, cfg.minibatch):
            idx = perm[start:start + cfg.minibatch]
            xb = particles[idx]
            loss, g_inf, g_post = loss_and_grads(
                net_inf, net_post, xb, _basis_scores(basis_inf, xb),
                _basis_scores(basis_post, xb),
            )
            _sgd_step(net_inf, g_inf, cfg.learning_rate)
            _sgd_step(net_post, g_post, cfg.learning_rate)
            epoch_loss += loss * len(idx)
        epoch_loss /= cfg.particle_count
        if not math.isfinite(epoch_loss):
            raise TrainingDivergedError(
                "training loss became non-finite; lower the learning rate"
            )
        history.append(epoch_loss)
        particles = _refresh(mixture_post, particles, cfg, gen_langevin)

    holdout = init.sample(cfg.holdout, gen_holdout)
    holdout = _refresh(mixture_post, holdout, cfg, gen_holdout)
    beta_inf, beta_post = net_inf(holdout), net_post(holdout)
    delta = np.einsum("bm,bmd->bd", beta_post, _basis_scores(basis_post, holdout)) \
        - np.einsum("bm,bmd->bd", beta_inf, _basis_scores(basis_inf, holdout))
    t = 0.5 * np.sum(delta * delta, axis=-1)

    pair = LfdPair(
        q_inf=ScoreMixture(basis_inf, net_inf),
        q_post=mixture_post,
        fisher_gap=float(t.mean()),
        provenance="learned",
        fisher_gap_stderr=float(t.std(ddof=1) / math.sqrt(t.size)),
    )
    report = TrainReport(
        avg_beta_inf=beta_inf.mean(axis=0),
        avg_beta_post=beta_post.mean(axis=0),
        loss_history=tuple(history),
        holdout_count=cfg.holdout,
    )
    return pair, report
