"""Per-ray RGB-D likelihood terms and the component-overlap penalty.

A supervised ray carries an observed depth t and color C.  The negative log
depth density splits into a surface term -log sigma(r(t')) at a jittered
surface point t' = t + eps, plus the optical depth up to t estimated from
free-space samples; the free-space estimate comes either from a uniform
proposal on (0, t) or from a proposal that spends half its samples on the
last 2% of the ray, which has far lower variance when density concentrates
near the surface.  Color is scored under an isotropic Gaussian at the same
jittered point, and overlapping components pay the amount of density not
explained by the dominant one.

The batched core, ``_loss_eval``, serves total_loss and the fitter's
gradient on one ``RgbdBatch`` of supervised rays.  It evaluates each
component once at all surface and free-space points, held as channel-major
rows, and keeps densities as rows (n, N) and colors as rows (3, B).  The
gradient is a vector-Jacobian product that forms no Jacobian: per-point
weights (rows (n, N), zero where the cap binds) meet each kind's density
rows, and the color error lands in its palette's slots, the palettes of all
components clipped in one call.  All these slots and each component's
first palette row come from the scene's layout (``fields._scene_layout``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compose import CompositeScene, _mix, _total
from .fields import LOG_DENSITY_FLOOR, _check_points, _scene_layout, _sum3
from .geometry import _UNIT_TOL, Ray, _check_integer, _real

__all__ = [
    "T_MIN_PROPOSAL",
    "IMPORTANCE_SPLIT",
    "RgbdSample",
    "RgbdBatch",
    "LossConfig",
    "depth_nll_uniform",
    "depth_nll_importance",
    "depth_nll_draws",
    "color_nll",
    "overlap_loss",
    "k_o_schedule",
    "total_loss",
]

# Free-space proposals never land below this depth.
T_MIN_PROPOSAL = 1e-4

# The importance proposal splits each ray at this fraction of the observed
# depth: half the samples cover [0, split*t), half the final stretch.
IMPORTANCE_SPLIT = 0.98


@dataclass(frozen=True)
class RgbdSample:
    """One supervised ray with its observed surface depth and color."""

    ray: Ray
    color: np.ndarray
    depth: float

    def __post_init__(self):
        object.__setattr__(self, "color", _real(self.color, "observed color", (3,)))
        object.__setattr__(self, "depth", _real(self.depth, "observed depth"))
        if not 0.0 < self.depth < self.ray.t_far:
            raise ValueError("observed depth must lie strictly inside (0, t_far)")


@dataclass(frozen=True)
class LossConfig:
    """Loss hyperparameters: color noise scale, surface jitter width, and the
    overlap-penalty ramp."""

    sigma_c: float = 0.2
    delta: float = 0.07
    k_o_max: float = 0.05
    ramp_start: int = 50_000
    ramp_end: int = 100_000
    n_free_samples: int = 1

    def __post_init__(self):
        for name in ("sigma_c", "delta", "k_o_max"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        for name, minimum in (("ramp_start", 0), ("ramp_end", 0), ("n_free_samples", 1)):
            _check_integer(getattr(self, name), name, minimum)
        if self.sigma_c <= 0:
            raise ValueError("sigma_c must be positive")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.k_o_max < 0:
            raise ValueError("k_o_max must be non-negative")
        if self.ramp_start > self.ramp_end:
            raise ValueError("ramp_start must not exceed ramp_end")


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _draw_jitter(rng, n: int, delta: float) -> np.ndarray:
    return rng.random(n) * delta


def _draw_free_uniform(rng, t_obs: np.ndarray, n_free: int):
    """Positions (D, F) under the uniform proposal on (0, t); density is
    implicit (the estimator multiplies the mean density by t)."""
    u = rng.random((t_obs.shape[0], n_free))
    pos = u * t_obs[:, None]
    return np.maximum(pos, np.minimum(T_MIN_PROPOSAL, t_obs[:, None])), None


def _draw_free_importance(rng, t_obs: np.ndarray, n_free: int):
    """Positions and proposal densities (D, F) for the near-surface mixture:
    with probability 1/2 uniform on [0, split*t), else uniform on the last
    (1-split) stretch."""
    d = t_obs.shape[0]
    tail = rng.random((d, n_free)) < 0.5
    u = rng.random((d, n_free))
    t = t_obs[:, None]
    pos = np.where(tail, (IMPORTANCE_SPLIT + u * (1.0 - IMPORTANCE_SPLIT)) * t, u * IMPORTANCE_SPLIT * t)
    q = np.where(tail, 0.5 / ((1.0 - IMPORTANCE_SPLIT) * t), 0.5 / (IMPORTANCE_SPLIT * t))
    return np.maximum(pos, np.minimum(T_MIN_PROPOSAL, t)), q


def _depth_nll(sig_surf, sig_free, t_obs, q):
    """Depth NLL per ray: -log of the surface density (floored) plus the
    free-space optical depth estimated from the densities (D, F) at the
    proposal draws, t * mean density under the uniform proposal (``q`` None)
    or the mean of density / proposal density."""
    f = sig_free.shape[1]  # a sum over f, divided by f, is NumPy's mean without its wrapper
    inner = t_obs * (sig_free.sum(axis=1) / f) if q is None else (sig_free / q).sum(axis=1) / f
    return -np.log(np.maximum(sig_surf, LOG_DENSITY_FLOOR)) + inner


def depth_nll_draws(field, sample: RgbdSample, rng, config: LossConfig = LossConfig(),
                    n_draws: int = 1, proposal: str = "uniform") -> np.ndarray:
    """Vectorized independent single-draw estimates of the depth NLL for one
    sample (draw order: jitters, then mixture choices, then positions)."""
    rng = _as_rng(rng)
    t_obs = np.full(n_draws, sample.depth)
    eps = _draw_jitter(rng, n_draws, config.delta)
    if proposal == "uniform":
        pos, q = _draw_free_uniform(rng, t_obs, config.n_free_samples)
    elif proposal == "importance":
        pos, q = _draw_free_importance(rng, t_obs, config.n_free_samples)
    else:
        raise ValueError(f"unknown proposal {proposal!r}")
    origin, direction = sample.ray.origin, sample.ray.direction
    sig_surf = np.atleast_1d(field.density(origin + (t_obs + eps)[:, None] * direction))
    free_pts = origin + pos[:, :, None] * direction
    return _depth_nll(sig_surf, field.density(free_pts.reshape(-1, 3)).reshape(pos.shape), t_obs, q)


def depth_nll_uniform(field, sample: RgbdSample, rng, config: LossConfig = LossConfig()) -> float:
    """One-draw depth NLL estimate with the uniform free-space proposal."""
    return float(depth_nll_draws(field, sample, rng, config, 1, "uniform")[0])


def depth_nll_importance(field, sample: RgbdSample, rng, config: LossConfig = LossConfig()) -> float:
    """One-draw depth NLL estimate with the near-surface importance proposal."""
    return float(depth_nll_draws(field, sample, rng, config, 1, "importance")[0])


def _color_nll_values(err: np.ndarray, sigma_c: float) -> np.ndarray:
    """Gaussian color NLL of color errors as channel-major rows (3, ...)."""
    constant = 3.0 * (0.5 * np.log(2.0 * np.pi) + np.log(sigma_c))
    return constant + _sum3(err * err) / (2.0 * sigma_c**2)


def color_nll(field, sample: RgbdSample, rng, config: LossConfig = LossConfig()) -> float:
    """Gaussian color NLL at the jittered surface point, normalization included."""
    rng = _as_rng(rng)
    eps = _draw_jitter(rng, 1, config.delta)[0]
    point = sample.ray.origin + (sample.depth + eps) * sample.ray.direction
    _, predicted = field.evaluate(point)
    return float(_color_nll_values((predicted - sample.color)[:, None], config.sigma_c)[0])


def overlap_loss(scene: CompositeScene, point) -> float:
    """Density not explained by the dominant component at a point."""
    pts, single = _check_points(point)
    if not single:
        raise ValueError(f"point must be one point (3,), got {np.shape(point)}")
    sigmas = scene._density_components(pts)[:, 0]
    return float(sigmas.sum() - sigmas.max())


def k_o_schedule(iteration: int, config: LossConfig) -> float:
    """Overlap weight: zero before the ramp, linear to k_o_max across it."""
    if iteration <= config.ramp_start:
        return 0.0 if iteration < config.ramp_end else config.k_o_max
    if iteration >= config.ramp_end:
        return config.k_o_max
    span = config.ramp_end - config.ramp_start
    return config.k_o_max * (iteration - config.ramp_start) / span


# A direction passes the unit-length check of ``Ray`` for certain if its norm, taken for all rows
# at once, lies this far inside ``_UNIT_TOL``: ``Ray``'s ``np.linalg.norm`` may round a few ulps away.
_UNIT_MARGIN = _UNIT_TOL - 64 * np.finfo(np.float64).eps


class RgbdBatch:
    """Supervised rays as read-only channel-major rows ``packed`` (11, M) of
    origin, direction, observed depth, color and t_far, checked once, as
    arrays: rows the check cannot pass for certain (a value that is not a
    finite integer or float, a direction norm near the unit-length tolerance,
    a depth outside (0, t_far), an infinite t_far) go through the ``Ray`` and ``RgbdSample`` constructors in row order, so the
    first bad row raises their error.  ``len``, iteration and an integer index
    give ``RgbdSample``s viewing the rows; a slice or an index array gives a
    batch of those rows."""

    __slots__ = ("packed",)

    def __init__(self, origins, directions, t_fars, depths, colors):
        arrays = origins, directions, t_fars, depths, colors = [np.asarray(a) for a in
                                                                (origins, directions, t_fars, depths, colors)]
        m = t_fars.shape[0]
        sure = np.zeros(m, dtype=bool)
        if (all(a.dtype.kind in "iuf" for a in arrays)
                and origins.shape == directions.shape == colors.shape == (m, 3) and depths.shape == (m,)):
            norms = np.sqrt(np.einsum("ij,ij->i", directions, directions))
            sure = ((np.abs(norms - 1.0) <= _UNIT_MARGIN) & np.isfinite(origins).all(axis=1)
                    & np.isfinite(colors).all(axis=1) & (depths > 0.0) & (depths < t_fars) & (t_fars < np.inf))
        for i in np.flatnonzero(~sure):
            RgbdSample(Ray(origins[i], directions[i], t_fars[i]), colors[i], depths[i])
        self._set(np.vstack([origins.T, directions.T, depths, colors.T, t_fars], dtype=np.float64))

    def _set(self, packed: np.ndarray) -> "RgbdBatch":
        packed.flags.writeable = False
        self.packed = packed
        return self

    @classmethod
    def from_samples(cls, samples) -> "RgbdBatch":
        """The batch of ``RgbdSample``s, stacked as they are."""
        samples = list(samples)
        if not samples:
            return cls._join([])
        rays = [s.ray for s in samples]
        vectors = ([r.origin for r in rays], [r.direction for r in rays], [s.color for s in samples])
        o, d, c = (np.concatenate(v).reshape(-1, 3).T for v in vectors)
        return object.__new__(cls)._set(np.vstack([o, d, [s.depth for s in samples], c, [r.t_far for r in rays]]))

    @classmethod
    def _join(cls, batches) -> "RgbdBatch":
        """The rows of ``batches``, in order, as one batch."""
        return object.__new__(cls)._set(np.hstack([np.empty((11, 0))] + [b.packed for b in batches]))

    origins = property(lambda self: self.packed[0:3].T)
    directions = property(lambda self: self.packed[3:6].T)
    t_obs = property(lambda self: self.packed[6])
    colors = property(lambda self: self.packed[7:10].T)

    def __len__(self) -> int:
        return self.packed.shape[1]

    @staticmethod
    def _sample(origin, direction, t_far: float, color, depth: float) -> RgbdSample:
        """The ``RgbdSample`` of one row, built without re-running the checks the row has passed."""
        ray = object.__new__(Ray)
        ray.__dict__.update(origin=origin, direction=direction, t_far=t_far)
        sample = object.__new__(RgbdSample)
        sample.__dict__.update(ray=ray, color=color, depth=depth)
        return sample

    def __getitem__(self, index):
        rows = self.packed[:, index]
        if rows.ndim == 2:
            return object.__new__(RgbdBatch)._set(rows)
        return self._sample(rows[0:3], rows[3:6], float(rows[10]), rows[7:10], float(rows[6]))

    def __iter__(self):
        p = self.packed
        return map(self._sample, p[0:3].T, p[3:6].T, p[10].tolist(), p[7:10].T, p[6].tolist())


def _as_batch(batch) -> RgbdBatch:
    """``batch`` as a non-empty ``RgbdBatch``, stacked unless it is one."""
    batch = batch if isinstance(batch, RgbdBatch) else RgbdBatch.from_samples(batch)
    if not len(batch):
        raise ValueError("batch must be non-empty")
    return batch


def _loss_eval(scene: CompositeScene, arrays: RgbdBatch, iteration: int,
               config: LossConfig, rng, want_grads: bool):
    """Shared core for total_loss and its analytic gradient.

    Draw order is pinned (jitters, mixture choices, positions) so an integer
    seed reproduces the exact same estimate, which is what lets central
    finite differences share randomness with the analytic gradient.
    """
    rng = _as_rng(rng)
    b, f = len(arrays), config.n_free_samples
    eps = _draw_jitter(rng, b, config.delta)
    pos, q = _draw_free_importance(rng, arrays.t_obs, f)

    # Surface points, then each ray's free-space points, as channel-major rows.
    coords = np.empty((3, b * (1 + f)))
    np.add(arrays.origins.T, (arrays.t_obs + eps) * arrays.directions.T, out=coords[:, :b])
    np.add(arrays.origins.T[:, :, None], pos * arrays.directions.T[:, :, None], out=coords[:, b:].reshape(3, b, f))
    pts, _ = _check_points(coords.T)

    # One density row per component at every point; surface colors from palettes clipped at once.
    sigmas = np.empty((scene.n, pts.shape[0]))
    sources, colors = [], []
    for row, comp in zip(sigmas, scene.components):
        if want_grads:
            raw, rows, palette, index = comp._grad_sources(pts, b)
            sources.append((rows, palette, index))
            comp._cap(raw, out=row)
        else:
            colors.append(comp._density_color(pts[:b])[1])
            comp._density(pts, out=row)
    if want_grads:
        layout = _scene_layout(tuple(map(type, scene.components)))
        unclipped = np.concatenate([palette for _, palette, _ in sources])
        palette = unclipped.clip(0.0, 1.0)
        colors = [palette[r] if index is None else np.take(palette[r : r + len(p)].T, index, axis=1).T
                  for (_, p, index), r in zip(sources, layout.first_rows)]
    sig_surf = sigmas[:, :b]

    sig_tot_free = _total(sigmas[:, b:]).reshape(b, f)
    sig_tot_surf, c_pred = _mix(sig_surf, colors)
    depth_per_ray = _depth_nll(sig_tot_surf, sig_tot_free, arrays.t_obs, q)
    err = np.subtract(c_pred, arrays.colors.T, order="C")  # C order: ``err @ share`` below
    color_per_ray = _color_nll_values(err, config.sigma_c)
    overlap_per_ray = sig_tot_surf - sig_surf.max(axis=0)

    k_o = k_o_schedule(iteration, config)
    depth_mean = float(depth_per_ray.sum()) / b  # NumPy's mean, without its wrapper
    color_mean = float(color_per_ray.sum()) / b
    overlap_mean = float(overlap_per_ray.sum()) / b
    overlap_weighted = k_o * overlap_mean
    total = depth_mean + color_mean + overlap_weighted
    breakdown = {"depth_nll": depth_mean, "color_nll": color_mean, "overlap": overlap_mean,
                 "overlap_weighted": overlap_weighted, "k_o": k_o, "total": total}
    if not want_grads:
        return total, breakdown, None

    # Per component i, with d/dp acting on sigma_i and c_i only:
    #   d(depth)/dp   = -dsigma_i(surf) / sigma_total + mean_f dsigma_i(free_f) / q_f
    #   d(c_pred)/dp  = [sigma_i * dc_i + (c_i - c_pred) * dsigma_i(surf)] / sigma_total
    #   d(overlap)/dp = dsigma_i(surf) where i is not the dominant component
    # so the density part is one per-point weight row per component (stacked
    # (n, N); zero where the cap binds) contracted with its density rows, and
    # the color part lands in its palette's slots, zero for a clipped channel.
    color_live = sig_tot_surf > 0.0
    err /= config.sigma_c**2
    err *= color_live
    inv_tot = np.where(color_live, 1.0 / np.where(color_live, sig_tot_surf, 1.0), 0.0)
    d_log = np.where(sig_tot_surf > LOG_DENSITY_FLOOR, 1.0 / np.maximum(sig_tot_surf, LOG_DENSITY_FLOOR), 0.0)
    diffs = np.subtract(palette[layout.first_rows].T[:, :, None], c_pred[:, None, :])
    for i, (_, _, index) in enumerate(sources):
        if index is not None:
            np.subtract(colors[i].T, c_pred, out=diffs[:, i])
    diffs *= err[:, None]
    weights = np.empty(sigmas.shape)
    weights[:, :b] = inv_tot * _sum3(diffs) - d_log
    if k_o > 0.0:  # argmax takes the first of tied components
        weights[:, :b] += k_o * (np.argmax(sig_surf, axis=0) != np.arange(scene.n)[:, None])
    weights[:, b:] = (1.0 / (q * f)).ravel()
    weights *= sigmas < np.array([np.inf if c.sigma_max is None else c.sigma_max for c in scene.components])[:, None]
    shares = sig_surf * inv_tot
    color_grad = np.empty(unclipped.shape)  # before the clip: err @ share, or per-row sums in ray order
    for (_, p, index), r, share in zip(sources, layout.first_rows, shares):
        if index is None:
            np.matmul(err, share, out=color_grad[r])
        else:
            bins = 3 * index + np.arange(3)[:, None]  # palette row and channel, channel-major
            color_grad[r : r + len(p)] = np.bincount(bins.ravel(), (err * share).ravel(), p.size).reshape(p.shape)
    grad = np.zeros(layout.size)
    grad[layout.density_slots] = np.concatenate([rows @ w for (rows, _, _), w in zip(sources, weights)])
    grad[layout.color_slots] += np.where(palette == unclipped, color_grad, 0.0).ravel()
    grad /= b
    return total, breakdown, grad


def total_loss(scene: CompositeScene, batch, iteration: int, config: LossConfig, rng) -> tuple[float, dict]:
    """Mean over the batch of depth NLL (importance proposal) + color NLL +
    scheduled overlap penalty; the total equals the sum of the reported
    breakdown terms exactly.  Pass an integer ``rng`` for reproducibility."""
    total, breakdown, _ = _loss_eval(scene, _as_batch(batch), iteration, config, rng, want_grads=False)
    return total, breakdown
