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
gradient, on one packed (B, 10) batch array (``_BatchArrays``).  It
evaluates densities at every surface and free-space point and colors only at
the surface points, in one kernel pass per component.  It keeps the layout
the mixer works in: per-component densities are rows (n, N), and the
predicted color and its error are channel-major rows (3, B).  The gradient
is a vector-Jacobian product: the per-point weights of all components
(stacked rows (n, N), zero where the density cap binds) are contracted, one
component at a time, with the kind's density rows, one contiguous row per
parameter the density depends on, and the color error lands in that
component's three color slots, as three sums for a constant-color kind and
a scatter over per-point slots for the ground plane.  Neither the (N, P)
density Jacobian nor an (N, 3, P) color Jacobian is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .compose import CompositeScene, _mix, _total
from .fields import LOG_DENSITY_FLOOR, _check_points, _sum3
from .geometry import Ray

__all__ = [
    "T_MIN_PROPOSAL",
    "IMPORTANCE_SPLIT",
    "RgbdSample",
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
        c = np.asarray(self.color, dtype=np.float64)
        if c.shape != (3,) or not np.all(np.isfinite(c)):
            raise ValueError("observed color must be a finite 3-vector")
        object.__setattr__(self, "color", c)
        object.__setattr__(self, "depth", float(self.depth))
        if not 0.0 < self.depth < self.ray.t_far:
            raise ValueError("observed depth must lie strictly inside (0, t_far)")


def _unchecked_sample(ray: Ray, color: np.ndarray, depth: float) -> RgbdSample:
    """An ``RgbdSample`` stored as given, without ``__post_init__``: for
    parts that already pass its checks (a finite float64 (3,) color, a
    Python float depth strictly inside (0, ray.t_far)), which are what the
    checked constructor would store."""
    sample = object.__new__(RgbdSample)
    sample.__dict__.update(ray=ray, color=color, depth=depth)
    return sample


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
        if self.sigma_c <= 0:
            raise ValueError("sigma_c must be positive")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.k_o_max < 0:
            raise ValueError("k_o_max must be non-negative")
        if self.ramp_start > self.ramp_end:
            raise ValueError("ramp_start must not exceed ramp_end")
        if self.n_free_samples < 1:
            raise ValueError("n_free_samples must be >= 1")


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
    inner = t_obs * sig_free.mean(axis=1) if q is None else (sig_free / q).mean(axis=1)
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


def _color_nll_values(predicted: np.ndarray, observed: np.ndarray, sigma_c: float) -> np.ndarray:
    constant = 3.0 * (0.5 * np.log(2.0 * np.pi) + np.log(sigma_c))
    err = predicted - observed
    return constant + (err * err).sum(axis=-1) / (2.0 * sigma_c**2)


def color_nll(field, sample: RgbdSample, rng, config: LossConfig = LossConfig()) -> float:
    """Gaussian color NLL at the jittered surface point, normalization included."""
    rng = _as_rng(rng)
    eps = _draw_jitter(rng, 1, config.delta)[0]
    point = sample.ray.origin + (sample.depth + eps) * sample.ray.direction
    _, predicted = field.evaluate(point)
    return float(_color_nll_values(predicted[None, :], sample.color[None, :], config.sigma_c)[0])


def overlap_loss(scene: CompositeScene, point) -> float:
    """Density not explained by the dominant component at a point."""
    pt = np.asarray(point, dtype=np.float64)
    if pt.shape != (3,) or not np.all(np.isfinite(pt)):
        raise ValueError("point must be a finite 3-vector")
    sigmas = scene.density_components(pt)
    return float(sigmas.sum() - sigmas.max())


def k_o_schedule(iteration: int, config: LossConfig) -> float:
    """Overlap weight: zero before the ramp, linear to k_o_max across it."""
    if iteration <= config.ramp_start:
        return 0.0 if iteration < config.ramp_end else config.k_o_max
    if iteration >= config.ramp_end:
        return config.k_o_max
    span = config.ramp_end - config.ramp_start
    return config.k_o_max * (iteration - config.ramp_start) / span


@dataclass
class _BatchArrays:
    """Sample list flattened once into rows (M, 10) of origin, direction,
    depth and color, each a view, so a batch is one gather (``take``)."""

    packed: np.ndarray

    @classmethod
    def from_samples(cls, batch) -> "_BatchArrays":
        batch = list(batch)
        if not batch:
            raise ValueError("batch must be non-empty")
        return cls(np.column_stack([np.concatenate([s.ray.origin for s in batch]).reshape(-1, 3),
                                    np.concatenate([s.ray.direction for s in batch]).reshape(-1, 3),
                                    [s.depth for s in batch],
                                    np.concatenate([s.color for s in batch]).reshape(-1, 3)]))

    origins = property(lambda self: self.packed[:, 0:3])
    directions = property(lambda self: self.packed[:, 3:6])
    t_obs = property(lambda self: self.packed[:, 6])
    colors = property(lambda self: self.packed[:, 7:10])

    def take(self, idx) -> "_BatchArrays":
        return _BatchArrays(self.packed[idx])

    def __len__(self) -> int:
        return self.packed.shape[0]


def _loss_eval(scene: CompositeScene, arrays: _BatchArrays, iteration: int,
               config: LossConfig, rng, want_grads: bool):
    """Shared core for total_loss and its analytic gradient.

    Draw order is pinned (jitters, mixture choices, positions) so an integer
    seed reproduces the exact same estimate, which is what lets central
    finite differences share randomness with the analytic gradient.
    """
    rng = _as_rng(rng)
    b = len(arrays)
    n_comp = scene.n
    eps = _draw_jitter(rng, b, config.delta)
    pos, q = _draw_free_importance(rng, arrays.t_obs, config.n_free_samples)
    f = config.n_free_samples

    surf_pts = arrays.origins + (arrays.t_obs + eps)[:, None] * arrays.directions
    free_pts = (arrays.origins[:, None, :] + pos[:, :, None] * arrays.directions[:, None, :]).reshape(-1, 3)
    stacked, _ = _check_points(np.concatenate([surf_pts, free_pts], axis=0))

    # Densities at every point, one row per component; colors only at the
    # surface points.
    sigmas = np.empty((n_comp, stacked.shape[0]))
    colors = []
    grads = []
    for i, comp in enumerate(scene.components):
        if want_grads:
            raw, rows, color, offset = comp._grad_sources(stacked, b)
            sigmas[i] = comp._cap(raw)
            live = None if comp.sigma_max is None else raw < comp.sigma_max
            color, unclipped = color.clip(0.0, 1.0), color
            grads.append((comp, rows, live, color == unclipped, offset))  # inside [0, 1]: clipping keeps it
        else:
            sigmas[i] = comp._density(stacked)
            color = comp._density_color(surf_pts)[1]
        colors.append(color)
    sig_surf = sigmas[:, :b]

    sig_tot_free = _total(sigmas[:, b:]).reshape(b, f)
    sig_tot_surf, c_pred = _mix(sig_surf, colors)
    log_live = sig_tot_surf > LOG_DENSITY_FLOOR
    depth_per_ray = _depth_nll(sig_tot_surf, sig_tot_free, arrays.t_obs, q)
    color_per_ray = _color_nll_values(c_pred.T, arrays.colors, config.sigma_c)

    dominant = np.argmax(sig_surf, axis=0)
    overlap_per_ray = sig_tot_surf - sig_surf[dominant, np.arange(b)]

    k_o = k_o_schedule(iteration, config)
    depth_mean = float(depth_per_ray.mean())
    color_mean = float(color_per_ray.mean())
    overlap_mean = float(overlap_per_ray.mean())
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
    # the color part lands only in the color slots.  Per-ray arrays are (3, B).
    color_live = sig_tot_surf > 0.0
    err = np.subtract(c_pred, arrays.colors.T, order="C")  # C order: ``err @ share`` below
    err /= config.sigma_c**2
    err *= color_live
    inv_tot = np.where(color_live, 1.0 / np.where(color_live, sig_tot_surf, 1.0), 0.0)
    d_log = np.where(log_live, 1.0 / np.maximum(sig_tot_surf, LOG_DENSITY_FLOOR), 0.0)
    diffs = np.empty((3, n_comp, b))
    for diff, color in zip(diffs.transpose(1, 0, 2), colors):
        np.subtract(color[:, None] if color.ndim == 1 else color.T, c_pred, out=diff)
    diffs *= err[:, None]
    weights = np.empty((n_comp, stacked.shape[0]))
    weights[:, :b] = inv_tot * _sum3(diffs) - d_log + k_o * (dominant != np.arange(n_comp)[:, None])
    weights[:, b:] = (1.0 / (q * f)).ravel()
    shares = sig_surf * inv_tot
    grad, at = np.zeros(sum(comp.n_params for comp in scene.components)), 0
    for (comp, rows, live, inside, offset), w, share in zip(grads, weights, shares):
        part = grad[at : at + comp.n_params]
        at += part.shape[0]
        if live is not None:
            w *= live
        part[list(comp.density_params)] = rows @ w
        if np.ndim(offset) == 0:
            part[offset : offset + 3] += np.where(inside, err @ share, 0.0)
        else:
            slots = offset + np.arange(3)[:, None]
            part += np.bincount(slots.ravel(), (err * inside.T * share).ravel(), part.shape[0])
    grad /= b
    return total, breakdown, grad


def total_loss(scene: CompositeScene, batch, iteration: int, config: LossConfig, rng) -> tuple[float, dict]:
    """Mean over the batch of depth NLL (importance proposal) + color NLL +
    scheduled overlap penalty; the total equals the sum of the reported
    breakdown terms exactly.  Pass an integer ``rng`` for reproducibility."""
    arrays = batch if isinstance(batch, _BatchArrays) else _BatchArrays.from_samples(batch)
    total, breakdown, _ = _loss_eval(scene, arrays, iteration, config, rng, want_grads=False)
    return total, breakdown
