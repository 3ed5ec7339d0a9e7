"""Transport along rays: transmittance, depth distributions, and rendering.

Density along a ray induces a depth distribution with survival function
T(t) = exp(-integral of density from 0 to t); the depth density is
sigma(r(t)) * T(t) and the expected color is the mean color under it,
truncated at t_far and renormalized.  All estimators here are quadrature or
Monte Carlo approximations of those quantities; the piecewise-constant
oracle at the bottom provides the exact closed forms used to check them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fields import PiecewiseConstantRayField
from .geometry import Ray, ray_at

__all__ = [
    "EMPTY_WEIGHT_EPS",
    "QuadratureConfig",
    "RaySamples",
    "RenderResult",
    "transmittance",
    "transmittance_grid",
    "probability_balance",
    "depth_pdf",
    "depth_cdf",
    "stratified_samples",
    "quadrature_render",
    "hierarchical_render",
    "expected_depth",
    "PiecewiseTransport",
    "analytic_piecewise",
    "piecewise_interval_probability",
]

# A ray whose sample weights sum below this is treated as hitting nothing.
EMPTY_WEIGHT_EPS = 1e-6


@dataclass(frozen=True)
class QuadratureConfig:
    """Sample counts and RNG seed for ray integration."""

    n_coarse: int = 64
    n_fine: int = 128
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if self.n_coarse < 2:
            raise ValueError("n_coarse must be >= 2")
        if self.n_fine < 0:
            raise ValueError("n_fine must be >= 0")


@dataclass(frozen=True)
class RaySamples:
    """Field evaluations at increasing depths with ownership interval widths."""

    t: np.ndarray
    sigma: np.ndarray
    color: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.float64)
        sigma = np.asarray(self.sigma, dtype=np.float64)
        color = np.asarray(self.color, dtype=np.float64)
        delta = np.asarray(self.delta, dtype=np.float64)
        k = t.shape[0]
        if t.ndim != 1 or k < 1:
            raise ValueError("t must be a non-empty 1-D array")
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample depths must be strictly increasing")
        if sigma.shape != (k,) or delta.shape != (k,) or color.shape != (k, 3):
            raise ValueError("sigma/delta must be (k,) and color (k, 3)")
        if np.any(sigma < 0) or np.any(delta <= 0):
            raise ValueError("densities must be >= 0 and widths > 0")
        for name, val in (("t", t), ("sigma", sigma), ("color", color), ("delta", delta)):
            if not np.all(np.isfinite(val)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "color", color)
        object.__setattr__(self, "delta", delta)

    @classmethod
    def from_field(cls, field, ray: Ray, t: np.ndarray) -> "RaySamples":
        """Evaluate ``field`` at depths ``t`` on ``ray``; widths assign each
        sample the span to the midpoints of its neighbors (first span starts
        at 0, last ends at t_far), so widths always sum to t_far."""
        t = np.sort(np.asarray(t, dtype=np.float64))
        sigma, color = field.evaluate(ray_at(ray, t), ray.direction)
        delta = _ownership_deltas(t[None, :], np.array([ray.t_far]))[0]
        return cls(t, sigma, color, delta)


@dataclass(frozen=True)
class RenderResult:
    """Output of compositing one ray.

    ``depth`` is the renormalized mean depth (NaN for empty rays);
    ``depth_raw`` keeps the unrenormalized sum for callers that want it.
    """

    color: np.ndarray
    weights: np.ndarray
    t: np.ndarray
    transmittance_far: float
    alpha: float
    depth: float
    depth_raw: float
    empty: bool


def transmittance(field, ray: Ray, t: float, quad: QuadratureConfig) -> float:
    """Survival probability at depth ``t``: midpoint rule with n_coarse panels
    over [0, t] (exact for constant densities)."""
    t = float(t)
    if not 0.0 <= t <= ray.t_far:
        raise ValueError("t must lie in [0, ray.t_far]")
    if t == 0.0:
        return 1.0
    n = quad.n_coarse
    h = t / n
    mids = (np.arange(n) + 0.5) * h
    sigma = field.density(ray_at(ray, mids))
    return float(np.exp(-h * np.sum(sigma)))


def transmittance_grid(field, ray: Ray, ts, n_panels: int = 4096) -> np.ndarray:
    """Survival probabilities at many depths from one shared panel grid.

    Uses cumulative midpoint sums over [0, max(ts)], so the returned values
    are monotone nonincreasing by construction.
    """
    ts = np.asarray(ts, dtype=np.float64)
    if np.any(ts < 0) or np.any(ts > ray.t_far):
        raise ValueError("depths must lie in [0, ray.t_far]")
    t_max = float(np.max(ts)) if ts.size else 0.0
    if t_max == 0.0:
        return np.ones_like(ts)
    edges = np.linspace(0.0, t_max, n_panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    sigma = field.density(ray_at(ray, mids))
    cum = np.concatenate([[0.0], np.cumsum(sigma * (t_max / n_panels))])
    return np.exp(-np.interp(ts, edges, cum))


def probability_balance(field, ray: Ray, n_panels: int = 4096) -> tuple[float, float]:
    """One-pass midpoint estimate of (integral of the depth density over
    [0, t_far], survival at t_far); the two must sum to ~1."""
    h = ray.t_far / n_panels
    mids = (np.arange(n_panels) + 0.5) * h
    sigma = field.density(ray_at(ray, mids))
    optical = sigma * h
    cum = np.cumsum(optical)
    t_mid = np.exp(-(cum - 0.5 * optical))
    integral = float(np.sum(sigma * t_mid * h))
    return integral, float(np.exp(-cum[-1]))


def depth_pdf(field, ray: Ray, t: float, quad: QuadratureConfig) -> float:
    """Depth density sigma(r(t)) * T(t) (unnormalized; integrates to alpha)."""
    sigma = field.density(ray_at(ray, float(t)))
    return sigma * transmittance(field, ray, t, quad)


def depth_cdf(field, ray: Ray, t: float, quad: QuadratureConfig) -> float:
    """P(depth <= t) = 1 - T(t)."""
    return 1.0 - transmittance(field, ray, t, quad)


def stratified_samples(k: int, t_far: float, rng: np.random.Generator) -> np.ndarray:
    """One uniform draw per bin of the k-fold partition of [0, t_far]; sorted
    by construction."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not t_far > 0:
        raise ValueError("t_far must be positive")
    return (np.arange(k) + rng.random(k)) / k * t_far


def _ownership_deltas(t: np.ndarray, t_fars: np.ndarray) -> np.ndarray:
    """Midpoint-ownership widths for sorted depth rows; rows sum to t_far."""
    n = t.shape[0]
    inner = 0.5 * (t[:, 1:] + t[:, :-1])
    edges = np.concatenate([np.zeros((n, 1)), inner, t_fars[:, None]], axis=1)
    return np.diff(edges, axis=1)


def _composite_weights(sigma: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample absorption weights, survival-to-far, and total optical depth."""
    optical = sigma * delta
    cum = np.cumsum(optical, axis=1)
    t_before = np.exp(-(cum - optical))
    absorb = -np.expm1(-optical)
    weights = t_before * absorb
    return weights, np.exp(-cum[:, -1]), cum[:, -1]


def quadrature_render(samples: RaySamples) -> RenderResult:
    """Composite explicit samples into color, weights, and survival-to-far."""
    weights, t_far_T, tau = _composite_weights(samples.sigma[None, :], samples.delta[None, :])
    w = weights[0]
    wsum = float(np.sum(w))
    empty = wsum <= EMPTY_WEIGHT_EPS
    if empty:
        color = np.zeros(3)
        depth = float("nan")
    else:
        color = (w[:, None] * samples.color).sum(axis=0) / wsum
        depth = float((w * samples.t).sum() / wsum)
    return RenderResult(
        color=color,
        weights=w,
        t=samples.t,
        transmittance_far=float(t_far_T[0]),
        alpha=float(-np.expm1(-tau[0])),
        depth=depth,
        depth_raw=float((w * samples.t).sum()),
        empty=bool(empty),
    )


def _draw_uniforms(rng: np.random.Generator, n_rays: int, quad: QuadratureConfig):
    """All random draws for a render pass, in one pinned order."""
    u_coarse = rng.random((n_rays, quad.n_coarse)) if quad.stratified else None
    u_fine = rng.random((n_rays, quad.n_fine)) if quad.n_fine > 0 else None
    return u_coarse, u_fine


def _coarse_positions(t_fars: np.ndarray, n_coarse: int, u_coarse) -> np.ndarray:
    if u_coarse is None:
        frac = (np.arange(n_coarse) + 0.5) / n_coarse
        return frac[None, :] * t_fars[:, None]
    return (np.arange(n_coarse) + u_coarse) / n_coarse * t_fars[:, None]


def _fine_positions(weights: np.ndarray, t_fars: np.ndarray, u_fine: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from the piecewise-constant density proportional to
    coarse bin weights; rays with no weight fall back to a uniform proposal.

    Bins are searched row by row, so a row's draws depend on that row alone
    (and never on how many rows share the batch)."""
    n, k = weights.shape
    total = weights.sum(axis=1)
    w = np.where((total > EMPTY_WEIGHT_EPS)[:, None], weights, 1.0)
    cdf = np.cumsum(w, axis=1)
    cdf = cdf / cdf[:, -1:]
    u = np.clip(u_fine, 0.0, 1.0 - 1e-12)
    idx = np.empty(u.shape, dtype=np.intp)
    for row in range(n):
        idx[row] = np.searchsorted(cdf[row], u[row], side="left")
    idx = np.clip(idx, 0, k - 1)
    rows = np.arange(n)[:, None]
    hi = cdf[rows, idx]
    lo = np.where(idx > 0, cdf[rows, np.maximum(idx - 1, 0)], 0.0)
    frac_in_bin = np.clip((u - lo) / np.maximum(hi - lo, 1e-300), 0.0, 1.0)
    bin_w = t_fars[:, None] / k
    return (idx + frac_in_bin) * bin_w


def _render_batch(evaluator, origins, dirs, t_fars, quad: QuadratureConfig, rng, draws=None) -> dict:
    """Two-pass render of many rays; returns raw per-ray arrays.

    The coarse pass evaluates density only; the fine pass evaluates each
    component once and keeps its densities (``"sigmas"``, (N, S, n)) for
    the component marginals.

    All randomness comes from ``rng`` in one pinned order (coarse uniforms,
    then fine uniforms) unless pre-drawn ``draws`` are handed in, so results
    never depend on how callers chunk rays afterwards.
    """
    n = origins.shape[0]
    u_coarse, u_fine = _draw_uniforms(rng, n, quad) if draws is None else draws
    t_c = _coarse_positions(t_fars, quad.n_coarse, u_coarse)
    pts = origins[:, None, :] + t_c[:, :, None] * dirs[:, None, :]
    sigma_c = evaluator.density(pts.reshape(-1, 3)).reshape(n, quad.n_coarse)
    w_c, _, _ = _composite_weights(sigma_c, _ownership_deltas(t_c, t_fars))

    if quad.n_fine > 0:
        t_f = _fine_positions(w_c, t_fars, u_fine)
        t = np.sort(np.concatenate([t_c, t_f], axis=1), axis=1)
    else:
        t = t_c
    pts = origins[:, None, :] + t[:, :, None] * dirs[:, None, :]
    sigma, color, sigmas = evaluator.evaluate_with_components(pts.reshape(-1, 3))
    s = t.shape[1]
    sigma = sigma.reshape(n, s)
    color = color.reshape(n, s, 3)
    delta = _ownership_deltas(t, t_fars)
    weights, t_far_T, tau = _composite_weights(sigma, delta)

    wsum = weights.sum(axis=1)
    empty = wsum <= EMPTY_WEIGHT_EPS
    safe = np.where(empty, 1.0, wsum)
    out_color = (weights[:, :, None] * color).sum(axis=1) / safe[:, None]
    out_color[empty] = 0.0
    depth_raw = (weights * t).sum(axis=1)
    depth = depth_raw / safe
    depth[empty] = np.nan
    return {
        "t": t,
        "sigma": sigma,
        "sigmas": sigmas.reshape(n, s, -1),
        "weights": weights,
        "weight_sum": wsum,
        "color": out_color,
        "depth": depth,
        "depth_raw": depth_raw,
        "alpha": -np.expm1(-tau),
        "transmittance_far": t_far_T,
        "empty": empty,
    }


def _single_ray_result(batch: dict) -> RenderResult:
    return RenderResult(
        color=batch["color"][0],
        weights=batch["weights"][0],
        t=batch["t"][0],
        transmittance_far=float(batch["transmittance_far"][0]),
        alpha=float(batch["alpha"][0]),
        depth=float(batch["depth"][0]),
        depth_raw=float(batch["depth_raw"][0]),
        empty=bool(batch["empty"][0]),
    )


def hierarchical_render(field, ray: Ray, quad: QuadratureConfig, rng: np.random.Generator | None = None) -> RenderResult:
    """Stratified coarse pass, then fine samples drawn from the coarse weight
    distribution, merged and composited."""
    if rng is None:
        rng = np.random.default_rng(quad.seed)
    batch = _render_batch(
        field,
        ray.origin[None, :],
        ray.direction[None, :],
        np.array([ray.t_far]),
        quad,
        rng,
    )
    return _single_ray_result(batch)


def expected_depth(field, ray: Ray, quad: QuadratureConfig) -> float:
    """Renormalized mean depth under the truncated depth distribution;
    NaN flags an empty ray (see RenderResult.depth_raw for the raw sum)."""
    return hierarchical_render(field, ray, quad).depth


class PiecewiseTransport(NamedTuple):
    transmittance: float
    pdf: float
    color: np.ndarray


def _piecewise_tau(field: PiecewiseConstantRayField, t) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    lo = field.breakpoints[:-1]
    hi = field.breakpoints[1:]
    overlap = np.clip(np.minimum(hi, t[..., None]) - lo, 0.0, None)
    return overlap @ field.sigmas


def analytic_piecewise(field: PiecewiseConstantRayField, t: float) -> PiecewiseTransport:
    """Exact survival, depth density, and unnormalized expected color over
    [0, t] for the piecewise-constant oracle kind."""
    if not isinstance(field, PiecewiseConstantRayField):
        raise TypeError("analytic_piecewise needs a PiecewiseConstantRayField")
    t = float(t)
    if t < 0:
        raise ValueError("t must be >= 0")
    tau_t = float(_piecewise_tau(field, t))
    surv = float(np.exp(-tau_t))
    idx = np.searchsorted(field.breakpoints, t, side="right") - 1
    m = field.sigmas.shape[0]
    sigma_t = field.sigmas[idx] if 0 <= idx < m else 0.0
    starts = np.minimum(field.breakpoints[:-1], t)
    ends = np.minimum(field.breakpoints[1:], t)
    t_start = np.exp(-_piecewise_tau(field, starts))
    t_end = np.exp(-_piecewise_tau(field, ends))
    color = ((t_start - t_end)[:, None] * field.colors).sum(axis=0)
    return PiecewiseTransport(surv, float(sigma_t) * surv, color)


def piecewise_interval_probability(field: PiecewiseConstantRayField, a: float, b: float) -> float:
    """Exact probability that the depth lands in [a, b]."""
    if b < a:
        raise ValueError("need a <= b")
    return float(np.exp(-_piecewise_tau(field, a)) - np.exp(-_piecewise_tau(field, b)))
