"""Transport along rays: transmittance, depth distributions, and rendering.

Density along a ray induces a depth distribution with survival function
T(t) = exp(-integral of density from 0 to t); the depth density is
sigma(r(t)) * T(t) and the expected color is the mean color under it,
truncated at t_far and renormalized.  All estimators here are quadrature or
Monte Carlo approximations of those quantities; the piecewise-constant
oracle at the bottom provides the exact closed forms used to check them.

Two batched primitives carry every estimate: ``_panels`` (midpoint-panel
densities and optical depth over a range of panels, from the optical depth
carried in from the panels before it; transmittance and the probability
balance take a whole ray, and the observation sampler marches each ray
window by window until its draw lands) and ``_composite`` (samples to
weights, color, depth and alpha).  A single ray is a one-row batch of the
same path.
Segmentation reads the depth law alone: its final pass evaluates densities
only and stops at the weights (``_composite_weights``), so no color is
evaluated, mixed or summed for it.  A single-ray call without a generator
takes its draws from its quadrature's seed, and those draws are memoized
per quadrature (``_seeded_draws``).

A render batch of N rays with S samples each is samples-major, channel-major
and component-major: depths, densities, widths and weights are (S, N),
colors (3, S, N) and per-component densities (n, S, N), and sample points
are an (S*N, 3) view of rows (3, S*N), so the field kernels read each
coordinate contiguously and a sum over samples adds whole rows.  The sums
keep the order NumPy used on the rows (N, S) that the batch replaced:
``_total`` pairwise for weights and depths, ``_sum_samples`` one sample
after the other for colors and component masses.  ``_total`` lives in
``fields``, beside ``_density_total``, the rule every pass here totals
per-component densities by.  Only the random draws and the fine depths
drawn from them are rows (N, S), and the panel primitive keeps rows
(N, panels in its range).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fields import PiecewiseConstantRayField, _check_points, _density_total, _total
from .geometry import Ray, _check_integer, _real, ray_at

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
        _check_integer(self.n_coarse, "n_coarse", 2)
        _check_integer(self.n_fine, "n_fine", 0)
        _check_integer(self.seed, "seed", 0)
        if not isinstance(self.stratified, (bool, np.bool_)):
            raise TypeError(f"stratified must be a bool, got {self.stratified!r}")


def _check_samples(t, sigma, color, delta) -> None:
    """The checks explicit samples pass, over the sample axis (axis 0):
    depths strictly increasing, densities >= 0 and widths > 0, then each of
    t, sigma, color (when given) and delta finite."""
    if np.any(np.diff(t, axis=0) <= 0):
        raise ValueError("sample depths must be strictly increasing")
    if np.any(sigma < 0) or np.any(delta <= 0):
        raise ValueError("densities must be >= 0 and widths > 0")
    for name, val in (("t", t), ("sigma", sigma), ("color", color), ("delta", delta)):
        if val is not None and not np.all(np.isfinite(val)):
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class RaySamples:
    """Field evaluations at increasing depths with ownership interval widths."""

    t: np.ndarray
    sigma: np.ndarray
    color: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        t = _real(self.t, "t", np.asarray(self.t, dtype=object).shape)  # a ragged t has a shape as objects
        if np.ndim(t) != 1 or len(t) < 1:
            raise ValueError("t must be a non-empty 1-D array")
        sigma, delta = (_real(getattr(self, name), name, t.shape) for name in ("sigma", "delta"))
        color = _real(self.color, "color", t.shape + (3,))
        _check_samples(t, sigma, color, delta)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "color", color)
        object.__setattr__(self, "delta", delta)

    @classmethod
    def from_field(cls, field, ray: Ray, t: np.ndarray) -> "RaySamples":
        """Evaluate ``field`` at depths ``t`` on ``ray``; widths assign each
        sample the span to the midpoints of its neighbors (first span starts
        at 0, last ends at t_far), so widths always sum to t_far."""
        t = np.sort(_real(t, "t", np.shape(t)))
        sigma, color = field.evaluate(ray_at(ray, t), ray.direction)
        delta = _ownership_deltas(t[:, None], np.array([ray.t_far]))[:, 0]
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


def _ray_points(origin_rows, dir_rows, t):
    """Points origin + t * direction in the order of the depths ``t``, as a
    (t.size, 3) view of channel-major rows; the origin and direction rows
    (3, ...) broadcast against ``t``."""
    rows = np.multiply(t, dir_rows, order="C")
    rows += origin_rows
    return rows.reshape(3, -1).T


def _sum_samples(terms: np.ndarray) -> np.ndarray:
    """Sum of samples-major terms (..., S, N) over samples, one after the
    other from 0.0: the order ``sum(axis=-1)`` reduced (..., N, S) rows in
    when their samples axis was not the contiguous one.  From 2 rays on
    that is an outer-axis sum; a lone ray's samples axis is contiguous, so
    it takes a running sum instead (which overwrites ``terms``), and adding
    0.0 turns a -0.0 total into 0.0, as the 0.0 start does."""
    if terms.shape[-1] > 1:
        return terms.sum(axis=-2)
    return terms.cumsum(axis=-2, out=terms)[..., -1, :] + 0.0


def _panels(field, origins, dirs, t_ends, n_panels: int, first: int = 0, stop: int | None = None,
            carry=None):
    """Midpoint rule on ``n_panels`` equal panels of [0, t_end] per ray, for
    the panels [first, stop) (default all): densities at their midpoints
    (N, stop - first), panel widths (N,) and the optical depth at their
    edges (N, stop - first + 1), from ``carry`` (N,), the optical depth at
    edge ``first`` (default 0).  The sum runs one panel after the other and
    the carry enters as the first panel's left addend, so marching a ray
    window by window, each window carrying the last one's final depth,
    gives the bits of one whole-ray pass."""
    stop = n_panels if stop is None else stop
    h = t_ends / n_panels
    mids = ((np.arange(first, stop) + 0.5) / n_panels)[None, :] * t_ends[:, None]
    sigma = field.density(_ray_points(origins.T[:, :, None], dirs.T[:, :, None], mids)).reshape(mids.shape)
    optical = sigma * h[:, None]
    cum = np.empty((len(t_ends), stop - first + 1))
    cum[:, 0] = 0.0 if carry is None else carry
    if carry is not None:
        optical[:, 0] += carry
    np.cumsum(optical, axis=1, out=cum[:, 1:])
    return sigma, h, cum


def _ray_panels(field, ray: Ray, t_end: float, n_panels: int):
    """``_panels`` of one ray as 1-D arrays."""
    sigma, h, cum = _panels(field, ray.origin[None, :], ray.direction[None, :], np.array([t_end]), n_panels)
    return sigma[0], h[0], cum[0]


def transmittance(field, ray: Ray, t: float, quad: QuadratureConfig) -> float:
    """Survival probability at depth ``t``: midpoint rule with n_coarse panels
    over [0, t] (exact for constant densities)."""
    t = float(t)
    if not 0.0 <= t <= ray.t_far:
        raise ValueError("t must lie in [0, ray.t_far]")
    if t == 0.0:
        return 1.0
    return float(np.exp(-_ray_panels(field, ray, t, quad.n_coarse)[2][-1]))


def transmittance_grid(field, ray: Ray, ts, n_panels: int = 4096) -> np.ndarray:
    """Survival probabilities at many depths from one shared panel grid.

    Uses cumulative midpoint sums over [0, max(ts)], so the returned values
    are monotone nonincreasing by construction.
    """
    _check_integer(n_panels, "n_panels", 1)
    ts = np.asarray(ts, dtype=np.float64)
    if np.any(ts < 0) or np.any(ts > ray.t_far):
        raise ValueError("depths must lie in [0, ray.t_far]")
    t_max = float(np.max(ts)) if ts.size else 0.0
    if t_max == 0.0:
        return np.ones_like(ts)
    cum = _ray_panels(field, ray, t_max, n_panels)[2]
    return np.exp(-np.interp(ts, np.linspace(0.0, t_max, n_panels + 1), cum))


def probability_balance(field, ray: Ray, n_panels: int = 4096) -> tuple[float, float]:
    """One-pass midpoint estimate of (integral of the depth density over
    [0, t_far], survival at t_far); the two must sum to ~1."""
    _check_integer(n_panels, "n_panels", 1)
    sigma, h, cum = _ray_panels(field, ray, ray.t_far, n_panels)
    optical = sigma * h
    t_mid = np.exp(-(cum[1:] - 0.5 * optical))
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
    _check_integer(k, "k", 1)
    if not t_far > 0:
        raise ValueError("t_far must be positive")
    return (np.arange(k) + rng.random(k)) / k * t_far


def _ownership_deltas(t: np.ndarray, t_fars: np.ndarray) -> np.ndarray:
    """Midpoint-ownership widths (S, N) for sorted samples-major depths;
    each ray's widths sum to its t_far."""
    inner = 0.5 * (t[1:] + t[:-1])
    edges = np.concatenate([np.zeros((1, t.shape[1])), inner, t_fars[None, :]])
    return np.diff(edges, axis=0)


def _composite_weights(sigma: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample absorption weights (S, N), survival-to-far, and total
    optical depth from samples-major densities and widths."""
    optical = sigma * delta
    cum = np.cumsum(optical, axis=0)
    weights = np.subtract(optical, cum)
    np.exp(weights, out=weights)  # survival to each sample
    weights *= np.expm1(np.negative(optical, out=optical), out=optical)
    np.negative(weights, out=weights)  # times its absorption, 1 - exp(-optical)
    return weights, np.exp(-cum[-1]), cum[-1]


def _composite(t: np.ndarray, sigma: np.ndarray, color: np.ndarray, delta: np.ndarray,
               own_color: bool = False) -> dict:
    """Composite samples-major samples (depths, densities and widths (S, N),
    colors as channel-major rows (3, S, N)) into per-ray weights (S, N),
    color (N, 3), depth, alpha and the empty flag.  With ``own_color`` the
    color rows are a buffer the caller allocated and gives up: they are
    weighted in place."""
    weights, t_far_T, tau = _composite_weights(sigma, delta)
    wsum = _total(weights)
    empty = wsum <= EMPTY_WEIGHT_EPS
    safe = np.where(empty, 1.0, wsum)
    out_color = _sum_samples(np.multiply(weights, color, out=color if own_color else None))
    out_color /= safe
    out_color[:, empty] = 0.0
    depth_raw = _total(weights * t)
    depth = depth_raw / safe
    depth[empty] = np.nan
    return {
        "t": t,
        "weights": weights,
        "color": out_color.T,
        "depth": depth,
        "depth_raw": depth_raw,
        "alpha": -np.expm1(-tau),
        "transmittance_far": t_far_T,
        "empty": empty,
    }


def _single_ray_result(batch: dict) -> RenderResult:
    return RenderResult(
        color=batch["color"][0],
        weights=batch["weights"][:, 0],
        t=batch["t"][:, 0],
        transmittance_far=float(batch["transmittance_far"][0]),
        alpha=float(batch["alpha"][0]),
        depth=float(batch["depth"][0]),
        depth_raw=float(batch["depth_raw"][0]),
        empty=bool(batch["empty"][0]),
    )


def quadrature_render(samples: RaySamples) -> RenderResult:
    """Composite explicit samples into color, weights, and survival-to-far."""
    return _single_ray_result(_composite(
        samples.t[:, None], samples.sigma[:, None], samples.color.T[:, :, None], samples.delta[:, None]))


def _draw_uniforms(rng: np.random.Generator, n_rays: int, quad: QuadratureConfig):
    """All random draws for a render pass, in one pinned order."""
    u_coarse = rng.random((n_rays, quad.n_coarse)) if quad.stratified else None
    u_fine = rng.random((n_rays, quad.n_fine)) if quad.n_fine > 0 else None
    return u_coarse, u_fine


def _coarse_positions(t_fars: np.ndarray, n_coarse: int, u_coarse) -> np.ndarray:
    """Samples-major coarse depths (n_coarse, N): bin midpoints, or one
    stratified draw per bin from the rows of uniforms (N, n_coarse)."""
    bins = np.arange(n_coarse, dtype=np.float64)[:, None]
    if u_coarse is None:
        return ((bins + 0.5) / n_coarse) * t_fars
    return np.add(bins, u_coarse.T, order="C") / n_coarse * t_fars


def _fine_positions(weights: np.ndarray, t_fars: np.ndarray, u_fine: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws (rows (N, n_fine), as the uniforms ``u_fine``) from
    the piecewise-constant density proportional to the samples-major coarse
    bin weights (k, N); rays with no weight fall back to a uniform proposal.

    Each draw's bin is the count of its ray's CDF values below it, as
    ``searchsorted(side="left")`` finds it, so a ray's draws depend on that
    ray alone (and never on how many rays share the batch).  The CDF ends at
    exactly 1 and the draws stay below 1, so the count is at most k - 1.
    Each ray's CDF is a row of one flat table, after a 0.0 (the lower edge
    of bin 0) and padded with +inf to a power of two.  A 1-row batch calls
    ``searchsorted``; from 2 rows on the search is branchless, halving every
    draw's span with one gather and one compare per step."""
    k, n = weights.shape
    total = _total(weights)
    width = 1 << (k - 1).bit_length()
    table = np.empty((n, width + 1))
    table[:, 0] = 0.0
    cdf = np.cumsum(np.where(total > EMPTY_WEIGHT_EPS, weights, 1.0), axis=0, out=table[:, 1 : k + 1].T)
    cdf /= cdf[-1].copy()
    table[:, k + 1 :] = np.inf
    flat = table.reshape(-1)
    first = np.arange(1, n * (width + 1), width + 1)[:, None]  # each ray's cdf[0]
    u = np.clip(u_fine, 0.0, 1.0 - 1e-12)
    if n == 1:
        at = cdf[:, 0].searchsorted(u, side="left") + 1
    else:
        at = np.broadcast_to(first, u.shape).copy()
        probe = np.empty_like(at)
        below = np.empty(u.shape, dtype=bool)
        step = width // 2
        while step:
            np.less(flat.take(np.add(at, step - 1, out=probe)), u, out=below)
            at += np.multiply(below, step, out=probe)
            step //= 2
    hi = flat.take(at)
    lo = flat.take(at - 1)
    hi -= lo
    u -= lo
    u /= np.maximum(hi, 1e-300, out=hi)
    frac_in_bin = np.clip(u, 0.0, 1.0, out=u)
    frac_in_bin += at - first
    frac_in_bin *= t_fars[:, None] / k
    return frac_in_bin


def _render_batch(evaluator, origins, dirs, t_fars, quad: QuadratureConfig, draws, colors=True) -> dict:
    """Two-pass render of many rays; returns raw per-ray arrays, samples-major.

    The coarse pass evaluates density only, and only to place fine samples
    (a coarse-only quadrature skips it); the final pass evaluates each
    component once and keeps its densities (``"sigmas"``, (n, S, N)) for
    the component marginals.  With ``colors=False`` the final pass
    evaluates densities only and stops at the weights: it returns ``t``,
    ``weights``, ``transmittance_far``, ``sigma`` and ``sigmas``, all that
    the component marginals read, bit-identical to the full pass.

    All randomness comes in ``draws``, the rows (coarse uniforms, fine
    uniforms) of ``_draw_uniforms`` for these rays, so results never depend
    on how callers chunk rays; zero rays give arrays of zero rays.
    """
    u_coarse, u_fine = draws
    origin_rows, dir_rows = (np.ascontiguousarray(a.T)[:, None, :] for a in (origins, dirs))
    t_c = _coarse_positions(t_fars, quad.n_coarse, u_coarse)
    if quad.n_fine > 0:
        sigma_c = evaluator.density(_ray_points(origin_rows, dir_rows, t_c)).reshape(t_c.shape)
        w_c, _, _ = _composite_weights(sigma_c, _ownership_deltas(t_c, t_fars))
        t_f = _fine_positions(w_c, t_fars, u_fine)
        t = np.sort(np.concatenate([t_c.T, t_f], axis=1), axis=1).T.copy()
    else:
        t = t_c
    pts, _ = _check_points(_ray_points(origin_rows, dir_rows, t))
    if not colors:
        sigmas = evaluator._density_components(pts)
        sigma = _density_total(sigmas).reshape(t.shape)
        weights, t_far_T, _ = _composite_weights(sigma, _ownership_deltas(t, t_fars))
        return {"t": t, "weights": weights, "transmittance_far": t_far_T, "sigma": sigma,
                "sigmas": sigmas.reshape(len(sigmas), *t.shape)}
    sigma, color, sigmas = evaluator._evaluate(pts)
    sigma = sigma.reshape(t.shape)
    color = color.reshape(3, *t.shape)
    # A writeable color is the evaluator's fresh buffer (``_PointQueries._evaluate``).
    batch = _composite(t, sigma, color, _ownership_deltas(t, t_fars), own_color=color.flags.writeable)
    batch.update(sigma=sigma, sigmas=sigmas.reshape(len(sigmas), *t.shape))
    return batch


@lru_cache(maxsize=16)
def _seeded_draws(quad: QuadratureConfig):
    """``_draw_uniforms`` of one ray from a fresh generator seeded with
    ``quad.seed``, as read-only arrays: every such call draws the same, so
    single-ray calls that repeat a quadrature share one set."""
    draws = _draw_uniforms(np.random.default_rng(quad.seed), 1, quad)
    for u in draws:
        if u is not None:
            u.flags.writeable = False
    return draws


def _render_ray(field, ray: Ray, quad: QuadratureConfig, rng: np.random.Generator | None = None,
                colors=True) -> dict:
    """One ray as a one-row ``_render_batch``; the draws come from ``rng``,
    or, without one, are those of a fresh generator seeded with
    ``quad.seed``, memoized per quadrature (``_seeded_draws``)."""
    draws = _seeded_draws(quad) if rng is None else _draw_uniforms(rng, 1, quad)
    return _render_batch(field, ray.origin[None, :], ray.direction[None, :], np.array([ray.t_far]), quad,
                         draws, colors)


def hierarchical_render(field, ray: Ray, quad: QuadratureConfig, rng: np.random.Generator | None = None) -> RenderResult:
    """Stratified coarse pass, then fine samples drawn from the coarse weight
    distribution, merged and composited."""
    return _single_ray_result(_render_ray(field, ray, quad, rng))


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
