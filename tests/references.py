"""Earlier versions of the field kernels, of the color Jacobians, of the
piecewise-constant field's interval lookup with its validity mask, of the
color mixer, of the points-major render-batch reductions, of the row-major
render batch with its per-row fine-bin search, and of the single-ray
transport routines and observation sampler, and of the fit loop with its
loss core and RGB-D batch, and of the bias demo as one single-ray render
per trial, kept as references, plus hypothesis strategies for fields,
scenes, points and rays.

The package's kernels avoid boolean-mask gathers, short-axis reductions and
(N, n, 3) color stacks, its render batch is samples-major, component-major
and channel-major with a branchless fine-bin search, and its transport
routines share one panel primitive and one compositor, and its fit loop
checks each step's parameters once, gathers one packed batch and stacks its
gradient weights over components; each must still equal the plainer version
here bit for bit (the transport routines whose panel midpoints moved to the
sampler's formula to within 1e-12 relative).
"""

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rayfields.compose import NEUTRAL_COLOR, CompositeScene, _mix, _total
from rayfields.fields import (LOG_DENSITY_FLOOR, _DOMAINS, GaussianBlobField, GroundPlaneField, SoftBoxField,
                              SoftSphereField, _check_points, _sum3)
from rayfields.fitting import _Adam
from rayfields.geometry import Ray, RayGrid, ray_at
from rayfields.losses import (RgbdSample, _as_rng, _color_nll_values, _depth_nll, _draw_free_importance,
                              _draw_jitter, k_o_schedule)
from rayfields.estimlab import slab_demo_field, slab_demo_ray, stratified_miss_probability
from rayfields.transport import (EMPTY_WEIGHT_EPS, QuadratureConfig, RaySamples, RenderResult, analytic_piecewise,
                                 hierarchical_render, quadrature_render, stratified_samples)


def masked_sigmoid(z):
    """The logistic function, one boolean-masked branch per sign of z."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _ground_parts(field, pts):
    """Plane sigmoid, distance from the origin and dome sigmoid (N,)."""
    s_plane = masked_sigmoid(-pts[:, 2] / field.softness)
    rho = np.maximum(np.linalg.norm(pts, axis=1), 1e-12)
    return s_plane, rho, masked_sigmoid((rho - field.dome_radius) / field.softness)


def reference_density_grad(field, pts):
    """Uncapped density (N,) and its parameter gradient (N, P) at points
    (N, 3), with row reductions by np.sum, np.linalg.norm and np.prod on
    (N, 3) arrays and the masked sigmoid."""
    n = pts.shape[0]
    if isinstance(field, GaussianBlobField):
        u = (pts - field.center) / field.scale
        g = np.exp(-0.5 * np.sum(u * u, axis=1))
        raw = field.amplitude * g
        d_raw = np.zeros((n, 10))
        d_raw[:, 0:3] = raw[:, None] * u / field.scale
        d_raw[:, 3:6] = raw[:, None] * (u * u) / field.scale
        d_raw[:, 6] = g
    elif isinstance(field, SoftSphereField):
        diff = pts - field.center
        r = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
        s = masked_sigmoid((field.radius - r) / field.softness)
        raw = field.amplitude * s
        ds_dz = s * (1.0 - s)
        w = field.softness
        d_raw = np.zeros((n, 9))
        d_raw[:, 0:3] = (field.amplitude * ds_dz / (r * w))[:, None] * diff
        d_raw[:, 3] = field.amplitude * ds_dz / w
        d_raw[:, 4] = field.amplitude * ds_dz * (r - field.radius) / w**2
        d_raw[:, 5] = s
    elif isinstance(field, SoftBoxField):
        diff = pts - field.center
        q = (field.half_size - np.abs(diff)) / field.softness
        s = masked_sigmoid(q)
        f = np.prod(s, axis=1)
        raw = field.amplitude * f
        one_minus = 1.0 - s
        w = field.softness
        d_raw = np.zeros((n, 11))
        d_raw[:, 0:3] = raw[:, None] * one_minus * np.sign(diff) / w
        d_raw[:, 3:6] = raw[:, None] * one_minus / w
        d_raw[:, 6] = raw * np.sum(one_minus * (-q), axis=1) / w
        d_raw[:, 7] = f
    elif isinstance(field, GroundPlaneField):
        w = field.softness
        s_plane, rho, s_dome = _ground_parts(field, pts)
        union = 1.0 - (1.0 - s_plane) * (1.0 - s_dome)
        raw = field.amplitude * union
        dsp = s_plane * (1.0 - s_plane)
        dsd = s_dome * (1.0 - s_dome)
        d_raw = np.zeros((n, 13))
        d_raw[:, 0] = field.amplitude * (
            (1.0 - s_dome) * dsp * (pts[:, 2] / w**2)
            + (1.0 - s_plane) * dsd * (-(rho - field.dome_radius) / w**2)
        )
        d_raw[:, 1] = union
        d_raw[:, 9] = field.amplitude * (1.0 - s_plane) * dsd * (-1.0 / w)
    else:
        raise TypeError(f"no reference for {field.kind!r}")
    return raw, d_raw


def reference_color_jacobian(field, pts):
    """Clipped color (N, 3) and d(color)/d(params) (N, 3, P) at points
    (N, 3), built the way each kind used to build them: an identity block at
    the color slots of a constant-color kind, one-hot blocks per surface
    (color_a, color_b, dome) for the ground plane, both masked to the
    channels whose unclipped color lies in [0, 1]."""
    n, p = pts.shape[0], field.n_params
    d_color = np.zeros((n, 3, p))
    if isinstance(field, GroundPlaneField):
        s_plane, _, s_dome = _ground_parts(field, pts)
        checker_b = np.zeros(n, dtype=bool)
        if field.checker_size > 0:
            cells = np.floor(pts[:, 0] / field.checker_size) + np.floor(pts[:, 1] / field.checker_size)
            checker_b = (cells.astype(np.int64) % 2) != 0
        on_dome = s_dome > s_plane
        color = np.where(on_dome[:, None], field.dome_color,
                         np.where(checker_b[:, None], field.color_b, field.color_a))
        for ch in range(3):
            d_color[~on_dome & ~checker_b, ch, 2 + ch] = 1.0
            d_color[~on_dome & checker_b, ch, 5 + ch] = 1.0
            d_color[on_dome, ch, 10 + ch] = 1.0
    else:
        offset = {"gaussian_blob": 7, "soft_sphere": 6, "soft_box": 8}[field.kind]
        color = np.broadcast_to(field.color, (n, 3))
        for ch in range(3):
            d_color[:, ch, offset + ch] = 1.0
    inside = (color >= 0.0) & (color <= 1.0)
    return np.clip(color, 0.0, 1.0), d_color * inside[:, :, None]


def reference_piecewise_raw(field, pts):
    """``PiecewiseConstantRayField._raw`` (density and color; its first output
    is ``_raw_density``) as a clipped interval index plus a validity mask
    that zeroes points before the first breakpoint or at or past the last."""
    t = np.ascontiguousarray(pts - field.axis_origin) @ field.axis_direction
    idx = np.searchsorted(field.breakpoints, t, side="right") - 1
    valid = (idx >= 0) & (idx < field.sigmas.shape[0]) & (t >= field.breakpoints[0])
    idx = np.clip(idx, 0, field.sigmas.shape[0] - 1)
    return np.where(valid, field.sigmas[idx], 0.0), np.where(valid[:, None], field.colors[idx], 0.0)


def stacked_mix(sigmas, colors):
    """Summed density and density-weighted mean color from per-component
    densities (N, n) and colors (N, n, 3), reduced by sum(axis=1)."""
    total = sigmas.sum(axis=1)
    live = total > 0.0
    safe = np.where(live, total, 1.0)
    color = (colors * sigmas[:, :, None]).sum(axis=1) / safe[:, None]
    color[~live] = NEUTRAL_COLOR
    return total, color


def reference_total(sigmas):
    """Total density from per-component densities (N, n), as scenes summed
    them over the component axis of a C-ordered (N, n) array."""
    return np.ascontiguousarray(sigmas).sum(axis=1)


def reference_mix(sigmas, colors):
    """Per-component mixer over densities (N, n): summed density (N,) and
    mean color (N, 3), one density column at a time into a (3, N) buffer."""
    total = reference_total(sigmas)
    live = total > 0.0
    safe = np.where(live, total, 1.0)
    acc = np.zeros((3, sigmas.shape[0]))
    term = np.empty_like(acc)
    for i, c in enumerate(colors):
        weight = np.ascontiguousarray(sigmas[:, i])
        acc += np.multiply(weight, c[:, None] if c.ndim == 1 else c.T, out=term)
    acc /= safe
    acc[:, ~live] = NEUTRAL_COLOR[:, None]
    return total, np.ascontiguousarray(acc.T)


def reference_color_sum(weights, colors):
    """Weighted color sum over samples of a points-major batch: weights
    (N, S) and colors (N, S, 3), reduced over the samples axis of the
    (N, S, 3) product."""
    return (weights[:, :, None] * colors).sum(axis=1)


def reference_marginals(sigmas, sigma, weights):
    """Component mass per ray (N, n) from per-component densities
    (N, S, n), their total (N, S) and the sample weights (N, S), through
    (N, S, n) share and product arrays."""
    live = sigma > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(live[:, :, None], sigmas / np.where(live, sigma, 1.0)[:, :, None], 0.0)
    return (weights[:, :, None] * frac).sum(axis=1)


def reference_fine_positions(weights, t_fars, u_fine):
    """Inverse-CDF fine depths (N, f) from coarse weight rows (N, k), one
    ``searchsorted`` per row; rows with no weight draw uniformly."""
    n, k = weights.shape
    total = weights.sum(axis=1)
    w = np.where((total > EMPTY_WEIGHT_EPS)[:, None], weights, 1.0)
    cdf = np.cumsum(w, axis=1)
    cdf = cdf / cdf[:, -1:]
    u = np.clip(u_fine, 0.0, 1.0 - 1e-12)
    idx = np.empty(u.shape, dtype=np.intp)
    for row in range(n):
        idx[row] = cdf[row].searchsorted(u[row], side="left")
    idx = np.clip(idx, 0, k - 1)
    rows = np.arange(n)[:, None]
    hi = cdf[rows, idx]
    lo = np.where(idx > 0, cdf[rows, np.maximum(idx - 1, 0)], 0.0)
    frac_in_bin = np.clip((u - lo) / np.maximum(hi - lo, 1e-300), 0.0, 1.0)
    return (idx + frac_in_bin) * (t_fars[:, None] / k)


def _row_points(origins, dirs, t):
    """Points for rows of depths (N, S), in row order, as (N*S, 3)."""
    rows = np.multiply(t, dirs.T[:, :, None])
    rows += origins.T[:, :, None]
    return rows.reshape(3, -1).T


def _row_weights(sigma, delta):
    """Absorption weights, survival to t_far and optical depth of rows (N, S)."""
    optical = sigma * delta
    cum = np.cumsum(optical, axis=1)
    weights = np.exp(-(cum - optical)) * -np.expm1(-optical)
    return weights, np.exp(-cum[:, -1]), cum[:, -1]


def _row_deltas(t, t_fars):
    """Midpoint-ownership widths of sorted depth rows (N, S)."""
    inner = 0.5 * (t[:, 1:] + t[:, :-1])
    return np.diff(np.concatenate([np.zeros((t.shape[0], 1)), inner, t_fars[:, None]], axis=1), axis=1)


def _running_sum(terms):
    """Sum over the last axis one term after the other from 0.0, as the last
    entry of a running sum (plus 0.0, which turns -0.0 into 0.0)."""
    return terms.cumsum(axis=-1)[..., -1] + 0.0


def reference_render_batch(evaluator, origins, dirs, t_fars, quad, draws):
    """The two-pass render batch as rows (N, S), from pre-drawn uniforms:
    fine depths by ``reference_fine_positions``; colors and component masses
    summed over samples by running sums, the weight and depth sums along
    the contiguous samples axis.  Returns the batch's per-ray arrays with
    ``t``, ``weights`` and ``sigma`` as (N, S), ``sigmas`` as (n, N, S) and
    the component masses ``marginals`` (N, n)."""
    u_coarse, u_fine = draws
    n = origins.shape[0]
    if u_coarse is None:
        t_c = ((np.arange(quad.n_coarse) + 0.5) / quad.n_coarse)[None, :] * t_fars[:, None]
    else:
        t_c = (np.arange(quad.n_coarse) + u_coarse) / quad.n_coarse * t_fars[:, None]
    sigma_c = evaluator.density(_row_points(origins, dirs, t_c)).reshape(n, quad.n_coarse)
    w_c = _row_weights(sigma_c, _row_deltas(t_c, t_fars))[0]
    if quad.n_fine > 0:
        t_f = reference_fine_positions(w_c, t_fars, u_fine)
        t = np.sort(np.concatenate([t_c, t_f], axis=1), axis=1)
    else:
        t = t_c
    pts, _ = _check_points(_row_points(origins, dirs, t))
    sigma, color, sigmas = evaluator._evaluate(pts)
    sigma = sigma.reshape(t.shape)
    sigmas = sigmas.reshape(-1, *t.shape)
    weights, t_far_T, tau = _row_weights(sigma, _row_deltas(t, t_fars))
    wsum = weights.sum(axis=1)
    empty = wsum <= EMPTY_WEIGHT_EPS
    safe = np.where(empty, 1.0, wsum)
    out_color = _running_sum(weights * color.reshape(3, *t.shape)) / safe
    out_color[:, empty] = 0.0
    depth_raw = (weights * t).sum(axis=1)
    depth = depth_raw / safe
    depth[empty] = np.nan
    terms = sigmas / np.where(sigma > 0.0, sigma, 1.0) * weights
    marginals = terms.sum(axis=-1) if sigmas.shape[0] == 1 else _running_sum(terms)
    return {"t": t, "weights": weights, "color": np.ascontiguousarray(out_color.T), "depth": depth,
            "depth_raw": depth_raw, "alpha": -np.expm1(-tau), "transmittance_far": t_far_T, "empty": empty,
            "sigma": sigma, "sigmas": sigmas, "marginals": np.ascontiguousarray(marginals.T)}


def reference_bias_demo(k, n_trials, seed, hierarchical):
    """``stratified_bias_demo`` as a loop of one single-ray render per trial:
    ``hierarchical_render``, or stratified samples evaluated through
    ``RaySamples.from_field`` and composited by ``quadrature_render``."""
    field = slab_demo_field()
    ray = slab_demo_ray()
    full = analytic_piecewise(field, ray.t_far)
    reference = float(full.color[0] / (1.0 - full.transmittance))

    colors = np.empty(n_trials)
    misses = np.empty(n_trials, dtype=bool)
    quad = QuadratureConfig(n_coarse=k, n_fine=k, seed=seed, stratified=True)
    for trial in range(n_trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, trial)))
        if hierarchical:
            res = hierarchical_render(field, ray, quad, rng=rng)
            ts = res.t
        else:
            ts = stratified_samples(k, ray.t_far, rng)
            res = quadrature_render(RaySamples.from_field(field, ray, ts))
        colors[trial] = res.color[0]
        misses[trial] = not np.any((ts >= 50.0) & (ts <= 51.0))

    mean = float(colors.mean())
    return {
        "k": k,
        "n_trials": n_trials,
        "hierarchical": hierarchical,
        "analytic_color": reference,
        "empirical_mean": mean,
        "std_error": float(colors.std(ddof=1) / np.sqrt(n_trials)),
        "bias": mean - reference,
        "miss_rate": float(misses.mean()),
        "miss_rate_std_error": float(misses.std(ddof=1) / np.sqrt(n_trials)),
        "analytic_miss_probability": stratified_miss_probability(k, ray.t_far, 50.0, 51.0),
    }


def stack_colors(colors, n_points):
    """Per-component colors, each (N, 3) or one (3,) row, as a C-ordered
    (N, n, 3) stack filled one component at a time, as scenes built it before
    the per-component mixer.  The layout matters: ``np.stack`` of broadcast
    rows can make the component axis the contiguous one, and numpy then
    reduces it pairwise (n >= 9) rather than in component order."""
    stack = np.empty((n_points, len(colors), 3))
    for i, c in enumerate(colors):
        stack[:, i] = c
    return stack


def reference_quadrature_render(samples):
    """Composite one ray's explicit samples with 1-D arrays throughout."""
    optical = samples.sigma * samples.delta
    cum = np.cumsum(optical)
    w = np.exp(-(cum - optical)) * -np.expm1(-optical)
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
        transmittance_far=float(np.exp(-cum[-1])),
        alpha=float(-np.expm1(-cum[-1])),
        depth=depth,
        depth_raw=float((w * samples.t).sum()),
        empty=bool(empty),
    )


def reference_transmittance(field, ray, t, quad):
    """Survival at ``t`` from n_coarse midpoints (k + 0.5) * h, h = t / n."""
    t = float(t)
    if t == 0.0:
        return 1.0
    n = quad.n_coarse
    h = t / n
    sigma = field.density(ray_at(ray, (np.arange(n) + 0.5) * h))
    return float(np.exp(-h * np.sum(sigma)))


def reference_transmittance_grid(field, ray, ts, n_panels=4096):
    """Survival at many depths, midpoints halfway between linspace edges."""
    ts = np.asarray(ts, dtype=np.float64)
    t_max = float(np.max(ts)) if ts.size else 0.0
    if t_max == 0.0:
        return np.ones_like(ts)
    edges = np.linspace(0.0, t_max, n_panels + 1)
    sigma = field.density(ray_at(ray, 0.5 * (edges[:-1] + edges[1:])))
    cum = np.concatenate([[0.0], np.cumsum(sigma * (t_max / n_panels))])
    return np.exp(-np.interp(ts, edges, cum))


def reference_probability_balance(field, ray, n_panels=4096):
    """(Depth-density integral, survival) from midpoints (k + 0.5) * h."""
    h = ray.t_far / n_panels
    sigma = field.density(ray_at(ray, (np.arange(n_panels) + 0.5) * h))
    optical = sigma * h
    cum = np.cumsum(optical)
    t_mid = np.exp(-(cum - 0.5 * optical))
    return float(np.sum(sigma * t_mid * h)), float(np.exp(-cum[-1]))


def reference_sample_observations(scene, grid, seed, n_panels=2048, depth_offset=0.0, censored="drop"):
    """The observation sampler's panel loop over all rays at once, and its
    list of kept rays."""
    u = np.random.default_rng(np.random.SeedSequence((seed, 17))).random(len(grid))
    target = -np.log1p(-u)
    t_fars = grid.t_fars
    h = t_fars / n_panels
    mids = ((np.arange(n_panels) + 0.5) / n_panels)[None, :] * t_fars[:, None]
    points = grid.origins[:, None, :] + mids[..., None] * grid.directions[:, None, :]
    sigma = scene.density(points.reshape(-1, 3)).reshape(len(grid), n_panels)
    cum = np.concatenate([np.zeros((len(grid), 1)), np.cumsum(sigma * h[:, None], axis=1)], axis=1)
    alive = target < cum[:, -1]
    panel = np.minimum((cum[:, :-1] <= target[:, None]).sum(axis=1) - 1, n_panels - 1)
    rows = np.arange(len(grid))
    fraction = (target - cum[rows, panel]) / np.maximum(sigma[rows, panel], 1e-300)
    escaped = t_fars - 1e-6 if censored == "boundary" else np.nan
    depths = np.where(alive, panel * h + fraction, escaped) + depth_offset
    keep = np.flatnonzero(np.isfinite(depths) & (depths > 0.0) & (depths < t_fars))
    _, colors = scene.evaluate(grid.origins[keep] + depths[keep, None] * grid.directions[keep])
    return [RgbdSample(ray=grid.ray(int(i)), color=colors[j], depth=float(depths[i])) for j, i in enumerate(keep)]



class ReferenceBatch:
    """The RGB-D batch as four arrays (origins, directions, depths, colors),
    gathered one by one."""

    def __init__(self, origins, directions, t_obs, colors):
        self.origins, self.directions, self.t_obs, self.colors = origins, directions, t_obs, colors

    @classmethod
    def from_samples(cls, batch):
        batch = list(batch)
        return cls(np.concatenate([s.ray.origin for s in batch]).reshape(-1, 3),
                   np.concatenate([s.ray.direction for s in batch]).reshape(-1, 3),
                   np.array([s.depth for s in batch]),
                   np.concatenate([s.color for s in batch]).reshape(-1, 3))

    def take(self, idx):
        return ReferenceBatch(self.origins[idx], self.directions[idx], self.t_obs[idx], self.colors[idx])

    def __len__(self):
        return self.t_obs.shape[0]


def reference_loss_eval(scene, arrays, iteration, config, rng, want_grads):
    """The loss core with one gradient pass per component: its surface
    weights and color share built from its own (3, B) arithmetic, and the
    ground plane's kernel evaluated again for its surface colors."""
    rng = _as_rng(rng)
    b = len(arrays)
    eps = _draw_jitter(rng, b, config.delta)
    pos, q = _draw_free_importance(rng, arrays.t_obs, config.n_free_samples)
    f = config.n_free_samples
    surf_pts = arrays.origins + (arrays.t_obs + eps)[:, None] * arrays.directions
    free_pts = (arrays.origins[:, None, :] + pos[:, :, None] * arrays.directions[:, None, :]).reshape(-1, 3)
    stacked, _ = _check_points(np.concatenate([surf_pts, free_pts], axis=0))
    sigmas = np.empty((scene.n, stacked.shape[0]))
    colors, grads = [], []
    for i, comp in enumerate(scene.components):
        if want_grads:
            raw, rows = comp._raw_density_rows(stacked)
            sigmas[i] = comp._cap(raw)
            live = None if comp.sigma_max is None else raw < comp.sigma_max
            color, offset = comp._color_source(surf_pts)
            inside = (color >= 0.0) & (color <= 1.0)
            color = np.clip(color, 0.0, 1.0)
            grads.append((comp, rows, live, color, inside, offset))
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
    total = depth_mean + color_mean + k_o * overlap_mean
    breakdown = {"depth_nll": depth_mean, "color_nll": color_mean, "overlap": overlap_mean,
                 "overlap_weighted": k_o * overlap_mean, "k_o": k_o, "total": total}
    if not want_grads:
        return total, breakdown, None
    color_live = sig_tot_surf > 0.0
    err = np.subtract(c_pred, arrays.colors.T, order="C")
    err /= config.sigma_c**2
    err *= color_live
    inv_tot = np.where(color_live, 1.0 / np.where(color_live, sig_tot_surf, 1.0), 0.0)
    d_log = np.where(log_live, 1.0 / np.maximum(sig_tot_surf, LOG_DENSITY_FLOOR), 0.0)
    weights = np.empty(stacked.shape[0])
    weights[b:] = (1.0 / (q * f)).ravel()
    grad_parts = []
    for i, (comp, rows, live, color, inside, offset) in enumerate(grads):
        color = color[:, None] if color.ndim == 1 else color.T
        weights[:b] = inv_tot * _sum3((color - c_pred) * err) - d_log + k_o * (dominant != i)
        grad = np.zeros(comp.n_params)
        grad[list(comp.density_params)] = rows @ (weights if live is None else weights * live)
        share = sig_surf[i] * inv_tot
        if np.ndim(offset) == 0:
            grad[offset : offset + 3] += np.where(inside, err @ share, 0.0)
        else:
            slots = offset + np.arange(3)[:, None]
            grad += np.bincount(slots.ravel(), (err * inside.T * share).ravel(), grad.shape[0])
        grad_parts.append(grad / b)
    return total, breakdown, np.concatenate(grad_parts)


def reference_fit(initial_scene, samples, config):
    """The fit loop rebuilding its scene through ``CompositeScene.with_params``
    after every step, on a ``ReferenceBatch`` and ``reference_loss_eval``:
    (trace, final scene, final params, skipped steps)."""
    data = ReferenceBatch.from_samples(samples)
    scene = initial_scene
    params = scene.params()
    lo, hi = np.array([_DOMAINS[d][2] for c in scene.components for _, size, d in c.layout for _ in range(size)]).T
    adam = _Adam(params.shape[0])
    batch_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
    trace, skipped = [], 0
    for it in range(config.iterations):
        idx = batch_rng.choice(len(data), size=min(config.batch_size, len(data)), replace=False)
        loss_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 2, it)))
        _, breakdown, grad = reference_loss_eval(scene, data.take(idx), it, config.loss, loss_rng, True)
        lr = config.learning_rate * config.decay_factor ** (it // config.decay_every)
        norm = float(np.linalg.norm(grad))
        skip = norm > config.skip_norm
        if skip:
            skipped += 1
        else:
            if norm > config.grad_clip_norm:
                grad = grad * (config.grad_clip_norm / norm)
            params = np.clip(params - adam.step(grad, lr), lo, hi)
            scene = scene.with_params(params)
        trace.append(dict(breakdown, iteration=it, grad_norm=norm, learning_rate=lr, skipped=skip))
    return trace, scene, params, skipped


# Strategies.  Field parameters stay in ranges where no kernel overflows, so
# a RuntimeWarning always means a real fault.


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _vec3(lo, hi):
    return st.tuples(_finite(lo, hi), _finite(lo, hi), _finite(lo, hi))


# Colors reach past both clip edges and include -0.0.
COLORS = _vec3(-0.5, 1.5)
AMPLITUDES = st.one_of(st.just(0.0), _finite(0.0, 30.0))
SIGMA_MAX = st.one_of(st.none(), _finite(0.5, 20.0))

BLOBS = st.builds(GaussianBlobField, center=_vec3(-2, 2), scale=_vec3(0.01, 3), amplitude=AMPLITUDES,
                  color=COLORS, sigma_max=SIGMA_MAX)
SPHERES = st.builds(SoftSphereField, center=_vec3(-2, 2), radius=_finite(0.01, 3), softness=_finite(0.001, 1),
                    amplitude=AMPLITUDES, color=COLORS, sigma_max=SIGMA_MAX)
BOXES = st.builds(SoftBoxField, center=_vec3(-2, 2), half_size=_vec3(0.01, 3), softness=_finite(0.001, 1),
                  amplitude=AMPLITUDES, color=COLORS, sigma_max=SIGMA_MAX)
# Points up to 60 from the origin land on both checker cells and, past the
# dome radius, on the dome.
GROUNDS = st.builds(GroundPlaneField, softness=_finite(0.001, 1), amplitude=AMPLITUDES, color_a=COLORS,
                    color_b=COLORS, checker_size=st.one_of(st.just(0.0), _finite(0.1, 2)),
                    dome_radius=_finite(0.5, 40), dome_color=COLORS, sigma_max=SIGMA_MAX)
FIELDS = st.one_of(BLOBS, SPHERES, BOXES, GROUNDS)

POINTS = arrays(np.float64, st.tuples(st.integers(1, 40), st.just(3)), elements=_finite(-60, 60))

SCENES = st.lists(FIELDS, min_size=1, max_size=3).map(lambda fields: CompositeScene(tuple(fields)))


def _unit(v):
    v = np.asarray(v)
    return v / np.linalg.norm(v)


DIRECTIONS = _vec3(-1, 1).filter(lambda v: np.linalg.norm(v) > 0.1).map(_unit)
RAYS = st.builds(Ray, origin=_vec3(-4, 4), direction=DIRECTIONS, t_far=_finite(0.5, 40))


def _grid(rays):
    return RayGrid(
        origins=np.array([r.origin for r in rays]),
        directions=np.array([r.direction for r in rays]),
        t_fars=np.array([r.t_far for r in rays]),
        shape=(len(rays), 1),
    )


GRIDS = st.lists(RAYS, min_size=1, max_size=12).map(_grid)
