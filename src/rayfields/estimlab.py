"""Measurement of a Monte Carlo estimator's bias.

The stratified-bias demo reproduces a hard failure of equispaced-bin stratified
color estimation: a thin bright slab in front of a dim dark backdrop, where
one stray sample in the backdrop region soaks up all the weight whenever the
slab's bin misses, dragging the estimate down by a factor the second
hierarchical round cannot repair.
"""

from __future__ import annotations

import numpy as np

from . import transport
from ._threads import block_rows, chunked_row_map
from .fields import PiecewiseConstantRayField
from .geometry import Ray, _check_integer
from .transport import QuadratureConfig

__all__ = [
    "slab_demo_field",
    "slab_demo_ray",
    "stratified_miss_probability",
    "stratified_bias_demo",
]


def slab_demo_field() -> PiecewiseConstantRayField:
    """Thin bright slab (density 100, white, over [50, 51]) in front of a dim
    dark backdrop (density 10 past 80); cutoff at 100."""
    return PiecewiseConstantRayField(
        axis_origin=(0.0, 0.0, 0.0),
        axis_direction=(1.0, 0.0, 0.0),
        breakpoints=[0.0, 50.0, 51.0, 80.0, 100.0],
        sigmas=[0.0, 100.0, 0.0, 10.0],
        colors=[(0, 0, 0), (1, 1, 1), (0, 0, 0), (0, 0, 0)],
    )


def slab_demo_ray() -> Ray:
    return Ray((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 100.0)


def stratified_miss_probability(k: int, t_far: float, lo: float, hi: float) -> float:
    """Probability that k-bin stratified sampling of [0, t_far] puts no sample
    inside [lo, hi]: the product over bins of (1 - overlap / bin width)."""
    edges = np.arange(k + 1) * (t_far / k)
    overlap = np.clip(np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo), 0.0, None)
    return float(np.prod(1.0 - overlap / (t_far / k)))


def _slab_color_reference(field: PiecewiseConstantRayField, t_far: float) -> float:
    full = transport.analytic_piecewise(field, t_far)
    alpha = 1.0 - full.transmittance
    return float(full.color[0] / alpha)


def _demo_quadrature(k: int, n_trials: int, seed: int, hierarchical: bool) -> QuadratureConfig:
    """The checks of ``stratified_bias_demo``'s arguments: ``n_trials`` first
    (a standard error needs two trials), then its quadrature, which it
    returns."""
    _check_integer(n_trials, "n_trials", 2)
    return QuadratureConfig(n_coarse=k, n_fine=k if hierarchical else 0, seed=seed, stratified=True)


def stratified_bias_demo(k: int = 50, n_trials: int = 10_000, seed: int = 0,
                         hierarchical: bool = False) -> dict:
    """Measure the stratified color estimator on the slab field.

    Returns the empirical mean/SE against the exact renormalized color, the
    empirical slab miss rate against its closed form, and the setup.  With
    ``hierarchical`` a second round of k samples is drawn from the coarse
    weights and merged before compositing (it inherits the same bias).

    Trial t draws its uniforms (coarse, then fine) from its own generator,
    seeded with ``(seed, t)``, and renders as row t of one batched render of
    the slab ray; the trials run in cache-sized blocks of rows on the worker
    pool, joined in order.  Each trial's draws and result depend on it alone,
    so the output depends on neither the block size nor the worker count.
    """
    quad = _demo_quadrature(k, n_trials, seed, hierarchical)
    field = slab_demo_field()
    ray = slab_demo_ray()
    reference = _slab_color_reference(field, ray.t_far)

    def run(lo: int, hi: int):
        draws = [transport._draw_uniforms(np.random.default_rng(np.random.SeedSequence((seed, trial))), 1, quad)
                 for trial in range(lo, hi)]
        u_coarse = np.concatenate([coarse for coarse, _ in draws])
        u_fine = np.concatenate([fine for _, fine in draws]) if hierarchical else None
        n = hi - lo
        t_fars = np.full(n, ray.t_far)
        batch = transport._render_batch(field, np.tile(ray.origin, (n, 1)), np.tile(ray.direction, (n, 1)),
                                        t_fars, quad, (u_coarse, u_fine))
        if not hierarchical:  # the checks explicit samples pass, on every trial's samples
            transport._check_samples(batch["t"], batch["sigma"], None,
                                     transport._ownership_deltas(batch["t"], t_fars))
        ts = batch["t"]
        return batch["color"][:, 0], ~np.any((ts >= 50.0) & (ts <= 51.0), axis=0)

    blocks = chunked_row_map(run, n_trials, block_rows(quad.n_coarse + quad.n_fine))
    colors, misses = map(np.concatenate, zip(*blocks))
    mean = float(colors.mean())
    se = float(colors.std(ddof=1) / np.sqrt(n_trials))
    miss_rate = float(misses.mean())
    miss_se = float(misses.std(ddof=1) / np.sqrt(n_trials))
    return {
        "k": k,
        "n_trials": n_trials,
        "hierarchical": hierarchical,
        "analytic_color": reference,
        "empirical_mean": mean,
        "std_error": se,
        "bias": mean - reference,
        "miss_rate": miss_rate,
        "miss_rate_std_error": miss_se,
        "analytic_miss_probability": stratified_miss_probability(k, ray.t_far, 50.0, 51.0),
    }
