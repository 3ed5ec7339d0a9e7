"""Superposition of fields: joint depth/component distributions, segmentation.

A scene of n fields behaves as one field whose density is the sum of the
member densities and whose color is the density-weighted mean of the member
colors.  The depth distribution factors through components: the mass a ray
assigns to component i is the weight-sum of sigma_i / sigma_total along it,
and the residual (reaching t_far unabsorbed) accounts for the rest.

A scene checks its points once per call and evaluates each component once
on them.  A component whose color is the same everywhere hands over a
single (3,) row, and ``_mix`` adds the density-weighted colors one
component at a time, so no (N, n, 3) color array is built on the render,
``evaluate``, ``composite_eval`` or loss paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transport
from ._threads import block_rows, chunked_row_map
from .fields import Field, UnsupportedGradient, _check_points, _rows
from .geometry import Ray, RayGrid
from .transport import EMPTY_WEIGHT_EPS, QuadratureConfig, RenderResult

__all__ = [
    "NEUTRAL_COLOR",
    "EMPTY_SEGMENT",
    "CompositeScene",
    "CompositePoint",
    "CompositeRenderResult",
    "RenderedView",
    "composite_eval",
    "joint_depth_component_pdf",
    "component_marginal",
    "segment_ray",
    "composite_render",
    "render_ray_grid",
    "mixture_render_constant",
    "merged_field",
]

# Color reported where total density vanishes (flagged, never absorbed).
NEUTRAL_COLOR = np.array([0.5, 0.5, 0.5])

# Label for rays that hit nothing.
EMPTY_SEGMENT = -1


def _mix(sigmas: np.ndarray, colors) -> tuple[np.ndarray, np.ndarray]:
    """Summed density (N,) and density-weighted mean color (N, 3) of
    per-component densities (N, n) and one color per component, each
    (N, 3) or a single (3,) row; NEUTRAL_COLOR where the sum vanishes.

    The weighted colors are added into one buffer, starting from 0 and in
    component order: the order ``sum(axis=1)`` adds the rows of a C-ordered
    (N, n, 3) stack in, so the result is bit-identical to mixing such a
    stack, which is never built.  The buffer is channel-major (3, N), so
    every pass runs over contiguous points."""
    total = sigmas.sum(axis=1)
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


@dataclass(frozen=True)
class CompositeScene:
    """Ordered fields sharing one space; ``t_far`` is the scene's default cutoff."""

    components: tuple[Field, ...]
    t_far: float = 40.0

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) < 1:
            raise ValueError("a scene needs at least one component")
        if not all(isinstance(c, Field) for c in comps):
            raise TypeError("components must be Field instances")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "t_far", float(self.t_far))
        if not 0 < self.t_far < np.inf:
            raise ValueError("t_far must be positive and finite")

    @property
    def n(self) -> int:
        return len(self.components)

    def _components(self, pts: np.ndarray):
        """Per-component densities (N, n) and clipped colors (a list of n,
        each (N, 3) or one (3,) row) at checked points (N, 3)."""
        sigmas = np.empty((pts.shape[0], self.n))
        colors = []
        for i, comp in enumerate(self.components):
            sigmas[:, i], color = comp._density_color(pts)
            colors.append(color)
        return sigmas, colors

    def _density_components(self, pts: np.ndarray) -> np.ndarray:
        """Per-component densities (N, n) at checked points (N, 3)."""
        sigmas = np.empty((pts.shape[0], self.n))
        for i, comp in enumerate(self.components):
            sigmas[:, i] = comp._density(pts)
        return sigmas

    def _evaluate(self, pts: np.ndarray):
        """Total density, mixed color and per-component densities at checked
        points (N, 3)."""
        sigmas, colors = self._components(pts)
        if self.n == 1:  # a lone component's color is its own: (s * c) / s may differ
            return sigmas[:, 0], _rows(colors[0], pts.shape[0]), sigmas
        total, color = _mix(sigmas, colors)
        return total, color, sigmas

    def evaluate_components(self, points, direction=None):
        """Per-component densities (N, n) and colors (N, n, 3)."""
        pts, single = _check_points(points)
        sigmas, colors = self._components(pts)
        colors = np.stack([np.broadcast_to(c, pts.shape) for c in colors], axis=1)
        if single:
            return sigmas[0], colors[0]
        return sigmas, colors

    def density_components(self, points):
        """Per-component densities (N, n), bit-identical to
        ``evaluate_components(...)[0]`` without the color work."""
        pts, single = _check_points(points)
        sigmas = self._density_components(pts)
        if single:
            return sigmas[0]
        return sigmas

    def density(self, points):
        """Total density, bit-identical to ``evaluate(...)[0]``."""
        pts, single = _check_points(points)
        total = self._density_components(pts).sum(axis=1)
        if single:
            return float(total[0])
        return total

    def evaluate_with_components(self, points):
        """Total density (N,), mixed color (N, 3) and the per-component
        densities (N, n) behind them, from one evaluation of each component."""
        pts, _ = _check_points(points)
        return self._evaluate(pts)

    def evaluate(self, points, direction=None):
        """Total density and density-weighted mean color (the field contract,
        so scenes slot into any transport routine)."""
        pts, single = _check_points(points)
        total, color, _ = self._evaluate(pts)
        if single:
            return float(total[0]), color[0]
        return total, color

    def params(self) -> np.ndarray:
        return np.concatenate([c.params() for c in self.components])

    def with_params(self, vector) -> "CompositeScene":
        v = np.asarray(vector, dtype=np.float64)
        sizes = [c.n_params for c in self.components]
        if v.shape != (sum(sizes),):
            raise ValueError(f"expected {sum(sizes)} parameters, got shape {v.shape}")
        out = []
        at = 0
        for c, size in zip(self.components, sizes):
            out.append(c.with_params(v[at : at + size]))
            at += size
        return CompositeScene(tuple(out), self.t_far)


@dataclass(frozen=True)
class CompositePoint:
    """Point query of a scene: total and per-component densities, mean color."""

    sigma: float
    sigmas: np.ndarray
    color: np.ndarray
    color_defined: bool


def composite_eval(scene: CompositeScene, x, d=None) -> CompositePoint:
    """Total density, per-component densities, and expected color at a point.

    Where total density vanishes the color is a flagged neutral gray.
    """
    pts, single = _check_points(x)
    if not single:
        raise ValueError(f"x must be one point (3,), got {np.shape(x)}")
    sigmas, colors = scene._components(pts)
    total, color = _mix(sigmas, colors)
    return CompositePoint(float(total[0]), sigmas[0], color[0], bool(total[0] > 0.0))


def joint_depth_component_pdf(scene: CompositeScene, ray: Ray, t: float, quad: QuadratureConfig) -> np.ndarray:
    """Unnormalized joint density over (depth, component): sigma_i(r(t)) * T(t)
    with T taken under the total density."""
    from .geometry import ray_at

    sigmas = scene.density_components(ray_at(ray, float(t)))
    return sigmas * transport.transmittance(scene, ray, t, quad)


def _marginals_from_batch(batch: dict) -> tuple[np.ndarray, np.ndarray]:
    """Component mass per ray from a render batch: sum over samples of
    weight * sigma_i / sigma_total, with the per-component densities the
    batch was composited from; residual is survival to t_far."""
    share = batch["sigmas"]
    sig_tot = batch["sigma"]
    live = sig_tot > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(live[:, :, None], share / np.where(live, sig_tot, 1.0)[:, :, None], 0.0)
    marginal = (batch["weights"][:, :, None] * frac).sum(axis=1)
    return marginal, batch["transmittance_far"]


def component_marginal(scene: CompositeScene, ray: Ray, quad: QuadratureConfig) -> tuple[np.ndarray, float]:
    """Per-component depth mass (n,) plus the vacuum residual; together they
    sum to ~1."""
    rng = np.random.default_rng(quad.seed)
    batch = transport._render_batch(
        scene, ray.origin[None, :], ray.direction[None, :], np.array([ray.t_far]), quad, rng
    )
    marginal, residual = _marginals_from_batch(batch)
    return marginal[0], float(residual[0])


def segment_ray(scene: CompositeScene, ray: Ray, quad: QuadratureConfig) -> int:
    """Index of the component holding the most depth mass; EMPTY_SEGMENT (-1)
    when the ray absorbs (almost) nothing.  Ties go to the lowest index."""
    marginal, _ = component_marginal(scene, ray, quad)
    if marginal.sum() <= EMPTY_WEIGHT_EPS:
        return EMPTY_SEGMENT
    return int(np.argmax(marginal))


@dataclass(frozen=True)
class CompositeRenderResult:
    """RenderResult plus the per-component mass split."""

    render: RenderResult
    marginal: np.ndarray
    residual: float

    @property
    def label(self) -> int:
        if self.marginal.sum() <= EMPTY_WEIGHT_EPS:
            return EMPTY_SEGMENT
        return int(np.argmax(self.marginal))


def composite_render(scene: CompositeScene, ray: Ray, quad: QuadratureConfig) -> CompositeRenderResult:
    """Hierarchical render of the scene's total field plus component masses.

    Matches transport.hierarchical_render bit for bit on the shared outputs
    (same draws, same arithmetic).
    """
    rng = np.random.default_rng(quad.seed)
    batch = transport._render_batch(
        scene, ray.origin[None, :], ray.direction[None, :], np.array([ray.t_far]), quad, rng
    )
    marginal, residual = _marginals_from_batch(batch)
    return CompositeRenderResult(transport._single_ray_result(batch), marginal[0], float(residual[0]))


@dataclass(frozen=True)
class RenderedView:
    """Full-image render: colors, depths, alpha, component masses, labels.

    ``labels`` uses component indices with EMPTY_SEGMENT (-1) for empty rays;
    ``depth`` is NaN on empty rays while ``depth_raw`` is always finite.
    """

    color: np.ndarray
    depth: np.ndarray
    depth_raw: np.ndarray
    alpha: np.ndarray
    labels: np.ndarray
    marginals: np.ndarray
    residual: np.ndarray
    empty: np.ndarray


def render_ray_grid(scene: CompositeScene, grid: RayGrid, quad: QuadratureConfig) -> RenderedView:
    """Render one ray per pixel.  All draws happen up front from the config
    seed; rows are then processed in blocks of about ``BLOCK_POINTS`` sample
    points, spread over the workers (neither changes bits).
    """
    n = len(grid)
    h, w = grid.shape
    rng = np.random.default_rng(quad.seed)
    u_coarse, u_fine = transport._draw_uniforms(rng, n, quad)

    color = np.empty((n, 3))
    depth = np.empty(n)
    depth_raw = np.empty(n)
    alpha = np.empty(n)
    marginals = np.empty((n, scene.n))
    residual = np.empty(n)
    empty = np.empty(n, dtype=bool)

    def run(lo: int, hi: int) -> None:
        batch = transport._render_batch(
            scene,
            grid.origins[lo:hi],
            grid.directions[lo:hi],
            grid.t_fars[lo:hi],
            quad,
            rng=None,
            draws=(
                None if u_coarse is None else u_coarse[lo:hi],
                None if u_fine is None else u_fine[lo:hi],
            ),
        )
        marg, res = _marginals_from_batch(batch)
        color[lo:hi] = batch["color"]
        depth[lo:hi] = batch["depth"]
        depth_raw[lo:hi] = batch["depth_raw"]
        alpha[lo:hi] = batch["alpha"]
        marginals[lo:hi] = marg
        residual[lo:hi] = res
        empty[lo:hi] = batch["empty"]

    chunked_row_map(run, n, block_rows(quad.n_coarse + quad.n_fine))

    labels = np.where(
        marginals.sum(axis=1) <= EMPTY_WEIGHT_EPS,
        EMPTY_SEGMENT,
        np.argmax(marginals, axis=1),
    ).astype(np.int32)
    return RenderedView(
        color=color.reshape(h, w, 3),
        depth=depth.reshape(h, w),
        depth_raw=depth_raw.reshape(h, w),
        alpha=alpha.reshape(h, w),
        labels=labels.reshape(h, w),
        marginals=marginals.reshape(h, w, scene.n),
        residual=residual.reshape(h, w),
        empty=empty.reshape(h, w),
    )


def mixture_render_constant(sigmas, colors) -> np.ndarray:
    """Closed-form color of constant densities over an unbounded ray: the
    density-share mixture of the component colors."""
    s = np.asarray(sigmas, dtype=np.float64)
    c = np.asarray(colors, dtype=np.float64)
    if s.ndim != 1 or c.shape != (s.shape[0], 3):
        raise ValueError("need sigmas (n,) and colors (n, 3)")
    if np.any(s < 0):
        raise ValueError("densities must be non-negative")
    if s.sum() == 0.0:
        raise ValueError("all densities are zero; the mixture color is undefined")
    return _mix(s[None, :], list(c))[1][0]


class _MergedField(Field):
    """A scene flattened into a single field (summed density, mixed color)."""

    kind = "merged"

    def __init__(self, scene: CompositeScene):
        self._scene = scene

    def _raw(self, pts):
        return self._scene._evaluate(pts)[:2]

    def _raw_density(self, pts):
        return self._scene._density_components(pts).sum(axis=1)

    def params(self) -> np.ndarray:
        return self._scene.params()

    def with_params(self, vector):
        raise UnsupportedGradient("merged fields are read-only views")


def merged_field(scene: CompositeScene) -> Field:
    """View a scene as one field; renders of the two are identical."""
    return _MergedField(scene)
