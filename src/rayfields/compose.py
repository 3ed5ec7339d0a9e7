"""Superposition of fields: joint depth/component distributions, segmentation.

A scene of n fields behaves as one field whose density is the sum of the
member densities and whose color is the density-weighted mean of the member
colors.  The depth distribution factors through components: the mass a ray
assigns to component i is the weight-sum of sigma_i / sigma_total along it,
and the residual (reaching t_far unabsorbed) accounts for the rest.

A scene checks its points once per call and evaluates each component once
on them.  Inside, the batch is component-major and channel-major: the
per-component densities are contiguous rows (n, N) and colors are rows
(3, N), so every pass over points reads contiguous memory.  A component
whose color is the same everywhere hands over a single (3,) row, and
``_mix`` adds the density-weighted colors one component at a time, so no
(N, n, 3) color array is built on the render, ``evaluate``,
``composite_eval`` or loss paths.  ``fields._total`` sums the (n, N)
rows over components in the order NumPy summed (N, n) points.  A render
batch is samples-major on top of that (see transport.py): its component
densities are (n, S, N), so the component masses sum whole (n, N) rows
over samples.  The public methods return points-major
C-ordered arrays ((N, n) densities, (N, 3) colors), as they always have.

A scene owns only the batch methods ``_evaluate`` and
``_density_components``: its ``evaluate`` and ``density`` are every field's
(``fields._PointQueries``), and every total density that it, its merged
view or a render pass returns is ``fields._density_total`` of the component
rows.  ``_mix`` and the loss keep ``_total``: their references are stacked
(N, n) sums.

Segmentation (``segment_ray``, ``component_marginal``) reads the depth law
alone: its render pass evaluates per-component densities only and stops at
the weights, so no component color is clipped, gathered or mixed for it.
Its masses are bit-identical to ``composite_render``'s, and like every
single-ray call without a generator it reuses its quadrature's memoized
draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transport
from ._threads import block_rows, chunked_row_map
from .fields import (Field, UnsupportedGradient, _channel_rows, _check_points, _density_total, _PointQueries,
                     _scene_layout, _total)
from .geometry import Ray, RayGrid, _real, ray_at
from .transport import EMPTY_WEIGHT_EPS, QuadratureConfig, RenderResult, _sum_samples

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
    """Summed density (N,) and density-weighted mean color as channel-major
    rows (3, N) of per-component densities as rows (n, N) and one color per
    component, each (N, 3) or a single (3,) row; NEUTRAL_COLOR where the
    sum vanishes.

    The weighted colors are added into one (3, N) buffer, starting from 0
    and in component order: the order ``sum(axis=1)`` adds the rows of a
    C-ordered (N, n, 3) stack in, so the result is bit-identical to mixing
    such a stack, which is never built.  Each density row is read where it
    lies, and the total comes from ``_total``."""
    total = _total(sigmas)
    live = total > 0.0
    safe = np.where(live, total, 1.0)
    acc = np.zeros((3, sigmas.shape[1]))
    term = np.empty_like(acc)
    for weight, c in zip(sigmas, colors):
        acc += np.multiply(weight, c[:, None] if c.ndim == 1 else c.T, out=term)
    acc /= safe
    acc[:, ~live] = NEUTRAL_COLOR[:, None]
    return total, acc


@dataclass(frozen=True)
class CompositeScene(_PointQueries):
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
        object.__setattr__(self, "t_far", _real(self.t_far, "t_far"))
        if not self.t_far > 0:
            raise ValueError("t_far must be positive")

    @property
    def n(self) -> int:
        return len(self.components)

    def _components(self, pts: np.ndarray):
        """Per-component densities as rows (n, N) and clipped colors (a list
        of n, each (N, 3) or one (3,) row) at checked points (N, 3)."""
        sigmas = np.empty((self.n, pts.shape[0]))
        return sigmas, [comp._density_color(pts, out=row)[1] for row, comp in zip(sigmas, self.components)]

    def _density_components(self, pts: np.ndarray) -> np.ndarray:
        """Per-component densities as rows (n, N) at checked points (N, 3)."""
        sigmas = np.empty((self.n, pts.shape[0]))
        for row, comp in zip(sigmas, self.components):
            comp._density(pts, out=row)
        return sigmas

    def _evaluate(self, pts: np.ndarray):
        """Total density (N,), mixed color as rows (3, N) and per-component
        densities as rows (n, N) at checked points (N, 3)."""
        sigmas, colors = self._components(pts)
        if self.n == 1:  # a lone component's color is its own: (s * c) / s may differ
            return _density_total(sigmas), _channel_rows(colors[0], pts.shape[0]), sigmas
        total, color = _mix(sigmas, colors)
        return total, color, sigmas

    def evaluate_components(self, points, direction=None):
        """Per-component densities (N, n) and colors (N, n, 3)."""
        pts, single = _check_points(points)
        sigmas, colors = self._components(pts)
        stack = np.empty((pts.shape[0], self.n, 3))
        for i, c in enumerate(colors):
            stack[:, i] = c
        if single:
            return sigmas[:, 0], stack[0]
        return sigmas.T.copy(), stack

    def density_components(self, points):
        """Per-component densities (N, n), bit-identical to
        ``evaluate_components(...)[0]`` without the color work."""
        pts, single = _check_points(points)
        sigmas = self._density_components(pts)
        if single:
            return sigmas[:, 0]
        return sigmas.T.copy()

    def params(self) -> np.ndarray:
        return np.concatenate([c.params() for c in self.components])

    def with_params(self, vector) -> "CompositeScene":
        """The scene with parameters ``vector``, checked once, whole, against the scene's layout
        (float64, shape, finiteness, each domain rule); if it passes, each component is built from its span
        unchecked.  Else, or with a kind that has no layout, each component's ``with_params`` runs
        in turn, so the first failing constructor's error is raised."""
        v = np.asarray(vector)
        layout = _scene_layout(tuple(map(type, self.components)))
        if (layout is not None and v.dtype == np.float64 and v.shape == (layout.size,) and np.isfinite(v).all()
                and all(test(v[slots]).all() for slots, test in layout.rules)):
            spans = zip(self.components, layout.spans)
            return CompositeScene(tuple(c._with_checked_params(v[a:b]) for c, (a, b) in spans), self.t_far)
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

    Where total density vanishes the color is a flagged neutral gray;
    elsewhere it is ``scene.evaluate(x)[1]``, bit for bit.
    """
    pts, single = _check_points(x)
    if not single:
        raise ValueError(f"x must be one point (3,), got {np.shape(x)}")
    total, color, sigmas = scene._evaluate(pts)
    defined = bool(total[0] > 0.0)
    return CompositePoint(float(total[0]), sigmas[:, 0], color[:, 0].copy() if defined else NEUTRAL_COLOR.copy(),
                          defined)


def joint_depth_component_pdf(scene: CompositeScene, ray: Ray, t: float, quad: QuadratureConfig) -> np.ndarray:
    """Unnormalized joint density over (depth, component): sigma_i(r(t)) * T(t)
    with T taken under the total density."""
    sigmas = scene.density_components(ray_at(ray, t))
    return sigmas * transport.transmittance(scene, ray, t, quad)


def _marginals_from_batch(batch: dict) -> tuple[np.ndarray, np.ndarray]:
    """Component mass per ray (N, n) from a samples-major render batch: sum
    over samples of weight * sigma_i / sigma_total, with the per-component
    densities the batch was composited from ((n, S, N)); residual is
    survival to t_far.

    Where the total vanishes, so does every share, and the sample adds 0.
    The sums run over samples in the order ``sum(axis=1)`` reduced (N, S, n)
    products in: one after the other from 0.0, except that a lone
    component's are summed pairwise (its component axis has length 1, so
    the samples axis was contiguous)."""
    share = batch["sigmas"]
    sig_tot = batch["sigma"]
    terms = share / np.where(sig_tot > 0.0, sig_tot, 1.0)
    terms *= batch["weights"]
    marginal = _total(terms[0])[None] if share.shape[0] == 1 else _sum_samples(terms)
    return np.ascontiguousarray(marginal.T), batch["transmittance_far"]


def _labels(marginals: np.ndarray) -> np.ndarray:
    """Per row of component masses (N, n): the index of the component
    holding the most, EMPTY_SEGMENT (-1) where the row holds (almost)
    nothing.  Ties go to the lowest index."""
    empty = marginals.sum(axis=1) <= EMPTY_WEIGHT_EPS
    return np.where(empty, EMPTY_SEGMENT, np.argmax(marginals, axis=1)).astype(np.int32)


@dataclass(frozen=True)
class CompositeRenderResult:
    """RenderResult plus the per-component mass split."""

    render: RenderResult
    marginal: np.ndarray
    residual: float

    @property
    def label(self) -> int:
        return int(_labels(self.marginal[None, :])[0])


def composite_render(scene: CompositeScene, ray: Ray, quad: QuadratureConfig) -> CompositeRenderResult:
    """Hierarchical render of the scene's total field plus component masses.

    Matches transport.hierarchical_render bit for bit on the shared outputs
    (same draws, same arithmetic).
    """
    batch = transport._render_ray(scene, ray, quad)
    marginal, residual = _marginals_from_batch(batch)
    return CompositeRenderResult(transport._single_ray_result(batch), marginal[0], float(residual[0]))


def component_marginal(scene: CompositeScene, ray: Ray, quad: QuadratureConfig) -> tuple[np.ndarray, float]:
    """Per-component depth mass (n,) plus the vacuum residual; together they
    sum to ~1."""
    marginal, residual = _marginals_from_batch(transport._render_ray(scene, ray, quad, colors=False))
    return marginal[0], float(residual[0])


def segment_ray(scene: CompositeScene, ray: Ray, quad: QuadratureConfig) -> int:
    """Index of the component holding the most depth mass; EMPTY_SEGMENT (-1)
    when the ray absorbs (almost) nothing.  Ties go to the lowest index."""
    return int(_labels(_marginals_from_batch(transport._render_ray(scene, ray, quad, colors=False))[0])[0])


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
    seed; rows are then rendered in blocks of about ``BLOCK_POINTS`` sample
    points on the workers and joined in order (neither changes bits).
    """
    h, w = grid.shape
    u_coarse, u_fine = transport._draw_uniforms(np.random.default_rng(quad.seed), len(grid), quad)

    def run(lo: int, hi: int):
        batch = transport._render_batch(
            scene,
            grid.origins[lo:hi],
            grid.directions[lo:hi],
            grid.t_fars[lo:hi],
            quad,
            (None if u_coarse is None else u_coarse[lo:hi], None if u_fine is None else u_fine[lo:hi]),
        )
        return (batch["color"], batch["depth"], batch["depth_raw"], batch["alpha"],
                *_marginals_from_batch(batch), batch["empty"])

    blocks = chunked_row_map(run, len(grid), block_rows(quad.n_coarse + quad.n_fine))
    color, depth, depth_raw, alpha, marginals, residual, empty = map(np.concatenate, zip(*blocks))
    return RenderedView(
        color=np.ascontiguousarray(color).reshape(h, w, 3),  # joined from transposed (3, N) rows
        depth=depth.reshape(h, w),
        depth_raw=depth_raw.reshape(h, w),
        alpha=alpha.reshape(h, w),
        labels=_labels(marginals).reshape(h, w),
        marginals=marginals.reshape(h, w, scene.n),
        residual=residual.reshape(h, w),
        empty=empty.reshape(h, w),
    )


def mixture_render_constant(sigmas, colors) -> np.ndarray:
    """Closed-form color of constant densities over an unbounded ray: the
    density-share mixture of the component colors."""
    s = _real(sigmas, "sigmas", None)
    c = _real(colors, "colors", None)
    if np.ndim(s) != 1 or np.shape(c) != (len(s), 3):
        raise ValueError("need sigmas (n,) and colors (n, 3)")
    if np.any(s < 0):
        raise ValueError("densities must be non-negative")
    if s.sum() == 0.0:
        raise ValueError("all densities are zero; the mixture color is undefined")
    return _mix(s[:, None], list(c))[1][:, 0]


class _MergedField(Field):
    """A scene flattened into a single field (summed density, mixed color)."""

    kind = "merged"
    sigma_max = None

    def __init__(self, scene: CompositeScene):
        self._scene = scene

    def _raw(self, pts):
        total, color, _ = self._scene._evaluate(pts)
        return total, color.T

    def _raw_density(self, pts):
        return _density_total(self._scene._density_components(pts))  # as ``_raw`` forms it

    def params(self) -> np.ndarray:
        return self._scene.params()

    def with_params(self, vector):
        raise UnsupportedGradient("merged fields are read-only views")


def merged_field(scene: CompositeScene) -> Field:
    """View a scene as one field; renders of the two are identical."""
    return _MergedField(scene)
