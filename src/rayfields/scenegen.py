"""Random tabletop scenes with analytic RGB-D ground truth.

Objects (blobs, spheres, boxes) sit bottom-flush on the ground plane inside
a square placement box; a rejection loop enforces a bounding-circle
separation rule and the whole scene restarts when it stalls.  Each object
kind builds itself from its footprint (``on_footprint``) and states its
bounding circle (``footprint_radius``).  Ground-truth depth and masks come
from closed-form surface intersections: soft-edged densities are treated as
hard surfaces at their half-maximum level set, which each field kind
computes itself (``fields``, with the intersections in ``geometry``).
Supervision colors come from rendering the scene itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._threads import block_rows, chunked_row_map
from .compose import CompositeScene, render_ray_grid
from .fields import DEFAULT_SIGMA_MAX, FIELD_KINDS, HALF_MAX_RADIUS, Field, GroundPlaneField
from .geometry import Camera, RayGrid, pinhole_rays
from .losses import RgbdSample
from .transport import QuadratureConfig, _panels

__all__ = [
    "HALF_MAX_RADIUS",
    "PALETTE",
    "PlacementError",
    "SceneGenConfig",
    "GroundTruth",
    "default_camera",
    "sample_scene",
    "surface_distance",
    "ground_truth_maps",
    "render_dataset",
    "surface_samples",
    "sample_observations",
    "samples_from_views",
]

# Eight fixed object colors (linear RGB).
PALETTE = (
    (0.34, 0.34, 0.34),
    (0.68, 0.14, 0.14),
    (0.16, 0.29, 0.84),
    (0.11, 0.41, 0.08),
    (0.51, 0.29, 0.10),
    (0.51, 0.15, 0.75),
    (0.16, 0.82, 0.82),
    (0.95, 0.88, 0.19),
)


class PlacementError(RuntimeError):
    """Raised when no valid object arrangement is found."""


@dataclass(frozen=True)
class SceneGenConfig:
    n_objects_min: int = 2
    n_objects_max: int = 4
    placement_halfwidth: float = 2.9
    min_separation_factor: float = 1.1
    max_attempts: int = 20
    max_restarts: int = 100
    size_min: float = 0.35
    size_max: float = 0.75
    kinds: tuple[str, ...] = ("gaussian_blob", "soft_sphere", "soft_box")
    edge_softness: float = 0.03
    sigma_max: float = DEFAULT_SIGMA_MAX
    t_far: float = 40.0
    resolution: int = 64
    ground_color: tuple = (0.62, 0.62, 0.62)
    ground_color_b: tuple = (0.52, 0.52, 0.52)
    checker_size: float = 0.0
    dome_radius: float = 30.0
    dome_color: tuple = (0.55, 0.60, 0.68)

    def __post_init__(self):
        if not 1 <= self.n_objects_min <= self.n_objects_max:
            raise ValueError("need 1 <= n_objects_min <= n_objects_max")
        if self.size_min <= 0 or self.size_min > self.size_max:
            raise ValueError("bad size range")
        if self.placement_halfwidth <= 0 or self.max_attempts < 1 or self.max_restarts < 1:
            raise ValueError("bad placement settings")


def default_camera(config: SceneGenConfig) -> Camera:
    """Rig base: elevated, looking at the table center."""
    return Camera(
        position=(4.6, 0.0, 2.4),
        look_at=(0.0, 0.0, 0.5),
        width=config.resolution,
        height=config.resolution,
        up=(0.0, 0.0, 1.0),
    )


def _background(config: SceneGenConfig) -> GroundPlaneField:
    return GroundPlaneField(
        softness=0.05,
        amplitude=config.sigma_max,
        color_a=config.ground_color,
        color_b=config.ground_color_b,
        checker_size=config.checker_size,
        dome_radius=config.dome_radius,
        dome_color=config.dome_color,
        sigma_max=config.sigma_max,
    )


def _make_object(kind: str, xy: np.ndarray, size: float, color, config: SceneGenConfig) -> tuple[Field, float]:
    """Build one object bottom-flush with the ground; returns it with its
    xy bounding-circle radius."""
    cls = FIELD_KINDS.get(kind)
    if cls is None or cls.footprint_radius is None:
        raise ValueError(f"unknown object kind {kind!r}")
    field = cls.on_footprint(xy, size, color, config.edge_softness, config.sigma_max)
    return field, size * cls.footprint_radius


def sample_scene(config: SceneGenConfig, rng: np.random.Generator) -> tuple[CompositeScene, list[dict]]:
    """Rejection-sample objects, append the background, return scene + metadata.

    Draw order per scene build: object count, then per attempt kind, size,
    color, x, y.  An attempt conflicting with a placed object is discarded;
    when the build exceeds max_attempts the whole scene restarts.
    """
    for _ in range(config.max_restarts):
        n_objects = int(rng.integers(config.n_objects_min, config.n_objects_max + 1))
        placed: list[dict] = []
        attempts = 0
        while len(placed) < n_objects and attempts < config.max_attempts:
            attempts += 1
            kind = config.kinds[int(rng.integers(len(config.kinds)))]
            size = float(rng.uniform(config.size_min, config.size_max))
            color = PALETTE[int(rng.integers(len(PALETTE)))]
            xy = rng.uniform(-config.placement_halfwidth, config.placement_halfwidth, 2)
            field, radius = _make_object(kind, xy, size, color, config)
            clash = any(
                np.hypot(*(xy - other["xy"])) < config.min_separation_factor * (radius + other["radius"])
                for other in placed
            )
            if clash:
                continue
            placed.append({
                "kind": kind,
                "name": f"object_{len(placed) + 1}",
                "xy": xy,
                "size": size,
                "radius": radius,
                "color": color,
                "field": field,
            })
        if len(placed) == n_objects:
            fields = tuple(p["field"] for p in placed) + (_background(config),)
            meta = [
                {k: v for k, v in p.items() if k != "field"} for p in placed
            ]
            return CompositeScene(fields, t_far=config.t_far), meta
    raise PlacementError(
        f"no valid arrangement after {config.max_restarts} restarts; relax the placement settings"
    )


def surface_distance(field: Field, origins, dirs) -> np.ndarray:
    """Distance to the field's half-maximum surface (inf when missed)."""
    return field._surface_distance(np.asarray(origins, dtype=np.float64), np.asarray(dirs, dtype=np.float64))


@dataclass(frozen=True)
class GroundTruth:
    """One view's supervision: rendered color, analytic depth, analytic mask.

    Mask ids: 0 background (or nothing), 1..n the scene's objects in
    component order.  Depth is inf where no surface is met.
    """

    camera: Camera
    rgb: np.ndarray
    depth: np.ndarray
    mask: np.ndarray


def ground_truth_maps(scene: CompositeScene, grid: RayGrid, background_last: bool = True):
    """Analytic depth (H, W) and mask (H, W) for a ray grid."""
    h, w = grid.shape
    n = len(grid)
    hits = np.full((n, scene.n), np.inf)
    for i, comp in enumerate(scene.components):
        hits[:, i] = surface_distance(comp, grid.origins, grid.directions)
    hits = np.where(hits <= grid.t_fars[:, None], hits, np.inf)
    nearest = np.argmin(hits, axis=1)
    depth = hits[np.arange(n), nearest]
    labels = nearest + 1
    if background_last:
        labels = np.where(nearest == scene.n - 1, 0, labels)
    labels = np.where(np.isfinite(depth), labels, 0)
    return depth.reshape(h, w), labels.reshape(h, w).astype(np.int32)


def _view_seed(seed: int, view: int) -> int:
    """Render seed of rig view ``view`` under quadrature seed ``seed``."""
    return int(np.random.SeedSequence((seed, view)).generate_state(1, dtype=np.uint64)[0])


def render_dataset(scene: CompositeScene, rig, resolution: int | None,
                   quad: QuadratureConfig) -> list[GroundTruth]:
    """Supervision for each rig view: rendered colors plus analytic depth/mask.

    Each view renders with its own seed derived from (quad.seed, view index).
    """
    views: list[GroundTruth] = []
    for v, camera in enumerate(rig):
        if resolution is not None:
            camera = replace(camera, width=resolution, height=resolution)
        grid = pinhole_rays(camera, scene.t_far)
        rendered = render_ray_grid(scene, grid, replace(quad, seed=_view_seed(quad.seed, v)))
        depth, mask = ground_truth_maps(scene, grid)
        views.append(GroundTruth(camera=camera, rgb=rendered.color, depth=depth, mask=mask))
    return views


def _grid_samples(grid: RayGrid, depths: np.ndarray, colors_of, keep=True) -> list[RgbdSample]:
    """Supervised rays of the grid rows whose depth (one per row) is finite
    and inside (0, t_far), among the rows ``keep`` allows; ``colors_of(rows)``
    gives those rows' colors (len(rows), 3)."""
    rows = np.flatnonzero(np.isfinite(depths) & (depths > 0.0) & (depths < grid.t_fars) & keep)
    colors = colors_of(rows)
    return [
        RgbdSample(ray=grid.ray(int(i)), color=colors[j], depth=float(depths[i]))
        for j, i in enumerate(rows)
    ]


def _view_samples(camera: Camera, rgb: np.ndarray, depth: np.ndarray, t_far: float,
                  keep=True) -> list[RgbdSample]:
    """Supervised rays of one view: its pixels' colors (H, W, 3) and depths
    (H, W) on the camera's rays, cut at ``t_far``."""
    flat = rgb.reshape(-1, 3)
    return _grid_samples(pinhole_rays(camera, t_far), depth.ravel(), lambda rows: flat[rows], keep)


def _scene_colors(scene: CompositeScene, grid: RayGrid, depths: np.ndarray):
    """``colors_of`` for ``_grid_samples``: the scene's mixed color at each
    row's depth."""
    return lambda rows: scene.evaluate(grid.origins[rows] + depths[rows, None] * grid.directions[rows])[1]


def surface_samples(scene: CompositeScene, grid: RayGrid) -> list[RgbdSample]:
    """Sharp geometric supervision: depth at the nearest analytic surface,
    color as the scene's density-weighted mixture at that exact point.  Rays
    that meet no surface inside their cutoff are dropped.  (Rendered-image
    supervision mixes translucent-fringe colors along the ray; this variant
    keeps the colors pure.  Note the depth is the half-maximum shell, not a
    draw from the depth law — see ``sample_observations`` for that.)
    """
    depth = ground_truth_maps(scene, grid)[0].ravel()
    return _grid_samples(grid, depth, _scene_colors(scene, grid, depth))


def sample_observations(scene: CompositeScene, grid: RayGrid, seed: int,
                        n_panels: int = 2048, depth_offset: float = 0.0,
                        censored: str = "drop") -> list[RgbdSample]:
    """One observation per ray drawn from the scene's own depth law.

    The depth is an inverse-CDF draw from the density sigma(r(t)) * T(t):
    optical depth accumulates over midpoint panels and the draw interpolates
    linearly inside the landing panel (exact for panel-constant density).
    The color is the scene's density-weighted mixture at the drawn point.

    ``censored`` picks the treatment of draws that escape past the ray
    cutoff: ``"drop"`` discards those rays, ``"boundary"`` reports the
    cutoff itself as the depth.  Dropping censored rays deletes exactly the
    rays that say "nothing was hit along this path", so a fit to the kept
    samples is free to grow density along the escaping paths — with partial
    occluders this shows up as a systematic pull toward the escape routes.
    When the cutoff lies inside opaque material (e.g. rays clipped at a
    plane below a solid ground), absorption just past the cutoff is all but
    certain and the boundary report is the faithful completion; prefer
    ``"drop"`` when the cutoff sits in empty space.

    ``depth_offset`` shifts every reported depth before filtering; a
    downstream likelihood that probes density over a jitter window
    [t, t + delta] can center that window on the drawn event by passing
    ``-delta / 2``.  All randomness comes from ``seed``.  The panel pass runs
    in blocks of about ``BLOCK_POINTS`` panel points, spread over the
    workers; results depend on neither the blocks nor the worker count.
    """
    if n_panels < 2:
        raise ValueError("n_panels must be >= 2")
    if censored not in ("drop", "boundary"):
        raise ValueError("censored must be 'drop' or 'boundary'")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 17)))
    n = len(grid)
    u = rng.random(n)
    targets = -np.log1p(-u)
    depths = np.full(n, np.nan)

    def run(lo: int, hi: int) -> None:
        t_fars = grid.t_fars[lo:hi]
        sigma, h, cum = _panels(scene, grid.origins[lo:hi], grid.directions[lo:hi], t_fars, n_panels)
        target = targets[lo:hi]
        alive = target < cum[:, -1]
        panel = np.minimum((cum[:, :-1] <= target[:, None]).sum(axis=1) - 1, n_panels - 1)
        rows = np.arange(hi - lo)
        fraction = (target - cum[rows, panel]) / np.maximum(sigma[rows, panel], 1e-300)
        escaped = t_fars - 1e-6 if censored == "boundary" else np.nan
        depths[lo:hi] = np.where(alive, panel * h + fraction, escaped)

    chunked_row_map(run, n, block_rows(n_panels))
    depths += depth_offset
    return _grid_samples(grid, depths, _scene_colors(scene, grid, depths))


def samples_from_views(views, t_far: float, foreground_only: bool = False) -> list[RgbdSample]:
    """Flatten ground-truth views into supervised rays (pixels with a finite
    surface depth inside the ray's cutoff)."""
    out: list[RgbdSample] = []
    for view in views:
        keep = view.mask.ravel() > 0 if foreground_only else True
        out += _view_samples(view.camera, view.rgb, view.depth, t_far, keep)
    return out
