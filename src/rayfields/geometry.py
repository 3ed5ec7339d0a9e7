"""Rays, pinhole cameras, the three-view turntable rig, and the ray-ellipsoid
and ray-box intersections from which the field kinds in ``fields`` find
their half-maximum surfaces.

Every number a constructor or config takes passes one of two checks, kept
here in the lowest module: ``_check_integer`` for counts and seeds, and
``_real`` for reals, scalar or array.  Neither coerces: a bool, a string,
None or any other non-number raises TypeError, and a bad shape, range or
non-finite value raises ValueError."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "GROUND_CLIP_Z",
    "Ray",
    "Camera",
    "RayGrid",
    "ray_at",
    "pinhole_rays",
    "rig_views",
]

# Rays that descend are cut short at this height so nothing is queried far
# below the ground plane.
GROUND_CLIP_Z = -0.1

_UNIT_TOL = 1e-9


def _check_integer(value, what: str, minimum: int) -> None:
    """Reject a bool or a non-integer (NumPy integers pass) with TypeError
    and an integer below ``minimum`` with ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {value}")


def _real(value, what: str, shape: tuple[int, ...] = ()) -> float | np.ndarray:
    """``value`` as a Python float (``shape`` ()) or a float64 array of
    ``shape``.  Only integer and float dtypes (NumPy's included) pass; any
    other dtype, or a non-scalar where a scalar is wanted, raises TypeError,
    and a wrong shape or a non-finite entry ValueError."""
    try:
        a = np.asarray(value)
    except ValueError:  # sequences nested to uneven depths
        a = np.asarray(None)
    if a.dtype.kind not in "iuf" or (a.ndim and not shape):
        raise TypeError(f"{what} must hold integers or floats, got dtype {a.dtype}" if shape
                        else f"{what} must be a number, got {value!r}")
    if a.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {a.shape}")
    real = a.astype(np.float64, copy=False) if shape else float(a)
    if not (np.isfinite(real).all() if shape else math.isfinite(real)):  # a NumPy reduction costs ~1 us
        raise ValueError(f"{what} must be finite")
    return real


@dataclass(frozen=True)
class Ray:
    """Half-line ``origin + t * direction`` integrated over t in [0, t_far]."""

    origin: np.ndarray
    direction: np.ndarray
    t_far: float

    def __post_init__(self):
        object.__setattr__(self, "origin", _real(self.origin, "origin", (3,)))
        d = _real(self.direction, "direction", (3,))
        if abs(np.linalg.norm(d) - 1.0) > _UNIT_TOL:
            raise ValueError("ray direction must be unit length")
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "t_far", _real(self.t_far, "t_far"))
        if not self.t_far > 0:
            raise ValueError("t_far must be positive")

    @classmethod
    def towards(cls, origin, target, t_far: float) -> "Ray":
        """Ray from ``origin`` through ``target`` (direction normalized here)."""
        o = _real(origin, "origin", (3,))
        d = _real(target, "target", (3,)) - o
        n = np.linalg.norm(d)
        if n == 0.0:
            raise ValueError("target coincides with origin")
        return cls(o, d / n, t_far)


def ray_at(ray: Ray, t) -> np.ndarray:
    """Point(s) on the ray at parameter ``t`` (scalar or array)."""
    t = np.asarray(t, dtype=np.float64)
    return ray.origin + t[..., None] * ray.direction if t.ndim else ray.origin + t * ray.direction


@dataclass(frozen=True)
class Camera:
    """Pinhole camera with square pixels; ``vertical_fov`` is in radians."""

    position: np.ndarray
    look_at: np.ndarray
    width: int
    height: int
    vertical_fov: float = 0.8552
    up: np.ndarray = (0.0, 0.0, 1.0)

    def __post_init__(self):
        for name in ("position", "look_at", "up"):
            object.__setattr__(self, name, _real(getattr(self, name), name, (3,)))
        _check_integer(self.width, "width", 1)
        _check_integer(self.height, "height", 1)
        object.__setattr__(self, "width", int(self.width))
        object.__setattr__(self, "height", int(self.height))
        object.__setattr__(self, "vertical_fov", _real(self.vertical_fov, "vertical_fov"))
        if not 0.0 < self.vertical_fov < math.pi:
            raise ValueError("vertical_fov must lie in (0, pi)")
        if np.allclose(self.position, self.look_at):
            raise ValueError("camera position coincides with look_at")

    def basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Orthonormal (forward, right, up) frame; raises if up is degenerate."""
        forward = self.look_at - self.position
        forward = forward / np.linalg.norm(forward)
        right = np.cross(forward, self.up)
        n = np.linalg.norm(right)
        if n < 1e-12:
            raise ValueError("up vector is parallel to the view direction")
        right = right / n
        cam_up = np.cross(right, forward)
        return forward, right, cam_up


@dataclass(frozen=True)
class RayGrid:
    """Row-major bundle of camera rays with per-ray cutoffs.

    ``origins``/``directions`` are (N, 3), ``t_fars`` is (N,), ``shape`` is
    (height, width) with N = height * width.
    """

    origins: np.ndarray
    directions: np.ndarray
    t_fars: np.ndarray
    shape: tuple[int, int]

    def __len__(self) -> int:
        return self.origins.shape[0]

    def ray(self, index: int) -> Ray:
        return Ray(self.origins[index], self.directions[index], self.t_fars[index])

    def __iter__(self):
        return (self.ray(i) for i in range(len(self)))


def pinhole_rays(camera: Camera, t_far: float, clip_z: float | None = GROUND_CLIP_Z) -> RayGrid:
    """One ray per pixel center, row-major.

    Descending rays get their cutoff shortened to the point where they reach
    height ``clip_z`` (pass None to disable the clip).
    """
    t_far = _real(t_far, "t_far")
    if not t_far > 0:
        raise ValueError("t_far must be positive")
    forward, right, cam_up = camera.basis()
    h, w = camera.height, camera.width
    tan_v = math.tan(camera.vertical_fov / 2.0)
    tan_h = tan_v * w / h

    cols = (np.arange(w) + 0.5) / w * 2.0 - 1.0
    rows = 1.0 - (np.arange(h) + 0.5) / h * 2.0
    x = np.tile(cols, h) * tan_h
    y = np.repeat(rows, w) * tan_v
    dirs = forward[None, :] + x[:, None] * right[None, :] + y[:, None] * cam_up[None, :]
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    n = h * w
    origins = np.broadcast_to(camera.position, (n, 3)).copy()
    t_fars = np.full(n, t_far)
    if clip_z is not None:
        dz = dirs[:, 2]
        descending = dz < 0.0
        with np.errstate(divide="ignore"):
            t_clip = (camera.position[2] - clip_z) / np.where(descending, -dz, 1.0)
        t_clip = np.where(descending & (t_clip > 0.0), t_clip, np.inf)
        t_fars = np.maximum(np.minimum(t_fars, t_clip), 1e-6)
    return RayGrid(origins, dirs, t_fars, (h, w))


def rig_views(base: Camera) -> tuple[Camera, Camera, Camera]:
    """Three cameras: the base plus copies rotated 120 and 240 degrees about world z."""
    views = [base]
    for k in (1, 2):
        ang = 2.0 * math.pi * k / 3.0
        c, s = math.cos(ang), math.sin(ang)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        views.append(replace(base, position=rot @ base.position))
    return tuple(views)


def _smallest_positive_root(a, b, c):
    """Per-row smallest positive root of a t^2 + b t + c = 0 (inf if none)."""
    disc = b * b - 4.0 * a * c
    ok = disc >= 0.0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-b - sq) / (2.0 * a)
        t2 = (-b + sq) / (2.0 * a)
    t1 = np.where(ok & (t1 > 0.0), t1, np.inf)
    t2 = np.where(ok & (t2 > 0.0), t2, np.inf)
    return np.minimum(t1, t2)


def _hit_ellipsoid(center, radii, origins, dirs):
    po = (origins - center) / radii
    pd = dirs / radii
    a = (pd * pd).sum(axis=1)
    b = 2.0 * (po * pd).sum(axis=1)
    c = (po * po).sum(axis=1) - 1.0
    return _smallest_positive_root(a, b, c)


def _hit_box(center, half, origins, dirs):
    lo = center - half
    hi = center + half
    with np.errstate(divide="ignore"):
        inv = 1.0 / dirs
    t_lo = (lo - origins) * inv
    t_hi = (hi - origins) * inv
    near = np.minimum(t_lo, t_hi)
    far = np.maximum(t_lo, t_hi)
    # Parallel rays: inside the slab -> (-inf, inf), outside -> no hit.
    parallel = dirs == 0.0
    inside = (origins >= lo) & (origins <= hi)
    near = np.where(parallel, np.where(inside, -np.inf, np.inf), near)
    far = np.where(parallel, np.where(inside, np.inf, -np.inf), far)
    t_enter = near.max(axis=1)
    t_exit = far.min(axis=1)
    hit = (t_enter <= t_exit) & (t_exit > 0.0)
    t = np.where(t_enter > 0.0, t_enter, t_exit)
    return np.where(hit & (t > 0.0), t, np.inf)
