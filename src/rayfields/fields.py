"""Density and color fields over 3-D space.

Every field kind obeys one contract: density is finite, non-negative, capped
at ``sigma_max``, and independent of the viewing direction; colors land in
[0, 1]^3 and stay defined even where density vanishes.  Each kind flattens to
a parameter vector, laid out by its ``layout`` table, so optimizers can treat
scenes as plain arrays.  A kind with one color everywhere reports it as a
single (3,) row, which callers broadcast instead of copying per point.

The layout is a kind's one description of its parameters.  Color offsets and
the constant-color kinds' density indices are read off it, and each group
names a domain in ``_DOMAINS``, which holds what a constructor requires
beyond finiteness and the box the fitter projects into.  Colors need only be
finite, as they are clipped where read.  ``checker_size`` takes any finite
value (a cell <= 0 draws no checker) but is boxed to [0, inf): a ">= 0" rule
would reject the step below 0 that ``fitting.finite_diff_gradient`` takes.

The differentiable kinds supply closed-form density gradients as rows: each
names the parameters its density depends on (``density_params``) and
returns d(raw density)/d(param) for each of them as one contiguous (N,) row,
so a caller that only needs a vector-Jacobian product contracts the rows
with its per-point weights and never forms the (N, P) Jacobian.  Colors
come straight from parameter slots (``_color_source``), so their gradient is
a selection, not a product.

A kind also owns its half-maximum surface (``_surface_distance``) and, for
object kinds, its footprint (``on_footprint``, ``footprint_radius``).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .geometry import _hit_box, _hit_ellipsoid, _smallest_positive_root

__all__ = [
    "DEFAULT_SIGMA_MAX",
    "HALF_MAX_RADIUS",
    "LOG_DENSITY_FLOOR",
    "Field",
    "UnsupportedGradient",
    "GaussianBlobField",
    "SoftSphereField",
    "SoftBoxField",
    "GroundPlaneField",
    "PiecewiseConstantRayField",
    "FIELD_KINDS",
    "field_from_params",
]

DEFAULT_SIGMA_MAX = 10.0

# Densities below this are treated as zero when a log is taken.
LOG_DENSITY_FLOOR = 1e-12

# A Gaussian bump crosses half its peak at this many scale units from center.
HALF_MAX_RADIUS = math.sqrt(2.0 * math.log(2.0))


class UnsupportedGradient(TypeError):
    """Raised when parameter gradients are requested from a non-differentiable kind."""


def _vec(v, shape, name):
    a = np.asarray(v, dtype=np.float64)
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def _scalar(v, name):
    a = float(v)
    if not math.isfinite(a):
        raise ValueError(f"{name} must be finite")
    return a


# Per domain: the test a constructor puts to a group's least value beyond
# finiteness (None: none), its words in an error, and the fitter's box.
_DOMAINS = {
    "free": (None, "finite", (-math.inf, math.inf)),
    "width": (lambda least: least > 0, "positive", (1e-3, math.inf)),
    "nonneg": (lambda least: least >= 0, "non-negative", (0.0, math.inf)),
    "unit": (None, "finite", (0.0, 1.0)),
    "cell": (None, "finite", (0.0, math.inf)),  # checker_size; see the module docstring
}


def _starts(layout, *groups: str) -> list[int]:
    """Index of the first parameter of each group in a vector laid out by ``layout``."""
    names = [name for name, _, _ in layout]
    return [sum(size for _, size, _ in layout[: names.index(group)]) for group in groups]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, both
    from e = exp(-|z|), which never overflows."""
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(z >= 0, 1.0, e)
    out /= np.add(e, 1.0, out=e)
    return out


def _offsets(pts: np.ndarray, center: np.ndarray) -> np.ndarray:
    """``pts - center`` as channel-major rows (3, N).  Every later pass then
    runs over contiguous points; the same arithmetic on (N, 3) would run
    NumPy's inner loops three elements at a time."""
    return np.subtract(pts.T, center[:, None], order="C")


def _sum3(a: np.ndarray) -> np.ndarray:
    """Sum of the three rows of (3, N), added left to right: the order
    ``np.sum`` adds three terms in, so the result is bit-identical unless
    all three terms are -0.0 (squares never are)."""
    return (a[0] + a[1]) + a[2]


def _channel_rows(color: np.ndarray, n: int) -> np.ndarray:
    """Color as channel-major rows (3, n): a single (3,) row broadcast (a
    read-only view), an (n, 3) array transposed (a view)."""
    return np.broadcast_to(color[:, None], (3, n)) if color.ndim == 1 else color.T


def _zero_padded(table: np.ndarray) -> np.ndarray:
    """``table`` with one zero row before its first row and after its last."""
    zero = np.zeros((1,) + table.shape[1:])
    return np.concatenate((zero, table, zero))


def _check_points(points) -> tuple[np.ndarray, bool]:
    pts = np.asarray(points, dtype=np.float64)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (N, 3) or (3,), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return pts, single


class Field(abc.ABC):
    """Base contract shared by all field kinds."""

    kind: ClassVar[str]
    # Parameter groups in vector order: (attribute, size, domain), each domain
    # a key of ``_DOMAINS``.  A kind without a layout checks its own fields and
    # overrides params/with_params.
    layout: ClassVar[tuple[tuple[str, int, str], ...]] = ()
    # Indices of the parameters the density depends on, in the order of the
    # rows ``_raw_density_rows`` returns; every other parameter's density
    # derivative is exactly 0.
    density_params: ClassVar[tuple[int, ...]] = ()
    # Object kinds: xy bounding-circle radius, per unit size, of an object
    # built by ``on_footprint``; None for a kind not placed as an object.
    footprint_radius: ClassVar[float | None] = None

    def __post_init__(self):
        """Store each layout group, checked by its domain's rule, then the cap (``width`` rule)."""
        cap = () if self.sigma_max is None else (("sigma_max", 1, "width"),)
        for name, size, domain in self.layout + cap:
            value = getattr(self, name)
            value = _scalar(value, name) if size == 1 else _vec(value, (size,), name)
            test, words, _ = _DOMAINS[domain]
            if test is not None and not test(value if size == 1 else value.min()):
                raise ValueError(f"{name} must be {words}")
            object.__setattr__(self, name, value)

    @abc.abstractmethod
    def _raw(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Uncapped density (N,) and unclipped color at ``pts``: (N, 3), or
        one (3,) row that holds at every point."""

    @abc.abstractmethod
    def _raw_density(self, pts: np.ndarray) -> np.ndarray:
        """Uncapped density (N,) at ``pts``, equal to ``_raw(pts)[0]``."""

    def _raw_density_rows(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Uncapped density (N,), equal to ``_raw_density(pts)``, and its
        derivative by each parameter in ``density_params``: a C-ordered
        (len(density_params), N) array, one contiguous row per parameter."""
        raise UnsupportedGradient(f"field kind {self.kind!r} has no parameter gradients")

    def _color_source(self, pts: np.ndarray):
        """Unclipped color, equal to ``_raw(pts)[1]`` ((N, 3) or one (3,)
        row), and where it comes from: the parameter index of each point's
        red channel, one int or (N,) ints, with green and blue right after
        it."""
        raise UnsupportedGradient(f"field kind {self.kind!r} has no parameter gradients")

    def _grad_sources(self, pts: np.ndarray, n: int):
        """``_raw_density_rows(pts)`` and ``_color_source(pts[:n])``, as one tuple."""
        return *self._raw_density_rows(pts), *self._color_source(pts[:n])

    @property
    def n_params(self) -> int:
        return sum(size for _, size, _ in self.layout) or self.params().shape[0]

    def params(self) -> np.ndarray:
        """Flat parameter vector; ``with_params`` inverts it."""
        out, at = np.empty(self.n_params), 0
        for name, size, _ in self.layout:
            out[at : at + size] = getattr(self, name)
            at += size
        return out

    def with_params(self, vector: np.ndarray) -> "Field":
        """New field of the same kind/structure with the given parameters."""
        return replace(self, **self._groups(vector))

    def _with_checked_params(self, vector: np.ndarray) -> "Field":
        """``with_params`` without ``__post_init__``, for a vector whose every
        slot has passed its group's domain rule (the fitter checks whole vectors)."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, **self._groups(vector))
        return out

    @classmethod
    def _groups(cls, vector) -> dict:
        """Attribute values of a parameter vector laid out by ``layout``;
        only its shape is checked here, each group by ``__post_init__``."""
        v = np.asarray(vector, dtype=np.float64)
        size = sum(size for _, size, _ in cls.layout)
        if v.shape != (size,):
            raise ValueError(f"params must have shape {(size,)}, got {v.shape}")
        groups, at = {}, 0
        for name, size, _ in cls.layout:
            groups[name] = float(v[at]) if size == 1 else v[at : at + size]
            at += size
        return groups

    def _cap(self, raw: np.ndarray) -> np.ndarray:
        sigma_max = getattr(self, "sigma_max", None)
        return raw if sigma_max is None else np.minimum(raw, sigma_max)

    def _density_color(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Capped density (N,) and clipped color at checked points (N, 3);
        the color is (N, 3), or one (3,) row for a kind whose color is the
        same everywhere."""
        raw, color = self._raw(pts)
        return self._cap(raw), np.clip(color, 0.0, 1.0)

    def _density(self, pts: np.ndarray) -> np.ndarray:
        """Capped density (N,) at checked points (N, 3)."""
        return self._cap(self._raw_density(pts))

    def evaluate(self, points, direction=None) -> tuple[np.ndarray, np.ndarray]:
        """Density and color at ``points``; direction is accepted but never
        changes density (all kinds here are Lambertian)."""
        pts, single = _check_points(points)
        sigma, color = self._density_color(pts)
        # C-ordered (N, 3) rows; a single (3,) row is repeated into a fresh array.
        color = np.tile(color, (pts.shape[0], 1)) if color.ndim == 1 else np.ascontiguousarray(color)
        if single:
            return float(sigma[0]), color[0]
        return sigma, color

    def density(self, points):
        """Density alone at ``points``, bit-identical to ``evaluate(...)[0]``
        without the color work."""
        pts, single = _check_points(points)
        sigma = self._density(pts)
        if single:
            return float(sigma[0])
        return sigma

    def _evaluate(self, pts: np.ndarray):
        """Density (N,), color as channel-major rows (3, N) and per-component
        densities as rows (1, N) at checked points (N, 3): a field renders
        as a one-component scene (``CompositeScene._evaluate``)."""
        sigma, color = self._density_color(pts)
        return sigma, _channel_rows(color, pts.shape[0]), sigma[None, :]

    def _surface_distance(self, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Distance (N,) along rays (origins, unit dirs (N, 3)) to the
        half-maximum surface, inf where a ray misses it."""
        raise TypeError(f"no analytic surface for field kind {self.kind!r}")


class _ConstantColorField(Field):
    """A kind with one color everywhere: its ``color`` group, after every density parameter."""

    color_offset: ClassVar[int]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.color_offset = _starts(cls.layout, "color")[0]
        cls.density_params = tuple(range(cls.color_offset))

    def _raw(self, pts):
        return self._raw_density(pts), self.color

    def _color_source(self, pts):
        return self.color, self.color_offset


@dataclass(frozen=True)
class GaussianBlobField(_ConstantColorField):
    """Anisotropic Gaussian density bump with one constant color.

    Params: [center(3), scale(3), amplitude, color(3)].
    """

    kind: ClassVar[str] = "gaussian_blob"
    footprint_radius = 1.0
    layout = (("center", 3, "free"), ("scale", 3, "width"), ("amplitude", 1, "nonneg"), ("color", 3, "unit"))
    center: np.ndarray
    scale: np.ndarray
    amplitude: float
    color: np.ndarray
    sigma_max: float | None = DEFAULT_SIGMA_MAX

    def _bump(self, pts):
        u = _offsets(pts, self.center) / self.scale[:, None]
        return u, np.exp(-0.5 * _sum3(u * u))

    def _raw_density(self, pts):
        return self.amplitude * self._bump(pts)[1]

    def _raw_density_rows(self, pts):
        u, g = self._bump(pts)
        raw = self.amplitude * g
        scale = self.scale[:, None]
        rows = np.empty((7, pts.shape[0]))
        np.divide(np.multiply(raw, u, out=rows[0:3]), scale, out=rows[0:3])
        np.divide(np.multiply(raw, u * u, out=rows[3:6]), scale, out=rows[3:6])
        rows[6] = g
        return raw, rows

    @classmethod
    def on_footprint(cls, xy, size, color, softness, sigma_max) -> "GaussianBlobField":
        """Full-density blob, half-maximum ball of radius ``size`` on the ground at ``xy``; no ``softness``."""
        scale = size / HALF_MAX_RADIUS
        return cls(center=(xy[0], xy[1], size), scale=(scale, scale, scale), amplitude=sigma_max,
                   color=color, sigma_max=sigma_max)

    def _surface_distance(self, origins, dirs):
        return _hit_ellipsoid(self.center, self.scale * HALF_MAX_RADIUS, origins, dirs)


@dataclass(frozen=True)
class SoftSphereField(_ConstantColorField):
    """Sigmoid-edged solid sphere.

    Params: [center(3), radius, softness, amplitude, color(3)].
    """

    kind: ClassVar[str] = "soft_sphere"
    footprint_radius = 1.0
    layout = (("center", 3, "free"), ("radius", 1, "width"), ("softness", 1, "width"),
              ("amplitude", 1, "nonneg"), ("color", 3, "unit"))
    center: np.ndarray
    radius: float
    softness: float
    amplitude: float
    color: np.ndarray
    sigma_max: float | None = DEFAULT_SIGMA_MAX

    def _parts(self, pts):
        diff = _offsets(pts, self.center)
        r = np.maximum(np.sqrt(_sum3(diff * diff)), 1e-12)
        s = _sigmoid((self.radius - r) / self.softness)
        return diff, r, s

    def _raw_density(self, pts):
        return self.amplitude * self._parts(pts)[2]

    def _raw_density_rows(self, pts):
        diff, r, s = self._parts(pts)
        raw = self.amplitude * s
        a_ds_dz = self.amplitude * (s * (1.0 - s))
        w = self.softness
        rows = np.empty((6, pts.shape[0]))
        np.multiply(a_ds_dz / (r * w), diff, out=rows[0:3])
        np.divide(a_ds_dz, w, out=rows[3])
        np.divide(a_ds_dz * (r - self.radius), w**2, out=rows[4])
        rows[5] = s
        return raw, rows

    @classmethod
    def on_footprint(cls, xy, size, color, softness, sigma_max) -> "SoftSphereField":
        """A sphere at full density of radius ``size`` resting on the ground at ``xy``."""
        return cls(center=(xy[0], xy[1], size), radius=size, softness=softness, amplitude=sigma_max,
                   color=color, sigma_max=sigma_max)

    def _surface_distance(self, origins, dirs):
        return _hit_ellipsoid(self.center, np.full(3, self.radius), origins, dirs)


@dataclass(frozen=True)
class SoftBoxField(_ConstantColorField):
    """Axis-aligned box with sigmoid-softened faces.

    Params: [center(3), half_size(3), softness, amplitude, color(3)].
    """

    kind: ClassVar[str] = "soft_box"
    footprint_radius = math.sqrt(2.0)
    layout = (("center", 3, "free"), ("half_size", 3, "width"), ("softness", 1, "width"),
              ("amplitude", 1, "nonneg"), ("color", 3, "unit"))
    center: np.ndarray
    half_size: np.ndarray
    softness: float
    amplitude: float
    color: np.ndarray
    sigma_max: float | None = DEFAULT_SIGMA_MAX

    def _parts(self, pts):
        diff = _offsets(pts, self.center)
        q = (self.half_size[:, None] - np.abs(diff)) / self.softness
        s = _sigmoid(q)
        return diff, q, s, (s[0] * s[1]) * s[2]

    def _raw_density(self, pts):
        return self.amplitude * self._parts(pts)[3]

    def _raw_density_rows(self, pts):
        diff, q, s, f = self._parts(pts)
        raw = self.amplitude * f
        one_minus = 1.0 - s
        w = self.softness
        rows = np.empty((8, pts.shape[0]))
        np.multiply(raw, one_minus, out=rows[3:6])
        np.multiply(rows[3:6], np.sign(diff), out=rows[0:3])
        rows[0:6] /= w
        np.divide(raw * np.sum(one_minus * (-q), axis=0), w, out=rows[6])
        rows[7] = f
        return raw, rows

    @classmethod
    def on_footprint(cls, xy, size, color, softness, sigma_max) -> "SoftBoxField":
        """A cube at full density of half-size ``size`` resting on the ground at ``xy``."""
        return cls(center=(xy[0], xy[1], size), half_size=(size, size, size), softness=softness,
                   amplitude=sigma_max, color=color, sigma_max=sigma_max)

    def _surface_distance(self, origins, dirs):
        return _hit_box(self.center, self.half_size, origins, dirs)


@dataclass(frozen=True)
class GroundPlaneField(Field):
    """Background: solid half-space below z=0 joined with a dome shell.

    The plane takes ``color_a`` (or an xy checker of ``color_a``/``color_b``
    when ``checker_size`` > 0); the dome, a filled shell outside radius
    ``dome_radius``, takes ``dome_color``.  A dome radius beyond every ray's
    cutoff makes the dome invisible.

    Params: [softness, amplitude, color_a(3), color_b(3), checker_size,
    dome_radius, dome_color(3)].
    """

    kind: ClassVar[str] = "ground_plane"
    layout = (("softness", 1, "width"), ("amplitude", 1, "nonneg"), ("color_a", 3, "unit"),
              ("color_b", 3, "unit"), ("checker_size", 1, "cell"), ("dome_radius", 1, "width"),
              ("dome_color", 3, "unit"))
    color_offsets: ClassVar[np.ndarray] = np.array(_starts(layout, "color_a", "color_b", "dome_color"))
    density_params = (0, 1, 9)  # softness, amplitude, dome_radius
    softness: float
    amplitude: float
    color_a: np.ndarray
    color_b: np.ndarray
    checker_size: float
    dome_radius: float
    dome_color: np.ndarray
    sigma_max: float | None = DEFAULT_SIGMA_MAX

    def _parts(self, pts):
        s_plane = _sigmoid(-pts[:, 2] / self.softness)
        rho = np.maximum(np.sqrt(_sum3((pts * pts).T)), 1e-12)
        s_dome = _sigmoid((rho - self.dome_radius) / self.softness)
        union = 1.0 - (1.0 - s_plane) * (1.0 - s_dome)
        return s_plane, rho, s_dome, union

    def _colors(self, pts, s_plane, s_dome):
        """Color (N, 3), a view of channel-major rows (3, N), and the
        parameter index of each point's red channel (``color_offsets``):
        color_b on odd checker cells, dome_color where the dome dominates,
        color_a elsewhere."""
        surface = 0
        if self.checker_size > 0:
            cells = np.floor(pts[:, 0] / self.checker_size) + np.floor(pts[:, 1] / self.checker_size)
            surface = cells.astype(np.int64) % 2
        surface = np.where(s_dome > s_plane, 2, surface)
        palette = np.stack([self.color_a, self.color_b, self.dome_color], axis=1)  # one row per channel
        return np.take(palette, surface, axis=1).T, self.color_offsets[surface]

    def _raw_density(self, pts):
        return self.amplitude * self._parts(pts)[3]

    def _raw(self, pts):
        s_plane, _, s_dome, union = self._parts(pts)
        return self.amplitude * union, self._colors(pts, s_plane, s_dome)[0]

    def _color_source(self, pts):
        s_plane, _, s_dome, _ = self._parts(pts)
        return self._colors(pts, s_plane, s_dome)

    def _grad_sources(self, pts, n):
        """One ``_parts`` pass serves the density rows and the colors."""
        parts = self._parts(pts)
        return *self._raw_density_rows(pts, parts), *self._colors(pts[:n], parts[0][:n], parts[2][:n])

    def _raw_density_rows(self, pts, parts=()):
        s_plane, rho, s_dome, union = parts or self._parts(pts)
        raw = self.amplitude * union
        w = self.softness
        z = pts[:, 2]
        dsp = s_plane * (1.0 - s_plane)
        dsd = s_dome * (1.0 - s_dome)
        du_dsp = 1.0 - s_dome
        du_dsd = 1.0 - s_plane
        rows = np.empty((3, pts.shape[0]))
        np.multiply(self.amplitude,
                    du_dsp * dsp * (z / w**2) + du_dsd * dsd * (-(rho - self.dome_radius) / w**2),
                    out=rows[0])
        rows[1] = union
        np.multiply(self.amplitude * du_dsd * dsd, -1.0 / w, out=rows[2])
        return raw, rows

    def _surface_distance(self, origins, dirs):
        """The plane z = 0 met from above, or the dome sphere, whichever comes first."""
        dz = dirs[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_plane = -origins[:, 2] / dz
        t_plane = np.where((dz < 0.0) & (t_plane > 0.0), t_plane, np.inf)
        r = self.dome_radius
        b = 2.0 * (origins * dirs).sum(axis=1)
        c = (origins * origins).sum(axis=1) - r * r
        t_dome = _smallest_positive_root(np.ones(origins.shape[0]), b, c)
        return np.minimum(t_plane, t_dome)


@dataclass(frozen=True)
class PiecewiseConstantRayField(Field):
    """Exactly integrable field: piecewise constant along a designated axis.

    Density and color at a 3-D point are looked up at the point's projection
    onto the axis ray, so the field is constant on planes normal to the axis.
    Outside [breakpoints[0], breakpoints[-1]) density is zero.  This kind
    bypasses the density cap and has no parameter gradients.

    Params: [sigmas(m), colors(m*3)] with fixed breakpoints/axis structure.
    """

    kind: ClassVar[str] = "piecewise_constant_ray"
    axis_origin: np.ndarray
    axis_direction: np.ndarray
    breakpoints: np.ndarray
    sigmas: np.ndarray
    colors: np.ndarray
    sigma_max: float | None = None

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "axis_origin", _vec(self.axis_origin, (3,), "axis_origin"))
        d = _vec(self.axis_direction, (3,), "axis_direction")
        n = np.linalg.norm(d)
        if n == 0:
            raise ValueError("axis_direction must be nonzero")
        object.__setattr__(self, "axis_direction", d / n)
        b = np.asarray(self.breakpoints, dtype=np.float64)
        s = np.asarray(self.sigmas, dtype=np.float64)
        c = np.asarray(self.colors, dtype=np.float64)
        if b.ndim != 1 or b.shape[0] < 2 or not np.all(np.diff(b) > 0):
            raise ValueError("breakpoints must be strictly increasing with >= 2 entries")
        if b[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        m = b.shape[0] - 1
        if s.shape != (m,) or c.shape != (m, 3):
            raise ValueError("sigmas must be (m,) and colors (m, 3) for m intervals")
        if not (np.all((s >= 0) & (s < np.inf)) and np.isfinite(c).all()):
            raise ValueError("interval densities must be finite and non-negative, and colors finite")
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "sigmas", s)
        object.__setattr__(self, "colors", c)

    @classmethod
    def on_ray(cls, ray, breakpoints, sigmas, colors) -> "PiecewiseConstantRayField":
        return cls(ray.origin, ray.direction, breakpoints, sigmas, colors)

    def _interval_index(self, pts):
        """Row of each point in the zero-padded interval tables: 0 before the
        first breakpoint, i + 1 in interval i, m + 1 at or past the last."""
        # C order: a matrix-vector product may round differently on other layouts.
        t = np.ascontiguousarray(pts - self.axis_origin) @ self.axis_direction
        return np.searchsorted(self.breakpoints, t, side="right")

    def _raw_density(self, pts):
        return _zero_padded(self.sigmas)[self._interval_index(pts)]

    def _raw(self, pts):
        idx = self._interval_index(pts)
        return _zero_padded(self.sigmas)[idx], _zero_padded(self.colors)[idx]

    def params(self) -> np.ndarray:
        return np.concatenate([self.sigmas, self.colors.ravel()])

    def with_params(self, vector: np.ndarray) -> "PiecewiseConstantRayField":
        m = self.sigmas.shape[0]
        v = _vec(vector, (4 * m,), "params")
        return replace(self, sigmas=v[:m], colors=v[m:].reshape(m, 3))


FIELD_KINDS: dict[str, type[Field]] = {
    cls.kind: cls
    for cls in (GaussianBlobField, SoftSphereField, SoftBoxField, GroundPlaneField)
}


def field_from_params(kind: str, vector, sigma_max: float | None = DEFAULT_SIGMA_MAX) -> Field:
    """Build a serializable field kind from its flat parameter vector."""
    if kind not in FIELD_KINDS:
        raise ValueError(f"unknown field kind {kind!r}")
    cls = FIELD_KINDS[kind]
    return cls(**cls._groups(vector), sigma_max=sigma_max)

