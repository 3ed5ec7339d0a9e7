"""Density and color fields over 3-D space.

Every field kind obeys one contract: density is finite, non-negative, capped
at ``sigma_max``, and independent of the viewing direction; colors land in
[0, 1]^3 and stay defined even where density vanishes.  Each kind flattens to
a parameter vector, laid out by its ``layout`` table, so optimizers can treat
scenes as plain arrays; the differentiable kinds also supply closed-form
density gradients and the parameter slots their colors come from.  A kind
with one color everywhere reports it as a single (3,) row, which callers
broadcast instead of copying per point.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

__all__ = [
    "DEFAULT_SIGMA_MAX",
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
    "positional_encoding",
]

DEFAULT_SIGMA_MAX = 10.0

# Densities below this are treated as zero when a log is taken.
LOG_DENSITY_FLOOR = 1e-12


class UnsupportedGradient(TypeError):
    """Raised when parameter gradients are requested from a non-differentiable kind."""


def _vec(v, shape, name):
    a = np.asarray(v, dtype=np.float64)
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


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


def _rows(color: np.ndarray, n: int) -> np.ndarray:
    """Color as n rows (n, 3): a single (3,) row is repeated into a fresh
    array, an (n, 3) array is returned as it is."""
    return np.tile(color, (n, 1)) if color.ndim == 1 else color


def _check_points(points) -> tuple[np.ndarray, bool]:
    pts = np.asarray(points, dtype=np.float64)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (N, 3) or (3,), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return pts, single


class Field(abc.ABC):
    """Base contract shared by all field kinds."""

    kind: ClassVar[str]
    # Parameter groups in vector order: (attribute, size, domain).  The domain
    # names the box the fitter projects the group into ("free", "width",
    # "nonneg" or "unit").  A kind without one overrides params/with_params.
    layout: ClassVar[tuple[tuple[str, int, str], ...]] = ()

    @abc.abstractmethod
    def _raw(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Uncapped density (N,) and unclipped color at ``pts``: (N, 3), or
        one (3,) row that holds at every point."""

    @abc.abstractmethod
    def _raw_density(self, pts: np.ndarray) -> np.ndarray:
        """Uncapped density (N,) at ``pts``, equal to ``_raw(pts)[0]``."""

    def _raw_density_grad(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Uncapped density (N,), equal to ``_raw_density(pts)``, and its
        parameter gradient (N, P), a fresh array the caller may overwrite."""
        raise UnsupportedGradient(f"field kind {self.kind!r} has no parameter gradients")

    def _color_source(self, pts: np.ndarray):
        """Unclipped color, equal to ``_raw(pts)[1]`` ((N, 3) or one (3,)
        row), and where it comes from: the parameter index of each point's
        red channel, one int or (N,) ints, with green and blue right after
        it."""
        raise UnsupportedGradient(f"field kind {self.kind!r} has no parameter gradients")

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

    @classmethod
    def _groups(cls, vector) -> dict:
        """Attribute values of a parameter vector laid out by ``layout``."""
        v = _vec(vector, (sum(size for _, size, _ in cls.layout),), "params")
        groups, at = {}, 0
        for name, size, _ in cls.layout:
            groups[name] = v[at] if size == 1 else v[at : at + size]
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
        color = _rows(color, pts.shape[0])
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

    def evaluate_with_components(self, points):
        """Density (N,), color (N, 3) and per-component densities (N, 1) at
        points (N, 3): a field is a one-component scene."""
        sigma, color = self.evaluate(points)
        return sigma, color, sigma[:, None]

    def _density_grad(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Capped density (N,) and its parameter gradient (N, P) at checked
        points (N, 3); the gradient is zero where the cap binds."""
        raw, d_raw = self._raw_density_grad(pts)
        sigma_max = getattr(self, "sigma_max", None)
        if sigma_max is None:
            return raw, d_raw
        d_raw *= (raw < sigma_max)[:, None]
        return np.minimum(raw, sigma_max), d_raw

    def _color_slots(self, pts: np.ndarray):
        """At checked points (N, 3): the clipped color, (N, 3) or one (3,)
        row; the channels whose color has a gradient (N, 3); and the
        parameter index each channel comes from (N, 3).  d(color)/d(param)
        is 1 at those indices in those channels and 0 elsewhere; it stays
        alive exactly at 0 and 1, so a descent step can leave the clip edge."""
        color, offset = self._color_source(pts)
        shape = (pts.shape[0], 3)
        inside = np.broadcast_to((color >= 0.0) & (color <= 1.0), shape)
        slots = np.broadcast_to(np.asarray(offset)[..., None] + np.arange(3), shape)
        return np.clip(color, 0.0, 1.0), inside, slots

    def evaluate_with_grad(self, points, direction=None):
        """Like evaluate(), plus d(sigma)/d(params) (N, P) and
        d(color)/d(params) (N, 3, P)."""
        pts, single = _check_points(points)
        sigma, d_sigma = self._density_grad(pts)
        color, inside, slots = self._color_slots(pts)
        n = pts.shape[0]
        color = _rows(color, n)
        d_color = np.zeros((n, 3, d_sigma.shape[1]))
        d_color[np.arange(n)[:, None], np.arange(3), slots] = inside
        if single:
            return float(sigma[0]), color[0], d_sigma[0], d_color[0]
        return sigma, color, d_sigma, d_color


class _ConstantColorField(Field):
    """A kind with one color everywhere: the parameters at ``color_offset``."""

    color_offset: ClassVar[int]

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
    layout = (("center", 3, "free"), ("scale", 3, "width"), ("amplitude", 1, "nonneg"), ("color", 3, "unit"))
    color_offset: ClassVar[int] = 7
    center: np.ndarray
    scale: np.ndarray
    amplitude: float
    color: np.ndarray
    sigma_max: float | None = DEFAULT_SIGMA_MAX

    def __post_init__(self):
        object.__setattr__(self, "center", _vec(self.center, (3,), "center"))
        object.__setattr__(self, "scale", _vec(self.scale, (3,), "scale"))
        object.__setattr__(self, "color", _vec(self.color, (3,), "color"))
        object.__setattr__(self, "amplitude", float(self.amplitude))
        if not np.all(self.scale > 0):
            raise ValueError("scale components must be positive")
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")

    def _bump(self, pts):
        u = _offsets(pts, self.center) / self.scale[:, None]
        return u, np.exp(-0.5 * _sum3(u * u))

    def _raw_density(self, pts):
        return self.amplitude * self._bump(pts)[1]

    def _raw_density_grad(self, pts):
        u, g = self._bump(pts)
        raw = self.amplitude * g
        d_raw = np.zeros((pts.shape[0], 10))
        d_raw[:, 0:3] = (raw * u / self.scale[:, None]).T
        d_raw[:, 3:6] = (raw * (u * u) / self.scale[:, None]).T
        d_raw[:, 6] = g
        return raw, d_raw


@dataclass(frozen=True)
class SoftSphereField(_ConstantColorField):
    """Sigmoid-edged solid sphere.

    Params: [center(3), radius, softness, amplitude, color(3)].
    """

    kind: ClassVar[str] = "soft_sphere"
    layout = (("center", 3, "free"), ("radius", 1, "width"), ("softness", 1, "width"),
              ("amplitude", 1, "nonneg"), ("color", 3, "unit"))
    color_offset: ClassVar[int] = 6
    center: np.ndarray
    radius: float
    softness: float
    amplitude: float
    color: np.ndarray
    sigma_max: float | None = DEFAULT_SIGMA_MAX

    def __post_init__(self):
        object.__setattr__(self, "center", _vec(self.center, (3,), "center"))
        object.__setattr__(self, "color", _vec(self.color, (3,), "color"))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "softness", float(self.softness))
        object.__setattr__(self, "amplitude", float(self.amplitude))
        if self.radius <= 0 or self.softness <= 0 or self.amplitude < 0:
            raise ValueError("radius and softness must be positive, amplitude non-negative")

    def _parts(self, pts):
        diff = _offsets(pts, self.center)
        r = np.maximum(np.sqrt(_sum3(diff * diff)), 1e-12)
        s = _sigmoid((self.radius - r) / self.softness)
        return diff, r, s

    def _raw_density(self, pts):
        return self.amplitude * self._parts(pts)[2]

    def _raw_density_grad(self, pts):
        diff, r, s = self._parts(pts)
        raw = self.amplitude * s
        ds_dz = s * (1.0 - s)
        w = self.softness
        d_raw = np.zeros((pts.shape[0], 9))
        d_raw[:, 0:3] = (self.amplitude * ds_dz / (r * w) * diff).T
        d_raw[:, 3] = self.amplitude * ds_dz / w
        d_raw[:, 4] = self.amplitude * ds_dz * (r - self.radius) / w**2
        d_raw[:, 5] = s
        return raw, d_raw


@dataclass(frozen=True)
class SoftBoxField(_ConstantColorField):
    """Axis-aligned box with sigmoid-softened faces.

    Params: [center(3), half_size(3), softness, amplitude, color(3)].
    """

    kind: ClassVar[str] = "soft_box"
    layout = (("center", 3, "free"), ("half_size", 3, "width"), ("softness", 1, "width"),
              ("amplitude", 1, "nonneg"), ("color", 3, "unit"))
    color_offset: ClassVar[int] = 8
    center: np.ndarray
    half_size: np.ndarray
    softness: float
    amplitude: float
    color: np.ndarray
    sigma_max: float | None = DEFAULT_SIGMA_MAX

    def __post_init__(self):
        object.__setattr__(self, "center", _vec(self.center, (3,), "center"))
        object.__setattr__(self, "half_size", _vec(self.half_size, (3,), "half_size"))
        object.__setattr__(self, "color", _vec(self.color, (3,), "color"))
        object.__setattr__(self, "softness", float(self.softness))
        object.__setattr__(self, "amplitude", float(self.amplitude))
        if not np.all(self.half_size > 0) or self.softness <= 0 or self.amplitude < 0:
            raise ValueError("half_size and softness must be positive, amplitude non-negative")

    def _parts(self, pts):
        diff = _offsets(pts, self.center)
        q = (self.half_size[:, None] - np.abs(diff)) / self.softness
        s = _sigmoid(q)
        return diff, q, s, (s[0] * s[1]) * s[2]

    def _raw_density(self, pts):
        return self.amplitude * self._parts(pts)[3]

    def _raw_density_grad(self, pts):
        diff, q, s, f = self._parts(pts)
        raw = self.amplitude * f
        one_minus = 1.0 - s
        w = self.softness
        d_raw = np.zeros((pts.shape[0], 11))
        d_raw[:, 0:3] = (raw * one_minus * np.sign(diff) / w).T
        d_raw[:, 3:6] = (raw * one_minus / w).T
        d_raw[:, 6] = raw * np.sum(one_minus * (-q), axis=0) / w
        d_raw[:, 7] = f
        return raw, d_raw


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
              ("color_b", 3, "unit"), ("checker_size", 1, "nonneg"), ("dome_radius", 1, "width"),
              ("dome_color", 3, "unit"))
    color_offsets: ClassVar[np.ndarray] = np.array([2, 5, 10])  # color_a, color_b, dome_color
    softness: float
    amplitude: float
    color_a: np.ndarray
    color_b: np.ndarray
    checker_size: float
    dome_radius: float
    dome_color: np.ndarray
    sigma_max: float | None = DEFAULT_SIGMA_MAX

    def __post_init__(self):
        object.__setattr__(self, "color_a", _vec(self.color_a, (3,), "color_a"))
        object.__setattr__(self, "color_b", _vec(self.color_b, (3,), "color_b"))
        object.__setattr__(self, "dome_color", _vec(self.dome_color, (3,), "dome_color"))
        object.__setattr__(self, "softness", float(self.softness))
        object.__setattr__(self, "amplitude", float(self.amplitude))
        object.__setattr__(self, "checker_size", float(self.checker_size))
        object.__setattr__(self, "dome_radius", float(self.dome_radius))
        if self.softness <= 0 or self.amplitude < 0 or self.dome_radius <= 0:
            raise ValueError("softness and dome_radius must be positive, amplitude non-negative")

    def _parts(self, pts):
        s_plane = _sigmoid(-pts[:, 2] / self.softness)
        rho = np.maximum(np.sqrt(_sum3((pts * pts).T)), 1e-12)
        s_dome = _sigmoid((rho - self.dome_radius) / self.softness)
        union = 1.0 - (1.0 - s_plane) * (1.0 - s_dome)
        return s_plane, rho, s_dome, union

    def _colors(self, pts, s_plane, s_dome):
        """Color (N, 3) and the parameter index of each point's red channel
        (``color_offsets``): color_b on odd checker cells, dome_color where
        the dome dominates, color_a elsewhere."""
        surface = 0
        if self.checker_size > 0:
            cells = np.floor(pts[:, 0] / self.checker_size) + np.floor(pts[:, 1] / self.checker_size)
            surface = cells.astype(np.int64) % 2
        surface = np.where(s_dome > s_plane, 2, surface)
        return np.stack([self.color_a, self.color_b, self.dome_color])[surface], self.color_offsets[surface]

    def _raw_density(self, pts):
        return self.amplitude * self._parts(pts)[3]

    def _raw(self, pts):
        s_plane, _, s_dome, union = self._parts(pts)
        return self.amplitude * union, self._colors(pts, s_plane, s_dome)[0]

    def _color_source(self, pts):
        s_plane, _, s_dome, _ = self._parts(pts)
        return self._colors(pts, s_plane, s_dome)

    def _raw_density_grad(self, pts):
        s_plane, rho, s_dome, union = self._parts(pts)
        raw = self.amplitude * union
        w = self.softness
        z = pts[:, 2]
        dsp = s_plane * (1.0 - s_plane)
        dsd = s_dome * (1.0 - s_dome)
        du_dsp = 1.0 - s_dome
        du_dsd = 1.0 - s_plane
        d_raw = np.zeros((pts.shape[0], 13))
        d_raw[:, 0] = self.amplitude * (
            du_dsp * dsp * (z / w**2) + du_dsd * dsd * (-(rho - self.dome_radius) / w**2)
        )
        d_raw[:, 1] = union
        d_raw[:, 9] = self.amplitude * du_dsd * dsd * (-1.0 / w)
        return raw, d_raw


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
        if np.any(s < 0):
            raise ValueError("interval densities must be non-negative")
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "sigmas", s)
        object.__setattr__(self, "colors", c)

    @classmethod
    def on_ray(cls, ray, breakpoints, sigmas, colors) -> "PiecewiseConstantRayField":
        return cls(ray.origin, ray.direction, breakpoints, sigmas, colors)

    def _interval_index(self, pts):
        t = (pts - self.axis_origin) @ self.axis_direction
        idx = np.searchsorted(self.breakpoints, t, side="right") - 1
        valid = (idx >= 0) & (idx < self.sigmas.shape[0]) & (t >= self.breakpoints[0])
        return np.clip(idx, 0, self.sigmas.shape[0] - 1), valid

    def _raw_density(self, pts):
        idx, valid = self._interval_index(pts)
        return np.where(valid, self.sigmas[idx], 0.0)

    def _raw(self, pts):
        idx, valid = self._interval_index(pts)
        sigma = np.where(valid, self.sigmas[idx], 0.0)
        color = np.where(valid[:, None], self.colors[idx], 0.0)
        return sigma, color

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


def positional_encoding(x, n_frequencies: int, k_lowest: int) -> np.ndarray:
    """Sine/cosine feature lift with octave-spaced frequencies.

    Frequencies are f_j = 2**(k_lowest + j) * pi for j = 0..n_frequencies-1.
    For input shape (..., k) the output has shape (..., 2 * k * n_frequencies)
    laid out frequency-major: for each j, then each input dimension, the pair
    (sin(f_j x_i), cos(f_j x_i)).  Scalars are treated as 1-D input.
    """
    if n_frequencies < 1:
        raise ValueError("n_frequencies must be >= 1")
    a = np.asarray(x, dtype=np.float64)
    scalar = a.ndim == 0
    if scalar:
        a = a.reshape(1)
    k = a.shape[-1]
    freqs = (2.0 ** (k_lowest + np.arange(n_frequencies))) * math.pi
    ang = a[..., None, :] * freqs[:, None]          # (..., n_f, k)
    enc = np.stack([np.sin(ang), np.cos(ang)], axis=-1)  # (..., n_f, k, 2)
    out = enc.reshape(*a.shape[:-1], 2 * k * n_frequencies)
    return out
