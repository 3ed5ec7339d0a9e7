"""Density and color fields over 3-D space.

Every field kind obeys one contract: density is finite, non-negative, capped
at ``sigma_max``, and independent of the viewing direction; colors land in
[0, 1]^3 and stay defined even where density vanishes.  Each kind flattens to
a parameter vector so optimizers can treat scenes as plain arrays; the
differentiable kinds also return closed-form parameter gradients.
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
    "evaluate",
    "param_vector",
    "set_params",
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
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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

    @abc.abstractmethod
    def _raw(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Uncapped density (N,) and unclipped color (N, 3) at ``pts``."""

    @abc.abstractmethod
    def _raw_density(self, pts: np.ndarray) -> np.ndarray:
        """Uncapped density (N,) at ``pts``, equal to ``_raw(pts)[0]``."""

    def _raw_grad(self, pts: np.ndarray):
        raise UnsupportedGradient(f"field kind {self.kind!r} has no parameter gradients")

    @property
    def n_params(self) -> int:
        return self.params().shape[0]

    @abc.abstractmethod
    def params(self) -> np.ndarray:
        """Flat parameter vector; ``with_params`` inverts it."""

    @abc.abstractmethod
    def with_params(self, vector: np.ndarray) -> "Field":
        """New field of the same kind/structure with the given parameters."""

    def _cap(self, raw: np.ndarray) -> np.ndarray:
        sigma_max = getattr(self, "sigma_max", None)
        return raw if sigma_max is None else np.minimum(raw, sigma_max)

    def evaluate(self, points, direction=None) -> tuple[np.ndarray, np.ndarray]:
        """Density and color at ``points``; direction is accepted but never
        changes density (all kinds here are Lambertian)."""
        pts, single = _check_points(points)
        raw, color = self._raw(pts)
        sigma = self._cap(raw)
        color = np.clip(color, 0.0, 1.0)
        if single:
            return float(sigma[0]), color[0]
        return sigma, color

    def density(self, points):
        """Density alone at ``points``, bit-identical to ``evaluate(...)[0]``
        without the color work."""
        pts, single = _check_points(points)
        sigma = self._cap(self._raw_density(pts))
        if single:
            return float(sigma[0])
        return sigma

    def evaluate_with_components(self, points):
        """Density (N,), color (N, 3) and per-component densities (N, 1) at
        points (N, 3): a field is a one-component scene."""
        sigma, color = self.evaluate(points)
        return sigma, color, sigma[:, None]

    def evaluate_with_grad(self, points, direction=None):
        """Like evaluate(), plus d(sigma)/d(params) (N, P) and
        d(color)/d(params) (N, 3, P)."""
        pts, single = _check_points(points)
        raw, color, d_raw, d_color = self._raw_grad(pts)
        sigma_max = getattr(self, "sigma_max", None)
        if sigma_max is None:
            sigma = raw
            d_sigma = d_raw
        else:
            sigma = np.minimum(raw, sigma_max)
            d_sigma = d_raw * (raw < sigma_max)[:, None]
        # Clip colors; keep the descent direction alive exactly at 0/1.
        inside = (color >= 0.0) & (color <= 1.0)
        d_color = d_color * inside[:, :, None]
        color = np.clip(color, 0.0, 1.0)
        if single:
            return float(sigma[0]), color[0], d_sigma[0], d_color[0]
        return sigma, color, d_sigma, d_color


def _constant_color_block(pts_n: int, color: np.ndarray, n_params: int, offset: int) -> np.ndarray:
    d_color = np.zeros((pts_n, 3, n_params))
    for ch in range(3):
        d_color[:, ch, offset + ch] = 1.0
    return d_color


@dataclass(frozen=True)
class GaussianBlobField(Field):
    """Anisotropic Gaussian density bump with one constant color.

    Params: [center(3), scale(3), amplitude, color(3)].
    """

    kind: ClassVar[str] = "gaussian_blob"
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
        u = (pts - self.center) / self.scale
        return u, np.exp(-0.5 * np.sum(u * u, axis=1))

    def _raw_density(self, pts):
        return self.amplitude * self._bump(pts)[1]

    def _raw(self, pts):
        return self._raw_density(pts), np.broadcast_to(self.color, (pts.shape[0], 3)).copy()

    def _raw_grad(self, pts):
        u, g = self._bump(pts)
        raw = self.amplitude * g
        n = pts.shape[0]
        d_raw = np.zeros((n, 10))
        d_raw[:, 0:3] = raw[:, None] * u / self.scale
        d_raw[:, 3:6] = raw[:, None] * (u * u) / self.scale
        d_raw[:, 6] = g
        color = np.broadcast_to(self.color, (n, 3)).copy()
        return raw, color, d_raw, _constant_color_block(n, self.color, 10, 7)

    def params(self) -> np.ndarray:
        return np.concatenate([self.center, self.scale, [self.amplitude], self.color])

    def with_params(self, vector: np.ndarray) -> "GaussianBlobField":
        v = _vec(vector, (10,), "params")
        return replace(self, center=v[0:3], scale=v[3:6], amplitude=v[6], color=v[7:10])


@dataclass(frozen=True)
class SoftSphereField(Field):
    """Sigmoid-edged solid sphere.

    Params: [center(3), radius, softness, amplitude, color(3)].
    """

    kind: ClassVar[str] = "soft_sphere"
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
        diff = pts - self.center
        r = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
        s = _sigmoid((self.radius - r) / self.softness)
        return diff, r, s

    def _raw_density(self, pts):
        return self.amplitude * self._parts(pts)[2]

    def _raw(self, pts):
        return self._raw_density(pts), np.broadcast_to(self.color, (pts.shape[0], 3)).copy()

    def _raw_grad(self, pts):
        diff, r, s = self._parts(pts)
        raw = self.amplitude * s
        ds_dz = s * (1.0 - s)
        w = self.softness
        n = pts.shape[0]
        d_raw = np.zeros((n, 9))
        d_raw[:, 0:3] = (self.amplitude * ds_dz / (r * w))[:, None] * diff
        d_raw[:, 3] = self.amplitude * ds_dz / w
        d_raw[:, 4] = self.amplitude * ds_dz * (r - self.radius) / w**2
        d_raw[:, 5] = s
        color = np.broadcast_to(self.color, (n, 3)).copy()
        return raw, color, d_raw, _constant_color_block(n, self.color, 9, 6)

    def params(self) -> np.ndarray:
        return np.concatenate([self.center, [self.radius, self.softness, self.amplitude], self.color])

    def with_params(self, vector: np.ndarray) -> "SoftSphereField":
        v = _vec(vector, (9,), "params")
        return replace(self, center=v[0:3], radius=v[3], softness=v[4], amplitude=v[5], color=v[6:9])


@dataclass(frozen=True)
class SoftBoxField(Field):
    """Axis-aligned box with sigmoid-softened faces.

    Params: [center(3), half_size(3), softness, amplitude, color(3)].
    """

    kind: ClassVar[str] = "soft_box"
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
        diff = pts - self.center
        q = (self.half_size - np.abs(diff)) / self.softness
        s = _sigmoid(q)
        return diff, q, s, np.prod(s, axis=1)

    def _raw_density(self, pts):
        return self.amplitude * self._parts(pts)[3]

    def _raw(self, pts):
        return self._raw_density(pts), np.broadcast_to(self.color, (pts.shape[0], 3)).copy()

    def _raw_grad(self, pts):
        diff, q, s, f = self._parts(pts)
        raw = self.amplitude * f
        one_minus = 1.0 - s
        w = self.softness
        n = pts.shape[0]
        d_raw = np.zeros((n, 11))
        d_raw[:, 0:3] = raw[:, None] * one_minus * np.sign(diff) / w
        d_raw[:, 3:6] = raw[:, None] * one_minus / w
        d_raw[:, 6] = raw * np.sum(one_minus * (-q), axis=1) / w
        d_raw[:, 7] = f
        color = np.broadcast_to(self.color, (n, 3)).copy()
        return raw, color, d_raw, _constant_color_block(n, self.color, 11, 8)

    def params(self) -> np.ndarray:
        return np.concatenate([self.center, self.half_size, [self.softness, self.amplitude], self.color])

    def with_params(self, vector: np.ndarray) -> "SoftBoxField":
        v = _vec(vector, (11,), "params")
        return replace(self, center=v[0:3], half_size=v[3:6], softness=v[6], amplitude=v[7], color=v[8:11])


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
        rho = np.maximum(np.linalg.norm(pts, axis=1), 1e-12)
        s_dome = _sigmoid((rho - self.dome_radius) / self.softness)
        union = 1.0 - (1.0 - s_plane) * (1.0 - s_dome)
        return s_plane, rho, s_dome, union

    def _colors(self, pts, s_plane, s_dome):
        n = pts.shape[0]
        plane_color = np.broadcast_to(self.color_a, (n, 3)).copy()
        checker_b = np.zeros(n, dtype=bool)
        if self.checker_size > 0:
            cells = np.floor(pts[:, 0] / self.checker_size) + np.floor(pts[:, 1] / self.checker_size)
            checker_b = (cells.astype(np.int64) % 2) != 0
            plane_color[checker_b] = self.color_b
        on_dome = s_dome > s_plane
        color = np.where(on_dome[:, None], self.dome_color, plane_color)
        return color, checker_b, on_dome

    def _raw_density(self, pts):
        return self.amplitude * self._parts(pts)[3]

    def _raw(self, pts):
        s_plane, _, s_dome, union = self._parts(pts)
        color, _, _ = self._colors(pts, s_plane, s_dome)
        return self.amplitude * union, color

    def _raw_grad(self, pts):
        s_plane, rho, s_dome, union = self._parts(pts)
        color, checker_b, on_dome = self._colors(pts, s_plane, s_dome)
        raw = self.amplitude * union
        w = self.softness
        z = pts[:, 2]
        dsp = s_plane * (1.0 - s_plane)
        dsd = s_dome * (1.0 - s_dome)
        du_dsp = 1.0 - s_dome
        du_dsd = 1.0 - s_plane
        n = pts.shape[0]
        d_raw = np.zeros((n, 13))
        d_raw[:, 0] = self.amplitude * (
            du_dsp * dsp * (z / w**2) + du_dsd * dsd * (-(rho - self.dome_radius) / w**2)
        )
        d_raw[:, 1] = union
        d_raw[:, 9] = self.amplitude * du_dsd * dsd * (-1.0 / w)
        d_color = np.zeros((n, 3, 13))
        plane_a = ~on_dome & ~checker_b
        plane_b = ~on_dome & checker_b
        for ch in range(3):
            d_color[plane_a, ch, 2 + ch] = 1.0
            d_color[plane_b, ch, 5 + ch] = 1.0
            d_color[on_dome, ch, 10 + ch] = 1.0
        return raw, color, d_raw, d_color

    def params(self) -> np.ndarray:
        return np.concatenate(
            [
                [self.softness, self.amplitude],
                self.color_a,
                self.color_b,
                [self.checker_size, self.dome_radius],
                self.dome_color,
            ]
        )

    def with_params(self, vector: np.ndarray) -> "GroundPlaneField":
        v = _vec(vector, (13,), "params")
        return replace(
            self,
            softness=v[0],
            amplitude=v[1],
            color_a=v[2:5],
            color_b=v[5:8],
            checker_size=v[8],
            dome_radius=v[9],
            dome_color=v[10:13],
        )


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
    v = np.asarray(vector, dtype=np.float64)
    if kind == "gaussian_blob":
        probe = cls(center=(0, 0, 0), scale=(1, 1, 1), amplitude=1, color=(0, 0, 0), sigma_max=sigma_max)
    elif kind == "soft_sphere":
        probe = cls(center=(0, 0, 0), radius=1, softness=0.1, amplitude=1, color=(0, 0, 0), sigma_max=sigma_max)
    elif kind == "soft_box":
        probe = cls(center=(0, 0, 0), half_size=(1, 1, 1), softness=0.1, amplitude=1, color=(0, 0, 0), sigma_max=sigma_max)
    else:
        probe = cls(
            softness=0.05, amplitude=1, color_a=(0, 0, 0), color_b=(0, 0, 0),
            checker_size=0.0, dome_radius=30.0, dome_color=(0, 0, 0), sigma_max=sigma_max,
        )
    return probe.with_params(v)


def evaluate(field: Field, x, d=None):
    """Module-level convenience for ``field.evaluate``."""
    return field.evaluate(x, d)


def param_vector(field: Field) -> np.ndarray:
    return field.params()


def set_params(field: Field, vector) -> Field:
    return field.with_params(np.asarray(vector, dtype=np.float64))


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
