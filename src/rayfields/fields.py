"""Density and color fields over 3-D space.

Every field kind obeys one contract: density is finite, non-negative, capped
at ``sigma_max``, and independent of the viewing direction; colors land in
[0, 1]^3 and stay defined even where density vanishes.  Each kind flattens to
a parameter vector, laid out by its ``layout`` table, so optimizers can treat
scenes as plain arrays.  A kind with one color everywhere reports it as a
single (3,) row, which callers broadcast instead of copying per point.

The layout is a kind's one description of its parameters: it declares the
kind's dataclass fields, and ``Field.__init_subclass__`` compiles it once per
kind into the vector size and each group's span.  Color offsets (the starts
of the unit groups) and the constant-color kinds' density indices are read
off it, and each group names a domain in ``_DOMAINS``, which holds what a
constructor requires beyond finiteness and the box the fitter projects
into.  A scene's vector is laid out once per tuple of kinds
(``_scene_layout``), for the scene's rebuild, the fitter's box and the loss
gradient's slots.  Colors need only be finite, as they are clipped where
read.  ``checker_size`` takes any finite value (a cell <= 0 draws no
checker) but is boxed to [0, inf): a ">= 0" rule would reject the step
below 0 that ``fitting.finite_diff_gradient`` takes.

The differentiable kinds supply closed-form density gradients as rows: each
names the parameters its density depends on (``density_params``) and
returns d(raw density)/d(param) for each of them as one contiguous (N,) row,
so a caller that only needs a vector-Jacobian product contracts the rows
with its per-point weights and never forms the (N, P) Jacobian.  Colors
come from a palette of parameter slots (``color_offsets``, ``_grad_sources``),
so their gradient is a selection, not a product.

A kind also owns its half-maximum surface (``_surface_distance``) and, for
object kinds, its footprint (``on_footprint``, ``footprint_radius``).

The density kernels are allocation-lean, and every kind keeps one density
formula.  A kernel overwrites only arrays it allocated itself, never the
caller's points: on the density and render paths a kind's chain
(``_parts`` with ``in_place=True``, its unit profile last) squares its
offsets over themselves, sums them into their first row and writes each
``_sigmoid`` over its argument, while the gradient path keeps every
intermediate it returns.  ``_density`` and ``_density_color`` write the
capped density straight into a row the caller passes (``out``), so a
scene fills its (n, N) component rows without a copy.  Only the
destinations differ between the paths, never the operations or their
order, so every path gives the same bits.

The point queries ``evaluate`` and ``density`` are written once, in
``_PointQueries``, which ``Field`` and ``compose.CompositeScene`` (and so a
merged scene view) inherit.  They read only the two batch methods a render
calls, ``_evaluate`` and ``_density_components``, and a field is a
one-component scene to them.  A total of per-component densities, whether
a point query, a render pass or a merged view returns it, follows one rule,
``_density_total``: a lone row is the total itself, and more rows sum by
``_total`` in the order NumPy sums (N, n) points.
"""

from __future__ import annotations

import abc
import collections
import functools
import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .geometry import _hit_box, _hit_ellipsoid, _real, _smallest_positive_root

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


# Per domain: the test a constructor puts to a group's least value beyond
# finiteness (None: none), its words in an error, and the fitter's box.  A unit
# group is a color: its start is one of the kind's ``color_offsets``.
_DOMAINS = {
    "free": (None, "finite", (-math.inf, math.inf)),
    "width": (lambda least: least > 0, "positive", (1e-3, math.inf)),
    "nonneg": (lambda least: least >= 0, "non-negative", (0.0, math.inf)),
    "unit": (None, "finite", (0.0, 1.0)),
    "cell": (None, "finite", (0.0, math.inf)),  # checker_size; see the module docstring
}


# A scene's parameter vector: its size, each component's (start, end), the slots of each
# ``_DOMAINS`` rule with a test, the fitter's projection box (2, size), the gradient's
# density and color slots, and each component's first row in the scene's palette.
_SceneLayout = collections.namedtuple("_SceneLayout", "size spans rules box density_slots color_slots first_rows")


@functools.lru_cache(maxsize=16)
def _scene_layout(kinds: tuple[type, ...]) -> _SceneLayout | None:
    """The layout of a scene whose components have the field types
    ``kinds``, shared by every call; None if a kind has no ``layout``."""
    if not all(kind.layout for kind in kinds):
        return None
    starts = np.cumsum([0] + [kind._size for kind in kinds]).tolist()
    domains = [domain for kind in kinds for _, start, stop, domain in kind._spans for _ in range(start, stop)]
    rules = [(np.flatnonzero(np.equal(domains, d)), test) for d, (test, _, _) in _DOMAINS.items() if test]
    arrays = (np.array([_DOMAINS[d][2] for d in domains]).T,
              np.concatenate([at + np.array(kind.density_params, dtype=int) for kind, at in zip(kinds, starts)]),
              np.concatenate([at + np.add.outer(kind.color_offsets, range(3)).ravel()
                              for kind, at in zip(kinds, starts)]),
              np.cumsum([0] + [len(kind.color_offsets) for kind in kinds[:-1]]))
    for array in arrays + tuple(slots for slots, _ in rules):
        array.flags.writeable = False
    return _SceneLayout(starts[-1], list(zip(starts, starts[1:])), rules, *arrays)


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, both
    from e = exp(-|z|), which never overflows.  Written into ``out`` (which
    may be ``z`` itself) when given."""
    numerator = np.greater_equal(z, 0.0, out=np.empty(z.shape))  # 1.0 or 0.0
    e = np.abs(z, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.maximum(e, numerator, out=numerator)  # 1.0 where z >= 0 (as e <= 1), e below
    np.add(e, 1.0, out=e)
    return np.divide(numerator, e, out=e)


def _offsets(pts: np.ndarray, center: np.ndarray) -> np.ndarray:
    """``pts - center`` as channel-major rows (3, N).  Every later pass then
    runs over contiguous points; the same arithmetic on (N, 3) would run
    NumPy's inner loops three elements at a time."""
    return np.subtract(pts.T, center[:, None], order="C")


def _sum3(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum of the three rows of (3, N), added left to right: the order
    ``np.sum`` adds three terms in, so the result is bit-identical unless
    all three terms are -0.0 (squares never are).  Written into ``out``
    (which may be ``a[0]``) when given."""
    out = np.add(a[0], a[1], out=out)
    out += a[2]
    return out


def _pairwise(rows: np.ndarray) -> np.ndarray:
    """NumPy's pairwise sum of 8 or more rows: eight lanes added row by row,
    folded as ((0+1)+(2+3))+((4+5)+(6+7)), then the leftover rows in
    order; blocks of more than 128 rows are split in two (at a multiple of
    8) and summed recursively."""
    n = rows.shape[0]
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _pairwise(rows[:half]) + _pairwise(rows[half:])
    tail = n - n % 8
    lanes = rows[:8].copy() if tail > 8 else rows[:8]  # written only when more rows add into them
    for at in range(8, tail, 8):
        lanes += rows[at : at + 8]
    out = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
    for row in rows[tail:]:
        out += row
    return out


def _total(rows: np.ndarray) -> np.ndarray:
    """Sum over the first axis of rows (k, N), bit-identical to
    ``sum(axis=1)`` of the same values as a C-ordered (N, k) array.  NumPy
    adds such a contiguous axis from 0.0, left to right below 8 terms and
    pairwise from 8 on; both are reproduced here on whole rows.  A single
    column is that contiguous axis already."""
    if rows.shape[0] < 8 or rows.shape[1] == 1:
        return rows.sum(axis=0)  # an outer-axis sum: 0.0, then row by row
    out = _pairwise(rows)
    out += 0.0  # the 0.0 NumPy starts from: -0.0 becomes 0.0
    return out


def _density_total(sigmas: np.ndarray) -> np.ndarray:
    """Total density of per-component densities (n, N): a lone component's
    row is the total itself, more rows sum by ``_total``."""
    return sigmas[0] if sigmas.shape[0] == 1 else _total(sigmas)


def _channel_rows(color: np.ndarray, n: int) -> np.ndarray:
    """Color as channel-major rows (3, n): a single (3,) row broadcast (a
    read-only view), an (n, 3) array transposed (a view)."""
    return np.broadcast_to(color[:, None], (3, n)) if color.ndim == 1 else color.T


def _zero_padded(table: np.ndarray) -> np.ndarray:
    """``table`` with one zero row before its first row and after its last."""
    zero = np.zeros((1,) + table.shape[1:])
    return np.concatenate((zero, table, zero))


def _check_points(points) -> tuple[np.ndarray, bool]:
    pts = np.asarray(points)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (N, 3) or (3,), got {pts.shape}")
    return _real(pts, "points", pts.shape), single


class _PointQueries(abc.ABC):
    """``evaluate`` and ``density`` of anything a render evaluates: a field,
    a scene or a scene's merged view.  They are built from the two batch
    methods the render calls, so a query returns the bits a render sample
    at the same point reads."""

    @abc.abstractmethod
    def _evaluate(self, pts: np.ndarray):
        """Total density (N,), color as channel-major rows (3, N) and
        per-component densities as rows (n, N) at checked points (N, 3).
        The color rows are either read-only (one color broadcast) or a fresh
        buffer (or a view of one) that the caller owns."""

    @abc.abstractmethod
    def _density_components(self, pts: np.ndarray) -> np.ndarray:
        """Per-component densities as rows (n, N) at checked points (N, 3)."""

    def evaluate(self, points, direction=None) -> tuple[np.ndarray, np.ndarray]:
        """Density (N,) and C-ordered color (N, 3) at points (N, 3), or a
        float and a (3,) color at one point (3,).  ``direction`` is accepted
        but never changes either (all kinds here are Lambertian)."""
        pts, single = _check_points(points)
        sigma, color, _ = self._evaluate(pts)
        if single:
            return float(sigma[0]), color[:, 0].copy()
        return sigma, color.T.copy()

    def density(self, points):
        """Density alone at ``points``, bit-identical to ``evaluate(...)[0]``
        without the color work: the ``_density_total`` of the component rows."""
        pts, single = _check_points(points)
        sigma = _density_total(self._density_components(pts))
        if single:
            return float(sigma[0])
        return sigma


class Field(_PointQueries):
    """Base contract shared by all field kinds."""

    kind: ClassVar[str]
    # Parameter groups in vector order: (attribute, size, domain), each domain
    # a key of ``_DOMAINS``.  The layout declares the kind's dataclass fields:
    # one per group (a float for size 1, else an array), then ``sigma_max``.
    # A kind without a layout declares and checks its own fields and
    # overrides params/with_params.
    layout: ClassVar[tuple[tuple[str, int, str], ...]] = ()
    # Compiled from ``layout``: the vector size and each group's
    # (attribute, start, stop, domain); the starts of the unit groups.
    _size: ClassVar[int] = 0
    _spans: ClassVar[tuple[tuple[str, int, int, str], ...]] = ()
    color_offsets: ClassVar[tuple[int, ...]]
    # Indices of the parameters the density depends on, in the order of the
    # rows ``_raw_density_rows`` returns; every other parameter's density
    # derivative is exactly 0.
    density_params: ClassVar[tuple[int, ...]] = ()
    # Object kinds: xy bounding-circle radius, per unit size, of an object
    # built by ``on_footprint``; None for a kind not placed as an object.
    footprint_radius: ClassVar[float | None] = None
    sigma_max: float | None

    def __init_subclass__(cls, **kwargs):
        """Compile a kind's own ``layout``: write its dataclass annotations
        (before the kind's ``@dataclass`` runs) and its class data."""
        super().__init_subclass__(**kwargs)
        if "layout" not in vars(cls):
            return
        stops = np.cumsum([size for _, size, _ in cls.layout]).tolist()
        cls._spans = tuple((name, stop - size, stop, domain)
                           for (name, size, domain), stop in zip(cls.layout, stops))
        cls._size = stops[-1]
        cls.color_offsets = tuple(start for _, start, _, domain in cls._spans if domain == "unit")
        cls.__annotations__.update({name: "float" if size == 1 else "np.ndarray" for name, size, _ in cls.layout})
        cls.__annotations__["sigma_max"] = "float | None"
        cls.sigma_max = DEFAULT_SIGMA_MAX

    def __post_init__(self):
        """Store each layout group, checked by its domain's rule, then the cap (``width`` rule)."""
        cap = () if self.sigma_max is None else (("sigma_max", 1, "width"),)
        for name, size, domain in self.layout + cap:
            value = _real(getattr(self, name), name, () if size == 1 else (size,))
            test, words, _ = _DOMAINS[domain]
            if test is not None and not test(value if size == 1 else value.min()):
                raise ValueError(f"{name} must be {words}")
            object.__setattr__(self, name, value)

    def _raw(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Uncapped density (N,) and unclipped color at ``pts``: (N, 3), or
        one (3,) row that holds at every point (here, the one ``color``)."""
        return self._raw_density(pts), self.color

    @abc.abstractmethod
    def _raw_density(self, pts: np.ndarray) -> np.ndarray:
        """Uncapped density (N,) at ``pts``, equal to ``_raw(pts)[0]``."""

    def _raw_density_rows(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Uncapped density (N,), equal to ``_raw_density(pts)``, and its
        derivative by each parameter in ``density_params``: a C-ordered
        (len(density_params), N) array, one contiguous row per parameter."""
        raise UnsupportedGradient(f"field kind {self.kind!r} has no parameter gradients")

    def _grad_sources(self, pts: np.ndarray, n: int):
        """``_raw_density_rows(pts)``, the unclipped palette (k, 3), row j's red channel being parameter
        ``color_offsets[j]``, and each of the first ``n`` points' palette row (None: the one ``color``)."""
        return *self._raw_density_rows(pts), self.color[None], None

    @property
    def n_params(self) -> int:
        return self._size or self.params().shape[0]

    def params(self) -> np.ndarray:
        """Flat parameter vector; ``with_params`` inverts it."""
        out = np.empty(self._size)
        for name, start, stop, _ in self._spans:
            out[start:stop] = getattr(self, name)
        return out

    def with_params(self, vector: np.ndarray) -> "Field":
        """New field of the same kind/structure with the given parameters."""
        return replace(self, **self._groups(vector))

    def _with_checked_params(self, vector: np.ndarray) -> "Field":
        """``with_params`` without ``__post_init__``, for a vector whose every
        slot has passed its group's domain rule (a scene checks whole vectors)."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, **self._groups(vector))
        return out

    @classmethod
    def _groups(cls, vector) -> dict:
        """Attribute values of a parameter vector laid out by ``layout``, as
        given (a size-1 group as a Python scalar); only its shape is checked
        here, each group by ``__post_init__``."""
        v = np.asarray(vector)
        if v.shape != (cls._size,):
            raise ValueError(f"params must have shape {(cls._size,)}, got {v.shape}")
        return {name: v.item(start) if stop - start == 1 else v[start:stop] for name, start, stop, _ in cls._spans}

    def _cap(self, raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``raw`` capped at ``sigma_max``, written into ``out`` when given
        (else into a fresh array, or ``raw`` itself without a cap)."""
        if self.sigma_max is not None:
            return np.minimum(raw, self.sigma_max, out=out)
        if out is None:
            return raw
        out[...] = raw
        return out

    def _density_color(self, pts: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Capped density (N,) and clipped color at checked points (N, 3);
        the color is (N, 3), or one (3,) row for a kind whose color is the
        same everywhere.  The density lands in ``out`` when given."""
        raw, color = self._raw(pts)
        return self._cap(raw, out), np.clip(color, 0.0, 1.0)

    def _density(self, pts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Capped density (N,) at checked points (N, 3), written into
        ``out`` (and returned) when given."""
        return self._cap(self._raw_density(pts), out)

    def _evaluate(self, pts: np.ndarray):
        """The batch of a one-component scene: density, color rows, density as one row (1, N)."""
        sigma, color = self._density_color(pts)
        return sigma, _channel_rows(color, pts.shape[0]), sigma[None, :]

    def _density_components(self, pts: np.ndarray) -> np.ndarray:
        """The density as one row (1, N), as a one-component scene gives it."""
        return self._density(pts)[None, :]

    def _surface_distance(self, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Distance (N,) along rays (origins, unit dirs (N, 3)) to the
        half-maximum surface, inf where a ray misses it."""
        raise TypeError(f"no analytic surface for field kind {self.kind!r}")


class _ConstantColorField(Field):
    """A kind with one color everywhere: its ``color`` group, after every density parameter."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.density_params = tuple(range(cls.color_offsets[0]))

    def _raw_density(self, pts):
        """Amplitude times the unit profile ending ``_parts``, in place."""
        profile = self._parts(pts, in_place=True)[-1]
        return np.multiply(self.amplitude, profile, out=profile)


@dataclass(frozen=True)
class GaussianBlobField(_ConstantColorField):
    """Anisotropic Gaussian density bump with one constant color."""

    kind: ClassVar[str] = "gaussian_blob"
    footprint_radius = 1.0
    layout = (("center", 3, "free"), ("scale", 3, "width"), ("amplitude", 1, "nonneg"), ("color", 3, "unit"))

    def _parts(self, pts, in_place=False):
        """Scaled offsets u (3, N) and the unit bump exp(-|u|^2 / 2) (N,);
        ``in_place`` squares u over itself, so only the bump is valid."""
        u = _offsets(pts, self.center)
        u /= self.scale[:, None]
        sq = np.multiply(u, u, out=u if in_place else None)
        g = _sum3(sq, out=sq[0])
        g *= -0.5
        return u, np.exp(g, out=g)

    def _raw_density_rows(self, pts):
        u, g = self._parts(pts)
        raw = self.amplitude * g
        rows = np.empty((7, pts.shape[0]))
        np.multiply(raw, u, out=rows[0:3])
        np.multiply(u, u, out=rows[3:6])
        rows[3:6] *= raw
        by_center_and_scale = rows[0:6].reshape(2, 3, -1)  # raw u / scale, raw u^2 / scale
        np.divide(by_center_and_scale, self.scale[:, None], out=by_center_and_scale)
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
    """Sigmoid-edged solid sphere."""

    kind: ClassVar[str] = "soft_sphere"
    footprint_radius = 1.0
    layout = (("center", 3, "free"), ("radius", 1, "width"), ("softness", 1, "width"),
              ("amplitude", 1, "nonneg"), ("color", 3, "unit"))

    def _parts(self, pts, in_place=False):
        """Offsets (3, N), distance r (N,) and the edge sigmoid (N,);
        ``in_place`` computes each over the one before, so only the sigmoid
        is valid."""
        diff = _offsets(pts, self.center)
        sq = np.multiply(diff, diff, out=diff if in_place else None)
        r = _sum3(sq, out=sq[0])
        np.sqrt(r, out=r)
        np.maximum(r, 1e-12, out=r)
        z = np.subtract(self.radius, r, out=r if in_place else None)
        z /= self.softness
        return diff, r, _sigmoid(z, out=z)

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
    """Axis-aligned box with sigmoid-softened faces."""

    kind: ClassVar[str] = "soft_box"
    footprint_radius = math.sqrt(2.0)
    layout = (("center", 3, "free"), ("half_size", 3, "width"), ("softness", 1, "width"),
              ("amplitude", 1, "nonneg"), ("color", 3, "unit"))

    def _parts(self, pts, in_place=False):
        """Offsets (3, N), face coordinates q (3, N), their sigmoids s
        (3, N) and the product f (N,) of the three; ``in_place`` computes
        each over the one before, so only f is valid."""
        diff = _offsets(pts, self.center)
        q = np.abs(diff, out=diff if in_place else None)
        np.subtract(self.half_size[:, None], q, out=q)
        q /= self.softness
        s = _sigmoid(q, out=q if in_place else None)
        f = np.multiply(s[0], s[1], out=s[0] if in_place else None)
        f *= s[2]
        return diff, q, s, f

    def _raw_density_rows(self, pts):
        diff, q, s, f = self._parts(pts)
        raw = self.amplitude * f
        w = self.softness
        rows = np.empty((8, pts.shape[0]))
        one_minus = np.subtract(1.0, s, out=s)
        np.multiply(raw, one_minus, out=rows[3:6])
        np.multiply(rows[3:6], np.sign(diff, out=diff), out=rows[0:3])
        rows[0:6] /= w
        np.divide(raw * np.add.reduce(one_minus * (-q), axis=0), w, out=rows[6])  # np.sum's reduction
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
    """

    kind: ClassVar[str] = "ground_plane"
    layout = (("softness", 1, "width"), ("amplitude", 1, "nonneg"), ("color_a", 3, "unit"),
              ("color_b", 3, "unit"), ("checker_size", 1, "cell"), ("dome_radius", 1, "width"),
              ("dome_color", 3, "unit"))
    density_params = (0, 1, 9)  # softness, amplitude, dome_radius

    def _parts(self, pts, in_place=False):
        """Plane sigmoid (N,), distance rho from the origin (N,) and dome
        sigmoid (N,); ``in_place`` computes the dome sigmoid over rho."""
        z = np.negative(pts[:, 2])
        z /= self.softness
        s_plane = _sigmoid(z, out=z)
        sq = np.multiply(pts.T, pts.T, order="C")
        rho = _sum3(sq, out=sq[0])
        np.sqrt(rho, out=rho)
        np.maximum(rho, 1e-12, out=rho)
        z = np.subtract(rho, self.dome_radius, out=rho if in_place else None)
        z /= self.softness
        return s_plane, rho, _sigmoid(z, out=z)

    @staticmethod
    def _union(s_plane, s_dome, in_place=False):
        """1 - (1 - s_plane) (1 - s_dome); ``in_place`` computes it over both sigmoids."""
        free = np.subtract(1.0, s_plane, out=s_plane if in_place else None)
        free *= np.subtract(1.0, s_dome, out=s_dome if in_place else None)
        return np.subtract(1.0, free, out=free)

    def _surface(self, pts, s_plane, s_dome):
        """Palette entry of each point: 1 (color_b) on odd checker cells, 2
        (dome_color) where the dome dominates, 0 (color_a) elsewhere."""
        surface = 0
        if self.checker_size > 0:
            cells = np.floor(pts[:, 0] / self.checker_size) + np.floor(pts[:, 1] / self.checker_size)
            surface = cells.astype(np.int64) % 2
        return np.where(s_dome > s_plane, 2, surface)

    def _palette(self):
        """Unclipped colors of palette entries 0, 1 and 2, as rows (3, 3)."""
        return np.array([self.color_a, self.color_b, self.dome_color])

    def _raw_density(self, pts):
        s_plane, _, s_dome = self._parts(pts, in_place=True)
        union = self._union(s_plane, s_dome, in_place=True)
        return np.multiply(self.amplitude, union, out=union)

    def _raw(self, pts, palette=None):
        """Uncapped density and colors (N, 3) gathered from ``palette`` (default: the unclipped one)."""
        s_plane, _, s_dome = self._parts(pts, in_place=True)
        palette = self._palette() if palette is None else palette
        color = np.take(palette.T, self._surface(pts, s_plane, s_dome), axis=1).T
        union = self._union(s_plane, s_dome, in_place=True)
        return np.multiply(self.amplitude, union, out=union), color

    def _density_color(self, pts, out=None):
        """Clips the 3x3 palette, not the gathered (N, 3) colors: the same bits."""
        raw, color = self._raw(pts, self._palette().clip(0.0, 1.0))
        return self._cap(raw, out), color

    def _grad_sources(self, pts, n):
        """One ``_parts`` pass serves the density rows and the surface points' palette entries."""
        parts = self._parts(pts)
        surface = self._surface(pts[:n], parts[0][:n], parts[2][:n])
        return *self._raw_density_rows(pts, parts), self._palette(), surface

    def _raw_density_rows(self, pts, parts=()):
        s_plane, rho, s_dome = parts or self._parts(pts)
        union = self._union(s_plane, s_dome)
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
        object.__setattr__(self, "axis_origin", _real(self.axis_origin, "axis_origin", (3,)))
        d = _real(self.axis_direction, "axis_direction", (3,))
        n = np.linalg.norm(d)
        if n == 0:
            raise ValueError("axis_direction must be nonzero")
        object.__setattr__(self, "axis_direction", d / n)
        b = _real(self.breakpoints, "breakpoints", (len(self.breakpoints),))
        if b.shape[0] < 2 or not np.all(np.diff(b) > 0):
            raise ValueError("breakpoints must be strictly increasing with >= 2 entries")
        if b[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        m = b.shape[0] - 1
        s = _real(self.sigmas, "sigmas", (m,))
        c = _real(self.colors, "colors", (m, 3))
        if np.any(s < 0):
            raise ValueError("interval densities must be non-negative")
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
        v = _real(vector, "params", (4 * m,))
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

