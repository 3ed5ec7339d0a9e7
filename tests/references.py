"""Earlier versions of the field kernels and of the color mixer, kept as
references, plus hypothesis strategies for fields and points.

The package's kernels avoid boolean-mask gathers, short-axis reductions and
(N, n, 3) color stacks; each must still equal the plainer version here bit
for bit.
"""

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rayfields.compose import NEUTRAL_COLOR
from rayfields.fields import GaussianBlobField, GroundPlaneField, SoftBoxField, SoftSphereField


def masked_sigmoid(z):
    """The logistic function, one boolean-masked branch per sign of z."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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
        s_plane = masked_sigmoid(-pts[:, 2] / w)
        rho = np.maximum(np.linalg.norm(pts, axis=1), 1e-12)
        s_dome = masked_sigmoid((rho - field.dome_radius) / w)
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


def stacked_mix(sigmas, colors):
    """Summed density and density-weighted mean color from per-component
    densities (N, n) and colors (N, n, 3), reduced by sum(axis=1)."""
    total = sigmas.sum(axis=1)
    live = total > 0.0
    safe = np.where(live, total, 1.0)
    color = (colors * sigmas[:, :, None]).sum(axis=1) / safe[:, None]
    color[~live] = NEUTRAL_COLOR
    return total, color


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
