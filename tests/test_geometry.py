import math

import numpy as np
import pytest

from rayfields.geometry import GROUND_CLIP_Z, Camera, Ray, pinhole_rays, ray_at, rig_views


class TestRay:
    def test_point_lookup(self):
        ray = Ray((1.0, 2.0, 3.0), (0.0, 0.0, 1.0), 10.0)
        assert np.allclose(ray_at(ray, 4.0), [1.0, 2.0, 7.0])
        pts = ray_at(ray, np.array([0.0, 1.0, 2.0]))
        assert pts.shape == (3, 3)
        assert np.allclose(pts[:, 2], [3.0, 4.0, 5.0])

    def test_direction_must_be_unit(self):
        with pytest.raises(ValueError, match="unit length"):
            Ray((0, 0, 0), (0, 0, 2.0), 1.0)

    def test_towards_normalizes(self):
        ray = Ray.towards((0, 0, 0), (0, 3.0, 4.0), 5.0)
        assert np.allclose(ray.direction, [0.0, 0.6, 0.8])
        with pytest.raises(ValueError, match="coincides"):
            Ray.towards((1, 1, 1), (1, 1, 1), 5.0)

    def test_t_far_positive(self):
        with pytest.raises(ValueError, match="t_far"):
            Ray((0, 0, 0), (1, 0, 0), 0.0)

    @pytest.mark.parametrize("t_far,error", [(math.inf, ValueError), (math.nan, ValueError), ("5", TypeError),
                                             (True, TypeError), (np.array([5.0]), TypeError)])
    def test_t_far_is_a_finite_number(self, t_far, error):
        with pytest.raises(error, match="^t_far must be"):
            Ray((0, 0, 0), (1, 0, 0), t_far)

    def test_finite_vectors_required(self):
        with pytest.raises(ValueError, match="finite"):
            Ray((np.inf, 0, 0), (1, 0, 0), 1.0)

    @pytest.mark.parametrize("origin", [("1", "0", "0"), (True, False, True), np.array([1, 0, 0], dtype=object),
                                        np.ones(3, dtype=complex)])
    def test_vectors_must_hold_integers_or_floats(self, origin):
        with pytest.raises(TypeError, match="^origin must hold integers or floats, got dtype "):
            Ray(origin, (1, 0, 0), 1.0)

    @pytest.mark.parametrize("origin", [(1, 0, 0), np.array([1, 0, 0], dtype=np.uint8), np.ones(3, np.float32)])
    def test_integer_and_float_vectors_convert(self, origin):
        assert Ray(origin, (1, 0, 0), 1.0).origin.dtype == np.float64


class TestCamera:
    def test_basis_is_orthonormal(self):
        cam = Camera(position=(4.0, 1.0, 2.0), look_at=(0.0, 0.0, 0.5), width=8, height=8)
        f, r, u = cam.basis()
        for v in (f, r, u):
            assert math.isclose(np.linalg.norm(v), 1.0, abs_tol=1e-12)
        assert abs(f @ r) < 1e-12 and abs(f @ u) < 1e-12 and abs(r @ u) < 1e-12
        assert np.allclose(np.cross(r, f), u)  # cam-up completes the frame

    def test_degenerate_up_rejected(self):
        cam = Camera(position=(0, 0, 5.0), look_at=(0, 0, 0), width=4, height=4)
        with pytest.raises(ValueError, match="parallel"):
            cam.basis()

    def test_field_of_view_bounds(self):
        with pytest.raises(ValueError, match="vertical_fov"):
            Camera(position=(1, 0, 0), look_at=(0, 0, 0), width=4, height=4, vertical_fov=math.pi)

    @pytest.mark.parametrize("kwargs,error,words", [
        ({"width": 8.9}, TypeError, "width must be an integer, got 8.9"),
        ({"width": 8.0}, TypeError, "width must be an integer"),
        ({"width": True}, TypeError, "width must be an integer, got True"),
        ({"height": "8"}, TypeError, "height must be an integer, got '8'"),
        ({"width": 0}, ValueError, "width must be >= 1, got 0"),
        ({"height": np.int64(-2)}, ValueError, "height must be >= 1, got -2"),
        ({"vertical_fov": "0.8"}, TypeError, "vertical_fov must be a number, got '0.8'"),
        ({"vertical_fov": True}, TypeError, "vertical_fov must be a number"),
        ({"vertical_fov": np.bool_(True)}, TypeError, "vertical_fov must be a number"),
        ({"vertical_fov": None}, TypeError, "vertical_fov must be a number"),
        ({"position": ("4.6", "0", "2.4")}, TypeError, "position must hold integers or floats"),
        ({"up": (False, False, True)}, TypeError, "up must hold integers or floats"),
    ])
    def test_rejects_what_it_would_coerce(self, kwargs, error, words):
        base = {"position": (4.6, 0, 2.4), "look_at": (0, 0, 0.5), "width": 8, "height": 8}
        with pytest.raises(error, match=f"^{words}"):
            Camera(**{**base, **kwargs})

    def test_numpy_numbers_are_stored_as_python_numbers(self):
        cam = Camera(position=(4.6, 0, 2.4), look_at=(0, 0, 0.5), width=np.int32(8), height=np.uint16(6),
                     vertical_fov=np.float32(0.5))
        assert (type(cam.width), type(cam.height), type(cam.vertical_fov)) == (int, int, float)
        assert (cam.width, cam.height, cam.vertical_fov) == (8, 6, float(np.float32(0.5)))


class TestPinholeRays:
    @pytest.mark.parametrize("t_far,error", [(math.inf, ValueError), (0.0, ValueError), ("10", TypeError)])
    def test_cutoff_is_a_positive_finite_number(self, t_far, error):
        cam = Camera(position=(4, 0, 2), look_at=(0, 0, 0.5), width=2, height=2)
        with pytest.raises(error, match="^t_far must be"):
            pinhole_rays(cam, t_far, clip_z=None)

    def test_shape_and_unit_directions(self):
        cam = Camera(position=(4, 0, 2), look_at=(0, 0, 0.5), width=6, height=4)
        grid = pinhole_rays(cam, 10.0)
        assert len(grid) == 24
        assert grid.shape == (4, 6)
        assert np.allclose(np.linalg.norm(grid.directions, axis=1), 1.0)
        assert np.all(grid.origins == cam.position)

    def test_center_pixel_points_forward(self):
        cam = Camera(position=(5, 0, 0), look_at=(0, 0, 0), width=9, height=9)
        grid = pinhole_rays(cam, 10.0)
        center = grid.directions[4 * 9 + 4]
        assert np.allclose(center, [-1.0, 0.0, 0.0], atol=1e-12)

    def test_row_major_and_image_orientation(self):
        # Row 0 is the top of the image: those rays point upward relative to
        # the bottom row; column 0 is to the camera's left.
        cam = Camera(position=(5, 0, 0), look_at=(0, 0, 0), width=3, height=3)
        grid = pinhole_rays(cam, 10.0)
        top = grid.directions[1]      # row 0, middle column
        bottom = grid.directions[7]   # row 2, middle column
        assert top[2] > bottom[2]
        _, right, _ = cam.basis()
        left_col = grid.directions[3]
        right_col = grid.directions[5]
        assert left_col @ right < right_col @ right

    def test_descending_rays_clip_at_ground(self):
        cam = Camera(position=(0, 0, 2.0), look_at=(4.0, 0, 0.0), width=5, height=5)
        grid = pinhole_rays(cam, 100.0)
        down = grid.directions[:, 2] < 0
        assert down.any()
        end_heights = grid.origins[down, 2] + grid.t_fars[down] * grid.directions[down, 2]
        assert np.allclose(end_heights, GROUND_CLIP_Z)
        up = ~down
        assert np.all(grid.t_fars[up] == 100.0)

    def test_clip_can_be_disabled(self):
        cam = Camera(position=(0, 0, 2.0), look_at=(4.0, 0, 0.0), width=3, height=3)
        grid = pinhole_rays(cam, 50.0, clip_z=None)
        assert np.all(grid.t_fars == 50.0)

    def test_square_pixels_via_aspect(self):
        cam = Camera(position=(5, 0, 0), look_at=(0, 0, 0), width=8, height=4, vertical_fov=0.6)
        grid = pinhole_rays(cam, 10.0)
        f, right, up = cam.basis()
        d = grid.directions / (grid.directions @ f)[:, None]
        xs = (d @ right).reshape(4, 8)
        ys = (d @ up).reshape(4, 8)
        step_x = xs[0, 1] - xs[0, 0]
        step_y = ys[0, 0] - ys[1, 0]
        assert math.isclose(step_x, step_y, rel_tol=1e-12)

    def test_ray_accessor_matches_arrays(self):
        cam = Camera(position=(4, 1, 2), look_at=(0, 0, 0), width=3, height=2)
        grid = pinhole_rays(cam, 7.0)
        ray = grid.ray(4)
        assert np.array_equal(ray.origin, grid.origins[4])
        assert np.array_equal(ray.direction, grid.directions[4])
        assert ray.t_far == grid.t_fars[4]


class TestRig:
    def test_three_views_rotated_about_z(self):
        base = Camera(position=(4.6, 0.0, 2.4), look_at=(0, 0, 0.5), width=4, height=4)
        views = rig_views(base)
        assert len(views) == 3
        assert views[0] is base
        radii = [np.hypot(v.position[0], v.position[1]) for v in views]
        assert np.allclose(radii, radii[0])
        assert all(v.position[2] == base.position[2] for v in views)
        angles = sorted(math.atan2(v.position[1], v.position[0]) % (2 * math.pi) for v in views)
        gaps = np.diff(angles + [angles[0] + 2 * math.pi])
        assert np.allclose(gaps, 2 * math.pi / 3)
