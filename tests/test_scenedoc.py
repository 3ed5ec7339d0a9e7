"""Tests for JSON scene documents: roundtrips, canonical bytes, validation."""

import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings

import rayfields as rf
from rayfields.fields import DEFAULT_SIGMA_MAX, GaussianBlobField
from rayfields.geometry import Camera
from rayfields.scenedoc import (
    SCENE_DOC_VERSION,
    SceneFormatError,
    doc_to_scene,
    dumps_canonical,
    load_scene,
    save_scene,
    scene_to_doc,
    two_blob_demo_scene,
)
from rayfields.transport import QuadratureConfig

from references import SCENES, SIGMA_MAX


def with_cap(scene, cap):
    """``scene`` with every component capped at ``cap``."""
    return rf.CompositeScene(tuple(replace(c, sigma_max=cap) for c in scene.components), t_far=scene.t_far)


class TestRoundtrip:
    def test_scene_params_survive(self):
        scene = two_blob_demo_scene()
        doc = scene_to_doc(scene)
        back = doc_to_scene(doc)
        assert back.scene.n == scene.n
        assert back.scene.t_far == scene.t_far
        assert np.array_equal(back.scene.params(), scene.params())
        for a, b in zip(back.scene.components, scene.components):
            assert a.kind == b.kind

    @settings(max_examples=100, deadline=None)
    @given(SCENES, SIGMA_MAX)
    def test_canonical_dump_reloads_to_the_same_bytes_and_params(self, scene, sigma_max):
        scene = with_cap(scene, sigma_max)
        text = dumps_canonical(scene_to_doc(scene))
        back = doc_to_scene(json.loads(text))
        assert dumps_canonical(scene_to_doc(back.scene)) == text
        assert back.scene.params().tobytes() == scene.params().tobytes()
        assert [c.kind for c in back.scene.components] == [c.kind for c in scene.components]
        assert [c.sigma_max for c in back.scene.components] == [sigma_max] * scene.n

    @settings(max_examples=50, deadline=None)
    @given(SCENES.filter(lambda scene: len({repr(c.sigma_max) for c in scene.components}) > 1))
    def test_mixed_caps_cannot_be_written(self, scene):
        with pytest.raises(SceneFormatError, match="components must share one sigma_max"):
            scene_to_doc(scene)

    @pytest.mark.parametrize("cap,amplitude", [(5.0, 4.0), (None, 30.0), (10.0, 8.0)])
    def test_round_trip_keeps_each_component_cap(self, cap, amplitude):
        blob = GaussianBlobField(center=(0, 0, 1), scale=(0.5, 0.5, 0.5), amplitude=amplitude,
                                 color=(1, 0, 0), sigma_max=cap)
        doc = json.loads(dumps_canonical(scene_to_doc(rf.CompositeScene((blob, blob)))))
        assert doc["sigma_max"] == cap
        assert [c.sigma_max for c in doc_to_scene(doc).scene.components] == [cap, cap]

    def test_names_default_and_custom(self):
        scene = two_blob_demo_scene()
        assert doc_to_scene(scene_to_doc(scene)).names == (
            "component_0",
            "component_1",
            "component_2",
        )
        named = scene_to_doc(scene, names=("a", "b", "background"))
        assert doc_to_scene(named).names == ("a", "b", "background")
        with pytest.raises(ValueError):
            scene_to_doc(scene, names=("too", "few"))

    def test_camera_and_quadrature_blocks(self):
        scene = two_blob_demo_scene()
        cam = Camera(position=(4.6, 0, 2.4), look_at=(0, 0, 0.5), width=64, height=48)
        quad = QuadratureConfig(n_coarse=32, n_fine=96, seed=11, stratified=False)
        doc = scene_to_doc(scene, camera=cam, quadrature=quad)
        back = doc_to_scene(doc)
        assert back.camera.width == 64 and back.camera.height == 48
        assert np.allclose(back.camera.position, (4.6, 0, 2.4))
        assert back.quadrature == quad

    def test_blocks_absent_when_not_given(self):
        doc = scene_to_doc(two_blob_demo_scene())
        assert "camera" not in doc and "quadrature" not in doc
        back = doc_to_scene(doc)
        assert back.camera is None and back.quadrature is None and back.objects is None

    def test_objects_metadata_passthrough(self):
        meta = [{"kind": "gaussian_blob", "size": 0.5}]
        doc = scene_to_doc(two_blob_demo_scene(), objects=meta)
        assert doc_to_scene(doc).objects == meta

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "scene.json"
        doc = scene_to_doc(two_blob_demo_scene())
        save_scene(path, doc)
        back = load_scene(path)
        assert np.array_equal(back.scene.params(), two_blob_demo_scene().params())
        assert not list(tmp_path.glob("*.tmp"))

    def test_sigma_max_none_means_uncapped(self):
        scene = with_cap(two_blob_demo_scene(), None)
        doc = scene_to_doc(scene)
        assert doc["sigma_max"] is None
        back = doc_to_scene(doc)
        assert [c.sigma_max for c in back.scene.components] == [None] * scene.n

    def test_missing_cap_means_the_default(self):
        doc = scene_to_doc(with_cap(two_blob_demo_scene(), 5.0))
        del doc["sigma_max"]
        assert {c.sigma_max for c in doc_to_scene(doc).scene.components} == {DEFAULT_SIGMA_MAX}


class TestCanonicalBytes:
    def test_stable_across_key_order(self):
        doc = scene_to_doc(two_blob_demo_scene())
        shuffled = json.loads(json.dumps(doc))
        shuffled = dict(reversed(list(shuffled.items())))
        assert dumps_canonical(doc) == dumps_canonical(shuffled)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_numbers_rejected(self, value):
        with pytest.raises(ValueError):
            dumps_canonical({"std_error": value})

    def test_trailing_newline_and_ascii(self):
        text = dumps_canonical(scene_to_doc(two_blob_demo_scene()))
        assert text.endswith("}\n")
        text.encode("ascii")

    def test_identical_scene_identical_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_scene(a, scene_to_doc(two_blob_demo_scene()))
        save_scene(b, scene_to_doc(two_blob_demo_scene()))
        assert a.read_bytes() == b.read_bytes()


class TestValidation:
    def good_doc(self):
        return scene_to_doc(two_blob_demo_scene())

    def blocks_doc(self):
        """A document with both blocks, every field away from its default."""
        camera = Camera(position=(4.6, 0, 2.4), look_at=(0, 0, 0.5), width=8, height=6, vertical_fov=0.5,
                        up=(0.0, 0.6, 0.8))
        quad = QuadratureConfig(n_coarse=8, n_fine=4, seed=9, stratified=False)
        return json.loads(dumps_canonical(scene_to_doc(two_blob_demo_scene(), camera=camera, quadrature=quad)))

    def test_not_a_dict(self):
        with pytest.raises(SceneFormatError):
            doc_to_scene([1, 2, 3])

    @pytest.mark.parametrize("key", ["version", "t_far", "components"])
    def test_missing_required_key(self, key):
        doc = self.good_doc()
        del doc[key]
        with pytest.raises(SceneFormatError):
            doc_to_scene(doc)

    def test_wrong_version(self):
        doc = self.good_doc()
        doc["version"] = "999"
        with pytest.raises(SceneFormatError):
            doc_to_scene(doc)
        assert SCENE_DOC_VERSION == "1"

    def test_empty_components(self):
        doc = self.good_doc()
        doc["components"] = []
        with pytest.raises(SceneFormatError):
            doc_to_scene(doc)

    def test_component_not_object(self):
        doc = self.good_doc()
        doc["components"][0] = "blob"
        with pytest.raises(SceneFormatError):
            doc_to_scene(doc)

    def test_unknown_kind(self):
        doc = self.good_doc()
        doc["components"][0]["kind"] = "torus"
        with pytest.raises(SceneFormatError):
            doc_to_scene(doc)

    def test_wrong_param_count(self):
        doc = self.good_doc()
        doc["components"][0]["params"] = [1.0, 2.0]
        with pytest.raises(SceneFormatError):
            doc_to_scene(doc)

    @pytest.mark.parametrize("value", ["abc", -1, 0, float("inf"), float("nan"), True, [10.0]])
    def test_bad_sigma_max(self, value):
        doc = self.good_doc()
        doc["sigma_max"] = value
        with pytest.raises(SceneFormatError, match="sigma_max"):
            doc_to_scene(doc)

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0, -5.0, "far", "40", True])
    def test_bad_t_far(self, value):
        doc = self.good_doc()
        doc["t_far"] = value
        with pytest.raises(SceneFormatError):
            doc_to_scene(doc)

    @pytest.mark.parametrize("value", ["1", "0.5", True, False, None, [1.0]])
    def test_params_entries_must_be_numbers(self, value):
        doc = self.good_doc()
        doc["components"][1]["params"][3] = value
        with pytest.raises(SceneFormatError, match="component 1"):
            doc_to_scene(doc)

    def test_bad_camera_block(self):
        doc = scene_to_doc(
            two_blob_demo_scene(),
            camera=Camera(position=(4.6, 0, 2.4), look_at=(0, 0, 0.5), width=8, height=8),
        )
        del doc["camera"]["position"]
        with pytest.raises(SceneFormatError):
            doc_to_scene(doc)

    @pytest.mark.parametrize("key,value,words", [
        ("width", "8", "width must be an integer"), ("width", True, "width must be an integer"),
        ("width", 8.9, "width must be an integer"), ("width", 8.0, "width must be an integer"),
        ("height", False, "height must be an integer"), ("height", None, "height must be an integer"),
        ("vertical_fov", "0.8", "vertical_fov must be a number"),
        ("vertical_fov", True, "vertical_fov must be a number"),
        ("vertical_fov", None, "vertical_fov must be a number"),
        ("position", ["4.6", "0", "2.4"], "position entry must be a number"),
        ("position", [True, False, True], "position entry must be a number"),
        ("look_at", [0, "0", 0.5], "look_at entry must be a number"),
        ("up", [0, 0, True], "up entry must be a number"), ("up", [0.0, 0.0, [1.0]], "up entry must be a number"),
    ])
    def test_camera_values_must_be_json_numbers(self, key, value, words):
        """Width and height are JSON integers, the field of view and every
        vector entry JSON numbers: no strings, booleans or fractions."""
        doc = scene_to_doc(two_blob_demo_scene(),
                           camera=Camera(position=(4.6, 0, 2.4), look_at=(0, 0, 0.5), width=8, height=8))
        doc["camera"][key] = value
        with pytest.raises(SceneFormatError, match=f"^camera block: {words}, got "):
            doc_to_scene(doc)

    @pytest.mark.parametrize("value", [5, 2.5, "1.0", {"x": 1.0}, None, True])
    @pytest.mark.parametrize("vector", ["position", "look_at", "up", "params"])
    def test_vectors_must_be_lists(self, vector, value):
        """A scalar, a string or an object in place of a vector is named, not
        iterated."""
        doc = self.blocks_doc()
        if vector == "params":
            doc["components"][0]["params"] = value
            where = "component 0 ('gaussian_blob')"
        else:
            doc["camera"][vector] = value
            where = "camera block"
        with pytest.raises(SceneFormatError, match=re.escape(f"{where}: {vector} must be a list, got {value!r}")):
            doc_to_scene(doc)

    def test_camera_frame_overflow_is_named(self):
        doc = self.blocks_doc()
        doc["camera"]["position"] = [1e308, 0.0, 2.4]
        with pytest.raises(SceneFormatError, match="^camera block: the camera frame overflows a float"):
            doc_to_scene(doc)

    def test_bad_quadrature_block(self):
        doc = scene_to_doc(two_blob_demo_scene(), quadrature=QuadratureConfig(seed=0))
        doc["quadrature"]["n_coarse"] = "many"
        with pytest.raises(SceneFormatError):
            doc_to_scene(doc)

    @pytest.mark.parametrize("key", ["n_coarse", "n_fine", "seed"])
    @pytest.mark.parametrize("value", ["64", 64.7, 64.0, True, False, None, [64]])
    def test_quadrature_counts_must_be_integers(self, key, value):
        doc = scene_to_doc(two_blob_demo_scene(), quadrature=QuadratureConfig(seed=3))
        doc["quadrature"][key] = value
        with pytest.raises(SceneFormatError, match=f"{key} must be an integer"):
            doc_to_scene(doc)

    @pytest.mark.parametrize("value", [-1, -3, -2**40])
    def test_quadrature_seed_must_be_non_negative(self, value):
        doc = scene_to_doc(two_blob_demo_scene(), quadrature=QuadratureConfig(seed=3))
        doc["quadrature"]["seed"] = value
        with pytest.raises(SceneFormatError, match="seed must be >= 0"):
            doc_to_scene(doc)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [False]])
    def test_stratified_must_be_boolean(self, value):
        doc = scene_to_doc(two_blob_demo_scene(), quadrature=QuadratureConfig(seed=3))
        doc["quadrature"]["stratified"] = value
        with pytest.raises(SceneFormatError, match="stratified must be true or false"):
            doc_to_scene(doc)

    @pytest.mark.parametrize("value", [[], "n_coarse", 64])
    def test_quadrature_block_must_be_object(self, value):
        doc = scene_to_doc(two_blob_demo_scene())
        doc["quadrature"] = value
        with pytest.raises(SceneFormatError, match="quadrature block"):
            doc_to_scene(doc)

    def test_camera_block_must_be_object(self):
        doc = self.good_doc()
        doc["camera"] = 5
        with pytest.raises(SceneFormatError, match="^camera block must be an object$"):
            doc_to_scene(doc)

    @pytest.mark.parametrize("block,key", [("camera", "position"), ("camera", "look_at"), ("camera", "width"),
                                           ("camera", "height"), ("quadrature", "n_coarse"),
                                           ("quadrature", "n_fine")])
    def test_missing_block_key_is_named(self, block, key):
        doc = self.blocks_doc()
        del doc[block][key]
        with pytest.raises(SceneFormatError, match=f"^{block} block is missing '{key}'$"):
            doc_to_scene(doc)

    @pytest.mark.parametrize("block,key", [("camera", "fov"), ("camera", "sigma_max"), ("quadrature", "sed"),
                                           ("quadrature", "n_samples")])
    def test_unknown_block_key_is_named(self, block, key):
        doc = self.blocks_doc()
        doc[block][key] = 5
        with pytest.raises(SceneFormatError, match=f"^{block} block has unknown key '{key}'$"):
            doc_to_scene(doc)

    @pytest.mark.parametrize("block,key", [("camera", "vertical_fov"), ("camera", "up"), ("quadrature", "seed"),
                                           ("quadrature", "stratified")])
    def test_optional_block_key_takes_the_dataclass_default(self, block, key):
        doc = self.blocks_doc()
        del doc[block][key]
        cls = {"camera": Camera, "quadrature": QuadratureConfig}[block]
        default = next(f.default for f in fields(cls) if f.name == key)
        assert np.array_equal(getattr(getattr(doc_to_scene(doc), block), key), default)

    def test_quadrature_types_round_trip(self):
        quad = QuadratureConfig(n_coarse=2, n_fine=0, seed=2**40, stratified=False)
        doc = json.loads(dumps_canonical(scene_to_doc(two_blob_demo_scene(), quadrature=quad)))
        assert doc_to_scene(doc).quadrature == quad

    @pytest.mark.parametrize("value", [5, 0.5, None, True, ["a"], {"name": "a"}])
    def test_component_name_must_be_string(self, value):
        doc = self.good_doc()
        doc["components"][2]["name"] = value
        with pytest.raises(SceneFormatError, match="component 2 name must be a string"):
            doc_to_scene(doc)

    def test_non_finite_param_names_its_group(self):
        doc = self.good_doc()
        doc["components"][0]["params"][4] = float("nan")  # a blob's scale[1]
        with pytest.raises(SceneFormatError, match="component 0 .*scale must be finite"):
            doc_to_scene(doc)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SceneFormatError):
            load_scene(path)

    def test_unserializable_kind_rejected(self):
        from rayfields.fields import PiecewiseConstantRayField

        ray_field = PiecewiseConstantRayField(
            axis_origin=(0, 0, 0), axis_direction=(1, 0, 0),
            breakpoints=[0.0, 1.0], sigmas=[1.0], colors=[(1, 1, 1)],
        )
        scene = rf.CompositeScene((ray_field,), t_far=10.0)
        with pytest.raises(SceneFormatError):
            scene_to_doc(scene)


class TestDemoScene:
    def test_layout(self):
        scene = two_blob_demo_scene()
        assert scene.n == 3
        assert scene.t_far == 40.0
        blob_a, blob_b, ground = scene.components
        assert np.allclose(blob_a.center, (-0.9, -0.3, 0.55))
        assert np.allclose(blob_b.center, (0.9, 0.4, 0.5))
        assert isinstance(ground, rf.GroundPlaneField)
        assert blob_a.sigma_max == 10.0
