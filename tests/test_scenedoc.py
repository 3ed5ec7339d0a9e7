"""Tests for JSON scene documents: roundtrips, canonical bytes, validation."""

import json

import numpy as np
import pytest

import rayfields as rf
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
        scene = two_blob_demo_scene()
        doc = scene_to_doc(scene, sigma_max=None)
        back = doc_to_scene(doc)
        assert back.sigma_max is None
        assert back.scene.components[0].sigma_max is None


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

    def test_bad_camera_block(self):
        doc = scene_to_doc(
            two_blob_demo_scene(),
            camera=Camera(position=(4.6, 0, 2.4), look_at=(0, 0, 0.5), width=8, height=8),
        )
        del doc["camera"]["position"]
        with pytest.raises(SceneFormatError):
            doc_to_scene(doc)

    def test_bad_quadrature_block(self):
        doc = scene_to_doc(two_blob_demo_scene(), quadrature=QuadratureConfig(seed=0))
        doc["quadrature"]["n_coarse"] = "many"
        with pytest.raises(SceneFormatError):
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
