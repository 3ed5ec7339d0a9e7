"""Tests for the binary image formats (PPM color, PFM depth, PGM masks)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rayfields.images import (
    GAMMA,
    ImageFormatError,
    read_pfm,
    read_pgm,
    read_ppm,
    write_pfm,
    write_pgm,
    write_ppm,
)


class TestPpm:
    def test_roundtrip_quantized(self, tmp_path):
        rng = np.random.default_rng(0)
        rgb = rng.random((7, 5, 3))
        path = tmp_path / "img.ppm"
        write_ppm(path, rgb)
        back = read_ppm(path)
        assert back.shape == (7, 5, 3)
        # One 8-bit quantization step in gamma space.
        assert np.abs(back ** (1 / GAMMA) - rgb ** (1 / GAMMA)).max() <= 0.5 / 255 + 1e-9

    def test_gamma_encoding_on_disk(self, tmp_path):
        path = tmp_path / "mid.ppm"
        write_ppm(path, np.full((1, 1, 3), 0.5))
        raw = path.read_bytes()
        assert raw.startswith(b"P6\n1 1\n255\n")
        expected = round(0.5 ** (1 / GAMMA) * 255)
        assert raw[-3:] == bytes([expected] * 3)

    def test_extremes_exact(self, tmp_path):
        path = tmp_path / "ends.ppm"
        img = np.zeros((1, 2, 3))
        img[0, 1] = 1.0
        write_ppm(path, img)
        back = read_ppm(path)
        assert np.array_equal(back[0, 0], [0.0, 0.0, 0.0])
        assert np.array_equal(back[0, 1], [1.0, 1.0, 1.0])

    def test_out_of_range_clipped(self, tmp_path):
        path = tmp_path / "clip.ppm"
        write_ppm(path, np.array([[[-0.5, 0.2, 1.7]]]))
        back = read_ppm(path)
        assert back[0, 0, 0] == 0.0
        assert back[0, 0, 2] == 1.0

    def test_rejects_bad_arrays(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "x.ppm", np.full((2, 2, 3), np.nan))

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ImageFormatError):
            read_ppm(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x01")
        with pytest.raises(ImageFormatError):
            read_ppm(path)

    def test_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "header.ppm"
        path.write_bytes(b"P6\n2")
        with pytest.raises(ImageFormatError):
            read_ppm(path)

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# comment line\n1 1\n255\n\xff\xff\xff")
        assert read_ppm(path).shape == (1, 1, 3)

    def test_row_order_preserved(self, tmp_path):
        img = np.zeros((2, 1, 3))
        img[0, 0] = 1.0  # top row white
        path = tmp_path / "rows.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert back[0, 0, 0] == 1.0 and back[1, 0, 0] == 0.0


class TestPfm:
    def test_roundtrip_float32_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        depth = (rng.random((6, 4)) * 50).astype(np.float32).astype(np.float64)
        path = tmp_path / "d.pfm"
        write_pfm(path, depth)
        assert np.array_equal(read_pfm(path), depth)

    def test_signalling_nan_reads_as_nan(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n1 1\n-1.0\n" + np.array([0x7F800001], dtype="<u4").tobytes())
        assert np.isnan(read_pfm(path)).all()

    def test_header_and_bottom_up_storage(self, tmp_path):
        depth = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "d.pfm"
        write_pfm(path, depth)
        raw = path.read_bytes()
        assert raw.startswith(b"Pf\n2 2\n-1.0\n")
        # Bottom row first on disk.
        stored = np.frombuffer(raw[len(b"Pf\n2 2\n-1.0\n") :], dtype="<f4")
        assert stored.tolist() == [3.0, 4.0, 1.0, 2.0]

    def test_infinity_survives(self, tmp_path):
        depth = np.array([[np.inf, 1.0]])
        path = tmp_path / "inf.pfm"
        write_pfm(path, depth)
        back = read_pfm(path)
        assert np.isposinf(back[0, 0]) and back[0, 1] == 1.0

    def test_big_endian_scale_read(self, tmp_path):
        payload = np.array([[1.5, -2.0]], dtype=">f4")
        path = tmp_path / "be.pfm"
        path.write_bytes(b"Pf\n2 1\n1.0\n" + payload.tobytes())
        assert read_pfm(path).tolist() == [[1.5, -2.0]]

    def test_rejects_color_pfm(self, tmp_path):
        path = tmp_path / "col.pfm"
        path.write_bytes(b"PF\n1 1\n-1.0\n" + b"\x00" * 12)
        with pytest.raises(ImageFormatError):
            read_pfm(path)

    def test_rejects_wrong_ndim(self, tmp_path):
        with pytest.raises(ValueError):
            write_pfm(tmp_path / "x.pfm", np.zeros((2, 2, 3)))

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "short.pfm"
        path.write_bytes(b"Pf\n4 4\n-1.0\n" + b"\x00" * 8)
        with pytest.raises(ImageFormatError):
            read_pfm(path)


class TestPgm:
    def test_roundtrip(self, tmp_path):
        labels = np.arange(12, dtype=np.int64).reshape(3, 4) % 5
        path = tmp_path / "m.pgm"
        write_pgm(path, labels)
        back = read_pgm(path)
        assert back.dtype == np.int32
        assert np.array_equal(back, labels)

    def test_range_check(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", np.array([[-1, 0]]))
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", np.array([[0, 256]]))

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ImageFormatError):
            read_pgm(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n3 3\n255\n\x00")
        with pytest.raises(ImageFormatError):
            read_pgm(path)


class TestHeaderValues:
    """Every reader turns a bad size or scale token into ImageFormatError."""

    READERS = {"ppm": (read_ppm, b"P6", b"255"), "pfm": (read_pfm, b"Pf", b"-1.0"),
               "pgm": (read_pgm, b"P5", b"255")}

    @pytest.mark.parametrize("size", [b"ab 2", b"2 ab", b"2.5 2", b"0 2", b"2 0", b"-2 2", b"2 -3"])
    @pytest.mark.parametrize("fmt", sorted(READERS))
    def test_bad_size_rejected(self, tmp_path, fmt, size):
        reader, magic, last = self.READERS[fmt]
        path = tmp_path / f"bad.{fmt}"
        path.write_bytes(magic + b"\n" + size + b"\n" + last + b"\n" + b"\x00" * 64)
        with pytest.raises(ImageFormatError):
            reader(path)

    @pytest.mark.parametrize("size", [b"99999999999 99999999999", b"3037000500 3037000500"])
    @pytest.mark.parametrize("fmt", sorted(READERS))
    def test_oversized_header_rejected(self, tmp_path, fmt, size):
        """A width x height past ``np.frombuffer``'s count range is a short payload, not an OverflowError."""
        reader, magic, last = self.READERS[fmt]
        path = tmp_path / f"huge.{fmt}"
        path.write_bytes(magic + b"\n" + size + b"\n" + last + b"\n" + b"\x00" * 64)
        with pytest.raises(ImageFormatError, match="truncated image payload"):
            reader(path)

    def test_bad_pfm_scale_rejected(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"Pf\n1 1\nab\n\x00\x00\x00\x00")
        with pytest.raises(ImageFormatError):
            read_pfm(path)


class TestAtomicity:
    def test_no_tmp_left_behind(self, tmp_path):
        write_ppm(tmp_path / "a.ppm", np.zeros((2, 2, 3)))
        write_pfm(tmp_path / "b.pfm", np.zeros((2, 2)))
        write_pgm(tmp_path / "c.pgm", np.zeros((2, 2), dtype=int))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["a.ppm", "b.pfm", "c.pgm"]

    def test_overwrite_replaces_content(self, tmp_path):
        path = tmp_path / "a.pgm"
        write_pgm(path, np.zeros((1, 1), dtype=int))
        write_pgm(path, np.full((2, 3), 7))
        assert np.array_equal(read_pgm(path), np.full((2, 3), 7))


_FORMATS = {
    "ppm": (write_ppm, read_ppm, np.linspace(0.0, 1.0, 36).reshape(3, 4, 3)),
    "pgm": (write_pgm, read_pgm, np.arange(12).reshape(3, 4)),
    "pfm": (write_pfm, read_pfm, np.linspace(-1.0, 9.0, 12).reshape(3, 4)),
}
# Byte edits: at an offset, replace up to ``cut`` bytes with an insert (random
# bytes or a token that a header might hold).
_EDITS = st.lists(st.tuples(st.integers(0, 80), st.integers(0, 8),
                            st.binary(max_size=8) | st.sampled_from([b"0", b"-1", b"99999999999", b"nan", b"#", b"\n"])),
                  min_size=1, max_size=4)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(_FORMATS)), _EDITS, st.integers(0, 130))
def test_mutated_files_raise_only_image_format_errors(tmp_path, kind, edits, keep):
    """A valid file with bytes replaced, inserted, deleted and cut short
    reads or raises ImageFormatError, never another error."""
    write, read, image = _FORMATS[kind]
    path = tmp_path / f"image.{kind}"
    write(path, image)
    data = bytearray(path.read_bytes())
    for at, cut, insert in edits:
        data[at : at + cut] = insert
    path.write_bytes(bytes(data[:keep]))
    try:
        read(path)
    except ImageFormatError:
        pass
