"""Binary image formats: PPM (gamma-encoded color), PFM (float depth),
PGM (integer masks).  Writes are atomic (temp file + rename)."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

__all__ = [
    "GAMMA",
    "ImageFormatError",
    "write_ppm",
    "read_ppm",
    "write_pfm",
    "read_pfm",
    "write_pgm",
    "read_pgm",
]

GAMMA = 2.2


class ImageFormatError(ValueError):
    """Raised when an image file on disk is not in the expected format."""


def _atomic_write(path, payload: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def _read_header_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """First ``count`` whitespace-separated tokens, skipping # comments;
    returns the tokens and the offset just past the single whitespace byte
    that terminates the last one."""
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < count:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(data) and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            raise ImageFormatError("truncated image header")
        tokens.append(data[start:i])
    return tokens, i + 1


def _header_number(token: bytes, kind):
    try:
        return kind(token)
    except ValueError:
        raise ImageFormatError(f"bad image header value {token!r}") from None


def _header_size(tokens: list[bytes]) -> tuple[int, int]:
    """Width and height from header tokens 1 and 2; both must be >= 1."""
    w, h = _header_number(tokens[1], int), _header_number(tokens[2], int)
    if w < 1 or h < 1:
        raise ImageFormatError(f"image size must be positive, got {w}x{h}")
    return w, h


def write_ppm(path, rgb: np.ndarray) -> None:
    """Linear [0, 1] colors (H, W, 3) to 8-bit binary PPM with gamma 2.2."""
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError("rgb must be (H, W, 3)")
    if not np.all(np.isfinite(rgb)):
        raise ValueError("rgb must be finite")
    encoded = np.clip(rgb, 0.0, 1.0) ** (1.0 / GAMMA)
    u8 = np.round(encoded * 255.0).astype(np.uint8)
    h, w = rgb.shape[:2]
    _atomic_write(path, b"P6\n%d %d\n255\n" % (w, h) + u8.tobytes())


def _payload(data: bytes, dtype, count: int, offset: int) -> np.ndarray:
    """``count`` values of ``dtype`` from byte ``offset`` on.  The byte count
    is checked before NumPy reads, since a header's width x height may pass
    the range of ``np.frombuffer``'s count."""
    need, have = count * np.dtype(dtype).itemsize, len(data) - offset
    if need > have:
        raise ImageFormatError(f"truncated image payload: the header asks for {need} bytes, {max(have, 0)} follow")
    return np.frombuffer(data, dtype=dtype, count=count, offset=offset)


def read_ppm(path) -> np.ndarray:
    """Binary PPM to linear float colors (gamma 2.2 decoded)."""
    data = Path(path).read_bytes()
    tokens, offset = _read_header_tokens(data, 4)
    if tokens[0] != b"P6" or tokens[3] != b"255":
        raise ImageFormatError("expected binary 8-bit PPM")
    w, h = _header_size(tokens)
    pixels = _payload(data, np.uint8, w * h * 3, offset)
    return (pixels.reshape(h, w, 3).astype(np.float64) / 255.0) ** GAMMA


def write_pfm(path, gray: np.ndarray) -> None:
    """Grayscale floats (H, W) to little-endian PFM (rows stored bottom-up)."""
    gray = np.asarray(gray, dtype=np.float32)
    if gray.ndim != 2:
        raise ValueError("gray must be (H, W)")
    h, w = gray.shape
    payload = b"Pf\n%d %d\n-1.0\n" % (w, h) + np.flipud(gray).astype("<f4").tobytes()
    _atomic_write(path, payload)


def read_pfm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    tokens, offset = _read_header_tokens(data, 4)
    if tokens[0] != b"Pf":
        raise ImageFormatError("expected grayscale PFM")
    w, h = _header_size(tokens)
    scale = _header_number(tokens[3], float)
    pixels = _payload(data, "<f4" if scale < 0 else ">f4", w * h, offset)
    with np.errstate(invalid="ignore"):  # a signalling NaN in the payload reads as NaN, without a warning
        return np.flipud(pixels.reshape(h, w)).astype(np.float64)


def write_pgm(path, labels: np.ndarray) -> None:
    """Integer labels (H, W) in [0, 255] to binary PGM."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError("labels must be (H, W)")
    if labels.min() < 0 or labels.max() > 255:
        raise ValueError("labels must fit in [0, 255]")
    h, w = labels.shape
    _atomic_write(path, b"P5\n%d %d\n255\n" % (w, h) + labels.astype(np.uint8).tobytes())


def read_pgm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    tokens, offset = _read_header_tokens(data, 4)
    if tokens[0] != b"P5" or tokens[3] != b"255":
        raise ImageFormatError("expected binary 8-bit PGM")
    w, h = _header_size(tokens)
    pixels = _payload(data, np.uint8, w * h, offset)
    return pixels.reshape(h, w).astype(np.int32)
