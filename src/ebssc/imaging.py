"""PPM image emission for decoded reconstructions and bias fields.

P6 needs no codec: header + raw RGB bytes.  Grids normalize each tile
independently (min-max to [0, 255]) because reconstructions from
different depths or class hypotheses live on very different scales;
constant tiles map to mid-gray.  Tiles are set on a mid-gray frame of
2-pixel separators, so a grid of R x C tiles of size HxW measures
(R*H + (R+1)*2) by (C*W + (C+1)*2).
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

__all__ = ["tile_to_rgb", "emit_image_grid", "save_ppm", "load_ppm"]

SEPARATOR = 2
SEPARATOR_GRAY = 128


def tile_to_rgb(image):
    """Min-max normalize one (C, H, W) map to uint8 RGB (H, W, 3)."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.shape[0] == 1:
        arr = np.repeat(arr, 3, axis=0)
    if arr.shape[0] != 3:
        raise ValueError(f"expected 1 or 3 channels, got {arr.shape[0]}")
    lo, hi = arr.min(), arr.max()
    if hi > lo:
        arr = (arr - lo) / (hi - lo)
    else:
        arr = np.full_like(arr, 0.5)
    return (arr * 255.0).round().astype(np.uint8).transpose(1, 2, 0)


def emit_image_grid(images, path):
    """Write a rows x cols matrix of equally-sized maps as one PPM."""
    rows = [[tile_to_rgb(im) for im in row] for row in images]
    ncol = len(rows[0])
    h, w, _ = rows[0][0].shape
    for row in rows:
        if len(row) != ncol or any(t.shape != (h, w, 3) for t in row):
            raise ValueError("grid tiles must share one size")
    gh = len(rows) * h + (len(rows) + 1) * SEPARATOR
    gw = ncol * w + (ncol + 1) * SEPARATOR
    canvas = np.full((gh, gw, 3), SEPARATOR_GRAY, dtype=np.uint8)
    for r, row in enumerate(rows):
        for c, tile in enumerate(row):
            y = SEPARATOR + r * (h + SEPARATOR)
            x = SEPARATOR + c * (w + SEPARATOR)
            canvas[y:y + h, x:x + w] = tile
    save_ppm(path, canvas)


def save_ppm(path, rgb):
    """Write uint8 RGB (H, W, 3) as binary P6."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    h, w, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def load_ppm(path):
    """Read binary P5/P6 back as float (C, H, W) in [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    fields, pos = [], 0
    while len(fields) < 4:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            end = blob.find(b"\n", pos)
            if end < 0:
                raise DataError(f"{path}: PPM header comment at offset "
                                f"{pos} runs to end of file")
            pos = end + 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError(f"{path}: truncated PPM header at offset {pos}")
        fields.append(blob[start:pos])
    pos += 1  # single whitespace after maxval
    magic = fields[0]
    channels = {b"P5": 1, b"P6": 3}.get(magic)
    if channels is None:
        raise DataError(f"{path}: unsupported PPM magic {magic!r}")
    if not all(f.isdigit() for f in fields[1:]):
        raise DataError(f"{path}: PPM width, height and maxval must be "
                        f"integers, got {b' '.join(fields[1:])!r}")
    w, h, maxval = (int(f) for f in fields[1:])
    if min(w, h, maxval) < 1 or maxval > 255:
        raise DataError(f"{path}: unsupported PPM geometry {w}x{h} or "
                        f"maxval {maxval} (8-bit samples, maxval 1..255)")
    need = w * h * channels
    raw = blob[pos:pos + need]
    if len(raw) != need:
        raise DataError(f"{path}: truncated at offset {pos + len(raw)}")
    img = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, channels)
    return img.transpose(2, 0, 1).astype(np.float32) / float(maxval)
