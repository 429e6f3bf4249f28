"""PPM rendering of feature maps and image grids."""

import numpy as np
import pytest

from ebssc import DataError
from ebssc.imaging import SEPARATOR, SEPARATOR_GRAY, emit_image_grid, \
    load_ppm, save_ppm, tile_to_rgb


class TestTileToRgb:
    """Min-max normalization of one map into displayable bytes."""

    def test_full_range_used(self):
        """The smallest value maps to 0 and the largest to 255."""
        rng = np.random.default_rng(42)
        tile = tile_to_rgb(rng.standard_normal((1, 8, 8)))
        assert tile.shape == (8, 8, 3)
        assert tile.dtype == np.uint8
        assert tile.min() == 0 and tile.max() == 255

    def test_constant_map_renders_mid_gray(self):
        """Flat inputs have no contrast to stretch, so they go gray."""
        tile = tile_to_rgb(np.full((1, 5, 5), 3.25))
        assert (tile == 128).all()

    def test_single_channel_replicates(self):
        """Grayscale maps repeat into all three channels."""
        rng = np.random.default_rng(42)
        tile = tile_to_rgb(rng.random((1, 4, 4)))
        np.testing.assert_array_equal(tile[..., 0], tile[..., 1])
        np.testing.assert_array_equal(tile[..., 0], tile[..., 2])

    def test_rgb_passes_through(self):
        """Three-channel maps keep their channels distinct."""
        arr = np.zeros((3, 2, 2))
        arr[0] = 1.0
        tile = tile_to_rgb(arr)
        assert tile[0, 0, 0] == 255 and tile[0, 0, 1] == 0

    def test_two_channel_rejected(self):
        """Only 1- or 3-channel maps are displayable."""
        with pytest.raises(ValueError):
            tile_to_rgb(np.zeros((2, 4, 4)))


class TestImageGrid:
    """Tiled layout with mid-gray separators."""

    def test_canvas_dimensions(self, tmp_path):
        """R x C tiles of h x w give R*h + (R+1)*2 canvas rows."""
        rng = np.random.default_rng(42)
        grid = [[rng.random((1, 28, 28)) for _ in range(10)]]
        p = tmp_path / "g.ppm"
        emit_image_grid(grid, str(p))
        img = load_ppm(str(p))
        assert img.shape == (3,
                              1 * 28 + 2 * SEPARATOR,
                              10 * 28 + 11 * SEPARATOR)

    def test_separators_are_mid_gray(self, tmp_path):
        """The frame between tiles stays at the separator gray."""
        rng = np.random.default_rng(42)
        grid = [[rng.random((1, 4, 4)) for _ in range(2)] for _ in range(2)]
        p = tmp_path / "g.ppm"
        emit_image_grid(grid, str(p))
        img = (load_ppm(str(p)) * 255).round().astype(int)
        assert (img[:, :SEPARATOR, :] == SEPARATOR_GRAY).all()
        assert (img[:, :, :SEPARATOR] == SEPARATOR_GRAY).all()
        # the gutter between the two tile columns
        assert (img[:, :, SEPARATOR + 4:SEPARATOR + 4 + SEPARATOR]
                == SEPARATOR_GRAY).all()

    def test_mismatched_tiles_rejected(self, tmp_path):
        """All tiles must share one size."""
        grid = [[np.zeros((1, 4, 4)), np.zeros((1, 5, 5))]]
        with pytest.raises(ValueError):
            emit_image_grid(grid, str(tmp_path / "g.ppm"))

    def test_ragged_rows_rejected(self, tmp_path):
        """All rows must have the same number of tiles."""
        grid = [[np.zeros((1, 4, 4))] * 2, [np.zeros((1, 4, 4))]]
        with pytest.raises(ValueError):
            emit_image_grid(grid, str(tmp_path / "g.ppm"))


class TestPpmIo:
    """The binary P6/P5 reader and writer."""

    def test_p6_round_trip(self, tmp_path):
        """uint8 RGB canvases survive save/load within quantization."""
        rng = np.random.default_rng(42)
        rgb = rng.integers(0, 256, (6, 5, 3), dtype=np.uint8)
        p = tmp_path / "img.ppm"
        save_ppm(str(p), rgb)
        back = load_ppm(str(p))
        assert back.shape == (3, 6, 5)
        np.testing.assert_allclose(back * 255.0,
                                   rgb.transpose(2, 0, 1), atol=0.5)

    def test_p5_grayscale(self, tmp_path):
        """Plain PGM files load as single-channel maps."""
        p = tmp_path / "img.pgm"
        p.write_bytes(b"P5\n3 2\n255\n" + bytes(range(6)))
        img = load_ppm(str(p))
        assert img.shape == (1, 2, 3)
        np.testing.assert_allclose(img[0, 0, 1], 1 / 255.0, atol=1e-7)

    def test_comments_in_header(self, tmp_path):
        """# comment lines inside the header are skipped."""
        p = tmp_path / "img.ppm"
        p.write_bytes(b"P6\n# made by hand\n2 1\n255\n" + bytes(6))
        assert load_ppm(str(p)).shape == (3, 1, 2)

    def test_bad_magic(self, tmp_path):
        """Non-PPM bytes are a data error, not a crash."""
        p = tmp_path / "img.ppm"
        p.write_bytes(b"GIF89a....")
        with pytest.raises(DataError):
            load_ppm(str(p))

    @pytest.mark.parametrize("header", [
        b"P6\nwide 2\n255\n", b"P6\n2 2\n65535\n", b"P6\n2 2\n0\n",
        b"P5\n0 2\n255\n", b"P6\n# no newline"])
    def test_unreadable_header_fields(self, tmp_path, header):
        """Non-integer or zero sizes and maxvals outside 1..255 (16-bit
        samples, or a NaN image at 0) are data errors."""
        p = tmp_path / "img.ppm"
        p.write_bytes(header + bytes(24))
        with pytest.raises(DataError):
            load_ppm(str(p))

    def test_truncated_pixels(self, tmp_path):
        """Missing payload bytes report the shortfall."""
        p = tmp_path / "img.ppm"
        p.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(DataError):
            load_ppm(str(p))
