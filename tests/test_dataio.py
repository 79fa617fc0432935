import struct

import numpy as np
import pytest

from blo.dataio import (IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, ParseError,
                        load_idx, read_idx)


def write_images(path, images):
    """images: list of 2-D uint8 arrays, all the same shape."""
    arr = np.asarray(images, dtype=np.uint8)
    n, rows, cols = arr.shape
    path.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols)
                     + arr.tobytes())


def write_labels(path, labels):
    arr = np.asarray(labels, dtype=np.uint8)
    path.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, arr.size)
                     + arr.tobytes())


class TestReadIdx:
    def test_images_scaled_to_unit_interval(self, tmp_path):
        img = tmp_path / "img"
        write_images(img, [np.array([[0, 255], [255, 0]]),
                           np.array([[255, 0], [0, 255]])])
        feats = read_idx(img)
        assert feats.shape == (2, 4)
        np.testing.assert_array_equal(feats[0], [0.0, 1.0, 1.0, 0.0])
        np.testing.assert_array_equal(feats[1], [1.0, 0.0, 0.0, 1.0])

    def test_labels(self, tmp_path):
        lab = tmp_path / "lab"
        write_labels(lab, [3, 0, 7])
        out = read_idx(lab)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [3, 0, 7])

    def test_truncated_pixels_names_byte_counts(self, tmp_path):
        img = tmp_path / "img"
        img.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 2, 2, 2)
                        + bytes(5))
        with pytest.raises(ParseError, match=r"expected 8 pixel bytes at offset 16, found 5"):
            read_idx(img)

    def test_truncated_labels(self, tmp_path):
        lab = tmp_path / "lab"
        lab.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, 4) + bytes(2))
        with pytest.raises(ParseError, match=r"expected 4 label bytes at offset 8, found 2"):
            read_idx(lab)

    def test_unknown_magic(self, tmp_path):
        bad = tmp_path / "bad"
        bad.write_bytes(struct.pack(">I", 0xDEADBEEF) + bytes(8))
        with pytest.raises(ParseError, match=r"unknown magic 0xdeadbeef at offset 0"):
            read_idx(bad)

    def test_other_idx_types_rejected(self, tmp_path):
        # a valid 2-D unsigned-byte IDX file, but neither images nor labels
        bad = tmp_path / "bad"
        bad.write_bytes(struct.pack(">III", 0x00000802, 2, 2) + bytes(4))
        with pytest.raises(ParseError, match=r"unknown magic 0x00000802 at offset 0"):
            read_idx(bad)

    def test_zero_images(self, tmp_path):
        img = tmp_path / "img"
        img.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 0, 3, 2))
        feats = read_idx(img)
        assert feats.dtype == np.float64
        assert feats.shape == (0, 6)

    def test_too_short_for_magic(self, tmp_path):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\x00\x08")
        with pytest.raises(ParseError, match=r"expected 4 magic bytes"):
            read_idx(bad)

    def test_truncated_header(self, tmp_path):
        bad = tmp_path / "bad"
        bad.write_bytes(struct.pack(">I", IDX_IMAGES_MAGIC) + bytes(4))
        with pytest.raises(ParseError, match=r"expected 16 header bytes"):
            read_idx(bad)


    def test_truncated_label_header(self, tmp_path):
        bad = tmp_path / "bad"
        bad.write_bytes(struct.pack(">I", IDX_LABELS_MAGIC) + bytes(2))
        with pytest.raises(ParseError, match=r"expected 8 header bytes, found 6"):
            read_idx(bad)

class TestLoadIdx:
    def test_pairing(self, tmp_path):
        img, lab = tmp_path / "img", tmp_path / "lab"
        write_images(img, [np.zeros((2, 2), dtype=np.uint8),
                           np.full((2, 2), 255, dtype=np.uint8)])
        write_labels(lab, [0, 1])
        ds = load_idx(img, lab)
        assert ds.n == 2 and ds.dim == 4 and ds.n_classes == 2
        assert ds.clean_mask.all()

    def test_count_mismatch(self, tmp_path):
        img, lab = tmp_path / "img", tmp_path / "lab"
        write_images(img, [np.zeros((2, 2), dtype=np.uint8)])
        write_labels(lab, [0, 1])
        with pytest.raises(ParseError, match=r"image count 1 != label count 2"):
            load_idx(img, lab)

    def test_swapped_files_rejected(self, tmp_path):
        img, lab = tmp_path / "img", tmp_path / "lab"
        write_images(img, [np.zeros((2, 2), dtype=np.uint8)])
        write_labels(lab, [0])
        with pytest.raises(ParseError, match="not an image file"):
            load_idx(lab, img)

    def test_images_given_as_labels_rejected(self, tmp_path):
        img = tmp_path / "img"
        write_images(img, [np.zeros((2, 2), dtype=np.uint8)])
        with pytest.raises(ParseError, match="not a label file"):
            load_idx(img, img)

    def test_min_two_classes_even_if_unilabel(self, tmp_path):
        img, lab = tmp_path / "img", tmp_path / "lab"
        write_images(img, [np.zeros((1, 1), dtype=np.uint8)] * 3)
        write_labels(lab, [0, 0, 0])
        assert load_idx(img, lab).n_classes == 2


class TestRoundTrip:
    def test_idx_written_then_loaded(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 256, size=(5, 3, 2), dtype=np.uint8)
        labs = rng.integers(0, 4, size=5, dtype=np.uint8)
        img, lab = tmp_path / "img", tmp_path / "lab"
        write_images(img, imgs)
        write_labels(lab, labs)
        ds = load_idx(img, lab)
        np.testing.assert_allclose(ds.features,
                                   imgs.reshape(5, 6).astype(float) / 255.0)
        np.testing.assert_array_equal(ds.labels, labs)
