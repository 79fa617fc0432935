"""Loaders for the two supported dataset exchange formats.

IDX is the big-endian binary layout used by the classic digit corpora:
magic 0x00000803 for image tensors (count, rows, cols, then raw bytes
scaled here to [0, 1]) and 0x00000801 for label vectors.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .testbeds import Dataset

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class ParseError(ValueError):
    """A data file failed structural validation; message says where."""


def read_idx(path) -> np.ndarray:
    """Read one IDX file: images -> float64 (N, rows*cols) scaled to [0,1],
    labels -> int64 (N,)."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise ParseError(f"{path}: expected 4 magic bytes at offset 0, found {len(raw)}")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic == IDX_IMAGES_MAGIC:
        if len(raw) < 16:
            raise ParseError(f"{path}: expected 16 header bytes, found {len(raw)}")
        n, rows, cols = struct.unpack(">III", raw[4:16])
        need = n * rows * cols
        body = raw[16:]
        if len(body) != need:
            raise ParseError(f"{path}: expected {need} pixel bytes at offset 16, "
                             f"found {len(body)}")
        data = np.frombuffer(body, dtype=np.uint8).astype(np.float64) / 255.0
        return data.reshape(n, rows * cols)
    if magic == IDX_LABELS_MAGIC:
        if len(raw) < 8:
            raise ParseError(f"{path}: expected 8 header bytes, found {len(raw)}")
        (n,) = struct.unpack(">I", raw[4:8])
        body = raw[8:]
        if len(body) != n:
            raise ParseError(f"{path}: expected {n} label bytes at offset 8, "
                             f"found {len(body)}")
        return np.frombuffer(body, dtype=np.uint8).astype(np.int64)
    raise ParseError(f"{path}: unknown magic 0x{magic:08x} at offset 0")


def load_idx(images_path, labels_path) -> Dataset:
    """Pair an IDX image file with an IDX label file into a Dataset."""
    feats = read_idx(images_path)
    labels = read_idx(labels_path)
    if feats.ndim != 2:
        raise ParseError(f"{images_path}: not an image file")
    if labels.ndim != 1:
        raise ParseError(f"{labels_path}: not a label file")
    if feats.shape[0] != labels.shape[0]:
        raise ParseError(f"image count {feats.shape[0]} != label count {labels.shape[0]}")
    n_classes = int(labels.max()) + 1 if labels.size else 0
    return Dataset(feats, labels, max(n_classes, 2), np.ones(feats.shape[0], dtype=bool))

