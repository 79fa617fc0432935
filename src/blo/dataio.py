"""Loaders for the two supported dataset exchange formats.

IDX is the big-endian layout of the classic digit corpora.  Only unsigned-byte
files are read: the magic's last byte is the number of 4-byte dimensions after
it, 3 for image tensors (0x00000803: count, rows, cols, then bytes scaled here
to [0, 1]) and 1 for label vectors (0x00000801: count, then bytes).
"""

from __future__ import annotations

import math
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
    if magic not in (IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC):
        raise ParseError(f"{path}: unknown magic 0x{magic:08x} at offset 0")
    ndim = magic & 0xFF
    start = 4 + 4 * ndim
    if len(raw) < start:
        raise ParseError(f"{path}: expected {start} header bytes, found {len(raw)}")
    n, *shape = struct.unpack(f">{ndim}I", raw[4:start])
    need = n * math.prod(shape)
    body = raw[start:]
    if len(body) != need:
        raise ParseError(f"{path}: expected {need} {'pixel' if shape else 'label'} "
                         f"bytes at offset {start}, found {len(body)}")
    data = np.frombuffer(body, dtype=np.uint8)
    if not shape:  # labels
        return data.astype(np.int64)
    return (data.astype(np.float64) / 255.0).reshape(n, math.prod(shape))


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

