"""Shared oracles and helpers for the test suite.

The finite-difference and dual-number helpers here are deliberately
independent of the tape machinery they check.
"""

from __future__ import annotations

import math

import numpy as np

from dfnas.blob import ParameterBlob


def make_blob(*specs) -> ParameterBlob:
    """A blob from (name, shape, values) records; values may be any array-like."""
    return ParameterBlob(
        layout=tuple((name, tuple(shape)) for name, shape, _ in specs),
        values=np.concatenate([np.asarray(v, dtype=np.float64).ravel() for _, _, v in specs]),
    )


def named_arrays(blob: ParameterBlob) -> dict[str, np.ndarray]:
    """Each record's values by name, in layout order and in the record's shape."""
    arrays = {}
    offset = 0
    for name, shape in blob.layout:
        size = math.prod(shape)
        arrays[name] = blob.values[offset : offset + size].reshape(shape)
        offset += size
    return arrays


def fd_gradient(f, x: np.ndarray, h: float = 1e-5, coords=None) -> np.ndarray:
    """Central finite differences of scalar f at x, coordinate by coordinate.

    `coords` restricts the check to a subset of flat indices (all by default).
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    indices = range(flat.size) if coords is None else coords
    for i in indices:
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        down = f(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise relative error.

    Denominator floored at 1.0 so near-zero coordinates are measured by
    absolute error, where finite differences are roundoff-dominated.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float((np.abs(a - b) / denom).max())


class Dual:
    """Forward-mode scalar dual number: the chain-rule oracle for tiny graphs."""

    def __init__(self, val: float, dot: float = 0.0):
        self.val = float(val)
        self.dot = float(dot)

    def __add__(self, other: "Dual") -> "Dual":
        return Dual(self.val + other.val, self.dot + other.dot)

    def __mul__(self, other: "Dual") -> "Dual":
        return Dual(self.val * other.val, self.dot * other.val + self.val * other.dot)

    def relu(self) -> "Dual":
        return Dual(self.val, self.dot) if self.val > 0 else Dual(0.0, 0.0)
