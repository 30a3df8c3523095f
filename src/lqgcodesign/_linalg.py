"""Symmetric-matrix helpers shared across the package.

Everything here operates on dense float64 arrays and relies on
``numpy.linalg.eigvalsh``/``eigh`` so that symmetry is exploited and results
are deterministic for a given build of numpy.
"""

from __future__ import annotations

import numpy as np


class NumericalError(RuntimeError):
    """A matrix failed a conditioning requirement during a computation."""


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return A/2 + A^T/2, per matrix for a stack; unlike (A + A^T)/2 it cannot overflow."""
    half = 0.5 * a
    return half + np.swapaxes(half, -1, -2)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root, per matrix for a stack; negative eigenvalues clipped to 0."""
    vals, vecs = np.linalg.eigh(symmetrize(a))
    vals = np.clip(vals, 0.0, None)
    return symmetrize((vecs * np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2))


def inv_sqrt_pd(a: np.ndarray) -> np.ndarray:
    """Inverse symmetric square root, per matrix for a stack; eigenvalues clamped below at 1e-12."""
    vals, vecs = np.linalg.eigh(symmetrize(a))
    vals = np.maximum(vals, 1e-12)
    return symmetrize((vecs / np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2))


def block_diag(blocks: list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
    """Block-diagonal assembly of square blocks, per matrix for stacks shaped like the first."""
    size = sum(b.shape[-1] for b in blocks)
    out = np.zeros(blocks[0].shape[:-2] + (size, size))
    ofs = 0
    for b in blocks:
        k = b.shape[-1]
        out[..., ofs:ofs + k, ofs:ofs + k] = b
        ofs += k
    return out


def constant_over_time(steps) -> bool:
    """Whether every step of a C-contiguous stack, or of a sequence of matrices, has step 0's
    shape and bits, compared as int64 so that 0.0 and -0.0 differ."""
    if not isinstance(steps, np.ndarray):
        if any(m.shape != steps[0].shape for m in steps):
            return False
        steps = np.stack(steps)
    bits = steps.view(np.int64)
    return bool((bits == bits[:1]).all())


def frozen(a: np.ndarray) -> np.ndarray:
    """Contiguous float64 copy marked read-only, safe to share across readers."""
    out = np.array(a, dtype=float, order="C", copy=True)
    out.setflags(write=False)
    return out
