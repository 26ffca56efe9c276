"""Deterministic seed derivation.

All randomness in the library flows from explicit integer seeds through
these helpers.  Estimator noise is keyed on the *content* of the rows it
belongs to (a hash of their observation bytes) rather than on batch
position, so per-item estimates are invariant to batch permutation and to
the composition of the surrounding batch.  Draws that depend on one
modality are keyed on that modality's row alone under the stream
"joint_posterior.<name>", so every pair that shares the row shares its
draws.  The mixture posterior's components and the unimodal marginals
both draw there: per_row_normal is counter-based, so a row's first S'
draws are the same whatever S >= S' is asked for, and a mixture's S/M
draws from a row are the first S/M of that row's marginal draws.  Draws
from a posterior over the whole pair are keyed on the pair's rows in
canonical modality order.
"""

from __future__ import annotations

import hashlib

import numpy as np

MASK63 = (1 << 63) - 1


def derive_rng(*keys: int) -> np.random.Generator:
    """Generator keyed on a tuple of non-negative integers."""
    return np.random.default_rng([int(k) & MASK63 for k in keys])


def tag(name: str) -> int:
    """Stable integer tag for a named randomness stream."""
    return int.from_bytes(hashlib.blake2b(name.encode(), digest_size=8).digest(), "little") & MASK63


def content_key(*rows: np.ndarray) -> int:
    """Hash of the ordered row contents.

    Each row enters tagged with its position and byte length, so equal
    rows never cancel and (a, b) keys differently from (b, a).  Callers
    list modalities in canonical name order, which is what makes keys
    independent of how the modality list was written down.
    """
    h = hashlib.blake2b(digest_size=8)
    for position, row in enumerate(rows):
        data = np.ascontiguousarray(row, dtype=np.float64).tobytes()
        h.update(position.to_bytes(8, "little") + len(data).to_bytes(8, "little") + data)
    return int.from_bytes(h.digest(), "little") & MASK63


_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MUL2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer (uint64 arithmetic wraps by design)."""
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=np.uint64) + _SM_GAMMA
        z = (z ^ (z >> np.uint64(30))) * _SM_MUL1
        z = (z ^ (z >> np.uint64(27))) * _SM_MUL2
        return z ^ (z >> np.uint64(31))


def per_row_normal(seed: int, stream: str, rows: list[tuple[np.ndarray, ...]],
                   shape: tuple) -> np.ndarray:
    """Standard-normal noise of `(len(rows), *shape)`, keyed per row content.

    Counter-based (SplitMix64 streams fed through Box-Muller) so the whole
    block is produced in a few vectorized passes instead of one generator
    per row.
    """
    keys = np.array([content_key(*row) for row in rows], dtype=np.uint64)
    stream_mix = _splitmix64(np.uint64((seed & MASK63) ^ tag(stream)))
    base = _splitmix64(keys ^ stream_mix)

    count = int(np.prod(shape)) if shape else 1
    half = (count + 1) // 2
    j = np.arange(1, half + 1, dtype=np.uint64)
    s1 = _splitmix64(base[:, None] + (np.uint64(2) * j) * _SM_GAMMA)
    s2 = _splitmix64(base[:, None] + (np.uint64(2) * j + np.uint64(1)) * _SM_GAMMA)
    u1 = ((s1 >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)  # in (0, 1]
    u2 = (s2 >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)          # in [0, 1)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    pair = np.empty((len(rows), 2 * half), dtype=np.float64)
    pair[:, 0::2] = radius * np.cos(angle)
    pair[:, 1::2] = radius * np.sin(angle)
    return pair[:, :count].reshape((len(rows),) + tuple(shape))
