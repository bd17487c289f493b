"""Streaming sketch for weighted squared norms.

An r x m array of complex counters, each cell owning one 8-independent hash
into the fourth roots of unity.  A vector and its weight vector are sketched
with identical hash arrays (same config); the estimate averages the m cell
products per row and takes the median of the r row means.

The transformation is deliberately not linear in x, so no pairwise-distance
API exists on sketches.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import _mix
from ._mix import GOLDEN, ROW_MULT, U64_MASK, finalize_array
from .hashing import coefficient_words, key_powers, limb_exponents
# perfbench/spans.py traces these names here.
from .hashing import coefficients_for_seeds, hash_eval_exponents  # noqa: F401
from .units import UNIT_VALUES

SKETCH_MAGIC = b"WJLS"
SKETCH_VERSION = 2

_MODES = ("timestep", "turnstile")

# A batch hashes runs of cells whose (cells, distinct keys) exponent table
# holds about _HASH_ELEMS entries, at most _MAX_HASH_CELLS cells: a batch of
# many keys then spreads the cost of each tile's key limbs over a hundred
# cells or more.  _MAX_HASH_CELLS sets the peak memory of a batch of few
# keys (run temporaries of about 400 bytes a cell at 2 keys), not its speed:
# runs of 2^12 and 2^13 cells hash a desk sketch-eval in the same time.
_HASH_ELEMS = 1 << 20
_MAX_HASH_CELLS = 1 << 12

# pair_estimates hashes blocks of seeds whose cells number at most
# _BLOCK_CELLS (one seed when a sketch has more), so that small sketches
# share each _hash_sums call.  The constant sets the peak memory of the
# block's counters and seeds, 40 bytes a cell, not its speed: one 37 x 851
# seed per block (1 MB of counters) hashes as fast as two.
_BLOCK_CELLS = 1 << 15


class ConfigMismatchError(ValueError):
    """Raised when sketches with different configs are combined."""


@dataclass(frozen=True)
class SketchConfig:
    r: int
    m: int
    seed: int
    mode: str = "timestep"

    def __post_init__(self):
        if self.r < 1 or self.m < 1:
            raise ValueError("r and m must be positive")
        if self.r >= 1 << 32 or self.m >= 1 << 32:
            raise ValueError("r and m must be below 2^32 to fit the WJLS header")
        if not 0 <= self.seed <= U64_MASK:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")


@dataclass
class WeightedNormEstimate:
    """Median-of-means estimate; may be negative, never clamped."""

    value: float
    r_used: int
    m_used: int

    @property
    def is_negative(self) -> bool:
        return self.value < 0


def cell_seeds(config: SketchConfig) -> np.ndarray:
    """Per-cell hash seeds: mix(seed, i, j) for the full r x m grid."""
    return _grid_seeds(np.uint64(config.seed), config.r, config.m)


def _grid_seeds(seeds: np.ndarray, r: int, m: int) -> np.ndarray:
    """cell_seeds of every sketch seed in seeds: shape seeds.shape + (r, m)."""
    i = np.arange(r, dtype=np.uint64)[:, None]
    j = np.arange(m, dtype=np.uint64)[None, :]
    z = np.asarray(seeds, dtype=np.uint64)[..., None, None] ^ (i * np.uint64(GOLDEN)) ^ (j * np.uint64(ROW_MULT))
    return finalize_array(z)


def _hash_sums(seeds: np.ndarray, ts: np.ndarray, vectors: list[np.ndarray], counters: list[np.ndarray]):
    """Add sum_n v[n] * h(ts[n]) to every cell of the C-contiguous counters
    paired with each vector v, arrays of seeds' shape; no add precedes a check.

    Cell c hashes with the polynomial of coefficient_words(seeds[c]).  The
    key powers are computed once, for the distinct keys.  Each run of cells
    derives its coefficients inside the loop and evaluates them at every
    distinct key with the exact product (limb_exponents).  Each block's units
    are looked up in the small (cells, keys) table, then gathered contiguously
    in the order of ts, about BLOCK_ELEMS of them at a time, for the einsum,
    which sums them in the same order as over the whole (cells, n) array.
    Memory goes to the seeds (8 bytes a cell, 16 while cell_seeds derives
    them) and the runs' temporaries, which grow with n past BLOCK_ELEMS keys.
    """
    ts = np.asarray(ts)
    if ts.ndim != 1 or any(v.shape != ts.shape for v in vectors):
        raise ValueError("keys and values must be parallel 1-d arrays")
    if ts.size and ts.dtype.kind not in "iu":
        raise ValueError(f"keys must be integers, got dtype {ts.dtype}")
    flat = seeds.reshape(-1)
    keys, inverse = np.unique(ts.astype(np.uint64, copy=False), return_inverse=True)
    powers = key_powers(keys)
    rows = max(1, _mix.BLOCK_ELEMS // max(1, inverse.size))
    cells = min(max(rows, _HASH_ELEMS // max(1, keys.size)), _MAX_HASH_CELLS)
    outs = [c.reshape(-1) for c in counters]
    for start in range(0, flat.size, cells):
        e = limb_exponents(coefficient_words(flat[start : start + cells]), powers)  # (cells, keys)
        for r0 in range(0, e.shape[0], rows):
            units = UNIT_VALUES.take(e[r0 : r0 + rows]).take(inverse, axis=1)  # (cells, n)
            for out, v in zip(outs, vectors):
                out[start + r0 : start + r0 + units.shape[0]] += np.einsum("cn,n->c", units, v)


class StreamSketch:
    """Single-vector sketch state: its config and its counters.

    The cells' hash polynomials are a function of the config's seed and are
    derived again by every update, so a sketch stores nothing else.
    """

    def __init__(self, config: SketchConfig):
        self.config = config
        self.counters = np.zeros((config.r, config.m), dtype=np.complex128)
        self.items_seen = 0

    def spawn(self) -> "StreamSketch":
        """Empty sketch with this sketch's config, hence its hash polynomials."""
        return StreamSketch(self.config)

    def update(self, t: int, v: float):
        """Add v * h_ij(t) to every counter.

        In timestep mode t is the arrival position; in turnstile mode t is
        the coordinate index and v the increment.
        """
        self.update_many([t], [v])

    def update_many(self, ts: np.ndarray, vs: np.ndarray):
        """Vectorized sequence of updates (equivalent to update() in a loop)."""
        vs = np.asarray(vs, dtype=np.float64)
        self.counters = np.ascontiguousarray(self.counters)
        _hash_sums(cell_seeds(self.config), ts, [vs], [self.counters])
        self.items_seen += len(vs)

    def to_bytes(self) -> bytes:
        """WJLS v2: the 31-byte header, then the r*m counters as little-endian
        (re, im) float64 pairs.  The hash coefficients are a function of the
        seed and are not stored.
        """
        header = SKETCH_MAGIC + struct.pack(
            "<HBIIQQ",
            SKETCH_VERSION,
            _MODES.index(self.config.mode),
            self.config.r,
            self.config.m,
            self.config.seed,
            self.items_seen,
        )
        return b"".join((header, np.ascontiguousarray(self.counters, dtype="<c16").data))

    @classmethod
    def from_bytes(cls, data: bytes) -> "StreamSketch":
        if data[:4] != SKETCH_MAGIC:
            raise ValueError("bad sketch magic")
        if len(data) < 31:
            raise ValueError(f"truncated WJLS file: expected 31 bytes, got {len(data)}")
        version, mode_idx, r, m, seed, items = struct.unpack("<HBIIQQ", data[4:31])
        if version != SKETCH_VERSION:
            raise ValueError(f"unsupported sketch version {version}")
        if mode_idx >= len(_MODES):
            raise ValueError(f"unknown WJLS mode byte {mode_idx}")
        size = cls.serialized_size(r, m)
        if len(data) < size:
            raise ValueError(f"truncated WJLS file: expected {size} bytes, got {len(data)}")
        if len(data) > size:
            raise ValueError(f"WJLS file has trailing bytes: expected {size} bytes, got {len(data)}")
        sketch = cls(SketchConfig(r=r, m=m, seed=seed, mode=_MODES[mode_idx]))
        sketch.counters[...] = np.frombuffer(data, dtype="<c16", offset=31).reshape(r, m)
        sketch.items_seen = items
        return sketch

    @staticmethod
    def serialized_size(r: int, m: int) -> int:
        return 31 + 16 * r * m


def new_pair(config: SketchConfig) -> tuple[StreamSketch, StreamSketch]:
    """Two empty sketches of one config, for a vector and its weights."""
    sx = StreamSketch(config)
    return sx, sx.spawn()


def ingest_pair(sx: StreamSketch, sw: StreamSketch, ts: np.ndarray, xs: np.ndarray, ws: np.ndarray):
    """Apply parallel turnstile updates to a vector sketch and weight sketch.

    The sketches must share a config, hence hash polynomials (see new_pair);
    the polynomials are then evaluated once per update key for both, halving
    the hashing work relative to two update_many calls.
    """
    _check_same_config(sx, sw)
    xs = np.asarray(xs, dtype=np.float64)
    ws = np.asarray(ws, dtype=np.float64)
    sx.counters, sw.counters = np.ascontiguousarray(sx.counters), np.ascontiguousarray(sw.counters)
    _hash_sums(cell_seeds(sx.config), ts, [xs, ws], [sx.counters, sw.counters])
    sx.items_seen += len(xs)
    sw.items_seen += len(ws)


def _check_same_config(a: StreamSketch, b: StreamSketch):
    if a.config != b.config:
        raise ConfigMismatchError("sketches were built with different configs")


def sketch_estimate(sx: StreamSketch, sw: StreamSketch) -> WeightedNormEstimate:
    """Median over rows of the mean of Re[(C_x[i,j] * C_w[i,j])^2] per row."""
    _check_same_config(sx, sw)
    cell = (sx.counters * sw.counters) ** 2
    row_means = cell.mean(axis=1).real
    return WeightedNormEstimate(float(np.median(row_means)), sx.config.r, sx.config.m)


def sketch_merge(a: StreamSketch, b: StreamSketch) -> StreamSketch:
    """Elementwise counter sum; valid because counters are linear in the stream."""
    _check_same_config(a, b)
    out = a.spawn()
    out.counters = a.counters + b.counters
    out.items_seen = a.items_seen + b.items_seen
    return out


def plan_sketch(epsilon: float, delta: float, distortion: float) -> tuple[int, int]:
    """Counter-array dimensions (r, m) for an (epsilon, delta) guarantee."""
    if not 0 < epsilon <= 1 or not 0 < delta < 1:
        raise ValueError("epsilon must lie in (0, 1] and delta in (0, 1)")
    if distortion < 1:
        raise ValueError("distortion is at least 1")
    m = math.ceil(136.0 * distortion**4 / epsilon**2) + 1
    r_min = 12.0 * math.log(1.0 / delta)
    r = math.floor(r_min) + 1
    if r % 2 == 0:
        r += 1
    return r, m


def pair_estimates(ts, xs, ws, seeds, r: int, widths) -> np.ndarray:
    """sketch_estimate of each seed's r x w turnstile sketch pair fed the
    parallel updates (ts, xs, ws), at every width w: (len(seeds), len(widths)).

    No sketch is built.  cell_seeds depends on (seed, i, j) alone, so the
    r x w pair is bit for bit the first w columns of the r x max(widths) one,
    and every width reads a slice of the same counters.  Seeds are hashed in
    blocks of S = _BLOCK_CELLS // (r * m) (at least one), one _hash_sums call
    per block, into (2, S, r, m) counters allocated once per call and zeroed
    per block: 32 S r m bytes of counters and 8 S r m of cell seeds (16 while
    they are derived), plus one run of _hash_sums temporaries: at 37 x 851,
    one seed per block and a traced peak under 4 MB.
    """
    if not widths:
        raise ValueError("widths must not be empty")
    if min(widths) < 1 or r < 1:
        raise ValueError(f"r and widths must be positive, got r={r}, widths={tuple(widths)}")
    xs = np.asarray(xs, dtype=np.float64)
    ws = np.asarray(ws, dtype=np.float64)
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    m = max(widths)
    block = max(1, _BLOCK_CELLS // (r * m))
    counters = np.empty((2, min(block, seeds.size), r, m), dtype=np.complex128)
    out = np.empty((seeds.size, len(widths)))
    for start in range(0, seeds.size, block):
        part = seeds[start : start + block]
        cx, cw = counters[:, : part.size]
        cx[...] = cw[...] = 0
        _hash_sums(_grid_seeds(part, r, m), ts, [xs, ws], [cx, cw])
        for col, w in enumerate(widths):
            cell = (cx[..., :w] * cw[..., :w]) ** 2
            out[start : start + part.size, col] = np.median(cell.mean(axis=2).real, axis=1)
    return out


def cell_estimates(x: np.ndarray, w: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Single-cell turnstile estimates Re[(C_x C_w)^2], one per seed: the
    r = m = 1 pair_estimates over keys 0..d-1, each bit-identical to an r=1,
    m=1 turnstile sketch pair fed x and w (see tests)."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    return pair_estimates(np.arange(len(x)), x, w, seeds, 1, (1,)).reshape(seeds.shape)
