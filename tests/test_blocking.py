"""The blocked projection and hashing kernels against their unblocked formulas.

Blocking must not change a single output bit: every matrix entry and hash
value is a function of its seed and indices alone, and each output
coordinate or counter is still summed in one call over all its terms (for
the projection, one real product per panel of columns, whose width is a
whole number of 8 rows).  Nor may the BLAS thread count.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wjl
from wjl import _mix, projection
from wjl.hashing import MERSENNE_P, coefficients_for_seeds, hash_eval_exponents
from wjl.oracle import HashPolynomial, hash_eval
from wjl.projection import ProjectionMatrix, reduce, reduce_sparse
from wjl.sketch import SketchConfig, StreamSketch, cell_seeds, ingest_pair, new_pair, pair_estimates
from wjl.units import UNIT_VALUES


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _values(rng, n):
    # A wide dynamic range, so that a different summation order shows.
    return rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)


def _unblocked_reduce(A, idx, values):
    # The kernel's formula in one piece per panel: the real and imaginary
    # parts of all entries of the first 8 * ceil(k / 8) rows in the panel's
    # columns, one real product each of the (n,) or (m, n) values; the
    # panels' sums added in order.
    rows = np.arange(8 * -(-A.k // 8), dtype=np.uint64)
    panel = projection._PANEL_COLS
    out = None
    for c0 in range(0, idx.size, panel):
        e = A.entry_exponents(rows[None, :], idx[c0:c0 + panel].astype(np.uint64)[:, None])
        part = np.empty((*values.shape[:-1], rows.size), dtype=np.complex128)
        part.real = values[..., c0:c0 + panel] @ UNIT_VALUES.real[e]
        part.imag = values[..., c0:c0 + panel] @ UNIT_VALUES.imag[e]
        out = part if out is None else out + part
    return out[..., :A.k] * (1.0 / math.sqrt(A.k))


def _divided_by_smallest_factor(total):
    return total // next((c for c in range(2, total + 1) if total % c == 0), 1)


# The block budget for k x nnz entries below it, equal to it, one above it,
# and a multiple of it.
_RELATION = {
    "below": lambda k, nnz: k * nnz + 1,
    "equal": lambda k, nnz: k * nnz,
    "one above": lambda k, nnz: max(1, k * nnz - 1),
    "multiple": lambda k, nnz: _divided_by_smallest_factor(k * nnz),
}


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 100),
    nnz=st.integers(1, 40),
    relation=st.sampled_from(sorted(_RELATION)),
    panel=st.sampled_from([1, 3, 16, 1 << 15]),
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([1, 2]),
)
@example(k=9, nnz=33, relation="multiple", panel=1 << 15, seed=1, m=1)  # 8-row products
@example(k=100, nnz=1, relation="multiple", panel=1 << 15, seed=2, m=1)  # 12-byte products cross word boundaries
@example(k=97, nnz=1, relation="multiple", panel=1 << 15, seed=3, m=1)  # one word per block; the last holds 1 row
@example(k=3, nnz=40, relation="one above", panel=3, seed=4, m=1)  # 14 panels, the last of 1 column
@example(k=100, nnz=33, relation="multiple", panel=1 << 15, seed=5, m=2)  # 2-row products of 8 rows each
def test_reduce_sparse_matches_unblocked_formula(k, nnz, relation, panel, seed, m):
    # m = 1 reduces one (n,) vector, m = 2 two vectors as one (2, n) product.
    rng = np.random.default_rng(seed)
    d = 4 * nnz
    A = ProjectionMatrix(k=k, d=d, seed=int(rng.integers(0, 2**63)))
    idx = rng.choice(d, nnz, replace=False)
    values = _values(rng, nnz) if m == 1 else _values(rng, (m, nnz))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_mix, "BLOCK_ELEMS", _RELATION[relation](k, nnz))
        mp.setattr(projection, "_PANEL_COLS", panel)
        got = reduce_sparse(A, idx, values)
        want = _unblocked_reduce(A, idx, values)
    got = got.values if m == 1 else np.stack([g.values for g in got])
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("budget", [1, 7, 64, 400, 1600, 1 << 15])
def test_dense_reduce_is_reduce_sparse_over_all_columns(monkeypatch, budget):
    monkeypatch.setattr(_mix, "BLOCK_ELEMS", budget)
    rng = np.random.default_rng(budget)
    A = ProjectionMatrix(k=37, d=50, seed=99)
    x = _values(rng, 50)
    dense = reduce(A, x)
    assert dense.to_bytes() == reduce_sparse(A, np.arange(50), x).to_bytes()
    assert np.array_equal(_bits(dense.values), _bits(_unblocked_reduce(A, np.arange(50), x)))


def _unblocked_sums(coefficients, ts, vs):
    e = hash_eval_exponents(coefficients[..., None, :], ts)  # (r, m, n)
    return np.einsum("ijn,n->ij", UNIT_VALUES[e], vs)


@settings(max_examples=60, deadline=None)
@given(
    r=st.integers(1, 5),
    m=st.integers(1, 9),
    n=st.integers(0, 40),
    budget=st.integers(1, 200),
    big_keys=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_update_many_and_ingest_pair_match_unblocked_einsum(r, m, n, budget, big_keys, seed):
    rng = np.random.default_rng(seed)
    cfg = SketchConfig(r=r, m=m, seed=int(rng.integers(0, 2**63)), mode="turnstile")
    # Keys of 2^32 and above take the full 61-bit multiplication.
    ts = rng.integers(0, MERSENNE_P if big_keys else 5_000, n)
    xs, ws = _values(rng, n), np.abs(_values(rng, n))
    sk = StreamSketch(cfg)
    sx, sw = new_pair(cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_mix, "BLOCK_ELEMS", budget)
        sk.update_many(ts, xs)
        ingest_pair(sx, sw, ts, xs, ws)
    coefficients = coefficients_for_seeds(cell_seeds(cfg))
    ref_x = _unblocked_sums(coefficients, ts, xs)
    ref_w = _unblocked_sums(coefficients, ts, ws)
    assert np.array_equal(_bits(sk.counters), _bits(ref_x))
    assert np.array_equal(_bits(sx.counters), _bits(ref_x))
    assert np.array_equal(_bits(sw.counters), _bits(ref_w))
    assert sk.items_seen == sx.items_seen == sw.items_seen == n


def test_update_many_matches_unblocked_einsum_past_the_einsum_buffer():
    # numpy's einsum sums in buffer-sized chunks past 8192 terms; the blocked
    # kernel must chunk each cell's sum the same way.  3 cells of 10^4 keys
    # fit one default block.
    rng = np.random.default_rng(5)
    cfg = SketchConfig(r=1, m=3, seed=17, mode="turnstile")
    ts = rng.integers(0, 10**6, 10_000)
    vs = _values(rng, 10_000)
    sk = StreamSketch(cfg)
    sk.update_many(ts, vs)
    assert np.array_equal(_bits(sk.counters), _bits(_unblocked_sums(coefficients_for_seeds(cell_seeds(cfg)), ts, vs)))


@pytest.mark.parametrize("budget", [1, 5, 1 << 15])
def test_blocked_exponents_match_scalar_hash_eval(monkeypatch, budget):
    monkeypatch.setattr(_mix, "BLOCK_ELEMS", budget)
    cfg = SketchConfig(r=2, m=3, seed=23, mode="turnstile")
    ts = np.array([0, 1, 2, 977, 2**32 - 1, 2**32, MERSENNE_P - 1], dtype=np.uint64)
    coefficients = coefficients_for_seeds(cell_seeds(cfg))
    for key in range(len(ts)):
        # One unit key at a time: the counters are then exactly h_ij(t).
        vs = np.zeros(len(ts))
        vs[key] = 1.0
        sk = StreamSketch(cfg)
        sk.update_many(ts, vs)
        for i in range(cfg.r):
            for j in range(cfg.m):
                poly = HashPolynomial(tuple(int(c) for c in coefficients[i, j]))
                assert sk.counters[i, j] == UNIT_VALUES[int(hash_eval(poly, int(ts[key])))]


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_reduce_sparse_memory_does_not_grow_with_k_times_nnz():
    # Unblocked, this reduction peaks at about 258 MB.
    A = ProjectionMatrix(k=100_000, d=200_000, seed=3)
    rng = np.random.default_rng(0)
    idx = rng.choice(A.d, 100, replace=False)
    values = rng.standard_normal(100)
    assert _peak_mb(lambda: reduce_sparse(A, idx, values)) < 16


def test_dense_reduce_memory_stays_near_one_panel():
    # One product over all columns would peak at about 66 MB with whole words
    # (32 rows) per column, at about 17 MB with 8 rows.
    A = ProjectionMatrix(k=64, d=200_000, seed=3)
    x = np.random.default_rng(2).standard_normal(A.d)
    assert _peak_mb(lambda: reduce(A, x)) <= 12


def test_update_many_memory_does_not_grow_with_r_m_n():
    # Unblocked, 10^4 keys into 13 x 137 cells peak at about 1.13 GB.
    sk = StreamSketch(SketchConfig(r=13, m=137, seed=4, mode="turnstile"))
    rng = np.random.default_rng(1)
    ts = rng.integers(0, 200_000, 10_000)
    vs = rng.standard_normal(10_000)
    assert _peak_mb(lambda: sk.update_many(ts, vs)) < 64


def test_update_many_memory_does_not_grow_with_the_number_of_cells():
    # A batch of 2,000 keys takes the same memory into 1,024 cells as into 8,192.
    rng = np.random.default_rng(2)
    ts = rng.integers(0, 200_000, 2_000)
    vs = rng.standard_normal(2_000)
    peaks = {}
    for m in (1_024, 8_192):
        sk = StreamSketch(SketchConfig(r=1, m=m, seed=4, mode="turnstile"))
        peaks[m] = _peak_mb(lambda: sk.update_many(ts, vs))
    assert peaks[8_192] < 1.05 * peaks[1_024] + 0.1


def test_ingest_pair_memory_stays_below_two_arrays_of_sums():
    # A sums array per sketch would take 2 * 16 bytes a cell on its own; the
    # batch's adds go straight into the counters.
    cfg = SketchConfig(r=37, m=6046, seed=5, mode="turnstile")
    sx, sw = new_pair(cfg)
    peak = _peak_mb(lambda: ingest_pair(sx, sw, [3, 17], [1.0, -2.0], [0.5, 2.0]))
    assert peak < 2 * 16 * cfg.r * cfg.m / 2**20


@pytest.mark.parametrize("n_seeds", [10, 100])
def test_pair_estimates_memory_stays_near_one_seed_of_counters(n_seeds):
    # The desk sketch-eval geometry: 37 x 851 sketches, an m/4 arm, 2 keys.
    # Each block is one seed, 1 MB of counters, hashed in runs of 4,096 cells.
    seeds = np.arange(n_seeds, dtype=np.uint64)
    peak = _peak_mb(lambda: pair_estimates([3, 17], [1.0, -2.0], [0.5, 2.0], seeds, 37, (851, 212)))
    assert peak < 4.5


_THREADS_SCRIPT = """
import hashlib
import numpy as np
from wjl.projection import ProjectionMatrix, reduce, reduce_sparse
h = hashlib.sha256()
rng = np.random.default_rng(6)
for k in (5, 37, 64):
    A = ProjectionMatrix(k=k, d=200_000, seed=k)
    h.update(reduce(A, rng.standard_normal(A.d) * 10.0 ** rng.integers(-8, 9, A.d)).to_bytes())
A = ProjectionMatrix(k=100, d=200_000, seed=1)
idx = rng.choice(A.d, 70_000, replace=False)
h.update(reduce_sparse(A, idx, rng.standard_normal(idx.size)).to_bytes())
for g in reduce_sparse(A, idx, rng.standard_normal((2, idx.size)) * 10.0 ** rng.integers(-8, 9, (2, idx.size))):
    h.update(g.to_bytes())
print(h.hexdigest())
"""


_SKETCH_THREADS_SCRIPT = """
import hashlib
import numpy as np
from wjl.sketch import SketchConfig, StreamSketch, cell_estimates
h = hashlib.sha256()
rng = np.random.default_rng(7)
for (r, m), n in (((37, 6046), 3), ((13, 137), 256), ((13, 137), 5_000), ((1, 3), 40_000)):
    sk = StreamSketch(SketchConfig(r=r, m=m, seed=r * m + n, mode="turnstile"))
    sk.update_many(rng.integers(0, 2**61 - 1, n, dtype=np.uint64), rng.standard_normal(n))
    h.update(sk.to_bytes())
h.update(cell_estimates(rng.standard_normal(8), rng.random(8), np.arange(20_000, dtype=np.uint64)).tobytes())
print(h.hexdigest())
"""


def _digest(script, threads):
    src = str(Path(wjl.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([src, inherited]) if inherited else src)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    return proc.stdout.strip()


def test_wide_reductions_do_not_depend_on_the_blas_thread_count():
    # Products of 4 or 12 rows over 30,000 columns or more came out with
    # other last bits under two OpenBLAS threads than under one.
    assert _digest(_THREADS_SCRIPT, 1) == _digest(_THREADS_SCRIPT, 2)


def test_sketch_bytes_do_not_depend_on_the_blas_thread_count():
    # The hash products are exact, so no summation order can show.
    assert _digest(_SKETCH_THREADS_SCRIPT, 1) == _digest(_SKETCH_THREADS_SCRIPT, 2)
