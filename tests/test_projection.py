import itertools
import math
import operator
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wjl.oracle import WeightedPair, weighted_sq_norm
from wjl.projection import (
    ProjectionMatrix,
    ProvenanceError,
    ReducedVector,
    reduce,
    reduce_sparse,
    required_k,
    rho,
    rho_pairwise,
)
from wjl.units import UNIT_VALUES


def _manual_reduced(exponent_rows, x, seed=0):
    """Build a ReducedVector from explicit unit exponent rows (k x d)."""
    rows = np.atleast_2d(exponent_rows)
    k = rows.shape[0]
    vals = (UNIT_VALUES[rows] @ np.asarray(x, dtype=float)) / math.sqrt(k)
    return ReducedVector(k, vals, seed, rows.shape[1])


def test_sample_matrix_deterministic():
    a = ProjectionMatrix(k=2, d=3, seed=42)
    b = ProjectionMatrix(k=2, d=3, seed=42)
    assert np.array_equal(a.toarray(), b.toarray())


def test_sample_matrix_rejects_bad_dims():
    with pytest.raises(ValueError):
        ProjectionMatrix(k=1, d=0, seed=0)
    with pytest.raises(ValueError):
        ProjectionMatrix(k=0, d=1, seed=0)


def test_entry_histogram_uniform():
    A = ProjectionMatrix(k=1, d=10**6, seed=7)
    e = A.entry_exponents(np.zeros(10**6, dtype=np.uint64), np.arange(10**6, dtype=np.uint64))
    freqs = np.bincount(e, minlength=4) / 1e6
    assert np.all(freqs >= 0.245) and np.all(freqs <= 0.255)


def test_entry_field_positions_uniform():
    # Row 32q + j of a column is field j of one word: each of the 32 fields
    # must be uniform on its own.
    A = ProjectionMatrix(k=32, d=200_000, seed=7)
    for j in range(32):
        e = A.entry_exponents(np.uint64(j), np.arange(A.d, dtype=np.uint64))
        freqs = np.bincount(e, minlength=4) / A.d
        assert np.all(np.abs(freqs - 0.25) <= 0.005), (j, freqs)


@pytest.mark.parametrize("row", [0, 30, 31, 63])
def test_adjacent_rows_jointly_uniform(row):
    # Rows 0/1 and 30/31 share a word; 31/32 and 63/64 straddle two words.
    A = ProjectionMatrix(k=65, d=200_000, seed=8)
    cols = np.arange(A.d, dtype=np.uint64)
    pairs = 4 * A.entry_exponents(np.uint64(row), cols) + A.entry_exponents(np.uint64(row + 1), cols)
    freqs = np.bincount(pairs, minlength=16) / A.d
    assert np.all(np.abs(freqs - 1 / 16) <= 0.003), freqs


def test_seed_coverage_single_entry():
    seen = {int(ProjectionMatrix(k=1, d=1, seed=s).entry_exponents(0, 0)) for s in range(64)}
    assert seen == {0, 1, 2, 3}


def test_reduce_basis_vector_selects_column():
    A = ProjectionMatrix(k=4, d=5, seed=11)
    e1 = np.zeros(5)
    e1[0] = 1.0
    g = reduce(A, e1)
    col = A.toarray()[:, 0] / math.sqrt(4)
    assert np.allclose(g.values, col, atol=0)


def test_reduce_zero_vector():
    A = ProjectionMatrix(k=3, d=7, seed=1)
    assert np.all(reduce(A, np.zeros(7)).values == 0)


def test_reduce_dimension_mismatch():
    A = ProjectionMatrix(k=3, d=7, seed=1)
    with pytest.raises(ValueError):
        reduce(A, np.zeros(6))


def test_reduce_linearity():
    rng = np.random.default_rng(0)
    A = ProjectionMatrix(k=16, d=100, seed=5)
    x = rng.uniform(-1, 1, 100)
    y = rng.uniform(-1, 1, 100)
    lhs = reduce(A, x + y).values
    rhs = reduce(A, x).values + reduce(A, y).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12
    for alpha, beta in [(-1.0, 0.5), (0.5, 3.0), (3.0, -1.0)]:
        lhs = reduce(A, alpha * x + beta * y).values
        rhs = alpha * reduce(A, x).values + beta * reduce(A, y).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def _single_entry_reduce(A, idx, values):
    """Each coordinate recomputed from single-entry exponents, in Python."""
    units = [complex(1), 1j, complex(-1), -1j]
    return np.array([
        sum(units[int(A.entry_exponents(row, int(c)))] * float(v) for c, v in zip(idx, values))
        for row in range(A.k)
    ]) / math.sqrt(A.k)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 100),
    nnz=st.integers(1, 12),
    matrix_seed=st.integers(0, 2**64 - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_reduce_sparse_matches_single_entry_recomputation(k, nnz, matrix_seed, seed):
    rng = np.random.default_rng(seed)
    A = ProjectionMatrix(k=k, d=1000, seed=matrix_seed)
    idx = rng.choice(A.d, nnz, replace=False)
    values = rng.standard_normal(nnz)
    got = reduce_sparse(A, idx, values).values
    tol = 1e-12 * np.sum(np.abs(values)) / math.sqrt(k)
    assert np.max(np.abs(got - _single_entry_reduce(A, idx, values))) <= tol


@pytest.mark.parametrize("k, nnz", [(1, 5), (31, 40), (33, 7), (100, 3), (1000, 100), (5000, 300)])
def test_reduce_sparse_matches_complex_formula(k, nnz):
    rng = np.random.default_rng(k + nnz)
    A = ProjectionMatrix(k=k, d=10_000, seed=k)
    idx = rng.choice(A.d, nnz, replace=False)
    values = rng.standard_normal(nnz) * 10.0 ** rng.integers(-3, 4, nnz)
    e = A.entry_exponents(np.arange(k, dtype=np.uint64)[:, None], idx.astype(np.uint64)[None, :])
    ref = (UNIT_VALUES[e] @ values) / math.sqrt(k)
    got = reduce_sparse(A, idx, values).values
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.sum(np.abs(values)) / math.sqrt(k)


def test_reduce_sparse_matches_dense():
    rng = np.random.default_rng(2)
    A = ProjectionMatrix(k=8, d=200, seed=13)
    x = np.zeros(200)
    idx = rng.choice(200, 10, replace=False)
    x[idx] = rng.standard_normal(10)
    dense = reduce(A, x)
    sparse = reduce_sparse(A, idx, x[idx])
    assert np.allclose(dense.values, sparse.values, atol=1e-15)


@pytest.mark.parametrize("indices", [[0.5], [1.0], [True]])
def test_reduce_sparse_rejects_non_integer_indices(indices):
    with pytest.raises(ValueError, match="must be integers"):
        reduce_sparse(ProjectionMatrix(k=4, d=3, seed=1), indices, [1.0])


@pytest.mark.parametrize("values, match", [
    (np.ones((1, 2, 2)), r"\(n,\) or \(m, n\)"),
    (np.float64(1.0), r"\(n,\) or \(m, n\)"),
    (np.ones((0, 2)), "at least one row"),
    (np.ones(3), "3 columns for 2 indices"),
    (np.ones((2, 1)), "1 columns for 2 indices"),
])
def test_reduce_sparse_rejects_misshapen_values(values, match):
    with pytest.raises(ValueError, match=match):
        reduce_sparse(ProjectionMatrix(k=4, d=3, seed=1), [0, 2], values)


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(1, 300),
    nnz=st.integers(1, 40),
    m=st.integers(1, 3),
    zeros=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=8, nnz=1, m=1, zeros=1.0, seed=0)  # a row of zeros
def test_reduce_sparse_rows_match_one_vector_reductions(k, nnz, m, zeros, seed):
    # m vectors over one support, as the fixed-pair fig trials reduce x and w.
    rng = np.random.default_rng(seed)
    A = ProjectionMatrix(k=k, d=4 * nnz, seed=int(rng.integers(0, 2**63)))
    idx = rng.choice(A.d, nnz, replace=False)
    values = rng.standard_normal((m, nnz)) * 10.0 ** rng.integers(-8, 9, (m, nnz))
    values[rng.random((m, nnz)) < zeros] = 0.0
    rows = reduce_sparse(A, idx, values)
    assert isinstance(rows, tuple) and len(rows) == m
    for g, v in zip(rows, values):
        one = reduce_sparse(A, idx, v)
        assert (g.k, g.matrix_seed, g.dims_d) == (one.k, one.matrix_seed, one.dims_d)
        assert np.max(np.abs(g.values - one.values)) <= 1e-12 * np.sum(np.abs(v)) / math.sqrt(k)
    # One row is the same gemv as the 1-d call.
    (g,) = reduce_sparse(A, idx, values[:1])
    assert g.to_bytes() == reduce_sparse(A, idx, values[0]).to_bytes()


def test_reduce_sparse_of_empty_float_arrays_is_zero():
    # An empty vector file reads as float64 arrays.
    g = reduce_sparse(ProjectionMatrix(k=4, d=3, seed=1), np.array([]), np.array([]))
    assert g.values.shape == (4,) and not g.values.any()


def test_reduce_sparse_of_an_empty_support_gives_one_zero_vector_per_row():
    gs = reduce_sparse(ProjectionMatrix(k=4, d=3, seed=1), [], np.empty((2, 0)))
    assert len(gs) == 2 and all(g.values.shape == (4,) and not g.values.any() for g in gs)


def test_rho_d1_exact():
    for seed in (0, 1, 99):
        for k in (1, 5, 64):
            A = ProjectionMatrix(k=k, d=1, seed=seed)
            est = rho(reduce(A, [3.0]), reduce(A, [2.0]))
            assert est == pytest.approx(36.0, rel=1e-12)


def test_rho_brute_force_mean_d2():
    ests = [
        rho(_manual_reduced([row], [1.0, 1.0]), _manual_reduced([row], [1.0, 1.0]))
        for row in itertools.product(range(4), repeat=2)
    ]
    assert np.mean(ests) == pytest.approx(2.0, abs=1e-12)


def test_rho_brute_force_disjoint_supports():
    x = [1.0, 2.0, 0.0, 0.0]
    w = [0.0, 0.0, 3.0, 1.0]
    ests = [
        rho(_manual_reduced([row], x), _manual_reduced([row], w))
        for row in itertools.product(range(4), repeat=4)
    ]
    assert np.mean(ests) == pytest.approx(0.0, abs=1e-9)


def test_rho_provenance_check():
    A = ProjectionMatrix(k=2, d=4, seed=1)
    B = ProjectionMatrix(k=2, d=4, seed=2)
    x = np.ones(4)
    with pytest.raises(ProvenanceError):
        rho(reduce(A, x), reduce(B, x))


_matrices = st.tuples(st.integers(1, 4), st.integers(1, 2**32 - 1), st.integers(0, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(a=_matrices, b=_matrices, keep=st.tuples(st.booleans(), st.booleans(), st.booleans()))
def test_any_provenance_mismatch_raises(a, b, keep):
    b = tuple(x if same else y for x, y, same in zip(a, b, keep))  # (k, d, seed)
    assume(a != b)
    ga, gb = (ReducedVector(k, np.ones(k), seed, d) for k, d, seed in (a, b))
    combines = (
        rho,
        operator.add,
        operator.sub,
        lambda u, v: rho_pairwise(u, v, v),
        lambda u, v: rho_pairwise(u, u, v),
    )
    for u, v in ((ga, gb), (gb, ga)):
        for combine in combines:
            with pytest.raises(ProvenanceError):
                combine(u, v)


def test_rho_scale_equivariance():
    rng = np.random.default_rng(8)
    A = ProjectionMatrix(k=8, d=30, seed=3)
    x = rng.standard_normal(30)
    w = np.abs(rng.standard_normal(30))
    gx, gw = reduce(A, x), reduce(A, w)
    for alpha in (0.5, 2.0, -3.0):
        got = rho(reduce(A, alpha * x), gw)
        assert got == pytest.approx(alpha**2 * rho(gx, gw), rel=1e-12)


def test_rho_pairwise_zero_and_d1():
    A = ProjectionMatrix(k=4, d=3, seed=6)
    gx = reduce(A, [1.0, 2.0, 3.0])
    gw = reduce(A, [1.0, 1.0, 0.0])
    assert rho_pairwise(gx, gx, gw) == 0.0
    B = ProjectionMatrix(k=7, d=1, seed=0)
    assert rho_pairwise(reduce(B, [5.0]), reduce(B, [2.0]), reduce(B, [3.0])) == pytest.approx(81.0, rel=1e-12)


def test_rho_pairwise_matches_reduced_difference():
    rng = np.random.default_rng(9)
    A = ProjectionMatrix(k=8, d=50, seed=21)
    x, y = rng.standard_normal(50), rng.standard_normal(50)
    w = np.abs(rng.standard_normal(50))
    gx, gy, gw = reduce(A, x), reduce(A, y), reduce(A, w)
    direct = rho(reduce(A, x - y), gw)
    assert rho_pairwise(gx, gy, gw) == pytest.approx(direct, abs=1e-12 * max(1, abs(direct)))


def test_required_k_examples():
    e_inv = math.exp(-1)
    assert required_k(1.0, e_inv, 1.0) == 576
    assert required_k(0.5, e_inv, 2.0) == 576 * 64
    prev = None
    for eps in (0.8, 0.4, 0.2, 0.1):
        k = required_k(eps, 0.01, 1.5)
        if prev is not None:
            assert k >= prev * 3.9  # halving epsilon roughly quadruples k
        prev = k
    for bad in ((0.0, 0.1, 1.0), (1.5, 0.1, 1.0), (0.5, 0.0, 1.0), (0.5, 1.0, 1.0), (0.5, 0.1, 0.9)):
        with pytest.raises(ValueError):
            required_k(*bad)


def test_reduced_vector_serialization():
    rng = np.random.default_rng(12)
    A = ProjectionMatrix(k=6, d=20, seed=31)
    g = reduce(A, rng.standard_normal(20))
    data = g.to_bytes()
    assert data[:4] == b"WJLR"
    back = ReducedVector.from_bytes(data)
    assert back.k == g.k and back.matrix_seed == g.matrix_seed and back.dims_d == g.dims_d
    assert np.array_equal(back.values, g.values)
    # Bit-exact, signed zeros and infinities included.
    odd = ReducedVector(2, np.array([complex(-0.0, 1.0), complex(1.0, np.inf)]), 31, 20)
    back = ReducedVector.from_bytes(odd.to_bytes())
    assert np.array_equal(back.values.view(np.uint64), odd.values.view(np.uint64))


def test_reduced_vector_version_1_rejected(tmp_path, capsys):
    from wjl.cli import main

    # Version 1 files were written by the one-word-per-entry generator.
    v1 = b"WJLR" + struct.pack("<HIIQ", 1, 2, 20, 31) + np.ones(2, dtype="<c16").tobytes()
    message = "unsupported reduced vector version 1"
    with pytest.raises(ValueError, match=f"^{message}$"):
        ReducedVector.from_bytes(v1)
    (tmp_path / "v1.wjlr").write_bytes(v1)
    ok = reduce(ProjectionMatrix(k=2, d=20, seed=31), np.arange(20.0)).to_bytes()
    assert ok[4:6] == struct.pack("<H", 2)
    (tmp_path / "ok.wjlr").write_bytes(ok)
    assert main(["estimate", str(tmp_path / "ok.wjlr"), str(tmp_path / "v1.wjlr")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("cut", [5, 21, 22, 22 + 16 * 6 - 1])
def test_truncated_reduced_vector_file(tmp_path, capsys, cut):
    from wjl.cli import main

    g = reduce(ProjectionMatrix(k=6, d=20, seed=31), np.arange(20.0))
    data = g.to_bytes()[:cut]
    expected = 22 if cut < 22 else 22 + 16 * 6
    message = f"truncated WJLR file: expected {expected} bytes, got {cut}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        ReducedVector.from_bytes(data)
    (tmp_path / "cut.wjlr").write_bytes(data)
    (tmp_path / "ok.wjlr").write_bytes(g.to_bytes())
    assert main(["estimate", str(tmp_path / "ok.wjlr"), str(tmp_path / "cut.wjlr")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_reduced_vector_trailing_bytes(tmp_path, capsys):
    from wjl.cli import main

    g = reduce(ProjectionMatrix(k=6, d=20, seed=31), np.arange(20.0))
    data = g.to_bytes() + b"\0" * 16  # one whole extra coordinate
    message = f"WJLR file has trailing bytes: expected {22 + 16 * 6} bytes, got {22 + 16 * 7}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        ReducedVector.from_bytes(data)
    (tmp_path / "long.wjlr").write_bytes(data)
    (tmp_path / "ok.wjlr").write_bytes(g.to_bytes())
    assert main(["estimate", str(tmp_path / "ok.wjlr"), str(tmp_path / "long.wjlr")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("k, d", [(0, 20), (1, 0), (0, 0)])
def test_reduced_vector_header_with_zero_dimension(tmp_path, capsys, k, d):
    from wjl.cli import main

    # No matrix has k or d below 1, so no writer made this file.
    data = b"WJLR" + struct.pack("<HIIQ", 2, k, d, 31) + np.ones(k, dtype="<c16").tobytes()
    message = f"reduced vector k and d must be positive, got k={k}, d={d}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        ReducedVector.from_bytes(data)
    (tmp_path / "zero.wjlr").write_bytes(data)
    assert main(["estimate", str(tmp_path / "zero.wjlr"), str(tmp_path / "zero.wjlr")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@settings(max_examples=200, deadline=None)
@example(k=1, d=20, seed=31, cut=22, pos=6, byte=0)  # k = 0, and the file ends with the header
@example(k=1, d=1, seed=31, cut=38, pos=10, byte=0)  # d = 0
@given(
    k=st.integers(1, 3),
    d=st.integers(1, 300),
    seed=st.integers(0, 2**64 - 1),
    cut=st.integers(0, 80),
    pos=st.integers(0, 80),
    byte=st.integers(0, 255),
)
def test_wjlr_reader_round_trips_or_rejects_any_cut_or_byte(k, d, seed, cut, pos, byte):
    """A valid blob cut to its first cut bytes, then byte pos set to byte,
    reads back to the same bytes or raises ValueError."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    blob = bytearray(ReducedVector(k, values, seed, d).to_bytes()[:cut])
    if pos < len(blob):
        blob[pos] = byte
    try:
        back = ReducedVector.from_bytes(bytes(blob))
    except ValueError:
        return
    assert back.to_bytes() == blob
    assert back.k >= 1 and back.dims_d >= 1  # as for every projection matrix


def test_matrix_dimensions_fit_header_fields():
    ProjectionMatrix(k=2**32 - 1, d=2**32 - 1, seed=0)  # validation only; nothing is allocated
    for k, d in ((2**32, 5), (5, 2**32)):
        with pytest.raises(ValueError, match="below 2\\^32"):
            ProjectionMatrix(k=k, d=d, seed=0)


def test_scalar_entry_exponents_wrap_silently():
    A = ProjectionMatrix(k=3, d=5, seed=2**63 + 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = A.entry_exponents(2, 4)
        row = A.entry_exponents(2, np.arange(5))
    assert scalar == row[4] == A.entry_exponents(np.array([2]), np.array([4]))[0]


def test_concentration_improves_with_k():
    # Small-scale version of the fig-1 scaling law; the full check lives in
    # the acceptance suite.
    rng = np.random.default_rng(77)
    x = np.zeros(200)
    idx = rng.choice(200, 10, replace=False)
    x[idx] = rng.standard_normal(10)
    x /= np.linalg.norm(x)
    w = np.zeros(200)
    w[idx[:8]] = 1.0
    stds = []
    for k in (16, 256):
        ests = []
        for s in range(150):
            A = ProjectionMatrix(k=k, d=200, seed=s)
            ests.append(rho(reduce_sparse(A, idx, x[idx]), reduce_sparse(A, idx[:8], w[idx[:8]])))
        stds.append(np.std(ests))
    assert stds[1] < stds[0] / 2
