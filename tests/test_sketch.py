import hashlib
import itertools
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import wjl.harness
import wjl.sketch
from wjl._mix import mix2
from wjl.harness import _TAG_SKETCH, sketch_success_rate
from wjl.hashing import MERSENNE_P, coefficients_for_seeds, hash_eval_exponents
from wjl.oracle import WeightedPair, exact_expectation, weighted_sq_norm
from wjl.sketch import (
    ConfigMismatchError,
    SketchConfig,
    StreamSketch,
    cell_estimates,
    cell_seeds,
    ingest_pair,
    new_pair,
    plan_sketch,
    sketch_estimate,
    sketch_merge,
)


def _forced(table: dict) -> np.ndarray:
    """Coefficients (a0..a7) of a polynomial over GF(p) whose hash exponent at
    each key t is table[t]: the Lagrange interpolant through the points
    (t, table[t]), at most 8 of them."""
    coeffs = [0] * 8
    for ti, yi in table.items():
        basis, denom = [1], 1  # prod over the other keys tj of (x - tj), lowest degree first
        for tj in table:
            if tj != ti:
                basis = [(a - tj * b) % MERSENNE_P for a, b in zip([0, *basis], [*basis, 0])]
                denom = denom * (ti - tj) % MERSENNE_P
        scale = yi * pow(denom, -1, MERSENNE_P) % MERSENNE_P
        for n, c in enumerate(basis):
            coeffs[n] = (coeffs[n] + scale * c) % MERSENNE_P
    return np.array(coeffs, dtype=np.uint64)


def _force(monkeypatch, table: dict):
    """Make every sketch cell hash with the polynomial _forced(table): the
    coefficients go through the same product kernel as derived ones."""
    coefficients = _forced(table)
    monkeypatch.setattr(
        wjl.sketch, "coefficient_words", lambda seeds: np.broadcast_to(coefficients, np.shape(seeds) + (8,))
    )


def test_construction():
    cfg = SketchConfig(r=3, m=2, seed=0)
    s = StreamSketch(cfg)
    assert s.counters.shape == (3, 2)
    assert np.all(s.counters == 0)
    assert vars(s).keys() == {"config", "counters", "items_seen"}
    coefficients = coefficients_for_seeds(cell_seeds(cfg))
    assert coefficients.shape == (3, 2, 8)
    assert len({tuple(row) for row in coefficients.reshape(-1, 8)}) == 6


def test_hash_arrays_deterministic():
    a = StreamSketch(SketchConfig(r=2, m=2, seed=5))
    b = StreamSketch(SketchConfig(r=2, m=2, seed=5))
    c = StreamSketch(SketchConfig(r=2, m=2, seed=6))
    for s in (a, b, c):
        s.update_many([3, 4, 9], [1.0, 1.0, 1.0])
    assert np.array_equal(a.counters, b.counters)
    assert not np.array_equal(a.counters, c.counters)


def test_single_update_constant_hash(monkeypatch):
    cfg = SketchConfig(r=1, m=1, seed=0)
    _force(monkeypatch, {1: 1})  # h(1) = i
    s = StreamSketch(cfg)
    s.update(1, 5.0)
    assert s.counters[0, 0] == 5j
    assert s.items_seen == 1


def test_turnstile_updates_accumulate():
    cfg = SketchConfig(r=2, m=3, seed=4, mode="turnstile")
    a = StreamSketch(cfg)
    a.update(3, 2.0)
    a.update(3, 3.0)
    b = a.spawn()
    b.update(3, 5.0)
    assert np.array_equal(a.counters, b.counters)


def test_interleaved_streams_sum():
    cfg = SketchConfig(r=2, m=2, seed=7)
    full = StreamSketch(cfg)
    s1, s2 = new_pair(cfg)
    vals = [1.0, -2.0, 0.5, 4.0]
    for t, v in enumerate(vals, start=1):
        full.update(t, v)
        (s1 if t % 2 else s2).update(t, v)
    assert np.allclose(sketch_merge(s1, s2).counters, full.counters)


def test_estimate_d1_exact():
    for seed in (0, 3, 17):
        cfg = SketchConfig(r=5, m=4, seed=seed)
        sx, sw = new_pair(cfg)
        sx.update(1, 5.0)
        sw.update(1, 2.0)
        est = sketch_estimate(sx, sw)
        assert est.value == pytest.approx(100.0, rel=1e-12)
        assert est.r_used == 5 and est.m_used == 4


def test_estimate_empty_stream():
    cfg = SketchConfig(r=3, m=1, seed=1)
    sx, sw = new_pair(cfg)
    sw.update(1, 2.0)
    assert sketch_estimate(sx, sw).value == 0.0


def test_estimate_forced_hash_enumeration(monkeypatch):
    """Mean of the r=1, m=1 estimate over all 16 joint hash assignments."""
    x = np.array([1.0, 1.0])
    w = np.array([1.0, 1.0])
    vals = []
    for e1, e2 in itertools.product(range(4), repeat=2):
        _force(monkeypatch, {1: e1, 2: e2})
        cfg = SketchConfig(r=1, m=1, seed=0)
        sx = StreamSketch(cfg)
        sw = sx.spawn()
        for t in (1, 2):
            sx.update(t, x[t - 1])
            sw.update(t, w[t - 1])
        vals.append(sketch_estimate(sx, sw).value)
    assert np.mean(vals) == pytest.approx(2.0, abs=1e-12)
    assert np.mean(vals) == pytest.approx(exact_expectation(x, w), abs=1e-12)


def test_estimate_config_mismatch():
    sx = StreamSketch(SketchConfig(r=2, m=2, seed=1))
    sw = StreamSketch(SketchConfig(r=2, m=2, seed=2))
    with pytest.raises(ConfigMismatchError):
        sketch_estimate(sx, sw)


_configs = st.tuples(
    st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**64 - 1), st.sampled_from(["timestep", "turnstile"])
)


@settings(max_examples=60, deadline=None)
@given(a=_configs, b=_configs, keep=st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()))
def test_any_config_mismatch_raises(a, b, keep):
    b = tuple(x if same else y for x, y, same in zip(a, b, keep))  # (r, m, seed, mode)
    assume(a != b)
    sa, sb = StreamSketch(SketchConfig(*a)), StreamSketch(SketchConfig(*b))
    combines = (sketch_estimate, sketch_merge, lambda u, v: ingest_pair(u, v, [1], [1.0], [1.0]))
    for u, v in ((sa, sb), (sb, sa)):
        for combine in combines:
            with pytest.raises(ConfigMismatchError):
                combine(u, v)
    assert sa.items_seen == sb.items_seen == 0 and not sa.counters.any() and not sb.counters.any()


def test_plan_sketch_examples():
    import math

    e_inv = math.exp(-1)
    assert plan_sketch(1.0, e_inv, 1.0) == (13, 137)
    assert plan_sketch(0.5, e_inv, 1.0) == (13, 545)
    r1, m1 = plan_sketch(0.3, 0.05, 1.0)
    r2, m2 = plan_sketch(0.3, 0.05, 2.0)
    assert m2 == pytest.approx(16 * m1, rel=0.01)
    assert r1 % 2 == 1 and r1 > 12 * math.log(20)


def test_merge_properties():
    cfg = SketchConfig(r=2, m=2, seed=9, mode="turnstile")
    a, b = new_pair(cfg)
    a.update(0, 1.0)
    a.update(3, -2.0)
    b.update(1, 4.0)
    zero = a.spawn()
    assert np.array_equal(sketch_merge(a, zero).counters, a.counters)
    assert np.array_equal(sketch_merge(a, b).counters, sketch_merge(b, a).counters)
    full = a.spawn()
    for t, v in [(0, 1.0), (3, -2.0), (1, 4.0)]:
        full.update(t, v)
    assert np.allclose(sketch_merge(a, b).counters, full.counters)
    with pytest.raises(ConfigMismatchError):
        sketch_merge(a, StreamSketch(SketchConfig(r=2, m=2, seed=10)))


def test_update_many_matches_update_loop():
    cfg = SketchConfig(r=3, m=4, seed=11)
    a = StreamSketch(cfg)
    b = a.spawn()
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(20)
    for t, v in enumerate(vals, start=1):
        a.update(t, v)
    b.update_many(np.arange(1, 21), vals)
    assert np.allclose(a.counters, b.counters, atol=1e-12)
    assert a.items_seen == b.items_seen == 20


def test_update_many_rejects_values_of_another_shape():
    sk = StreamSketch(SketchConfig(r=2, m=3, seed=1))
    for ts, vs in (([1, 2, 3], [5.0]), ([[1, 2]], [[5.0, 1.0]]), (7, 5.0)):
        with pytest.raises(ValueError, match="parallel 1-d"):
            sk.update_many(ts, vs)
    assert sk.items_seen == 0 and not sk.counters.any()


def test_ingest_pair_rejects_weights_of_another_length():
    sx, sw = new_pair(SketchConfig(r=2, m=3, seed=1, mode="turnstile"))
    with pytest.raises(ValueError, match="parallel 1-d"):
        ingest_pair(sx, sw, [1, 2, 3], [1.0, 2.0, 3.0], [1.0])
    assert sx.items_seen == sw.items_seen == 0
    assert not sx.counters.any() and not sw.counters.any()


def test_keys_outside_the_field_leave_the_sketches_untouched():
    # Two of the three keys are valid: a check after the first add would leave their sums behind.
    keys = np.array([1, 2, MERSENNE_P], dtype=np.uint64)
    sk = StreamSketch(SketchConfig(r=2, m=3, seed=1, mode="turnstile"))
    with pytest.raises(ValueError, match="evaluation point"):
        sk.update_many(keys, [1.0, 2.0, 3.0])
    assert sk.items_seen == 0 and not sk.counters.any()
    sx, sw = new_pair(SketchConfig(r=2, m=3, seed=1, mode="turnstile"))
    with pytest.raises(ValueError, match="evaluation point"):
        ingest_pair(sx, sw, keys, [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    assert sx.items_seen == sw.items_seen == 0
    assert not sx.counters.any() and not sw.counters.any()


def test_fortran_ordered_counters_take_the_whole_batch():
    cfg = SketchConfig(r=3, m=5, seed=8, mode="turnstile")
    ts, xs, ws = [4, 9, 4], [1.0, -2.0, 0.5], [0.25, 1.0, 3.0]
    want = StreamSketch(cfg)
    want.update_many(ts, xs)
    sk = StreamSketch(cfg)
    sk.counters = np.asfortranarray(sk.counters)
    sk.update_many(ts, xs)
    assert sk.to_bytes() == want.to_bytes()
    wx, ww = new_pair(cfg)
    ingest_pair(wx, ww, ts, xs, ws)
    sx, sw = new_pair(cfg)
    sx.counters, sw.counters = np.asfortranarray(sx.counters), np.asfortranarray(sw.counters)
    ingest_pair(sx, sw, ts, xs, ws)
    assert (sx.to_bytes(), sw.to_bytes()) == (wx.to_bytes(), ww.to_bytes())


def test_cell_estimates_rejects_vectors_of_different_lengths():
    with pytest.raises(ValueError, match="parallel 1-d"):
        cell_estimates(np.ones(4), np.ones(1), np.arange(3))


@pytest.mark.parametrize("keys", [[1.7], [1.0], [True]])
def test_update_many_rejects_non_integer_keys(keys):
    sk = StreamSketch(SketchConfig(r=2, m=3, seed=1))
    with pytest.raises(ValueError, match="keys must be integers"):
        sk.update_many(keys, [1.0])
    assert sk.items_seen == 0 and not sk.counters.any()


def test_empty_float_batch_is_a_no_op():
    # An empty stream file reads as float64 arrays.
    sk = StreamSketch(SketchConfig(r=2, m=3, seed=1))
    sk.update_many(np.array([]), np.array([]))
    assert sk.items_seen == 0 and not sk.counters.any()


def test_cell_estimates_matches_sketch_objects():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(6)
    w = np.abs(rng.standard_normal(6))
    seeds = np.arange(10)
    fast = cell_estimates(x, w, seeds)
    for s in seeds:
        cfg = SketchConfig(r=1, m=1, seed=int(s), mode="turnstile")
        sx, sw = new_pair(cfg)
        for t in range(6):
            sx.update(t, x[t])
            sw.update(t, w[t])
        manual = ((sx.counters[0, 0] * sw.counters[0, 0]) ** 2).real
        assert fast[s] == pytest.approx(manual, rel=1e-12)


def test_serialization_roundtrip_and_size():
    cfg = SketchConfig(r=3, m=2, seed=21, mode="turnstile")
    s = StreamSketch(cfg)
    s.update(5, 1.5)
    data = s.to_bytes()
    assert data[:4] == b"WJLS"
    assert len(data) == StreamSketch.serialized_size(3, 2)
    back = StreamSketch.from_bytes(data)
    assert back.config == cfg
    assert back.items_seen == 1
    assert np.array_equal(back.counters, s.counters)
    # The hash functions come back with the seed: the same update lands alike.
    back.update(7, 2.0)
    s.update(7, 2.0)
    assert np.array_equal(back.counters.view(np.uint64), s.counters.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(
    r=st.integers(1, 4),
    m=st.integers(1, 5),
    seed=st.integers(0, 2**64 - 1),
    mode=st.sampled_from(["timestep", "turnstile"]),
    items=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_serialization_roundtrip_property(r, m, seed, mode, items, data):
    cfg = SketchConfig(r=r, m=m, seed=seed, mode=mode)
    s = StreamSketch(cfg)
    parts = data.draw(st.lists(st.floats(), min_size=2 * r * m, max_size=2 * r * m))
    parts[0] = -0.0
    s.counters = np.array(parts).view(np.complex128).reshape(r, m)
    s.items_seen = items
    blob = s.to_bytes()
    assert len(blob) == StreamSketch.serialized_size(r, m) == 31 + 16 * r * m
    back = StreamSketch.from_bytes(blob)
    assert back.config == cfg and back.items_seen == items
    assert np.array_equal(back.counters.view(np.uint64), s.counters.view(np.uint64))
    assert back.to_bytes() == blob
    fresh, reread = StreamSketch(cfg), back.spawn()
    fresh.update(5, 1.0)
    reread.update(5, 1.0)
    assert np.array_equal(fresh.counters, reread.counters)


def _header(version=2, mode=1, r=3, m=2, seed=21, items=1):
    return b"WJLS" + struct.pack("<HBIIQQ", version, mode, r, m, seed, items)


def test_version_1_file_rejected():
    # A v1 file of the same sketch: header, counters, then 68 bytes of hash
    # coefficients per cell.
    data = _header(version=1) + bytes(6 * (16 + 68))
    with pytest.raises(ValueError, match="^unsupported sketch version 1$"):
        StreamSketch.from_bytes(data)


def test_unknown_mode_byte():
    with pytest.raises(ValueError, match="^unknown WJLS mode byte 5$"):
        StreamSketch.from_bytes(_header(mode=5) + bytes(16 * 6))


def test_trailing_bytes_rejected():
    s = StreamSketch(SketchConfig(r=3, m=2, seed=21, mode="turnstile"))
    data = s.to_bytes() + b"garbage"
    with pytest.raises(ValueError, match="^WJLS file has trailing bytes: expected 127 bytes, got 134$"):
        StreamSketch.from_bytes(data)


@pytest.mark.parametrize("cut", [5, 30, 31, 31 + 16 * 3 + 8, StreamSketch.serialized_size(3, 2) - 1])
def test_truncated_sketch_file(cut):
    s = StreamSketch(SketchConfig(r=3, m=2, seed=21, mode="turnstile"))
    s.update(5, 1.5)
    expected = 31 if cut < 31 else StreamSketch.serialized_size(3, 2)
    with pytest.raises(ValueError, match=f"^truncated WJLS file: expected {expected} bytes, got {cut}$"):
        StreamSketch.from_bytes(s.to_bytes()[:cut])


@settings(max_examples=200, deadline=None)
@example(r=2, m=1, seed=21, mode=1, cut=47, pos=7, byte=1)  # a 1x1 sketch: reads back
@given(
    r=st.integers(1, 3),
    m=st.integers(1, 3),
    seed=st.integers(0, 2**64 - 1),
    mode=st.integers(0, 1),
    cut=st.integers(0, 180),
    pos=st.integers(0, 180),
    byte=st.integers(0, 255),
)
def test_wjls_reader_round_trips_or_rejects_any_cut_or_byte(r, m, seed, mode, cut, pos, byte):
    """A valid blob cut to its first cut bytes, then byte pos set to byte,
    reads back to the same bytes or raises ValueError."""
    rng = np.random.default_rng(seed)
    s = StreamSketch(SketchConfig(r=r, m=m, seed=seed, mode=("timestep", "turnstile")[mode]))
    s.counters = rng.standard_normal((r, m)) + 1j * rng.standard_normal((r, m))
    s.items_seen = int(rng.integers(0, 2**63))
    blob = bytearray(s.to_bytes()[:cut])
    if pos < len(blob):
        blob[pos] = byte
    try:
        back = StreamSketch.from_bytes(bytes(blob))
    except ValueError:
        return
    assert back.to_bytes() == blob


def test_config_fits_header_fields():
    SketchConfig(r=2**32 - 1, m=1, seed=0)  # validation only; nothing is allocated
    for r, m in ((2**32, 1), (1, 2**32)):
        with pytest.raises(ValueError, match="below 2\\^32"):
            SketchConfig(r=r, m=m, seed=0)


def test_negative_estimates_not_clamped(monkeypatch):
    # Force counters whose product squared has negative real part.
    cfg = SketchConfig(r=1, m=1, seed=0)
    _force(monkeypatch, {0: 0, 1: 1})  # h(t) = t % 4 at t = 0, 1
    sx = StreamSketch(cfg)
    sw = sx.spawn()
    sx.update(0, 1.0)  # counter 1
    sw.update(1, 1.0)  # counter i; (1*i)^2 = -1
    est = sketch_estimate(sx, sw)
    assert est.value == -1.0
    assert est.is_negative


_keys = st.integers(0, MERSENNE_P - 1)
_values = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(table=st.dictionaries(_keys, st.integers(0, 3), min_size=1, max_size=8))
def test_forced_coefficients_give_the_requested_exponents(table):
    keys = np.array(list(table), dtype=np.uint64)
    assert hash_eval_exponents(_forced(table), keys).tolist() == list(table.values())


@settings(max_examples=40, deadline=None)
@given(
    r=st.integers(1, 4),
    m=st.integers(1, 5),
    seed=st.integers(0, 2**64 - 1),
    updates=st.lists(st.tuples(_keys, _values, _values), min_size=1, max_size=40),
    chunk=st.integers(1, 41),
)
def test_update_loop_update_many_and_ingest_pair_agree(r, m, seed, updates, chunk):
    ts, xs, ws = (np.array(c) for c in zip(*updates))
    ts = ts.astype(np.uint64)
    cfg = SketchConfig(r=r, m=m, seed=seed, mode="turnstile")
    loop_x, loop_w = new_pair(cfg)
    for t, x, w in updates:
        loop_x.update(t, x)
        loop_w.update(t, w)
    many_x, many_w = new_pair(cfg)
    for start in range(0, len(ts), chunk):
        many_x.update_many(ts[start : start + chunk], xs[start : start + chunk])
        many_w.update_many(ts[start : start + chunk], ws[start : start + chunk])
    pair_x, pair_w = new_pair(cfg)
    ingest_pair(pair_x, pair_w, ts, xs, ws)
    for vs, sketches in ((xs, (loop_x, many_x, pair_x)), (ws, (loop_w, many_w, pair_w))):
        tol = 1e-12 * np.abs(vs).sum()
        for other in sketches[1:]:
            assert np.all(np.abs(other.counters - sketches[0].counters) <= tol)
            assert other.items_seen == sketches[0].items_seen == len(vs)


@settings(max_examples=40, deadline=None)
@given(
    r=st.integers(1, 4),
    data=st.data(),
    entries=st.lists(st.tuples(st.integers(0, 30), _values, st.floats(0, 1e6)), min_size=1, max_size=8),
    n_seeds=st.integers(1, 7),
    threads=st.sampled_from([1, 2, 3]),
    master_seed=st.integers(0, 2**64 - 1),
)
def test_each_seed_estimate_is_that_of_a_fresh_narrow_pair(r, data, entries, n_seeds, threads, master_seed):
    widths = tuple(data.draw(st.lists(st.integers(1, 300), min_size=1, max_size=3)))
    block_cells = data.draw(st.integers(1, 3 * r * max(widths)))  # blocks of 1 to 3 seeds
    x, w = np.zeros(31), np.zeros(31)
    for t, xv, wv in entries:
        x[t], w[t] = xv, wv
    calls = []

    def recorded(*args):
        calls.append((args[3].tolist(), wjl.sketch.pair_estimates(*args)))
        return calls[-1][1]

    with (
        mock.patch.object(wjl.sketch, "_BLOCK_CELLS", block_cells),
        mock.patch.object(wjl.harness, "pair_estimates", recorded),
    ):
        rates = sketch_success_rate(WeightedPair(x, w), 0.5, r, widths, n_seeds, master_seed, threads)
    # One contiguous range of the seeds per thread.
    seeds = [mix2(master_seed, _TAG_SKETCH, s) for s in range(n_seeds)]
    calls.sort(key=lambda call: seeds.index(call[0][0]))
    assert len(calls) == min(threads, n_seeds) and sum((part for part, _ in calls), []) == seeds
    ts = np.union1d(np.flatnonzero(x), np.flatnonzero(w))
    truth, hits = weighted_sq_norm(WeightedPair(x, w)), np.zeros(len(widths))
    for part, ests in calls:
        for seed, row in zip(part, ests):
            for col, m in enumerate(widths):
                sx, sw = new_pair(SketchConfig(r=r, m=m, seed=seed, mode="turnstile"))
                ingest_pair(sx, sw, ts, x[ts], w[ts])
                want = sketch_estimate(sx, sw).value
                assert np.float64(want).view(np.uint64) == row[col].view(np.uint64)
                hits[col] += abs(want - truth) <= 0.5 * truth
    assert rates == [h / n_seeds for h in hits]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    first=st.lists(st.tuples(_keys, _values), max_size=20),
    second=st.lists(st.tuples(_keys, _values), max_size=20),
)
def test_merge_is_linear(seed, first, second):
    cfg = SketchConfig(r=3, m=2, seed=seed, mode="turnstile")
    a, b = new_pair(cfg)
    both = a.spawn()
    for sketch, stream in ((a, first), (b, second), (both, first + second)):
        for t, v in stream:
            sketch.update(t, v)
    merged = sketch_merge(a, b)
    assert np.array_equal(merged.counters, a.counters + b.counters)
    assert np.array_equal(merged.counters, sketch_merge(b, a).counters)
    assert merged.items_seen == both.items_seen == len(first) + len(second)
    tol = 1e-12 * sum(abs(v) for _, v in first + second)
    assert np.all(np.abs(merged.counters - both.counters) <= tol)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.tuples(_values, st.floats(0, 1e6)), min_size=1, max_size=12),
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
)
def test_cell_estimates_bit_equal_to_one_cell_sketches(data, seeds):
    x, w = (np.array(c) for c in zip(*data))
    fast = cell_estimates(x, w, np.array(seeds, dtype=np.uint64))
    for seed, got in zip(seeds, fast):
        sx, sw = new_pair(SketchConfig(r=1, m=1, seed=seed, mode="turnstile"))
        ingest_pair(sx, sw, np.arange(len(x)), x, w)
        assert np.float64(sketch_estimate(sx, sw).value).view(np.uint64) == got.view(np.uint64)


# SHA-256 of the WJLS bytes (and of the cell_estimates bits) of fixed streams,
# recorded with the Horner kernel before the hashes became one exact product.
_GOLDEN = {
    "batches_13x137": "9c78f15602e81c4e18c20c2c8773d2237cc624799f32349a0fe9ebdf965f6e25",
    "updates_3x5": "61b6b176b44ace464572ddb50d68574ebce6f796e402d4c34c794712014d48e1",
    "batch_10k_13x137": "de7f43934dd5a46f6940d90881c6c37333079c4edd0b36376879b1cd668af8eb",
    "pair_full_field": "32e81a304228e92f55e1919b9034111fa238c3bb3a11aa2b9c8833079eea08e9",
    "planned_37x6046": "6980cbddf2df5a6b4fa99482786f88daf723648e3f57be11fd7d0937bd3a7631",
    "cell_estimates": "8268a255718528fdfbaf1411dcf906380f2478bd63150ad5616214bcbb0018b4",
}


def _sha256(*blobs) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()


def test_wjls_bytes_match_recorded_hashes():
    rng = np.random.default_rng(2026)
    edge = np.array([0, 1, 2, 977, 2**32 - 1, 2**32, MERSENNE_P - 2, MERSENNE_P - 1], dtype=np.uint64)
    got = {}
    sk = StreamSketch(SketchConfig(r=13, m=137, seed=123456789, mode="turnstile"))
    for _ in range(4):
        keys = np.minimum(rng.zipf(1.3, 256), 200_000) - 1
        sk.update_many(keys, rng.standard_normal(256))
    sk.update_many(edge, rng.standard_normal(edge.size))
    got["batches_13x137"] = _sha256(sk.to_bytes())
    s = StreamSketch(SketchConfig(r=3, m=5, seed=2**64 - 1))
    for t in range(1, 40):
        s.update(t, float(rng.standard_normal()))
    got["updates_3x5"] = _sha256(s.to_bytes())
    big = StreamSketch(SketchConfig(r=13, m=137, seed=4, mode="turnstile"))
    big.update_many(rng.integers(0, 200_000, 10_000), rng.standard_normal(10_000))
    got["batch_10k_13x137"] = _sha256(big.to_bytes())
    sx, sw = new_pair(SketchConfig(r=5, m=7, seed=99, mode="turnstile"))
    ts = np.concatenate([edge, rng.integers(0, MERSENNE_P, 300, dtype=np.uint64)])
    ingest_pair(sx, sw, ts, rng.standard_normal(ts.size), np.abs(rng.standard_normal(ts.size)))
    got["pair_full_field"] = _sha256(sx.to_bytes(), sw.to_bytes())
    planned = StreamSketch(SketchConfig(r=37, m=6046, seed=7, mode="turnstile"))
    planned.update_many([3, 17, 3], [1.0, -2.5, 0.25])
    got["planned_37x6046"] = _sha256(planned.to_bytes())
    x, w = rng.standard_normal(8), np.abs(rng.standard_normal(8))
    got["cell_estimates"] = _sha256(cell_estimates(x, w, np.arange(5000, dtype=np.uint64)).tobytes())
    assert got == _GOLDEN


def test_to_bytes_allocates_about_one_copy_of_the_file():
    sk = StreamSketch(SketchConfig(r=37, m=6046, seed=3, mode="turnstile"))
    tracemalloc.start()
    try:
        blob = sk.to_bytes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blob) == StreamSketch.serialized_size(37, 6046)
    assert peak < 1.2 * len(blob)


def test_from_bytes_allocates_about_one_copy_of_the_counters():
    blob = StreamSketch(SketchConfig(r=37, m=6046, seed=3, mode="turnstile")).to_bytes()
    tracemalloc.start()
    try:
        StreamSketch.from_bytes(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(blob)
