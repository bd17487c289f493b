import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wjl.oracle import exact_sketch_expectation
from wjl.sketch import (
    ConfigMismatchError,
    SketchConfig,
    StreamSketch,
    cell_estimates,
    new_pair,
    plan_sketch,
    sketch_estimate,
    sketch_merge,
    sketch_new,
)


def test_construction():
    s = sketch_new(SketchConfig(r=3, m=2, seed=0))
    assert s.counters.shape == (3, 2)
    assert np.all(s.counters == 0)
    assert s._coefficients.shape == (3, 2, 8)
    assert len({tuple(row) for row in s._coefficients.reshape(-1, 8)}) == 6


def test_hash_arrays_deterministic():
    a = sketch_new(SketchConfig(r=2, m=2, seed=5))
    b = sketch_new(SketchConfig(r=2, m=2, seed=5))
    assert np.array_equal(a._coefficients, b._coefficients)
    c = sketch_new(SketchConfig(r=2, m=2, seed=6))
    assert not np.array_equal(a._coefficients, c._coefficients)


def test_single_update_constant_hash():
    cfg = SketchConfig(r=1, m=1, seed=0)
    s = StreamSketch(cfg, hash_override=lambda t: np.array([[1]]))  # always i
    s.update(1, 5.0)
    assert s.counters[0, 0] == 5j
    assert s.items_seen == 1


def test_turnstile_updates_accumulate():
    cfg = SketchConfig(r=2, m=3, seed=4, mode="turnstile")
    a = sketch_new(cfg)
    a.update(3, 2.0)
    a.update(3, 3.0)
    b = a.spawn()
    b.update(3, 5.0)
    assert np.array_equal(a.counters, b.counters)


def test_interleaved_streams_sum():
    cfg = SketchConfig(r=2, m=2, seed=7)
    full = sketch_new(cfg)
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


def test_estimate_forced_hash_enumeration():
    """Mean of the r=1, m=1 estimate over all 16 joint hash assignments."""
    x = np.array([1.0, 1.0])
    w = np.array([1.0, 1.0])
    vals = []
    for e1, e2 in itertools.product(range(4), repeat=2):
        table = {1: e1, 2: e2}
        cfg = SketchConfig(r=1, m=1, seed=0)
        sx = StreamSketch(cfg, hash_override=lambda t: np.array([[table[t]]]))
        sw = sx.spawn()
        for t in (1, 2):
            sx.update(t, x[t - 1])
            sw.update(t, w[t - 1])
        vals.append(sketch_estimate(sx, sw).value)
    assert np.mean(vals) == pytest.approx(2.0, abs=1e-12)
    assert np.mean(vals) == pytest.approx(exact_sketch_expectation(x, w), abs=1e-12)


def test_estimate_config_mismatch():
    sx = sketch_new(SketchConfig(r=2, m=2, seed=1))
    sw = sketch_new(SketchConfig(r=2, m=2, seed=2))
    with pytest.raises(ConfigMismatchError):
        sketch_estimate(sx, sw)


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
        sketch_merge(a, sketch_new(SketchConfig(r=2, m=2, seed=10)))


def test_update_many_matches_update_loop():
    cfg = SketchConfig(r=3, m=4, seed=11)
    a = sketch_new(cfg)
    b = a.spawn()
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(20)
    for t, v in enumerate(vals, start=1):
        a.update(t, v)
    b.ingest(vals)
    assert np.allclose(a.counters, b.counters, atol=1e-12)
    assert a.items_seen == b.items_seen == 20


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
    s = sketch_new(cfg)
    s.update(5, 1.5)
    data = s.to_bytes()
    assert data[:4] == b"WJLS"
    assert len(data) == StreamSketch.serialized_size(3, 2)
    back = StreamSketch.from_bytes(data)
    assert back.config == cfg
    assert back.items_seen == 1
    assert np.array_equal(back.counters, s.counters)
    assert np.array_equal(back._coefficients, s._coefficients)


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
    assert np.array_equal(back._coefficients, StreamSketch(cfg)._coefficients)


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
    s = sketch_new(SketchConfig(r=3, m=2, seed=21, mode="turnstile"))
    data = s.to_bytes() + b"garbage"
    with pytest.raises(ValueError, match="^WJLS file has trailing bytes: expected 127 bytes, got 134$"):
        StreamSketch.from_bytes(data)


@pytest.mark.parametrize("cut", [5, 30, 31, 31 + 16 * 3 + 8, StreamSketch.serialized_size(3, 2) - 1])
def test_truncated_sketch_file(cut):
    s = sketch_new(SketchConfig(r=3, m=2, seed=21, mode="turnstile"))
    s.update(5, 1.5)
    expected = 31 if cut < 31 else StreamSketch.serialized_size(3, 2)
    with pytest.raises(ValueError, match=f"^truncated WJLS file: expected {expected} bytes, got {cut}$"):
        StreamSketch.from_bytes(s.to_bytes()[:cut])


def test_config_fits_header_fields():
    SketchConfig(r=2**32 - 1, m=1, seed=0)  # validation only; nothing is allocated
    for r, m in ((2**32, 1), (1, 2**32)):
        with pytest.raises(ValueError, match="below 2\\^32"):
            SketchConfig(r=r, m=m, seed=0)


def test_negative_estimates_not_clamped():
    # Force counters whose product squared has negative real part.
    cfg = SketchConfig(r=1, m=1, seed=0)
    sx = StreamSketch(cfg, hash_override=lambda t: np.array([[t % 4]]))
    sw = sx.spawn()
    sx.update(0, 1.0)  # counter 1
    sw.update(1, 1.0)  # counter i; (1*i)^2 = -1
    est = sketch_estimate(sx, sw)
    assert est.value == -1.0
    assert est.is_negative
