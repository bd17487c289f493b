import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wjl
import wjl.sketch
from wjl._mix import mix2
from wjl.generators import SparseSpec, gen_pair
from wjl.harness import (
    _TAG_PAIR,
    _TAG_SKETCH,
    SCALES,
    ExperimentConfig,
    read_csv,
    records_to_csv,
    render_histogram,
    run_fig1,
    run_fig2,
    run_sketch_eval,
    run_verify,
    sketch_success_rate,
)
from wjl.oracle import weighted_sq_norm
from wjl.projection import ProjectionMatrix, reduce_sparse
from wjl.sketch import SketchConfig, ingest_pair, new_pair, sketch_estimate


def _small_cfg(experiment, tmp_path, **overrides):
    base = dict(
        trials=30,
        k_list=(16, 64),
        spec=SparseSpec(d=200, l_x=10, l_w=10, l_overlap=8),
        out_dir=tmp_path,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(experiment=experiment, **base)


def test_fig1_record_shape(tmp_path):
    cfg = _small_cfg("fig1", tmp_path)
    records, path = run_fig1(cfg)
    assert len(records) == 60
    truths = {r.true_value for r in records}
    assert len(truths) == 1
    assert path.exists()
    meta, rows = read_csv(path.read_text())
    assert meta["experiment"] == "fig1"
    assert "true_value" in meta and "library_version" in meta
    assert len(rows) == 60


def test_fig1_reproducible_and_thread_invariant(tmp_path):
    a = run_fig1(_small_cfg("fig1", tmp_path / "a"))[1].read_text()
    b = run_fig1(_small_cfg("fig1", tmp_path / "b"))[1].read_text()
    c = run_fig1(_small_cfg("fig1", tmp_path / "c", threads=8))[1].read_text()
    assert a == b == c


def test_fig2_shares_matrix_seed_and_centers(tmp_path):
    cfg = _small_cfg("fig2", tmp_path, trials=60, k_list=(256,))
    records, path = run_fig2(cfg)
    meta, _ = read_csv(path.read_text())
    assert "matrix_seed" in meta
    ratios = np.array([r.ratio for r in records if r.ratio is not None])
    se = ratios.std() / np.sqrt(len(ratios))
    assert abs(ratios.mean() - 1.0) <= 4 * se


def _count_reductions(monkeypatch):
    import wjl.harness

    calls = []
    reduce = wjl.harness.reduce_sparse
    monkeypatch.setattr(wjl.harness, "reduce_sparse", lambda *args: calls.append(np.shape(args[2])) or reduce(*args))
    return calls


def test_fig2_reduces_w_once_per_k(tmp_path, monkeypatch):
    calls = _count_reductions(monkeypatch)
    cfg = _small_cfg("fig2", tmp_path, trials=7, k_list=(16, 64, 8))
    run_fig2(cfg)
    assert len(calls) == 7 * 3 + 3


def test_fig1_reduces_both_vectors_per_trial(tmp_path, monkeypatch):
    calls = _count_reductions(monkeypatch)
    cfg = _small_cfg("fig1", tmp_path, trials=7, k_list=(16, 64, 8))
    run_fig1(cfg)
    # One call per trial: x and w are the two rows of one product.
    assert len(calls) == 7 * 3
    assert all(len(shape) == 2 and shape[0] == 2 for shape in calls)


def test_sketch_eval_direction(tmp_path, monkeypatch):
    blocks = []
    hash_sums = wjl.sketch._hash_sums

    def recorded(seeds, *args):
        blocks.append((seeds.shape, seeds[..., 0, 0].copy()))  # a block's (S, r, m) grid and first cells
        return hash_sums(seeds, *args)

    monkeypatch.setattr(wjl.sketch, "_hash_sums", recorded)
    cfg = _small_cfg("sketch-eval", tmp_path, trials=60, spec=SparseSpec(d=200, l_x=2, l_w=2, l_overlap=2))
    rows, path = run_sketch_eval(cfg)
    by_arm = {r["arm"]: r for r in rows}
    # Each seed's planned r x m cells are hashed exactly once, and both arms read them.
    assert {shape[1:] for shape, _ in blocks} == {(by_arm["planned"]["r"], by_arm["planned"]["m"])}
    first = np.concatenate([cells for _, cells in blocks])
    assert first.size == np.unique(first).size == 60
    assert by_arm["planned"]["success_rate"] >= by_arm["undersized"]["success_rate"]
    assert path.exists()


def test_sketch_eval_metadata_states_the_spec_it_draws(tmp_path):
    cfg = _small_cfg("sketch-eval", tmp_path, trials=3)
    _, path = run_sketch_eval(cfg)
    spec = read_csv(path.read_text())[0]["spec"]
    assert spec["l_x"] == spec["l_w"] == spec["l_overlap"] == 2
    assert spec["d"] == cfg.spec.d and spec["seed"] == mix2(cfg.master_seed, _TAG_PAIR, 0)


@pytest.mark.parametrize("scale", sorted(SCALES))
def test_sketch_eval_preset_trials_are_its_sketches(scale):
    assert ExperimentConfig.preset(scale, "sketch-eval").trials == SCALES[scale]["sketch_seeds"]
    assert ExperimentConfig.preset(scale, "fig1").trials == SCALES[scale]["trials"]


def test_sketch_success_rate_does_not_depend_on_threads(monkeypatch):
    # A 5 x 12 sketch misses often enough that both rates lie inside (0, 1).
    pair = gen_pair(SparseSpec(d=200, l_x=4, l_w=4, l_overlap=3, seed=5))
    r, widths, n_seeds = 5, (12, 3), 40
    # Three seeds a block; no thread's share of the 40 seeds is a multiple of 3.
    monkeypatch.setattr(wjl.sketch, "_MAX_HASH_CELLS", 3 * r * max(widths))
    rates = [sketch_success_rate(pair, 0.3, r, widths, n_seeds, 9, threads=t) for t in (1, 2, 3)]
    truth = weighted_sq_norm(pair)
    union = np.union1d(np.flatnonzero(pair.x), np.flatnonzero(pair.w))
    hits = [0] * len(widths)
    for s in range(n_seeds):
        for col, m in enumerate(widths):
            sx, sw = new_pair(SketchConfig(r=r, m=m, seed=mix2(9, _TAG_SKETCH, s), mode="turnstile"))
            ingest_pair(sx, sw, union, pair.x[union], pair.w[union])
            hits[col] += abs(sketch_estimate(sx, sw).value - truth) <= 0.3 * truth
    assert rates == [[h / n_seeds for h in hits]] * 3
    assert all(0 < rate < 1 for rate in rates[0])


@pytest.mark.parametrize(
    "widths, n_seeds, message",
    [
        ((12, 3), 0, "n_seeds must be positive, got 0"),
        ((), 40, "widths must not be empty"),
        ((12, 0), 40, r"r and widths must be positive, got r=5, widths=\(12, 0\)"),
        ((-1,), 40, r"r and widths must be positive, got r=5, widths=\(-1,\)"),
    ],
)
def test_sketch_success_rate_rejects_bad_arguments(widths, n_seeds, message):
    pair = gen_pair(SparseSpec(d=200, l_x=4, l_w=4, l_overlap=3, seed=5))
    with pytest.raises(ValueError, match=f"^{message}$"):
        sketch_success_rate(pair, 0.3, 5, widths, n_seeds, 9)


def test_sketch_eval_maps_seeds_over_threads_but_not_as_fig_trials(tmp_path, monkeypatch):
    import wjl.harness

    pools = []
    pool_map = wjl.harness._pool_map
    monkeypatch.setattr(wjl.harness, "_pool_map", lambda n, fn, args: pools.append(n) or pool_map(n, fn, args))
    monkeypatch.setattr(wjl.harness, "_map", lambda *args: pytest.fail("sketch-eval mapped seeds as fig trials"))
    cfg = _small_cfg("sketch-eval", tmp_path, trials=4, threads=3, spec=SparseSpec(d=200, l_x=2, l_w=2, l_overlap=2))
    run_sketch_eval(cfg)
    assert pools == [3]


def test_run_verify_all_pass():
    results = run_verify(seed=0)
    assert results and all(ok for _, ok in results)


def test_render_histogram_deterministic(tmp_path):
    cfg = _small_cfg("fig1", tmp_path)
    _, path = run_fig1(cfg)
    svg1 = render_histogram(path, "estimate", 20, tmp_path / "h1.svg")
    svg2 = render_histogram(path, "estimate", 20, tmp_path / "h2.svg")
    assert svg1.read_text() == svg2.read_text()
    assert svg1.read_text().startswith("<svg")


def test_render_histogram_identical_values(tmp_path):
    csv = tmp_path / "flat.csv"
    csv.write_text("x\n" + "\n".join(["3.5"] * 250) + "\n")
    out = render_histogram(csv, "x", 10, tmp_path / "flat.svg")
    text = out.read_text()
    assert text.count("<rect") == 2  # background + the single full-height bar


def test_render_histogram_errors(tmp_path):
    csv = tmp_path / "bad.csv"
    csv.write_text("a,b\n1,zzz\n")
    with pytest.raises(ValueError):
        render_histogram(csv, "missing", 5, tmp_path / "o.svg")
    with pytest.raises(ValueError):
        render_histogram(csv, "b", 5, tmp_path / "o.svg")
    csv.write_text("a,b\n")
    with pytest.raises(ValueError) as exc:
        render_histogram(csv, "a", 5, tmp_path / "o.svg")
    assert str(exc.value) == f"{csv}: no data rows in CSV"


# CSVs with no header line, or whose metadata line is not a JSON object, and
# read_csv's message for each.
_BAD_CSVS = [
    ("", "CSV has no header line"),
    ("\n\n", "CSV has no header line"),
    ('# {"seed": 1}\n', "CSV has no header line"),
    ("# [1]\nestimate\n1.0\n", "CSV metadata line must hold a JSON object"),
    ("# 3\nestimate\n1.0\n", "CSV metadata line must hold a JSON object"),
    ("# x\nestimate\n", "CSV metadata line is not JSON"),
]
_BAD_CSV_IDS = [text for text, _ in _BAD_CSVS]


@pytest.mark.parametrize("text, message", _BAD_CSVS, ids=_BAD_CSV_IDS)
def test_read_csv_errors(tmp_path, text, message):
    with pytest.raises(ValueError) as exc:
        read_csv(text)
    assert str(exc.value) == message
    csv = tmp_path / "bad.csv"
    csv.write_text(text)
    with pytest.raises(ValueError):
        render_histogram(csv, "estimate", 5, tmp_path / "o.svg")


def test_records_to_csv_sorted_and_commented():
    from wjl.harness import TrialRecord

    recs = [
        TrialRecord(1, 4, 1.0, 2.0, 1.5),
        TrialRecord(0, 4, 1.5, 2.0, 1.5),
    ]
    text = records_to_csv(recs, {"experiment": "t"})
    lines = text.splitlines()
    assert lines[0].startswith("# {")
    assert lines[1].startswith("trial_index,")
    assert lines[2].startswith("0,") and lines[3].startswith("1,")


def test_benchmark_trace_sites_and_hooks_exist():
    """perfbench/spans.py wraps its traced names in place and the workloads
    call these; a deleted or renamed one fails here by name."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    with spans.Tracer().installed():
        pass
    from wjl import cli, harness

    for owner, name in [(harness, "_map"), (harness, "read_csv"), *((cli, f"run_fig{n}") for n in range(1, 5))]:
        assert callable(getattr(owner, name, None)), name


def _cli(*args, cwd):
    # Put the directory of the already-imported `wjl` first on the child's
    # PYTHONPATH, as an absolute path: a relative entry such as `src` would
    # resolve against `cwd`, and an installed copy must not shadow this one.
    src = str(Path(wjl.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, inherited]) if inherited else src)
    return subprocess.run(
        [sys.executable, "-m", "wjl.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def test_cli_gen_reduce_estimate(tmp_path):
    out = tmp_path / "out"
    res = _cli("gen", "--d", "200", "--l", "5", "--l-overlap", "4", "--seed", "3", "--out", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert (out / "x.csv").exists() and (out / "w.csv").exists()

    res = _cli(
        "reduce", str(out / "x.csv"), "--d", "200", "--k-dim", "64", "--seed", "5",
        "--output", str(out / "x.wjlr"), cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    res = _cli(
        "reduce", str(out / "w.csv"), "--d", "200", "--k-dim", "64", "--seed", "5",
        "--output", str(out / "w.wjlr"), cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr

    res = _cli("estimate", str(out / "x.wjlr"), str(out / "w.wjlr"), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    float(res.stdout.strip())  # parses as a number


def test_cli_sketch_stream(tmp_path):
    stream = tmp_path / "s.csv"
    stream.write_text("t,value\n1,2.0\n2,-1.0\n")
    res = _cli(
        "sketch", str(stream), "--r", "3", "--m", "2", "--seed", "1",
        "--output", str(tmp_path / "s.wjls"), cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    from wjl.sketch import StreamSketch

    sk = StreamSketch.from_bytes((tmp_path / "s.wjls").read_bytes())
    assert sk.items_seen == 2


def test_cli_verify_exit_code(tmp_path):
    res = _cli("verify", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert "PASS" in res.stdout


def test_cli_fig1_and_plot_determinism(tmp_path):
    args = ["fig1", "--d", "200", "--trials", "20", "--k", "16", "--k", "64", "--seed", "11", "--threads", "8"]
    res1 = _cli(*args, "--out", str(tmp_path / "r1"), cwd=tmp_path)
    assert res1.returncode == 0, res1.stderr
    res2 = _cli(*args, "--out", str(tmp_path / "r2"), cwd=tmp_path)
    assert res2.returncode == 0, res2.stderr
    assert (tmp_path / "r1/fig1.csv").read_bytes() == (tmp_path / "r2/fig1.csv").read_bytes()
    assert (tmp_path / "r1/fig1.svg").read_bytes() == (tmp_path / "r2/fig1.svg").read_bytes()


def test_cli_bad_input_exit_code(tmp_path):
    res = _cli("plot", str(tmp_path / "nope.csv"), "--output", str(tmp_path / "o.svg"), cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    # argparse also exits 2 on a usage error; the missing file must be what is reported.
    assert res.stderr.startswith("error: "), res.stderr
    assert "Traceback" not in res.stderr, res.stderr


@pytest.mark.parametrize("text, message", _BAD_CSVS, ids=_BAD_CSV_IDS)
def test_cli_plot_bad_csv_exit_code(tmp_path, capsys, text, message):
    from wjl.cli import main

    csv = tmp_path / "bad.csv"
    csv.write_text(text)
    assert main(["plot", str(csv), "--output", str(tmp_path / "o.svg")]) == 2
    assert capsys.readouterr().err == f"error: {csv}: {message}\n"


def test_cli_fig2_without_overlap_writes_axes_only_svg(tmp_path, capsys):
    from wjl.cli import main

    # At desk seed 168 no trial's x overlaps w, so every ratio is empty.
    assert main(["fig2", "--scale", "desk", "--seed", "168", "--out", str(tmp_path)]) == 0
    _, rows = read_csv((tmp_path / "fig2.csv").read_text())
    assert len(rows) == 300 and all(row["ratio"] == "" for row in rows)
    svg = (tmp_path / "fig2.svg").read_text()
    assert svg.startswith("<svg") and svg.count("<rect") == 1  # the background only
    assert "<line" in svg and "<text" not in svg
    capsys.readouterr()
    # Asked for explicitly, a histogram of an empty column is still an error.
    args = ["plot", str(tmp_path / "fig2.csv"), "--column", "ratio", "--output", str(tmp_path / "p.svg")]
    assert main(args) == 2
    assert capsys.readouterr().err == "error: no numeric values in column\n"


def test_cli_reduce_small_d_and_oversized_d(tmp_path, capsys):
    from wjl.cli import main

    vec = tmp_path / "x.csv"
    vec.write_text("index,value\n1,0.5\n3,2.0\n")
    out = tmp_path / "x.wjlr"
    assert main(["reduce", str(vec), "--d", "5", "--k-dim", "8", "--seed", "4", "--output", str(out)]) == 0
    expected = reduce_sparse(ProjectionMatrix(k=8, d=5, seed=4), np.array([1, 3]), np.array([0.5, 2.0]))
    assert out.read_bytes() == expected.to_bytes()
    capsys.readouterr()
    assert main(["reduce", str(vec), "--d", str(2**32), "--k-dim", "8", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command, text, line, bad", [
    ("reduce", "index,value\n1,0.5\n3,nan\n", 3, "nan"),
    ("sketch", "t,value\n1,0.5\n\n3,-inf\n", 4, "-inf"),
    ("sketch", "1,inf\n", 1, "inf"),
])
def test_cli_rejects_non_finite_values(tmp_path, capsys, command, text, line, bad):
    from wjl.cli import main

    src = tmp_path / "in.csv"
    src.write_text(text)
    extra = ["--d", "5", "--k-dim", "8"] if command == "reduce" else []
    assert main([command, str(src), *extra, "--output", str(tmp_path / "out.bin")]) == 2
    assert capsys.readouterr().err == f"error: {src} line {line}: non-finite value {bad}\n"
    assert not (tmp_path / "out.bin").exists()


@pytest.mark.parametrize("command, text, message", [
    ("sketch", "t,value\n1,2.0,3\n", "too many values to unpack (expected 2)"),
    ("reduce", "index,value\n0,1.0\n1\n", "not enough values to unpack (expected 2, got 1)"),
    ("sketch", "1.5,2\n", "invalid literal for int() with base 10: '1.5'"),
    ("reduce", "1,abc\n", "could not convert string to float: 'abc'"),
    # Only the first non-blank line may be a header.
    ("reduce", "index,value\n1,2.0\nx3,1.5\n", "invalid literal for int() with base 10: 'x3'"),
    ("sketch", "t,v\n1,2.0\nnan,1\n", "invalid literal for int() with base 10: 'nan'"),
])
def test_cli_rejects_malformed_fields(tmp_path, capsys, command, text, message):
    from wjl.cli import main

    src = tmp_path / "in.csv"
    src.write_text(text)
    extra = ["--d", "5", "--k-dim", "8"] if command == "reduce" else []
    assert main([command, str(src), *extra, "--output", str(tmp_path / "out.bin")]) == 2
    line = text.count("\n")  # the last line is the bad one
    assert capsys.readouterr().err == f"error: {src} line {line}: {message}\n"
    assert not (tmp_path / "out.bin").exists()


@pytest.mark.parametrize("command", ["reduce", "sketch"])
def test_cli_rejects_index_beyond_64_bits(tmp_path, capsys, command):
    from wjl.cli import main

    src = tmp_path / "in.csv"
    src.write_text(f"index,value\n{2**70},1.0\n")
    extra = ["--d", "5", "--k-dim", "8"] if command == "reduce" else []
    assert main([command, str(src), *extra, "--output", str(tmp_path / "out.bin")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command, text, message", [
    ("fig1", '{"foo": 1}', " has unknown key 'foo'"),
    # The command names the experiment.
    ("fig1", '{"experiment": "fig4"}', " has unknown key 'experiment'"),
    ("reduce", "[1, 2]", " must be a JSON object"),
    ("gen", "[1, 2]", " must be a JSON object"),
    ("fig2", '{"trials": "5"}', ": trials must be int, got str"),
    ("fig3", '{"spec": {"d": 300, "l": 4}}', " spec has unknown key 'l'"),
    ("sketch-eval", '{"epsilon": true}', ": epsilon must be float, got bool"),
    ("fig4", '{"k_list": [16, 1.5]}', ": k_list must hold integers, got float"),
    ("fig1", "{bad", ": Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("reduce", "{bad", ": Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
])
def test_cli_rejects_bad_config_files(tmp_path, capsys, command, text, message):
    from wjl.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    args = [command, "--config", str(cfg)]
    if command == "reduce":
        vec = tmp_path / "x.csv"
        vec.write_text("1,0.5\n")
        args += [str(vec), "--k-dim", "8", "--output", str(tmp_path / "x.wjlr")]
    else:
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: config {cfg}{message}\n"
    assert not (tmp_path / "out").exists() and not (tmp_path / "x.wjlr").exists()


@pytest.mark.parametrize("command, k_list, message", [
    ("fig1", [], "k_list must not be empty"),
    ("fig3", [], "k_list must not be empty"),
    ("fig3", [16, 0], "k_list values must be positive, got 0"),
])
def test_cli_rejects_empty_or_nonpositive_k_list(tmp_path, capsys, command, k_list, message):
    from wjl.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"k_list": {k_list}}}')
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flags, config, bad", [
    ("fig1", ["--threads", "0"], "{}", 0),
    ("sketch-eval", ["--threads", "-3"], "{}", -3),
    ("fig2", [], '{"threads": 0}', 0),
])
def test_cli_rejects_nonpositive_threads(tmp_path, capsys, command, flags, config, bad):
    from wjl.cli import main

    (tmp_path / "cfg.json").write_text(config)
    args = [command, *flags, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: threads must be positive, got {bad}\n"
    assert not (tmp_path / "out").exists()


def test_config_keys_are_the_config_fields():
    from dataclasses import fields

    from wjl.cli import _CONFIG_TYPES, _SPEC_TYPES

    assert set(_CONFIG_TYPES) == {f.name for f in fields(ExperimentConfig)} - {"experiment"}
    assert set(_SPEC_TYPES) == {f.name for f in fields(SparseSpec)}


def test_cli_config_file_overrides_flags(tmp_path):
    from wjl.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"trials": 3, "k_list": [8], "spec": {"d": 40}, "master_seed": 9}')
    assert main(["fig1", "--trials", "50", "--d", "300", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta, rows = read_csv((tmp_path / "fig1.csv").read_text())
    assert (meta["trials"], meta["k_list"], meta["spec"]["d"], meta["master_seed"]) == (3, [8], 40, 9)
    assert meta["spec"]["l_x"] == 10 and len(rows) == 3


def test_cli_checks_only_the_final_settings(tmp_path):
    from wjl.cli import main

    # --d 5 cannot hold the preset's supports, but the file's 1-sparse pair fits.
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"spec": {"l_x": 1, "l_w": 1, "l_overlap": 1}}')
    args = ["fig1", "--d", "5", "--trials", "3", "--k", "8", "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(args) == 0
    meta, rows = read_csv((tmp_path / "out" / "fig1.csv").read_text())
    assert (meta["spec"]["d"], meta["spec"]["l_x"], len(rows)) == (5, 1, 3)


def test_cli_sketch_eval_runs_its_config_trials(tmp_path):
    from wjl.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"trials": 3}')
    args = ["sketch-eval", "--epsilon", "1.0", "--delta", "0.3", "--config", str(cfg), "--out", str(tmp_path)]
    assert main(args) == 0
    meta, rows = read_csv((tmp_path / "sketch_eval.csv").read_text())
    assert meta["trials"] == 3 and [row["n_seeds"] for row in rows] == ["3", "3"]


def test_cli_reduce_config_file_overrides_flags(tmp_path):
    from wjl.cli import main

    vec = tmp_path / "x.csv"
    vec.write_text("index,value\n1,0.5\n3,2.0\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"spec": {"d": 5}, "master_seed": 9}')
    out = tmp_path / "x.wjlr"
    args = ["reduce", str(vec), "--d", "7", "--seed", "1", "--config", str(cfg), "--k-dim", "8", "--output", str(out)]
    assert main(args) == 0
    expected = reduce_sparse(ProjectionMatrix(k=8, d=5, seed=9), np.array([1, 3]), np.array([0.5, 2.0]))
    assert out.read_bytes() == expected.to_bytes()


@pytest.mark.parametrize("args, config, message", [
    (["gen", "--l-overlap", "-1"], "{}", "overlap must not be negative, got -1"),
    (["fig1"], '{"spec": {"norm_x": NaN}}', "target norm must be positive and finite, got nan"),
    (["fig3"], '{"spec": {"norm_x": Infinity}}', "target norm must be positive and finite, got inf"),
])
def test_cli_rejects_bad_specs_before_writing(tmp_path, capsys, args, config, message):
    from wjl.cli import main

    (tmp_path / "cfg.json").write_text(config)
    assert main([*args, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["sketch", "s.csv", "--output", "s.wjls", "--trials", "7"],
    ["sketch", "s.csv", "--output", "s.wjls", "--epsilon", "9"],
    ["sketch", "s.csv", "--output", "s.wjls", "--scale", "paper"],
    ["sketch", "s.csv", "--output", "s.wjls", "--config", "x.json"],
    ["verify", "--d", "10"],
    ["reduce", "x.csv", "--k-dim", "8", "--output", "x.wjlr", "--threads", "2"],
    ["reduce", "x.csv", "--k-dim", "8", "--output", "x.wjlr", "--out", "o"],
    ["sketch", "s.csv", "--output", "s.wjls", "--out", "o"],
    ["gen", "--trials", "3"],
    ["gen", "--threads", "2"],
    ["fig1", "--epsilon", "0.5"],
    ["fig4", "--delta", "0.5"],
    ["sketch-eval", "--k", "16"],
    ["sketch-eval", "--l-overlap", "1"],
])
def test_cli_rejects_flags_a_command_does_not_read(tmp_path, capsys, args):
    from wjl.cli import main

    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# SHA-256 of the outputs of the commands below; any change to the random
# streams, the CSV or the SVG shows here.  fig1..fig4 were recorded with the
# projection generator of WJLR version 2 (32 row exponents per word);
# sketch_eval.csv does not use the projection.
# fig1, fig3 and fig4 reduce x and w as two rows of one product, which BLAS
# sums in another order than two 1-row products: their estimates moved in the
# last bits (at most 9.4e-15 relative here), so those five files were
# recorded again.  fig1.svg's histogram bins did not move.
# sketch_eval.csv's metadata states the 2-sparse spec that it draws (with
# that draw's seed) instead of the preset's; its rows did not move, so it was
# recorded again.
_RECORDED = {
    "fig1.csv": "94c8432fe67faadfcab1bf848c25f897609ba300c9ec642962ffb8145f58ae75",
    "fig1.svg": "aefc34b3423634373f905807557d477988265a8b17832b2abb0defd71febce0a",
    "fig2.csv": "1aef1a9dc12b857886dc101b0d84e65608f1ad9e90fab3252a8c2d6eabe4ba6c",
    "fig2.svg": "35635607389189113316d9c19ff01dfb380efcc8cf7891c9f91e4a032f40efd6",
    "fig3.csv": "c887f8ee905cdc577749048582d2d8b1ec3f88b919f68562d75e64aab25acd51",
    "fig3.svg": "d04a5b27c1e08cbd54f190c2bb47f5c2f65df28d4e9bc2d83c1328e662e09fa1",
    "fig4.csv": "753fd9859b52e0f3e88faa7e7e14006f732f20a017a0ce3b4c012fb638842ac1",
    "fig4.svg": "01ba6b9b201c3e28107781a60fb80e273bfafda6eed284c6d76d2e319e8b3aa3",
    "sketch_eval.csv": "f4e295db4e89b8c34599a584c3702e95fa9b629347b55fa6e355fa3efaa9a45f",
}


def test_cli_outputs_match_recorded_hashes(tmp_path, capsys):
    import hashlib

    from wjl.cli import main

    for fig in ("fig1", "fig2", "fig3", "fig4"):
        args = [fig, "--d", "200", "--trials", "20", "--k", "16", "--k", "64", "--seed", "5"]
        assert main([*args, "--out", str(tmp_path)]) == 0
    assert main(["sketch-eval", "--epsilon", "1.0", "--delta", "0.3", "--seed", "5", "--out", str(tmp_path)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    assert got == _RECORDED
