import json
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest

from geocd import PointCloud, knn_adjacency, merge, normalize_pair, read_cloud, write_cloud
from geocd import geodesic, propagate
from geocd import FitConfig, GeoCdConfig
from geocd.cli import _fit_config, _geo_config, build_parser, main
from geocd.fit import ShapeSpec, sample_shape
from conftest import fault_the_reference


@pytest.fixture(scope="module")
def schema():
    with resources.files("geocd").joinpath("schemas/report.schema.json").open() as fh:
        return json.load(fh)


def validate(obj, schema, definition):
    jsonschema.validate(obj, {**schema, "$ref": f"#/definitions/{definition}"})


@pytest.fixture
def small_pair(tmp_path):
    rng = np.random.default_rng(3)
    a = tmp_path / "a.xyz"
    b = tmp_path / "b.xyz"
    write_cloud(PointCloud(rng.random((24, 3))), a)
    write_cloud(PointCloud(rng.random((20, 3))), b)
    return a, b


def _not_json(constant):
    raise ValueError(f"{constant} is not valid JSON (RFC 8259)")


def strict_json(text):
    """Parse a report as RFC 8259 JSON, which has no NaN or Infinity."""
    return json.loads(text, parse_constant=_not_json)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, strict_json(out)


def test_compute_identical_files(tmp_path, capsys, schema):
    f = tmp_path / "c.xyz"
    write_cloud(sample_shape(ShapeSpec("sphere", 30, seed=1)), f)
    code, report = run_json(capsys, ["compute", str(f), str(f), "--k", "3"])
    assert code == 0
    assert report["cd"] == 0.0
    assert report["hd"] == 0.0
    assert report["f1"]["fraction"] == 1.0
    assert report["f1"]["percent"] == 100.0
    validate(report, schema, "compute_report")


def test_compute_k_too_large_exits_3(small_pair, capsys):
    a, b = small_pair
    assert main(["compute", str(a), str(b), "--k", "5000"]) == 3
    assert "k=5000 exceeds the" in capsys.readouterr().err


SETTING_ERRORS = {
    "--tau": "tau_fraction must be positive and finite",
    "--mask-threshold": "mask threshold must be positive and finite",
}


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--tau", "nan"),
        ("--tau", "inf"),
        ("--mask-threshold", "nan"),
        ("--mask-threshold", "inf"),
    ],
)
def test_compute_non_finite_setting_exits_3(small_pair, capsys, flag, value):
    a, b = small_pair
    assert main(["compute", str(a), str(b), flag, value]) == 3
    err = capsys.readouterr().err
    assert SETTING_ERRORS[flag] in err and f"got {value}" in err


def test_compute_one_point_clouds(tmp_path, capsys):
    # normalized, the only edge spans the box diagonal, which rounds to 1 + 1 ulp
    p, q = tmp_path / "p.xyz", tmp_path / "q.xyz"
    p.write_text("0.1 0.2 0.3\n")
    q.write_text("1.7 2.9 3.3\n")
    code, report = run_json(capsys, ["compute", str(p), str(q), "--k", "1", "--f1-diag", "union"])
    assert code == 0
    assert report["geocd"]["diagnostics"]["mean_cross_distance"] == 1.0  # stored as the sentinel
    # a one-point target has no F1 threshold of its own: an input error,
    # whose message names the way out
    assert main(["compute", str(p), str(q), "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert "F1 threshold undefined" in err and "pass --f1-diag union" in err


def test_compute_parse_error_exits_2(tmp_path, small_pair):
    bad = tmp_path / "bad.xyz"
    bad.write_text("1 2\n")
    a, _ = small_pair
    assert main(["compute", str(bad), str(a)]) == 2


def test_compute_missing_file_exits_2(small_pair):
    a, _ = small_pair
    assert main(["compute", str(a), "/nonexistent/path.xyz"]) == 2


def test_compute_hops_flag_changes_geodesics(tmp_path, capsys):
    # chain with unit bounding-box diagonal, so joint normalization keeps the
    # geometry: the end points reach the middle ones only through 2-hop walks
    p = tmp_path / "p.xyz"
    g = tmp_path / "g.xyz"
    write_cloud(PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])), p)
    write_cloud(PointCloud(np.array([[0.35, 0.0, 0.0], [0.65, 0.0, 0.0]])), g)
    _, one = run_json(capsys, ["compute", str(p), str(g), "--k", "1", "--hops", "1"])
    _, two = run_json(capsys, ["compute", str(p), str(g), "--k", "1", "--hops", "2"])
    assert one["geocd"]["value"] != two["geocd"]["value"]
    assert (
        two["geocd"]["diagnostics"]["mean_cross_distance"]
        < one["geocd"]["diagnostics"]["mean_cross_distance"]
    )


def test_compute_no_normalize_preserves_l_shape(tmp_path, capsys):
    # the raw fixture already keeps pairwise distances below 1; skipping
    # normalization keeps the 0.7 two-hop walk below the sentinel
    p = tmp_path / "p.xyz"
    g = tmp_path / "g.xyz"
    write_cloud(PointCloud(np.array([[0.0, 0.0, 0.0]])), p)
    write_cloud(PointCloud(np.array([[0.4, 0.0, 0.0], [0.4, 0.3, 0.0]])), g)
    base = ["compute", str(p), str(g), "--k", "1", "--no-normalize"]
    _, one = run_json(capsys, base + ["--hops", "1"])
    _, two = run_json(capsys, base + ["--hops", "2"])
    assert one["geocd"]["value"] != two["geocd"]["value"]
    assert (
        two["geocd"]["diagnostics"]["mean_cross_distance"]
        < one["geocd"]["diagnostics"]["mean_cross_distance"]
    )
    assert "normalization" not in two


def test_compute_no_normalize_rejects_raw_coordinates(tmp_path, capsys):
    # raw coordinates span 50 units, so kNN edges exceed the sentinel 1
    rng = np.random.default_rng(4)
    p = tmp_path / "p.xyz"
    g = tmp_path / "g.xyz"
    write_cloud(PointCloud(rng.random((24, 3)) * 50.0), p)
    write_cloud(PointCloud(rng.random((20, 3)) * 50.0), g)
    assert main(["compute", str(p), str(g), "--k", "3", "--no-normalize"]) == 3
    assert "sentinel" in capsys.readouterr().err
    assert main(["compute", str(p), str(g), "--k", "3"]) == 0


def test_compute_json_stage_timings(small_pair, tmp_path, schema):
    a, b = small_pair
    out = tmp_path / "report.json"
    assert main(["compute", str(a), str(b), "--k", "3", "--json", str(out)]) == 0
    report = strict_json(out.read_text(encoding="utf-8"))
    validate(report, schema, "compute_report")
    timings = report["manifest"]["timings"]
    assert set(timings) == {"graph", "propagation", "loss", "gradient", "total"}
    assert timings["gradient"] == 0.0  # compute takes no gradient


def test_compute_reports_the_resolved_mask_threshold(small_pair, capsys, schema):
    a, b = small_pair
    pred, gt, _ = normalize_pair(read_cloud(a), read_cloud(b))
    mean_edge = float(knn_adjacency(merge(pred, gt), 3).length.mean())
    for flags, want in (
        (["--no-mask"], None),
        (["--mask"], 2.0 * mean_edge),
        (["--mask-threshold", "0.25"], 0.25),
    ):
        code, report = run_json(capsys, ["compute", str(a), str(b), "--k", "3", *flags])
        assert code == 0
        validate(report, schema, "compute_report")
        assert report["geocd"]["diagnostics"]["mask_threshold"] == want


def test_zero_mean_edge_length_resolves_a_zero_mask_threshold(tmp_path, capsys, schema):
    # with k=1 every point's only neighbour is its copy in the other cloud, so
    # every edge has length 0 and the default threshold resolves to 0.0
    f = tmp_path / "a.xyz"
    write_cloud(sample_shape(ShapeSpec("sphere", 30, seed=1)), f)
    code, report = run_json(capsys, ["compute", str(f), str(f), "--mask", "--k", "1"])
    assert code == 0
    validate(report, schema, "compute_report")
    diagnostics = report["geocd"]["diagnostics"]
    assert diagnostics["mask_threshold"] == 0.0
    assert diagnostics["masked_fraction"] == 1.0
    out = tmp_path / "run"
    argv = [
        "fit", "--target-file", str(f), "--init-file", str(f), "--k", "1",
        "--steps-cd", "2", "--steps-geocd", "2", "--out-dir", str(out), "--quiet",
    ]
    assert main(argv) == 0
    assert len((out / "trace.csv").read_text().splitlines()) == 1 + 2 + 2
    validate(strict_json((out / "manifest.json").read_text()), schema, "fit_manifest")
    # a threshold the caller gives must still be positive
    assert main(["compute", str(f), str(f), "--k", "1", "--mask-threshold", "0"]) == 3
    assert "mask threshold must be positive and finite, got 0.0" in capsys.readouterr().err


def test_compute_reports_per_hop_counts(small_pair, capsys, schema):
    a, b = small_pair
    pred, gt, _ = normalize_pair(read_cloud(a), read_cloud(b))
    z = merge(pred, gt)
    geo = propagate(z, knn_adjacency(z, 3), n_hops=4)
    code, report = run_json(capsys, ["compute", str(a), str(b), "--k", "3", "--hops", "4"])
    assert code == 0
    validate(report, schema, "compute_report")
    diagnostics = report["geocd"]["diagnostics"]
    assert diagnostics["hop_entries"] == [hop.key.size for hop in geo.hops]
    assert diagnostics["improved_per_hop"] == geo.improved_per_hop


def test_compute_beyond_the_merged_size_limit_exits_3(small_pair, capsys, monkeypatch):
    a, b = small_pair
    monkeypatch.setattr(geodesic, "MAX_POINTS", 40)  # the pair merges 44 points
    assert main(["compute", str(a), str(b), "--k", "3", "--hops", "2"]) == 3
    assert "at most 40 merged points, got 44" in capsys.readouterr().err
    # one hop packs no sort words, so it is not limited
    assert main(["compute", str(a), str(b), "--k", "3", "--hops", "1"]) == 0


def test_compute_deterministic_json(small_pair, capsys):
    a, b = small_pair
    argv = ["compute", str(a), str(b), "--k", "3", "--deterministic"]
    _, first = run_json(capsys, argv)
    _, second = run_json(capsys, argv)
    first["manifest"].pop("timings")
    second["manifest"].pop("timings")
    assert first == second


def test_fit_no_steps_trace_is_header_only(tmp_path):
    out = tmp_path / "noop"
    code = main(
        [
            "fit", "--target", "sphere", "--n-points", "16", "--k", "3",
            "--steps-cd", "0", "--steps-geocd", "0",
            "--out-dir", str(out), "--quiet",
        ]
    )
    assert code == 0
    assert (out / "trace.csv").read_text() == "phase,step,loss,cd,hd,f1\n"
    init = read_cloud(out / "initial_pred.xyz")
    final = read_cloud(out / "final_pred.xyz")
    assert np.array_equal(init.points, final.points)


def test_fit_writes_artifacts(tmp_path, schema):
    out = tmp_path / "run"
    code = main(
        [
            "fit",
            "--target", "sphere",
            "--n-points", "32",
            "--steps-cd", "6",
            "--steps-geocd", "2",
            "--k", "3",
            "--seed", "7",
            "--out-dir", str(out),
            "--quiet",
        ]
    )
    assert code == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "phase,step,loss,cd,hd,f1"
    assert len(trace) == 1 + 6 + 2
    for name in ("initial_pred.xyz", "final_pred.xyz", "target.xyz"):
        assert read_cloud(out / name).size == 32
    manifest = strict_json((out / "manifest.json").read_text())
    validate(manifest, schema, "fit_manifest")
    assert manifest["manifest"]["seed"] == 7


@pytest.mark.parametrize(
    "steps_cd, steps_geocd, keys",
    [
        ("4", "2", {"cd_step_s", "geocd_step_s"}),
        ("3", "0", {"cd_step_s"}),
        ("0", "2", {"geocd_step_s"}),
        ("0", "0", set()),
    ],
)
def test_fit_manifest_step_seconds(tmp_path, schema, steps_cd, steps_geocd, keys):
    out = tmp_path / "run"
    argv = [
        "fit", "--target", "sphere", "--n-points", "24", "--k", "3",
        "--steps-cd", steps_cd, "--steps-geocd", steps_geocd,
        "--out-dir", str(out), "--quiet",
    ]
    assert main(argv) == 0
    manifest = strict_json((out / "manifest.json").read_text())
    validate(manifest, schema, "fit_manifest")
    timings = manifest["manifest"]["timings"]
    assert set(timings) == {"total"} | keys
    assert all(0.0 < timings[key] < timings["total"] for key in keys)


def test_fit_abort_raises_no_overflow_warning(tmp_path):
    out = tmp_path / "run"
    argv = [
        "fit", "--lr", "1e200", "--steps-cd", "3", "--steps-geocd", "0",
        "--n-points", "16", "--k", "3", "--out-dir", str(out), "--quiet",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 0
    assert strict_json((out / "manifest.json").read_text())["aborted"] == "cd"


@pytest.mark.parametrize("lr", ["nan", "-1"])
def test_fit_bad_lr_exits_3(tmp_path, capsys, lr):
    out = tmp_path / "run"
    argv = ["fit", "--n-points", "16", "--k", "3", "--lr", lr, "--out-dir", str(out), "--quiet"]
    assert main(argv) == 3
    assert f"lr must be positive and finite, got {lr}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("noise", ["-0.05", "nan", "inf"])
def test_fit_bad_noise_exits_3(tmp_path, capsys, noise):
    out = tmp_path / "run"
    argv = ["fit", "--n-points", "16", "--noise", noise, "--out-dir", str(out), "--quiet"]
    assert main(argv) == 3
    assert f"noise sigma must be >= 0 and finite, got {noise}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--steps-cd", "--steps-geocd"])
def test_fit_negative_steps_exits_3(tmp_path, capsys, flag):
    out = tmp_path / "run"
    argv = ["fit", "--n-points", "16", "--k", "3", flag, "-2", "--out-dir", str(out), "--quiet"]
    assert main(argv) == 3
    name = flag[2:].replace("-", "_")
    assert f"{name} must be >= 0, got -2" in capsys.readouterr().err
    assert not out.exists()


def test_fit_deterministic_traces(tmp_path):
    argv = [
        "fit",
        "--target", "torus",
        "--n-points", "24",
        "--steps-cd", "5",
        "--steps-geocd", "2",
        "--k", "3",
        "--seed", "11",
        "--deterministic",
        "--quiet",
        "--out-dir",
    ]
    assert main(argv + [str(tmp_path / "r1")]) == 0
    assert main(argv + [str(tmp_path / "r2")]) == 0
    t1 = (tmp_path / "r1" / "trace.csv").read_bytes()
    t2 = (tmp_path / "r2" / "trace.csv").read_bytes()
    assert t1 == t2


def test_verify_default_passes(capsys, schema):
    code, report = run_json(capsys, ["verify", "--trials", "3", "--grad-trials", "1"])
    assert code == 0
    assert report["passed"] is True
    validate(report, schema, "verify_report")


def test_verify_zero_trials(capsys, schema):
    code, report = run_json(capsys, ["verify", "--trials", "0", "--grad-trials", "0"])
    assert code == 0
    assert report["oracle"]["mismatch_count"] == 0
    validate(report, schema, "verify_report")
    _, full = run_json(capsys, ["verify", "--trials", "3"])
    for block in ("oracle", "propagation", "gradients"):
        assert list(report[block]) == list(full[block])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--trials", "-1"], "trials must be >= 0, got -1"),
        (["--grad-trials", "-3"], "grad_trials must be >= 0, got -3"),
        (["--min-points", "5", "--max-points", "3"], "1 <= min_points <= max_points, got (5, 3)"),
        (["--min-points", "0", "--max-points", "3"], "1 <= min_points <= max_points, got (0, 3)"),
    ],
)
def test_verify_rejects_bad_counts(capsys, argv, message):
    assert main(["verify", *argv]) == 3
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("points", ["1", "2"])
def test_verify_tiny_clouds_pass(capsys, schema, points):
    # k is drawn from (2, 3, 5) and capped at the merged size minus one;
    # 1+1 pairs also reach normalized corner edges that round above 1
    argv = ["verify", "--trials", "20", "--grad-trials", "0"]
    code, report = run_json(capsys, argv + ["--min-points", points, "--max-points", points])
    assert code == 0
    assert report["passed"] is True
    validate(report, schema, "verify_report")


def test_verify_injected_fault_fails(capsys, monkeypatch):
    fault_the_reference(monkeypatch)
    code, report = run_json(capsys, ["verify", "--trials", "2", "--grad-trials", "0"])
    assert code == 1
    assert report["passed"] is False
    assert report["propagation"]["mismatch_count"] > 0
    assert report["propagation"]["worst_offenders"]


def test_sweep_rows_and_failure_isolation(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--axis", "k",
            "--values", "3,5000,5",
            "--target", "sphere",
            "--n-points", "24",
            "--steps-cd", "4",
            "--steps-geocd", "1",
            "--seed", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0].startswith("axis,value,")
    assert len(rows) == 4
    ok_rows = [r for r in rows[1:] if r.endswith(",")]
    bad_rows = [r for r in rows[1:] if "KTooLarge" in r]
    assert len(ok_rows) == 2 and len(bad_rows) == 1


def test_sweep_negative_steps_records_the_error(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--axis", "steps-geocd", "--values=-3,1", "--target", "sphere"]
    argv += ["--n-points", "24", "--steps-cd", "2", "--k", "3", "--out", str(out)]
    assert main(argv) == 0
    bad, good = out.read_text().splitlines()[1:]
    assert bad.startswith("steps-geocd,-3,,,,,,")
    assert bad.endswith("ValueError: steps_geocd must be >= 0, got -3")
    assert good.startswith("steps-geocd,1,") and good.endswith(",")


def test_infinite_mask_threshold_fails_fit_and_sweep_rows(tmp_path, capsys):
    common = ["--target", "sphere", "--n-points", "24", "--steps-cd", "2", "--k", "3"]
    out = tmp_path / "run"
    assert main(["fit", *common, "--mask-threshold", "inf", "--out-dir", str(out)]) == 3
    assert "mask threshold must be positive and finite, got inf" in capsys.readouterr().err
    assert not out.exists()
    csv = tmp_path / "sweep.csv"
    argv = ["sweep", "--axis", "mask-threshold", "--values", "inf,0.05", *common, "--out", str(csv)]
    assert main(argv) == 0
    bad, good = csv.read_text().splitlines()[1:]
    assert bad.endswith("ValueError: mask threshold must be positive and finite, got inf")
    assert good.startswith("mask-threshold,0.05,") and good.endswith(",")


def test_sweep_single_value_matches_fit(tmp_path):
    common = [
        "--target", "sphere",
        "--n-points", "24",
        "--steps-cd", "4",
        "--steps-geocd", "1",
        "--k", "4",
        "--seed", "2",
    ]
    axes = (("k", "3"), ("hops", "3"), ("mask-threshold", "0.05"), ("steps-geocd", "2"))
    for axis, value in axes:
        out_dir = tmp_path / axis
        argv = ["fit", *common, f"--{axis}", value, "--out-dir", str(out_dir), "--quiet"]
        assert main(argv) == 0
        final = strict_json((out_dir / "manifest.json").read_text())["final"]
        sweep_csv = tmp_path / f"{axis}.csv"
        argv = ["sweep", "--axis", axis, "--values", value, *common, "--out", str(sweep_csv)]
        assert main(argv) == 0
        row = sweep_csv.read_text().splitlines()[1].split(",")
        assert row[-1] == ""  # no error
        assert [float(v) for v in row[2:6]] == [final[f] for f in ("cd", "hd", "f1", "geocd_loss")]


def test_flag_defaults_come_from_the_configs():
    parser = build_parser()
    assert _geo_config(parser.parse_args(["compute", "p.xyz", "q.xyz"])) == GeoCdConfig()
    for argv in (["fit", "--out-dir", "o"], ["sweep", "--axis", "k", "--values", "3"]):
        assert _fit_config(parser.parse_args(argv)) == FitConfig()


def test_convert_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    cloud = PointCloud(rng.random((12, 3)).astype(np.float32).astype(np.float64))
    src = tmp_path / "c.xyz"
    write_cloud(cloud, src)
    binary = tmp_path / "c.bin"
    back = tmp_path / "back.xyz"
    assert main(["convert", str(src), str(binary), "--to", "bin"]) == 0
    assert main(["convert", str(binary), str(back), "--to", "xyz"]) == 0
    a = read_cloud(src).points
    b = read_cloud(back).points
    assert np.abs(a - b).max() < 1e-7  # one f32 quantization step


def test_convert_beyond_float32_exits_3(tmp_path, capsys):
    src = tmp_path / "big.xyz"
    src.write_text("1e40 0 0\n0 1 0\n", encoding="utf-8")
    out = tmp_path / "big.bin"
    assert main(["convert", str(src), str(out), "--to", "bin"]) == 3
    assert "float32's largest finite value 3.40282347e+38" in capsys.readouterr().err
    assert not out.exists()
