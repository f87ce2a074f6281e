import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from geocd import PointCloud, read_cloud, write_cloud
from geocd.cli import main
from geocd.fit import ShapeSpec, sample_shape


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


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


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
    assert "KTooLarge" in capsys.readouterr().err or True  # message on stderr


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
    report = json.loads(out.read_text(encoding="utf-8"))
    validate(report, schema, "compute_report")
    timings = report["manifest"]["timings"]
    assert set(timings) == {"graph", "propagation", "loss", "gradient", "total"}
    assert timings["gradient"] == 0.0  # compute takes no gradient


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
    manifest = json.loads((out / "manifest.json").read_text())
    validate(manifest, schema, "fit_manifest")
    assert manifest["manifest"]["seed"] == 7


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


def test_verify_zero_trials(capsys):
    code, report = run_json(capsys, ["verify", "--trials", "0", "--grad-trials", "0"])
    assert code == 0
    assert report["oracle"]["mismatch_count"] == 0


def test_verify_injected_fault_fails(capsys):
    code, report = run_json(
        capsys, ["verify", "--trials", "2", "--grad-trials", "0", "--inject-fault"]
    )
    assert code == 1
    assert report["passed"] is False
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


def test_sweep_single_value_matches_fit(tmp_path):
    common = [
        "--target", "sphere",
        "--n-points", "24",
        "--steps-cd", "4",
        "--steps-geocd", "1",
        "--k", "3",
        "--seed", "2",
    ]
    out_dir = tmp_path / "fit"
    assert main(["fit", *common, "--out-dir", str(out_dir), "--quiet"]) == 0
    final = json.loads((out_dir / "manifest.json").read_text())["final"]
    sweep_csv = tmp_path / "s.csv"
    assert main(["sweep", "--axis", "k", "--values", "3", *common, "--out", str(sweep_csv)]) == 0
    row = sweep_csv.read_text().splitlines()[1].split(",")
    assert float(row[2]) == final["cd"]
    assert float(row[3]) == final["hd"]
    assert float(row[4]) == final["f1"]


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
