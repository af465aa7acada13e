"""End-to-end runs of the command line interface."""

import json

import numpy as np
import pytest

from spharcp.cli import main
from spharcp.io import read_bench_records, read_coefficients, read_metrics, read_result


@pytest.fixture
def tiny_config(tmp_path):
    """Custom two-segment AR(1) scenario small enough for fast CLI runs."""
    cfg = {
        "scenario": "custom",
        "n": 60,
        "L": 2,
        "p": 1,
        "change_points": [30],
        "segments": [
            {"phi": [[-0.8], [-0.6]], "noise_spectrum": [1.0, 0.5]},
            {"phi": [[0.8], [0.6]], "noise_spectrum": [1.0, 0.5]},
        ],
        "seed": 5,
        "burn_in": 200,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return path


def test_simulate_writes_rows_and_truth(tmp_path, tiny_config):
    out = tmp_path / "coeffs.csv"
    assert main(["simulate", "--config", str(tiny_config), "--out", str(out)]) == 0
    series, meta = read_coefficients(out)
    assert series.n == 60 and series.L == 2
    assert meta["scenario"] == "custom"
    truth = json.loads((tmp_path / "coeffs.truth.json").read_text())
    assert truth["change_points"] == [30]


def test_simulate_single_row_per_timestamp_when_L1(tmp_path):
    cfg = {
        "scenario": "custom",
        "n": 5,
        "L": 1,
        "p": 1,
        "segments": [{"phi": [[0.5]], "noise_spectrum": [1.0]}],
        "seed": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "small.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = [
        l for l in out.read_text().splitlines() if l and not l.startswith(("#", "t,"))
    ]
    assert len(rows) == 5


def test_simulate_deterministic_bytes(tmp_path, tiny_config):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    main(["simulate", "--config", str(tiny_config), "--out", str(out_a)])
    main(["simulate", "--config", str(tiny_config), "--out", str(out_b)])
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_table_scenario_row_count(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "table1-balanced", "q": 8, "d": 2, "seed": 0}))
    out = tmp_path / "t1.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [
        l for l in out.read_text().splitlines() if l and not l.startswith(("#", "t,"))
    ]
    assert len(rows) == 200 * 10 * 10


def test_simulate_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "unknown-thing"}))
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2


def test_simulate_custom_config_missing_key_exit_code(tmp_path, tiny_config):
    cfg = json.loads(tiny_config.read_text())
    del cfg["segments"]
    tiny_config.write_text(json.dumps(cfg))
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(tiny_config), "--out", str(out)]) == 2


@pytest.mark.parametrize(
    "flags",
    [["--delta", "1"], ["--lambda", "-1"], ["--L", "99"], ["--p", "6"],
     ["--gamma", "nan"], ["--gamma", "inf"]],
    ids=["delta-1", "lambda-negative", "L-too-large", "p-above-cap", "gamma-nan", "gamma-inf"],
)
def test_detect_bad_setting_exits_2_with_one_error_line(tmp_path, tiny_config, capsys, flags):
    coeffs = tmp_path / "coeffs.csv"
    assert main(["simulate", "--config", str(tiny_config), "--out", str(coeffs)]) == 0
    capsys.readouterr()
    argv = ["detect", "--in", str(coeffs), "--out", str(tmp_path / "r.json"), *flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_simulate_noncausal_custom_config_exits_2(tmp_path, tiny_config, capsys):
    cfg = json.loads(tiny_config.read_text())
    cfg["segments"][1]["phi"] = [[1.5], [0.6]]
    tiny_config.write_text(json.dumps(cfg))
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(tiny_config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: segment is not causal at multipole 0\n"


def test_detect_recovers_change_point(tmp_path, tiny_config):
    coeffs = tmp_path / "coeffs.csv"
    result_path = tmp_path / "result.json"
    main(["simulate", "--config", str(tiny_config), "--out", str(coeffs)])
    code = main(
        [
            "detect",
            "--in", str(coeffs),
            "--out", str(result_path),
            "--p", "1",
            "--gamma", "30",
            "--delta", "5",
        ]
    )
    assert code == 0
    result = read_result(result_path)
    assert len(result["change_points"]) == 1
    assert abs(result["change_points"][0] - 30) <= 3
    assert result["config"]["gamma"] == 30.0
    assert len(result["segments"]) == 2
    assert "jumps" in result["diagnostics"]


def test_detect_huge_gamma_single_segment(tmp_path, tiny_config):
    coeffs = tmp_path / "coeffs.csv"
    result_path = tmp_path / "result.json"
    main(["simulate", "--config", str(tiny_config), "--out", str(coeffs)])
    main(
        ["detect", "--in", str(coeffs), "--out", str(result_path), "--gamma", "1e12"]
    )
    assert read_result(result_path)["change_points"] == []


def test_detect_truncated_input_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,ell,m,value\n1,0,0,0.5\n2,0,0\n")
    assert main(["detect", "--in", str(bad), "--out", str(tmp_path / "r.json")]) == 3


def test_detect_undecodable_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bin.csv"
    bad.write_bytes(b"t,ell,m,value\n1,0,0,0.5\n2,0,0,\xff\n")
    assert main(["detect", "--in", str(bad), "--out", str(tmp_path / "r.json")]) == 3
    assert "line 3" in capsys.readouterr().err


def test_detect_intercept_and_theory_bounds(tmp_path, tiny_config):
    coeffs = tmp_path / "coeffs.csv"
    result_path = tmp_path / "result.json"
    main(["simulate", "--config", str(tiny_config), "--out", str(coeffs)])
    code = main(
        [
            "detect",
            "--in", str(coeffs),
            "--out", str(result_path),
            "--gamma", "30",
            "--intercept",
            "--theory-bounds",
        ]
    )
    assert code == 0
    result = read_result(result_path)
    seg = result["segments"][0]
    assert "intercept" in seg and "mean_surface" in seg
    assert len(seg["intercept"]) == 4
    bounds = result["diagnostics"]["theory_bounds"]
    assert bounds is not None
    assert np.isfinite(bounds["C_L"])


def test_detect_on_simulated_benchmark_scenario(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "table1-balanced", "q": 8, "d": 2, "seed": 4}))
    coeffs = tmp_path / "t1.csv"
    result_path = tmp_path / "result.json"
    main(["simulate", "--config", str(cfg), "--out", str(coeffs)])
    code = main(
        [
            "detect",
            "--in", str(coeffs),
            "--out", str(result_path),
            "--p", "1",
            "--lambda", "0",
            "--gamma", "300",
            "--delta", "5",
        ]
    )
    assert code == 0
    cps = read_result(result_path)["change_points"]
    assert len(cps) == 1
    assert abs(cps[0] - 100) <= 5


def test_eval_exact_match_gives_zero_distance(tmp_path, tiny_config):
    coeffs = tmp_path / "coeffs.csv"
    result_path = tmp_path / "result.json"
    metrics_path = tmp_path / "metrics.json"
    main(["simulate", "--config", str(tiny_config), "--out", str(coeffs)])
    main(["detect", "--in", str(coeffs), "--out", str(result_path), "--gamma", "30"])
    doc = json.loads(result_path.read_text())
    doc["change_points"] = [30]  # force exact agreement with the truth
    result_path.write_text(json.dumps(doc))
    main(
        [
            "eval",
            "--in", str(result_path),
            "--truth", str(tmp_path / "coeffs.truth.json"),
            "--out", str(metrics_path),
        ]
    )
    assert read_metrics(metrics_path)["hausdorff_scaled"] == 0.0


def test_eval_result_equals_truth(tmp_path, tiny_config):
    coeffs = tmp_path / "coeffs.csv"
    result_path = tmp_path / "result.json"
    metrics_path = tmp_path / "metrics.json"
    main(["simulate", "--config", str(tiny_config), "--out", str(coeffs)])
    main(["detect", "--in", str(coeffs), "--out", str(result_path), "--gamma", "30"])
    code = main(
        [
            "eval",
            "--in", str(result_path),
            "--truth", str(tmp_path / "coeffs.truth.json"),
            "--out", str(metrics_path),
        ]
    )
    assert code == 0
    metrics = read_metrics(metrics_path)
    assert metrics["true_change_points"] == [30]
    assert 0.0 <= metrics["hausdorff_scaled"] <= 1.0
    assert len(metrics["assigned"]) == 1


def test_eval_empty_estimate_gets_distance_one(tmp_path, tiny_config):
    coeffs = tmp_path / "coeffs.csv"
    result_path = tmp_path / "result.json"
    metrics_path = tmp_path / "metrics.json"
    main(["simulate", "--config", str(tiny_config), "--out", str(coeffs)])
    main(["detect", "--in", str(coeffs), "--out", str(result_path), "--gamma", "1e12"])
    main(
        [
            "eval",
            "--in", str(result_path),
            "--truth", str(tmp_path / "coeffs.truth.json"),
            "--out", str(metrics_path),
        ]
    )
    assert read_metrics(metrics_path)["hausdorff_scaled"] == 1.0


def test_eval_n_mismatch_exit_code(tmp_path, tiny_config):
    coeffs = tmp_path / "coeffs.csv"
    result_path = tmp_path / "result.json"
    main(["simulate", "--config", str(tiny_config), "--out", str(coeffs)])
    main(["detect", "--in", str(coeffs), "--out", str(result_path), "--gamma", "30"])
    doc = json.loads(result_path.read_text())
    doc["n"] = 999
    result_path.write_text(json.dumps(doc))
    code = main(
        [
            "eval",
            "--in", str(result_path),
            "--truth", str(tmp_path / "coeffs.truth.json"),
            "--out", str(tmp_path / "m.json"),
        ]
    )
    assert code == 2


@pytest.mark.parametrize("which, key", [("result", "change_points"), ("truth", "n")])
def test_eval_missing_key_is_parse_error(tmp_path, tiny_config, which, key):
    coeffs = tmp_path / "coeffs.csv"
    paths = {"result": tmp_path / "result.json", "truth": tmp_path / "coeffs.truth.json"}
    main(["simulate", "--config", str(tiny_config), "--out", str(coeffs)])
    main(["detect", "--in", str(coeffs), "--out", str(paths["result"]), "--gamma", "30"])
    doc = json.loads(paths[which].read_text())
    del doc[key]
    paths[which].write_text(json.dumps(doc))
    code = main(
        [
            "eval",
            "--in", str(paths["result"]),
            "--truth", str(paths["truth"]),
            "--out", str(tmp_path / "m.json"),
        ]
    )
    assert code == 3


@pytest.mark.parametrize("which", ["result", "truth"])
def test_eval_undecodable_document_is_parse_error(tmp_path, tiny_config, which):
    coeffs = tmp_path / "coeffs.csv"
    paths = {"result": tmp_path / "result.json", "truth": tmp_path / "coeffs.truth.json"}
    main(["simulate", "--config", str(tiny_config), "--out", str(coeffs)])
    main(["detect", "--in", str(coeffs), "--out", str(paths["result"]), "--gamma", "30"])
    paths[which].write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe")
    code = main(
        [
            "eval",
            "--in", str(paths["result"]),
            "--truth", str(paths["truth"]),
            "--out", str(tmp_path / "m.json"),
        ]
    )
    assert code == 3


def test_bench_two_replicates(tmp_path):
    out_dir = tmp_path / "bench"
    code = main(
        [
            "bench", "table1-balanced",
            "--out", str(out_dir),
            "--reps", "2",
            "--seed", "7",
            "--gamma", "300",
            "--threads", "1",
        ]
    )
    assert code == 0
    doc = read_bench_records(out_dir / "records.json")
    records = doc["runs"][0]["records"]
    assert len(records) == 2
    assert records[0]["seed"] == 7 and records[1]["seed"] == 8
    agg = (out_dir / "aggregate.csv").read_text().splitlines()
    assert agg[1].startswith("scenario,")
    assert len(agg) == 3


def test_bench_reproducible_across_thread_counts(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["bench", "table1-balanced", "--reps", "2", "--seed", "3", "--gamma", "300"]
    assert main(args + ["--out", str(out_a), "--threads", "1"]) == 0
    assert main(args + ["--out", str(out_b), "--threads", "2"]) == 0
    rec_a = read_bench_records(out_a / "records.json")
    rec_b = read_bench_records(out_b / "records.json")
    for run_a, run_b in zip(rec_a["runs"], rec_b["runs"]):
        for a, b in zip(run_a["records"], run_b["records"]):
            a.pop("runtime_seconds")
            b.pop("runtime_seconds")
            assert a == b


def test_bench_unknown_scenario_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "nonexistent", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_bench_tuning_grid_outputs(tmp_path):
    out_dir = tmp_path / "tuning"
    code = main(
        [
            "bench", "tuning-grid",
            "--out", str(out_dir),
            "--reps", "1",
            "--seed", "11",
            "--sweep-lambda", "0",
            "--sweep-gamma", "200,300",
            "--threads", "1",
        ]
    )
    assert code == 0
    doc = read_bench_records(out_dir / "records.json")
    assert len(doc["runs"]) == 2
    locations = (out_dir / "locations.csv").read_text().splitlines()
    assert locations[1] == "lambda,gamma,replicate,seed,k_hat,eta_hat,rho_hat"
    assert (out_dir / "aggregate.csv").exists()


@pytest.mark.parametrize(
    "sweep",
    [["--sweep-gamma", "200,200"], ["--sweep-lambda", "0,1,0"], ["--sweep-gamma", "nan"]],
    ids=["gamma-repeated", "lambda-repeated", "gamma-nan"],
)
def test_bench_tuning_grid_bad_sweep_exits_2(tmp_path, capsys, sweep):
    out_dir = tmp_path / "tuning"
    argv = ["bench", "tuning-grid", "--out", str(out_dir), "--reps", "1", "--threads", "1"]
    assert main(argv + sweep) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (out_dir / "records.json").exists()
