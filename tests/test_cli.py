"""End-to-end runs of the command line interface."""

import json
import os

import numpy as np
import pytest

from spharcp.cli import main
from spharcp.io import load_json, read_coefficients, read_result, write_coefficients
from spharcp.types import CoefficientSeries

from conftest import fifo_fed


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


def test_simulate_undecodable_config_exits_2_at_its_line(tmp_path, tiny_config, capsys):
    lines = tiny_config.read_bytes().replace(b", ", b",\n").split(b"\n")
    lines[1] += b"\xff"
    tiny_config.write_bytes(b"\n".join(lines))
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(tiny_config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: ")
    assert not out.exists() and not (tmp_path / "x.truth.json").exists()


@pytest.mark.parametrize(
    "content, shown",
    [
        (None, "cannot read {cfg}: "),
        ('{"scenario": ', "{cfg}: invalid JSON: "),
        ('["table1-balanced"]', "{cfg}: expected an object with a 'scenario' key"),
    ],
    ids=["missing", "invalid-json", "json-list"],
)
def test_simulate_unloadable_config_exits_2_and_writes_nothing(tmp_path, capsys, content, shown):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + shown.format(cfg=cfg)) and err.count("\n") == 1
    assert not out.exists() and not (tmp_path / "x.truth.json").exists()


def test_simulate_custom_config_missing_key_exit_code(tmp_path, tiny_config):
    cfg = json.loads(tiny_config.read_text())
    del cfg["segments"]
    tiny_config.write_text(json.dumps(cfg))
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(tiny_config), "--out", str(out)]) == 2


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n", 60.9, "n must be an integer, got 60.9"),
        ("L", 2.0, "L must be an integer, got 2.0"),
        ("p", "1", "p must be an integer, got '1'"),
        ("seed", 5.5, "seed must be an integer, got 5.5"),
        ("burn_in", True, "burn_in must be an integer, got True"),
        ("q", 8.5, "q must be an integer, got 8.5"),
        ("change_points", [30.7], "change points must be integers, got 30.7"),
        ("change_points", "30", "change points must be a list, got '30'"),
        ("change_points", 30, "change points must be a list, got 30"),
        ("change_points", None, "change points must be a list, got None"),
        ("d", None, "d must be a number below 8, got None"),
        ("d", True, "d must be a number below 8, got True"),
        ("d", "2", "d must be a number below 8, got '2'"),
        ("d", [1], "d must be a number below 8, got [1]"),
        ("d", float("nan"), "d must be a number below 8, got nan"),
        ("d", 9, "d must be a number below 8, got 9"),
    ],
    ids=["n", "L", "p", "seed", "burn_in", "q", "change_points", "change_points-string",
         "change_points-integer", "change_points-null", "d-null", "d-true", "d-string", "d-list",
         "d-nan", "d-9"],
)
def test_simulate_non_integer_field_exits_2_and_writes_nothing(
    tmp_path, tiny_config, capsys, field, value, message
):
    # no field is coerced: a float, a string, a bool or null exits 2 by name;
    # q and d shape a named scenario only, so a custom config does not read them
    named = field in ("q", "d")
    cfg = {"scenario": "table1-balanced"} if named else json.loads(tiny_config.read_text())
    cfg[field] = value
    tiny_config.write_text(json.dumps(cfg))
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(tiny_config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not (tmp_path / "x.truth.json").exists()


@pytest.mark.parametrize("field", ["phi", "noise_spectrum", "intercept"])
@pytest.mark.parametrize(
    "entry, shown",
    [("0.5", "'0.5'"), (True, "True"), (None, "None"), ({"a": 0.5}, "{'a': 0.5}")],
    ids=["string", "bool", "null", "object"],
)
def test_simulate_real_entry_that_is_not_a_number_exits_2_and_writes_nothing(
    tmp_path, tiny_config, capsys, field, entry, shown
):
    # a string or a bool in a real array was read as a number, and both files written
    cfg = json.loads(tiny_config.read_text())
    segment = cfg["segments"][0]
    segment["intercept"] = [0.0, 0.0, 0.0, 0.0]
    row = segment["phi"][0] if field == "phi" else segment[field]
    row[0] = entry
    tiny_config.write_text(json.dumps(cfg))
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(tiny_config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {field} entries must be numbers, got {shown}\n"
    assert not out.exists() and not (tmp_path / "x.truth.json").exists()


@pytest.mark.parametrize(
    "segments, shown",
    [
        ({"phi": [[0.5]]}, "segments must be a list of objects, got {'phi': [[0.5]]}"),
        ([1, 2], "segments entries must be objects with phi and noise_spectrum, got 1"),
        (["a"], "segments entries must be objects with phi and noise_spectrum, got 'a'"),
        (
            [{"noise_spectrum": [1.0, 0.5]}],
            "segments entries must be objects with phi and noise_spectrum, "
            "got {'noise_spectrum': [1.0, 0.5]}",
        ),
    ],
    ids=["object", "integers", "strings", "no-phi"],
)
def test_simulate_malformed_segments_exit_2_and_write_nothing(
    tmp_path, tiny_config, capsys, segments, shown
):
    # an object or a list of integers used to exit with a bare Python message
    # ("string indices must be integers", "'int' object is not subscriptable")
    cfg = json.loads(tiny_config.read_text())
    cfg["segments"] = segments
    tiny_config.write_text(json.dumps(cfg))
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(tiny_config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {shown}\n"
    assert not out.exists() and not (tmp_path / "x.truth.json").exists()


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


def _lambda_that_is_not_a_number_exits_2(capsys, argv) -> None:
    # argparse rejects the value before any file is read, and shows why
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--lambda", "0,x"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --lambda: bad --lambda value '0,x': "
        "could not convert string to float: 'x'\n"
    )


def test_detect_lambda_that_is_not_a_number_exits_2(tmp_path, capsys):
    out = tmp_path / "r.json"
    _lambda_that_is_not_a_number_exits_2(
        capsys, ["detect", "--in", str(tmp_path / "c.csv"), "--out", str(out)]
    )
    assert not out.exists()


def test_bench_lambda_that_is_not_a_number_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    _lambda_that_is_not_a_number_exits_2(capsys, ["bench", "epidemic", "--out", str(out_dir)])
    assert not out_dir.exists()


def test_detect_intercept_with_delta_below_p_plus_2_exits_2_before_reading(tmp_path, capsys):
    # a detected segment delta = p + 1 long has no intercept fit; say so
    # before the input is read and the DP is run
    result_path = tmp_path / "r.json"
    argv = ["detect", "--in", str(tmp_path / "missing.csv"), "--out", str(result_path)]
    assert main([*argv, "--delta", "2", "--intercept"]) == 2
    assert capsys.readouterr().err == "error: --intercept needs --delta >= p + 2 = 3, got 2\n"
    assert not result_path.exists()


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


@pytest.mark.parametrize("row", ["1000000000000000,0,0,1.0", "1,1000000000,0,1.0"],
                         ids=["huge-t", "huge-ell"])
def test_detect_huge_index_exits_3_without_a_result(tmp_path, capsys, row):
    bad = tmp_path / "huge.csv"
    bad.write_text(f"t,ell,m,value\n{row}\n")
    result_path = tmp_path / "r.json"
    assert main(["detect", "--in", str(bad), "--out", str(result_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "incomplete coefficient grid" in err
    assert not result_path.exists()


def test_detect_undecodable_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bin.csv"
    bad.write_bytes(b"t,ell,m,value\n1,0,0,0.5\n2,0,0,\xff\n")
    assert main(["detect", "--in", str(bad), "--out", str(tmp_path / "r.json")]) == 3
    assert "line 3" in capsys.readouterr().err


def test_detect_bad_config_comment_exits_3(tmp_path, capsys):
    bad = tmp_path / "comment.csv"
    bad.write_text("# spharcp-config {\nt,ell,m,value\n1,0,0,0.5\n")
    result_path = tmp_path / "r.json"
    assert main(["detect", "--in", str(bad), "--out", str(result_path)]) == 3
    assert capsys.readouterr().err.startswith("error: line 1: bad config comment: ")
    assert not result_path.exists()


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


def _ar1_path(n: int, phi: float) -> np.ndarray:
    """x_1 = 1, then x_t = phi x_{t-1} plus a standard normal draw."""
    rng = np.random.default_rng(0)
    x = np.empty(n)
    x[0] = 1.0
    for t in range(1, n):
        x[t] = phi * x[t - 1] + rng.standard_normal()
    return x


@pytest.mark.parametrize(
    "data, flags, note",
    [
        # 0.5**t is an exact AR(1): its residual variance is 0
        (0.5 ** np.arange(1, 41), [], "noise spectrum entries must be finite and > 0"),
        (_ar1_path(40, 1.3), ["--gamma", "1e30"], "segment is not causal at multipole 0"),
    ],
    ids=["vanished-variance", "non-causal"],
)
def test_detect_theory_bounds_without_a_valid_segment_model_are_null_with_a_note(
    tmp_path, data, flags, note
):
    coeffs = tmp_path / "c.csv"
    write_coefficients(coeffs, CoefficientSeries(n=40, L=1, data=data[:, None]))
    result_path = tmp_path / "r.json"
    argv = ["detect", "--in", str(coeffs), "--out", str(result_path), "--theory-bounds", *flags]
    assert main(argv) == 0
    diagnostics = read_result(result_path)["diagnostics"]
    assert diagnostics["theory_bounds"] is None
    assert diagnostics["theory_bounds_note"] == note


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


def test_detect_series_no_longer_than_p_exits_2(tmp_path, capsys):
    coeffs = tmp_path / "short.csv"
    result_path = tmp_path / "result.json"
    # n = p, and n < p, whose lags reach before the series
    for n, p in ((2, 2), (4, 5)):
        write_coefficients(coeffs, CoefficientSeries(n=n, L=1, data=np.ones((n, 1))))
        args = ["--p", str(p), "--delta", str(p + 1)]
        assert main(["detect", "--in", str(coeffs), "--out", str(result_path), *args]) == 2
        assert f"too short to fit AR({p})" in capsys.readouterr().err
        assert not result_path.exists()


def test_detect_overflowing_series_exits_4_without_a_result(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "table1-balanced", "q": 8, "d": 2, "seed": 4}))
    coeffs = tmp_path / "t1.csv"
    main(["simulate", "--config", str(cfg), "--out", str(coeffs)])
    series, _ = read_coefficients(coeffs)
    huge = CoefficientSeries(n=series.n, L=series.L, data=series.data * 1e160)
    write_coefficients(coeffs, huge)
    result_path = tmp_path / "result.json"
    code = main(["detect", "--in", str(coeffs), "--out", str(result_path), "--gamma", "300"])
    assert code == 4
    assert "overflow at multipole 0" in capsys.readouterr().err
    assert not result_path.exists()


def test_detect_non_finite_final_fit_exits_4_without_a_result(tmp_path, capsys):
    # the Gram of [1, 11] underflows beside the spike at t = 11, so its
    # coefficient would be inf: no result with Infinity in phi or the jumps
    data = np.full((30, 1), 1e-160)
    data[10] = 1e150
    coeffs = tmp_path / "spike.csv"
    write_coefficients(coeffs, CoefficientSeries(n=30, L=1, data=data))
    result_path = tmp_path / "spike.result.json"
    args = ["--gamma", "1", "--delta", "3"]
    code = main(["detect", "--in", str(coeffs), "--out", str(result_path), *args])
    assert code == 4
    assert "fit of [1, 11] is not finite at multipole 0" in capsys.readouterr().err
    assert not result_path.exists()


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
    assert load_json(metrics_path)["hausdorff_scaled"] == 0.0


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
    metrics = load_json(metrics_path)
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
    assert load_json(metrics_path)["hausdorff_scaled"] == 1.0


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


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_eval_undecodable_result_through_a_fifo_exits_3_at_its_line(
    tmp_path, tiny_config, capsys
):
    coeffs = tmp_path / "coeffs.csv"
    result_path = tmp_path / "result.json"
    main(["simulate", "--config", str(tiny_config), "--out", str(coeffs)])
    main(["detect", "--in", str(coeffs), "--out", str(result_path), "--gamma", "30"])
    lines = result_path.read_bytes().split(b"\n")
    lines[2] += b"\xff"
    capsys.readouterr()
    with fifo_fed(tmp_path / "result.fifo", b"\n".join(lines)) as fifo:
        code = main(
            ["eval", "--in", str(fifo), "--truth", str(tmp_path / "coeffs.truth.json"),
             "--out", str(tmp_path / "m.json")]
        )
    assert code == 3
    assert capsys.readouterr().err.startswith("error: line 3: ")
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize(
    "content, shown",
    [(None, "cannot read {path}: "), ("{", "{path}: invalid JSON: ")],
    ids=["missing", "invalid-json"],
)
def test_eval_unloadable_result_exits_3_without_metrics(
    tmp_path, tiny_config, capsys, content, shown
):
    coeffs = tmp_path / "coeffs.csv"
    assert main(["simulate", "--config", str(tiny_config), "--out", str(coeffs)]) == 0
    result_path = tmp_path / "result.json"
    if content is not None:
        result_path.write_text(content)
    capsys.readouterr()
    metrics = tmp_path / "m.json"
    argv = ["eval", "--in", str(result_path), "--truth", str(tmp_path / "coeffs.truth.json"),
            "--out", str(metrics)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: " + shown.format(path=result_path)) and err.count("\n") == 1
    assert not metrics.exists()


@pytest.mark.parametrize("which", ["result", "truth"])
@pytest.mark.parametrize(
    "cps, message",
    [
        ([30, 5000], "outside open interval (1, n=60)"),
        ([40, 30], "strictly increasing"),
        ([30, 30], "strictly increasing"),
        ([30.5], "change points must be integers, got 30.5"),
        (None, "change points must be a list, got None"),
        ("30", "change points must be a list, got '30'"),
        (30, "change points must be a list, got 30"),
        ({"a": 1}, "change points must be a list, got {'a': 1}"),
    ],
    ids=["out-of-range", "unsorted", "duplicated", "non-integer", "null", "string", "integer",
         "object"],
)
def test_eval_bad_change_points_are_parse_errors(tmp_path, tiny_config, capsys, which, cps, message):
    coeffs = tmp_path / "coeffs.csv"
    paths = {"result": tmp_path / "result.json", "truth": tmp_path / "coeffs.truth.json"}
    main(["simulate", "--config", str(tiny_config), "--out", str(coeffs)])
    main(["detect", "--in", str(coeffs), "--out", str(paths["result"]), "--gamma", "30"])
    doc = json.loads(paths[which].read_text())
    doc["change_points"] = cps
    paths[which].write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(
        [
            "eval",
            "--in", str(paths["result"]),
            "--truth", str(paths["truth"]),
            "--out", str(tmp_path / "m.json"),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert f"{paths[which]}: " in err and "change_points" in err and message in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("which", ["result", "truth"])
@pytest.mark.parametrize(
    "n, message",
    [(60.5, "n must be an integer, got 60.5"), ("60", "n must be an integer, got '60'"),
     (0, "n must be >= 1")],
    ids=["float", "string", "zero"],
)
def test_eval_bad_n_is_a_parse_error(tmp_path, tiny_config, capsys, which, n, message):
    coeffs = tmp_path / "coeffs.csv"
    paths = {"result": tmp_path / "result.json", "truth": tmp_path / "coeffs.truth.json"}
    main(["simulate", "--config", str(tiny_config), "--out", str(coeffs)])
    main(["detect", "--in", str(coeffs), "--out", str(paths["result"]), "--gamma", "30"])
    doc = json.loads(paths[which].read_text())
    doc["n"] = n
    paths[which].write_text(json.dumps(doc))
    capsys.readouterr()
    argv = ["eval", "--in", str(paths["result"]), "--truth", str(paths["truth"]),
            "--out", str(tmp_path / "m.json")]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {paths[which]}: {message}\n"
    assert not (tmp_path / "m.json").exists()


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
    doc = load_json(out_dir / "records.json")
    records = doc["runs"][0]["records"]
    assert len(records) == 2
    assert records[0]["seed"] == 7 and records[1]["seed"] == 8
    agg = (out_dir / "aggregate.csv").read_text().splitlines()
    assert agg[1] == (
        "scenario,lambda,gamma,delta,reps,mean_D,sd_D,"
        "rho_mean_1,rho_sd_1,rho_mean_2,rho_sd_2,khat_hist"
    )
    assert len(agg) == 3
    assert (out_dir / "locations.csv").exists()
    assert doc["config"]["lambda"] == [0.0] and doc["config"]["gamma"] == [300.0]


def test_bench_reproducible_across_thread_counts(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["bench", "table1-balanced", "--reps", "2", "--seed", "3", "--gamma", "300"]
    assert main(args + ["--out", str(out_a), "--threads", "1"]) == 0
    assert main(args + ["--out", str(out_b), "--threads", "2"]) == 0
    rec_a = load_json(out_a / "records.json")
    rec_b = load_json(out_b / "records.json")
    for run_a, run_b in zip(rec_a["runs"], rec_b["runs"]):
        for a, b in zip(run_a["records"], run_b["records"]):
            a.pop("runtime_seconds")
            b.pop("runtime_seconds")
            assert a == b


def test_bench_nan_d_exits_2_before_creating_the_directory(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    argv = ["bench", "table1-balanced", "--d", "nan", "--reps", "1", "--out", str(out_dir)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: d must be a number below 8, got nan\n"
    assert not out_dir.exists()


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
            "--lambda", "0",
            "--gamma", "200",
            "--gamma", "300",
            "--threads", "1",
        ]
    )
    assert code == 0
    doc = load_json(out_dir / "records.json")
    assert len(doc["runs"]) == 2
    locations = (out_dir / "locations.csv").read_text().splitlines()
    assert locations[1] == "lambda,gamma,replicate,seed,k_hat,eta_hat,rho_hat"
    assert (out_dir / "aggregate.csv").exists()



@pytest.mark.parametrize(
    "sweep",
    [
        ["--gamma", "200", "--gamma", "200"],
        ["--lambda", "0", "--lambda", "1", "--lambda", "0"],
        ["--gamma", "nan"],
    ],
    ids=["gamma-repeated", "lambda-repeated", "gamma-nan"],
)
def test_bench_tuning_grid_bad_sweep_exits_2(tmp_path, capsys, sweep):
    out_dir = tmp_path / "tuning"
    argv = ["bench", "tuning-grid", "--out", str(out_dir), "--reps", "1", "--threads", "1"]
    assert main(argv + sweep) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_dir.exists()


def _rows_after_config(path):
    return path.read_text().splitlines()[1:]


def test_bench_epidemic_on_the_tuning_grid_matches_tuning_grid(tmp_path):
    grid = ["--lambda", "0", "--lambda", "1", "--gamma", "100", "--gamma", "200", "--gamma", "300"]
    common = ["--reps", "2", "--seed", "4"]
    epi, tuning = tmp_path / "epi", tmp_path / "tuning"
    assert main(["bench", "epidemic", "--out", str(epi), "--threads", "1", *common, *grid]) == 0
    assert main(["bench", "tuning-grid", "--out", str(tuning), "--threads", "2", *common]) == 0
    epi_rows, tuning_rows = (
        [row.split(",", 1) for row in _rows_after_config(d / "aggregate.csv")]
        for d in (epi, tuning)
    )
    assert len(epi_rows) == 1 + 6
    assert [rest for _, rest in epi_rows] == [rest for _, rest in tuning_rows]
    assert {scenario for scenario, _ in epi_rows[1:]} == {"epidemic"}
    assert _rows_after_config(epi / "locations.csv") == _rows_after_config(
        tuning / "locations.csv"
    )


def test_bench_old_sweep_syntax_is_a_per_multipole_lambda(tmp_path, capsys):
    out_dir = tmp_path / "tuning"
    argv = ["bench", "tuning-grid", "--out", str(out_dir), "--reps", "1", "--threads", "1"]
    assert main(argv + ["--lambda", "0,0.5,1"]) == 2
    assert "lam must be scalar or length L=10" in capsys.readouterr().err
    assert not out_dir.exists()


def test_bench_per_multipole_lambda_is_one_joined_cell(tmp_path):
    out_dir = tmp_path / "tuning"
    lam = [0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0]
    argv = ["bench", "tuning-grid", "--out", str(out_dir), "--reps", "1", "--threads", "1",
            "--lambda", ",".join(map(str, lam)), "--gamma", "300"]
    assert main(argv) == 0
    cell = ";".join(map(repr, lam))
    (row,) = _rows_after_config(out_dir / "aggregate.csv")[1:]
    assert row.startswith(f"tuning-grid,{cell},300.0,")
    locations = _rows_after_config(out_dir / "locations.csv")[1:]
    assert locations and all(line.startswith(f"{cell},300.0,0,") for line in locations)
    assert load_json(out_dir / "records.json")["config"]["lambda"] == [lam]


def _one_error_line(capsys, path) -> None:
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def test_simulate_unwritable_out_exits_2(tmp_path, tiny_config, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["simulate", "--config", str(tiny_config), "--out", str(out)]) == 2
    _one_error_line(capsys, out)


def test_simulate_unwritable_truth_out_exits_2_and_removes_the_coefficient_file(
    tmp_path, tiny_config, capsys
):
    out, truth = tmp_path / "x.csv", tmp_path / "missing" / "x.truth.json"
    argv = ["simulate", "--config", str(tiny_config), "--out", str(out), "--truth-out", str(truth)]
    assert main(argv) == 2
    _one_error_line(capsys, truth)
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_detect_unwritable_out_exits_2(tmp_path, tiny_config, capsys, where):
    coeffs = tmp_path / "coeffs.csv"
    assert main(["simulate", "--config", str(tiny_config), "--out", str(coeffs)]) == 0
    capsys.readouterr()
    out = tmp_path / "missing" / "r.json" if where == "missing-dir" else tmp_path
    assert main(["detect", "--in", str(coeffs), "--out", str(out), "--gamma", "30"]) == 2
    _one_error_line(capsys, out)


def test_eval_unwritable_out_exits_2(tmp_path, tiny_config, capsys):
    coeffs, result = tmp_path / "coeffs.csv", tmp_path / "r.json"
    assert main(["simulate", "--config", str(tiny_config), "--out", str(coeffs)]) == 0
    assert main(["detect", "--in", str(coeffs), "--out", str(result), "--gamma", "30"]) == 0
    capsys.readouterr()
    out = tmp_path / "missing" / "m.json"
    truth = tmp_path / "coeffs.truth.json"
    assert main(["eval", "--in", str(result), "--truth", str(truth), "--out", str(out)]) == 2
    _one_error_line(capsys, out)


@pytest.mark.parametrize(
    "out, unwritable",
    [("taken", "taken"), ("taken/bench", "taken/bench"), (".", "locations.csv")],
    ids=["out-is-a-file", "out-under-a-file", "a-table-is-a-directory"],
)
def test_bench_unwritable_out_exits_2(tmp_path, capsys, out, unwritable):
    (tmp_path / "taken").write_text("")
    (tmp_path / "locations.csv").mkdir()
    argv = ["bench", "table1-balanced", "--reps", "1", "--threads", "1"]
    assert main([*argv, "--out", str(tmp_path / out)]) == 2
    _one_error_line(capsys, tmp_path / unwritable)
