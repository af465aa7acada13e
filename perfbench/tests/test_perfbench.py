"""Smoke-size runs of every workload: metric names and units, output
checks, span nesting and repeatable work counts.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

import pytest

import hostspeed
import run
import tracing
import workloads

WORKLOADS = sorted(workloads.WORKLOADS)
COUNTERS = ("simulate.values", "io.file_mb", "estimate.fit_calls",
            "segment.dp_lookups", "segment.cache_hit_ratio")


def declared(section: str) -> dict[str, str]:
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def smoke(tmp_path, name, trace, seed=1):
    return run.run_workload(name, seed, 0.0, trace, smoke=True, out_dir=tmp_path,
                            setup_repeats=1)


@pytest.fixture(scope="module")
def traced_docs(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return out, {name: smoke(out, name, True) for name in WORKLOADS}


@pytest.mark.parametrize("name", WORKLOADS)
def test_end_to_end_metrics_named_with_units(tmp_path, name):
    doc = smoke(tmp_path, name, False)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    for metric, unit in declared("end_to_end").items():
        assert doc["metrics"][metric]["unit"] == unit
        assert doc["metrics"][metric]["value"] > 0
    for metric in ("error_rate", "mean_D", "loc_err_t", "op_s_tail"):
        assert doc["metrics"][metric]["unit"] == run.UNITS[metric]
    assert doc["metrics"]["error_rate"]["value"] == 0
    env = doc["env"]
    assert env["workload"] == name and env["seed"] == 1 and env["nproc"] >= 1
    assert {"n", "L", "p", "lambda", "gamma", "delta"} <= set(env["params"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_per_layer_metrics_named_with_units(traced_docs, name):
    _, docs = traced_docs
    doc = docs[name]
    assert doc["correct"], doc["errors"]
    for metric, unit in declared("per_layer").items():
        assert doc["metrics"][metric]["unit"] == unit
    assert set(declared("per_layer")) == set(doc["metrics"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_spans_nest_and_account_for_each_op(traced_docs, name):
    out, _ = traced_docs
    spans = json.loads((out / f"{name}-smoke-seed1-trace1-spans.json").read_text())["spans"]
    spans = [tuple(sp) for sp in spans]
    assert tracing.check_nesting(spans) == []
    child = defaultdict(float)
    for sp in spans:
        if sp[4] is not None:
            child[sp[4]] += sp[3] - sp[2]
    self_sum = defaultdict(float)
    roots = {}
    for sp in spans:
        self_time = sp[3] - sp[2] - child[sp[0]]
        assert self_time >= 0
        self_sum[sp[5]] += self_time
        if sp[4] is None:
            roots[sp[5]] = sp[3] - sp[2]
    for op, wall in roots.items():
        assert self_sum[op] == pytest.approx(wall, rel=1e-9, abs=1e-9)


def test_layer_counts_match_the_workload(traced_docs):
    _, docs = traced_docs
    m = {name: {k: v["value"] for k, v in doc["metrics"].items()} for name, doc in docs.items()}
    assert m["stress-file"]["io.file_mb"] > 0 and m["stress-file"]["segment.dp_lookups"] == 0
    assert m["paper-replicates"]["io.file_mb"] == 0
    assert m["paper-replicates"]["segment.cache_hit_ratio"] == 0
    # smoke tuning grid: one cold detect, one served from the loss cache
    assert m["tuning-sweep"]["segment.cache_hit_ratio"] == pytest.approx(0.5)
    assert m["ar2-detect"]["estimate.fit_calls"] == m["ar2-detect"]["segment.dp_lookups"] + 1


@pytest.mark.parametrize("name", ["tuning-sweep", "stress-file"])
def test_work_counts_repeat_exactly(traced_docs, tmp_path, name):
    _, docs = traced_docs
    again = smoke(tmp_path, name, True)
    for counter in COUNTERS:
        assert again["metrics"][counter] == docs[name]["metrics"][counter]


def test_counts_do_not_depend_on_how_many_ops_a_run_fits():
    def op_spans(op, base, fits):
        root, detect = base, base + 1
        spans = [(base + 2 + k, "estimate.IntervalLossEngine.fit", op + 0.1, op + 0.2, detect, op,
                  None) for k in range(fits)]
        spans.append((detect, "segment.detect", op + 0.05, op + 0.5, root, op, (fits - 1, 1)))
        spans.append((root, tracing.OP_SPAN, op, op + 1.0, None, op, None))
        return spans

    one = op_spans(0, 0, 3)
    two = one + op_spans(1, 100, 7)
    a = tracing.layer_metrics(one, counted_ops=range(1))
    b = tracing.layer_metrics(two, counted_ops=range(1))
    for counter in ("estimate.fit_calls", "segment.dp_lookups", "segment.cache_hit_ratio"):
        assert a[counter] == b[counter]
    assert a["estimate.fit_calls"] == 3 and a["segment.dp_lookups"] == 2


def test_wrong_reference_counts_as_failed_op(tmp_path, monkeypatch):
    table = workloads.load_reference()
    for entry in table["ar2-detect"]["smoke"].values():
        entry["objective"] *= 1.0 + 1e-6
    monkeypatch.setattr(workloads, "load_reference", lambda: table)
    doc = smoke(tmp_path, "ar2-detect", False)
    assert not doc["correct"]
    assert doc["failed"] == doc["attempted"] >= 1
    assert doc["metrics"]["error_rate"]["value"] == 1.0
    assert "objective" in doc["errors"][0]


def test_lossy_coefficient_file_counts_as_failed_op(tmp_path, monkeypatch):
    workloads.Program()
    io = sys.modules["spharcp.io"]
    types = sys.modules["spharcp.types"]
    original = io.write_coefficients

    def lossy(path, series, meta=None):
        rounded = types.CoefficientSeries(n=series.n, L=series.L, data=series.data.round(6))
        original(path, rounded, meta)

    monkeypatch.setattr(io, "write_coefficients", lossy)
    doc = smoke(tmp_path, "stress-file", False)
    assert doc["failed"] == doc["attempted"]
    assert any("round-trip" in e for e in doc["errors"])


def test_raising_op_counts_as_failed_op(tmp_path, monkeypatch):
    workloads.Program()

    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(sys.modules["spharcp.segment"], "detect", broken)
    doc = smoke(tmp_path, "ar2-detect", False)
    assert doc["failed"] == doc["attempted"] >= 1
    assert "FloatingPointError" in doc["errors"][0]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    value, pct, n = run.tail([float(i) for i in range(1, 21)])
    assert (value, pct, n) == (10.0, 50.0, 20)


def test_clock_leaves_out_its_kernel_runs():
    def busy(seconds):
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            pass
        return "done"

    clock = hostspeed.Clock(interval=0.05)
    start = perf_counter()
    result, wall, ref = clock.call(busy, 0.3)
    outer = perf_counter() - start
    assert result == "done"
    # the kernel ran several times inside the 0.3 s busy wait, and its time is not the op's
    assert 0.0 < wall < 0.3 < outer
    assert ref > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_reference_seconds_scale_with_kernel_time():
    assert hostspeed.to_reference(2.0, hostspeed.REF_KERNEL_S) == 2.0
    assert hostspeed.to_reference(2.0, 2.0 * hostspeed.REF_KERNEL_S) == pytest.approx(1.0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ar2-detect", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
