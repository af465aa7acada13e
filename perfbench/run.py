"""Benchmark of the spharcp detector, one workload per process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-replicates --seed 1 --seconds 20 --trace 0

Runs closed-loop ops of one workload (one client, serial, no process
pool) for at least ``--seconds`` seconds, checks every output against the
reference table, and prints one ``name value unit`` line per metric, an
``env`` line, and as its last line a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``, with op and set-up times in
reference seconds (``hostspeed.py``: wall time corrected for the shared
host's drifting speed; the wall-clock figures are printed as ``*_wall``
lines); ``--trace 1`` spends half the
time untraced, then replays the same ops with every public layer call
wrapped in a span, and reports the per-layer metrics. ``--smoke`` runs
the small-size variant of the workload. Full results (and the spans of a
traced run) are written under ``.perfbench/`` in the checkout.

Exit codes: 0 with a result line; 2 when the checkout has no program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.ROOT
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 9

UNITS = {
    "setup_s": "s",
    "setup_s_wall": "s",
    "ops_per_s": "1/s",
    "ops_per_s_wall": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "mean_D": "ratio",
    "loc_err_t": "steps",
    "simulate.s": "s",
    "simulate.values": "count",
    "io.write_s": "s",
    "io.read_s": "s",
    "io.file_mb": "MB",
    "io.write_mb_per_s": "MB/s",
    "io.read_mb_per_s": "MB/s",
    "estimate.fit_calls": "count",
    "estimate.fit_s": "s",
    "estimate.fit_us": "us",
    "estimate.products_s": "s",
    "estimate.segment_fit_s": "s",
    "segment.detect_s": "s",
    "segment.self_s": "s",
    "segment.objective_s": "s",
    "segment.dp_lookups": "count",
    "segment.cache_hit_ratio": "ratio",
    "evaluate.s": "s",
    "bench.op_self_s": "s",
    "trace.overhead_s": "s",
}


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, sample count) of the highest percentile with
    at least ten samples beyond it, or None with fewer than 11 samples."""
    n = len(samples)
    if n <= 10:
        return None
    ordered = sorted(samples)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


class SetupProbe:
    """Times importing the program and building the workload in a fresh
    interpreter. ``repeats`` probes are spread over the run, between ops,
    so that their median does not hang on one moment's machine speed.
    Each probe times the calibration kernel just before and just after
    the set-up and gives the set-up in reference seconds too.

    numpy, the one runtime dependency, is imported before the clock
    starts: its import is most of a probe and its noisiest part, and no
    change to the program can alter it. Any other import still counts."""

    def __init__(self, name: str, seed: int, smoke: bool, repeats: int):
        self.code = (
            "import sys, time\n"
            "import numpy\n"
            f"sys.path.insert(0, {str(HERE)!r})\n"
            "import hostspeed\n"
            "before = hostspeed.calibrate()\n"
            "t0 = time.perf_counter()\n"
            "import workloads\n"
            f"workloads.build({name!r}, {seed!r}, {smoke!r})\n"
            "wall = time.perf_counter() - t0\n"
            "after = hostspeed.calibrate()\n"
            "print(repr(wall), repr(hostspeed.to_reference(wall, (before + after) / 2.0)))\n"
        )
        self.repeats = repeats
        self.times: list[float] = []
        self.wall_times: list[float] = []

    def probe(self) -> None:
        proc = subprocess.run(
            [sys.executable, "-c", self.code], cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        )
        wall, ref = proc.stdout.strip().splitlines()[-1].split()
        self.wall_times.append(float(wall))
        self.times.append(float(ref))

    def between_ops(self, fraction_done: float) -> None:
        """Probe while fewer than ``repeats * fraction_done`` probes are done."""
        while len(self.times) < min(self.repeats, 1 + int(self.repeats * fraction_done)):
            self.probe()

    def medians(self) -> tuple[float, float]:
        """(reference s, wall s) medians over all probes."""
        while len(self.times) < self.repeats:
            self.probe()
        return statistics.median(self.times), statistics.median(self.wall_times)


def environment(workload, seed: int, smoke: bool) -> dict:
    import numpy

    sha = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            sha = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "workload": workload.name,
        "seed": seed,
        "smoke": smoke,
        "params": workload.params(),
    }


class Loop:
    """Closed loop over a workload's ops, counting failed and mis-checked ops.

    With a ``clock`` the ops are timed in reference seconds, and their
    wall times are kept in ``wall_times``."""

    def __init__(self, workload, tracer: tracing.Tracer | None = None,
                 clock: hostspeed.Clock | None = None):
        self.workload = workload
        self.tracer = tracer
        self.clock = clock
        self.wall_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.quality: list[workloads.Quality] = []

    def run_op(self, i: int, op_id: int | None = None) -> float | None:
        """Run and check op i; returns its time, or None if it failed."""
        w = self.workload
        key = w.key(i)
        self.attempted += 1
        output = None
        wall = None
        try:
            if self.clock is not None:
                output, wall, elapsed = self.clock.call(w.op, key)
            else:
                start = time.perf_counter()
                if self.tracer is None:
                    output = w.op(key)
                else:
                    output = self.tracer.op(op_id, w.op, key)
                elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.paused = True
            errors = w.check(key, output, first=(i == 0 and self.tracer is None))
            if not errors:
                self.quality.extend(w.quality(output))
        except Exception:  # noqa: BLE001 - a failing op is counted, not fatal
            errors = [f"op {i} ({key!r}) raised:\n{traceback.format_exc()}"]
        finally:
            if self.tracer is not None:
                self.tracer.paused = False
            if output is not None:
                w.cleanup(output)
        if errors:
            self.failed += 1
            self.errors.extend(errors)
            return None
        if wall is not None:
            self.wall_times.append(wall)
        return elapsed

    def run_for(self, seconds: float, setup: SetupProbe | None = None) -> list[float]:
        """Whole cycles of ops until ``seconds`` of ops and checks have
        passed (at least one cycle); setup probes run between cycles and
        do not count toward ``seconds``."""
        times: list[float] = []
        busy = 0.0
        i = 0
        while i == 0 or busy < seconds:
            if setup is not None:
                setup.between_ops(busy / seconds if seconds else 1.0)
            start = time.perf_counter()
            for _ in range(self.workload.cycle):
                t = self.run_op(i)
                if t is not None:
                    times.append(t)
                i += 1
            busy += time.perf_counter() - start
        return times


def quality_metrics(quality: list[workloads.Quality]) -> dict[str, float | None]:
    errors = [e for q in quality for e in q.abs_errors]
    return {
        "mean_D": statistics.fmean(q.hausdorff for q in quality) if quality else None,
        "loc_err_t": statistics.fmean(errors) if errors else None,
    }


def end_to_end(loop: Loop, times: list[float], setup: SetupProbe):
    """Times are in reference seconds, except the ``*_wall`` ones."""
    setup_s, setup_s_wall = setup.medians()
    walls = loop.wall_times
    metrics = {
        "setup_s": setup_s,
        "setup_s_wall": setup_s_wall,
        "ops_per_s": len(times) / sum(times) if times else 0.0,
        "ops_per_s_wall": len(walls) / sum(walls) if walls else 0.0,
        "op_s_p50": statistics.median(times) if times else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": loop.failed / loop.attempted,
        **quality_metrics(loop.quality),
    }
    t = tail(times)
    metrics["op_s_tail"] = t[0] if t else None
    notes = {"op_s_tail": f"p{t[1]:.1f} of {t[2]} ops" if t else f"n/a: {len(times)} ops < 11",
             "op_s_p50": f"{len(times)} ops"}
    return metrics, notes


def traced(workload, seconds: float, spans_path: Path | None):
    """Untraced half, then the same ops traced, then op 0 again for the
    counter-determinism check."""
    plain = Loop(workload)
    plain_times = plain.run_for(seconds / 2.0)
    n_ops = plain.attempted

    tracer = tracing.Tracer()
    loop = Loop(workload, tracer)
    traced_times = []
    with tracer.installed():
        for i in range(n_ops):
            t = loop.run_op(i, op_id=i)
            if t is not None:
                traced_times.append(t)
        loop.run_op(0, op_id=n_ops)
    spans = tracer.spans
    main = [sp for sp in spans if sp[5] != n_ops]

    errors = plain.errors + loop.errors + tracing.check_nesting(spans)
    counts = tracing.op_counts(spans)
    if n_ops in counts and 0 in counts and counts[0] != counts[n_ops]:
        errors.append(f"work counts differ between two runs of op 0: {counts[0]} vs {counts[n_ops]}")
    metrics = tracing.layer_metrics(main, counted_ops=range(workload.cycle))
    metrics["trace.overhead_s"] = (
        statistics.median(traced_times) - statistics.median(plain_times)
        if traced_times and plain_times else 0.0
    )
    if spans_path is not None:
        spans_path.write_text(json.dumps(
            {"fields": ["id", "name", "start", "end", "parent", "op", "extra"],
             "spans": spans, "repeat_op": n_ops}
        ))
    attempted = plain.attempted + loop.attempted
    failed = plain.failed + loop.failed
    return metrics, attempted, failed, errors, {"trace.overhead_s": f"same {n_ops} ops"}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 out_dir: Path = OUT_DIR, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload; returns the full result document."""
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = out_dir / f"tmp-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        workload = workloads.build(name, seed, smoke, workdir)
        env = environment(workload, seed, smoke)
        stem = f"{name}{'-smoke' if smoke else ''}-seed{seed}-trace{int(trace)}"
        if trace:
            metrics, attempted, failed, errors, notes = traced(
                workload, seconds, out_dir / f"{stem}-spans.json"
            )
            times = []
        else:
            loop = Loop(workload, clock=hostspeed.Clock())
            setup = SetupProbe(name, seed, smoke, setup_repeats)
            times = loop.run_for(seconds, setup)
            metrics, notes = end_to_end(loop, times, setup)
            attempted, failed, errors = loop.attempted, loop.failed, loop.errors
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {
        "env": env,
        "trace": trace,
        "seconds": seconds,
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        "notes": notes,
        "op_times": times,
        "op_wall_times": [] if trace else loop.wall_times,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return doc


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="small-size variant")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    try:
        declared = declared_metrics(bool(args.trace))
        doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except workloads.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for err in doc["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    for key, m in doc["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        note = doc["notes"].get(key)
        print(f"{key} {value} {m['unit']}" + (f"  ({note})" if note else ""))
    print("env " + json.dumps(doc["env"], sort_keys=True))
    result = {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m["name"]: doc["metrics"][m["name"]] for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
