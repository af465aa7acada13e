"""The benchmark's workloads: inputs, one operation each, and output checks.

Every workload is a closed loop with one client: the next op starts when
the previous one and its output check have finished, in one process, with
no worker pool. The workload seed only orders a fixed pool of replicate
seeds, so every op input has an entry in ``reference.json``, recorded from
the seed commit by ``record_reference.py``. Checks return a list of error
strings; the runner counts an op with any error (or an exception) as
failed, so a wrong output lowers ``error_rate`` instead of ending the run.

The program is reached only through its public functions, looked up on
the module objects at call time, so ``tracing.Tracer`` can wrap them.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Relative tolerance on objectives against the reference table: loose
# enough for a reordered float sum, far too tight for a different fit.
OBJECTIVE_RTOL = 1e-9

PROGRAM_MODULES = ("bench", "estimate", "evaluate", "io", "segment", "simulate", "types")


class ProgramMissing(RuntimeError):
    """The checkout has no ``src/spharcp`` to benchmark."""


class Program:
    """The program's modules, imported from ``src/`` of this checkout."""

    def __init__(self) -> None:
        if not (SRC / "spharcp" / "__init__.py").is_file():
            raise ProgramMissing(f"no program sources at {SRC / 'spharcp'}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        package = importlib.import_module("spharcp")
        if Path(package.__file__).resolve().parent != SRC / "spharcp":
            raise ProgramMissing(f"spharcp was imported from {package.__file__}, not {SRC}")
        # importlib, not attribute access: the package re-exports a function
        # named ``simulate`` that shadows the submodule of the same name.
        for name in PROGRAM_MODULES:
            setattr(self, name, importlib.import_module(f"spharcp.{name}"))


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def seed_order(seed: int, pool_size: int) -> list[int]:
    """Replicate seeds 1..pool_size in the order workload seed ``seed`` picks."""
    return random.Random(seed).sample(range(1, pool_size + 1), pool_size)


def compare(observed: dict, expected: dict | None, where: str) -> list[str]:
    """Change points must match exactly, objectives within OBJECTIVE_RTOL."""
    if expected is None:
        return [f"{where}: no reference entry"]
    errors = []
    for field, want in expected.items():
        got = observed.get(field)
        if isinstance(want, float):
            if got is None or not math.isclose(got, want, rel_tol=OBJECTIVE_RTOL, abs_tol=0.0):
                errors.append(f"{where}: {field} {got!r} != reference {want!r}")
        elif got != want:
            errors.append(f"{where}: {field} {got!r} != reference {want!r}")
    return errors


@dataclass(frozen=True)
class Quality:
    """Detection quality of one detect: scaled Hausdorff and location errors."""

    hausdorff: float
    abs_errors: tuple[int, ...]


def quality_of(true_cps, assigned, hausdorff: float) -> Quality:
    errors = tuple(abs(e - t) for t, group in zip(true_cps, assigned) for e in group)
    return Quality(hausdorff=hausdorff, abs_errors=errors)


class Workload:
    """One op per input key; ``cycle`` ops form a unit the run never splits."""

    name: str
    cycle = 1

    def __init__(self, prog: Program, reference: dict, seed: int, smoke: bool,
                 workdir: Path | None = None):
        self.prog = prog
        self.workdir = workdir
        self.size = "smoke" if smoke else "full"
        self.reference = reference.get(self.name, {}).get(self.size, {})
        self.order = seed_order(seed, self.pool_size(smoke))

    def pool_size(self, smoke: bool) -> int:
        raise NotImplementedError

    def key(self, i: int):
        """Input of op number i (0-based) of the run."""
        return self.order[i % len(self.order)]

    def all_keys(self) -> list:
        """Every input a run can draw, in reference-table order."""
        return sorted(self.order)

    def params(self) -> dict:
        raise NotImplementedError

    def op(self, key):
        raise NotImplementedError

    def observe(self, key, output) -> dict:
        """What the reference table stores for this op."""
        raise NotImplementedError

    def ref_key(self, key) -> str:
        return str(key)

    def check(self, key, output, first: bool) -> list[str]:
        return compare(self.observe(key, output), self.reference.get(self.ref_key(key)),
                       f"{self.name}[{self.ref_key(key)}]")

    def quality(self, output) -> list[Quality]:
        return []

    def cleanup(self, output) -> None:
        pass


def _noise_base(L: int, scale: float = 1.0) -> list[float]:
    """1 at ell=0, then 1/(ell(ell+1)), times ``scale``."""
    return [scale] + [scale / (ell * (ell + 1.0)) for ell in range(1, L)]


class PaperReplicates(Workload):
    """``bench.run_replicate`` cycling through the three paper scenarios."""

    name = "paper-replicates"
    SCENARIOS = ("table1-balanced", "table1-unbalanced", "epidemic")
    cycle = len(SCENARIOS)
    Q, D, P, L, LAM, GAMMA, DELTA = 8, 2.0, 1, 10, 0.0, 300.0, 5

    def __init__(self, prog, reference, seed, smoke, workdir=None):
        super().__init__(prog, reference, seed, smoke, workdir)
        self.config = prog.types.DetectorConfig(
            p=self.P, L=self.L, lam=self.LAM, gamma=self.GAMMA, delta=self.DELTA
        )
        self.lengths = [prog.bench.make_scenario(s, self.Q, self.D, 1).n for s in self.SCENARIOS]

    def pool_size(self, smoke):
        return 2 if smoke else 12

    def key(self, i):
        return (self.SCENARIOS[i % self.cycle], self.order[(i // self.cycle) % len(self.order)])

    def all_keys(self):
        return [(s, rep) for s in self.SCENARIOS for rep in sorted(self.order)]

    def ref_key(self, key):
        return f"{key[0]}/{key[1]}"

    def params(self):
        return {"scenarios": list(self.SCENARIOS), "n": self.lengths, "L": self.L,
                "p": self.P, "lambda": self.LAM, "gamma": self.GAMMA, "delta": self.DELTA,
                "q": self.Q, "d": self.D}

    def op(self, key):
        scenario, rep = key
        return self.prog.bench.run_replicate(scenario, self.Q, self.D, rep, self.config)

    def observe(self, key, record):
        scenario, rep = key
        series = self.prog.simulate.simulate(
            self.prog.bench.make_scenario(scenario, self.Q, self.D, rep)
        )
        partition = self.prog.types.Partition(n=record.n, change_points=record.est_cps)
        objective = self.prog.segment.objective_of(series, partition, self.config)
        return {"change_points": list(record.est_cps), "objective": objective}

    def quality(self, record):
        return [quality_of(record.true_cps, record.assigned, record.hausdorff)]


class TuningSweep(Workload):
    """``bench.run_tuning_replicate`` on the epidemic scenario."""

    name = "tuning-sweep"
    Q, D, DELTA = 8, 2.0, 5

    def __init__(self, prog, reference, seed, smoke, workdir=None):
        super().__init__(prog, reference, seed, smoke, workdir)
        self.lams = (0.0,) if smoke else (0.0, 1.0)
        self.gammas = (100.0, 300.0) if smoke else (100.0, 200.0, 300.0)
        self.spec = prog.bench.make_scenario("tuning-grid", self.Q, self.D, 1)

    def pool_size(self, smoke):
        return 2 if smoke else 10

    def params(self):
        return {"scenario": "epidemic", "n": self.spec.n, "L": self.spec.L, "p": self.spec.p,
                "lambda": list(self.lams),
                "gamma": list(self.gammas), "delta": self.DELTA, "q": self.Q, "d": self.D}

    def op(self, rep):
        return self.prog.bench.run_tuning_replicate(
            self.Q, self.D, rep, self.lams, self.gammas, self.DELTA
        )

    def observe(self, rep, records):
        spec = self.prog.bench.make_scenario("tuning-grid", self.Q, self.D, rep)
        series = self.prog.simulate.simulate(spec)
        out = {}
        for (lam, gamma), record in sorted(records.items()):
            config = self.prog.types.DetectorConfig(
                p=spec.p, L=spec.L, lam=lam, gamma=gamma, delta=self.DELTA
            )
            partition = self.prog.types.Partition(n=record.n, change_points=record.est_cps)
            out[f"{lam!r},{gamma!r}:change_points"] = list(record.est_cps)
            out[f"{lam!r},{gamma!r}:objective"] = self.prog.segment.objective_of(
                series, partition, config
            )
        return out

    def quality(self, records):
        return [quality_of(r.true_cps, r.assigned, r.hausdorff) for r in records.values()]


class Ar2Detect(Workload):
    """simulate -> detect -> score on an AR(2) series: the p>1 fit path."""

    name = "ar2-detect"
    P, L, LAM, GAMMA, DELTA, Q, D = 2, 10, 0.0, 100.0, 5, 8, 2.0

    def __init__(self, prog, reference, seed, smoke, workdir=None):
        super().__init__(prog, reference, seed, smoke, workdir)
        self.n = 40 if smoke else 120
        t = prog.types
        beta = [float(b) for b in prog.simulate.build_beta(self.Q, self.D, self.L)]
        self.segments = (
            t.SegmentSpec(coeffs=t.ArCoefficients(p=2, phi=[[0.6 * b, -0.3 * b] for b in beta]),
                          noise_spectrum=_noise_base(self.L)),
            t.SegmentSpec(coeffs=t.ArCoefficients(p=2, phi=[[-0.6 * b, 0.2 * b] for b in beta]),
                          noise_spectrum=_noise_base(self.L, 0.5)),
        )
        self.partition = t.Partition(n=self.n, change_points=(self.n // 2,))
        self.config = t.DetectorConfig(
            p=self.P, L=self.L, lam=self.LAM, gamma=self.GAMMA, delta=self.DELTA
        )

    def pool_size(self, smoke):
        # An op takes about a third of a 20 s run, so a run's ops cover
        # the whole pool and its input mix does not vary with the seed.
        return 2 if smoke else 3

    def params(self):
        return {"n": self.n, "L": self.L, "p": self.P, "lambda": self.LAM,
                "gamma": self.GAMMA, "delta": self.DELTA, "change_points": [self.n // 2]}

    def op(self, rep):
        prog = self.prog
        spec = prog.simulate.ScenarioSpec(
            n=self.n, L=self.L, p=self.P, partition=self.partition,
            segments=self.segments, seed=rep,
        )
        result = prog.segment.detect(prog.simulate.simulate(spec), self.config)
        truth = self.partition.change_points
        return {
            "change_points": list(result.change_points),
            "objective": result.objective,
            "quality": quality_of(
                truth,
                prog.evaluate.assign_to_truth(result.change_points, truth),
                prog.evaluate.hausdorff_scaled(result.change_points, truth, self.n),
            ),
        }

    def observe(self, rep, output):
        return {"change_points": output["change_points"], "objective": output["objective"]}

    def quality(self, output):
        return [output["quality"]]


class StressFile(Workload):
    """Coefficient-file round trip at stress size, then fits on the true partition.

    The op never runs the DP. The byte-exact rewrite check costs a second
    write of the file, so a full-size run makes it on its first op only;
    the exact array round trip is checked on every op.
    """

    name = "stress-file"
    P, LAM, GAMMA, DELTA, Q, D = 1, 0.0, 300.0, 5, 8, 2.0

    def __init__(self, prog, reference, seed, smoke, workdir=None):
        super().__init__(prog, reference, seed, smoke, workdir)
        self.smoke = smoke
        self.n, self.L = (200, 8) if smoke else (2000, 32)
        t = prog.types
        beta = [float(b) for b in prog.simulate.build_beta(self.Q, self.D, self.L)]
        reduced = [0.5] + [0.5 / (2.0 * ell * (ell + 1.0)) for ell in range(1, self.L)]
        self.segments = (
            t.SegmentSpec(coeffs=t.ArCoefficients(p=1, phi=[[-b] for b in beta]),
                          noise_spectrum=_noise_base(self.L)),
            t.SegmentSpec(coeffs=t.ArCoefficients(p=1, phi=[[b] for b in beta]),
                          noise_spectrum=reduced),
        )
        self.partition = t.Partition(n=self.n, change_points=(self.n // 2,))
        self.config = t.DetectorConfig(
            p=self.P, L=self.L, lam=self.LAM, gamma=self.GAMMA, delta=self.DELTA
        )

    def pool_size(self, smoke):
        return 2 if smoke else 6

    def params(self):
        return {"n": self.n, "L": self.L, "p": self.P, "lambda": self.LAM,
                "gamma": self.GAMMA, "delta": self.DELTA, "change_points": [self.n // 2]}

    def _path(self, rep, suffix):
        if self.workdir is None:
            raise RuntimeError("stress-file needs a working directory")
        return self.workdir / f"stress-{os.getpid()}-{rep}{suffix}.csv"

    def op(self, rep):
        prog = self.prog
        spec = prog.simulate.ScenarioSpec(
            n=self.n, L=self.L, p=self.P, partition=self.partition,
            segments=self.segments, seed=rep,
        )
        series = prog.simulate.simulate(spec)
        path = self._path(rep, "")
        prog.io.write_coefficients(path, series)
        parsed, _ = prog.io.read_coefficients(path)
        prog.estimate.per_time_products(parsed, self.P)
        objective = prog.segment.objective_of(parsed, self.partition, self.config)
        fits = [
            prog.estimate.fit_segment_with_intercept(parsed, s, e, self.P, self.L)
            for s, e in self.partition.segments()
        ]
        return {"series": series, "parsed": parsed, "path": path, "objective": objective,
                "segment_rss": float(sum(f.rss.sum() for f in fits))}

    def observe(self, rep, output):
        return {"objective": output["objective"], "segment_rss": output["segment_rss"]}

    def check(self, rep, output, first):
        errors = super().check(rep, output, first)
        where = f"{self.name}[{rep}]"
        original, parsed = output["series"], output["parsed"]
        if (parsed.n, parsed.L) != (original.n, original.L) or not (
            parsed.data == original.data
        ).all():
            errors.append(f"{where}: array did not round-trip exactly")
        if first or self.smoke:
            rewrite = self._path(rep, "-rewrite")
            try:
                self.prog.io.write_coefficients(rewrite, parsed)
                if rewrite.read_bytes() != output["path"].read_bytes():
                    errors.append(f"{where}: write -> read -> rewrite changed the bytes")
            finally:
                rewrite.unlink(missing_ok=True)
        return errors

    def cleanup(self, output):
        output["path"].unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (PaperReplicates, TuningSweep, StressFile, Ar2Detect)}


def build(name: str, seed: int, smoke: bool, workdir: Path | None = None) -> Workload:
    """Import the program and set up one workload: the span ``setup_s`` times."""
    return WORKLOADS[name](Program(), load_reference(), seed, smoke, workdir)
