"""One benchmark workload, run alone in its own process.

Started by run.py with BLAS pinned to one thread and vrhmc importable
from the checkout's src/. Usage (normally only through run.py):

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs (a quadratic target's seed, or a LIBSVM text file
shaped like the mushrooms dataset) are generated from --seed into a work
directory before anything is timed. Then units of work run back to back,
one after the other (a closed loop with one client), until --seconds
have passed. A unit is one call of the workload's entry point and holds
several operations, an operation being one estimator x chain run.

--trace 0 measures the end-to-end metrics with nothing wrapped inside
the program: only each per-method run_ensemble / run_chain call is timed,
and the times are scaled to a reference machine speed (CALIBRATION_US).
--trace 1 alternates an untraced unit with a traced one (tracer.py wraps
every public function and method) and reports per-layer metrics, the
tracing overhead, and how much of the unit's wall time the spans leave
unattributed. Every unit is checked; the last stdout line is one JSON
object with correct / attempted / failed / metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from statistics import mean, median

import numpy as np

import vrhmc
from vrhmc import cli, sampler
from vrhmc.metrics import GaussianSummary, bures_w2
from vrhmc.potentials import QuadraticPotential
from vrhmc.sampler import ChainDivergence, SamplerConfig

from tracer import KINDS, LAYERS, Tracer, analyze

# the unattributed share of a traced unit's wall time that is tolerated:
# only the benchmark's own loop between entry-point calls runs outside spans
GAP_LIMIT = 0.01

# End-to-end times are reported at a fixed reference speed. On the shared
# 2-core host this benchmark was built on, wall time per chain-step swung by
# up to 2x within minutes while its ratio to calibration_loop_us() stayed
# within a few percent, so every timed sampling call is scaled by
# CALIBRATION_US over the calibration loop's time per iteration measured
# right before and right after it.
CALIBRATION_US = 10.0


def calibration_loop_us(iterations=1000):
    """Microseconds per iteration of a fixed loop of small numpy operations.

    One iteration does what an interpreter-bound sampling step does (a d x d
    product, a normal draw, two axpy updates, d = 5) but calls nothing from
    vrhmc, so a change to the program cannot move it; only the machine can.
    """
    rng = np.random.default_rng(0)
    precision = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    anchor = np.ones(5)
    x = np.zeros(5)
    v = np.zeros(5)
    start = time.perf_counter_ns()
    for _ in range(iterations):
        g = precision @ (x - anchor)
        z = rng.standard_normal((2, 5))
        x, v = x + 0.1 * v - 0.01 * g + 0.1 * z[0], 0.9 * v - 0.1 * g + 0.1 * z[1]
    return (time.perf_counter_ns() - start) / iterations / 1e3


class StopAtSampling(Exception):
    """Raised at the first sampling call of a set-up probe."""


class SamplingTimer:
    """Times each call of one sampling entry point, one clock pair per call.

    With calibrate set, the calibration loop runs right before each call;
    its time stays out of the call's timing. With stop_at_first, the first
    call raises StopAtSampling instead of sampling (a set-up probe).
    """

    def __init__(self, owner, attr, calibrate, stop_at_first):
        self.owner, self.attr = owner, attr
        self.calibrate, self.stop_at_first = calibrate, stop_at_first
        self.first_entered = None
        self.calls = []  # (estimator, start_ns, end_ns, calibration_us, calibration_ns)

    def __enter__(self):
        inner = self.original = getattr(self.owner, self.attr)
        clock = time.perf_counter_ns

        def timed(config, *args, **kwargs):
            entered = clock()
            if self.first_entered is None:
                self.first_entered = entered
            if self.stop_at_first:
                raise StopAtSampling
            calibration = calibration_loop_us() if self.calibrate else None
            start = clock()
            result = inner(config, *args, **kwargs)
            self.calls.append((config.estimator, start, clock(), calibration, start - entered))
            return result

        setattr(self.owner, self.attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.original)


class Unit:
    """Timings, counts and check results of one unit of work."""

    def __init__(self, ops_per_kind):
        self.t0 = 0
        self.end_ns = 0
        self.setup_ns = 0
        self.calibration_ns = 0  # calibration time inside the unit's window
        self.calibration_before = self.calibration_after = None  # us/iteration around the unit
        self.calls = []  # (estimator, ns, chain-steps, calibration us/iteration before it)
        self.queries = dict.fromkeys(KINDS, 0)
        self.ops_per_kind = ops_per_kind
        self.failed_kinds = set()
        self.problems = []
        self.digest = None
        self.output = None
        self.expected_rows = 0
        self.n_components = 0
        self.dimension = 0

    @property
    def attempted(self):
        return self.ops_per_kind * len(KINDS)

    @property
    def failed(self):
        return self.ops_per_kind * len(self.failed_kinds)

    def fail(self, kinds, message):
        self.failed_kinds.update(kinds)
        self.problems.append(message)

    def take(self, timer, chain_steps):
        """Record the timer's calls; the first sampling call ends set-up."""
        self.setup_ns = (timer.first_entered or self.end_ns) - self.t0
        for kind, start, end, calibration, calibration_ns in timer.calls:
            self.calls.append((kind, end - start, chain_steps(kind), calibration))
            self.calibration_ns += calibration_ns

    @property
    def run_s(self):
        return (self.end_ns - self.t0 - self.setup_ns - self.calibration_ns) / 1e9

    def speeds(self):
        """Factors to the reference speed: one per call, and one for the unit.

        A call is bracketed by the calibration before it and the one before
        the next call (after the last call: the one after the unit).
        """
        marks = [c for *_, c in self.calls] + [self.calibration_after]
        per_call = [2 * CALIBRATION_US / (a + b) for a, b in zip(marks, marks[1:])]
        return per_call, CALIBRATION_US / mean([self.calibration_before] + marks)

    def end_to_end(self, scaled=True):
        """Whole-unit metrics; per-estimator ones come from the single calls."""
        per_call, speed = self.speeds() if scaled else ([1.0] * len(self.calls), 1.0)
        sample_ns = max(sum(ns * f for (_, ns, _, _), f in zip(self.calls, per_call)), 1)
        steps = max(sum(n for _, _, n, _ in self.calls), 1)
        return {
            "setup_s": self.setup_ns / 1e9 * speed,
            "run_s": self.run_s * speed,
            "chain_step_us": sample_ns / steps / 1e3,
            "queries_per_s": sum(self.queries.values()) / sample_ns * 1e9,
        }

    def chain_step_us(self, kind, scaled=True):
        """Time per chain-step of each timed call of one estimator."""
        per_call = self.speeds()[0] if scaled else [1.0] * len(self.calls)
        return [ns / n / 1e3 * f for (k, ns, n, _), f in zip(self.calls, per_call) if k == kind]


def derived_seeds(seed, count):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count) % (2**31)]


def closed_form_queries(kind, n, b, steps):
    """Per-chain query count where it does not depend on random restarts."""
    return {"full": n * steps, "sg": b * steps, "saga": n + b * steps, "sarge": n + 2 * b * steps}.get(kind)


def digest_tree(root):
    sha = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            sha.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


class CliWorkload:
    """Shared code of the two workloads that run a vrhmc CLI entry point."""

    config_text = ""
    entry = None

    def __init__(self):
        Path("workload.cfg").write_text(self.config_text)
        self.config = self._load()
        self.steps_of = {kind: self.config.sampler_config(kind).n_steps for kind in KINDS}

    @staticmethod
    def _load():
        return cli.load_config("workload.cfg", {"out": "results"})

    def run_unit(self, probe=False, calibrate=True):
        shutil.rmtree("results", ignore_errors=True)
        chains = self.config.chains
        unit = Unit(ops_per_kind=chains)
        with SamplingTimer(cli, "run_ensemble", calibrate, probe) as timer:
            unit.t0 = time.perf_counter_ns()
            try:
                unit.output = getattr(cli, self.entry)(self._load())
            except StopAtSampling:
                pass
            except Exception as exc:  # a failed unit is counted, the run goes on
                traceback.print_exc()
                unit.fail(KINDS, f"{self.entry} raised {exc!r}")
            unit.end_ns = time.perf_counter_ns()
        unit.take(timer, lambda kind: self.steps_of[kind] * chains)
        if unit.output is not None:
            for kind, entry in unit.output["methods"].items():
                unit.queries[kind] = sum(entry["total_queries"])
            unit.digest = digest_tree("results")
            unit.n_components, unit.dimension = self.model_size(unit.output)
        unit.expected_rows = sum(math.ceil(n / self.config.stride) * chains for n in self.steps_of.values())
        return unit

    def check(self, unit):
        if unit.output is None:
            return
        n = unit.n_components
        for kind, entry in unit.output["methods"].items():
            expected = closed_form_queries(kind, n, self.config.batch, self.steps_of[kind])
            if expected is not None and entry["total_queries"] != [expected] * self.config.chains:
                unit.fail([kind], f"{kind}: queries {entry['total_queries']} != {expected} per chain")
            self.check_method(unit, kind, entry)


class QuadEnsemble(CliWorkload):
    name = "quad-ensemble"
    entry = "run_synthetic"
    model_kind = "quadratic"
    steps = 1500
    setup_probes = 9
    parsed_rows = 0
    # sanity bounds on the final pooled W2 and the potential MSE, two to
    # three times the largest value seen over sixteen seeds at this size
    # (svrg and sarah are exact on quadratics; sg, saga and sarge at b=1 are
    # biased). A chain run without its noise reads W2 ~ 1, one stuck at its
    # start x=0 reads W2 ~ 4.6.
    w2_bound = {"full": 0.8, "svrg": 0.8, "sarah": 0.8, "sg": 3.0, "saga": 3.0, "sarge": 3.0}
    potential_mse_bound = {"full": 35.0, "svrg": 35.0, "sarah": 35.0, "sg": 3000.0, "saga": 3000.0, "sarge": 3000.0}

    def __init__(self, seed):
        run_seed, data_seed = derived_seeds(seed, 2)
        self.config_text = (
            "experiment = synthetic\n"
            f"seed = {run_seed}\n"
            f"data_seed = {data_seed}\n"
            "n_components = 1000\n"
            "dimension = 5\n"
            "methods = full, sg, svrg, saga, sarah, sarge\n"
            "batch = 1\n"
            "step = 0.05\n"
            f"steps = {self.steps}\n"
            f"burn_in = {self.steps // 2}\n"
            "stride = 10\n"
            "chains = 4\n"
            "diagnostics = false\n"
        )
        super().__init__()

    def model_size(self, output):
        return output["config"]["n_components"], output["config"]["dimension"]

    def check_method(self, unit, kind, entry):
        if not entry["final_w2"] <= self.w2_bound[kind]:
            unit.fail([kind], f"{kind}: final W2 {entry['final_w2']} > {self.w2_bound[kind]}")
        bound = self.potential_mse_bound[kind]
        if not entry["potential_mse"] <= bound:
            unit.fail([kind], f"{kind}: potential MSE {entry['potential_mse']} > {bound}")


def mushrooms_like(seed, n_rows=8124, n_features=112, n_groups=21):
    """LIBSVM text shaped like mushrooms: one-hot categorical rows, +-1 labels.

    The features are split into n_groups contiguous categorical groups and
    every row sets exactly one feature per group, so each row has n_groups
    nonzeros of value 1. Labels follow a logistic model on the one-hot
    features.
    """
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(1, n_features), n_groups - 1, replace=False))
    edges = np.concatenate([[0], cuts, [n_features]])
    columns = edges[:-1] + (rng.random((n_rows, n_groups)) * np.diff(edges)).astype(np.int64)
    logits = rng.standard_normal(n_features)[columns].sum(axis=1)
    logits -= np.median(logits)
    labels = np.where(rng.random(n_rows) < 1.0 / (1.0 + np.exp(-logits)), 1, -1)
    return "".join(
        f"{label} " + " ".join(f"{c + 1}:1" for c in row) + "\n"
        for label, row in zip(labels.tolist(), columns.tolist())
    )


class LogisticSparse(CliWorkload):
    name = "logistic-sparse"
    entry = "run_logistic"
    model_kind = "logistic"
    steps = 250
    setup_probes = 4
    parsed_rows = 8124

    def __init__(self, seed):
        run_seed, split_seed, data_seed = derived_seeds(seed, 3)
        Path("mushrooms.libsvm").write_text(mushrooms_like(data_seed, n_rows=self.parsed_rows))
        self.config_text = (
            "experiment = logistic\n"
            f"seed = {run_seed}\n"
            "data = mushrooms.libsvm\n"
            "train_fraction = 0.8\n"
            f"split_seed = {split_seed}\n"
            "standardize = true\n"
            "ridge = 1.0\n"
            "methods = full, sg, svrg, saga, sarah, sarge\n"
            "batch = 65\n"
            "step = 0.03\n"
            f"steps = {self.steps}\n"
            f"burn_in = {self.steps // 5}\n"
            "stride = 10\n"
            "chains = 4\n"
            "diagnostics = false\n"
        )
        super().__init__()

    def model_size(self, output):
        return output["dataset"]["n_train"], output["dataset"]["n_features"]

    def check_method(self, unit, kind, entry):
        nll = entry.get("final_test_nll")
        if nll is None or not math.isfinite(nll) or not nll < math.log(2.0):
            unit.fail([kind], f"{kind}: held-out NLL {nll} is not finite and below log 2")


class QuadDiagStride1:
    """Single chains through sampler.run_chain, every step recorded."""

    name = "quad-diag-stride1"
    model_kind = "quadratic"
    steps = 2000
    n_seeds = 3
    setup_probes = 9
    parsed_rows = 0
    # single chains of 2000 steps at h=0.02 are far from mixed: over twelve
    # seeds W2 stayed below 1.5 and |mean potential - reference| below 21;
    # a chain stuck at its start x=0 reads W2 ~ 4.6 and an error of 44 to 145
    w2_bound = 2.5
    potential_error_bound = 40.0

    def __init__(self, seed):
        self.data_seed, *self.chain_seeds = derived_seeds(seed, 1 + self.n_seeds)

    def run_unit(self, probe=False, calibrate=True):
        unit = Unit(ops_per_kind=len(self.chain_seeds))
        records = []
        with SamplingTimer(sampler, "run_chain", calibrate, probe) as timer:
            unit.t0 = time.perf_counter_ns()
            model = QuadraticPotential.random(
                n_components=1000, dimension=5, max_eigenvalue=10.0, min_eigenvalue=1.0, seed=self.data_seed
            )
            configs = [
                SamplerConfig(
                    n_steps=self.steps,
                    step=0.02,
                    estimator=kind,
                    batch_size=1,
                    burn_in=self.steps // 10,
                    record_stride=1,
                    seed=chain_seed,
                    diagnostics=True,
                )
                for chain_seed in self.chain_seeds
                for kind in KINDS
            ]
            for config in configs:
                try:
                    records.append((config, sampler.run_chain(config, model)))
                except StopAtSampling:
                    break
                except Exception as exc:  # counted as a failed operation
                    if not isinstance(exc, ChainDivergence):
                        traceback.print_exc()
                    unit.fail([config.estimator], f"{config.estimator} seed {config.seed}: {exc!r}")
            unit.end_ns = time.perf_counter_ns()
        unit.take(timer, lambda kind: self.steps)
        unit.output = (model, records)
        unit.n_components, unit.dimension = model.n_components, model.dimension
        unit.expected_rows = len(configs) * self.steps
        for config, record in records:
            unit.queries[config.estimator] += record.total_queries
        return unit

    def check(self, unit):
        model, records = unit.output
        target = GaussianSummary(*model.target_moments())
        reference = model.mean_potential()
        for config, record in records:
            kind = config.estimator
            where = f"{kind} seed {config.seed}"
            expected = closed_form_queries(kind, model.n_components, 1, config.n_steps)
            if expected is not None and record.total_queries != expected:
                unit.fail([kind], f"{where}: queries {record.total_queries} != {expected}")
            if kind == "full" and np.any(record.grad_err_sq != 0.0):
                unit.fail([kind], f"{where}: full-gradient grad_err_sq is not exactly 0")
            w2 = bures_w2(GaussianSummary(record.final_mean, record.final_cov), target)
            if not w2 <= self.w2_bound:
                unit.fail([kind], f"{where}: W2 {w2} > {self.w2_bound}")
            error = abs(record.mean_potential - reference)
            if not error <= self.potential_error_bound:
                unit.fail([kind], f"{where}: |mean potential - reference| {error} > {self.potential_error_bound}")


WORKLOADS = {w.name: w for w in (QuadEnsemble, QuadDiagStride1, LogisticSparse)}


def layer_metrics(agg, unit, model_kind, parsed_rows):
    """Per-layer metrics of one traced unit from its span aggregates."""
    g = agg["group_self_ns"]
    calls = agg["group_calls"]

    def per_call_us(key):
        return g.get(key, 0.0) / calls[key] / 1e3 if calls.get(key) else 0.0

    m = {}
    for kind in KINDS:
        pk = agg["per_kind"][kind]
        m[f"estimators.estimate.self_us.{kind}"] = pk["estimate_self_ns"] / max(pk["estimate_calls"], 1) / 1e3
        m[f"estimators.init_s.{kind}"] = pk["init_ns"] / 1e9
        m[f"estimators.queries.{kind}"] = unit.queries[kind]
        m[f"estimators.full_passes.{kind}"] = pk["full_passes"]
    # one SAGA/SARGE table of N x d float64 per chain (computed, not measured)
    m["estimators.table_mb"] = unit.n_components * unit.dimension * 8 / 1e6
    sp = agg["sampler"]
    steps = sum(agg["per_kind"][k]["estimate_calls"] for k in KINDS)
    m["sampler.loop_self_us"] = sp["loop_self_ns"] / steps / 1e3
    m["sampler.record.us_per_row"] = sp["record_ns"] / max(sp["rows"], 1) / 1e3
    m["sampler.rows"] = sp["rows"]
    m["sampler.post_loop_s"] = sp["outside_loop_ns"] / 1e9
    m["sampler.run_ensemble.self_s"] = g.get("sampler.run_ensemble", 0.0) / 1e9
    m["sampler.wasserstein_tracker_s"] = g.get("sampler.wasserstein_tracker", 0.0) / 1e9
    m["metrics.bures_w2.calls"] = calls.get("metrics.bures_w2", 0)
    m["metrics.bures_w2.self_us"] = per_call_us("metrics.bures_w2")
    m["metrics.test_nll_s"] = g.get("metrics.test_nll", 0.0) / 1e9
    m["cli.self_s"] = (g.get("cli.run_synthetic", 0.0) + g.get("cli.run_logistic", 0.0)) / 1e9
    for key in ("gradient_batch", "gradient_full", "potential_full"):
        m[f"potentials.{key}.calls"] = calls.get(f"potentials.{key}", 0)
        m[f"potentials.{key}.self_us"] = per_call_us(f"potentials.{key}")
    m["potentials.gradient_batch.rows"] = agg["potentials_rows"]
    m["potentials.flops"], m["potentials.bytes"] = kernel_cost(
        model_kind, unit.n_components, unit.dimension,
        m["potentials.gradient_batch.rows"], m["potentials.gradient_full.calls"], m["potentials.potential_full.calls"],
    )
    parse_s = g.get("dataio.parse_libsvm", 0.0) / 1e9
    m["dataio.parse_libsvm_s"] = parse_s
    m["dataio.parse_rows_per_s"] = parsed_rows / parse_s if parse_s else 0.0
    m["dataio.train_test_split_s"] = g.get("dataio.train_test_split", 0.0) / 1e9
    m["dataio.standardize_s"] = g.get("dataio.standardize", 0.0) / 1e9
    m["dataio.to_dense_s"] = g.get("dataio.to_dense", 0.0) / 1e9
    m["potentials.init_s"] = sum(
        g.get(k, 0.0) for k in ("potentials.random", "potentials.from_dataset", "potentials.__init__")
    ) / 1e9
    m["integrator.noise_coefficients_us"] = per_call_us("integrator.noise_coefficients")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = agg["layer_self_ns"][layer] / 1e9
    m["trace.spans"] = agg["n_spans"]
    m["trace.unattributed_s"] = (agg["window_ns"] - agg["attributed_ns"]) / 1e9
    m["trace.unattributed_pct"] = 100.0 * m["trace.unattributed_s"] / (agg["window_ns"] / 1e9)
    return m


def kernel_cost(model_kind, n, d, batch_rows, full_calls, potential_calls):
    """Flops and bytes of the potentials kernels, computed from array shapes.

    Quadratic: a batch row is one d x d product on (x - a_i); the full
    gradient and potential are single d x d products (closed forms).
    Logistic: a batch row is one d-dot, a sigmoid and a d-axpy; the full
    gradient is two N x d passes and the potential one. Bytes count each
    float64 operand read or written once; caches are ignored.
    """
    if model_kind == "quadratic":
        flops = batch_rows * (2 * d * d + 3 * d) + (full_calls + potential_calls) * (2 * d * d + 2 * d)
        words = batch_rows * 2 * d + (full_calls + potential_calls) * (d * d + 2 * d)
    else:
        flops = batch_rows * (6 * d + 10) + full_calls * n * (4 * d + 10) + potential_calls * n * (2 * d + 10)
        words = batch_rows * (2 * d + 2) + full_calls * n * (2 * d + 2) + potential_calls * n * (d + 2)
    return flops, words * 8


def environment():
    """nproc, CPU model, Python / numpy versions and the BLAS with its thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "vrhmc": vrhmc.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps") as handle:
        libraries = sorted({line.split()[-1] for line in handle if "blas" in line and line.split()[-1].startswith("/")})
    for library in libraries:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                getter = getattr(ctypes.CDLL(library), symbol)
            except (OSError, AttributeError):
                continue
            getter.restype, getter.argtypes = ctypes.c_int, []
            return getter()
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    workdir = Path(args.workdir).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    workload = WORKLOADS[args.workload](args.seed)

    calibration = [calibration_loop_us()]

    def bracketed(unit):
        calibration.append(calibration_loop_us())
        unit.calibration_before, unit.calibration_after = calibration[-2:]
        return unit

    # closed loop; with tracing, every untraced unit is followed by a traced
    # one, and both report wall-clock time (no calibration inside the unit)
    units, traced, aggs = [], [], []
    tracer = Tracer() if args.trace else None
    began = time.perf_counter()
    while not units or time.perf_counter() - began < args.seconds:
        units.append(bracketed(workload.run_unit(calibrate=tracer is None)))
        settle(workload, units[-1], units[0])
        if tracer is not None:
            tracer.install()
            try:
                unit = workload.run_unit(calibrate=False)
            finally:
                tracer.uninstall()
            aggs.append(analyze(tracer, unit.t0, unit.end_ns))
            settle(workload, bracketed(unit), units[0])
            traced.append(unit)
    probes = [] if tracer is not None else [bracketed(workload.run_unit(probe=True)) for _ in range(workload.setup_probes)]

    problems = []
    if tracer is None:
        clean = [u for u in units if not u.failed_kinds] or units

        def summary(scaled):
            # medians over units (set-up: and probes); per estimator, over its calls
            e2e = [unit.end_to_end(scaled) for unit in clean]
            out = {name: median([m[name] for m in e2e]) for name in e2e[0]}
            out["setup_s"] = median([u.end_to_end(scaled)["setup_s"] for u in units + probes])
            for kind in KINDS:
                out[f"chain_step_us.{kind}"] = median([v for u in clean for v in u.chain_step_us(kind, scaled)])
            return out

        print(
            f"{len(units)} units, {len(probes)} set-up probes; calibration loop "
            f"{median(calibration):.3f} us/iteration (reference {CALIBRATION_US}); unscaled wall-clock medians: "
            + ", ".join(f"{name} {value:.6g}" for name, value in summary(False).items()),
            flush=True,
        )
        metrics = summary(True)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        per_unit = []
        for plain, unit, agg in zip(units, traced, aggs):
            m = layer_metrics(agg, unit, workload.model_kind, workload.parsed_rows)
            problems += _self_check(agg, unit, m)
            m["trace.setup_s"] = unit.setup_ns / 1e9
            m["trace.run_s"] = unit.run_s
            m["trace.overhead_s"] = m["trace.run_s"] - plain.run_s
            m["trace.overhead_pct"] = 100.0 * m["trace.overhead_s"] / plain.run_s
            m["calibration.loop_us"] = (unit.calibration_before + unit.calibration_after) / 2
            per_unit.append(m)
        metrics = {}
        for name in per_unit[0]:
            values = [m[name] for m in per_unit]
            if isinstance(values[0], int):
                if len(set(values)) > 1:
                    problems.append(f"count {name} differs between traced units: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = median(values)
        span_file = workdir.parent / f"spans-{args.workload}.npz"
        tracer.save(span_file, args.workload)
        print(
            f"traced {len(traced)} unit(s) of {metrics['trace.spans']} spans, saved to {span_file.name}; "
            f"unattributed {metrics['trace.unattributed_s']:.6f} s = {metrics['trace.unattributed_pct']:.4f}% "
            f"of setup_s + run_s (limit {100 * GAP_LIMIT}%); tracing overhead "
            f"{metrics['trace.overhead_s']:.3f} s = {metrics['trace.overhead_pct']:.1f}% of untraced run_s",
            flush=True,
        )
    if units[0].digest:
        print(f"result sha256 {units[0].digest}", flush=True)
    problems = [p for unit in units + traced for p in unit.problems] + problems
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr, flush=True)
    attempted = sum(unit.attempted for unit in units + traced)
    failed = sum(unit.failed for unit in units + traced)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def settle(workload, unit, reference):
    """Check a finished unit against its bounds and the run's first unit.

    The unit's output is dropped afterwards, so peak RSS does not grow with
    the number of units a run manages to complete.
    """
    workload.check(unit)
    if unit.digest != reference.digest:
        unit.fail(KINDS, f"result files differ between same-seed units: {unit.digest} vs {reference.digest}")
    if unit.queries != reference.queries:
        unit.fail(KINDS, f"query counts differ between same-seed units: {unit.queries} vs {reference.queries}")
    unit.output = None


def _self_check(agg, unit, m):
    """Span counters against the records' exact query and row counts, and the gap."""
    problems = []
    for kind in KINDS:
        pk = agg["per_kind"][kind]
        counted = pk["batch_rows_queried"] + unit.n_components * pk["full_calls_queried"]
        if counted != unit.queries[kind]:
            unit.fail([kind], f"{kind}: spans count {counted} queries, records {unit.queries[kind]}")
    if m["sampler.rows"] != unit.expected_rows:
        unit.fail(KINDS, f"sampler.rows {m['sampler.rows']} != {unit.expected_rows}")
    if abs(m["trace.unattributed_pct"]) > 100 * GAP_LIMIT:
        problems.append(f"unattributed {m['trace.unattributed_pct']:.3f}% exceeds {100 * GAP_LIMIT}%")
    return problems


if __name__ == "__main__":
    sys.exit(main())
