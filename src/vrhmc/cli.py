"""Experiment driver and command-line interface.

Three subcommands:

    synthetic   estimator comparison on the analytic quadratic target
    logistic    estimator comparison on Bayesian logistic regression
    advisory    print the theory-side step-size bound per estimator

Configuration is a flat key = value text file ('#' starts a comment) plus
command-line overrides. Keys that apply to a single method are prefixed
with the method name, e.g. 'svrg.epoch = 500'. Given the same config and
seed, every emitted file is byte-identical between runs; wall-clock times
are therefore reported on stderr only, never written into results: one
line per method with its chains' wall seconds, microseconds per
chain-step, component-gradient queries per second, and the process's
peak resident memory so far.

A run's files reach the result directory only once every method has
finished: they are written to a staging directory beside it and renamed
in, and the names this CLI writes that the run did not produce are
removed. A run that diverges, raises or is interrupted leaves the result
directory as it was; one stopped during the final renames says on stderr
which files it had already removed or renamed in.

Example config:

    experiment = synthetic
    n_components = 1000
    dimension = 5
    methods = full, sg, svrg, saga, sarah, sarge
    step = 0.1
    steps = 20000
    burn_in = 2000
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import resource
import shutil
import sys
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import dataio, metrics
from .estimators import ESTIMATOR_KINDS, mseb_descriptor
from .potentials import LogisticPotential, QuadraticPotential
from .sampler import SamplerConfig, run_ensemble, wasserstein_tracker

__all__ = [
    "ExperimentConfig",
    "load_config",
    "run_synthetic",
    "run_logistic",
    "print_advisory",
    "main",
]

_PAPER_SCALE = {"steps": 10_010_000, "burn_in": 10_000, "stride": 1_000, "chains": 10}

# every name a run writes into its result directory
_RESULT_NAMES = (*(f"{kind}.csv" for kind in ESTIMATOR_KINDS), "comparison.txt", "summary.json")


@dataclass
class ExperimentConfig:
    """Resolved experiment description (defaults are desk scale)."""

    experiment: str = "synthetic"
    seed: int = 0
    out: str = "results"
    methods: tuple = ESTIMATOR_KINDS
    batch: int = 1
    epoch: int | None = None
    step: float = 0.1
    gamma: float = 2.0
    xi: float | None = None
    steps: int = 20_000
    burn_in: int = 2_000
    stride: int = 10
    chains: int = 4
    diagnostics: bool = False
    record_q: bool = False
    paper_scale: bool = False
    # synthetic target
    n_components: int = 1000
    dimension: int = 5
    max_eigenvalue: float = 10.0
    min_eigenvalue: float = 1.0
    data_seed: int = 7
    # logistic target
    data: str | None = None
    n_features: int | None = None
    train_fraction: float = 0.8
    split_seed: int = 0
    ridge: float = 1.0
    standardize: bool = True
    # per-method overrides, e.g. {"svrg": {"epoch": 500}}
    method_overrides: dict = field(default_factory=dict)

    def sampler_config(self, method, record_q=False):
        override = self.method_overrides.get(method, {})
        per_method = {
            name: override.get(key, getattr(self, key)) for key, name in _METHOD_KEYS.items()
        }
        return SamplerConfig(
            estimator=method,
            gamma=self.gamma,
            xi=self.xi,
            record_stride=self.stride,
            n_chains=self.chains,
            seed=self.seed,
            diagnostics=self.diagnostics,
            record_q=record_q,
            **per_method,
        )

    def echo(self):
        """Flat dict of resolved settings for the JSON summary."""
        out = {}
        for entry in fields(self):
            value = getattr(self, entry.name)
            if isinstance(value, tuple):
                value = list(value)
            out[entry.name] = value
        return out


# keys a method prefix may override ('svrg.epoch = 500'), and the
# SamplerConfig field each one sets
_METHOD_KEYS = {
    "steps": "n_steps", "step": "step", "batch": "batch_size", "epoch": "epoch_length",
    "burn_in": "burn_in",
}

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_READERS = {
    "int": int,
    "float": float,
    "bool": lambda text: _BOOL_WORDS[text.lower()],
    "tuple": lambda text: tuple(p.strip().lower() for p in text.split(",") if p.strip()),
}


def _reader(annotation):
    base, _, optional = annotation.partition(" | ")
    read = _READERS.get(base, str)
    if not (optional and read in (int, float)):
        return read
    # a number annotated '| None' also reads none, default or nothing as None
    return lambda value: None if str(value).lower() in ("", "none", "default") else read(value)


# every ExperimentConfig key -> the reader of its config-file text
_KEY_TYPES = {entry.name: _reader(entry.type) for entry in fields(ExperimentConfig)}


def load_config(path=None, overrides=None):
    """Build an ExperimentConfig from a flat key = value file plus overrides.

    overrides is a {key: value} dict that wins over the file, None values
    aside; main passes its parsed flags here. Its values are taken as
    given, so SamplerConfig's rules check the sampler settings among them
    (sampler_config refuses batch = 2.5, say). Unknown keys and malformed
    lines are errors.
    """
    settings = {}
    method_overrides = {}
    if path is not None:
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            if "." in key:
                method, sub = key.split(".", 1)
                method = method.lower()
                if method not in ESTIMATOR_KINDS:
                    raise ValueError(f"{path}:{lineno}: unknown method prefix {method!r}")
                if sub not in _METHOD_KEYS:
                    raise ValueError(f"{path}:{lineno}: unsupported override {key!r}")
                store, name = method_overrides.setdefault(method, {}), sub
            elif key in _KEY_TYPES:
                store, name = settings, key
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                store[name] = _KEY_TYPES[name](text)
            except (KeyError, ValueError) as err:  # KeyError: not in _BOOL_WORDS
                reason = "not a boolean word" if isinstance(err, KeyError) else err
                raise ValueError(
                    f"{path}:{lineno}: cannot read {key} = {text!r}: {reason}"
                ) from None
    if overrides:
        settings.update({k: v for k, v in overrides.items() if v is not None})
    settings["method_overrides"] = method_overrides
    config = ExperimentConfig(**settings)
    if config.paper_scale:
        for key, value in _PAPER_SCALE.items():
            if key not in settings:
                setattr(config, key, value)
    bad = [m for m in config.methods if m not in ESTIMATOR_KINDS]
    if bad:
        raise ValueError(f"unknown methods {bad}; choose from {ESTIMATOR_KINDS}")
    repeated = sorted({m for m in config.methods if config.methods.count(m) > 1})
    if repeated:
        raise ValueError(f"methods lists {repeated} more than once")
    return config


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _build_model(config, experiment):
    """The target of an experiment, and its held-out (features, labels).

    The held-out pair is None for the synthetic target. The logistic data
    is parsed, split, and each side standardized if configured; the
    parsed whole is released once it is split.
    """
    if experiment != "logistic":
        model = QuadraticPotential.random(
            n_components=config.n_components,
            dimension=config.dimension,
            max_eigenvalue=config.max_eigenvalue,
            min_eigenvalue=config.min_eigenvalue,
            seed=config.data_seed,
        )
        return model, None
    if config.data is None:
        raise ValueError("logistic experiments need 'data = <libsvm file>'")
    train, test = dataio.train_test_split(
        dataio.parse_libsvm(config.data, n_features=config.n_features),
        config.train_fraction,
        config.split_seed,
    )
    train_features, test_features = train.features, test.features
    if config.standardize:
        train_features, test_features, _ = dataio.standardize(
            train_features, test_features
        )
    model = LogisticPotential(train_features, train.labels, ridge=config.ridge)
    return model, (test_features, test.labels)


def _advisory(model, sampler_config):
    """MSEB descriptor of one method and its sufficient step size h <= bound.

    The theory wants L h <= min(1, 1/sqrt(theta)) / (10 kappa). The bound
    is None for estimators without a finite theta and for targets without
    strong convexity (m = 0, so kappa is infinite).
    """
    descriptor = mseb_descriptor(
        sampler_config.estimator,
        model.n_components,
        batch_size=sampler_config.batch_size,
        epoch_length=sampler_config.epoch_length,
    )
    if not descriptor.bounded or math.isinf(model.condition_number):
        return descriptor, None
    theta = descriptor.theta
    cap = 1.0 if theta == 0.0 else min(1.0, 1.0 / math.sqrt(theta))
    return descriptor, cap / (10.0 * model.condition_number * model.smoothness)


def _method_summary(model, sampler_config, advisory, ensemble):
    descriptor, bound = advisory
    summary = {
        "estimator": sampler_config.estimator,
        # full samples at b = N, whatever batch is configured
        "batch_size": (
            model.n_components if sampler_config.estimator == "full" else sampler_config.batch_size
        ),
        "epoch_length": sampler_config.epoch_length,
        "step": sampler_config.step,
        "xi": sampler_config.resolve_xi(model),
        "gamma": sampler_config.gamma,
        "n_steps": sampler_config.n_steps,
        "burn_in": sampler_config.burn_in,
        "theta": None if math.isinf(descriptor.theta) else descriptor.theta,
        "advisory_step_bound": bound,
        "step_over_bound": None if bound is None else sampler_config.step / bound,
        "total_queries": [r.total_queries for r in ensemble.records],
        "mean_potential": [r.mean_potential for r in ensemble.records],
    }
    if sampler_config.diagnostics:
        summary["gradient_mse"] = float(
            np.mean([metrics.gradient_mse(r) for r in ensemble.records])
        )
    if ensemble.pooled is not None:
        summary["pooled_mean"] = ensemble.pooled.mean
        if model.dimension <= 10:
            summary["pooled_cov"] = ensemble.pooled.cov
    return summary


def _report_timing(method, n_steps, ensemble):
    """One stderr line: the method's chain wall time, per step and per query,
    and the peak resident memory of the process so far."""
    records = ensemble.records
    wall = sum(r.wall_time for r in records)
    chain_steps = n_steps * len(records)
    queries = sum(r.total_queries for r in records)
    print(
        f"{method}: {wall:.3f} s wall over {len(records)} chain(s), "
        f"{1e6 * wall / chain_steps:.3g} us/chain-step, "
        f"{queries / wall if wall > 0 else math.inf:.3g} queries/s, "
        f"peak RSS {_peak_rss_mb():.1f} MB",
        file=sys.stderr,
    )


def _peak_rss_mb():
    # ru_maxrss counts kilobytes on Linux and bytes on macOS
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _resolve_methods(config, model, record_q=False):
    """(method, SamplerConfig, advisory) of every method, all built before
    any samples, so a bad setting fails first and the error names its method."""
    resolved = []
    for method in config.methods:
        try:
            sampler_config = config.sampler_config(method, record_q)
            resolved.append((method, sampler_config, _advisory(model, sampler_config)))
        except ValueError as err:
            raise ValueError(f"{method}: {err}") from None
    return resolved


def _run_methods(config, model, record_q):
    """Run each configured method's ensemble; yield (method, ensemble, entry).

    entry is the method's summary.json record, which callers extend.
    record_q asks the chains for q values (O(N d) per recorded row); only
    a driver that writes them passes config.record_q.
    """
    for method, sampler_config, advisory in _resolve_methods(config, model, record_q):
        ensemble = run_ensemble(sampler_config, model)
        _report_timing(method, sampler_config.n_steps, ensemble)
        yield method, ensemble, _method_summary(model, sampler_config, advisory, ensemble)


def _publish(out_dir, files, summary):
    """Move a finished run's files and summary.json into out_dir.

    files maps each name to its text. Everything is written to a staging
    directory beside out_dir first; then the names in _RESULT_NAMES that
    this run did not write are removed from out_dir, and the staged files
    are renamed in, summary.json last. Other files in out_dir are left
    alone. A failure before the renames leaves out_dir as it was, and
    removes the directories this call made (out_dir and its missing
    parents) that are still empty; one during them leaves the exception a
    published attribute listing what was already done ('removed sg.csv',
    'wrote full.csv'), in order.
    """
    summary_text = json.dumps(_jsonable(summary), indent=2, sort_keys=True) + "\n"
    files = {**files, "summary.json": summary_text}
    out_dir = Path(out_dir)
    # the directories this call makes, innermost first
    made = list(itertools.takewhile(lambda path: not path.exists(), out_dir.parents))
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.staging-", dir=out_dir.parent))
    done = []
    try:
        for name, text in files.items():
            (staging / name).write_text(text)
        if not out_dir.is_dir():
            made.insert(0, out_dir)
        out_dir.mkdir(exist_ok=True)
        for name in _RESULT_NAMES:
            if name not in files and os.path.lexists(out_dir / name):
                (out_dir / name).unlink()
                done.append(f"removed {name}")
        for name in files:
            os.replace(staging / name, out_dir / name)
            done.append(f"wrote {name}")
    except BaseException as err:
        err.published = done
        raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
        if not done:
            # nothing was published; a directory another writer has filled
            # meanwhile stays
            for path in made:
                with contextlib.suppress(OSError):
                    path.rmdir()
    return summary


def _csv(header, columns):
    """CSV text of equal-length columns; a None column (not the first) is nan.

    str cells are written verbatim, integers via str(int) and other
    numbers via repr(float), so the same columns always render to
    identical bytes.
    """

    def cell(value):
        if isinstance(value, str):
            return value
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return repr(float(value))

    lines = [header]
    for r in range(len(columns[0])):
        lines.append(",".join("nan" if c is None else cell(c[r]) for c in columns))
    return "\n".join(lines) + "\n"


def _comparison_table(rows):
    widths = [
        max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))
    ]
    lines = []
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines) + "\n"


def run_synthetic(config):
    """Compare the configured estimators on the quadratic target.

    Writes one CSV of across-chain mean series per method, a comparison
    table, and summary.json into config.out once every method has run;
    returns the summary dict.
    """
    model, _ = _build_model(config, "synthetic")
    target_mean, target_cov = model.target_moments()
    reference = model.mean_potential()
    summary = {
        "config": config.echo(),
        "target": {
            "mean_potential": reference,
            "mean": target_mean,
            "smoothness": model.smoothness,
            "strong_convexity": model.strong_convexity,
        },
        "methods": {},
    }
    table = [["method", "potential_mse", "gradient_mse", "final_w2", "mean_queries_per_step"]]
    files = {}
    for method, ensemble, entry in _run_methods(config, model, config.record_q):
        # pooled is None below the d + 1 samples the tracker needs to fit
        w2 = None
        entry["final_w2"] = None
        if ensemble.pooled is not None:
            w2 = wasserstein_tracker(ensemble.records, target_mean, target_cov)
            finite_w2 = w2[np.isfinite(w2)]
            entry["final_w2"] = float(finite_w2[-1]) if finite_w2.size else None
        entry["potential_mse"] = metrics.potential_mse(ensemble.records, reference)
        summary["methods"][method] = entry
        columns = [
            ensemble.iterations,
            ensemble.mean_queries,
            ensemble.mean_potentials,
            ensemble.mean_grad_err_sq,
            ensemble.mean_q_values,
            w2,
        ]
        files[f"{method}.csv"] = _csv("iter,queries,potential,grad_err_sq,q_k,w2", columns)
        gradient_cell = (
            f"{entry['gradient_mse']:.6g}" if "gradient_mse" in entry else "off"
        )
        queries = np.mean(entry["total_queries"]) / entry["n_steps"]
        table.append(
            [
                method,
                f"{entry['potential_mse']:.6g}",
                gradient_cell,
                f"{entry['final_w2']:.6g}" if entry["final_w2"] is not None else "n/a",
                f"{queries:.3g}",
            ]
        )
    files["comparison.txt"] = _comparison_table(table)
    return _publish(config.out, files, summary)


def run_logistic(config):
    """Compare the configured estimators on penalized logistic regression.

    Writes per-method CSVs (method,iter,queries,potential,nll,grad_err_sq)
    and summary.json into config.out once every method has run; returns
    the summary dict.
    """
    model, (test_features, test_labels) = _build_model(config, "logistic")
    summary = {
        "config": config.echo(),
        "dataset": {
            "n_train": model.n_components,
            "n_test": test_labels.shape[0],
            "n_features": model.dimension,
            "smoothness": model.smoothness,
            "strong_convexity": model.strong_convexity,
        },
        "methods": {},
    }
    files = {}
    # the logistic CSVs and summary have no q column, so no q is computed
    for method, ensemble, entry in _run_methods(config, model, record_q=False):
        # held-out NLL along the trace, averaged across chains
        nll_rows = np.mean(
            [
                metrics.test_nll_per_sample(
                    test_features, test_labels, record.positions
                )
                for record in ensemble.records
            ],
            axis=0,
        )
        if len(ensemble.samples):
            entry["final_test_nll"] = metrics.test_nll(
                test_features, test_labels, ensemble.samples
            )
        summary["methods"][method] = entry
        columns = [
            [method] * len(ensemble.iterations),
            ensemble.iterations,
            ensemble.mean_queries,
            ensemble.mean_potentials,
            nll_rows,
            ensemble.mean_grad_err_sq,
        ]
        files[f"{method}.csv"] = _csv("method,iter,queries,potential,nll,grad_err_sq", columns)
    return _publish(config.out, files, summary)


def print_advisory(config, stream=None):
    """Report the theoretical step-size bound per configured method."""
    stream = stream or sys.stdout
    model, _ = _build_model(config, config.experiment)
    rows = [["method", "theta", "step_bound", "configured_step", "step_over_bound"]]
    for method, sampler_config, (descriptor, bound) in _resolve_methods(config, model):
        theta, step = f"{descriptor.theta:.6g}", f"{sampler_config.step:.6g}"
        if bound is None:
            why = "unbounded variance" if not descriptor.bounded else "m = 0"
            rows.append([method, theta, f"n/a ({why})", step, "n/a"])
        else:
            rows.append(
                [method, theta, f"{bound:.6g}", step, f"{sampler_config.step / bound:.3g}"]
            )
    text = (
        f"smoothness L = {model.smoothness:.6g}, "
        f"condition number = {model.condition_number:.6g}\n"
        + _comparison_table(rows)
    )
    stream.write(text)
    return text


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="vrhmc",
        description="Hamiltonian Monte Carlo with variance-reduced gradient estimators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each flag but --config sets the config key its dest names
    for name, blurb in (
        ("synthetic", "estimator comparison on the analytic quadratic target"),
        ("logistic", "estimator comparison on logistic regression data"),
        ("advisory", "print theoretical step-size bounds"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", help="flat key = value config file")
        if name != "advisory":  # the advisory samples nothing and writes no file
            cmd.set_defaults(experiment=name)
            cmd.add_argument("--seed", type=int, help="master seed override")
            cmd.add_argument("--out", help="output directory")
            cmd.add_argument("--paper-scale", action="store_const", const=True,
                             help="switch iteration counts to full-scale magnitudes")
            cmd.add_argument("--diagnostics", action="store_const", const=True,
                             help="record per-step squared gradient error")
        cmd.add_argument("--estimator", dest="methods", metavar="ESTIMATOR",
                         type=lambda text: (text.lower(),), help="run only this estimator")
        cmd.add_argument("--batch", type=int, help="batch size override")
        cmd.add_argument("--epoch", type=int, help="epoch length override")
        cmd.add_argument("--step", type=float, help="step size override")
    overrides = vars(parser.parse_args(argv))
    command = overrides.pop("command")
    config = load_config(overrides.pop("config"), overrides)

    if command == "advisory":
        print_advisory(config)
        return 0
    run = run_synthetic if command == "synthetic" else run_logistic
    out = Path(config.out).resolve()
    try:
        run(config)
    except BaseException as err:
        done = ", ".join(getattr(err, "published", ()))
        state = f"in {out}: {done}; the rest" if done else f"no results written, {out}"
        print(f"run stopped; {state} left as it was", file=sys.stderr)
        raise
    print(f"results written to {out}", file=sys.stderr)
    return 0
