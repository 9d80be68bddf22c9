"""Tests for config loading, the experiment drivers, and the CLI entry point."""

import io
import json
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from vrhmc import cli, metrics, sampler
from vrhmc.cli import (
    ExperimentConfig,
    _build_model,
    load_config,
    main,
    print_advisory,
    run_logistic,
    run_synthetic,
)
from vrhmc.sampler import run_ensemble


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


TINY_SYNTHETIC = """
# estimator comparison, desk scale
experiment = synthetic
methods = full, sg
n_components = 8
dimension = 2
max_eigenvalue = 4.0
min_eigenvalue = 1.0
steps = 60
burn_in = 20
stride = 5
chains = 2
step = 0.05
diagnostics = true
record_q = true
"""


# (key, text in a config file, the value it must read as): one row per key,
# with the exact type of the value; epoch, n_features and xi also read
# none / default / nothing as None, and no other key does
KEY_CASES = [
    ("experiment", "Logistic", "Logistic"),
    ("seed", " 12 ", 12),
    ("out", "runs/a b", "runs/a b"),
    ("methods", "SVRG, ,sg,", ("svrg", "sg")),
    ("batch", "3", 3),
    ("epoch", "40", 40),
    ("epoch", "none", None),
    ("epoch", "Default", None),
    ("step", "0.125", 0.125),
    ("gamma", "3", 3.0),
    ("xi", "1e-2", 0.01),
    ("xi", "NONE", None),
    ("steps", "1000", 1000),
    ("burn_in", "100", 100),
    ("stride", "7", 7),
    ("chains", "2", 2),
    ("diagnostics", "Yes", True),
    ("record_q", "0", False),
    ("paper_scale", "false", False),
    ("n_components", "16", 16),
    ("dimension", "4", 4),
    ("max_eigenvalue", "9", 9.0),
    ("min_eigenvalue", "0.5", 0.5),
    ("data_seed", "8", 8),
    ("data", "none", "none"),
    ("data", "data/a1a", "data/a1a"),
    ("n_features", "123", 123),
    ("n_features", "none", None),
    ("train_fraction", "0.75", 0.75),
    ("split_seed", "5", 5),
    ("ridge", "2", 2.0),
    ("standardize", "no", False),
]

# per-method override keys: (key, text, value, the SamplerConfig field it sets)
METHOD_KEY_CASES = [
    ("batch", "2", 2, "batch_size"),
    ("epoch", "30", 30, "epoch_length"),
    ("epoch", "none", None, "epoch_length"),
    ("step", "0.5", 0.5, "step"),
    ("steps", "90", 90, "n_steps"),
    ("burn_in", "10", 10, "burn_in"),
]


class TestKeyTypes:
    def test_table_covers_every_key(self):
        keys = {entry.name for entry in fields(ExperimentConfig)}
        assert {key for key, _, _ in KEY_CASES} == keys - {"method_overrides"}

    @pytest.mark.parametrize("key,text,want", KEY_CASES)
    def test_key_reads_value_and_type(self, tmp_path, key, text, want):
        config = load_config(write_config(tmp_path, f"{key} = {text}\n"))
        got = getattr(config, key)
        assert type(got) is type(want) and got == want

    @pytest.mark.parametrize("key,text,want,field", METHOD_KEY_CASES)
    def test_method_key_reads_value_and_type(self, tmp_path, key, text, want, field):
        path = write_config(tmp_path, f"steps = 100\nburn_in = 5\nsarah.{key} = {text}\n")
        config = load_config(path)
        got = config.method_overrides["sarah"][key]
        assert type(got) is type(want) and got == want
        passed = getattr(config.sampler_config("sarah"), field)
        assert type(passed) is type(want) and passed == want

    @pytest.mark.parametrize("key", ["steps", "step", "seed", "ridge", "batch"])
    def test_required_numbers_reject_none(self, tmp_path, key):
        with pytest.raises(ValueError):
            load_config(write_config(tmp_path, f"{key} = none\n"))


class TestLoadConfig:
    def test_file_parsing(self, tmp_path):
        path = write_config(
            tmp_path,
            "\n".join(
                [
                    "experiment = synthetic",
                    "methods = full, svrg  # two methods",
                    "steps = 1000",
                    "burn_in = 100",
                    "step = 0.25",
                    "diagnostics = yes",
                    "epoch = none",
                    "svrg.epoch = 50",
                    "svrg.step = 0.125",
                ]
            ),
        )
        config = load_config(path)
        assert config.methods == ("full", "svrg")
        assert config.steps == 1000 and config.step == 0.25
        assert config.diagnostics is True
        assert config.epoch is None
        assert config.method_overrides == {"svrg": {"epoch": 50, "step": 0.125}}
        sampler = config.sampler_config("svrg")
        assert sampler.epoch_length == 50 and sampler.step == 0.125
        assert config.sampler_config("full").step == 0.25

    def test_defaults_without_file(self):
        config = load_config()
        assert config == ExperimentConfig(method_overrides={})

    def test_overrides_win_over_file(self, tmp_path):
        path = write_config(tmp_path, "steps = 100\nseed = 4\n")
        config = load_config(path, {"steps": 7, "seed": None})
        assert config.steps == 7
        assert config.seed == 4  # None override is ignored

    # label_map is no config key: the label map is parse_libsvm's own argument
    @pytest.mark.parametrize("line", ["stepz = 5", "label_map = auto"])
    def test_unknown_key_reports_location(self, tmp_path, line):
        path = write_config(tmp_path, f"steps = 10\n{line}\n")
        key = line.split(" = ")[0]
        with pytest.raises(ValueError, match=rf"run\.cfg:2: unknown key '{key}'$"):
            load_config(path)

    # values from Python are not read like file text: SamplerConfig's
    # rules refuse what a cast would truncate or coerce
    @pytest.mark.parametrize(
        "key, value, reason",
        [
            ("batch", 2.5, "batch_size must be an integer, got 2.5"),
            ("batch", True, "batch_size must be an integer, got True"),
            ("steps", 10000.7, "n_steps must be an integer, got 10000.7"),
            ("step", "0.1", "step must be a real number, got '0.1'"),
            ("seed", True, "seed must be an integer, got True"),
            ("diagnostics", "no", "diagnostics must be True or False, got 'no'"),
        ],
    )
    def test_python_overrides_meet_the_sampler_rules(self, key, value, reason):
        config = load_config(None, {key: value, "methods": ("sg",)})
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            config.sampler_config("sg")
        with pytest.raises(ValueError, match=f"^sg: {re.escape(reason)}$"):
            print_advisory(config, io.StringIO())

    def test_unknown_method_prefix(self, tmp_path):
        path = write_config(tmp_path, "sgd.step = 0.1\n")
        with pytest.raises(ValueError, match="unknown method prefix"):
            load_config(path)

    def test_unsupported_method_override(self, tmp_path):
        path = write_config(tmp_path, "svrg.chains = 3\n")
        with pytest.raises(ValueError, match="unsupported override"):
            load_config(path)

    def test_malformed_line(self, tmp_path):
        path = write_config(tmp_path, "just some words\n")
        with pytest.raises(ValueError, match="expected 'key = value'"):
            load_config(path)

    def test_bad_boolean(self, tmp_path):
        path = write_config(tmp_path, "diagnostics = maybe\n")
        with pytest.raises(ValueError, match="boolean"):
            load_config(path)

    # one unreadable value per kind of reader: int, float, int | None,
    # float | None, a per-method key, bool
    @pytest.mark.parametrize(
        "line",
        [
            "steps = 1.5",
            "ridge = heavy",
            "epoch = many",
            "xi = small",
            "svrg.epoch = ten",
            "diagnostics = maybe",
        ],
    )
    def test_unreadable_value_reports_file_line_and_key(self, tmp_path, line):
        path = write_config(tmp_path, f"seed = 1\n{line}\n")
        key, value = line.split(" = ")
        where = re.escape(f"{key} = '{value}'")
        with pytest.raises(ValueError, match=rf"run\.cfg:2: .*{where}"):
            load_config(path)

    def test_unknown_method_name(self, tmp_path):
        path = write_config(tmp_path, "methods = full, sgd\n")
        with pytest.raises(ValueError, match="unknown methods"):
            load_config(path)

    def test_repeated_method_name(self, tmp_path):
        path = write_config(tmp_path, "methods = sg, full, SG, saga\n")
        with pytest.raises(ValueError, match=r"^methods lists \['sg'\] more than once$"):
            load_config(path)

    def test_paper_scale_fills_only_unset_keys(self, tmp_path):
        path = write_config(tmp_path, "steps = 60\npaper_scale = true\n")
        config = load_config(path)
        assert config.steps == 60  # explicit setting survives
        assert config.burn_in == 10_000
        assert config.stride == 1_000
        assert config.chains == 10

    def test_echo_is_json_ready(self):
        echoed = load_config().echo()
        assert echoed["methods"] == list(ExperimentConfig().methods)
        json.dumps(echoed)


class TestSynthetic:
    def test_emits_expected_files(self, tmp_path):
        config = load_config(
            write_config(tmp_path, TINY_SYNTHETIC),
            {"out": str(tmp_path / "results"), "seed": 1},
        )
        summary = run_synthetic(config)
        out = tmp_path / "results"
        for name in ("full.csv", "sg.csv", "comparison.txt", "summary.json"):
            assert (out / name).exists()

        lines = (out / "full.csv").read_text().splitlines()
        assert lines[0] == "iter,queries,potential,grad_err_sq,q_k,w2"
        assert len(lines) == 1 + 60 // 5
        first = lines[1].split(",")
        assert first[0] == "0" and len(first) == 6
        # diagnostics on a full-gradient run: exact estimate, zero error
        assert float(first[3]) == 0.0

        loaded = json.loads((out / "summary.json").read_text())
        assert set(loaded["methods"]) == {"full", "sg"}
        assert loaded["config"]["steps"] == 60
        full_entry = loaded["methods"]["full"]
        assert full_entry["theta"] == 0.0
        assert full_entry["step_over_bound"] == pytest.approx(
            config.step / full_entry["advisory_step_bound"]
        )
        assert loaded["methods"]["sg"]["theta"] is None  # unbounded
        # full samples at b = N = 8; sg at the configured batch = 1
        assert [loaded["methods"][m]["batch_size"] for m in ("full", "sg")] == [8, 1]
        assert full_entry["potential_mse"] >= 0.0
        assert len(full_entry["pooled_mean"]) == 2
        assert np.isfinite(full_entry["final_w2"])
        assert summary["target"]["mean_potential"] > 0.0

        table = (out / "comparison.txt").read_text().splitlines()
        assert table[0].split()[:3] == ["method", "potential_mse", "gradient_mse"]
        assert {row.split()[0] for row in table[1:]} == {"full", "sg"}

    def test_reruns_are_byte_identical(self, tmp_path):
        config = load_config(
            write_config(tmp_path, TINY_SYNTHETIC),
            {"out": str(tmp_path / "results")},
        )
        run_synthetic(config)
        out = tmp_path / "results"
        names = ("full.csv", "sg.csv", "comparison.txt", "summary.json")
        before = {name: (out / name).read_bytes() for name in names}
        run_synthetic(config)
        for name in names:
            assert (out / name).read_bytes() == before[name], name


    def test_too_few_pooled_samples_write_no_w2(self, tmp_path):
        # one chain keeps rows 50 and 55 past burn-in: 2 samples, and a
        # d = 2 covariance fit needs 3
        text = TINY_SYNTHETIC.replace("chains = 2", "chains = 1").replace(
            "burn_in = 20", "burn_in = 50"
        )
        config = load_config(
            write_config(tmp_path, text), {"out": str(tmp_path / "results")}
        )
        summary = run_synthetic(config)
        out = tmp_path / "results"
        loaded = json.loads((out / "summary.json").read_text())
        for method in ("full", "sg"):
            assert summary["methods"][method]["final_w2"] is None
            assert loaded["methods"][method]["final_w2"] is None
            assert "pooled_mean" not in loaded["methods"][method]
            rows = (out / f"{method}.csv").read_text().splitlines()[1:]
            assert len(rows) == 12
            assert all(row.split(",")[-1] == "nan" for row in rows)
        table = (out / "comparison.txt").read_text().splitlines()
        assert [row.split()[3] for row in table[1:]] == ["n/a", "n/a"]

    def test_queries_per_step_uses_each_methods_step_count(self, tmp_path):
        config = load_config(
            write_config(tmp_path, TINY_SYNTHETIC + "sg.steps = 40\n"),
            {"out": str(tmp_path / "results")},
        )
        run_synthetic(config)
        rows = (tmp_path / "results" / "comparison.txt").read_text().splitlines()
        per_step = {row.split()[0]: row.split()[-1] for row in rows[1:]}
        # full queries all N = 8 components per step, sg at b = 1 one
        assert per_step == {"full": "8", "sg": "1"}

    def test_wall_times_go_to_stderr_not_into_results(self, tmp_path, capsys):
        config = load_config(
            write_config(tmp_path, TINY_SYNTHETIC),
            {"out": str(tmp_path / "results")},
        )
        out = tmp_path / "results"
        names = ("full.csv", "sg.csv", "comparison.txt", "summary.json")
        runs = []
        for _ in range(2):
            run_synthetic(config)
            runs.append({name: (out / name).read_bytes() for name in names})
        # the runs' wall times differ, so identical bytes mean none leaked in
        assert runs[0] == runs[1]
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in lines] == ["full", "sg"] * 2
        for line in lines:
            assert "s wall over 2 chain(s)" in line
            assert "us/chain-step" in line and "queries/s" in line
            assert re.search(r", peak RSS \d+\.\d MB$", line)


class TestResultDirectory:
    """A result directory holds one whole run's files, or the previous ones."""

    @staticmethod
    def snapshot(directory):
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    def first_run(self, tmp_path, methods="sg, saga"):
        text = TINY_SYNTHETIC.replace("methods = full, sg", f"methods = {methods}")
        path = write_config(tmp_path, text.replace("steps = 60", "steps = 300"))
        out = tmp_path / "res"
        assert main(["synthetic", "--config", str(path), "--out", str(out)]) == 0
        return path, out

    def test_divergent_rerun_leaves_the_previous_files(self, tmp_path, capsys):
        path, out = self.first_run(tmp_path)
        before = self.snapshot(out)
        assert set(before) == {"sg.csv", "saga.csv", "comparison.txt", "summary.json"}
        rerun = write_config(
            tmp_path,
            path.read_text().replace("steps = 300", "steps = 400") + "saga.step = 1000\n",
            name="rerun.cfg",
        )
        capsys.readouterr()
        with pytest.raises(sampler.ChainDivergence, match="^saga chain"):
            main(["synthetic", "--config", str(rerun), "--out", str(out)])
        assert self.snapshot(out) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rerun.cfg", "res", "run.cfg"]
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("sg: ")  # sg finished, and still wrote nothing
        assert err[-1] == f"run stopped; no results written, {out.resolve()} left as it was"

    def test_interrupt_mid_method_leaves_the_previous_files(self, tmp_path, monkeypatch, capsys):
        path, out = self.first_run(tmp_path)
        before = self.snapshot(out)
        real_run_chain, calls = sampler.run_chain, []

        def interrupted(config, *args, **kwargs):
            calls.append(config.estimator)
            if calls == ["sg", "sg", "saga", "saga"]:  # saga's second chain
                raise KeyboardInterrupt
            return real_run_chain(config, *args, **kwargs)

        monkeypatch.setattr(sampler, "run_chain", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["synthetic", "--config", str(path), "--out", str(out), "--seed", "5"])
        assert self.snapshot(out) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["res", "run.cfg"]
        assert capsys.readouterr().err.endswith(f"{out.resolve()} left as it was\n")

    def test_failure_between_renames_names_what_changed(self, tmp_path, monkeypatch, capsys):
        path, out = self.first_run(tmp_path, methods="sg, saga, svrg")
        before = self.snapshot(out)
        real_replace, calls = cli.os.replace, []

        def second_call_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OSError("rename failed")
            return real_replace(*args)

        monkeypatch.setattr(cli.os, "replace", second_call_fails)
        capsys.readouterr()
        argv = ["synthetic", "--config", str(path), "--out", str(out), "--estimator", "sg",
                "--seed", "5"]
        with pytest.raises(OSError, match="rename failed"):
            main(argv)
        after = self.snapshot(out)
        assert set(after) == {"sg.csv", "comparison.txt", "summary.json"}
        assert after["sg.csv"] != before["sg.csv"]
        assert after["comparison.txt"] == before["comparison.txt"]
        assert after["summary.json"] == before["summary.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["res", "run.cfg"]
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"run stopped; in {out.resolve()}: removed svrg.csv, removed saga.csv, "
            "wrote sg.csv; the rest left as it was"
        )

    def test_failed_first_rename_leaves_no_new_directory(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, TINY_SYNTHETIC)
        out = tmp_path / "res"

        def first_call_fails(*args):
            raise OSError("rename failed")

        monkeypatch.setattr(cli.os, "replace", first_call_fails)
        capsys.readouterr()
        with pytest.raises(OSError, match="rename failed"):
            main(["synthetic", "--config", str(path), "--out", str(out)])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"run stopped; no results written, {out.resolve()} left as it was"
        )

    def test_rerun_with_fewer_methods_drops_their_stale_files(self, tmp_path):
        path, out = self.first_run(tmp_path, methods="sg, saga, svrg")
        (out / "notes.txt").write_text("kept\n")
        fresh = tmp_path / "fresh"
        for target in (out, fresh):
            argv = ["synthetic", "--config", str(path), "--out", str(target), "--estimator", "sg"]
            assert main(argv) == 0
        after, want = self.snapshot(out), self.snapshot(fresh)
        assert after.pop("notes.txt") == b"kept\n"
        assert set(after) == set(want) == {"sg.csv", "comparison.txt", "summary.json"}
        # summary.json echoes the out directory, and nothing else differs
        summaries = [json.loads(files.pop("summary.json")) for files in (after, want)]
        for summary in summaries:
            summary["config"].pop("out")
        assert after == want and summaries[0] == summaries[1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "res", "run.cfg"]


class TestLogistic:
    @pytest.fixture
    def data_file(self, tmp_path):
        rng = np.random.default_rng(5)
        lines = []
        for _ in range(24):
            label = rng.choice([-1, 1])
            features = rng.standard_normal(3).round(3)
            cells = " ".join(f"{j + 1}:{v}" for j, v in enumerate(features))
            lines.append(f"{label:+d} {cells}")
        path = tmp_path / "toy.libsvm"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_emits_expected_files(self, tmp_path, data_file, capsys):
        config = load_config(
            None,
            {
                "experiment": "logistic",
                "data": str(data_file),
                "train_fraction": 0.5,
                "methods": ("full", "sg"),
                "steps": 40,
                "burn_in": 10,
                "stride": 5,
                "chains": 2,
                "step": 0.1,
                "out": str(tmp_path / "results"),
            },
        )
        summary = run_logistic(config)
        out = tmp_path / "results"
        timing = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in timing] == ["full", "sg"]
        assert summary["dataset"]["n_train"] == 12
        assert summary["dataset"]["n_test"] == 12
        assert summary["dataset"]["n_features"] == 3

        lines = (out / "sg.csv").read_text().splitlines()
        assert lines[0] == "method,iter,queries,potential,nll,grad_err_sq"
        assert len(lines) == 1 + 40 // 5
        cells = lines[1].split(",")
        assert cells[0] == "sg" and len(cells) == 6
        assert float(cells[4]) > 0.0  # NLL of the zero vector is log 2

        loaded = json.loads((out / "summary.json").read_text())
        for method in ("full", "sg"):
            assert loaded["methods"][method]["final_test_nll"] > 0.0

    def test_final_test_nll_pools_the_methods_own_burn_in(self, tmp_path, data_file):
        path = write_config(
            tmp_path,
            f"experiment = logistic\ndata = {data_file}\ntrain_fraction = 0.5\n"
            "methods = sg\nsteps = 40\nburn_in = 20\nsg.burn_in = 5\n"
            "stride = 5\nchains = 2\nstep = 0.1\n",
        )
        config = load_config(path, {"out": str(tmp_path / "results")})
        entry = run_logistic(config)["methods"]["sg"]
        assert entry["burn_in"] == 5

        model, (test_features, test_labels) = _build_model(config, "logistic")
        ensemble = run_ensemble(config.sampler_config("sg"), model)

        def pooled_nll(first_row):
            tail = ensemble.iterations >= first_row
            pooled = np.concatenate([r.positions[tail] for r in ensemble.records])
            return metrics.test_nll(test_features, test_labels, pooled)

        assert entry["final_test_nll"] == pooled_nll(5)
        assert entry["final_test_nll"] != pooled_nll(20)

    def test_requires_data_path(self):
        config = load_config(None, {"experiment": "logistic"})
        with pytest.raises(ValueError, match="data"):
            run_logistic(config)

    def test_record_q_computes_no_q_values(self, tmp_path, data_file, monkeypatch):
        # the logistic outputs have no q column, so none may be computed
        def refuse(*args):
            raise AssertionError("q_metric called on a logistic run")

        monkeypatch.setattr(sampler, "q_metric", refuse)
        path = write_config(
            tmp_path,
            f"experiment = logistic\ndata = {data_file}\ntrain_fraction = 0.5\n"
            "methods = sg, saga\nsteps = 20\nburn_in = 5\nstride = 5\n"
            "chains = 1\nrecord_q = true\n",
        )
        config = load_config(path, {"out": str(tmp_path / "results")})
        summary = run_logistic(config)
        assert set(summary["methods"]) == {"sg", "saga"}

    def test_ridge_zero_samples_without_a_step_bound(self, tmp_path, data_file):
        path = write_config(
            tmp_path,
            f"experiment = logistic\ndata = {data_file}\ntrain_fraction = 0.5\n"
            "methods = sg, saga\nsteps = 20\nburn_in = 5\nstride = 5\n"
            "chains = 1\nridge = 0\n",
        )
        config = load_config(path, {"out": str(tmp_path / "results")})
        summary = run_logistic(config)
        assert summary["dataset"]["strong_convexity"] == 0.0
        loaded = json.loads((tmp_path / "results" / "summary.json").read_text())
        for method in ("sg", "saga"):
            assert loaded["methods"][method]["advisory_step_bound"] is None
            assert loaded["methods"][method]["step_over_bound"] is None
        assert loaded["methods"]["saga"]["theta"] > 0.0


class TestAdvisory:
    def test_bound_on_identity_conditioned_model(self):
        # one eigenvalue 0.5 in one dimension: L = 1, kappa = 1, so the
        # full-gradient bound is 1 / (10 kappa L) = 0.1
        config = load_config(
            None,
            {
                "methods": ("full", "sg"),
                "dimension": 1,
                "n_components": 4,
                "max_eigenvalue": 0.5,
                "min_eigenvalue": 0.5,
            },
        )
        stream = io.StringIO()
        text = print_advisory(config, stream)
        assert text == stream.getvalue()
        lines = text.splitlines()
        assert lines[0] == "smoothness L = 1, condition number = 1"
        full_row = next(line for line in lines if line.startswith("full"))
        assert "0.1" in full_row.split()
        sg_row = next(line for line in lines if line.startswith("sg"))
        assert "n/a (unbounded variance)" in sg_row

    def test_ridge_zero_prints_no_bound(self, tmp_path, capsys):
        data = tmp_path / "toy.libsvm"
        data.write_text("+1 1:0.5 2:-1\n-1 1:1.5\n+1 2:2\n-1 1:-0.5 2:0.25\n")
        path = write_config(
            tmp_path,
            f"experiment = logistic\ndata = {data}\ntrain_fraction = 0.5\n"
            "methods = sg, saga\nridge = 0\n",
        )
        assert main(["advisory", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("condition number = inf")
        saga_row = next(line for line in lines if line.startswith("saga"))
        assert "n/a (m = 0)" in saga_row and saga_row.split()[-1] == "n/a"


# N = 50 components; every method but the one a case names is valid
FIFTY_COMPONENTS = """
methods = full, sg, saga, sarah, sarge
n_components = 50
dimension = 2
steps = 120
burn_in = 100
stride = 10
chains = 1
step = 0.05
"""

BAD_METHOD_CASES = [
    ("sarge", "sarge.batch = 60", r"batch_size must be in \[1, 50\], got 60"),
    ("sarge", "sarge.steps = 50", "burn_in must be smaller than n_steps"),
    ("full", "full.batch = 60", r"batch_size must be in \[1, 50\], got 60"),
    ("sarah", "sarah.step = nan", "step must be positive and finite"),
    ("sarah", "sarah.step = inf", "step must be positive and finite"),
]


class TestFailBeforeSampling:
    @pytest.mark.parametrize(
        "method,line,reason", BAD_METHOD_CASES,
        ids=("sarge-batch", "sarge-steps", "full-batch", "sarah-nan-step",
             "sarah-inf-step"),
    )
    def test_bad_method_setting_fails_naming_the_method(
        self, tmp_path, capsys, method, line, reason
    ):
        out = tmp_path / "out"
        path = write_config(tmp_path, FIFTY_COMPONENTS + line + "\n")
        config = load_config(path, {"out": str(out)})
        with pytest.raises(ValueError, match=f"^{method}: {reason}$"):
            run_synthetic(config)
        assert not out.exists()
        assert capsys.readouterr().err == ""  # no method sampled
        with pytest.raises(ValueError, match=f"^{method}: {reason}$"):
            print_advisory(config, io.StringIO())


    @pytest.mark.parametrize(
        "key, text, reason",
        [
            ("n_components", "0", "n_components must be at least 1, got 0"),
            ("dimension", "0", "dimension must be at least 1, got 0"),
            ("max_eigenvalue", "inf", "max_eigenvalue must be positive and finite"),
        ],
    )
    def test_degenerate_synthetic_target_fails_naming_the_key(
        self, tmp_path, capsys, key, text, reason
    ):
        out = tmp_path / "out"
        path = write_config(tmp_path, f"{TINY_SYNTHETIC}{key} = {text}\n")
        with pytest.raises(ValueError, match=f"^{reason}$"):
            main(["synthetic", "--config", str(path), "--out", str(out)])
        assert list(tmp_path.iterdir()) == [path]  # nothing written
        assert "no results written" in capsys.readouterr().err


class TestMain:
    def test_estimator_flag_is_read_in_lower_case(self, tmp_path):
        config_path = write_config(tmp_path, TINY_SYNTHETIC)
        out = tmp_path / "only-sg"
        args = ["synthetic", "--config", str(config_path), "--out", str(out)]
        assert main([*args, "--estimator", "SG"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "comparison.txt", "sg.csv", "summary.json"
        ]

    def test_estimator_flag_narrows_methods(self, tmp_path, capsys):
        config_path = write_config(tmp_path, TINY_SYNTHETIC)
        out = tmp_path / "only-full"
        code = main(
            [
                "synthetic",
                "--config",
                str(config_path),
                "--out",
                str(out),
                "--estimator",
                "full",
            ]
        )
        assert code == 0
        assert (out / "full.csv").exists()
        assert not (out / "sg.csv").exists()
        assert "results written to" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synthetic", "logistic", "advisory"])
    def test_each_flag_sets_its_config_key(self, tmp_path, monkeypatch, command):
        seen = []
        entry = "print_advisory" if command == "advisory" else f"run_{command}"
        monkeypatch.setattr(cli, entry, seen.append)
        path = write_config(tmp_path, "experiment = logistic\nsteps = 60\nburn_in = 5\n")
        flags = {"--estimator": "SARAH", "--batch": "2", "--epoch": "4", "--step": "0.25"}
        want = {"experiment": "logistic", "methods": ("sarah",), "batch": 2, "epoch": 4,
                "step": 0.25, "steps": 60, "burn_in": 5}
        if command != "advisory":
            out = str(tmp_path / "o")
            flags.update({"--seed": "3", "--out": out, "--paper-scale": None, "--diagnostics": None})
            want.update(experiment=command, seed=3, out=out, paper_scale=True, diagnostics=True,
                        stride=1_000)
        argv = [command, "--config", str(path)]
        for flag, value in flags.items():
            argv += [flag] if value is None else [flag, value]
        assert main(argv) == 0
        [config] = seen
        assert {key: getattr(config, key) for key in want} == want

    @pytest.mark.parametrize(
        "flag", [["--seed", "1"], ["--out", "o"], ["--paper-scale"], ["--diagnostics"]]
    )
    def test_advisory_refuses_the_flags_it_does_not_read(self, tmp_path, capsys, flag):
        path = write_config(tmp_path, "dimension = 1\nn_components = 2\n")
        with pytest.raises(SystemExit) as stop:
            main(["advisory", "--config", str(path), *flag])
        assert stop.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_advisory_prints_and_exits_clean(self, tmp_path, capsys):
        path = write_config(tmp_path, "dimension = 1\nn_components = 2\n")
        assert main(["advisory", "--config", str(path)]) == 0
        captured = capsys.readouterr().out
        assert "step_bound" in captured

    def test_module_entry_point(self, tmp_path):
        path = write_config(tmp_path, "dimension = 1\nn_components = 2\n")
        result = subprocess.run(
            [sys.executable, "-m", "vrhmc", "advisory", "--config", str(path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "method" in result.stdout
