"""Tests for config loading, the experiment drivers, and the CLI entry point."""

import io
import json
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from vrhmc import metrics
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
    ("label_map", "auto", "auto"),
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

    def test_unknown_key_reports_location(self, tmp_path):
        path = write_config(tmp_path, "steps = 10\nstepz = 5\n")
        with pytest.raises(ValueError, match=r"run\.cfg:2.*stepz"):
            load_config(path)

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


class TestMain:
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
