"""Stored sha256 hashes of seeded trajectories and of the CLI's outputs.

Trajectory cases run 200-step chains through run_chain for every
estimator on a small quadratic and a small logistic target at batch
sizes 1, 3 and N, and hash the recorded positions, velocities,
potentials, queries and squared gradient errors. Output cases hash every
file run_synthetic and run_logistic write for small configs, and the text
print_advisory prints for both targets. The logistic runs cover a dense
toy input with and without standardization, a sparse input with
explicit zeros, absent entries and constant columns (an intercept and an
all-zero feature), standardized, and an input with {0, 1} labels, a
blank line and a declared feature the data never uses. Every run goes
through the working directory of the test with relative paths, so the
config echo in summary.json is the same on every machine.

A refactor must leave every hash here unchanged; a hash is only ever
re-stored for a change that is meant to alter results, and the change
says so. The hashes are tied to the numpy/OpenBLAS build they were
stored with (numpy 2.4, OpenBLAS 0.3.31): another BLAS may round the
logistic targets' matrix products differently.

Run this file as a script to print the current hashes.
"""

import hashlib
import io
from pathlib import Path

import numpy as np
import pytest

from vrhmc.cli import load_config, print_advisory, run_logistic, run_synthetic
from vrhmc.potentials import LogisticPotential, QuadraticPotential
from vrhmc.sampler import SamplerConfig, run_chain

KINDS = ("full", "sg", "svrg", "saga", "sarah", "sarge")
N_COMPONENTS = 12
BATCH_SIZES = (1, 3, N_COMPONENTS)
RECORD_FIELDS = ("positions", "velocities", "potentials", "queries", "grad_err_sq")

TRAJECTORY_HASHES = {
    "quadratic-full-b1": "a86ac7177cb89d6fba0e06211d4c1e7736565a39d85f7145cd0b80f09e520380",
    "quadratic-full-b3": "a86ac7177cb89d6fba0e06211d4c1e7736565a39d85f7145cd0b80f09e520380",
    "quadratic-full-b12": "a86ac7177cb89d6fba0e06211d4c1e7736565a39d85f7145cd0b80f09e520380",
    "quadratic-sg-b1": "f5dc19abb94e1a81fa36badffd23be97b4c68f31e594a1ae4dae9f571acfa06e",
    "quadratic-sg-b3": "62a87a65f300abf140655c789920456686df3a9e3e51c6275233a697fdfb6a16",
    "quadratic-sg-b12": "a86ac7177cb89d6fba0e06211d4c1e7736565a39d85f7145cd0b80f09e520380",
    "quadratic-svrg-b1": "f93c3d6ed4660cc828a6049515ac8747dceab37df3320fadf64429c161e67883",
    "quadratic-svrg-b3": "14f26ced30227847fcaa6d392a5feb82db7480ddde0bff577253327aa738e1a6",
    "quadratic-svrg-b12": "fec7bc51ed726dff772232b2df1290fe6740ebdefee92e53f684b44f348e6e24",
    "quadratic-saga-b1": "c576aea107e823e7987bfca3a95a3a7342b5f54c82a24256230251a9bdda72d7",
    "quadratic-saga-b3": "6c6fb7f2517393c33b2aeb076d5178fff82c5cc88b5fc552bb4d557a4fd72e39",
    "quadratic-saga-b12": "7e3adde3339c7483e8ae93d64d6c4234d76fc7066bd8e29d7e5a8c5ba0aaf28b",
    "quadratic-sarah-b1": "193268c642cced22bbc12e8020fe65a16a2438543172aa1e01b4d82bc1e3f99b",
    "quadratic-sarah-b3": "d45c905df26ce58df86da433f7f8d00049599bbefbf7105b3ead907c2d478ec3",
    "quadratic-sarah-b12": "7e3adde3339c7483e8ae93d64d6c4234d76fc7066bd8e29d7e5a8c5ba0aaf28b",
    "quadratic-sarge-b1": "16e5a3b8f2fbc8684d781647171804f0b8f32c0db3a15c501a8a391df60d7887",
    "quadratic-sarge-b3": "f2a6d7036fff8f044c13e79106e7f22930b0de8c4cf11ca39cbc795c47e3e10f",
    "quadratic-sarge-b12": "0af0422637c76c09581200c22be7a07b169e9d7d8ef078b6c69eec93ac9aecaa",
    "logistic-full-b1": "7ad1670d4eb897ff4b80d8c29db7a30a8f8fde993148516f7734038b1c523d4c",
    "logistic-full-b3": "7ad1670d4eb897ff4b80d8c29db7a30a8f8fde993148516f7734038b1c523d4c",
    "logistic-full-b12": "7ad1670d4eb897ff4b80d8c29db7a30a8f8fde993148516f7734038b1c523d4c",
    "logistic-sg-b1": "08f9214c62463d5d2e8c5869ad294b32f677687c7642bf54d63250f8f82e2283",
    "logistic-sg-b3": "0a81d9af08e09bd5bd0576dd2a51fef6f0ead6bf2e99b0f3d7539b91f667d496",
    "logistic-sg-b12": "7ad1670d4eb897ff4b80d8c29db7a30a8f8fde993148516f7734038b1c523d4c",
    "logistic-svrg-b1": "940fee1424745fe42fdfbcf8d099cc3c3dcde4cf38af857892b9d4a77133ee72",
    "logistic-svrg-b3": "a39fd991222b69a1e8be006f7d2384daefd02cb6a0eee693e423463fd8a62a60",
    "logistic-svrg-b12": "ca5969e27fe4d763b182967e9838e8312e8ee91aeb31d173df4a92bd7ebf3f03",
    "logistic-saga-b1": "7229694c827834bcb8089184d119a76301cb2e76647b62fee92f50f6fb2002f7",
    "logistic-saga-b3": "cf3957d4c813e03560d7888dc08e7192305da7b83d7414bc2a59711d2f9795b9",
    "logistic-saga-b12": "e15a3115a1bfecc8a35dcfb834da563b2ba1e6689acfcfc945aeea5871c39c9b",
    "logistic-sarah-b1": "872af2b77070bd0a8aa40b14e3765bf546da27362253f110060c49b409063fa2",
    "logistic-sarah-b3": "aa3d161fd76649f4a3780f6dff25907afb73344270648979a908fbb2392ee4ae",
    "logistic-sarah-b12": "e15a3115a1bfecc8a35dcfb834da563b2ba1e6689acfcfc945aeea5871c39c9b",
    "logistic-sarge-b1": "7e7856a4b854c0b5371a01cb5ec87c42abb96c73ddecbe45a4587b29b7bc52a2",
    "logistic-sarge-b3": "c645c6476259daa1a0393fd004ea8c8fa9d13f67ef62b4313e74c6f20e569d26",
    "logistic-sarge-b12": "d4812f3344c556a015a1a0b4feee2aac30687de61ff263c903f938e190317e87",
}

OUTPUT_HASHES = {
    "synthetic-results": "eee3b57c452917b04cfce45b5ddbf5252fb515f04d083c17486839b567077f75",
    "logistic-results": "51c41da0ef3da5f8bf06acb8d1677b8c8054243f92e7fb516b4fd41e21cb3231",
    "synthetic-advisory": "3c2069bc7831b9890b44c910f841b515d8d85758b643201d3f5c53f6d4c93305",
    "logistic-advisory": "4aab1ae5d7e364593091937c97e6e9b65e5cfbf54b937a73e2a3079a64271050",
    "unstandardized-results": "17e1bb1b1f0a07734aee0bbc78731e3792290a48f7a33d493aba49917dfb198b",
    "sparse-results": "8aab25dd8105e0d6e708c66a28df9398f4ec715b335102d6526d50eb4a2e9a2e",
    "binary-results": "8c6f0302aa71303e32cc5f4e0a1e504f03d9a85f7f7af83cd0113dff83763528",
}

SYNTHETIC_CONFIG = """
experiment = synthetic
methods = full, sg, svrg, saga, sarah, sarge
n_components = 8
dimension = 2
max_eigenvalue = 4.0
min_eigenvalue = 1.0
steps = 80
burn_in = 20
stride = 5
chains = 2
step = 0.05
seed = 3
diagnostics = true
record_q = true
svrg.epoch = 3
sarah.batch = 2
sg.steps = 60
"""

LOGISTIC_CONFIG = """
experiment = logistic
methods = full, sg, svrg, saga, sarah, sarge
data = toy.libsvm
train_fraction = 0.5
steps = 40
burn_in = 10
stride = 5
chains = 2
step = 0.1
seed = 4
batch = 2
diagnostics = true
"""

SPARSE_CONFIG = """
experiment = logistic
methods = full, sg, svrg, saga, sarah, sarge
data = sparse.libsvm
n_features = 7
train_fraction = 0.6
steps = 40
burn_in = 10
stride = 5
chains = 2
step = 0.1
seed = 6
batch = 2
diagnostics = true
"""

BINARY_CONFIG = LOGISTIC_CONFIG.replace("toy.libsvm", "binary.libsvm") + "n_features = 4\n"


def quadratic_target():
    return QuadraticPotential.random(
        n_components=N_COMPONENTS,
        dimension=3,
        max_eigenvalue=4.0,
        min_eigenvalue=0.5,
        seed=2,
    )


def logistic_target():
    rng = np.random.default_rng(4)
    features = rng.standard_normal((N_COMPONENTS, 4))
    labels = np.where(rng.random(N_COMPONENTS) < 0.5, -1.0, 1.0)
    return LogisticPotential(features, labels, ridge=0.5)


TARGETS = {"quadratic": quadratic_target, "logistic": logistic_target}


def trajectory_hash(target, kind, batch_size):
    config = SamplerConfig(
        n_steps=200,
        step=0.1,
        estimator=kind,
        batch_size=batch_size,
        burn_in=50,
        seed=11,
        diagnostics=True,
        record_velocity=True,
    )
    record = run_chain(config, TARGETS[target]())
    digest = hashlib.sha256()
    for name in RECORD_FIELDS:
        array = np.ascontiguousarray(getattr(record, name))
        digest.update(f"{name}:{array.dtype.str}:{array.shape};".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def tree_hash(root):
    """sha256 over the relative name and bytes of every file under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        content = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}:{len(content)};".encode())
        digest.update(content)
    return digest.hexdigest()


def write_libsvm(path):
    rng = np.random.default_rng(5)
    lines = []
    for _ in range(24):
        label = rng.choice([-1, 1])
        cells = " ".join(
            f"{j + 1}:{v}" for j, v in enumerate(rng.standard_normal(3).round(3))
        )
        lines.append(f"{label:+d} {cells}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_sparse_libsvm(path):
    """Rows with an intercept (feature 1), absent entries and explicit zeros.

    Features 2-6 are each present with probability 1/2 and then written as
    0 one time in four; feature 7 never appears (SPARSE_CONFIG sets
    n_features = 7), so it is an all-zero column.
    """
    rng = np.random.default_rng(8)
    lines = []
    for _ in range(30):
        label = rng.choice([-1, 1])
        cells = ["1:1"]
        for j in range(2, 7):
            if rng.random() < 0.5:
                value = 0 if rng.random() < 0.25 else round(rng.standard_normal(), 3)
                cells.append(f"{j}:{value}")
        lines.append(f"{label:+d} " + " ".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def write_binary_libsvm(path):
    """Rows labelled 0 or 1 over features 1-3, with a blank line among them.

    Each feature is present with probability 3/4; BINARY_CONFIG sets
    n_features = 4, one wider than the data, so feature 4 is all zero.
    """
    rng = np.random.default_rng(9)
    lines = []
    for _ in range(20):
        cells = [
            f"{j + 1}:{v}"
            for j, v in enumerate(rng.standard_normal(3).round(3))
            if rng.random() < 0.75
        ]
        lines.append(" ".join([str(rng.integers(2))] + cells))
    lines.insert(7, "")
    Path(path).write_text("\n".join(lines) + "\n")


# output case name -> (config text, writer of the data file it reads)
INPUTS = {
    "synthetic": (SYNTHETIC_CONFIG, None),
    "logistic": (LOGISTIC_CONFIG, lambda: write_libsvm("toy.libsvm")),
    "unstandardized": (
        LOGISTIC_CONFIG + "standardize = false\n",
        lambda: write_libsvm("toy.libsvm"),
    ),
    "sparse": (SPARSE_CONFIG, lambda: write_sparse_libsvm("sparse.libsvm")),
    "binary": (BINARY_CONFIG, lambda: write_binary_libsvm("binary.libsvm")),
}


def output_hash(case):
    """Hash of one CLI case, run in the current working directory."""
    name, product = case.split("-")
    text, write_data = INPUTS[name]
    Path(f"{name}.cfg").write_text(text)
    if write_data is not None:
        write_data()
    config = load_config(f"{name}.cfg", {"out": f"out-{name}"})
    if product == "advisory":
        text = print_advisory(config, io.StringIO())
        return hashlib.sha256(text.encode()).hexdigest()
    (run_synthetic if config.experiment == "synthetic" else run_logistic)(config)
    return tree_hash(f"out-{name}")


TRAJECTORY_CASES = [
    f"{target}-{kind}-b{b}" for target in TARGETS for kind in KINDS for b in BATCH_SIZES
]
OUTPUT_CASES = [
    "synthetic-results",
    "logistic-results",
    "synthetic-advisory",
    "logistic-advisory",
    "unstandardized-results",
    "sparse-results",
    "binary-results",
]


def _trajectory_case(case):
    target, kind, b = case.split("-")
    return trajectory_hash(target, kind, int(b[1:]))


@pytest.mark.parametrize("case", TRAJECTORY_CASES)
def test_trajectory_hash(case):
    assert _trajectory_case(case) == TRAJECTORY_HASHES[case]


@pytest.mark.parametrize("case", OUTPUT_CASES)
def test_output_hash(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert output_hash(case) == OUTPUT_HASHES[case]


if __name__ == "__main__":
    import os
    import tempfile

    print("TRAJECTORY_HASHES = {")
    for case in TRAJECTORY_CASES:
        print(f'    "{case}": "{_trajectory_case(case)}",')
    print("}\n\nOUTPUT_HASHES = {")
    home = os.getcwd()
    for case in OUTPUT_CASES:
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            print(f'    "{case}": "{output_hash(case)}",')
            os.chdir(home)
    print("}")
