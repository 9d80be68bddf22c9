"""Stored sha256 hashes of seeded trajectories and of the CLI's outputs.

Trajectory cases run 200-step chains through run_chain for every
estimator on a small quadratic and a small logistic target at batch
sizes 1, 3 and N, and hash the recorded positions, velocities,
potentials, queries and squared gradient errors. Output cases hash every
file run_synthetic and run_logistic write for small configs, and the text
print_advisory prints for both targets. The logistic runs cover a dense
toy input with and without standardization, and a sparse input with
explicit zeros, absent entries and constant columns (an intercept and an
all-zero feature), standardized. Every run goes through the
working directory of the test with relative paths, so the config echo in
summary.json is the same on every machine.

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
    "logistic-full-b1": "b5cfe618681705790a162cbde8a04c6233bf3e1ebb0e98c0c30137c9ac2f7357",
    "logistic-full-b3": "b5cfe618681705790a162cbde8a04c6233bf3e1ebb0e98c0c30137c9ac2f7357",
    "logistic-full-b12": "b5cfe618681705790a162cbde8a04c6233bf3e1ebb0e98c0c30137c9ac2f7357",
    "logistic-sg-b1": "9110d157362a9c46b4b66069a755529b009091acca94eee0035d05f5054c50af",
    "logistic-sg-b3": "b777ab82a2c836b2b37baecc29b4ddd371c4426308176fb54bfd96444a00e31a",
    "logistic-sg-b12": "b5cfe618681705790a162cbde8a04c6233bf3e1ebb0e98c0c30137c9ac2f7357",
    "logistic-svrg-b1": "24132efdf54ba75d0937971cfc4b614d8ad203279b4e850b784e3d08ba8fb250",
    "logistic-svrg-b3": "25891da642aa1afecbcf93a9519e25131e976ed3f23d00c83a98a16b8c4d0cbf",
    "logistic-svrg-b12": "b73c15b5e42aa73b532697f4e640ebf6c715c2a0a0b474f47fa4e21e03c30f6b",
    "logistic-saga-b1": "83e631400cad1a0a04a7336862faf92fa822b412b1141f535816e4d3b338df74",
    "logistic-saga-b3": "6ab8ad465fab9810cd22c5006e19f621aa87ca5ed339b64ffa2d335a1e781bdb",
    "logistic-saga-b12": "438c4230b65e0d9dea33b3823d257bc073535c8beb9e693050f689ddf28dafaf",
    "logistic-sarah-b1": "d853ece49f32519f5cbfbe01342969fdddb29f734bfbd7cb4c56ea392c7c07e9",
    "logistic-sarah-b3": "8dba59a55cf3f7b3eb6f35c643569af214c4a2062fa609226e42478e5206f4c8",
    "logistic-sarah-b12": "438c4230b65e0d9dea33b3823d257bc073535c8beb9e693050f689ddf28dafaf",
    "logistic-sarge-b1": "ed75341a46d385e9b1119750c7e1d30c5d988373100d68b8f4ab32799a0c1a7d",
    "logistic-sarge-b3": "5fcb985376cd49646c14f47d296d8c6759d0d5573b5ae13209f4df0cc048d68d",
    "logistic-sarge-b12": "cf9c4a3b0f459f35b3fb52421f76e870a520f7b1e7d71b07a16e26ddb980f4b3",
}

OUTPUT_HASHES = {
    "synthetic-results": "eee3b57c452917b04cfce45b5ddbf5252fb515f04d083c17486839b567077f75",
    "logistic-results": "dae537e23722aa796c4990f4a0a872c0992080159a912045216bfd42e4b86ff2",
    "synthetic-advisory": "3c2069bc7831b9890b44c910f841b515d8d85758b643201d3f5c53f6d4c93305",
    "logistic-advisory": "4aab1ae5d7e364593091937c97e6e9b65e5cfbf54b937a73e2a3079a64271050",
    "unstandardized-results": "b7f3fd2ddbc4f49182cc660eadd48abfeb9acfff766cc69c6fac2b4de2b5c081",
    "sparse-results": "8aab25dd8105e0d6e708c66a28df9398f4ec715b335102d6526d50eb4a2e9a2e",
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


# output case name -> (config text, writer of the data file it reads)
INPUTS = {
    "synthetic": (SYNTHETIC_CONFIG, None),
    "logistic": (LOGISTIC_CONFIG, lambda: write_libsvm("toy.libsvm")),
    "unstandardized": (
        LOGISTIC_CONFIG + "standardize = false\n",
        lambda: write_libsvm("toy.libsvm"),
    ),
    "sparse": (SPARSE_CONFIG, lambda: write_sparse_libsvm("sparse.libsvm")),
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
