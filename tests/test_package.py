"""The package namespace is the union of its six layer modules' public names,
and names that moved to the test oracles stay out of it."""

import vrhmc
from vrhmc import cli, dataio, estimators, integrator, metrics, potentials, sampler

LAYERS = (dataio, estimators, integrator, metrics, potentials, sampler)


def test_package_all_is_the_sorted_union_of_the_layers():
    names = [name for module in LAYERS for name in module.__all__]
    assert len(names) == len(set(names))
    assert vrhmc.__all__ == sorted(names)
    assert not set(cli.__all__) & set(vrhmc.__all__)


def test_each_name_is_the_object_its_module_defines():
    for module in LAYERS:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(vrhmc, name) is obj, name
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_names_moved_to_the_test_oracles_are_gone():
    for target in (potentials.QuadraticPotential, potentials.LogisticPotential):
        for name in ("gradient_component", "potential_component", "_check_index"):
            assert not hasattr(target, name), (target.__name__, name)
    assert not hasattr(dataio, "emit_libsvm")
    assert "emit_libsvm" not in vrhmc.__all__
