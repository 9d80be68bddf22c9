"""Span tracer that instruments vrhmc from outside the package.

install() replaces every public function and every public method (plus
__init__) of the classes listed in each layer module's __all__ with a
wrapper that records one span per call: name, start, end, parent span,
and the estimator and chain the call ran for. Module-level references
that other vrhmc modules imported by name (sampler's run_chain,
cli's run_ensemble, ...) are rebound too, so the program's own call paths
go through the wrappers. uninstall() puts every original back. No file
of the program is edited.

Spans live in flat in-memory arrays (about 40 bytes each) and are
written out once, at the end of a run. analyze() turns the spans of one
unit of work into per-layer metrics.

Self time: a span's duration minus the duration of its direct children.
A span joins its parent's group when both are in the same layer (so
sample_batch counts towards estimate, and QuadraticPotential.__init__
towards QuadraticPotential.random); sampler.run_chain always starts its
own group so ensemble bookkeeping and per-chain loops stay apart. A
group's self time is the sum of its members' self times, so the group
self times of one unit add up exactly to the time its root spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("cli", "dataio", "potentials", "estimators", "sampler", "metrics", "integrator")
KINDS = ("full", "sg", "svrg", "saga", "sarah", "sarge")

# spans that start their own group even under a same-layer parent
_OWN_GROUP = {"sampler.run_chain"}
# children of run_chain that run inside its timed loop (RunRecord.wall_time)
_IN_LOOP = {
    "estimators.estimate",
    "potentials.potential_full",
    "potentials.gradient_full",
    "estimators.q_metric",
}


def _chain_context(args, kwargs):
    chain = kwargs.get("chain_id", args[3] if len(args) > 3 else 0)
    return KINDS.index(args[0].estimator), chain


def _ensemble_context(args, kwargs):
    return KINDS.index(args[0].estimator), -1


# per-key hooks: what sets the estimator/chain context, what extra count a
# call records before it runs, and what it records from its return value
_CONTEXT = {"sampler.run_chain": _chain_context, "sampler.run_ensemble": _ensemble_context}
_AUX_ARGS = {"potentials.gradient_batch": lambda args: len(args[1])}
_AUX_RESULT = {"sampler.run_chain": lambda record: round(record.wall_time * 1e9)}


def span_key(name):
    """'potentials.QuadraticPotential.gradient_batch' -> 'potentials.gradient_batch'."""
    parts = name.split(".")
    return f"{parts[0]}.{parts[-1]}"


class Tracer:
    """Records spans around vrhmc's public callables while installed."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.estimator = array("b")
        self.chain = array("i")
        self.aux = array("q")
        self._stack = [-1]
        self._context = [-1, -1]
        self._patches = []

    def __len__(self):
        return len(self.start)

    def _wrap(self, fn, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        key = span_key(name)
        context_of = _CONTEXT.get(key)
        aux_of = _AUX_ARGS.get(key)
        aux_result = _AUX_RESULT.get(key)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        estimators, chains, auxes = self.estimator, self.chain, self.aux
        stack, context = self._stack, self._context
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            saved = None
            if context_of is not None:
                saved = context[:]
                context[0], context[1] = context_of(args, kwargs)
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            estimators.append(context[0])
            chains.append(context[1])
            auxes.append(aux_of(args) if aux_of is not None else 0)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                if saved is not None:
                    context[:] = saved
            if aux_result is not None:
                auxes[index] = aux_result(result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        package = importlib.import_module("vrhmc")
        modules = [importlib.import_module(f"vrhmc.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for public in module.__all__:
                obj = getattr(module, public)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{public}")
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        for module in (package, *modules):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(module, attr, wrapped[value])

    def _install_class(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                self._patch(cls, attr, type(member)(self._wrap(member.__func__, name)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, name))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self, lo=0, hi=None):
        """Spans [lo, hi) as numpy arrays, parents re-based to the slice."""
        hi = len(self) if hi is None else hi
        out = {
            field: np.frombuffer(getattr(self, field), dtype=getattr(self, field).typecode)[lo:hi].copy()
            for field in ("name", "parent", "start", "end", "estimator", "chain", "aux")
        }
        parent = out["parent"] - lo
        parent[out["parent"] < lo] = -1
        out["parent"] = parent
        return out

    def save(self, path, workload):
        """Write every recorded span to one .npz file."""
        np.savez_compressed(
            path,
            workload=np.array(workload),
            span_names=np.array(self.names),
            estimator_names=np.array(KINDS),
            **self.arrays(),
        )


def analyze(tracer, t0_ns, t1_ns):
    """Per-layer aggregates of the spans that start in [t0_ns, t1_ns).

    The interval is one unit's wall time (setup plus run) measured around
    it; whatever the root spans leave uncovered is reported as
    unattributed. Returns a dict of raw aggregates for the workload code.
    """
    starts = np.frombuffer(tracer.start, dtype=np.int64)
    lo, hi = np.searchsorted(starts, [t0_ns, t1_ns])
    window_ns = t1_ns - t0_ns
    s = tracer.arrays(lo, hi)
    n = s["start"].size
    keys = sorted({span_key(name) for name in tracer.names})
    key_ids = np.array([keys.index(span_key(name)) for name in tracer.names], dtype=np.int64)
    key_layer = np.array([LAYERS.index(k.split(".")[0]) for k in keys], dtype=np.int64)
    key_of = key_ids[s["name"]]
    layer = key_layer[key_of]
    parent = s["parent"]
    dur = (s["end"] - s["start"]).astype(np.int64)
    has_parent = parent >= 0
    child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_ns = dur - child_ns

    def ids(*names):
        return [keys.index(k) for k in names if k in keys]

    # group root: follow same-layer parents, except where a span starts its own group
    safe_parent = np.where(has_parent, parent, 0)
    joins = has_parent & (layer[safe_parent] == layer) & ~np.isin(key_of, ids(*_OWN_GROUP))
    root = np.where(joins, parent, np.arange(n))
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            break
        root = nxt
    group_self = np.bincount(root, weights=self_ns, minlength=n)
    is_root = root == np.arange(n)
    parent_key = np.where(has_parent, key_of[root[safe_parent]], -1)
    parent_layer = np.where(has_parent, layer[safe_parent], -1)

    def keyed(*names):
        return np.isin(key_of, ids(*names))

    def select(name):
        return is_root & keyed(name)

    out = {
        "n_spans": n,
        "window_ns": window_ns,
        "attributed_ns": float(self_ns.sum()),
        "layer_self_ns": {
            name: float(self_ns[layer == i].sum()) for i, name in enumerate(LAYERS)
        },
        "group_self_ns": {},
        "group_calls": {},
    }
    for key in sorted({keys[i] for i in np.unique(key_of[is_root])}):
        mask = select(key)
        out["group_self_ns"][key] = float(group_self[mask].sum())
        out["group_calls"][key] = int(mask.sum())
    est = s["estimator"]
    under_estimate = np.isin(parent_key, ids("estimators.estimate"))
    per_kind = {}
    for k, kind in enumerate(KINDS):
        on = est == k
        estimate = select("estimators.estimate") & on
        under_estimators = on & (parent_layer == LAYERS.index("estimators"))
        per_kind[kind] = {
            "estimate_calls": int(estimate.sum()),
            "estimate_self_ns": float(group_self[estimate].sum()),
            "init_ns": float(dur[select("estimators.make_estimator") & on].sum()),
            "batch_rows_queried": int(s["aux"][under_estimators & keyed("potentials.gradient_batch")].sum()),
            "full_calls_queried": int((under_estimators & keyed("potentials.gradient_full")).sum()),
            "full_passes": int((on & keyed("potentials.gradient_full") & under_estimate).sum()),
        }
    out["per_kind"] = per_kind

    chains = np.flatnonzero(select("sampler.run_chain"))
    in_loop = keyed(*_IN_LOOP) & is_root & np.isin(parent_key, ids("sampler.run_chain"))
    in_loop_ns = np.bincount(root[safe_parent[in_loop]], weights=dur[in_loop], minlength=n)
    wall_ns = s["aux"][chains].astype(np.float64)
    loop_self = wall_ns - in_loop_ns[chains]
    recording = in_loop & keyed("potentials.potential_full", "potentials.gradient_full")
    out["sampler"] = {
        "loop_self_ns": float(loop_self.sum()),
        "outside_loop_ns": float((group_self[chains] - loop_self).sum()),
        "record_ns": float(dur[recording].sum()),
        "rows": int((in_loop & keyed("potentials.potential_full")).sum()),
    }
    out["potentials_rows"] = int(s["aux"][keyed("potentials.gradient_batch")].sum())
    return out
