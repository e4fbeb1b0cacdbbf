"""Spans at the program's layer boundaries, recorded from outside it.

The traced run wraps each boundary listed in :data:`BOUNDARIES` — a
public method or module function per layer — with a span recorder,
so the program itself is unchanged.  A span is (boundary, start, end,
parent span); spans stay in flat arrays in memory and are written as
JSONL, with the unit each belongs to, once the pass ends.  A layer's
self time is the time its spans cover minus the time their child
spans cover; time outside every span belongs to ``bench``, so the
layers' self times add up to the traced pass's wall time exactly.
Recording a span costs about a microsecond, charged to the caller.

Names are ``module:qualname``; a trailing ``*`` matches every method
of the class with that prefix.  A module function is rebound in every
loaded module that imported it by name.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

import numpy as np

#: layer -> wrapped boundaries; the layer names follow
#: ``repro.analysis.layering.LAYERS`` with ``core.cluster`` split out
BOUNDARIES: dict[str, tuple[str, ...]] = {
    "sim": (
        "repro.sim.opstream:BatchLedger.run",
        "repro.sim.ledger:CostLedger.apply_batch",
        "repro.sim.events:LeanEventQueue.push",
        "repro.sim.events:LeanEventQueue.pop",
    ),
    "hw": (
        "repro.hw.cpu:CpuModel.execute*",
        "repro.hw.memory:MemoryModel.allocate",
        "repro.hw.memory:MemoryModel.copy",
        "repro.hw.perfcounters:PerfCounters.add_events",
    ),
    "guestos": (
        "repro.guestos.kernel:GuestKernel.sys_*",
        "repro.guestos.kernel:KernelBatch.commit",
        "repro.guestos.context:ExecContext.run_batch",
    ),
    "tee": (
        "repro.tee.base:TeePlatform.create_vm",
        "repro.tee.vm:Vm.boot",
        "repro.tee.vm:Vm.run",
    ),
    "runtimes": (
        "repro.runtimes.base:RuntimeSession.bootstrap",
        "repro.runtimes.base:RuntimeSession.compute*",
        "repro.runtimes.base:RuntimeSession.log*",
        "repro.runtimes.base:SessionBatch.commit",
    ),
    "workloads": (
        "repro.workloads.base:FaasWorkload.run",
        "repro.workloads.unixbench.suite:run_unixbench",
    ),
    "attest": (
        "repro.attest.service:VerifierService.verify_launch",
        "repro.attest.service:VerifierService.process_batch",
        "repro.attest.verifier:TdxVerifier.verify",
        "repro.attest.verifier:SnpVerifier.verify",
        "repro.attest.crypto:RsaPublicKey.verify",
        "repro.attest.crypto:RsaKeyPair.sign",
        "repro.attest.crypto:generate_keypair",
        "repro.attest.pcs:IntelPcs.fetch_*",
        "repro.attest.service:TieredCollateral.fetch*",
        "repro.attest.tiers:ZonedCollateral.fetch",
    ),
    "supply": (
        "repro.supply.launch:LaunchProvisioner.provision",
        "repro.supply.registry:EagerPull.pull",
        "repro.supply.registry:LazyPull.pull",
        "repro.supply.registry:LazyImage.access",
        "repro.supply.registry:Registry.fetch_*",
        "repro.supply.kbs:KeyBrokerService.release",
        "repro.supply.image:keystream_xor",
        "repro.supply.image:build_image",
    ),
    "obs": (
        "repro.obs.metrics:MetricsRegistry.count",
        "repro.obs.metrics:MetricsRegistry.count_many",
        "repro.obs.metrics:MetricsRegistry.observe",
        "repro.obs.metrics:MetricsRegistry.set_gauge",
    ),
    "core": (
        "repro.core.runner:TrialRunner.run",
        "repro.core.runner:execute_trial",
    ),
    "core.cluster": (
        "repro.core.cluster.gateway:ClusterGateway.run",
        "repro.core.cluster.placement:PlacementScheduler.place",
        "repro.core.cluster.node:ClusterNode.acquire",
        "repro.core.cluster.node:ClusterNode.release",
        "repro.core.cluster.health:HealthMonitor.evaluate_round",
        "repro.core.cluster.overload:OverloadController.observe",
        "repro.core.cluster.traffic:TrafficGenerator.next_*",
    ),
    "experiments": (
        "repro.experiments.fig9_cluster:run_fig9",
        "repro.experiments.fig5_service:run_fig5_service",
    ),
    "bench": (
        "scenarios:_boot",
    ),
}

#: labels of the spans that start a unit (a trial, a boot); every span
#: inside one carries the unit's span id
UNIT_LABELS = frozenset({"execute_trial", "_boot"})

#: every layer a self time is reported for, in stack order
LAYERS = tuple(BOUNDARIES)


def _resolve(target: str) -> list[tuple[object, str, object]]:
    """``(owner, attribute, function)`` for every match of ``target``."""
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    owner_path, _, pattern = qualname.rpartition(".")
    if not owner_path:
        return [(module, pattern, getattr(module, pattern))]
    owner = getattr(module, owner_path)
    found = [(owner, name, value) for name, value in vars(owner).items()
             if fnmatch.fnmatchcase(name, pattern)
             and inspect.isfunction(value)]
    if not found:
        raise LookupError(f"no boundary matches {target!r}")
    return found


class Tracer:
    """Wraps the boundaries and records spans while :attr:`active`."""

    def __init__(self) -> None:
        #: boundary id -> (layer, "Owner.name")
        self.labels: list[tuple[str, str]] = []
        self.active = False
        self._installed: list[tuple[object, str, object]] = []
        self.boundary = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: open spans, innermost last, over a -1 "no parent" sentinel
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary in :data:`BOUNDARIES`.

        Trial bodies memoized before this call captured unwrapped
        functions, so the runner's body cache is cleared.
        """
        from repro.core.runner import _cached_body

        for layer, targets in BOUNDARIES.items():
            for target in targets:
                for owner, name, function in _resolve(target):
                    label = (f"{owner.__name__}.{name}"
                             if isinstance(owner, type) else name)
                    self.labels.append((layer, label))
                    wrapped = self._wrap(function, len(self.labels) - 1)
                    if isinstance(owner, type):
                        self._rebind(owner, name, function, wrapped)
                    else:
                        for module in list(sys.modules.values()):
                            namespace = getattr(module, "__dict__", {})
                            if namespace.get(name) is function:
                                self._rebind(module, name, function,
                                             wrapped)
        _cached_body.cache_clear()

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, name, function in reversed(self._installed):
            setattr(owner, name, function)
        self._installed.clear()

    def _rebind(self, owner, name, function, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._installed.append((owner, name, function))

    def _wrap(self, function, boundary: int):
        tracer = self
        boundaries, parents = self.boundary, self.parent
        starts, ends, stack = self.start, self.end, self._stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            index = len(starts)
            boundaries.append(boundary)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return traced

    # -- analysis ----------------------------------------------------------

    def self_times(self, wall_s: float) -> dict[str, float]:
        """Seconds of self time per layer; ``bench`` takes the rest."""
        start = np.frombuffer(self.start, dtype=np.float64)
        duration = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        covered = np.zeros(len(duration))
        np.add.at(covered, parent[nested], duration[nested])
        own = duration - covered
        layer_of = np.array([LAYERS.index(layer)
                             for layer, _ in self.labels], dtype=np.int64)
        boundary = np.frombuffer(self.boundary, dtype=np.int32)
        totals = np.bincount(layer_of[boundary], weights=own,
                             minlength=len(LAYERS))
        times = {layer: float(totals[index])
                 for index, layer in enumerate(LAYERS)}
        times["bench"] += wall_s - float(duration[~nested].sum())
        return times

    def spans_of(self, *labels: str) -> np.ndarray:
        """Durations (s) of the spans whose label is in ``labels``."""
        ids = [index for index, (_, label) in enumerate(self.labels)
               if label in labels]
        boundary = np.frombuffer(self.boundary, dtype=np.int32)
        mask = np.isin(boundary, ids)
        return (np.frombuffer(self.end, dtype=np.float64)[mask]
                - np.frombuffer(self.start, dtype=np.float64)[mask])

    def count(self, layer: str, prefix: str = "") -> int:
        """Spans of ``layer`` whose label starts with ``prefix``."""
        ids = [index for index, (owner, label) in enumerate(self.labels)
               if owner == layer and label.startswith(prefix)]
        counts = np.bincount(np.frombuffer(self.boundary, dtype=np.int32),
                             minlength=len(self.labels))
        return int(counts[ids].sum())

    def write_jsonl(self, path) -> None:
        """One JSON object per span, times relative to the first span."""
        origin = self.start[0] if len(self) else 0.0
        starts_unit = {index for index, (_, label) in enumerate(self.labels)
                       if label in UNIT_LABELS}
        units = array("i")
        with open(path, "w", encoding="utf-8") as out:
            for index in range(len(self)):
                boundary, parent = self.boundary[index], self.parent[index]
                # parents precede their children, so units[parent] is set
                unit = units[parent] if parent >= 0 else -1
                if unit < 0 and boundary in starts_unit:
                    unit = index
                units.append(unit)
                layer, name = self.labels[boundary]
                out.write(json.dumps({
                    "id": index,
                    "name": name,
                    "layer": layer,
                    "start_s": self.start[index] - origin,
                    "end_s": self.end[index] - origin,
                    "parent": parent,
                    "unit": unit,
                }) + "\n")
