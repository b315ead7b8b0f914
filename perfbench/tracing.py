"""Outside-in tracing of leapsim from the benchmark's own files.

The tracer replaces public functions at the module binding their
caller uses (``leapsim.game.js_divergence`` is the name the game looks
up, ``leapsim.dist.js_divergence`` the one ``pairwise_js_matrix`` looks
up) with timing wrappers, and restores them afterwards.  The package
itself is not modified.

Layer entry points are recorded as spans, one node per call with its
start and end.  Hot leaves, called ~10^4 times or more per operation,
are recorded as aggregates instead: one node per (name, parent) holding
a call count and the summed time, so tracing cost stays bounded.  A
node's self time is its time minus the union of its child spans and
the summed time of its child aggregates.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple


@dataclass
class Node:
    """A span (one call) or an aggregate (all calls of a name under one parent)."""

    name: str
    parent: int | None
    aggregate: bool
    count: int = 0
    total: float = 0.0
    start: float = 0.0
    end: float = 0.0


def _union_length(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def self_times(nodes: list[Node]) -> list[float]:
    """Each node's time minus the time its children cover."""
    spans: list[list[tuple[float, float]]] = [[] for _ in nodes]
    aggregated = [0.0] * len(nodes)
    for node in nodes:
        if node.parent is None:
            continue
        if node.aggregate:
            aggregated[node.parent] += node.total
        else:
            spans[node.parent].append((node.start, node.end))
    return [
        node.total - _union_length(spans[i]) - aggregated[i]
        for i, node in enumerate(nodes)
    ]


class Tracer:
    """In-memory recorder of spans and aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.nodes = [Node("root", None, False)]
        self.missing: list[str] = []
        self._stack = [0]
        self._aggregates: dict[tuple[int, str], int] = {}

    def _enter(self, name: str, aggregate: bool) -> int:
        parent = self._stack[-1]
        if aggregate:
            index = self._aggregates.get((parent, name))
            if index is None:
                index = self._aggregates[(parent, name)] = len(self.nodes)
                self.nodes.append(Node(name, parent, True))
        else:
            index = len(self.nodes)
            self.nodes.append(Node(name, parent, False))
        self._stack.append(index)
        return index

    def _exit(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        node = self.nodes[index]
        node.count += 1
        node.total += end - start
        if not node.aggregate:
            node.start, node.end = start, end

    @contextmanager
    def span(self, name: str):
        index = self._enter(name, False)
        start = self.clock()
        try:
            yield
        finally:
            self._exit(index, start, self.clock())

    def wrap(self, fn: Callable, name: str, aggregate: bool = False) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name, aggregate)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index, start, self.clock())

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive time and self time, summed over nodes."""
        out: dict[str, dict[str, float]] = {}
        for node, own in zip(self.nodes, self_times(self.nodes)):
            entry = out.setdefault(node.name, {"count": 0, "total": 0.0, "self": 0.0})
            entry["count"] += node.count
            entry["total"] += node.total
            entry["self"] += own
        return out

    def count_under(self, name: str, parent_name: str) -> int:
        """Calls of ``name`` made directly under nodes named ``parent_name``."""
        return sum(
            node.count
            for node in self.nodes
            if node.name == name
            and node.parent is not None
            and self.nodes[node.parent].name == parent_name
        )


class Target(NamedTuple):
    module: str
    attribute: str
    name: str
    aggregate: bool = False


TARGETS = (
    Target("leapsim.cli", "load_scenario", "scenario.load"),
    Target("leapsim.cli", "run_experiment", "experiment.run"),
    Target("leapsim.cli", "emit_report", "experiment.emit"),
    Target("leapsim.experiment", "random_partition", "game.init"),
    Target("leapsim.experiment", "run_coalition_formation", "game.loop"),
    Target("leapsim.game", "certify_stability", "game.certify"),
    Target("leapsim.game", "evaluate_switch", "game.price", aggregate=True),
    Target("leapsim.game", "Partition.apply", "game.apply", aggregate=True),
    Target("leapsim.game", "js_divergence", "dist.js", aggregate=True),
    Target("leapsim.dist", "js_divergence", "dist.js", aggregate=True),
    Target("leapsim.experiment", "plan_full", "alloc.plan"),
    Target("leapsim.alloc", "gp_solve", "alloc.gp_solve"),
    Target("leapsim.alloc", "p3_objective", "alloc.objective", aggregate=True),
    Target("leapsim.alloc", "deadline_powers", "alloc.power"),
    Target("leapsim.experiment", "deadline_powers", "alloc.power"),
    Target("leapsim.alloc", "build_plan", "alloc.build_plan"),
    Target("leapsim.experiment", "build_plan", "alloc.build_plan"),
    Target("leapsim.alloc", "round_and_total_latency", "netmodel.latency"),
    Target("leapsim.alloc", "energies", "netmodel.energy"),
    Target("leapsim.experiment", "run_hfl", "hfl.run"),
    Target("leapsim.hfl", "local_train", "hfl.local_train", aggregate=True),
    Target("leapsim.hfl", "softmax_loss_and_grad", "hfl.grad", aggregate=True),
)


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    *path, leaf = target.attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, leaf
    return (owner, leaf) if hasattr(owner, leaf) else (None, leaf)


@contextmanager
def installed(tracer: Tracer, targets: tuple[Target, ...] = TARGETS):
    """Patch every target with a tracing wrapper for the duration.

    A target the code no longer has is skipped and listed in
    ``tracer.missing``, so a refactor degrades the trace instead of
    breaking the run.
    """
    saved = []
    try:
        for target in targets:
            owner, leaf = _resolve(target)
            if owner is None:
                label = f"{target.module}.{target.attribute}"
                if label not in tracer.missing:
                    tracer.missing.append(label)
                continue
            original = getattr(owner, leaf)
            saved.append((owner, leaf, original))
            setattr(owner, leaf, tracer.wrap(original, target.name, target.aggregate))
        yield tracer
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)
