"""Spans around the package's public entry points, recorded from outside.

``Tracer.install`` swaps module attributes of the loaded ``droneplace``
package for timing wrappers and ``uninstall`` puts the originals back; the
package itself is not modified. Spans stay in memory until ``dump``.

Span stacks are per thread, because ``sweep-backhaul --threads N`` runs
``solve_bnb`` on pool threads. A span opened on a pool thread with an
empty stack is parented to the span open on the installing thread (the
``PlacementSearch.solve`` that started the pool).

Each span records three clocks: wall time, the CPU time of its own thread
and the CPU time of the whole process. Pool threads take turns on the GIL,
so a ``solve_bnb`` span's wall time includes waits while the other thread
screens; its thread CPU time does not.
"""

from __future__ import annotations

import itertools
import math
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    request: int | None
    name: str
    t0: float = 0.0
    t1: float = 0.0
    c0: float = 0.0  # thread CPU clock
    c1: float = 0.0
    p0: float = 0.0  # process CPU clock
    p1: float = 0.0
    thread: int = 0
    count: float | None = None  # work counted at this boundary, if any

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def cpu(self) -> float:
        return self.c1 - self.c0

    @property
    def process_cpu(self) -> float:
        return self.p1 - self.p0


def _solve_bnb_count(args, kwargs, out):
    # nodes of a returned result; -1 marks a solve that returned None
    return -1 if out is None else out.nodes_explored


# (module attribute or class, attribute, span name, count taken at the boundary)
def _targets(pkg):
    cli, experiments, placement = pkg.cli, pkg.experiments, pkg.placement
    search = placement.PlacementSearch
    return [
        (cli, "load_config", "config.load_config", None),
        (cli, "sample_population", "users.sample_population", lambda a, k, out: len(out.users)),
        (experiments, "sample_population", "users.sample_population",
         lambda a, k, out: len(out.users)),
        (cli, "backhaul_sweep", "experiments.backhaul_sweep", None),
        (search, "__init__", "placement.PlacementSearch.__init__", None),
        (search, "solve", "placement.PlacementSearch.solve",
         lambda a, k, out: a[0].n_candidates),
        (search, "result", "placement.PlacementSearch.result", None),
        (placement, "solve_bnb", "selection.solve_bnb", _solve_bnb_count),
        (placement, "pathloss_db", "channel.pathloss_db", lambda a, k, out: np.size(a[0])),
        (placement, "spectral_efficiency", "channel.spectral_efficiency", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._home_stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list[Span], Span]:
        stack = self._stack()
        parent = None
        if stack:
            parent = stack[-1].id
        elif stack is not self._home_stack:
            try:
                parent = self._home_stack[-1].id
            except IndexError:
                pass
        span = Span(next(self._ids), parent, self.request, name, thread=threading.get_ident())
        stack.append(span)
        span.p0 = time.process_time()
        span.c0 = time.thread_time()
        span.t0 = time.perf_counter()
        return stack, span

    def _close(self, stack: list[Span], span: Span) -> None:
        span.t1 = time.perf_counter()
        span.c1 = time.thread_time()
        span.p1 = time.process_time()
        stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        stack, span = self._open(name)
        try:
            yield span
        finally:
            self._close(stack, span)

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            stack, span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(stack, span)
            if count is not None:
                span.count = count(args, kwargs, out)
            return out

        return traced

    def install(self, pkg) -> None:
        """Wrap the entry points; call from the thread that runs the CLI."""
        self._home_stack = self._stack()
        for owner, attr, name, count in _targets(pkg):
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            f.write("id\tparent\trequest\tname\tt0\tt1\tc0\tc1\tp0\tp1\tthread\tcount\n")
            for s in sorted(self.spans, key=lambda s: s.id):
                f.write(f"{s.id}\t{s.parent}\t{s.request}\t{s.name}\t{s.t0!r}\t{s.t1!r}"
                        f"\t{s.c0!r}\t{s.c1!r}\t{s.p0!r}\t{s.p1!r}\t{s.thread}\t{s.count}\n")


def span_cost() -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one.

    Best of 5 batches of 10,000 calls each, so a stall of the machine does
    not count; counting work at the boundary (``len``, ``np.size``) is left
    out.
    """
    calls, repeats = 10_000, 5

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap(noop, "noop", None)

    def per_call(fn) -> float:
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, (time.perf_counter() - t0) / calls)
            tracer.spans.clear()
        return best

    return max(per_call(wrapped) - per_call(noop), 0.0)


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of ``span`` that the union of its children covers."""
    total = 0.0
    end = span.t0
    for c in sorted(children, key=lambda c: c.t0):
        lo, hi = max(c.t0, end), min(c.t1, span.t1)
        if hi > lo:
            total += hi - lo
            end = hi
    return total


def request_counts(spans: list[Span], request: int) -> dict[str, float]:
    """Counters of one request, for the exact-repeat check."""
    mine = [s for s in spans if s.request == request]
    bnb = [s for s in mine if s.name == "selection.solve_bnb"]
    return {
        "selection.bnb_calls": len(bnb),
        "selection.nodes": sum(s.count for s in bnb if s.count >= 0),
        "users.count": sum(s.count for s in mine if s.name == "users.sample_population"),
        "channel.links": sum(s.count for s in mine if s.name == "channel.pathloss_db"),
    }


def layer_metrics(spans: list[Span], wall_s: float, cpu_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced stretch of requests.

    ``*_s`` of a layer that runs on the calling thread alone is wall time:
    the summed duration of its spans, or where named
    ``self``/``precompute``/``result``, the duration minus the part covered
    by child spans. ``selection.*`` and ``placement.scan_s`` are CPU time,
    because ``solve`` may screen and call ``solve_bnb`` on pool threads that
    share the GIL: B&B is the thread CPU time of the ``solve_bnb`` spans,
    and the scan is the process CPU time of the ``solve`` spans minus the
    B&B inside them (so it also holds what helper threads, such as numpy's
    BLAS workers, burn while B&B runs).
    """
    children: dict[int, list[Span]] = defaultdict(list)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
        by_name[s.name].append(s)

    def total(name):
        return sum(s.duration for s in by_name[name])

    def self_total(name):
        return sum(s.duration - _covered(s, children[s.id]) for s in by_name[name])

    def count(name):
        return sum(s.count for s in by_name[name])

    bnb = by_name["selection.solve_bnb"]
    returned = [s for s in bnb if s.count >= 0]
    solves = by_name["placement.PlacementSearch.solve"]
    candidates = count("placement.PlacementSearch.solve")
    bnb_s = sum(s.cpu for s in bnb)
    scan_cpu = sum(s.process_cpu for s in solves)
    scan_bnb_cpu = sum(c.cpu for s in solves for c in children[s.id])
    precompute_s = self_total("placement.PlacementSearch.__init__")
    channel_s = total("channel.pathloss_db") + total("channel.spectral_efficiency")
    return {
        "cli.self_s": self_total("cli.main"),
        "config.load_s": total("config.load_config"),
        "users.sample_s": total("users.sample_population"),
        "users.count": count("users.sample_population"),
        "channel.pathloss_s": channel_s,
        "channel.links": count("channel.pathloss_db"),
        "placement.precompute_s": precompute_s,
        "placement.scan_s": scan_cpu - scan_bnb_cpu,
        "placement.scans": len(solves),
        "placement.bnb_call_ratio": len(bnb) / candidates if candidates else 0.0,
        "placement.result_s": self_total("placement.PlacementSearch.result"),
        "placement.cpu_per_wall": cpu_s / wall_s,
        "selection.bnb_s": bnb_s,
        "selection.bnb_calls": len(bnb),
        "selection.bnb_none_ratio": (len(bnb) - len(returned)) / len(bnb) if bnb else 0.0,
        "selection.bnb_call_s.p50": statistics.median(s.cpu for s in bnb) if bnb else 0.0,
        "selection.nodes": sum(s.count for s in returned),
        "selection.bnb_scan_share": scan_bnb_cpu / scan_cpu if scan_cpu else 0.0,
        "experiments.sweep_self_s": self_total("experiments.backhaul_sweep"),
        "placement.geometry_wall_share": (precompute_s + channel_s) / wall_s,
    }
