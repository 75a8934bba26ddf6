"""Span recording around the public functions of each chirpqfi layer.

The wrappers are installed from outside the program: each one replaces a
function in the module namespace where its caller looks it up (for example
``chirpqfi.cli.asymptotic_qfi``), records a span and delegates.  Spans stay in
memory until :meth:`Recorder.write` is called at the end of the run.

Self time of a span is its duration minus the durations of its direct
children.  The traced run executes sweeps with one pool thread, so the
children of a span never overlap and the self times of all spans add up to
the time covered by the root spans.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from array import array
from statistics import quantiles

# (module attribute that callers use, span name); the same span name may be
# installed at several lookup sites.
SITES = (
    ("cli.run_sweep", "cli.run_sweep"),
    ("cli.run_scenario", "cli.run_scenario"),
    ("cli.write_csv", "cli.write_csv"),
    ("cli.write_manifest", "cli.write_manifest"),
    ("cli.asymptotic_qfi", "fisher.asymptotic_qfi"),
    ("cli.sample_pulse", "pulses.sample_pulse"),
    ("modes.sample_pulse", "pulses.sample_pulse"),
    ("pulses.sample_pulse", "pulses.sample_pulse"),
    ("fisher.spectral_density", "pulses.spectral_density"),
    ("cli.excited_amplitude", "dynamics.excited_amplitude"),
    ("fisher.excited_amplitude", "dynamics.excited_amplitude"),
    ("cli.outgoing_wavepacket", "dynamics.outgoing_wavepacket"),
    ("cli.build_basis", "modes.build_basis"),
    ("cli.project_amplitudes", "modes.project_amplitudes"),
    ("cli.mode_cfi", "modes.mode_cfi"),
    ("fisher.integrate_adaptive", "numerics.integrate_adaptive"),
    ("numerics.integrate_adaptive", "numerics.integrate_adaptive"),
    ("dynamics.evolve_driven_decay", "numerics.evolve_driven_decay"),
    ("modes.inner_product", "numerics.inner_product"),
)

INTEGRAND = "numerics.integrand"
ROOT = "cli.main"
SCENARIO = "cli.run_scenario"


class Recorder:
    """In-memory span store with one open-span stack per thread.

    Spans are kept column-wise in arrays, so that hundreds of thousands of
    them add no objects for the garbage collector to scan.  A span opened on
    a thread with an empty stack (a sweep pool worker) takes the innermost
    open span of the thread that opened the root as its parent.
    """

    def __init__(self):
        self.name: list = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.scenario = array("q")
        self.nodes = array("q")
        self.failed: set = set()
        self.extra: dict = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent_stack = stack or self._root_stack
        parent = parent_stack[-1] if parent_stack else -1
        with self._lock:
            sid = len(self.name)
            self.name.append(name)
            self.parent.append(parent)
            self.scenario.append(sid if name == SCENARIO else
                                 self.scenario[parent] if parent >= 0 else -1)
            self.nodes.append(0)
            self.end.append(0.0)
            self.start.append(0.0)
        if name == ROOT:
            self._root_stack = stack
        stack.append(sid)
        self.start[sid] = time.perf_counter()
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn):
        annotate = _ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "numerics.integrate_adaptive":
                args = (self.wrap(INTEGRAND, args[0]),) + args[1:]
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed.add(sid)
                raise
            finally:
                self.close(sid)
            if annotate is not None:
                annotate(self, sid, args, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Replace every function in SITES inside the imported chirpqfi package."""
        for site, name in SITES:
            module_name, attr = site.split(".")
            module = getattr(package, module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr)))

    def write(self, path: str) -> None:
        """Tab-separated spans: id, name, start, end, parent, scenario, failed, nodes."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tscenario\tfailed\tnodes\n")
            for sid, name in enumerate(self.name):
                fh.write(f"{sid}\t{name}\t{self.start[sid]!r}\t{self.end[sid]!r}\t{self.parent[sid]}\t"
                         f"{self.scenario[sid]}\t{int(sid in self.failed)}\t{self.nodes[sid]}\n")


def _nodes_from_grid(index):
    def annotate(rec, sid, args, result):
        rec.nodes[sid] = args[index].n_points
    return annotate


def _integrand_nodes(rec, sid, args, result):
    rec.nodes[sid] = len(args[0])


def _density_route(rec, sid, args, result):
    rec.extra[sid] = {"numeric": not result.closed_form, "spec": args[0]}


def _excited_nodes(rec, sid, args, result):
    rec.nodes[sid] = args[0].grid.n_points


def _csv_bytes(rec, sid, args, result):
    rec.extra[sid] = {"bytes": os.path.getsize(args[0])}


_ANNOTATE = {
    INTEGRAND: _integrand_nodes,
    "pulses.sample_pulse": _nodes_from_grid(1),
    "pulses.spectral_density": _density_route,
    "numerics.evolve_driven_decay": _nodes_from_grid(2),
    "dynamics.excited_amplitude": _excited_nodes,
    "cli.write_csv": _csv_bytes,
}

# Per-layer metrics a traced run reports, with units.  Layers a workload never
# reaches read 0.
LAYER_METRICS = {
    "numerics.integrate_adaptive.calls": "count",
    "numerics.integrate_adaptive.panels": "count",
    "numerics.integrate_adaptive.nodes": "count",
    "numerics.integrate_adaptive.self_s": "s",
    "numerics.integrand.self_s": "s",
    "numerics.evolve_driven_decay.calls": "count",
    "numerics.evolve_driven_decay.nodes": "count",
    "numerics.evolve_driven_decay.self_s": "s",
    "numerics.inner_product.calls": "count",
    "numerics.inner_product.self_s": "s",
    "pulses.spectral_density.calls": "count",
    "pulses.spectral_density.numeric_calls": "count",
    "pulses.spectral_density.distinct_specs": "count",
    "pulses.spectral_density.distinct_per_call": "1",
    "pulses.spectral_density.self_s": "s",
    "pulses.sample_pulse.calls": "count",
    "pulses.sample_pulse.nodes": "count",
    "pulses.sample_pulse.bytes_computed": "B",
    "pulses.sample_pulse.self_s": "s",
    "dynamics.excited_amplitude.calls": "count",
    "dynamics.excited_amplitude.nodes": "count",
    "dynamics.excited_amplitude.self_s": "s",
    "dynamics.outgoing_wavepacket.self_s": "s",
    "fisher.asymptotic_qfi.calls": "count",
    "fisher.asymptotic_qfi.self_s": "s",
    "fisher.asymptotic_qfi.call_p50_ms": "ms",
    "fisher.asymptotic_qfi.call_p90_ms": "ms",
    "fisher.asymptotic_qfi.quadratures_per_call": "1",
    "modes.build_basis.calls": "count",
    "modes.build_basis.self_s": "s",
    "modes.project_amplitudes.self_s": "s",
    "modes.mode_cfi.calls": "count",
    "modes.mode_cfi.self_s": "s",
    "cli.main.self_s": "s",
    "cli.run_sweep.self_s": "s",
    "cli.run_scenario.calls": "count",
    "cli.run_scenario.self_s": "s",
    "cli.write_csv.self_s": "s",
    "cli.write_csv.bytes": "B",
    "cli.write_manifest.self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
}


def layer_metrics(rec: Recorder, wall_s: float) -> dict:
    """Aggregate the recorded spans into LAYER_METRICS values (plain numbers).

    trace.unattributed_s is wall_s minus the self time of every span, i.e. the
    part of the timed CLI calls that no span covers.
    """
    n = len(rec.name)
    duration = [rec.end[i] - rec.start[i] for i in range(n)]
    child_time = [0.0] * n
    for i in range(n):
        if rec.parent[i] >= 0:
            child_time[rec.parent[i]] += duration[i]
    calls, self_s, nodes = {}, {}, {}
    for i, name in enumerate(rec.name):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + duration[i] - child_time[i]
        nodes[name] = nodes.get(name, 0) + rec.nodes[i]
    asym_ms = [1e3 * duration[i] for i in range(n) if rec.name[i] == "fisher.asymptotic_qfi"]
    quadratures_in_asym = sum(1 for i in range(n) if rec.name[i] == "numerics.integrate_adaptive"
                              and rec.name[rec.parent[i]] == "fisher.asymptotic_qfi")
    densities = [rec.extra[i] for i in range(n) if rec.name[i] == "pulses.spectral_density"
                 and i in rec.extra]

    values = {}
    for metric in LAYER_METRICS:
        name, quantity = metric.rsplit(".", 1)
        if quantity == "calls":
            values[metric] = calls.get(name, 0)
        elif quantity == "self_s":
            values[metric] = self_s.get(name, 0.0)
        elif quantity == "nodes":
            values[metric] = nodes.get(name, 0)
    values["numerics.integrate_adaptive.panels"] = calls.get(INTEGRAND, 0)
    values["numerics.integrate_adaptive.nodes"] = nodes.get(INTEGRAND, 0)
    n_density = calls.get("pulses.spectral_density", 0)
    distinct = len({d["spec"] for d in densities})
    values["pulses.spectral_density.numeric_calls"] = sum(d["numeric"] for d in densities)
    values["pulses.spectral_density.distinct_specs"] = distinct
    values["pulses.spectral_density.distinct_per_call"] = distinct / n_density if n_density else 0.0
    values["pulses.sample_pulse.bytes_computed"] = 16 * nodes.get("pulses.sample_pulse", 0)
    values["fisher.asymptotic_qfi.call_p50_ms"] = _percentile(asym_ms, 50)
    values["fisher.asymptotic_qfi.call_p90_ms"] = _percentile(asym_ms, 90)
    n_asym = calls.get("fisher.asymptotic_qfi", 0)
    values["fisher.asymptotic_qfi.quadratures_per_call"] = quadratures_in_asym / n_asym if n_asym else 0.0
    values["cli.write_csv.bytes"] = sum(rec.extra[i]["bytes"] for i in range(n)
                                        if rec.name[i] == "cli.write_csv" and i in rec.extra)
    values["trace.wall_s"] = wall_s
    values["trace.unattributed_s"] = wall_s - sum(self_s.values())
    return values


def _percentile(values, pct) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return quantiles(values, n=100, method="inclusive")[pct - 1]
