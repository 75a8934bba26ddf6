"""Seeded workload plans for the chirpqfi benchmark.

A workload is an endless stream of cycles.  Cycle ``c`` of workload ``w``
under seed ``s`` is a fixed list of table configurations whose free
parameters are drawn from ``random.Random(f"{w}:{s}:{c}:{i}")``, so the same
seed gives the same inputs and no two tables of a run share a pulse.  Every
table draws its own values, because a later program-side cache must only help
where one CLI call reuses work (a sweep over the system at a fixed pulse),
never across calls.

The program only ever sees the argv that :func:`argv_for` builds.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("asym-closed", "asym-numeric", "mode-counting")

# Why each workload exists and its stated size per draw;
# BENCHMARK.json carries the same strings (selftest.py checks that).
WHY = {
    "asym-closed": "fisher quadrature is ~all of each 3-5 ms point; a fused/vector quadrature or "
                   "sweep batch axis shows here. Per draw: 12 sweep tables, 152 points",
    "asym-numeric": "FFT+spline spectral_density is ~80% of each point; closed-form spectra, a "
                    "density cache or dropping the pool shows here. Per draw: 6 sweep tables, 22 points",
    "mode-counting": "build_basis Gram-Schmidt is ~90% of each j_max=25 table; a matrix mode layer "
                     "shows here and nowhere else. Per draw: 6 tables on 48k-93k node grids",
}

# One small scenario per CLI mode, run before timing and inside every set-up probe.
WARMUP = {
    "asym-closed": ["run", "--envelope", "gaussian", "--gamma_t", "1.0", "--gamma", "1.0",
                    "--mode", "asymptotic"],
    "asym-numeric": ["run", "--envelope", "gaussian", "--modulation", "sinusoidal",
                     "--omega", "1.0", "--gamma_t", "1.0", "--gamma", "1.0", "--mode", "asymptotic"],
    "mode-counting": ["run", "--envelope", "gaussian", "--gamma_t", "1.0", "--gamma", "1.0",
                      "--mode", "mode_cfi", "--basis", "hg", "--j_max", "3"],
}

# Tables that never use the sweep thread pool; their processes get BLAS threads instead.
RUN_ONLY = ("mode-counting",)


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


_ACTIVE = {"linear": "alpha", "quadratic": "k", "sinusoidal": "omega"}


def _pulse(envelope, gamma_t, modulation="none", **params):
    """Pulse config; only the active modulation keeps its parameter, because
    the program sizes its grids from all three."""
    pulse = {"envelope": envelope, "gamma_t": gamma_t, "modulation": modulation,
             "alpha": 0.0, "k": 0.0, "omega": 0.0}
    if modulation in _ACTIVE:
        name = _ACTIVE[modulation]
        pulse[name] = params[name]
    return pulse


def _sweep(pulse, gamma, fields, delta=0.0):
    """A sweep table; fields is a list of (name, start, stop, count)."""
    count = 1
    for field in fields:
        count *= field[3]
    return {"command": "sweep", "mode": "asymptotic", "pulse": pulse, "gamma": gamma,
            "delta": delta, "fields": fields, "scenarios": count}


def _run(pulse, gamma, mode, **extra):
    return {"command": "run", "mode": mode, "pulse": pulse, "gamma": gamma, "delta": 0.0,
            "scenarios": 1, **extra}


def _asym_closed(rng_for):
    tables = []
    families = (("gaussian", "none"), ("gaussian", "linear"), ("gaussian", "quadratic"),
                ("exponential", "none"), ("exponential", "linear"))
    for envelope, modulation in families:
        for gamma in (0.0, 5.0):
            rng = rng_for()
            lo, hi = _u(rng, 0.25, 0.5), _u(rng, 6.0, 8.0)
            pulse = _pulse(envelope, lo, modulation, alpha=_u(rng, 0.5, 1.5),
                           k=_u(rng, 0.25, 1.0))
            tables.append(_sweep(pulse, gamma, [("gamma_t", lo, hi, 12)]))
    for modulation in ("none", "linear"):
        rng = rng_for()
        pulse = _pulse("exponential", _u(rng, 1.0, 4.0), modulation, alpha=_u(rng, 0.5, 1.5))
        d = _u(rng, 1.0, 3.0)
        tables.append(_sweep(pulse, 0.0, [("gamma", 0.0, 5.0, 4), ("delta", -d, d, 4)]))
    return tables


def _asym_numeric(rng_for):
    tables = []
    for gamma in (0.0, 5.0):
        rng = rng_for()
        pulse = _pulse("exponential", 0.25, "quadratic", k=_u(rng, 0.75, 1.25))
        tables.append(_sweep(pulse, gamma, [("gamma_t", 0.25, 2.0, 3)]))
    for omega_lo, omega_hi, gamma in ((0.8, 1.2, 0.0), (0.8, 1.2, 5.0), (1.6, 2.4, 0.0)):
        rng = rng_for()
        pulse = _pulse("gaussian", 0.25, "sinusoidal", omega=_u(rng, omega_lo, omega_hi))
        tables.append(_sweep(pulse, gamma, [("gamma_t", 0.25, 8.0, 4)]))
    rng = rng_for()
    pulse = _pulse("exponential", _u(rng, 0.75, 1.25), "quadratic", k=_u(rng, 0.75, 1.25))
    d = _u(rng, 0.5, 1.5)
    tables.append(_sweep(pulse, 0.0, [("gamma", 0.0, 5.0, 2), ("delta", -d, d, 2)]))
    return tables


def _mode_counting(rng_for):
    # Narrow draws around the fig8 pulses: a table costs 0.4-1.2 s and a run
    # holds only about three draws of each table at each thread setting, so
    # wider ranges would move the rate and the peak memory of a run with the
    # draw.  Linear phase stays at alpha <= 1,
    # where the modal sum still converges at j_max=25.
    tables = []
    for modulation in ("none", "linear", "quadratic", "sinusoidal"):
        rng = rng_for()
        pulse = _pulse("gaussian", _u(rng, 2.45, 2.55), modulation, alpha=_u(rng, 0.9, 1.0),
                       k=_u(rng, 0.45, 0.5), omega=_u(rng, 0.9, 1.1))
        tables.append(_run(pulse, 5.0, "mode_cfi", basis="hg", j_max=25))
    rng = rng_for()
    pulse = _pulse("gaussian", _u(rng, 2.45, 2.55), "linear", alpha=_u(rng, 0.9, 1.1))
    tables.append(_run(pulse, 5.0, "mode_cfi", basis="envelope", j_max=25))
    rng = rng_for()
    pulse = _pulse("exponential", _u(rng, 1.95, 2.05))
    tables.append(_run(pulse, 5.0, "mode_cfi", basis="envelope", j_max=25))
    return tables


_BUILDERS = {
    "asym-closed": _asym_closed,
    "asym-numeric": _asym_numeric,
    "mode-counting": _mode_counting,
}


def cycle(workload: str, seed: int, index: int) -> list:
    """Table configurations of one cycle; deterministic in (workload, seed, index)."""
    counter = itertools.count()

    def rng_for():
        return random.Random(f"{workload}:{seed}:{index}:{next(counter)}")

    return _BUILDERS[workload](rng_for)


def size(workload: str) -> dict:
    """Stated size of one cycle: tables and scenarios (seed-independent)."""
    tables = cycle(workload, 0, 0)
    return {"tables": len(tables), "scenarios": sum(t["scenarios"] for t in tables)}


def _num(x: float) -> str:
    return repr(float(x))


def argv_for(table: dict, out_path: str, threads: int) -> list:
    """CLI argv for one table."""
    pulse = table["pulse"]
    argv = [table["command"], "--envelope", pulse["envelope"], "--gamma_t", _num(pulse["gamma_t"]),
            "--modulation", pulse["modulation"]]
    for name in ("alpha", "k", "omega"):
        if pulse[name]:
            argv += [f"--{name}", _num(pulse[name])]
    argv += ["--gamma", _num(table["gamma"]), "--delta", _num(table["delta"]),
             "--mode", table["mode"]]
    if table["command"] == "sweep":
        for flag, (name, start, stop, count) in zip(("--sweep", "--sweep2"), table["fields"]):
            argv += [flag, f"{name}={_num(start)}:{_num(stop)}:{count}"]
    if table["mode"] == "mode_cfi":
        argv += ["--basis", table["basis"], "--j_max", str(table["j_max"])]
    return argv + ["--out", out_path, "--threads", str(threads)]
