"""chirpqfi benchmark: one workload per invocation, through the public CLI.

    python3 perfbench/run.py --workload asym-closed --seed 1 --seconds 28 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from ``src/`` next to this directory, and all output goes to
``.perfbench_out/`` at the checkout root.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: median over SETUP_PROBES fresh interpreters of the time from
  spawning ``python3`` to the end of ``import chirpqfi.cli`` plus one warm-up
  scenario of the workload's mode.
* ``scenarios_per_s`` / ``scenarios_per_s_1t``: scenarios per second of
  ``chirpqfi.cli.main(argv)`` wall time with the CLI at ``--threads nproc`` /
  ``--threads 1``, scaled to a machine of reference speed (see _rate).
  Each table of a draw (its slot: a pulse family and sweep) runs once per
  cycle with fresh parameters; the rate is the scenarios of one draw over
  the sum of each slot's fastest scaled time.  The unscaled rates are
  printed on the line before the result.  A scenario is one sweep point or
  one mode-counting table.  On ``mode-counting`` the CLI never uses its
  pool, so the two rates measure the same path twice; they are kept apart
  so that a change which parallelises ``run`` shows.
* ``peak_rss_mb``: peak resident memory of the load process at the end of
  its timed loop (the gate runs afterwards).
* ``max_rel_err``: worst deviation of a checked value from its reference
  route (see gate.py).

Scenarios that raise or fail their check are counted in ``failed`` against
``attempted`` (their ratio is the ``failed_frac`` of a traced run).

``--trace 1`` runs the same tables twice, at one pool thread, in two fresh
processes: once untraced and once with the span wrappers of spans.py
installed, and reports the per-layer metrics, ``trace.overhead_s`` (traced
minus untraced wall time of the CLI calls) and the set-up split
(``setup.import.<module>_s`` from ``python3 -X importtime``).

Child processes get OMP/OPENBLAS/MKL_NUM_THREADS=1 on the sweep workloads,
whose CLI pool runs nproc threads, and =nproc on the run-only workload, so
pool threads x BLAS threads <= nproc.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment (nproc, versions, thread settings) and the run's
size.  ``--tiny`` runs the first two tables of one cycle and one set-up
probe (used by selftest.py).
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 3
# setup_s minus the setup.* split: interpreter start-up, site, the probe's own
# imports and the chirpqfi package body.
SETUP_MARGIN_S = 0.25
CHILD_TIMEOUT_S = 150
# Reference time of worker.calibrate (about its fastest on a 2-core shared
# x86 VM) and how far from a table a calibration may lie to count for it.
CAL_REF_S = 2.0e-3
CAL_WINDOW_S = 1.0
LAYERS = ("numerics", "pulses", "dynamics", "fisher", "modes", "cli")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _threads(workload: str, nproc: int) -> dict:
    """Pool x BLAS threads held to at most nproc busy threads."""
    if workload in workloads.RUN_ONLY:
        return {"pool_threads": 1, "blas_threads": nproc}
    return {"pool_threads": nproc, "blas_threads": 1}


def _child_env(threads: dict) -> dict:
    env = dict(os.environ)
    env.pop("CHIRPQFI_THREADS", None)
    for var in BLAS_VARS:
        env[var] = str(threads["blas_threads"])
    return env


def _environment(workload: str, nproc: int, threads: dict, versions: dict) -> dict:
    return {"workload": workload, "nproc": nproc, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), **versions,
            "platform": platform.platform(), **threads, "blas_thread_vars": list(BLAS_VARS)}


def _run_child(argv: list, env: dict) -> tuple:
    """Run a child in its own process group; on timeout the group is killed
    and reaped."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"child {argv[1:3]} exited with {proc.returncode}")
    return stdout, stderr


_IMPORTTIME = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)")


def _setup_probe(workload: str, env: dict, importtime: bool) -> dict:
    out_dir = os.path.join(OUT, workload, "setup")
    os.makedirs(out_dir, exist_ok=True)
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + \
        [os.path.join(HERE, "probe.py"), SRC] + workloads.WARMUP[workload] + \
        ["--out", os.path.join(out_dir, "warmup.csv")]
    spawn = time.perf_counter()
    stdout, stderr = _run_child(argv, env)
    probe = json.loads(stdout.strip().splitlines()[-1])
    if probe["rc"] != 0:
        raise RuntimeError(f"warm-up scenario exited with {probe['rc']}")
    result = {"setup_s": probe["ready"] - spawn, "warmup_s": probe["warmup_s"]}
    if importtime:
        result.update(import_split(stderr))
    return result


def import_split(importtime_log: str) -> dict:
    """Incremental import time of each layer from a ``-X importtime`` log.

    A module the log does not name (one a layer no longer imports, or
    imports lazily after set-up) counts 0.
    """
    cumulative = {}
    for match in _IMPORTTIME.finditer(importtime_log):
        cumulative.setdefault(match.group(2), int(match.group(1)) * 1e-6)
    split = {f"import.{layer}_s": cumulative.get(f"chirpqfi.{layer}", 0.0) for layer in LAYERS}
    # `import chirpqfi.cli` runs the package body (every other layer) first
    split["import.cli_s"] -= cumulative.get("chirpqfi", 0.0)
    split["import.numerics.scipy_signal_s"] = cumulative.get("scipy.signal", 0.0)
    return split


def _setup(workload: str, env: dict, probes: int, importtime: bool) -> dict:
    """Median of each set-up quantity over `probes` fresh interpreters."""
    runs = [_setup_probe(workload, env, importtime) for _ in range(probes)]
    if importtime:
        for r in runs:
            r["unattributed_s"] = r["setup_s"] - r["warmup_s"] - \
                sum(r[f"import.{layer}_s"] for layer in LAYERS)
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def _load(workload: str, seed: int, seconds: float, nproc: int, env: dict, tag: str,
          extra: list) -> dict:
    out_dir = os.path.join(OUT, workload, tag)
    os.makedirs(out_dir, exist_ok=True)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
            repr(seconds), SRC, out_dir, str(nproc)] + extra
    _run_child(argv, env)
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _rate(tables: list, threads: int) -> tuple:
    """(scaled, unscaled) scenarios per second at `threads`.

    The machine is shared: other tenants slow it by 10-60% in phases from a
    second to minutes long, and a table can take twice as long as the same
    table a few seconds later.  Two steps keep that out of the figure:

    * each table's time is scaled by CAL_REF_S over the fastest calibration
      (worker.calibrate) that started within CAL_WINDOW_S of the table's
      midpoint (or, for a table longer than 2 * CAL_WINDOW_S, just before or
      after it), i.e. to the time it would take on a machine as fast as the
      reference;
    * for each slot the fastest of its scaled runs counts (each run with its
      own drawn parameters, all of similar cost), and the rate is the
      scenarios of one draw over the sum of those times.

    The unscaled rate applies the second step to the measured times alone.
    A program change that kept the machine busy between tables (a spinning
    thread) would slow the calibration and raise the scaled rate only; a
    scaled gain without an unscaled one is suspect.
    """
    cals = sorted(tuple(c) for t in tables for c in t["cals"])
    at = [c[0] for c in cals]
    best, best_raw, scenarios = {}, {}, {}
    for t in tables:
        if t["threads"] != threads or t["seconds"] <= 0:
            continue
        mid, half = t["start"] + 0.5 * t["seconds"], max(CAL_WINDOW_S, 0.5 * t["seconds"] + 0.05)
        lo = bisect.bisect_left(at, mid - half)
        hi = bisect.bisect_right(at, mid + half)
        speed = min(c[1] for c in cals[lo:hi])
        slot = t["slot"]
        best[slot] = min(best.get(slot, math.inf), t["seconds"] * CAL_REF_S / speed)
        best_raw[slot] = min(best_raw.get(slot, math.inf), t["seconds"])
        scenarios[slot] = t["table"]["scenarios"]
    if not best:
        return 0.0, 0.0
    n = sum(scenarios.values())
    return n / sum(best.values()), n / sum(best_raw.values())


def _counts(result: dict) -> tuple:
    attempted = sum(t["table"]["scenarios"] for t in result["tables"])
    failed = sum(t["failed"] for t in result["tables"])
    return attempted, failed


def _report_problems(result: dict) -> None:
    for t in result["tables"]:
        if t.get("error"):
            print(f"table failed: {' '.join(t['argv'])}: {t['error']}", file=sys.stderr)
    for problem in result.get("problems", []):
        print(f"check failed: {problem}", file=sys.stderr)


def measure(workload: str, seed: int, seconds: float, nproc: int, env: dict, tiny: bool,
            perturb: float) -> tuple:
    setup = _setup(workload, env, 1 if tiny else SETUP_PROBES, importtime=False)
    extra = (["--tiny"] if tiny else []) + \
        (["--perturb-reference", repr(perturb)] if perturb else [])
    result = _load(workload, seed, seconds, nproc, env, "measure", extra)
    _report_problems(result)
    attempted, failed = _counts(result)
    rate, rate_unscaled = _rate(result["tables"], nproc)
    rate_1t, rate_1t_unscaled = _rate(result["tables"], 1)
    cal_ms = [1e3 * c[1] for t in result["tables"] for c in t["cals"]]
    notes = _notes(result)
    notes.update(unscaled={"scenarios_per_s": rate_unscaled, "scenarios_per_s_1t": rate_1t_unscaled},
                 calibration_ms={"min": min(cal_ms), "median": statistics.median(cal_ms),
                                 "reference": 1e3 * CAL_REF_S})
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "scenarios_per_s": (rate, "1/s"),
        "scenarios_per_s_1t": (rate_1t, "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "max_rel_err": (result["max_rel_err"], "1"),
    }
    return attempted, failed, metrics, notes


def trace(workload: str, seed: int, seconds: float, nproc: int, env: dict, tiny: bool,
          perturb: float) -> tuple:
    import spans

    setup = _setup(workload, env, 1 if tiny else SETUP_PROBES, importtime=True)
    extra = ["--single"] + (["--tiny"] if tiny else [])
    plain = _load(workload, seed, seconds / 2, nproc, env, "untraced",
                  extra + (["--perturb-reference", repr(perturb)] if perturb else []))
    _report_problems(plain)
    traced = _load(workload, seed, seconds / 2, nproc, env, "traced",
                   extra + ["--trace", "--cycles", str(plain["cycles"])])
    attempted, failed = _counts(plain)
    # the traced run must write the same bytes as the untraced one
    for a, b in zip(plain["tables"], traced["tables"]):
        if a.get("digest") is None or a.get("digest") != b.get("digest"):
            print(f"traced output differs: {' '.join(b['argv'])}", file=sys.stderr)
            failed += a["table"]["scenarios"] if a["failed"] == 0 else 0
    layers = traced["layers"]
    metrics = {name: (layers[name], unit) for name, unit in spans.LAYER_METRICS.items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    for layer in LAYERS:
        metrics[f"setup.import.{layer}_s"] = (setup[f"import.{layer}_s"], "s")
    metrics["setup.import.numerics.scipy_signal_s"] = (setup["import.numerics.scipy_signal_s"], "s")
    metrics["setup.warmup_s"] = (setup["warmup_s"], "s")
    metrics["setup.unattributed_s"] = (setup["unattributed_s"], "s")
    metrics["failed_frac"] = (failed / attempted, "1")
    return attempted, failed, metrics, _notes(plain)


def _notes(result: dict) -> dict:
    return {"versions": result["versions"], "cycles": result["cycles"],
            "tables": len(result["tables"]), "checked_values": result["checked"],
            "gate_s": result.get("gate_s")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chirpqfi benchmark (one workload per run)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="two tables and one set-up probe")
    parser.add_argument("--perturb-reference", type=float, default=0.0,
                        help="scale every reference value by 1+x (self-test of the gate)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chirpqfi", "cli.py")):
        print(f"perfbench: no chirpqfi sources under {SRC}", file=sys.stderr)
        return 2
    nproc = _nproc()
    threads = _threads(args.workload, nproc)
    env = _child_env(threads)
    shutil.rmtree(os.path.join(OUT, args.workload), ignore_errors=True)
    step = trace if args.trace else measure
    attempted, failed, metrics, notes = step(args.workload, args.seed, args.seconds, nproc, env,
                                             args.tiny, args.perturb_reference)
    print(json.dumps({"environment": _environment(args.workload, nproc, threads, notes.pop("versions")),
                      "size_per_cycle": workloads.size(args.workload),
                      "why": workloads.WHY[args.workload], "run": notes}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
