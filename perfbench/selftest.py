"""Self-test of the benchmark, at tiny size.

    python3 perfbench/selftest.py [workload ...]

For each workload it checks that

* a ``--trace 0`` run emits exactly the end-to-end metrics of BENCHMARK.json,
  each with its unit, and passes its correctness gate;
* a ``--trace 1`` run emits exactly the per-layer metrics, each with its
  unit; that the per-layer ``self_s`` values plus ``trace.unattributed_s``
  add up to ``trace.wall_s``; and that the set-up split leaves at most
  run.SETUP_MARGIN_S unattributed;
* a run whose reference values are perturbed by 1e-3 reports
  ``correct: false`` with failed scenarios.

It also checks that the set-up split reads 0 for a module the import log
does not name, that the scaled throughput of run._rate does not change when
the machine and the tables slow down together, and that the benchmark exits non-zero without a result line in a
directory that holds only BENCHMARK.json and the benchmark itself.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(args: list, cwd: str = ROOT) -> tuple:
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if proc.returncode == 0 else None), proc.stderr


def _expect(cond: bool, message: str) -> None:
    if not cond:
        print(f"FAIL: {message}")
        sys.exit(1)


def _check_metrics(result: dict, spec: list, label: str) -> None:
    _expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    _expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted")
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in spec}
    _expect(emitted == wanted, f"{label}: metrics/units differ: "
                               f"{sorted(set(emitted.items()) ^ set(wanted.items()))}")
    _expect(all(math.isfinite(m["value"]) for m in result["metrics"].values()), f"{label}: finite")


def check_workload(workload: str, bench: dict) -> None:
    base = ["--workload", workload, "--seed", "7", "--seconds", "1", "--tiny"]
    rc, result, err = _bench(base + ["--trace", "0"])
    _expect(rc == 0, f"{workload} trace 0 exited {rc}: {err[-2000:]}")
    _check_metrics(result, bench["end_to_end"], f"{workload} trace 0")
    _expect(result["correct"] and result["failed"] == 0, f"{workload}: gate failed: {err[-2000:]}")

    rc, result, err = _bench(base + ["--trace", "1"])
    _expect(rc == 0, f"{workload} trace 1 exited {rc}: {err[-2000:]}")
    _check_metrics(result, bench["per_layer"], f"{workload} trace 1")
    _expect(result["correct"], f"{workload} trace 1: gate failed: {err[-2000:]}")
    m = {name: v["value"] for name, v in result["metrics"].items()}
    covered = sum(v for name, v in m.items() if name.endswith(".self_s")) + m["trace.unattributed_s"]
    _expect(abs(covered - m["trace.wall_s"]) <= 1e-9 * m["trace.wall_s"],
            f"{workload}: self_s sum {covered} != wall {m['trace.wall_s']}")
    _expect(0.0 <= m["setup.unattributed_s"] <= run.SETUP_MARGIN_S,
            f"{workload}: setup split leaves {m['setup.unattributed_s']} s unattributed")

    rc, result, err = _bench(base + ["--trace", "0", "--perturb-reference", "1e-3"])
    _expect(rc == 0 and not result["correct"] and result["failed"] > 0,
            f"{workload}: perturbed reference did not trip the gate")
    print(f"ok {workload}")


def check_bare_directory() -> None:
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "asym-closed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    _expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
            "benchmark without sources did not fail cleanly")
    print("ok bare directory")


def check_import_split() -> None:
    """A layer that stops importing scipy.signal (or imports it lazily) reads 0."""
    log = "".join(f"import time: {10 * i} | {1000 * i} | {name}\n" for i, name in enumerate(
        ("chirpqfi.numerics", "chirpqfi.pulses", "chirpqfi.dynamics", "chirpqfi.fisher",
         "chirpqfi.modes", "chirpqfi", "chirpqfi.cli"), start=1))
    split = run.import_split(log)
    _expect(split["import.numerics.scipy_signal_s"] == 0.0, "missing scipy.signal is not 0")
    _expect(abs(split["import.numerics_s"] - 1e-3) < 1e-12 and abs(split["import.cli_s"] - 1e-3) < 1e-12,
            f"import split of a synthetic log: {split}")
    _expect(run.import_split("")["import.modes_s"] == 0.0, "missing layer is not 0")
    print("ok import split")


def check_rate() -> None:
    """A machine half as fast (calibration and tables twice as slow) keeps the
    scaled rate; a slower table in one cycle does not move it."""
    def table(slot, cycle, seconds, cal_s):
        start = 10.0 * cycle + 3.0 * slot
        return {"slot": slot, "threads": 1, "start": start, "seconds": seconds,
                "cals": [(start - cal_s, cal_s)], "table": {"scenarios": 4}}

    fast = [table(slot, cycle, 0.5 + slot, 2e-3) for slot in (0, 1) for cycle in (0, 1)]
    slow = [dict(t, seconds=2 * t["seconds"], cals=[(t["start"] - 4e-3, 4e-3)]) for t in fast]
    burst = fast + [table(0, 2, 1.5, 2e-3)]
    want = 8 / (0.5 + 1.5) * (2e-3 / run.CAL_REF_S)
    for label, tables in (("fast", fast), ("slow", slow), ("burst", burst)):
        scaled, _ = run._rate(tables, 1)
        _expect(abs(scaled - want) < 1e-9 * want, f"scaled rate of the {label} machine: {scaled} != {want}")
    _expect(abs(run._rate(slow, 1)[1] - want / 2) < 1e-9 * want, "unscaled rate of the slow machine")
    print("ok rate")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    _expect([(w["name"], w["why"]) for w in bench["workloads"]]
            == [(name, workloads.WHY[name]) for name in workloads.WORKLOADS],
            "BENCHMARK.json workloads and reasons")
    check_import_split()
    check_rate()
    check_bare_directory()
    for workload in sys.argv[1:] or workloads.WORKLOADS:
        check_workload(workload, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
