"""Load process of the benchmark: one workload in a fresh interpreter.

    python3 worker.py <workload> <seed> <seconds> <src> <out_dir> <nproc> [options]

Runs the workload's tables through ``chirpqfi.cli.main(argv)`` as a closed
loop with one client: the next table starts only after the previous CSV and
manifest are written and read back.  Between tables, outside their timing,
a ~2 ms calibration kernel runs CAL_PER_S times per second of the loop.
After the timed loop an untraced run checks every table with gate.py; a
traced run is not checked (run.py compares its output digests with those of
an untraced run instead).  Writes
``result.json`` (and ``spans.tsv`` when traced) into out_dir.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


CAL_PER_S = 10
_CAL_SMALL = np.linspace(0.0, 1.0, 15)
_CAL_BIG = np.exp(1j * np.linspace(0.0, 50.0, 1 << 16))


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter-bound and array-bound work.

    It runs between tables, so run.py can tell how fast the shared machine
    was around each table; it uses nothing of chirpqfi, so a change to the
    program does not change it.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(600):
        acc += float(np.dot(_CAL_SMALL, _CAL_SMALL * (1.0 + 1e-3 * i)))
    np.fft.fft(_CAL_BIG[: 1 << 14])
    for _ in range(16):
        acc += abs(np.vdot(_CAL_BIG, _CAL_BIG))
    return time.perf_counter() - t0


def _read_table(path: str):
    """Parse a CLI CSV and check it against its manifest; returns (header, rows, digest)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    manifest_path = os.path.splitext(path)[0] + ".manifest.json"
    with open(manifest_path, "rb") as fh:
        manifest_raw = fh.read()
    manifest = json.loads(manifest_raw)
    lines = raw.decode("utf-8").split("\r\n")
    comments = [ln for ln in lines if ln.startswith("#")]
    if f"# config_hash: {manifest['config_hash']}" not in comments:
        raise ValueError("CSV config_hash does not match its manifest")
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    header = body[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in body[1:]]
    if not all(math.isfinite(v) for row in rows for v in row):
        raise ValueError("non-finite value in CSV")
    digest = hashlib.sha256(raw + manifest_raw).hexdigest()
    return header, rows, digest


def _expected_rows(table: dict) -> int:
    if table["mode"] == "mode_cfi":
        return table["j_max"] + 1
    return table["scenarios"]


def _plan(args, index: int) -> list:
    """(slot, table, threads) of cycle `index`; slot is the table's place in its draw.

    Measured runs interleave two independent draws of the cycle, one with the
    CLI at nproc pool threads and one at --threads 1, so both rates see the
    same table mix and the same machine phases.  Traced runs use one pool
    thread only, so span self times add up to wall time.
    """
    if args.single:
        tables = [(slot, t, 1) for slot, t in
                  enumerate(workloads.cycle(args.workload, args.seed, index))]
    else:
        a = workloads.cycle(args.workload, args.seed, 2 * index)
        b = workloads.cycle(args.workload, args.seed, 2 * index + 1)
        tables = [triple for slot, (ta, tb) in enumerate(zip(a, b))
                  for triple in ((slot, ta, args.nproc), (slot, tb, 1))]
    if args.tiny:
        tables = tables[:2]
    return tables


def _gate(args, records: list) -> dict:
    """Check every table against its reference route; sets record["failed"].

    A Gram check runs on the first table of each mode basis.
    """
    gram_done = set()
    summary = {"max_rel_err": 0.0, "checked": 0, "problems": []}
    for record in records:
        if "rows" not in record:
            record["failed"] = record["table"]["scenarios"]
            continue
        table = record["table"]
        check_gram = table["mode"] == "mode_cfi" and table["basis"] not in gram_done
        if check_gram:
            gram_done.add(table["basis"])
        result = gate.check_table(args.workload, table, record["header"], record["rows"],
                                  check_gram, args.perturb_reference)
        record["failed"] = result["failed"]
        summary["max_rel_err"] = max(summary["max_rel_err"], result["max_err"])
        summary["checked"] += result["checked"]
        summary["problems"] += result["problems"]
    return summary


def load(args) -> None:
    sys.path.insert(0, args.src)
    import chirpqfi
    import chirpqfi.cli as cli

    out_csv = os.path.join(args.out_dir, "table.csv")
    # let lazy imports and first-call set-up finish before timing
    cli.main(workloads.WARMUP[args.workload] + ["--out", out_csv])
    recorder = None
    call = cli.main
    if args.trace:
        recorder = spans.Recorder()
        recorder.install(chirpqfi)
        call = recorder.wrap(spans.ROOT, cli.main)

    records = []
    loop_start = time.perf_counter()
    index = 0
    n_cals = 0
    while True:
        cycle_start = time.perf_counter()
        for slot, table, threads in _plan(args, index):
            argv = workloads.argv_for(table, out_csv, threads)
            error = None
            # CAL_PER_S calibrations per second of the loop, however long the
            # tables are, so that how many lie near a table does not depend on
            # the program's speed
            cals = []
            while n_cals < 1 + CAL_PER_S * (time.perf_counter() - loop_start):
                cal_at = time.perf_counter() - loop_start
                cals.append((cal_at, calibrate()))
                n_cals += 1
            t0 = time.perf_counter()
            try:
                rc = call(argv)
            except Exception as exc:  # the CLI let an exception escape: count the table as failed
                rc, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            record = {"table": table, "cycle": index, "slot": slot, "threads": threads,
                      "start": t0 - loop_start, "seconds": seconds,
                      "cals": cals, "rc": rc,
                      "argv": argv, "error": error}
            if rc == 0:
                try:
                    header, rows, digest = _read_table(out_csv)
                    if len(rows) != _expected_rows(table):
                        raise ValueError(f"{len(rows)} rows, expected {_expected_rows(table)}")
                    record.update(header=header, rows=rows, digest=digest)
                except (OSError, ValueError, KeyError) as exc:
                    record["error"] = f"output check: {exc}"
            elif error is None:
                record["error"] = f"exit code {rc}"
            records.append(record)
        index += 1
        now = time.perf_counter()
        if args.cycles:
            if index >= args.cycles:
                break
        elif args.tiny or now - loop_start + 0.5 * (now - cycle_start) >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import scipy

    result = {"cycles": index, "peak_rss_mb": peak_rss_mb,
              "wall_s": sum(r["seconds"] for r in records),
              "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}
    if recorder is not None:
        recorder.write(os.path.join(args.out_dir, "spans.tsv"))
        result["layers"] = spans.layer_metrics(recorder, result["wall_s"])
    else:
        gate_start = time.perf_counter()
        result.update(_gate(args, records))
        result["gate_s"] = time.perf_counter() - gate_start
    for record in records:
        record.pop("rows", None)
    result["tables"] = records
    with open(os.path.join(args.out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="benchmark load process")
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("src")
    parser.add_argument("out_dir")
    parser.add_argument("nproc", type=int)
    parser.add_argument("--single", action="store_true", help="one draw per table, --threads 1")
    parser.add_argument("--cycles", type=int, default=0, help="run exactly this many cycles")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="first two tables of one cycle")
    parser.add_argument("--perturb-reference", type=float, default=0.0)
    load(parser.parse_args(argv))


if __name__ == "__main__":
    main()
