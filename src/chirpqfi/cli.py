"""Scenario runner, sweep engine, and figure presets.

Emits machine-readable CSV tables (with a `#` provenance prologue) and a
JSON manifest recording the exact scenario blocks used, so every output
can be reproduced byte-for-byte from its manifest.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import __version__
from .errors import ChirpQFIError, UnknownPreset
from .dynamics import SystemParams, excited_amplitude, outgoing_wavepacket
from .fisher import (
    FisherBreakdown,
    asymptotic_qfi,
    exponential_linear_closed_forms,
    finite_time_curve,
    gaussian_closed_forms,
)
from .modes import (
    GramSchmidtFromEnvelope,
    HermiteGauss,
    build_basis,
    conditional_cumulative_ratio,
    modal_grid,
    mode_cfi,
    outcome_distribution,
    project_amplitudes,
)
from .pulses import PulseSpec, bandwidth, default_grid, pulse_from_config, pulse_to_config, sample_pulse

MODES = ("asymptotic", "finite_time", "mode_cfi", "closed_form")
SWEEPABLE = ("gamma_t", "alpha", "k", "omega", "gamma", "delta")
_SPECTRAL_HEADER = ("gamma_t", "gamma", "delta", "classical", "quantum", "total", "p_loss")
# column header of each mode's table, shared by run_scenario and run_sweep
HEADERS = {
    "asymptotic": _SPECTRAL_HEADER,
    "closed_form": _SPECTRAL_HEADER,
    "finite_time": ("t", "classical", "quantum", "total", "p_loss"),
    "mode_cfi": ("j", "mode_cfi", "qfi", "ratio", "conditional_cumulative_ratio"),
}


@dataclass(frozen=True)
class Scenario:
    """One complete computation request: pulse, system, and evaluation mode."""

    pulse: PulseSpec
    params: SystemParams
    mode: str = "asymptotic"
    t_start: float = -10.0
    t_stop: float = 60.0
    t_count: int = 141
    basis: str = "hg"
    j_max: int = 20

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "finite_time" and not (self.t_count >= 2 and self.t_start < self.t_stop):
            raise ValueError("finite_time needs t_start < t_stop and t_count >= 2")
        if self.basis not in ("hg", "envelope"):
            raise ValueError(f"unknown basis {self.basis!r}")
        if self.j_max < 0:
            raise ValueError(f"j_max must be >= 0, got {self.j_max}")


def scenario_to_config(sc: Scenario) -> dict:
    cfg = dict(pulse_to_config(sc.pulse))
    cfg.update({
        "gamma": repr(sc.params.gamma),
        "delta": repr(sc.params.delta),
        "mode": sc.mode,
    })
    if sc.mode == "finite_time":
        cfg.update({"t_start": repr(sc.t_start), "t_stop": repr(sc.t_stop),
                    "t_count": repr(sc.t_count)})
    if sc.mode == "mode_cfi":
        cfg.update({"basis": sc.basis, "j_max": repr(sc.j_max)})
    return cfg


def scenario_from_config(cfg: dict) -> Scenario:
    pulse_keys = ("envelope", "gamma_t", "modulation", "alpha", "k", "omega")
    pulse = pulse_from_config({k: v for k, v in cfg.items() if k in pulse_keys})
    params = SystemParams(gamma=float(cfg.get("gamma", 0.0)), delta=float(cfg.get("delta", 0.0)))
    extras = {}
    for key, cast in (("t_start", float), ("t_stop", float), ("t_count", int),
                      ("basis", str), ("j_max", int)):
        if key in cfg:
            extras[key] = cast(cfg[key])
    known = set(pulse_keys) | {"gamma", "delta", "mode", "sweep", "sweep2",
                               "t_start", "t_stop", "t_count", "basis", "j_max"}
    unknown = set(cfg) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return Scenario(pulse, params, mode=str(cfg.get("mode", "asymptotic")), **extras)


def parse_config_text(text: str) -> dict:
    """Flat key=value lines; blank lines and '#' comments ignored."""
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def config_hash(cfg_blocks) -> str:
    canon = json.dumps(cfg_blocks, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SweepSpec:
    """Scenario template plus one or two swept numeric fields."""

    template: Scenario
    fields: tuple  # of (name, start, stop, count)

    def __post_init__(self):
        if not 1 <= len(self.fields) <= 2:
            raise ValueError("sweep needs one or two swept fields")
        for name, start, stop, count in self.fields:
            if name not in SWEEPABLE:
                raise ValueError(f"cannot sweep field {name!r}; choose from {SWEEPABLE}")
            if count < 2:
                raise ValueError(f"sweep of {name!r} needs count >= 2")
            if not np.isfinite([start, stop]).all():
                raise ValueError(f"sweep bounds for {name!r} must be finite")


def parse_sweep_field(text: str):
    """'gamma_t=0.25:8:24' -> ('gamma_t', 0.25, 8.0, 24)."""
    name, _, rng = text.partition("=")
    parts = rng.split(":")
    if not rng or len(parts) != 3:
        raise ValueError(f"expected field=start:stop:count, got {text!r}")
    return name.strip(), float(parts[0]), float(parts[1]), int(parts[2])


def _with_field(sc: Scenario, name: str, value: float) -> Scenario:
    if name in ("gamma", "delta"):
        return replace(sc, params=replace(sc.params, **{name: value}))
    return replace(sc, pulse=replace(sc.pulse, **{name: value}))


def _closed_form_breakdown(sc: Scenario) -> FisherBreakdown:
    pulse, params = sc.pulse, sc.params
    if pulse.envelope == "gaussian":
        if pulse.modulation in ("none", "quadratic"):
            if params.delta != 0.0:
                raise ValueError("Gaussian closed form requires zero detuning")
            return gaussian_closed_forms(params.gamma, bandwidth(pulse))
        raise ValueError(f"no closed form for gaussian + {pulse.modulation}")
    if pulse.modulation in ("none", "linear"):
        delta_eff = params.delta + (pulse.alpha if pulse.modulation == "linear" else 0.0)
        return exponential_linear_closed_forms(params.gamma, pulse.gamma_t, delta_eff)
    raise ValueError(f"no closed form for exponential + {pulse.modulation}")


def run_scenario(sc: Scenario):
    """Execute one scenario; returns (header, rows) of plain Python values."""
    if sc.mode in ("asymptotic", "closed_form"):
        bd = asymptotic_qfi(sc.pulse, sc.params) if sc.mode == "asymptotic" \
            else _closed_form_breakdown(sc)
        rows = [[sc.pulse.gamma_t, sc.params.gamma, sc.params.delta,
                 bd.classical, bd.quantum, bd.total, bd.p_loss]]
        return list(HEADERS[sc.mode]), rows
    if sc.mode == "finite_time":
        grid = default_grid(sc.pulse, tail=max(60.0, sc.t_stop + 5.0))
        pulse = sample_pulse(sc.pulse, grid)
        curve = finite_time_curve(pulse, sc.params)
        rows = []
        for t in np.linspace(sc.t_start, sc.t_stop, sc.t_count):
            # snap to the nearest node; the emitted t is the node actually used
            i = int(round((t - grid.t_start) / grid.dt))
            i = min(max(i, 0), grid.n_points - 1)
            rows.append([grid.t_start + i * grid.dt, curve.classical[i],
                         curve.quantum[i], curve.total[i], curve.p_loss[i]])
        return list(HEADERS[sc.mode]), rows
    # mode_cfi: information ratio of mode-resolved photon counting vs truncation
    kind = HermiteGauss(sc.pulse.gamma_t) if sc.basis == "hg" else GramSchmidtFromEnvelope(sc.pulse)
    grid = modal_grid(sc.pulse, sc.j_max, kind)
    pulse = sample_pulse(sc.pulse, grid)
    excited = excited_amplitude(pulse, sc.params)
    out = outgoing_wavepacket(pulse, sc.params, excited, grid.t_end)
    basis = build_basis(kind, sc.j_max, grid)
    modal = project_amplitudes(out, basis)
    qfi = asymptotic_qfi(sc.pulse, sc.params).total
    conditional = conditional_cumulative_ratio(modal, qfi)
    rows = []
    for j in range(sc.j_max + 1):
        probs, derivs = outcome_distribution(modal, j)
        cfi = mode_cfi(probs, derivs)
        rows.append([j, cfi, qfi, cfi / qfi, conditional[j]])
    return list(HEADERS[sc.mode]), rows


def _format(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


@contextlib.contextmanager
def _output_file(path: str, newline=None):
    """Open path for writing; if writing fails part-way, remove the partial file."""
    fh = open(path, "w", newline=newline, encoding="utf-8")
    try:
        with fh:
            yield fh
    except BaseException:
        os.remove(path)
        raise


def write_csv(path: str, header, rows, comments) -> None:
    """UTF-8 CSV with RFC-4180 quoting and a '#' provenance prologue."""
    with _output_file(path, newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\r\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format(v) for v in row])


def write_manifest(path: str, preset: Optional[str], scenario_blocks) -> str:
    digest = config_hash(scenario_blocks)
    doc = {
        "preset": preset,
        "scenarios": scenario_blocks,
        "tool_version": __version__,
        "config_hash": digest,
    }
    with _output_file(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return digest


def _emit(path: str, header, rows, scenario_blocks, preset=None) -> None:
    """Write the manifest, then the CSV; a failed CSV also removes its manifest."""
    manifest = os.path.splitext(path)[0] + ".manifest.json"
    digest = write_manifest(manifest, preset, scenario_blocks)
    try:
        write_csv(path, header, rows, [f"chirpqfi {__version__}", f"config_hash: {digest}"])
    except BaseException:
        os.remove(manifest)
        raise


def run_sweep(sweep: SweepSpec):
    """Evaluate the sweep grid point by point; returns (header, rows) in grid order."""
    axes = [np.linspace(start, stop, count) for _, start, stop, count in sweep.fields]
    names = [f[0] for f in sweep.fields]
    base_header = HEADERS[sweep.template.mode]
    header = list(names) + [c for c in base_header if c not in names]
    keep = [i for i, c in enumerate(base_header) if c not in names]
    rows = []
    for combo in _grid_points(axes):
        vals = tuple(float(a) for a in combo)
        point = ", ".join(f"{n}={v!r}" for n, v in zip(names, vals))
        try:
            sc = sweep.template
            for name, v in zip(names, vals):
                sc = _with_field(sc, name, v)
            _, result = run_scenario(sc)
            if len(result) != 1:
                raise ValueError("sweeps require single-row scenario modes")
        except Exception as exc:
            # a note names the point and keeps the exception's type and fields
            exc.add_note(f"sweep point ({point})")
            raise
        rows.append(list(vals) + [result[0][k] for k in keep])
    return header, rows


def _grid_points(axes):
    if len(axes) == 1:
        for a in axes[0]:
            yield (a,)
    else:
        for a in axes[0]:
            for b in axes[1]:
                yield (a, b)


# ---------------------------------------------------------------------------
# figure presets

def _gaussian(mod="none", gamma_t=2.0, **kw):
    return PulseSpec("gaussian", gamma_t, mod, **kw)


def _exponential(mod="none", gamma_t=4.0, **kw):
    return PulseSpec("exponential", gamma_t, mod, **kw)


def _preset_fig3(out_dir):
    """Asymptotic classical information vs duration; linear phase vs real pulse."""
    curves = {
        "real": _gaussian(),
        "linear_half": _gaussian("linear", alpha=0.5),
        "linear_one": _gaussian("linear", alpha=1.0),
    }
    blocks, files = [], []
    for name, pulse in curves.items():
        sc = Scenario(pulse, SystemParams(gamma=1.0), mode="asymptotic")
        sw = SweepSpec(sc, (("gamma_t", 0.5, 8.0, 16),))
        header, rows = run_sweep(sw)
        path = os.path.join(out_dir, f"fig3_{name}.csv")
        files.append((path, header, rows))
        blocks.append({**scenario_to_config(sc), "sweep": "gamma_t=0.5:8.0:16", "output": os.path.basename(path)})
    return blocks, files


def _finite_time_preset(tag, pulses, gammas, t_start, t_stop, t_count):
    def build(out_dir):
        blocks, files = [], []
        for gname, gamma in gammas:
            for name, pulse in pulses.items():
                sc = Scenario(pulse, SystemParams(gamma=gamma), mode="finite_time",
                              t_start=t_start, t_stop=t_stop, t_count=t_count)
                header, rows = run_scenario(sc)
                path = os.path.join(out_dir, f"{tag}_{name}_{gname}.csv")
                files.append((path, header, rows))
                blocks.append({**scenario_to_config(sc), "output": os.path.basename(path)})
        return blocks, files
    return build


def _sweep_preset(tag, pulse_curves, gammas, lo=0.25, hi=8.0, count=24):
    def build(out_dir):
        blocks, files = [], []
        for gname, gamma in gammas:
            for name, pulse in pulse_curves.items():
                sc = Scenario(pulse, SystemParams(gamma=gamma), mode="asymptotic")
                sw = SweepSpec(sc, (("gamma_t", lo, hi, count),))
                header, rows = run_sweep(sw)
                path = os.path.join(out_dir, f"{tag}_{name}_{gname}.csv")
                files.append((path, header, rows))
                blocks.append({**scenario_to_config(sc), "sweep": f"gamma_t={lo}:{hi}:{count}",
                               "output": os.path.basename(path)})
        return blocks, files
    return build


def _preset_fig8(out_dir):
    """Mode-counting information ratio vs truncation, Hermite-Gauss modes."""
    curves = {
        "real": _gaussian(gamma_t=2.5),
        "linear": _gaussian("linear", gamma_t=2.5, alpha=1.0),
        "quadratic": _gaussian("quadratic", gamma_t=2.5, k=1.0),
        "sinusoidal": _gaussian("sinusoidal", gamma_t=2.5, omega=1.0),
    }
    blocks, files = [], []
    for name, pulse in curves.items():
        sc = Scenario(pulse, SystemParams(gamma=5.0), mode="mode_cfi", basis="hg", j_max=25)
        header, rows = run_scenario(sc)
        path = os.path.join(out_dir, f"fig8_{name}.csv")
        files.append((path, header, rows))
        blocks.append({**scenario_to_config(sc), "output": os.path.basename(path)})
    return blocks, files


_GAUSS4 = {
    "real": _gaussian(gamma_t=8.0),
    "linear": _gaussian("linear", gamma_t=8.0, alpha=1.0),
    "quadratic": _gaussian("quadratic", gamma_t=8.0, k=1.0),
    "sinusoidal": _gaussian("sinusoidal", gamma_t=8.0, omega=1.0),
}
_EXP7 = {
    "real": _exponential(),
    "linear": _exponential("linear", alpha=1.0),
    "quadratic": _exponential("quadratic", k=1.0),
}

PRESETS = {
    "fig3": _preset_fig3,
    "fig4": _finite_time_preset("fig4", _GAUSS4, (("g0", 0.0), ("g5", 5.0)), -20.0, 40.0, 121),
    "fig5": _sweep_preset("fig5", {
        "real": _gaussian(),
        "linear": _gaussian("linear", alpha=1.0),
        "quadratic": _gaussian("quadratic", k=1.0),
        "sinusoidal": _gaussian("sinusoidal", omega=1.0),
    }, (("g5", 5.0),)),
    "fig5c": _sweep_preset("fig5c", {
        "real": _gaussian(),
        "sinusoidal_one": _gaussian("sinusoidal", omega=1.0),
        "sinusoidal_two": _gaussian("sinusoidal", omega=2.0),
    }, (("g0", 0.0),)),
    "fig6": _sweep_preset("fig6", _EXP7, (("g0", 0.0), ("g5", 5.0))),
    "fig7": _finite_time_preset("fig7", _EXP7, (("g0", 0.0), ("g5", 5.0)), -2.0, 40.0, 106),
    "fig8": _preset_fig8,
}


def figure_preset(name: str, out_dir: str) -> list:
    """Write all CSVs and the manifest for one named figure; returns file paths."""
    if name not in PRESETS:
        raise UnknownPreset(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    os.makedirs(out_dir, exist_ok=True)
    blocks, files = PRESETS[name](out_dir)
    digest = write_manifest(os.path.join(out_dir, f"{name}_manifest.json"), name, blocks)
    written = []
    for path, header, rows in files:
        write_csv(path, header, rows, [f"chirpqfi {__version__}", f"config_hash: {digest}",
                                       f"preset: {name}"])
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# command-line front end

def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config_text(fh.read())
    overrides = {k: v for k, v in vars(args).items()
                 if k in ("envelope", "gamma_t", "modulation", "alpha", "k", "omega",
                          "gamma", "delta", "mode", "t_start", "t_stop", "t_count",
                          "basis", "j_max") and v is not None}
    cfg.update({k: str(v) for k, v in overrides.items()})
    return cfg


def _add_scenario_flags(parser):
    parser.add_argument("--config", help="flat key=value scenario file")
    parser.add_argument("--envelope", choices=["gaussian", "exponential"])
    parser.add_argument("--gamma_t", type=float)
    parser.add_argument("--modulation", choices=["none", "linear", "quadratic", "sinusoidal"])
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--k", type=float)
    parser.add_argument("--omega", type=float)
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--mode", choices=list(MODES))
    parser.add_argument("--t_start", type=float)
    parser.add_argument("--t_stop", type=float)
    parser.add_argument("--t_count", type=int)
    parser.add_argument("--basis", choices=["hg", "envelope"])
    parser.add_argument("--j_max", type=int)
    parser.add_argument("--out", default="out.csv", help="output CSV path")
    _add_threads_flag(parser)


def _add_threads_flag(parser):
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored; sweeps run serially")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chirpqfi",
        description="Fisher information of chirped single-photon pulses probing a two-level system",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a single scenario")
    _add_scenario_flags(run_p)
    sweep_p = sub.add_parser("sweep", help="sweep one or two scenario fields")
    _add_scenario_flags(sweep_p)
    sweep_p.add_argument("--sweep", help="field=start:stop:count")
    sweep_p.add_argument("--sweep2", help="second swept field")
    preset_p = sub.add_parser("preset", help="emit the data behind one figure")
    preset_p.add_argument("name", help=f"one of {sorted(PRESETS)}")
    preset_p.add_argument("--out-dir", default="preset_out")
    _add_threads_flag(preset_p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _load_config(args)
            sc = scenario_from_config(cfg)
            header, rows = run_scenario(sc)
            _emit(args.out, header, rows, [scenario_to_config(sc)])
        elif args.command == "sweep":
            cfg = _load_config(args)
            sweep_texts = [t for t in (args.sweep or cfg.pop("sweep", None),
                                       args.sweep2 or cfg.pop("sweep2", None)) if t]
            if not sweep_texts:
                raise ValueError("sweep command needs --sweep field=start:stop:count")
            sc = scenario_from_config(cfg)
            sweep = SweepSpec(sc, tuple(parse_sweep_field(t) for t in sweep_texts))
            header, rows = run_sweep(sweep)
            block = {**scenario_to_config(sc),
                     **{f"sweep{i or ''}": t for i, t in enumerate(sweep_texts) if i == 0},
                     **({"sweep2": sweep_texts[1]} if len(sweep_texts) > 1 else {})}
            _emit(args.out, header, rows, [block])
        else:
            paths = figure_preset(args.name, args.out_dir)
            for p in paths:
                print(p)
        return 0
    except (ChirpQFIError, ValueError, OSError) as exc:
        message = "; ".join([str(exc), *getattr(exc, "__notes__", ())])
        print(f"chirpqfi: error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
