import csv
import json
import os
import subprocess
import sys

import pytest

from chirpqfi import cli
from chirpqfi.cli import (
    Scenario,
    SweepSpec,
    figure_preset,
    main,
    parse_config_text,
    parse_sweep_field,
    run_block,
    run_scenario,
    run_sweep,
    scenario_from_config,
    scenario_to_config,
)
from chirpqfi.dynamics import SystemParams
from chirpqfi.errors import UnknownPreset
from chirpqfi.fisher import asymptotic_qfi, gaussian_closed_forms
from chirpqfi.pulses import PulseSpec


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        comments = []
        rows = []
        for line in fh:
            if line.startswith("#"):
                comments.append(line)
            else:
                rows.append(line)
    parsed = list(csv.reader(rows))
    return comments, parsed[0], parsed[1:]


def test_parse_config_text():
    cfg = parse_config_text("# comment\nenvelope = gaussian\n\ngamma_t=2.0\n")
    assert cfg == {"envelope": "gaussian", "gamma_t": "2.0"}
    with pytest.raises(ValueError):
        parse_config_text("not a pair")


def test_parse_sweep_field():
    assert parse_sweep_field("gamma_t=0.25:8:24") == ("gamma_t", 0.25, 8.0, 24)
    with pytest.raises(ValueError):
        parse_sweep_field("gamma_t=1:2")


def test_scenario_config_round_trip():
    sc = Scenario(PulseSpec("exponential", 4.0, "linear", alpha=1.0),
                  SystemParams(gamma=5.0), mode="finite_time",
                  t_start=-2.0, t_stop=30.0, t_count=65)
    again = scenario_from_config(scenario_to_config(sc))
    assert again == sc


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(PulseSpec("gaussian", 1.0), SystemParams(), mode="magic")
    with pytest.raises(ValueError):
        Scenario(PulseSpec("gaussian", 1.0), SystemParams(), mode="finite_time",
                 t_start=5.0, t_stop=1.0)
    with pytest.raises(ValueError):
        scenario_from_config({"envelope": "gaussian", "gamma_t": "1", "frequency": "2"})


def test_run_scenario_asymptotic_matches_closed_form():
    sc = Scenario(PulseSpec("gaussian", 2.0), SystemParams(gamma=5.0), mode="asymptotic")
    header, rows = run_scenario(sc)
    assert header == ["gamma_t", "gamma", "delta", "classical", "quantum", "total", "p_loss"]
    ref = gaussian_closed_forms(5.0, 0.25)
    assert rows[0][3] == pytest.approx(ref.classical, rel=1e-6)
    assert rows[0][6] == pytest.approx(ref.p_loss, rel=1e-6)


def test_run_scenario_closed_form_mode():
    sc = Scenario(PulseSpec("gaussian", 2.0, "quadratic", k=1.0),
                  SystemParams(gamma=5.0), mode="closed_form")
    _, rows = run_scenario(sc)
    quad = asymptotic_qfi(sc.pulse, sc.params)
    assert rows[0][5] == pytest.approx(quad.total, rel=1e-6)


def test_run_scenario_closed_form_lossless_has_zero_classical():
    sc = Scenario(PulseSpec("gaussian", 2.0), SystemParams(gamma=0.0), mode="closed_form")
    _, rows = run_scenario(sc)
    assert rows[0][3] == 0.0


def test_run_scenario_finite_time_rows_before_onset_are_zero():
    sc = Scenario(PulseSpec("exponential", 1.0), SystemParams(gamma=0.0),
                  mode="finite_time", t_start=-1.0, t_stop=10.0, t_count=23)
    header, rows = run_scenario(sc)
    for row in rows:
        if row[0] < -0.01:
            assert row[1] == 0.0 and abs(row[2]) < 1e-20


def test_run_sweep_ordering_and_values():
    sc = Scenario(PulseSpec("gaussian", 1.0), SystemParams(gamma=5.0), mode="asymptotic")
    sweep = SweepSpec(sc, (("gamma_t", 0.5, 2.0, 4),))
    header, rows = run_sweep(sweep)
    assert header[0] == "gamma_t"
    swept = [row[0] for row in rows]
    assert swept == sorted(swept)
    ref = gaussian_closed_forms(5.0, 1.0 / (2.0 * 0.5))
    assert rows[0][header.index("classical")] == pytest.approx(ref.classical, rel=1e-6)


def test_run_sweep_two_fields():
    sc = Scenario(PulseSpec("gaussian", 1.0), SystemParams(gamma=1.0), mode="closed_form")
    sweep = SweepSpec(sc, (("gamma_t", 1.0, 2.0, 2), ("gamma", 0.0, 5.0, 2)))
    header, rows = run_sweep(sweep)
    assert header[:2] == ["gamma_t", "gamma"]
    assert len(rows) == 4
    assert [tuple(r[:2]) for r in rows] == [(1.0, 0.0), (1.0, 5.0), (2.0, 0.0), (2.0, 5.0)]


def test_sweep_failure_names_the_offending_point(tmp_path, capsys):
    sc = Scenario(PulseSpec("gaussian", 1.0), SystemParams(gamma=1.0), mode="closed_form")
    # points run in grid order, so the first invalid point is the one named
    with pytest.raises(ValueError, match="requires zero detuning") as info:
        run_sweep(SweepSpec(sc, (("delta", 0.0, 1.0, 3),)))
    assert info.value.__notes__ == ["sweep point (delta=0.5)"]
    code = main(["sweep", "--envelope", "gaussian", "--gamma_t", "1.0", "--gamma", "1.0",
                 "--mode", "closed_form", "--sweep", "delta=0:1:3", "--out", str(tmp_path / "s.csv")])
    assert code == 1
    assert capsys.readouterr().err == ("chirpqfi: error: Gaussian closed form requires zero "
                                       "detuning; sweep point (delta=0.5)\n")


class _TwoFieldError(ValueError):
    def __init__(self, node, value):
        super().__init__(f"node {node} has value {value}")
        self.node = node
        self.value = value


def test_sweep_failure_keeps_exception_type_and_fields(monkeypatch):
    def fail(sc):
        raise _TwoFieldError(3, sc.pulse.gamma_t)

    monkeypatch.setattr(cli, "run_scenario", fail)
    sc = Scenario(PulseSpec("gaussian", 1.0), SystemParams(gamma=1.0), mode="closed_form")
    with pytest.raises(_TwoFieldError) as info:
        run_sweep(SweepSpec(sc, (("gamma_t", 2.0, 3.0, 2),)))
    assert (info.value.node, info.value.value) == (3, 2.0)
    assert info.value.__notes__ == ["sweep point (gamma_t=2.0)"]


def test_sweep_rejects_multi_row_modes():
    sc = Scenario(PulseSpec("gaussian", 1.0), SystemParams(), mode="finite_time",
                  t_start=0.0, t_stop=5.0, t_count=6)
    with pytest.raises(ValueError):
        run_sweep(SweepSpec(sc, (("gamma_t", 1.0, 2.0, 2),)))


def test_closed_form_requires_supported_family():
    with pytest.raises(ValueError):
        run_scenario(Scenario(PulseSpec("gaussian", 1.0, "sinusoidal", omega=1.0),
                              SystemParams(), mode="closed_form"))
    with pytest.raises(ValueError):
        run_scenario(Scenario(PulseSpec("exponential", 1.0, "quadratic", k=1.0),
                              SystemParams(), mode="closed_form"))
    with pytest.raises(ValueError):
        run_scenario(Scenario(PulseSpec("gaussian", 1.0), SystemParams(delta=1.0),
                              mode="closed_form"))


def test_sweep_spec_validation():
    sc = Scenario(PulseSpec("gaussian", 1.0), SystemParams(), mode="asymptotic")
    with pytest.raises(ValueError):
        SweepSpec(sc, ())
    with pytest.raises(ValueError):
        SweepSpec(sc, (("envelope", 0.0, 1.0, 3),))
    with pytest.raises(ValueError):
        SweepSpec(sc, (("gamma_t", 0.5, 1.0, 1),))


def test_cli_run_writes_deterministic_csv(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("envelope=gaussian\ngamma_t=2.0\ngamma=5.0\nmode=asymptotic\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    comments, header, rows = _read_csv(out1)
    assert comments[0].startswith("# chirpqfi")
    assert "config_hash" in comments[1]
    assert header[0] == "gamma_t"
    assert float(rows[0][3]) == pytest.approx(0.5508016506650991)


def test_cli_flag_overrides_config(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("envelope=gaussian\ngamma_t=2.0\ngamma=5.0\nmode=asymptotic\n")
    out = tmp_path / "c.csv"
    assert main(["run", "--config", str(cfg), "--gamma", "0.0", "--out", str(out)]) == 0
    _, _, rows = _read_csv(out)
    assert float(rows[0][3]) == 0.0  # classical vanishes without environment


def test_cli_failure_removes_partial_output(tmp_path, capsys):
    out = tmp_path / "broken.csv"
    rc = main(["run", "--envelope", "gaussian", "--gamma_t", "-3", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_cli_failure_keeps_earlier_output(tmp_path):
    out = tmp_path / "keep.csv"
    manifest = tmp_path / "keep.manifest.json"
    assert main(["run", "--envelope", "gaussian", "--gamma_t", "1", "--gamma", "1",
                 "--out", str(out)]) == 0
    before = out.read_bytes(), manifest.read_bytes()
    assert main(["run", "--envelope", "gaussian", "--gamma_t", "-1", "--out", str(out)]) == 1
    assert (out.read_bytes(), manifest.read_bytes()) == before


def test_cli_failed_write_removes_its_files(tmp_path, monkeypatch):
    def unformattable(value):
        raise ValueError("cannot format")

    monkeypatch.setattr(cli, "_format", unformattable)
    out = tmp_path / "partial.csv"
    assert main(["run", "--envelope", "gaussian", "--gamma_t", "1", "--out", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, missing", [
    (["run", "--gamma_t", "1.0"], "envelope"),
    (["sweep", "--envelope", "gaussian", "--sweep", "gamma_t=0.5:1.5:3"], "gamma_t"),
], ids=["run-without-envelope", "sweep-without-gamma_t"])
def test_cli_missing_pulse_key_is_a_clean_error(tmp_path, capsys, argv, missing):
    out = tmp_path / "missing.csv"
    rc = main(argv + ["--out", str(out)])
    assert rc == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("chirpqfi: error:") and missing in err


def test_run_sweep_runs_each_point_once(monkeypatch):
    calls = []

    def counting(sc):
        calls.append(sc)
        return run_scenario(sc)

    monkeypatch.setattr(cli, "run_scenario", counting)
    sc = Scenario(PulseSpec("gaussian", 1.0), SystemParams(gamma=1.0), mode="closed_form")
    header, rows = run_sweep(SweepSpec(sc, (("gamma_t", 1.0, 2.0, 2), ("gamma", 0.0, 5.0, 3))))
    assert len(calls) == len(rows) == 6
    assert header == ["gamma_t", "gamma", "delta", "classical", "quantum", "total", "p_loss"]


def _replays(block, csv_path):
    """Whether run_block regenerates the header and every row of the CSV byte for byte."""
    header, rows = run_block(block)
    _, csv_header, csv_rows = _read_csv(csv_path)
    return (csv_header, csv_rows) == (header, [[cli._format(v) for v in row] for row in rows])


@pytest.mark.parametrize("argv", [
    ["sweep", "--envelope", "gaussian", "--gamma_t", "1.0", "--gamma", "5.0",
     "--mode", "asymptotic", "--sweep", "gamma_t=0.5:1.5:3", "--threads", "2"],
    ["sweep", "--envelope", "gaussian", "--gamma_t", "1.0", "--gamma", "1.0",
     "--mode", "closed_form", "--sweep", "gamma_t=1:2:2", "--sweep2", "gamma=0:5:3"],
    ["run", "--envelope", "exponential", "--gamma_t", "2.0", "--modulation", "linear",
     "--alpha", "0.5", "--gamma", "2.0", "--mode", "finite_time", "--t_start", "-1",
     "--t_stop", "10", "--t_count", "12"],
], ids=["sweep-one-field", "sweep-two-fields", "run-finite-time"])
def test_cli_sweep_and_manifest_round_trip(tmp_path, argv):
    out = tmp_path / "table.csv"
    assert main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "table.manifest.json").read_text())
    assert manifest["tool_version"] and manifest["preset"] is None
    [block] = manifest["scenarios"]
    assert [key for key in ("sweep", "sweep2") if key in block] == \
        [flag[2:] for flag in argv if flag.startswith("--sweep")]
    assert _replays(block, out)


def test_cli_finite_time_through_lossless_interference_dip(tmp_path):
    # at gamma = 0 the vacuum probability |psi_e|^2 dips below 1e-14 near
    # t = 25.1 (node 20936) while dp^2/p stays near 6e-9; the curve must pass
    # through the dip rather than reject the whole run as a degenerate model
    out = tmp_path / "dip.csv"
    assert main(["run", "--envelope", "exponential", "--gamma_t", "0.998046875", "--gamma", "0",
                 "--delta", "1", "--mode", "finite_time", "--t_start", "0", "--t_stop", "30",
                 "--t_count", "7", "--out", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header == ["t", "classical", "quantum", "total", "p_loss"]
    values = [[float(x) for x in row] for row in rows]
    assert len(values) == 7
    assert all(0.0 <= c <= total for _, c, _, total, _ in values)
    late = asymptotic_qfi(PulseSpec("exponential", 0.998046875), SystemParams(gamma=0.0, delta=1.0))
    assert values[-1][3] == pytest.approx(late.total, rel=1e-5)


def test_cli_mode_cfi_scenario(tmp_path):
    out = tmp_path / "modes.csv"
    rc = main(["run", "--envelope", "gaussian", "--gamma_t", "2.5", "--gamma", "5.0",
               "--mode", "mode_cfi", "--basis", "envelope", "--j_max", "6",
               "--out", str(out)])
    assert rc == 0
    _, header, rows = _read_csv(out)
    assert header[:3] == ["j", "mode_cfi", "qfi"]
    assert len(rows) == 7
    ratios = [float(r[3]) for r in rows]
    assert all(0.0 <= r <= 1.0 + 1e-9 for r in ratios)
    assert ratios == sorted(ratios)  # monotone in the truncation


def test_threads_flag_is_ignored(tmp_path):
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}" / "sweep.csv"
        out.parent.mkdir()
        rc = main(["sweep", "--envelope", "gaussian", "--gamma_t", "1.0", "--gamma", "5.0",
                   "--mode", "asymptotic", "--sweep", "gamma_t=0.5:1.5:3",
                   "--out", str(out), "--threads", threads])
        assert rc == 0
        outputs.append((out.read_bytes(), (out.parent / "sweep.manifest.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal is only needed by the time-domain solve; importing it
    # costs about a second of every CLI start-up
    code = "import sys, chirpqfi.cli; print('scipy.signal' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "False"


def test_unknown_preset(tmp_path):
    with pytest.raises(UnknownPreset):
        figure_preset("fig99", str(tmp_path))


def test_fig8_preset_emits_both_ratio_conventions(tmp_path):
    paths = figure_preset("fig8", str(tmp_path))
    assert len(paths) == 4
    sin_csv = next(p for p in paths if "sinusoidal" in p)
    _, header, rows = _read_csv(sin_csv)
    assert header == ["j", "mode_cfi", "qfi", "ratio", "conditional_cumulative_ratio"]
    at20 = next(r for r in rows if int(r[0]) == 20)
    assert 0.04 <= float(at20[4]) <= 0.10
    assert 0.0 <= float(at20[3]) <= 1.0 + 1e-9
    manifest = json.loads((tmp_path / "fig8_manifest.json").read_text())
    assert len(manifest["scenarios"]) == 4
    for block, path in zip(manifest["scenarios"], paths):
        assert os.path.join(str(tmp_path), block["output"]) == path
        assert _replays(block, path)


def test_fig3_preset_contents(tmp_path):
    paths = figure_preset("fig3", str(tmp_path))
    assert len(paths) == 3
    manifest = json.loads((tmp_path / "fig3_manifest.json").read_text())
    assert manifest["preset"] == "fig3"
    assert len(manifest["scenarios"]) == 3
    _, header, rows = _read_csv(paths[0])
    assert len(rows) == 16
    assert header[0] == "gamma_t"
    for block, path in zip(manifest["scenarios"], paths):
        assert os.path.join(str(tmp_path), block["output"]) == path
        assert _replays(block, path)


def test_preset_failed_write_removes_its_files(tmp_path, monkeypatch):
    write_csv = cli.write_csv
    calls = []

    def fail_second(path, header, rows, comments):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        write_csv(path, header, rows, comments)

    monkeypatch.setattr(cli, "write_csv", fail_second)
    out_dir = tmp_path / "fig3"
    with pytest.raises(OSError, match="disk full"):
        figure_preset("fig3", str(out_dir))
    assert len(calls) == 2
    assert list(out_dir.iterdir()) == []
