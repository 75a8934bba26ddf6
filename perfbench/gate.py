"""Correctness gate: checks each CLI table against an independent route.

Deviation of a reported value x from its reference r is
``|x - r| / max(|r|, FLOOR)``: relative above FLOOR, absolute (scaled by
1/FLOOR) below it.  Values below 0.1 therefore count to an absolute 1e-5
at the cross-route tolerance; without the floor a loss probability of zero
(gamma=0) would have no relative deviation at all.

Routes and tolerances:

* asym-closed: every point with a closed form (Gaussian none/quadratic at
  zero detuning, exponential none/linear) against the CLI's own
  ``mode=closed_form`` (gaussian_closed_forms /
  exponential_linear_closed_forms), tolerance CLOSED_TOL.  Gaussian +
  linear phase has no closed form; its first and last sweep points go
  through the time-domain route of asym-numeric.
* asym-numeric: the first and last point of every table against the
  late-time total of finite_time_curve on the default grid, CROSS_TOL.
* mode-counting: every row has mode_cfi <= qfi and mode_cfi not below the
  previous row (each j refines the outcomes of j-1), and ratio equals
  mode_cfi/qfi.  Where the modal sum converges at j_max (Hermite-Gauss
  basis on Gaussians without chirp or sinusoid, linear phase up to
  alpha=1), modal_qfi_check must reproduce qfi to CROSS_TOL.  The first basis
  of each kind in a run is rebuilt and its Gram matrix must be the identity
  to GRAM_TOL.
  Acceptance criterion 7's ratio targets are not asserted here.
"""

from __future__ import annotations

import math

import numpy as np

FLOOR = 0.1
CLOSED_TOL = 1e-8
CROSS_TOL = 1e-4
GRAM_TOL = 1e-10
MONOTONE_SLACK = 1e-9


def deviation(x: float, ref: float) -> float:
    return abs(x - ref) / max(abs(ref), FLOOR)


def check_table(workload: str, table: dict, header: list, rows: list, check_gram: bool,
                perturb: float = 0.0) -> dict:
    """Check one table; returns failed scenarios, worst deviation, values checked
    and a message per failed check.

    perturb scales every reference value by (1 + perturb); the self-test uses
    it to show that a wrong reference trips the gate.
    """
    checks = _Checks(perturb)
    label = f"{table['pulse']} gamma={table['gamma']}"
    try:
        if workload in ("asym-closed", "asym-numeric"):
            failed = checks.sweep_table(table, header, rows, label)
        else:
            failed = int(not checks.mode_table(table, header, rows, check_gram, label))
    except Exception as exc:  # a reference route that raises fails the table
        checks.problems.append(f"{label}: reference raised {type(exc).__name__}: {exc}")
        failed = table["scenarios"]
    return {"failed": failed, "max_err": checks.max_err, "checked": checks.checked,
            "problems": checks.problems}


class _Checks:
    def __init__(self, perturb: float):
        from chirpqfi import cli, dynamics, fisher, modes, pulses

        self.cli, self.dynamics, self.fisher, self.modes, self.pulses = cli, dynamics, fisher, modes, pulses
        self.perturb = perturb
        self.max_err = 0.0
        self.checked = 0
        self.problems: list = []

    def _spec(self, pulse: dict, gamma_t: float):
        return self.pulses.PulseSpec(pulse["envelope"], gamma_t, pulse["modulation"],
                                     alpha=pulse["alpha"], k=pulse["k"], omega=pulse["omega"])

    def _compare(self, label: str, values: dict, refs: dict, tol: float) -> bool:
        ok = True
        for key, x in values.items():
            ref = refs[key] * (1.0 + self.perturb)
            err = deviation(x, ref)
            self.checked += 1
            self.max_err = max(self.max_err, err)
            if not err <= tol:
                ok = False
                self.problems.append(f"{label}: {key}={x!r} vs reference {ref!r} "
                                     f"(deviation {err:.3e} > {tol:.0e})")
        return ok

    def _late_time(self, spec, params) -> dict:
        grid = self.pulses.default_grid(spec)
        curve = self.fisher.finite_time_curve(self.pulses.sample_pulse(spec, grid), params)
        return {"total": float(curve.total[-1]), "p_loss": float(curve.p_loss[-1])}

    def sweep_table(self, table, header, rows, label) -> int:
        col = {name: header.index(name) for name in header}
        pulse = table["pulse"]
        failed = 0
        for i, row in enumerate(rows):
            gamma_t, gamma, delta = row[col["gamma_t"]], row[col["gamma"]], row[col["delta"]]
            spec = self._spec(pulse, gamma_t)
            params = self.dynamics.SystemParams(gamma=gamma, delta=delta)
            values = {"total": row[col["total"]], "p_loss": row[col["p_loss"]]}
            point = f"{label} gamma_t={gamma_t} gamma={gamma} delta={delta}"
            if _has_closed_form(spec, delta):
                sc = self.cli.Scenario(spec, params, mode="closed_form")
                ref_header, ref_rows = self.cli.run_scenario(sc)
                refs = dict(zip(ref_header, ref_rows[0]))
                ok = self._compare(point, values, refs, CLOSED_TOL)
            elif i in (0, len(rows) - 1):
                ok = self._compare(point, values, self._late_time(spec, params), CROSS_TOL)
            else:
                ok = True
            failed += int(not ok)
        return failed

    def mode_table(self, table, header, rows, check_gram, label) -> bool:
        col = {name: header.index(name) for name in header}
        ok = True
        prev = -math.inf
        for row in rows:
            j, cfi, qfi, ratio = row[col["j"]], row[col["mode_cfi"]], row[col["qfi"]], row[col["ratio"]]
            if not (cfi <= qfi * (1.0 + MONOTONE_SLACK)
                    and cfi >= prev - MONOTONE_SLACK * abs(prev)
                    and abs(ratio - cfi / qfi) <= 1e-12 * abs(ratio)):
                ok = False
                self.problems.append(f"{label} j={j}: mode_cfi={cfi!r} qfi={qfi!r} ratio={ratio!r} "
                                     f"after mode_cfi={prev!r}")
            prev = cfi
        converges = _modal_sum_converges(table)
        if converges or check_gram:
            ok &= self._basis(table, rows[-1][col["qfi"]], converges, check_gram, label)
        return ok

    def _basis(self, table, qfi, converges, check_gram, label) -> bool:
        """Rebuild the table's basis; check its Gram matrix and, if the modal
        sum converges, the reassembled information."""
        modes = self.modes
        spec = self._spec(table["pulse"], table["pulse"]["gamma_t"])
        params = self.dynamics.SystemParams(gamma=table["gamma"], delta=table["delta"])
        kind = modes.HermiteGauss(spec.gamma_t) if table["basis"] == "hg" \
            else modes.GramSchmidtFromEnvelope(spec)
        grid = modes.modal_grid(spec, table["j_max"], kind)
        basis = modes.build_basis(kind, table["j_max"], grid)
        ok = True
        if check_gram:
            defect = gram_defect(basis.functions, basis.jumps, grid.dt)
            if not defect <= GRAM_TOL:
                ok = False
                self.problems.append(f"{label}: Gram defect {defect:.3e} > {GRAM_TOL:.0e}")
        if converges:
            pulse = self.pulses.sample_pulse(spec, grid)
            excited = self.dynamics.excited_amplitude(pulse, params)
            out = self.dynamics.outgoing_wavepacket(pulse, params, excited, grid.t_end)
            modal = modes.project_amplitudes(out, basis)
            modal_total = modes.modal_qfi_check(modal, modal.p_loss)
            ok &= self._compare(f"{label} modal reassembly", {"qfi": qfi}, {"qfi": modal_total},
                                CROSS_TOL)
        return ok


def _has_closed_form(spec, delta) -> bool:
    if spec.envelope == "gaussian":
        return spec.modulation in ("none", "quadratic") and delta == 0.0
    return spec.modulation in ("none", "linear")


def _modal_sum_converges(table: dict) -> bool:
    """Hermite-Gauss modes matched to an unchirped Gaussian (linear phase up to
    alpha=1): |d_J|^2 is below modal_qfi_check's 1e-8 at j_max=25.  Chirped,
    sinusoidal and envelope-basis tables do not converge there."""
    pulse = table["pulse"]
    return (table["basis"] == "hg" and pulse["envelope"] == "gaussian"
            and pulse["modulation"] in ("none", "linear") and pulse["alpha"] <= 1.0)


def gram_defect(functions: np.ndarray, jumps: np.ndarray, dx: float) -> float:
    """max |<g_i|g_j> - delta_ij| with trapezoid weights and the onset-jump term,
    as one weighted matrix product (independent of the program's loop)."""
    weights = np.full(functions.shape[1], dx)
    weights[[0, -1]] = 0.5 * dx
    gram = (functions.conj() * weights) @ functions.T
    gram += 0.25 * dx * np.outer(jumps.conj(), jumps)
    return float(np.max(np.abs(gram - np.eye(len(jumps)))))
