"""Exact oracles that gate every benchmark invocation.

Each ``check_<workload>`` takes the seeded parameters of the invocation, the
parsed JSON summary and the CSV text it wrote, and returns
``(accuracy, problems)``: a dict of accuracy figures and a list of
human-readable reasons the output is wrong (empty when it passes).  The
oracles never look at the program's own reference columns to decide what is
right; they recompute the reference from the inputs.

Tolerances are fixed here, from the physics and from the default seed's
outputs, before any other seed was tried:

* Balmer: the Dirichlet wall at x_min = 1e-5 alone moves E1 by 4.0e-5
  relative, so the levels must be within 1e-4 of -lam^2 / (2 n^2).
* Threshold: every window's alpha_hat must sit within its own bisection
  half-width plus an RK4 slack of 1e-9 of 1/4 + (pi / ln(L/delta))^2; the
  RK4 phase error at 128 steps per unit of ln(L/delta) is below 1e-15, so the
  slack only absorbs roundoff at the sign change.
* Cutoff: energies fall strictly, the even-parity and full-line ground
  states agree to 1e-9 relative, and every level is within 5e-3 relative of
  the continuum ground state ``CAPPED_COULOMB_LEVELS`` (the smallest cap
  spans only four grid cells, which costs 2.6e-3).
* Dipole scan: every separation binds at the bracket bottom (in 1D any
  potential with a non-positive integral binds, and a dipole's integral is
  zero), and the point-dipole reference stays within the bisection tolerance
  of the value recorded when the benchmark was defined.
"""

from __future__ import annotations

import math

BALMER_REL_TOL = 1e-4
THRESHOLD_RK4_SLACK = 1e-9
CUTOFF_REL_TOL = 5e-3
PARITY_GAP_TOL = 1e-9
ALPHA_CRIT = 0.25
P_CRIT_AU = 0.125

# Point-dipole critical moment on the dipole-scan grid (uniform, -30:30,
# n = 3001, threshold -1e-8), as computed by the commit that defined this
# benchmark.  It depends on the grid only, never on the seeded separations.
DIPOLE_P_REF = 0.1759490966796875
DIPOLE_TOL_P = 1e-3
DIPOLE_BRACKET = (P_CRIT_AU / 10.0, P_CRIT_AU * 10.0)

# Continuum even ground state of -psi''/2 - psi/max(|x|, eps) = E psi at
# coupling 1, for the cutoff workload's caps eps.  Other couplings follow
# from E(lam, eps / lam) = lam^2 E(1, eps).  The values come from matching
# cos(k x) inside the cap to a decaying Whittaker function outside it, to 20
# digits; selftest.py re-derives them with mpmath.
CAPPED_COULOMB_LEVELS = {
    0.2: -2.809369411934728,
    0.1: -4.549104908597122,
    0.05: -7.055819202082729,
    0.025: -10.497335031382626,
    0.0125: -15.023894539783395,
}


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    """Split the CLI's CSV into (header, rows), skipping ``#`` metadata lines."""
    body = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not body:
        return [], []
    return body[0].split(","), [row.split(",") for row in body[1:]]


def _column(header: list[str], rows: list[list[str]], name: str) -> list[str]:
    if name not in header:
        raise KeyError(f"CSV has no column {name!r}")
    i = header.index(name)
    return [row[i] for row in rows]


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def check_balmer(params: dict, obj: dict, csv_text: str) -> tuple[dict, list[str]]:
    lam, states = params["lam"], params["states"]
    problems: list[str] = []
    energies = _floats(obj["energies_hartree"])
    if len(energies) != states:
        return {}, [f"expected {states} levels, got {len(energies)}"]
    rel = []
    for n, e in enumerate(energies, start=1):
        ref = -(lam**2) / (2.0 * n * n)
        rel.append(abs(e - ref) / abs(ref))
        if not rel[-1] <= BALMER_REL_TOL:
            problems.append(f"level {n}: {e!r} is {rel[-1]:.3e} from Balmer {ref!r}")
    nodes = [int(v) for v in obj["node_counts"]]
    if nodes != list(range(states)):
        problems.append(f"node counts {nodes} are not 0..{states - 1}")
    header, rows = parse_csv(csv_text)
    if _floats(_column(header, rows, "energy_hartree")) != energies:
        problems.append("CSV energies differ from the JSON summary")
    return {"balmer_max_rel_err": max(rel)}, problems


def window_bias(delta: float, L: float) -> float:
    return ALPHA_CRIT + (math.pi / math.log(L / delta)) ** 2


def check_threshold(params: dict, obj: dict, csv_text: str) -> tuple[dict, list[str]]:
    windows = params["windows"]
    problems: list[str] = []
    header, rows = parse_csv(csv_text)
    if len(rows) != len(windows):
        return {}, [f"expected {len(windows)} windows, got {len(rows)}"]
    alpha_hat = _floats(_column(header, rows, "alpha_hat"))
    half_width = _floats(_column(header, rows, "half_width"))
    bias_err = []
    for (delta, L), a, hw in zip(windows, alpha_hat, half_width):
        bias_err.append(abs(a - window_bias(delta, L)))
        if not bias_err[-1] <= hw + THRESHOLD_RK4_SLACK:
            problems.append(
                f"window {delta!r}:{L!r}: alpha_hat {a!r} is {bias_err[-1]:.3e} "
                "from the window-bias formula"
            )
    alpha = float(obj["alpha_crit_numeric"])
    alpha_err = abs(alpha - ALPHA_CRIT)
    half_width = float(obj["alpha_crit_half_width"])
    if not half_width > 0.0:
        return {}, problems + [f"intercept half-width {half_width!r} is not positive"]
    if not alpha_err <= half_width + THRESHOLD_RK4_SLACK:
        problems.append(f"intercept {alpha!r} is {alpha_err:.3e} from 1/4")
    # The error in whole half-widths, at least one: it grows only when the
    # intercept is worse than the bisection's own tolerance, not when a
    # rounding change moves the stopping point inside that tolerance.
    err_bound = max(1, math.ceil(alpha_err / half_width)) * half_width
    if obj["p_crit_exact_au"] != P_CRIT_AU:
        problems.append(f"p_crit_exact_au {obj['p_crit_exact_au']!r} is not 1/8")
    if obj["ratio_estimate_to_exact"] != 16.0:
        problems.append(f"estimate/exact ratio {obj['ratio_estimate_to_exact']!r} is not 16")
    if [tuple(w) for w in obj["windows"]] != [tuple(w) for w in windows]:
        problems.append("JSON windows differ from the requested windows")
    accuracy = {
        "alpha_crit_abs_err": alpha_err,
        "alpha_crit_err_bound": err_bound,
        "window_bias_max_err": max(bias_err),
    }
    return accuracy, problems


def check_cutoff(params: dict, obj: dict, csv_text: str) -> tuple[dict, list[str]]:
    lam, eps = params["lam"], params["epsilons"]
    reference = [lam**2 * e for e in params["unit_lambda_levels"]]
    problems: list[str] = []
    energies = _floats(obj["ground_energies_hartree"])
    if len(energies) != len(eps):
        return {}, [f"expected {len(eps)} caps, got {len(energies)}"]
    if not all(b < a for a, b in zip(energies[:-1], energies[1:])):
        problems.append(f"energies do not fall strictly: {energies}")
    if obj["monotone_decreasing"] is not True:
        problems.append("monotone_decreasing flag is not true")
    rel = []
    for e_cap, e, ref in zip(eps, energies, reference):
        rel.append(abs(e - ref) / abs(ref))
        if not rel[-1] <= CUTOFF_REL_TOL:
            problems.append(f"cap {e_cap!r}: {e!r} is {rel[-1]:.3e} from continuum {ref!r}")
    check = obj["full_line_check"]
    gap = math.inf
    if check is None or len(check) != 3:
        problems.append("full-line check missing")
    else:
        cap, even, full = (float(v) for v in check)
        gap = abs(even - full) / abs(full)
        if cap != eps[0] or even != energies[0]:
            problems.append("full-line check is not on the largest cap")
        if not gap <= PARITY_GAP_TOL:
            problems.append(f"parity gap {gap:.3e} exceeds {PARITY_GAP_TOL:.0e}")
    header, rows = parse_csv(csv_text)
    if _floats(_column(header, rows, "ground_energy_hartree")) != energies:
        problems.append("CSV energies differ from the JSON summary")
    return {"cutoff_max_rel_err": max(rel), "cutoff_parity_gap": gap}, problems


def check_dipole_scan(params: dict, obj: dict, csv_text: str) -> tuple[dict, list[str]]:
    d_list = params["d_list"]
    problems: list[str] = []
    rows = obj["rows"]
    if [float(r["d"]) for r in rows] != d_list:
        return {}, [f"rows are for d = {[r['d'] for r in rows]}, asked {d_list}"]
    for r in rows:
        if r["status"] != "binds_everywhere" or r["conclusive"] or r["critical_p_au"] is not None:
            problems.append(f"d = {r['d']!r}: status {r['status']!r}, expected binds_everywhere")
        if tuple(r["bracket"]) != DIPOLE_BRACKET:
            problems.append(f"d = {r['d']!r}: bracket {r['bracket']} is not {DIPOLE_BRACKET}")
    p_ref = obj["point_dipole_reference_au"]
    if p_ref is None:
        return {}, problems + ["point-dipole reference missing"]
    p_ref = float(p_ref)
    drift = abs(p_ref - DIPOLE_P_REF)
    if not drift <= DIPOLE_TOL_P:
        problems.append(f"point-dipole reference {p_ref!r} drifted {drift:.3e}")
    if not p_ref > P_CRIT_AU:
        problems.append(f"point-dipole reference {p_ref!r} is below the exact 1/8")
    header, csv_rows = parse_csv(csv_text)
    if _column(header, csv_rows, "status") != [r["status"] for r in rows]:
        problems.append("CSV statuses differ from the JSON summary")
    accuracy = {
        "dipole_ref_rel_err": abs(p_ref - P_CRIT_AU) / P_CRIT_AU,
        "dipole_ref_drift": drift,
    }
    return accuracy, problems
