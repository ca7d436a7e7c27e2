"""Batch command-line front end.

Every pipeline is a subcommand with machine-readable output: CSV with
``#``-prefixed metadata comments (grid, constants hash, parameters; never
timestamps) and/or a JSON summary.  Identical invocations produce
byte-identical files.  Numeric inputs are atomic units unless suffixed
``si`` (for example ``--p 1.052e-30si``).

Exit codes: 0 success, 1 validation/usage error, 2 convergence error,
3 inconclusive scan.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from .critical import (
    ExtrapolationError,
    critical_report,
    estimate_to_exact_ratio,
    p_crit_estimate,
    p_crit_exact,
    physical_dipole_scan,
)
from .eigensolver import (
    DEFAULT_TOL_ALPHA,
    BracketError,
    ConvergenceError,
    Grid,
    check_resolution,
    cutoff_sweep,
    discretize,
    hydrogen_grid,
    hydrogen_spectrum,
    lowest_eigenvalues,
)
from .frobenius import (
    DEFAULT_N,
    indicial_roots,
    ode_residual,
    recursion_residuals,
    series_coefficients,
)
from .potentials import InverseSquare, family_for_keys, spec_from_record, spec_to_record
# unused here; the benchmark's tracer self-test wraps dipole1d.cli.sturm_count
from .tridiag import sturm_count  # noqa: F401
from .units import ATOMIC_UNIT_SI, ConstantSet, atomic_to_si, si_to_atomic

__all__ = ["main", "run", "build_parser"]

_CONST_KEYS = ("hbar", "m_electron", "q_electron", "epsilon0")
# spectrum's potential flags --KEY: record key -> (argparse dest, dimension)
_POTENTIAL_FLAGS = {
    "lambda": ("lam", "coulomb_strength"),
    "p": ("p", "dipole_moment"),
    "alpha": ("alpha", "dimensionless"),
    "epsilon": ("epsilon", "length"),
    "Q": ("Q", "dimensionless"),
    "d": ("d", "length"),
}
# the keys a --config file may set: constants, and a potential record
_CONFIG_KEYS = (*_CONST_KEYS, "kind", *_POTENTIAL_FLAGS)


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 1 for usage errors (argparse uses 2)
    def error(self, message):
        raise _UsageError(message)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _json_default(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def _constants_hash(c: ConstantSet) -> str:
    key = "|".join(
        _fmt(v) for v in (c.hbar, c.m_electron, c.q_electron, c.epsilon0)
    )
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def _emit(args, c: ConstantSet, params: dict, tables: list[tuple], fields: dict) -> None:
    """Write one result as CSV, JSON or both, as ``--format``/``--out`` ask.

    The metadata (command, version, ``params``, constants) heads the CSV as
    ``# key=value`` lines and is the JSON ``config``.  ``tables`` holds
    ``(title, columns, rows)``; a title other than None is written as a
    ``# table=`` line above its header.  ``fields`` follow ``command`` and
    ``config`` in the JSON object.  Equal inputs give identical bytes.
    """
    meta = {"command": args.subcommand, "version": __version__, **params,
            "constants": c.provenance_label, "constants_hash": _constants_hash(c)}

    def render(fmt):
        if fmt == "json":
            return json.dumps({"command": args.subcommand, "config": meta, **fields},
                              indent=2, default=_json_default) + "\n"
        lines = [f"# {k}={_fmt(v)}" for k, v in meta.items()]
        for title, columns, rows in tables:
            if title is not None:
                lines.append(f"# table={title}")
            lines.append(",".join(columns))
            lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        return "\n".join(lines) + "\n"

    # only the formats asked for are rendered, all of them before any write
    if args.format == "both":
        targets = [(f"{args.out}.{fmt}", render(fmt)) for fmt in ("csv", "json")]
    else:
        targets = [(args.out, render(args.format))]
    for path, body in targets:
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(body)
        else:
            sys.stdout.write(body)


def _given(**kwargs) -> dict:
    """The keyword arguments that were given; the library supplies the rest."""
    return {k: v for k, v in kwargs.items() if v is not None}


def _parse_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise _UsageError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise _UsageError(f"unknown config key {key!r}; choose from {_CONFIG_KEYS}")
            out[key] = val.strip()
    return out


def _resolve_constants(args) -> tuple[ConstantSet, dict[str, str]]:
    file_cfg: dict[str, str] = {}
    if args.config is not None:
        if not args.config:
            raise _UsageError("--config is empty")
        file_cfg = _parse_config_file(args.config)
    overrides: dict[str, float] = {}
    for key in _CONST_KEYS:
        if key in file_cfg:
            overrides[key] = float(file_cfg[key])
    for item in args.const or []:
        if "=" not in item:
            raise _UsageError(f"--const needs key=value, got {item!r}")
        key, val = item.split("=", 1)
        key = key.strip()
        if key not in _CONST_KEYS:
            raise _UsageError(f"unknown constant {key!r}; choose from {_CONST_KEYS}")
        overrides[key] = float(val)
    if overrides:
        base = ConstantSet()
        c = ConstantSet(
            hbar=overrides.get("hbar", base.hbar),
            m_electron=overrides.get("m_electron", base.m_electron),
            q_electron=overrides.get("q_electron", base.q_electron),
            epsilon0=overrides.get("epsilon0", base.epsilon0),
            provenance_label="CODATA 2022 with overrides",
        )
    else:
        c = ConstantSet()
    return c, file_cfg


def _number(text: str, dimension: str, c: ConstantSet) -> float:
    """Parse a numeric argument; a trailing ``si`` converts into atomic units
    when ``dimension`` is a key of ``ATOMIC_UNIT_SI``."""
    text = text.strip()
    is_si = text.lower().endswith("si")
    if is_si:
        text = text[:-2]
    try:
        value = float(text)
    except ValueError:
        raise _UsageError(f"malformed number {text!r}") from None
    if not is_si:
        return value
    if dimension not in ATOMIC_UNIT_SI:
        raise _UsageError(f"an 'si' suffix makes no sense for a {dimension} value")
    return si_to_atomic(c, dimension, value)


def _entries(text: str, flag: str) -> list[str]:
    """The comma-separated entries of ``flag``'s value; an empty entry is a
    usage error, not an entry to drop."""
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise _UsageError(f"{flag} has an empty entry, got {text!r}")
    return parts


def _number_list(text: str, flag: str, dimension: str, c: ConstantSet) -> list[float]:
    # a blank value is an empty list, which the pipeline refuses
    if not text.strip():
        return []
    return [_number(part, dimension, c) for part in _entries(text, flag)]


def _parse_domain(text: str, c: ConstantSet) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise _UsageError(f"--domain needs a:b, got {text!r}")
    a = _number(parts[0], "length", c)
    b = _number(parts[1], "length", c)
    if not a < b:
        raise _UsageError("--domain needs a < b")
    return a, b


def _parse_windows(text: str) -> tuple[tuple[float, float], ...]:
    if not text.strip():
        raise _UsageError("--windows is empty")
    windows = []
    for chunk in _entries(text, "--windows"):
        chunk = chunk.strip()
        parts = chunk.split(":")
        if len(parts) != 2:
            raise _UsageError(f"--windows entries need delta:L, got {chunk!r}")
        try:
            d, L = float(parts[0]), float(parts[1])
        except ValueError:
            raise _UsageError(f"malformed window {chunk!r}") from None
        windows.append((d, L))
    return tuple(windows)


def _potential_from_args(args, file_cfg: dict[str, str], c: ConstantSet):
    """The family whose record keys are exactly the potential flags given;
    without any, the ``--config`` record."""
    given = {key: _number(getattr(args, dest), dimension, c)
             for key, (dest, dimension) in _POTENTIAL_FLAGS.items()
             if getattr(args, dest) is not None}
    if given:
        try:
            kind = family_for_keys(given).KIND
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        return spec_from_record({"kind": kind, **given})
    if "kind" in file_cfg:
        return spec_from_record({k: v for k, v in file_cfg.items()
                                 if k == "kind" or k in _POTENTIAL_FLAGS})
    raise _UsageError(
        "no potential given: use --p, --alpha, --lambda[, --epsilon], "
        "--Q --d --epsilon, or a --config file with kind=..."
    )


def _grid_from_args(args, c: ConstantSet, default: Grid) -> Grid:
    a, b = (default.x_min, default.x_max) if args.domain is None else _parse_domain(args.domain, c)
    kind = {"log": "logarithmic", "uniform": "uniform"}.get(args.grid, default.kind)
    n = args.n if args.n is not None else default.n
    return Grid(kind, a, b, n)


# ----------------------------------------------------------------- handlers
# Each handler computes its tables and JSON fields, hands them to _emit and
# returns its exit code.

_SPECTRUM_GRID = Grid("uniform", -30.0, 30.0, 4001)


def _cmd_spectrum(args, c: ConstantSet, file_cfg) -> int:
    spec = _potential_from_args(args, file_cfg, c)
    if isinstance(spec, InverseSquare) and args.domain is None:
        raise _UsageError("inverse-square problems are posed on y > 0, but the default grid "
                          f"starts at x_min = {_fmt(_SPECTRUM_GRID.x_min)}; they need a log grid: "
                          "--grid log --domain A:B with 0 < A")
    grid = _grid_from_args(args, c, _SPECTRUM_GRID)
    check_resolution(spec, grid)
    H = discretize(spec, grid)
    sp = lowest_eigenvalues(H, args.states)
    params = dict(
        spec_to_record(spec),
        grid=grid.kind, x_min=_fmt(grid.x_min), x_max=_fmt(grid.x_max),
        n=grid.n, states=args.states, bc_note=H.bc_note,
    )
    rows = zip(range(1, args.states + 1), sp.energies, sp.node_counts, sp.bracket_widths)
    _emit(args, c, params,
          [(None, ["index", "energy_hartree", "node_count", "bracket_width_hartree"], rows)],
          {"energies_hartree": sp.energies,
           "node_counts": sp.node_counts,
           "bracket_widths_hartree": sp.bracket_widths})
    return 0


def _cmd_hydrogen(args, c: ConstantSet, file_cfg) -> int:
    lam = _number(args.lam, "coulomb_strength", c) if args.lam is not None else None
    # without --domain the default grid is read in Bohr radii 1/lam
    grid = _grid_from_args(args, c, hydrogen_grid(**_given(lam=lam)))
    result = hydrogen_spectrum(grid=grid, **_given(lam=lam, n_states=args.states,
                                                   refine_levels=args.refine_levels))
    sp = result.spectrum
    params = dict(
        lam=_fmt(result.lam), states=sp.energies.size,
        refine_levels=len(result.grid_sizes) - 1,
        grid=grid.kind, x_min=_fmt(grid.x_min), x_max=_fmt(grid.x_max), n=grid.n,
        grid_sizes=":".join(str(m) for m in result.grid_sizes),
    )
    rows = zip(range(1, sp.energies.size + 1), sp.energies, result.balmer,
               result.relative_errors, result.estimates_by_level[-1], result.extrapolated)
    _emit(args, c, params,
          [(None, ["n", "energy_hartree", "balmer_hartree", "rel_error",
                   "richardson_estimate_hartree", "extrapolated_hartree"], rows)],
          {"energies_hartree": sp.energies,
           "balmer_hartree": result.balmer,
           "relative_errors": result.relative_errors,
           "richardson_estimates": result.estimates_by_level,
           "extrapolated_hartree": result.extrapolated,
           "node_counts": sp.node_counts})
    return 0


def _cmd_cutoff_sweep(args, c: ConstantSet, file_cfg) -> int:
    lam = _number(args.lam, "coulomb_strength", c) if args.lam is not None else None
    eps = (tuple(_number_list(args.epsilon, "--epsilon", "length", c))
           if args.epsilon is not None else None)
    L = None
    if args.domain is not None:
        x0, L = _parse_domain(args.domain, c)
        if x0 != 0.0:
            raise _UsageError("cutoff-sweep uses the even-parity half line; --domain must be 0:L")
    result = cutoff_sweep(n=args.n, **_given(lam=lam, eps_list=eps, L=L))
    e0, even, full = result.full_line_check
    params = dict(lam=_fmt(result.lam), L=_fmt(result.L), n=result.n,
                  monotone_decreasing=result.monotone_decreasing,
                  full_line_epsilon=_fmt(e0), full_line_even_hartree=_fmt(even),
                  full_line_full_hartree=_fmt(full))
    _emit(args, c, params,
          [(None, ["epsilon", "ground_energy_hartree"], zip(result.epsilons, result.energies))],
          {"epsilons": list(result.epsilons),
           "ground_energies_hartree": list(result.energies),
           "monotone_decreasing": result.monotone_decreasing,
           "full_line_check": result.full_line_check})
    return 0


def _cmd_critical_scan(args, c: ConstantSet, file_cfg) -> int:
    windows = _parse_windows(args.windows) if args.windows is not None else None
    report = critical_report(c, tol_alpha=args.tol_alpha, **_given(windows=windows))
    params = dict(windows=",".join(f"{_fmt(d)}:{_fmt(L)}" for d, L in report.windows),
                  tol_alpha=_fmt(args.tol_alpha))
    rows = [(est.delta, est.L, math.log(est.L / est.delta), est.value,
             est.half_width, est.predicted_threshold) for est in report.per_window]
    _emit(args, c, params,
          [(None, ["delta", "L", "ln_ratio", "alpha_hat", "half_width",
                   "predicted_threshold"], rows)],
          {"alpha_crit_numeric": report.alpha_crit_numeric,
           "alpha_crit_half_width": report.alpha_crit_half_width,
           "p_crit_exact_au": report.p_crit_exact_au,
           "p_crit_exact_si": report.p_crit_exact_si,
           "p_crit_numeric_au": report.p_crit_numeric_au,
           "p_crit_numeric_half_width": report.p_crit_numeric_half_width,
           "p_crit_numeric_si": report.p_crit_numeric_si,
           "p_estimate_au": report.p_estimate_au,
           "p_estimate_si": report.p_estimate_si,
           "ratio_estimate_to_exact": report.ratio_estimate_to_exact,
           "windows": [list(w) for w in report.windows],
           "constants": report.constants_label})
    return 0


def _cmd_series(args, c: ConstantSet, file_cfg) -> int:
    if args.alpha is None:
        raise _UsageError("series needs --alpha")
    alpha = float(args.alpha)
    xi = float(args.xi)
    pair = indicial_roots(alpha)
    nu = pair.nu_plus if args.branch == "plus" else pair.nu_minus
    sol = series_coefficients(alpha, xi, nu, N=args.nterms)
    ys = [float(part) for part in _entries(args.ys, "--ys")]
    residuals = [(y, ode_residual(sol, y)) for y in ys]
    params = dict(alpha=_fmt(alpha), xi=_fmt(xi), nterms=args.nterms, branch=args.branch,
                  nu_re=_fmt(nu.real), nu_im=_fmt(nu.imag))
    _emit(args, c, params,
          [("coefficients", ["j", "re_a", "im_a"],
            [(j, a.real, a.imag) for j, a in enumerate(sol.a)]),
           ("residuals", ["y", "ode_residual"], residuals)],
          {"nu": [nu.real, nu.imag],
           "coefficients_re": [float(v.real) for v in sol.a],
           "coefficients_im": [float(v.imag) for v in sol.a],
           "recursion_residual_max": float(np.max(np.abs(recursion_residuals(sol)))),
           "ode_residuals": [[y, r] for y, r in residuals]})
    return 0


def _cmd_dipole_limit(args, c: ConstantSet, file_cfg) -> int:
    d_list = tuple(_number_list(args.d, "--d", "length", c)) if args.d is not None else None
    epsilon = _number(args.epsilon, "length", c) if args.epsilon is not None else None
    domain = _parse_domain(args.domain, c) if args.domain is not None else None
    result = physical_dipole_scan(n=args.n, **_given(d_list=d_list, epsilon=epsilon,
                                                     domain=domain))
    a, b = result.domain
    params = dict(
        epsilon=_fmt(result.epsilon), domain=f"{_fmt(a)}:{_fmt(b)}",
        n=result.n, exploratory=result.exploratory,
        point_dipole_reference=_fmt(result.point_dipole_reference),
        spread=_fmt(result.spread),
        note=result.note,
    )
    rows = [(r.d, r.p_critical, r.bracket[0], r.bracket[1], r.status) for r in result.rows]
    _emit(args, c, params,
          [(None, ["d", "critical_p_au", "bracket_lo", "bracket_hi", "status"], rows)],
          {"rows": [{"d": r.d, "critical_p_au": r.p_critical, "bracket": list(r.bracket),
                     "conclusive": r.conclusive, "status": r.status}
                    for r in result.rows],
           "point_dipole_reference_au": result.point_dipole_reference,
           "spread": result.spread,
           "exploratory": result.exploratory,
           "note": result.note})
    return 0 if all(r.conclusive for r in result.rows) else 3


def _cmd_convert(args, c: ConstantSet, file_cfg) -> int:
    rows = []
    if args.p is not None:
        p_au = _number(args.p, "dipole_moment", c)
        rows.append(("dipole_moment", p_au, atomic_to_si(c, "dipole_moment", p_au), "C*m"))
        if p_au > 0:
            rows.append(("alpha", 2.0 * p_au, None, None))
    if args.energy is not None:
        e_au = _number(args.energy, "energy", c)
        rows.append(("energy", e_au, atomic_to_si(c, "energy", e_au), "J"))
    if args.length is not None:
        x_au = _number(args.length, "length", c)
        rows.append(("length", x_au, atomic_to_si(c, "length", x_au), "m"))
    if args.alpha is not None:
        alpha = _number(args.alpha, "dimensionless", c)
        if not math.isfinite(alpha):
            raise ValueError(f"alpha must be finite, got {alpha!r}")
        rows.append(("alpha", alpha, None, None))
        if alpha > 0:
            p_au = alpha / 2.0
            rows.append(("equivalent_dipole", p_au, atomic_to_si(c, "dipole_moment", p_au),
                         "C*m"))
    if args.pcrit_si:
        rows.append(("p_crit_exact", 0.125, p_crit_exact(c), "C*m"))
        rows.append(("p_crit_estimate", 2.0, p_crit_estimate(c), "C*m"))
        rows.append(("estimate_to_exact_ratio", estimate_to_exact_ratio(), None, None))
    if not rows:
        raise _UsageError("convert needs at least one of --p, --energy, --length, "
                          "--alpha, --pcrit-si")
    rows.append(("bohr_radius_si", 1.0, atomic_to_si(c, "length", 1.0), "m"))
    rows.append(("hartree_si", 1.0, atomic_to_si(c, "energy", 1.0), "J"))
    columns = ["quantity", "atomic_value", "si_value", "si_unit"]
    _emit(args, c, {}, [(None, columns, rows)],
          {"rows": [dict(zip(columns, row)) for row in rows]})
    return 0


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "hydrogen": _cmd_hydrogen,
    "cutoff-sweep": _cmd_cutoff_sweep,
    "critical-scan": _cmd_critical_scan,
    "series": _cmd_series,
    "dipole-limit": _cmd_dipole_limit,
    "convert": _cmd_convert,
}


def _add_common(sp):
    sp.add_argument("--format", choices=("csv", "json", "both"), default="csv")
    sp.add_argument("--out", default=None)
    sp.add_argument("--config", default=None, help="key=value file (constants, potential)")
    sp.add_argument("--const", action="append", default=None, metavar="KEY=VALUE")


def build_parser() -> _Parser:
    parser = _Parser(prog="dipole1d", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("spectrum", help="eigenvalues of any potential family")
    for key, (dest, _) in _POTENTIAL_FLAGS.items():
        sp.add_argument(f"--{key}", dest=dest, default=None)
    sp.add_argument("--domain", default=None, metavar="A:B")
    sp.add_argument("--grid", choices=("uniform", "log"), default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--states", type=int, default=4)
    _add_common(sp)

    sp = sub.add_parser("hydrogen", help="half-line Coulomb levels vs the Balmer form")
    sp.add_argument("--lambda", dest="lam", default=None)
    sp.add_argument("--states", type=int, default=None)
    sp.add_argument("--refine-levels", type=int, default=None)
    sp.add_argument("--domain", default=None, metavar="A:B")
    sp.add_argument("--grid", choices=("uniform", "log"), default=None)
    sp.add_argument("--n", type=int, default=None)
    _add_common(sp)

    sp = sub.add_parser("cutoff-sweep", help="capped-Coulomb ground state vs cap size")
    sp.add_argument("--lambda", dest="lam", default=None)
    sp.add_argument("--epsilon", default=None, help="comma-separated cap list")
    sp.add_argument("--domain", default=None, metavar="0:L")
    sp.add_argument("--n", type=int, default=None)
    _add_common(sp)

    sp = sub.add_parser("critical-scan", help="binding threshold and critical moment")
    sp.add_argument("--windows", default=None, metavar="D:L[,D:L...]")
    sp.add_argument("--tol-alpha", type=float, default=DEFAULT_TOL_ALPHA)
    _add_common(sp)

    sp = sub.add_parser("series", help="local power-series coefficients and residuals")
    sp.add_argument("--alpha", default=None)
    sp.add_argument("--xi", default="1.0")
    sp.add_argument("--nterms", type=int, default=DEFAULT_N)
    sp.add_argument("--branch", choices=("plus", "minus"), default="plus")
    sp.add_argument("--ys", default="0.01,0.02,0.05,0.1,0.2,0.5")
    _add_common(sp)

    sp = sub.add_parser("dipole-limit", help="two-centre separation scan (exploratory)")
    sp.add_argument("--d", default=None, help="comma-separated separations")
    sp.add_argument("--epsilon", default=None)
    sp.add_argument("--domain", default=None, metavar="A:B")
    sp.add_argument("--n", type=int, default=None)
    _add_common(sp)

    sp = sub.add_parser("convert", help="unit conversions")
    sp.add_argument("--p", default=None)
    sp.add_argument("--energy", default=None)
    sp.add_argument("--length", default=None)
    sp.add_argument("--alpha", default=None)
    sp.add_argument("--pcrit-si", action="store_true")
    _add_common(sp)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> _Parser:
    # building the parser costs ~50x a parse; run() reuses one per process
    return build_parser()


_MERGE_FLAGS = {"--domain", "--energy", "--alpha", "--xi", "--length"}


def _merge_negative_values(argv: list[str]) -> list[str]:
    # argparse refuses leading-dash option values such as --domain -20:0
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _MERGE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv=None) -> int:
    """Parse argv, dispatch, and map failures onto the exit-code contract."""
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
        if args.format == "both" and not args.out:
            raise _UsageError("--format both needs --out")
        constants, file_cfg = _resolve_constants(args)
        return _HANDLERS[args.subcommand](args, constants, file_cfg)
    except _UsageError as exc:
        sys.stderr.write(f"error: code=usage {exc}\n")
        return 1
    except BracketError as exc:
        sys.stderr.write(f"error: code=bracket {exc}\n")
        return 3
    except (ConvergenceError, ExtrapolationError) as exc:
        sys.stderr.write(f"error: code=convergence {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: code=invalid {exc}\n")
        return 1
    except MemoryError as exc:
        # an array too large for this machine; numpy's message names its shape
        sys.stderr.write(f"error: code=invalid out of memory: {exc}\n")
        return 1


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
