"""Grids, discrete Hamiltonians and the spectral pipelines built on them.

The operator is H = -(1/2) d^2/dx^2 + V(x) in hartree atomic units,
discretized with the 3-point second difference on uniform grids and, for
singular Coulomb-type problems, with the symmetrized transform of the
substitution x = e^s on logarithmic grids: writing u = e^(s/2) psi turns H
into the regular Sturm-Liouville form

    -(1/2) (e^(-2s) u')' - (3/8) e^(-2s) u + V(e^s) u = E u,

which stays a standard symmetric tridiagonal eigenproblem with strictly
negative off-diagonal couplings.  Because e^(s/2) > 0, sign patterns (and so
node counts) of u and psi agree.

The inverse-square family is assembled from its scaled defining form
-psi'' - (alpha/y^2) psi = -xi psi, i.e. with half the raw potential on the
diagonal, so reported eigenvalues are E = -xi/2 in hartree and the binding
threshold sits at alpha = 1/4 as it must.

Eigenvalues come from Sturm-sequence bisection (guaranteed index bracketing),
eigenvectors from inverse iteration, and node counts from eigenvector sign
changes.  Criticality of the inverse-square coupling is located through the
zero-energy oscillation criterion instead of chasing exponentially small
binding energies: a zero-energy solution with interior nodes on (delta, L)
signals bound states, and the detected threshold carries the documented
window bias 1/4 + (pi / ln(L/delta))^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .potentials import (
    InverseSquare,
    PointDipole,
    PotentialSpec,
    SingularPointError,
    classify_domain,
    eval_potential_grid,
)
from .tridiag import count_sign_changes, eigvalsh_bisect, inverse_iteration

__all__ = [
    "Grid",
    "DiscreteHamiltonian",
    "Spectrum",
    "HydrogenResult",
    "CutoffSweepResult",
    "AlphaCritEstimate",
    "GridAlignmentError",
    "ResolutionError",
    "ConvergenceError",
    "IntegrationError",
    "BracketError",
    "discretize",
    "lowest_eigenvalues",
    "hydrogen_spectrum",
    "cutoff_sweep",
    "zero_energy_node_count",
    "find_alpha_crit",
    "window_bias",
    "richardson_step",
    "DEFAULT_HYDROGEN_GRID",
    "DEFAULT_CUTOFF_EPS",
    "DEFAULT_WINDOWS",
]


class GridAlignmentError(ValueError):
    """An interior pinned-zero point does not coincide with a grid node."""


class ResolutionError(ValueError):
    """A requested cut-off is finer than the grid can resolve."""

    def __init__(self, epsilon: float, spacing: float):
        self.epsilon = epsilon
        self.spacing = spacing
        super().__init__(
            f"cut-off epsilon = {epsilon!r} is below the resolvable scale for "
            f"grid spacing h = {spacing!r}"
        )


class ConvergenceError(RuntimeError):
    """Grid refinement did not show the expected error decay."""

    def __init__(self, message: str, diagnostics=None):
        self.diagnostics = diagnostics
        super().__init__(message)


class IntegrationError(RuntimeError):
    """The ODE integration violated its conserved-quantity check."""


class BracketError(RuntimeError):
    """A bisection predicate has the same truth value on both bracket ends."""


_ALIGN_RTOL = 1e-9


@dataclass(frozen=True)
class Grid:
    """Geometry of a 1D solve: where the unknowns sit and what the walls are.

    The right end is always a Dirichlet wall.  ``left_bc = "dirichlet"`` puts
    a wall at ``x_min`` with n interior nodes; ``left_bc = "neumann"`` (even
    parity reduction, uniform grids only) places node 0 on ``x_min`` itself
    with a mirror condition there.  Logarithmic grids are uniform in
    s = ln x and therefore need ``x_min > 0``.
    """

    kind: str
    x_min: float
    x_max: float
    n: int
    left_bc: str = "dirichlet"

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "logarithmic"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.left_bc not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown left boundary {self.left_bc!r}")
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("grid ends must be finite")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        if self.n < 16:
            raise ValueError("grid needs at least 16 points")
        if self.kind == "logarithmic":
            if self.x_min <= 0.0:
                raise ValueError("logarithmic grids need x_min > 0")
            if self.left_bc != "dirichlet":
                raise ValueError("neumann reduction is supported on uniform grids only")

    @property
    def spacing(self) -> float:
        """Step between unknowns: in x for uniform grids, in s = ln x for
        logarithmic ones."""
        if self.kind == "uniform":
            if self.left_bc == "neumann":
                return (self.x_max - self.x_min) / self.n
            return (self.x_max - self.x_min) / (self.n + 1)
        s0, s1 = math.log(self.x_min), math.log(self.x_max)
        return (s1 - s0) / (self.n + 1)

    def _s_ladder(self) -> np.ndarray:
        s0 = math.log(self.x_min)
        return s0 + self.spacing * np.arange(1, self.n + 1)

    @property
    def nodes(self) -> np.ndarray:
        if self.kind == "logarithmic":
            return np.exp(self._s_ladder())
        h = self.spacing
        if self.left_bc == "neumann":
            return self.x_min + h * np.arange(self.n)
        return self.x_min + h * np.arange(1, self.n + 1)

    def refined(self) -> "Grid":
        """Same geometry with the spacing exactly halved."""
        if self.left_bc == "neumann":
            return replace(self, n=2 * self.n)
        return replace(self, n=2 * self.n + 1)


DEFAULT_HYDROGEN_GRID = Grid("logarithmic", 1e-5, 200.0, 16384)
DEFAULT_CUTOFF_EPS = (0.2, 0.1, 0.05, 0.025, 0.0125)
DEFAULT_WINDOWS = ((1e-8, 1e8), (1e-10, 1e10), (1e-12, 1e12))


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """Symmetric tridiagonal operator plus the geometry it was built on.

    ``nodes`` are the positions actually carrying unknowns (a subset of the
    grid's nodes when a pinned zero or a sign restriction removed some).
    Off-diagonal entries are negative kinetic couplings; a decoupling across
    an interior pinned zero is stored as an exact 0.
    """

    diagonal: np.ndarray
    offdiagonal: np.ndarray
    grid: Grid
    bc_note: str
    nodes: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.diagonal, dtype=float)
        e = np.asarray(self.offdiagonal, dtype=float)
        x = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "diagonal", d)
        object.__setattr__(self, "offdiagonal", e)
        object.__setattr__(self, "nodes", x)
        if d.ndim != 1 or e.shape != (d.shape[0] - 1,) or x.shape != d.shape:
            raise ValueError("inconsistent operator array shapes")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise ValueError("operator entries must be finite")
        if np.any(e > 0.0):
            raise ValueError("off-diagonal kinetic couplings must be <= 0")

    @property
    def size(self) -> int:
        return int(self.diagonal.shape[0])


@dataclass(frozen=True)
class Spectrum:
    """Low-lying eigenvalues with per-state diagnostics.

    ``node_counts[k]`` counts interior sign changes of eigenvector k; for a
    connected interval problem the node theorem makes this exactly k.
    ``refinement_estimate`` holds per-state Richardson error estimates when
    the spectrum came out of a refinement ladder.
    """

    energies: np.ndarray
    node_counts: np.ndarray
    bracket_widths: np.ndarray
    eigenvectors: np.ndarray | None = None
    refinement_estimate: np.ndarray | None = None

    def __post_init__(self) -> None:
        e = np.asarray(self.energies, dtype=float)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "node_counts", np.asarray(self.node_counts, dtype=int))
        object.__setattr__(self, "bracket_widths", np.asarray(self.bracket_widths, dtype=float))
        if self.node_counts.shape != e.shape or self.bracket_widths.shape != e.shape:
            raise ValueError("per-state arrays must match the energy array")
        scale = max(1.0, float(np.max(np.abs(e))) if e.size else 1.0)
        if e.size > 1 and np.any(np.diff(e) < -1e-9 * scale):
            raise ValueError("energies must be nondecreasing")


def _potential_column(spec: PotentialSpec, xs: np.ndarray) -> np.ndarray:
    v = eval_potential_grid(spec, xs)
    if isinstance(spec, InverseSquare):
        # Scaled defining form: half the raw well, eigenvalues are -xi/2.
        v = 0.5 * v
    return v


def discretize(spec: PotentialSpec, grid: Grid) -> DiscreteHamiltonian:
    """Assemble the symmetric tridiagonal operator for ``spec`` on ``grid``.

    Dirichlet values are imposed at the walls and at any interior pinned zero
    of the potential (which must then sit on a grid node).  A point dipole on
    a grid spanning the origin is assembled on the x < 0 subgrid only, since
    its states vanish identically on the repulsive side.

    Raises
    ------
    SingularPointError
        if the grid spans a singular point that is not a pinned zero.
    GridAlignmentError
        if an interior pinned zero falls between grid nodes.
    """
    profile = classify_domain(spec)
    if isinstance(spec, InverseSquare) and grid.x_min < 0.0:
        raise ValueError("inverse-square problems are posed on y > 0")
    nodes = grid.nodes
    n = nodes.shape[0]
    scale = max(abs(grid.x_min), abs(grid.x_max), 1.0)
    atol = _ALIGN_RTOL * scale
    notes = []

    drop = np.zeros(n, dtype=bool)
    for p in profile.singular_points:
        if not (grid.x_min + atol < p < grid.x_max - atol):
            continue
        if p not in profile.hard_nodes:
            raise SingularPointError(p, f"grid spans the singular point x = {p!r}")
        idx = int(np.argmin(np.abs(nodes - p)))
        if abs(nodes[idx] - p) > atol:
            raise GridAlignmentError(
                f"interior pinned zero at x = {p!r} is not on a grid node "
                f"(nearest node {nodes[idx]!r})"
            )
        drop[idx] = True
        notes.append(f"interior Dirichlet zero at x = {p!r} decouples the operator")

    if isinstance(spec, PointDipole) and grid.x_max > atol and grid.x_min < -atol:
        drop |= nodes > -atol
        notes = [n_ for n_ in notes if "decouples" not in n_]
        notes.append("point dipole: assembled on the x < 0 subgrid, Dirichlet at the origin")

    if drop.any() and grid.left_bc == "neumann":
        raise ValueError("neumann reduction cannot be combined with interior pinned zeros")

    keep = np.nonzero(~drop)[0]
    if keep.shape[0] < 2:
        raise ValueError("fewer than 2 active nodes remain after restrictions")
    act_nodes = nodes[keep]
    for p in profile.singular_points:
        if np.any(act_nodes == p):
            raise SingularPointError(p, f"grid node touches the singular point x = {p!r}")

    h = grid.spacing
    if grid.kind == "uniform":
        kin_diag = np.full(n, 1.0 / h**2)
        kin_off = np.full(n - 1, -0.5 / h**2)
        if grid.left_bc == "neumann":
            # mirror row symmetrized by a positive diagonal similarity
            kin_off[0] = -1.0 / (math.sqrt(2.0) * h**2)
            notes.append(
                "left Neumann wall (even-parity mirror reduction), "
                "first coupling carries the 1/sqrt(2) symmetrizer"
            )
        else:
            notes.append(f"uniform grid, Dirichlet walls at {grid.x_min!r} and {grid.x_max!r}")
    else:
        s = grid._s_ladder()
        w_left = np.exp(-2.0 * (s - 0.5 * h))
        w_right = np.exp(-2.0 * (s + 0.5 * h))
        kin_diag = 0.5 * (w_left + w_right) / h**2 - 0.375 * np.exp(-2.0 * s)
        kin_off = -0.5 * w_right[:-1] / h**2
        notes.append(
            "logarithmic grid x = e^s with u = e^(s/2) psi; operator "
            "-(1/2)(e^(-2s) u')' - (3/8) e^(-2s) u + V(e^s) u, Dirichlet in u at both walls"
        )

    if isinstance(spec, InverseSquare):
        notes.append("inverse-square scaled form: diagonal carries V/2, eigenvalues are -xi/2")

    diag = kin_diag[keep] + _potential_column(spec, act_nodes)
    adjacent = keep[1:] == keep[:-1] + 1
    off = np.where(adjacent, kin_off[keep[:-1]], 0.0)

    return DiscreteHamiltonian(
        diagonal=diag,
        offdiagonal=off,
        grid=grid,
        bc_note="; ".join(notes),
        nodes=act_nodes,
    )


def lowest_eigenvalues(
    H: DiscreteHamiltonian,
    k: int,
    tol: float = 1e-10,
    maxit: int = 200,
    want_vectors: bool = True,
) -> Spectrum:
    """The k smallest eigenvalues of H with node counts and bracket widths.

    Each eigenvalue is bisected until its Sturm bracket is narrower than
    ``tol`` (or ``maxit`` iterations); the Sturm count guarantees the index of
    every returned bracket.
    """
    if not 1 <= k <= H.size:
        raise ValueError(f"k must be in [1, {H.size}], got {k}")
    values, widths = eigvalsh_bisect(H.diagonal, H.offdiagonal, k, tol=tol, maxit=maxit)
    vectors = None
    counts = np.zeros(k, dtype=int)
    if want_vectors:
        vectors = np.empty((k, H.size))
        for j in range(k):
            v = inverse_iteration(H.diagonal, H.offdiagonal, values[j])
            vectors[j] = v
            counts[j] = count_sign_changes(v)
    return Spectrum(
        energies=values,
        node_counts=counts,
        bracket_widths=widths,
        eigenvectors=vectors,
    )


def richardson_step(coarse, fine, ratio: float = 2.0, order: int = 2):
    """One Richardson combination of two resolutions.

    Returns (extrapolated, error_estimate) assuming the error shrinks by
    ratio**order per refinement; the estimate is the standard
    |fine - coarse| / (ratio**order - 1).
    """
    coarse = np.asarray(coarse, dtype=float)
    fine = np.asarray(fine, dtype=float)
    factor = ratio**order - 1.0
    return fine + (fine - coarse) / factor, np.abs(fine - coarse) / factor


@dataclass(frozen=True)
class HydrogenResult:
    """Refinement ladder for the half-line Coulomb problem plus the Balmer
    comparison: reference levels are -lam^2 / (2 n^2) hartree."""

    lam: float
    spectrum: Spectrum
    grid_sizes: tuple[int, ...]
    energies_by_level: np.ndarray = field(repr=False)
    balmer: np.ndarray
    relative_errors: np.ndarray
    extrapolated: np.ndarray
    estimates_by_level: np.ndarray = field(repr=False)


def hydrogen_spectrum(
    lam: float = 1.0,
    n_states: int = 3,
    refine_levels: int = 2,
    grid: Grid | None = None,
    eig_tol: float = 1e-11,
) -> HydrogenResult:
    """Solve the half-line Coulomb problem and compare against the Balmer form.

    The problem is solved on ``grid`` and on ``refine_levels`` exact spacing
    halvings; per-state Richardson error estimates must shrink from level to
    level (while they sit above the eigenvalue-bisection noise floor) or a
    :class:`ConvergenceError` carrying the estimates is raised.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be finite and > 0")
    if n_states < 1:
        raise ValueError("n_states must be >= 1")
    if refine_levels < 1:
        raise ValueError("refine_levels must be >= 1")
    if grid is None:
        grid = DEFAULT_HYDROGEN_GRID

    from .potentials import Coulomb

    grids = [grid]
    for _ in range(refine_levels):
        grids.append(grids[-1].refined())

    spectra = []
    for g in grids:
        H = discretize(Coulomb(lam), g)
        spectra.append(lowest_eigenvalues(H, n_states, tol=eig_tol))
    E = np.vstack([sp.energies for sp in spectra])

    estimates = np.abs(E[1:] - E[:-1]) / 3.0
    noise_floor = 10.0 * eig_tol
    for s in range(n_states):
        seq = estimates[:, s]
        for a, b in zip(seq[:-1], seq[1:]):
            if a > noise_floor and b > noise_floor and not b < a:
                raise ConvergenceError(
                    f"Richardson estimates for state {s + 1} do not shrink under refinement",
                    diagnostics=estimates,
                )

    extrapolated, _ = richardson_step(E[-2], E[-1])
    n_idx = np.arange(1, n_states + 1, dtype=float)
    balmer = -(lam**2) / (2.0 * n_idx**2)
    rel = np.abs(E[-1] - balmer) / np.abs(balmer)

    final = replace(spectra[-1], refinement_estimate=estimates[-1])
    return HydrogenResult(
        lam=lam,
        spectrum=final,
        grid_sizes=tuple(g.n for g in grids),
        energies_by_level=E,
        balmer=balmer,
        relative_errors=rel,
        extrapolated=extrapolated,
        estimates_by_level=estimates,
    )


@dataclass(frozen=True)
class CutoffSweepResult:
    """Ground-state energies of the capped Coulomb well for shrinking caps.

    ``monotone_decreasing`` flags whether E0 fell strictly at every step, the
    numerical signature that the uncapped limit is bottomless in the even
    sector.  ``full_line_check`` holds (epsilon, E0_even, E0_full) for the one
    cap verified against the unreduced full-line problem.
    """

    lam: float
    L: float
    n: int
    epsilons: tuple[float, ...]
    energies: tuple[float, ...]
    monotone_decreasing: bool
    full_line_check: tuple[float, float, float] | None


def cutoff_sweep(
    lam: float = 1.0,
    eps_list: tuple[float, ...] = DEFAULT_CUTOFF_EPS,
    L: float = 60.0,
    n: int | None = None,
    eig_tol: float = 1e-10,
    verify_full_line: bool = True,
) -> CutoffSweepResult:
    """Ground state of the capped Coulomb well for every cap in ``eps_list``.

    Uses the even-parity reduction (Neumann wall at 0, Dirichlet at L), since
    the diverging state is even, and verifies the largest cap against the
    full-line [-L, L] problem, whose even sector it reproduces exactly.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be finite and > 0")
    eps = tuple(float(e) for e in eps_list)
    if len(eps) == 0:
        raise ValueError("eps_list must not be empty")
    if any(not (math.isfinite(e) and e > 0.0) for e in eps):
        raise ValueError("every epsilon must be finite and > 0")
    if any(b >= a for a, b in zip(eps[:-1], eps[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if n is None:
        n = int(math.ceil(4.0 * L / min(eps)))
    h = L / n
    for e in eps:
        if e < 2.0 * h:
            raise ResolutionError(e, h)

    from .potentials import RegularizedCoulomb

    grid = Grid("uniform", 0.0, L, n, left_bc="neumann")
    energies = []
    for e in eps:
        H = discretize(RegularizedCoulomb(lam, e), grid)
        sp = lowest_eigenvalues(H, 1, tol=eig_tol, want_vectors=False)
        energies.append(float(sp.energies[0]))

    monotone = all(b < a for a, b in zip(energies[:-1], energies[1:]))

    full_check = None
    if verify_full_line:
        # Full line with matched spacing: nodes at +-i*h, wall at +-L, so the
        # even sector of this operator is exactly the reduced one above.
        grid_full = Grid("uniform", -L, L, 2 * n - 1)
        H_full = discretize(RegularizedCoulomb(lam, eps[0]), grid_full)
        sp_full = lowest_eigenvalues(H_full, 1, tol=eig_tol, want_vectors=False)
        full_check = (eps[0], energies[0], float(sp_full.energies[0]))

    return CutoffSweepResult(
        lam=lam,
        L=L,
        n=n,
        epsilons=eps,
        energies=tuple(energies),
        monotone_decreasing=monotone,
        full_line_check=full_check,
    )


def _rk4_node_count(coef, v0, span, nsteps):
    # u'' = coef * u in s = ln y, with coef = 1/4 - alpha.  The quadratic
    # Q = u'^2 - coef u^2 is exactly conserved; its drift flags step failure.
    # The loop runs over the full span even after the first node, so the
    # drift check covers every step.
    h = span / nsteps
    hh = 0.5 * h  # 0.5 * h * k evaluates as (0.5 * h) * k
    h6 = h / 6.0
    acoef = abs(coef)
    u = 0.0
    v = v0
    q0 = v * v - coef * u * u
    scale = abs(q0)
    count = 0
    last_sign = 0
    for _ in range(nsteps):
        k1v = coef * u
        k2u = v + hh * k1v
        k2v = coef * (u + hh * v)
        k3u = v + hh * k2v
        k3v = coef * (u + hh * k2u)
        k4u = v + h * k3v
        k4v = coef * (u + h * k3u)
        u = u + h6 * (v + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + h6 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        mag = v * v + acoef * u * u
        if mag > scale:
            scale = mag
        if u > 0.0:
            if last_sign < 0:
                count += 1
            last_sign = 1
        elif u < 0.0:
            if last_sign > 0:
                count += 1
            last_sign = -1
    drift = abs((v * v - coef * u * u) - q0)
    return count, drift, scale


def zero_energy_node_count(
    alpha: float,
    delta: float,
    L: float,
    steps_per_unit: int = 128,
    drift_tol: float = 1e-6,
) -> int:
    """Interior nodes on (delta, L) of the zero-energy solution with
    psi(delta) = 0, psi'(delta) = 1.

    Integrates the log-coordinate form u'' = (1/4 - alpha) u (u = e^(-s/2) psi,
    s = ln y) with fixed-step RK4 and counts sign changes.  For alpha > 1/4
    the exact solution oscillates log-periodically and the count equals
    floor(sqrt(alpha - 1/4) ln(L/delta) / pi); below threshold it is 0.  The
    count depends on the window only through L/delta.
    """
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if not (0.0 < delta < L) or not math.isfinite(L):
        raise ValueError("need 0 < delta < L, both finite")
    span = math.log(L / delta)
    nsteps = max(256, int(math.ceil(span * steps_per_unit)))
    count, drift, scale = _rk4_node_count(0.25 - alpha, math.sqrt(delta), span, nsteps)
    if drift > drift_tol * scale:
        raise IntegrationError(
            f"conserved-quantity drift {drift:.3e} exceeds {drift_tol:.1e} x scale; "
            "reduce the step size"
        )
    return int(count)


def window_bias(delta: float, L: float) -> float:
    """Detected threshold on a finite window: 1/4 + (pi / ln(L/delta))^2."""
    if not (0.0 < delta < L):
        raise ValueError("need 0 < delta < L")
    return 0.25 + (math.pi / math.log(L / delta)) ** 2


@dataclass(frozen=True)
class AlphaCritEstimate:
    """Bisection estimate of the binding threshold on one (delta, L) window.

    The window sees oscillation only once a full half-period of the
    log-periodic solution fits inside, so the detected threshold is biased to
    ``predicted_threshold`` = 1/4 + (pi / ln(L/delta))^2; widening the window
    shrinks the bias like 1/ln^2(L/delta).
    """

    value: float
    half_width: float
    delta: float
    L: float
    predicted_threshold: float


def find_alpha_crit(
    delta: float,
    L: float,
    tol_alpha: float = 1e-4,
    bracket: tuple[float, float] = (0.0, 2.0),
) -> AlphaCritEstimate:
    """Bisect the coupling for the onset of zero-energy oscillation.

    The predicate is ``zero_energy_node_count >= 1``.  Raises
    :class:`BracketError` when the predicate does not change across
    ``bracket``.
    """
    if not (0.0 < delta < L):
        raise ValueError("need 0 < delta < L")
    if not tol_alpha > 0.0:
        raise ValueError("tol_alpha must be > 0")
    lo, hi = bracket
    if not lo < hi:
        raise ValueError("bracket must be increasing")

    def oscillates(a: float) -> bool:
        return zero_energy_node_count(a, delta, L) >= 1

    if oscillates(lo) or not oscillates(hi):
        raise BracketError(
            f"oscillation predicate does not change over alpha in [{lo!r}, {hi!r}]"
        )
    while hi - lo > 2.0 * tol_alpha:
        mid = 0.5 * (lo + hi)
        if oscillates(mid):
            hi = mid
        else:
            lo = mid
    return AlphaCritEstimate(
        value=0.5 * (lo + hi),
        half_width=0.5 * (hi - lo),
        delta=delta,
        L=L,
        predicted_threshold=window_bias(delta, L),
    )
