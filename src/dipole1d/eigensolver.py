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

The inverse-square family is posed in its scaled defining form
-psi'' - (alpha/y^2) psi = -xi psi, whose potential is -alpha/(2 y^2)
hartree, so reported eigenvalues are E = -xi/2 in hartree and the binding
threshold sits at alpha = 1/4 as it must.

Eigenvalues come from Sturm-sequence bisection (guaranteed index bracketing),
node counts from the oscillation theorem: a level's Sturm index in its block
of rows between pinned zeros.  Criticality of the inverse-square coupling is
located through the zero-energy oscillation criterion instead of chasing
exponentially small binding energies: a zero-energy solution with interior
nodes on (delta, L) signals bound states, and the detected threshold carries
the documented window bias 1/4 + (pi / ln(L/delta))^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .potentials import (
    Coulomb,
    InverseSquare,
    PointDipole,
    PotentialSpec,
    RegularizedCoulomb,
    SingularPointError,
    eval_potential_grid,
)
from .tridiag import (
    _block_indices,
    _Couplings,
    _diagonal,
    _narrow_bracket,
    _rayleigh_seeds,
    _Tridiagonal,
    _wall_level,
    eigvalsh_bisect,
)

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
    "BracketError",
    "discretize",
    "check_resolution",
    "lowest_eigenvalues",
    "hydrogen_grid",
    "hydrogen_spectrum",
    "cutoff_sweep",
    "zero_energy_node_count",
    "find_alpha_crit",
    "window_bias",
    "richardson_step",
    "DEFAULT_HYDROGEN_GRID",
    "DEFAULT_CUTOFF_EPS",
    "DEFAULT_WINDOWS",
    "DEFAULT_TOL_ALPHA",
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


class BracketError(RuntimeError):
    """A bisection predicate has the same truth value on both bracket ends."""


_ALIGN_RTOL = 1e-9
_HYDROGEN_TOL = 1e-11  # eigenvalue bracket width on every hydrogen rung
_CUTOFF_TOL = 1e-10  # eigenvalue bracket width of every cut-off solve
_ALPHA_MAX = 2.0  # find_alpha_crit bisects alpha over [0, _ALPHA_MAX]


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

    def _indices(self, start: int) -> np.ndarray:
        # start, start + 1, ..., start + n - 1; a count numpy refuses, or
        # cannot allocate, is a ValueError that names it
        try:
            return np.arange(start, start + self.n)
        except (MemoryError, ValueError) as exc:
            raise ValueError(f"a grid of n = {self.n} nodes is too large to allocate") from exc

    def _s_ladder(self) -> np.ndarray:
        s0 = math.log(self.x_min)
        return s0 + self.spacing * self._indices(1)

    @property
    def nodes(self) -> np.ndarray:
        if self.kind == "logarithmic":
            return np.exp(self._s_ladder())
        h = self.spacing
        if self.left_bc == "neumann":
            return self.x_min + h * self._indices(0)
        return self.x_min + h * self._indices(1)

    def refined(self) -> "Grid":
        """Same geometry with the spacing exactly halved."""
        if self.left_bc == "neumann":
            return replace(self, n=2 * self.n)
        return replace(self, n=2 * self.n + 1)


DEFAULT_HYDROGEN_GRID = Grid("logarithmic", 1e-5, 200.0, 16384)  # in Bohr radii 1/lam
DEFAULT_CUTOFF_EPS = (0.2, 0.1, 0.05, 0.025, 0.0125)
DEFAULT_WINDOWS = ((1e-8, 1e8), (1e-10, 1e10), (1e-12, 1e12))
DEFAULT_TOL_ALPHA = 1e-4


@dataclass(frozen=True)
class DiscreteHamiltonian(_Tridiagonal):
    """Symmetric tridiagonal operator plus the geometry it was built on.

    ``nodes`` are the positions actually carrying unknowns (a subset of the
    grid's nodes when a pinned zero or a sign restriction removed some).
    Off-diagonal entries are negative kinetic couplings; a decoupling across
    an interior pinned zero is stored as an exact 0.  Construction refuses
    nodes that do not match the diagonal and positive couplings; tridiag's
    ``_diagonal`` and ``_Couplings`` check the rest, as for any operator.

    ``couplings`` holds the Sturm setup that depends on the couplings alone
    (``tridiag._Couplings``, built once with their checks): an operator made
    by :meth:`plus` shares it with the one it was made from.  The views of
    the diagonal (``tridiag._Tridiagonal``) are built on first use, at most
    once per operator.
    """

    diagonal: np.ndarray
    offdiagonal: np.ndarray
    grid: Grid
    bc_note: str
    nodes: np.ndarray
    couplings: _Couplings | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        e = np.asarray(self.offdiagonal, dtype=float)
        d = _diagonal(self.diagonal, e)
        x = np.asarray(self.nodes, dtype=float)
        if x.shape != d.shape:
            raise ValueError("nodes must hold one position per diagonal entry")
        if self.couplings is None or self.couplings.off is not e:
            object.__setattr__(self, "couplings", _Couplings(e))
            if np.any(e > 0.0):
                raise ValueError("off-diagonal kinetic couplings must be <= 0")
        object.__setattr__(self, "diagonal", d)
        object.__setattr__(self, "offdiagonal", e)
        object.__setattr__(self, "nodes", x)

    @property
    def size(self) -> int:
        return int(self.diagonal.shape[0])

    # V overflowing to inf, or inf - inf, is refused by _diagonal as a
    # ValueError, not left to warn on the way.
    @np.errstate(over="ignore", invalid="ignore")
    def _unchecked_plus(self, spec: PotentialSpec) -> np.ndarray:
        # the diagonal plus spec's potential at the nodes, not yet checked
        return self.diagonal + eval_potential_grid(spec, self.nodes)

    def diagonal_plus(self, spec: PotentialSpec) -> np.ndarray:
        """The diagonal of :meth:`plus`, refused as ``plus`` refuses it.

        For a caller that reads one diagonal once (the dipole scan's binding
        predicate, one Sturm pass per potential), without building the
        operator record.
        """
        return _diagonal(self._unchecked_plus(spec), self.offdiagonal)

    def plus(self, spec: PotentialSpec) -> "DiscreteHamiltonian":
        """This operator with ``spec``'s potential added to its diagonal.

        On the operator of ``spec``'s family at V = 0 (``_kinetic_part``)
        this is ``discretize(spec, grid)``: the same float additions, so the
        same bytes.  The result shares this operator's couplings, grid, note,
        nodes and ``couplings`` setup; only its diagonal is checked, once, by
        the record's construction.
        """
        return DiscreteHamiltonian(self._unchecked_plus(spec), self.offdiagonal, self.grid,
                                   self.bc_note, self.nodes, self.couplings)


@dataclass(frozen=True)
class Spectrum:
    """Low-lying eigenvalues with per-state diagnostics.

    ``node_counts[k]`` is level k's Sturm index within its block (the rows
    between exact-zero couplings), by the oscillation theorem its vector's
    sign changes: exactly k on a connected interval, and node counts are per
    block on an operator that an interior pinned zero decouples.
    """

    energies: np.ndarray
    node_counts: np.ndarray
    bracket_widths: np.ndarray

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


@np.errstate(over="ignore", invalid="ignore")
def _kinetic_part(spec: PotentialSpec, grid: Grid) -> DiscreteHamiltonian:
    # discretize(spec, grid) without V: the operator of the kinetic diagonal,
    # the couplings (an exact 0 across a dropped node), bc_note and active
    # nodes.  It depends on spec only through its family and pinned zeros,
    # never through V, so one serves every potential of the family on grid.
    if isinstance(spec, InverseSquare) and grid.x_min < 0.0:
        raise ValueError("inverse-square problems are posed on y > 0, but the grid starts at "
                         f"x_min = {grid.x_min!r}")
    nodes = grid.nodes
    n = nodes.shape[0]
    scale = max(abs(grid.x_min), abs(grid.x_max), 1.0)
    atol = _ALIGN_RTOL * scale
    notes = []

    drop = np.zeros(n, dtype=bool)
    for p in spec.pinned_zeros:
        if not (grid.x_min + atol < p < grid.x_max - atol):
            continue
        idx = int(np.argmin(np.abs(nodes - p)))
        if abs(nodes[idx] - p) > atol:
            raise GridAlignmentError(
                f"interior pinned zero at x = {p!r} is not on a grid node "
                f"(nearest node {float(nodes[idx])!r})"
            )
        drop[idx] = True
        notes.append(f"interior Dirichlet zero at x = {p!r} decouples the operator: "
                     "node counts are per block")

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
    for p in spec.pinned_zeros:
        if np.any(act_nodes == p):
            raise SingularPointError(p, f"grid node touches the singular point x = {p!r}")

    h = grid.spacing
    try:
        h2 = h**2
    except OverflowError:  # a float power that overflows raises instead of giving inf
        h2 = math.inf
    if h2 == math.inf:
        raise ValueError(f"grid spacing h = {h!r} is too coarse: h^2 overflows")
    if h2 == 0.0:
        raise ValueError(f"grid spacing h = {h!r} is too fine: h^2 underflows to 0")
    if grid.kind == "uniform":
        kin_diag = np.full(n, 1.0 / h2)
        kin_off = np.full(n - 1, -0.5 / h2)
        if grid.left_bc == "neumann":
            # mirror row symmetrized by a positive diagonal similarity
            kin_off[0] = -1.0 / (math.sqrt(2.0) * h2)
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
        kin_diag = 0.5 * (w_left + w_right) / h2 - 0.375 * np.exp(-2.0 * s)
        kin_off = -0.5 * w_right[:-1] / h2
        notes.append(
            "logarithmic grid x = e^s with u = e^(s/2) psi; operator "
            "-(1/2)(e^(-2s) u')' - (3/8) e^(-2s) u + V(e^s) u, Dirichlet in u at both walls"
        )

    if isinstance(spec, InverseSquare):
        notes.append("inverse-square scaled form: V = -alpha/(2 y^2), eigenvalues are -xi/2")

    adjacent = keep[1:] == keep[:-1] + 1
    off = np.where(adjacent, kin_off[keep[:-1]], 0.0)
    return DiscreteHamiltonian(kin_diag[keep], off, grid, "; ".join(notes), act_nodes)


def discretize(spec: PotentialSpec, grid: Grid) -> DiscreteHamiltonian:
    """Assemble the symmetric tridiagonal operator for ``spec`` on ``grid``.

    Dirichlet values are imposed at the walls and at any interior pinned zero
    of the potential (which must then sit on a grid node).  A point dipole on
    a grid spanning the origin is assembled on the x < 0 subgrid only, since
    its states vanish identically on the repulsive side.

    The operator is ``_kinetic_part(spec, grid).plus(spec)``: the private
    ``_kinetic_part`` builds the operator of ``spec``'s family at V = 0
    (kinetic diagonal, couplings, ``bc_note`` and active nodes), and
    :meth:`DiscreteHamiltonian.plus` adds ``eval_potential_grid`` on those
    nodes to the diagonal.  A caller that needs many potentials of one
    family on one grid builds the kinetic operator once and adds each
    potential to it: ``cutoff_sweep``'s caps call ``plus``, and the
    predicates of ``critical.physical_dipole_scan``, which read each
    diagonal once, call ``diagonal_plus``.  Both make the same float
    additions, so the same bytes, and share the kinetic operator's checked
    couplings and their Sturm setup.  Entries that overflow (a log grid
    reaching far below x = 1e-150, say) are refused as a ValueError, not
    left to warn on the way.

    Raises
    ------
    SingularPointError
        if an active grid node sits exactly on a pinned zero.
    GridAlignmentError
        if an interior pinned zero falls between grid nodes.
    ValueError
        if the grid spacing h has h^2 == 0 or an h^2 that overflows, or
        ``DiscreteHamiltonian`` refuses the entries (not finite, or a
        coupling without a finite square).
    """
    return _kinetic_part(spec, grid).plus(spec)


def check_resolution(spec: PotentialSpec, grid: Grid) -> None:
    """Refuse a capped family whose cap a uniform grid does not resolve.

    Raises :class:`ResolutionError` when ``spec.cap`` is below twice the
    spacing of a uniform ``grid``: the plateau inside the cap then spans less
    than a few nodes, and the discrete levels lie far below the continuum
    ones (at h = 5 epsilon the two-centre ground level of Q = 2, d = 0.5 is
    41 % too deep).  Uncapped families and logarithmic grids pass unchecked.
    """
    if spec.cap is not None and grid.kind == "uniform" and spec.cap < 2.0 * grid.spacing:
        raise ResolutionError(spec.cap, grid.spacing)


def lowest_eigenvalues(
    H: DiscreteHamiltonian,
    k: int,
    tol: float = 1e-10,
    guesses=None,
) -> Spectrum:
    """The k smallest eigenvalues of H with node counts and bracket widths.

    Each eigenvalue is bisected until its Sturm bracket is narrower than
    ``tol`` (or no float lies strictly between its ends); the Sturm count
    guarantees the index of every returned bracket.  ``guesses`` (one per
    level) only save Sturm passes: the returned values do not depend on them
    (see :func:`~dipole1d.tridiag.eigvalsh_bisect`).  A caller with sharper
    seeds computes them itself and passes them as guesses: the rungs of
    :func:`hydrogen_spectrum` from one-solve Rayleigh quotients, and the caps
    of :func:`cutoff_sweep` from the scipy-free Rayleigh quotients of
    ``tridiag._wall_level``.

    The node counts solve no vector and load no scipy: each is the level's
    Sturm index within its block (``tridiag._block_indices``), k itself on a
    single-block operator.  H's construction checked its entries, so the
    bisection reads H's views (``tridiag._Tridiagonal``) without checking
    them again; they are built once per operator.
    """
    values, widths = eigvalsh_bisect(H, None, k, tol=tol, guesses=guesses)
    return Spectrum(energies=values, node_counts=_block_indices(H, values, widths),
                    bracket_widths=widths)


def richardson_step(coarse, fine):
    """One Richardson combination of two resolutions, the spacing halved.

    Returns (extrapolated, error_estimate) for an error that shrinks by
    2^2 = 4 per halving; the estimate is the standard |fine - coarse| / 3.
    """
    coarse = np.asarray(coarse, dtype=float)
    fine = np.asarray(fine, dtype=float)
    return fine + (fine - coarse) / 3.0, np.abs(fine - coarse) / 3.0


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


# The largest first-order inner-wall shift of the ground level, relative,
# that hydrogen_spectrum accepts; the default grid's is 4e-5.
_WALL_SHIFT_MAX = 1e-3


def hydrogen_grid(lam: float = 1.0) -> Grid:
    """``DEFAULT_HYDROGEN_GRID`` read in units of the Bohr radius 1/lam.

    x -> x / lam maps the Coulomb problem exactly onto lam = 1 with energies
    times lam^2, so this grid resolves every lam as the default grid resolves
    lam = 1; at lam = 1 it is the default grid.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be finite and > 0")
    g = DEFAULT_HYDROGEN_GRID
    return replace(g, x_min=g.x_min / lam, x_max=g.x_max / lam)


def hydrogen_spectrum(
    lam: float = 1.0,
    n_states: int = 3,
    refine_levels: int = 2,
    grid: Grid | None = None,
) -> HydrogenResult:
    """Solve the half-line Coulomb problem and compare against the Balmer form.

    The problem is solved on ``grid`` (default :func:`hydrogen_grid` of
    ``lam``) and on ``refine_levels`` exact spacing halvings; per-state
    Richardson error estimates must shrink from level to level (while they
    sit above the eigenvalue-bisection noise floor) or a
    :class:`ConvergenceError` carrying the estimates is raised.  The
    returned ``spectrum`` is that of the finest grid, the one the CLI
    prints, with node counts from the oscillation theorem, not from vectors.
    Each rung is seeded with the Rayleigh quotients
    (``tridiag._rayleigh_seeds``) of its guesses: the Balmer levels, then
    the wall-shifted Balmer level W plus a quarter of the first rung's
    distance from it, then the h^2 prediction E_i-1 + (E_i-1 - E_i-2) / 4.
    The levels do not depend on the seeds.

    The Dirichlet wall at ``grid.x_min`` > 0 raises the ground level by about
    (1/2) psi_1'(0)^2 x_min = 2 lam^3 x_min hartree to first order, i.e.
    4 lam x_min relative to |E_1| = lam^2 / 2.  The Richardson estimates see
    only the spacing, not this shift, so a grid on which it exceeds 1e-3
    relative is refused with ValueError before any solve.  So is a grid with
    x_min < 0, which the pinned zero at the origin would split into two mirror
    half-lines, each with its own Balmer series.  So is a grid whose
    outer wall cuts into the highest level n = ``n_states``: it needs
    lam x_max >= 2 n^2 + 6 n, the classical turning point 2 n^2 / lam plus six
    decay lengths n / lam, which keeps that level's wall error below 1e-3
    relative.  The default x_max = 200 / lam allows up to 8 states.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be finite and > 0")
    if not math.isfinite(float(lam) * float(lam)):
        # the Balmer levels -lam^2 / (2 n^2) would overflow
        raise ValueError(f"lam^2 must be finite, got lam = {float(lam)!r}")
    if n_states < 1:
        raise ValueError("n_states must be >= 1")
    if refine_levels < 1:
        raise ValueError("refine_levels must be >= 1")
    if grid is None:
        grid = hydrogen_grid(lam)
    if grid.x_min < 0.0:
        raise ValueError(f"x_min = {grid.x_min!r} < 0: the pinned zero at the origin "
                         "would split the grid into two mirror half-lines")
    wall_shift = 4.0 * lam * grid.x_min
    if not wall_shift <= _WALL_SHIFT_MAX:
        raise ValueError(
            f"the inner wall at x_min = {grid.x_min!r} shifts the ground level by "
            f"{wall_shift:.3g} relative (4 lam x_min), above {_WALL_SHIFT_MAX:g}; "
            f"put x_min well below the Bohr radius 1/lam = {1.0 / lam!r}"
        )
    # an exact int on the right: a float 2n^2 would overflow for huge n_states
    reach = 2 * n_states**2 + 6 * n_states
    if not lam * grid.x_max >= reach:
        raise ValueError(
            f"the outer wall at x_max = {grid.x_max!r} cuts into level {n_states}: "
            f"lam x_max must be >= 2n^2 + 6n = {reach} (the turning point 2n^2/lam "
            f"plus six decay lengths n/lam)"
        )

    grids = [grid]
    for _ in range(refine_levels):
        grids.append(grids[-1].refined())
    n_idx = np.arange(1, n_states + 1, dtype=float)
    balmer = -(lam**2) / (2.0 * n_idx**2)

    # The wall raises level n by 4 lam x_min / n relative, to first order
    # (ROADMAP item 1's regular wall removes this term)
    wall = balmer * (1.0 - wall_shift / n_idx)
    E = np.empty((len(grids), n_states))
    for i, g in enumerate(grids):
        if i == 0:
            guesses = balmer
        elif i == 1:
            guesses = wall + (E[0] - wall) / 4.0
        else:
            guesses = E[i - 1] + (E[i - 1] - E[i - 2]) / 4.0
        H = discretize(Coulomb(lam), g)
        spectrum = lowest_eigenvalues(H, n_states, tol=_HYDROGEN_TOL,
                                      guesses=_rayleigh_seeds(H, guesses, _HYDROGEN_TOL))
        E[i] = spectrum.energies

    extrapolated, estimates = richardson_step(E[:-1], E[1:])
    noise_floor = 10.0 * _HYDROGEN_TOL
    for s in range(n_states):
        seq = estimates[:, s]
        for a, b in zip(seq[:-1], seq[1:]):
            if a > noise_floor and b > noise_floor and not b < a:
                raise ConvergenceError(
                    f"Richardson estimates for state {s + 1} do not shrink under refinement",
                    diagnostics=estimates,
                )

    rel = np.abs(E[-1] - balmer) / np.abs(balmer)

    return HydrogenResult(
        lam=lam,
        spectrum=spectrum,
        grid_sizes=tuple(g.n for g in grids),
        energies_by_level=E,
        balmer=balmer,
        relative_errors=rel,
        extrapolated=extrapolated[-1],
        estimates_by_level=estimates,
    )


@dataclass(frozen=True)
class CutoffSweepResult:
    """Ground-state energies of the capped Coulomb well for shrinking caps.

    ``monotone_decreasing`` flags whether E0 fell strictly at every step, the
    numerical signature that the uncapped limit is bottomless in the even
    sector.  ``full_line_check`` holds (epsilon, E0_even, E0_full) for the
    largest cap, verified against the unreduced full-line problem.
    """

    lam: float
    L: float
    n: int
    epsilons: tuple[float, ...]
    energies: tuple[float, ...]
    monotone_decreasing: bool
    full_line_check: tuple[float, float, float]


def cutoff_sweep(
    lam: float = 1.0,
    eps_list: tuple[float, ...] = DEFAULT_CUTOFF_EPS,
    L: float = 60.0,
    n: int | None = None,
) -> CutoffSweepResult:
    """Ground state of the capped Coulomb well for every cap in ``eps_list``.

    Uses the even-parity reduction (Neumann wall at 0, Dirichlet at L), since
    the diverging state is even, and verifies the largest cap against the
    full-line [-L, L] problem, whose even sector it reproduces exactly.
    ValueError for an ``n`` below the grid minimum, and
    :class:`ResolutionError` (:func:`check_resolution`) for a cap below two
    grid steps, both before any solve.

    Each cap's level is bisected without vectors, seeded with the Rayleigh
    quotient iteration of ``tridiag._wall_level`` (the even state peaks at
    the Neumann wall).  From the third cap on, the iteration starts at the
    level that kappa = sqrt(-2E) of the last three caps or fewer predicts,
    extrapolated as a polynomial in ln(epsilon) (5 % off on the third
    perfbench cap, 4e-3 and 3e-3 on the fourth and fifth); when that start
    is missing, lies outside [floor, last level] or gives no guess, it
    starts at the last cap's level, which lies above this one because the
    level only falls as the cap shrinks; for the first cap, or when that too
    gives no guess, at the well floor -lam/epsilon, which lies below the
    level.  A guess may lie above the last cap's level by the bisection
    tolerance, as one of nearly equal caps does.  The seeds only save Sturm
    passes (a cap takes 2 or 3 instead of 52, and the sweeps for the five
    perfbench caps read 12,980 rows): the levels do not depend on them.
    The caps share one kinetic operator: each cap's operator is
    ``kinetic.plus(spec)`` (see :func:`discretize`), so the couplings are
    checked and squared once for all caps.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be finite and > 0")
    if not (math.isfinite(L) and L > 0.0):
        raise ValueError(f"L must be finite and > 0, got {L!r}")
    eps = tuple(float(e) for e in eps_list)
    if len(eps) == 0:
        raise ValueError("eps_list must not be empty")
    if any(not (math.isfinite(e) and e > 0.0) for e in eps):
        raise ValueError("every epsilon must be finite and > 0")
    if any(b >= a for a, b in zip(eps[:-1], eps[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if n is None:
        nodes = 4.0 * L / min(eps)
        if not math.isfinite(nodes):
            raise ValueError(f"the default node count 4 L / min(eps) overflows for L = {L!r}")
        n = int(math.ceil(nodes))
    grid = Grid("uniform", 0.0, L, n, left_bc="neumann")
    specs = [RegularizedCoulomb(lam, e) for e in eps]
    for spec in specs:
        check_resolution(spec, grid)

    kinetic = _kinetic_part(specs[0], grid)
    energies = []
    above = math.inf  # the last cap's level, above this cap's
    for i, spec in enumerate(specs):
        H = kinetic.plus(spec)
        floor = -lam / spec.epsilon  # the well floor, below the level
        g = None
        for x in (_extrapolated_level(eps[:i], energies, eps[i]), above, floor):
            if g is None and math.isfinite(x) and floor <= x <= above:
                # a guess may round above the last level, or a nearly equal cap's
                g = _wall_level(H, x, floor, above + _CUTOFF_TOL)
        sp = lowest_eigenvalues(H, 1, tol=_CUTOFF_TOL, guesses=None if g is None else [g])
        above = float(sp.energies[0])
        energies.append(above)

    monotone = all(b < a for a, b in zip(energies[:-1], energies[1:]))

    # Full line with matched spacing: nodes at +-i*h, wall at +-L, so the
    # even sector of this operator is exactly the reduced one above.
    grid_full = Grid("uniform", -L, L, 2 * n - 1)
    H_full = discretize(specs[0], grid_full)
    # the same even-sector level, up to the round-off parity gap
    sp_full = lowest_eigenvalues(H_full, 1, tol=_CUTOFF_TOL, guesses=[energies[0]])
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


def _extrapolated_level(eps, energies, epsilon) -> float:
    # The level at cap epsilon that kappa = sqrt(-2E) of the last three caps
    # solved (eps, energies) gives, as the polynomial in ln(epsilon) through
    # them; nan with fewer than two caps, a level that is not negative or
    # two caps of one ln(epsilon)
    pts = [(math.log(e), E) for e, E in zip(eps[-3:], energies[-3:])]
    if len(pts) < 2 or any(E >= 0.0 for _, E in pts) or len({u for u, _ in pts}) < len(pts):
        return math.nan
    t = math.log(epsilon)
    kappa = 0.0
    for u, E in pts:
        k = math.sqrt(-2.0 * E)
        for v, _ in pts:
            if v != u:
                k *= (t - v) / (u - v)
        kappa += k
    return -0.5 * kappa * kappa


def _log_span(delta: float, L: float) -> float:
    # ln(L/delta) of the window (delta, L), refused unless 0 < delta < L and
    # both L and the span are finite
    if not (0.0 < delta < L) or not math.isfinite(L):
        raise ValueError("need 0 < delta < L, both finite")
    span = math.log(L / delta)
    if not math.isfinite(span):
        raise ValueError(f"log(L/delta) is not finite for delta = {delta!r}, L = {L!r}")
    return span


def zero_energy_node_count(alpha: float, delta: float, L: float) -> int:
    """Interior nodes on (delta, L) of the zero-energy solution with
    psi(delta) = 0, psi'(delta) = 1.

    For alpha > 1/4 that solution is sqrt(y delta) sin(nu ln(y/delta)) / nu,
    nu = sqrt(alpha - 1/4), with zeros at ln(y/delta) = k pi / nu; the k with
    0 < k pi / nu < ln(L/delta) number ceil(nu ln(L/delta) / pi) - 1.  For
    alpha <= 1/4 it is sqrt(y delta) times ln(y/delta) or a sinh: no zero.
    The count depends on the window only through L/delta, and in float it
    never decreases as alpha grows, which ``find_alpha_crit`` rests on.
    """
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    span = _log_span(delta, L)
    if alpha <= 0.25:
        return 0
    return math.ceil(math.sqrt(alpha - 0.25) * span / math.pi) - 1


def window_bias(delta: float, L: float) -> float:
    """Detected threshold on a finite window: 1/4 + (pi / ln(L/delta))^2."""
    return 0.25 + (math.pi / _log_span(delta, L)) ** 2


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
    tol_alpha: float = DEFAULT_TOL_ALPHA,
) -> AlphaCritEstimate:
    """Bisect the coupling for the onset of zero-energy oscillation.

    The predicate is ``zero_energy_node_count >= 1``, bisected over alpha in
    [0, 2].  At alpha = 0 the coefficient 1/4 - alpha is positive, so there
    are no nodes there.  The bracket narrows to a half-width of ``tol_alpha``
    or, for a ``tol_alpha`` below the float spacing, to two adjacent floats;
    ``half_width`` reports which.  Raises :class:`BracketError` when the
    window is too short to oscillate even at alpha = 2.

    The bisection is seeded with the predicate's own switch: the count
    reaches 1 where sqrt(alpha - 1/4) ln(L/delta) / pi passes 1, that is at
    ``window_bias(delta, L)`` up to rounding.  The predicate is evaluated at
    alpha = 2 and at the two ends of the final bisection cell that holds the
    guess, and every other midpoint follows from those two by monotonicity.
    So a window costs 3 predicate calls instead of about 31 at
    ``tol_alpha = 1e-9``, and the result is the plain bisection's to the bit
    (see ``tridiag._narrow_bracket``).
    """
    bias = window_bias(delta, L)  # refuses a window without a finite ln(L/delta)
    if not (math.isfinite(tol_alpha) and tol_alpha > 0.0):
        raise ValueError(f"tol_alpha must be finite and > 0, got {tol_alpha!r}")

    def oscillates(a: float) -> bool:
        return zero_energy_node_count(a, delta, L) >= 1

    if not oscillates(_ALPHA_MAX):
        raise BracketError(
            f"oscillation predicate does not change over alpha in [0.0, {_ALPHA_MAX!r}]"
        )
    lo, hi = _narrow_bracket(oscillates, 0.0, _ALPHA_MAX, 2.0 * tol_alpha, bias)
    return AlphaCritEstimate(
        value=0.5 * (lo + hi),
        half_width=0.5 * (hi - lo),
        delta=delta,
        L=L,
        predicted_threshold=bias,
    )
