"""Bound states of singular one-dimensional potentials.

A library and CLI that establishes, numerically and semi-analytically, the
existence and value of the critical electric dipole moment in one dimension:

* the half-line Coulomb problem with a vanish-at-origin condition reproduces
  the Balmer levels -1/(2 n^2) hartree, with a finite ground state;
* capping the Coulomb singularity instead produces an even ground state that
  deepens without bound as the cap shrinks;
* the point-dipole problem reduces to an inverse-square well whose binding
  threshold sits exactly at coupling alpha = 1/4, located here through the
  zero-energy oscillation criterion;
* that threshold converts to the critical moment p = 0.125 q*a_B, about
  1.06e-30 C*m, a factor 16 below the ionization-distance estimate.
"""

from .units import (
    ATOMIC_UNITS,
    CODATA,
    ConstantSet,
    alpha_from_p,
    atomic_to_si,
    bohr_radius,
    hartree_energy,
    si_to_atomic,
)
from .potentials import (
    Coulomb,
    InverseSquare,
    PhysicalDipole,
    PointDipole,
    PotentialSpec,
    RegularizedCoulomb,
    SingularPointError,
    eval_potential_grid,
    spec_from_record,
    spec_to_record,
)
from .frobenius import (
    DegenerateRecursionError,
    IndicialPair,
    SeriesSolution,
    SeriesTruncationError,
    eval_series,
    indicial_roots,
    ode_residual,
    series_coefficients,
)
from .eigensolver import (
    AlphaCritEstimate,
    BracketError,
    ConvergenceError,
    CutoffSweepResult,
    DiscreteHamiltonian,
    Grid,
    GridAlignmentError,
    HydrogenResult,
    ResolutionError,
    Spectrum,
    cutoff_sweep,
    discretize,
    find_alpha_crit,
    hydrogen_spectrum,
    lowest_eigenvalues,
    zero_energy_node_count,
)
from .critical import (
    CriticalReport,
    DipoleScanResult,
    ExtrapolationError,
    NumericCriticalMoment,
    critical_report,
    estimate_to_exact_ratio,
    ionization_distance,
    p_crit_estimate,
    p_crit_exact,
    p_crit_numeric,
    physical_dipole_scan,
)

__version__ = "0.1.0"
