"""fluxbound: bound states of massive fermions in point-flux backgrounds.

Spectra, wave functions and continuum spectral densities for the 2+1D Dirac
problem in an idealized flux-tube potential and for the nonrelativistic
neutral-fermion (anomalous-moment) problem in a charged-thread field, over the
full one-parameter family of self-adjoint extensions, cross-validated by an
independent ODE eigensolver.
"""

from .ab_spectrum import (
    BoundLevel,
    DiracChannel,
    Extension,
    RadialDoublet,
    Regime,
    RegimeError,
    bound_doublet,
    continuum_doublet,
    flux_decompose,
    master_xi_of_energy,
    solve_bound_energy,
)
from .ac_spectrum import (
    ACChannel,
    ACLevel,
    ACRegime,
    ac_bound_energy,
    ac_special_levels,
    ac_wavefunction,
    ac_wronskian,
)
from .numkernel import (
    bessel_j,
    bessel_j_pair,
    bessel_k,
    gamma_fn,
)
from .oracle import (
    OracleResult,
    ShootingConfig,
    dirac_shoot,
    schrodinger_shoot,
)
from .printed import (
    paper_level_lhs,
    paper_omega,
    paper_omega_xi,
    printed_level,
    spectral_density,
)

__version__ = "0.1.0"
