"""cwom: continuum waveguide optomechanics.

Simulates the coupled nonlinear photon-phonon field equations of a 1D
waveguide (all leading-order coupling terms, dissipation, Langevin noise)
and provides the matching closed-form analysis: scattering vertex
amplitudes, Brillouin gain and nonlinear susceptibility, strong-coupling
regime classification, and a discrete-array oracle for the continuum limit.
"""

from .constants import HBAR, K_B
from .core import (CouplingSet, DispersionSpec, FieldState, Grid1D,
                   interaction_rhs, spectral_derivative, total_energy)

__version__ = "0.1.0"
