"""Shared numerical substrate: grids, fields, couplings, spectral calculus."""

from .couplings import CouplingSet
from .dispersion import DispersionSpec
from .fields import FieldState
from .grid import Grid1D
from .interaction import (interaction_rhs, phonon_channel, photon_channel,
                          total_energy)
from .spectral import (apply_phase, dispersion_phase, mode_amplitudes,
                       spectral_derivative)

__all__ = [
    "CouplingSet", "DispersionSpec", "FieldState", "Grid1D",
    "interaction_rhs", "phonon_channel", "photon_channel", "total_energy",
    "apply_phase", "dispersion_phase", "mode_amplitudes",
    "spectral_derivative",
]
