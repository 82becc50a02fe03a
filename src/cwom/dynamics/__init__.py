"""Time evolution: split-step integrator, boundaries, dissipation, noise."""

from .bath import BathSpec, sample_noise_field
from .boundary import (AbsorberProfile, BoundaryError, DepositPlan,
                       boundary_velocity, make_absorber)
from .drive import EndfireDrive
from .rng import trajectory_generator
from .stepper import (DispersionPair, DivergenceError, Stepper, Trajectory,
                      evolve, evolve_batch, make_energy_observer,
                      observe_phonon_number, observe_photon_number,
                      observe_snapshot, run_ensemble, stability_bound)

__all__ = [
    "BathSpec", "sample_noise_field", "AbsorberProfile", "BoundaryError",
    "DepositPlan", "boundary_velocity", "make_absorber", "EndfireDrive",
    "trajectory_generator", "DispersionPair", "DivergenceError", "Stepper",
    "Trajectory", "evolve", "evolve_batch",
    "make_energy_observer", "observe_phonon_number", "observe_photon_number",
    "observe_snapshot", "run_ensemble", "stability_bound",
]
