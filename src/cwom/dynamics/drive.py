"""Drive specification: light injected through the waveguide entrance."""

from dataclasses import dataclass
from typing import Callable, Union


@dataclass(frozen=True)
class EndfireDrive:
    """Light injected at the waveguide entrance as right-going waves.

    Parameters
    ----------
    alpha_in : complex cw amplitude (s^(-1/2); photon flux |alpha_in|^2),
        or a callable t -> complex for shaped envelopes.
    omega_L : carrier frequency (rad/s) in the lab frame. ``None`` means
        resonant with the frame the driven field evolves in (zero envelope
        detuning), the common case; give it explicitly for detuned drives.
    k_L : carrier wavenumber (rad/m) in the lab frame. ``None`` means the
        frame's carrier. The injected wave picks up its wavenumber from
        the dispersion resonance; k_L fixes where the local velocity is
        validated.
    inlet_cell : grid cell receiving the source deposit.
    """

    alpha_in: Union[complex, Callable[[float], complex]]
    omega_L: float = None
    k_L: float = None
    inlet_cell: int = 4

    def amplitude(self, t: float) -> complex:
        if callable(self.alpha_in):
            return complex(self.alpha_in(t))
        return complex(self.alpha_in)

    def detuning(self, frame_omega: float) -> float:
        """Envelope rotation rate of the drive in the given frame."""
        if self.omega_L is None:
            return 0.0
        return self.omega_L - frame_omega

    def carrier_in_frame(self, frame_k: float) -> float:
        if self.k_L is None:
            return 0.0
        return self.k_L - frame_k
