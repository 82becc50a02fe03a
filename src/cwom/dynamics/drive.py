"""Drive specification: light injected through the waveguide entrance."""

from dataclasses import dataclass


@dataclass(frozen=True)
class EndfireDrive:
    """Light injected at the waveguide entrance as right-going waves.

    Parameters
    ----------
    alpha_in : complex cw amplitude (s^(-1/2); photon flux |alpha_in|^2).
    omega_L : carrier frequency (rad/s) in the lab frame. ``None`` means
        resonant with the frame the driven field evolves in (zero envelope
        detuning), the common case; give it explicitly for detuned drives.
    k_L : carrier wavenumber (rad/m); 0, the default, is the lab carrier,
        which every solver deposits in. The injected wave picks up its
        wavenumber from the dispersion resonance; k_L fixes where the
        local velocity is validated and where the kernel is normalized.
    inlet_cell : grid cell receiving the source deposit.
    """

    alpha_in: complex
    omega_L: float = None
    k_L: float = 0.0
    inlet_cell: int = 4

    def detuning(self, frame_omega: float) -> float:
        """Envelope rotation rate of the drive in the given frame."""
        if self.omega_L is None:
            return 0.0
        return self.omega_L - frame_omega
