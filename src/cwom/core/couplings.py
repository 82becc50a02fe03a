"""The six real-space photon-phonon coupling constants and their parity rules.

Naming: a three-letter suffix records the sign signature under x -> -x of
the (photon-dagger, photon, displacement) factors entering the interaction
density. "p" marks a bare field (even), "m" marks a spatial derivative
(odd). The even sector collects terms with an even total derivative count
in the displacement channel; the odd sector the rest. Both sectors cannot
coexist unless inversion symmetry is explicitly broken.

Term dictionary (interaction Hamiltonian is -hbar * integral dx of the sum):

==========  =======================================  ==============
constant    density                                  units
==========  =======================================  ==============
g_ppp       a+ a u                                   Hz m^(1/2)
g_mmp       (dx a+)(dx a) u                          Hz m^(5/2)
g_mpm       (dx a+) a (dx u) + h.c.                  Hz m^(5/2)
g_ppm       a+ a (dx u)                              Hz m^(3/2)
g_mpp       (dx a+) a u + h.c.                       Hz m^(3/2)
g_mmm       (dx a+)(dx a)(dx u)                      Hz m^(7/2)
==========  =======================================  ==============

g_mpm and g_mpp carry an explicit h.c. partner and may be complex; the
other four multiply self-adjoint densities and must be real.
"""

from dataclasses import dataclass, field

EVEN_NAMES = ("g_ppp", "g_mmp", "g_mpm")
ODD_NAMES = ("g_ppm", "g_mpp", "g_mmm")
REAL_NAMES = ("g_ppp", "g_mmp", "g_ppm", "g_mmm")
DERIVATIVE_NAMES = ("g_mmp", "g_mpm", "g_ppm", "g_mpp", "g_mmm")
SECTORS = ("even", "odd", "mixed")


@dataclass(frozen=True)
class CouplingSet:
    """Coupling constants with parity-sector bookkeeping.

    ``sector`` is one of "even", "odd", "mixed". A mixed set is only legal
    with ``broken_inversion_symmetry=True``; the sector choice is a
    modelling decision (it tracks which definition of the 1D displacement
    field is in force), so it is explicit config, never inferred.

    ``is_zero`` (no constant is non-zero) and ``is_pointwise`` (no
    derivative constant is non-zero: only g_ppp may act) are settled once
    at construction; the integrators read them on every step.
    """

    g_ppp: float = 0.0
    g_mmp: float = 0.0
    g_mpm: complex = 0.0
    g_ppm: float = 0.0
    g_mpp: complex = 0.0
    g_mmm: float = 0.0
    sector: str = "even"
    broken_inversion_symmetry: bool = False
    is_zero: bool = field(init=False, repr=False, compare=False)
    is_pointwise: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in REAL_NAMES:
            val = getattr(self, name)
            if isinstance(val, complex) and val.imag != 0.0:
                raise ValueError(f"{name} multiplies a self-adjoint density and must be real")
            object.__setattr__(self, name, float(getattr(self, name).real
                                                 if isinstance(val, complex) else val))
        object.__setattr__(self, "g_mpm", complex(self.g_mpm))
        object.__setattr__(self, "g_mpp", complex(self.g_mpp))
        if self.sector == "even":
            if any(getattr(self, n) != 0 for n in ODD_NAMES):
                raise ValueError("even sector requires g_ppm = g_mpp = g_mmm = 0")
        elif self.sector == "odd":
            if any(getattr(self, n) != 0 for n in EVEN_NAMES):
                raise ValueError("odd sector requires g_ppp = g_mmp = g_mpm = 0")
        elif self.sector == "mixed":
            if not self.broken_inversion_symmetry:
                raise ValueError(
                    "mixed sector couplings require broken_inversion_symmetry=True")
        else:
            raise ValueError(f"unknown sector {self.sector!r}")
        object.__setattr__(self, "is_pointwise",
                           all(getattr(self, n) == 0 for n in DERIVATIVE_NAMES))
        object.__setattr__(self, "is_zero", self.is_pointwise and self.g_ppp == 0)

    @staticmethod
    def even(g_ppp: float = 0.0, g_mmp: float = 0.0, g_mpm: complex = 0.0) -> "CouplingSet":
        return CouplingSet(g_ppp=g_ppp, g_mmp=g_mmp, g_mpm=g_mpm, sector="even")

    @staticmethod
    def odd(g_ppm: float = 0.0, g_mpp: complex = 0.0, g_mmm: float = 0.0) -> "CouplingSet":
        return CouplingSet(g_ppm=g_ppm, g_mpp=g_mpp, g_mmm=g_mmm, sector="odd")

    @staticmethod
    def simple(g0: float) -> "CouplingSet":
        """The minimal model: a single even pointwise coupling g0."""
        return CouplingSet.even(g_ppp=g0)

    def magnitude_scale(self, k_max: float) -> float:
        """Crude Hz*m^(1/2)-equivalent magnitude at wavenumber scale k_max.

        Used for integrator stability estimates only.
        """
        k2 = k_max * k_max
        return (abs(self.g_ppp) + abs(self.g_mmp) * k2 + 2 * abs(self.g_mpm) * k2
                + abs(self.g_ppm) * k_max + 2 * abs(self.g_mpp) * k_max
                + abs(self.g_mmm) * k2 * k_max)
