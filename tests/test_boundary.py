"""End-fire injection and absorbing-layer behavior."""

import numpy as np
import pytest

from cwom import CouplingSet, DispersionSpec, FieldState, Grid1D
from cwom.dynamics import (AbsorberProfile, BathSpec, BoundaryError, DepositPlan,
                           DispersionPair, EndfireDrive, Stepper,
                           boundary_velocity, make_absorber, run_ensemble,
                           stability_bound)
from cwom.experiments import DT_MARGIN

C = 2.0
# the steps a deposit and the absorber are checked at: DT_MARGIN times the
# band bound 0.5 / max|omega| (nu = 0.143), DT_MARGIN times the noiseless
# open run's transport bound (nu = 0.9), or next to the edge nu = 1 up to
# which a deposit is exact (nu = 0.99)
BOUNDS = ("band", "transport", "edge")


def margin_dt(bound, grid, disp, absorber):
    if bound == "band":
        return DT_MARGIN * 0.5 / (C * np.pi / grid.dx)
    if bound == "edge":
        return 0.99 * grid.dx / C
    return DT_MARGIN * stability_bound(FieldState.vacuum(grid), CouplingSet(),
                                       disp, BathSpec(), absorber=absorber)


def transport_setup(n=256, dx=1.0, opacity=10.0, bound="band"):
    grid = Grid1D(n, dx)
    disp = DispersionPair(DispersionSpec.linear(C), DispersionSpec.flat(0.0))
    absorber = make_absorber(grid, speed=C, width_fraction=0.1, opacity=opacity)
    return grid, disp, margin_dt(bound, grid, disp, absorber), absorber


class TestBoundaryVelocity:
    def test_linear_branch_accepted(self, grid64):
        v = boundary_velocity(DispersionSpec.linear(3.0), grid64, 0.0)
        assert np.isclose(v, 3.0)

    def test_two_sided_branch_with_offset_carrier(self):
        grid = Grid1D(128, 0.5)
        disp = DispersionSpec.two_sided(4.0, grid)
        k_carrier = 0.5 * np.pi / grid.dx  # safely inside the k > 0 half-band
        assert np.isclose(boundary_velocity(disp, grid, k_carrier), 4.0, rtol=1e-6)

    def test_curved_branch_rejected(self, grid64):
        disp = DispersionSpec.polynomial([0.0, 1.0, 0.5])
        with pytest.raises(BoundaryError):
            boundary_velocity(disp, grid64, 0.0)

    def test_zero_velocity_rejected(self, grid64):
        with pytest.raises(BoundaryError):
            boundary_velocity(DispersionSpec.flat(1.0), grid64, 0.0)


class TestInjection:
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_cw_drive_launches_stated_flux(self, bound):
        # Launched photon flux must equal |alpha_in|^2 (power hbar w |a|^2).
        grid, disp, dt, absorber = transport_setup(bound=bound)
        alpha = 3.0 + 0.0j
        drive = EndfireDrive(alpha_in=alpha, inlet_cell=4)
        st = FieldState.vacuum(grid)
        stepper = Stepper(grid, CouplingSet(), disp, BathSpec(), drive, absorber, dt)
        n_steps = int(3 * grid.length / (C * dt))
        for _ in range(n_steps):
            stepper.step_inplace(st)
        flux = C * np.abs(st.a[40:200]) ** 2
        assert abs(flux.mean() - abs(alpha) ** 2) < 1e-3 * abs(alpha) ** 2

    def test_transport_decay_profile(self):
        # closed-form oracle: with g = 0 and uniform kappa the driven cw
        # envelope decays along the guide as |alpha|^2 ~ exp(-(kappa/v) x)
        grid = Grid1D(256, 1.0)
        v, kappa = 2.0, 0.03
        disp = DispersionPair(DispersionSpec.linear(v), DispersionSpec.flat(1.0))
        bath = BathSpec(kappa=kappa, gamma_mech=1.0)
        drive = EndfireDrive(alpha_in=1.0, inlet_cell=4)
        absorber = make_absorber(grid, speed=v, width_fraction=0.1)
        dt = 0.9 * 0.5 / (v * np.pi / grid.dx)
        stepper = Stepper(grid, CouplingSet.simple(0.0), disp, bath, drive,
                          absorber, dt)
        n_steps = round(3 * grid.length / (v * dt))  # three transits
        st = stepper.run(FieldState.vacuum(grid), n_steps).final_state
        cells = np.arange(30, 190)
        lnp = np.log(np.abs(st.a[cells]) ** 2)
        slope = np.polyfit(cells * grid.dx, lnp, 1)[0]
        assert abs(slope + kappa / v) < 0.01 * (kappa / v)

    def test_vacuum_correlator_half_per_mover(self):
        # Vacuum-only injection: equal-time diagonal 1/(2 dx) downstream.
        grid, disp, dt, absorber = transport_setup(n=128)
        drive = EndfireDrive(alpha_in=0.0, inlet_cell=4)
        bath = BathSpec(sampling="wigner")
        n_traj = 48
        n_steps = int(1.5 * grid.length / (C * dt))
        cells = slice(20, 100)

        def one(rng, index):
            stepper = Stepper(grid, CouplingSet(), disp, bath, drive, absorber, dt)
            st = stepper.run(FieldState.vacuum(grid), n_steps, rng=rng).final_state
            return np.abs(st.a[cells]) ** 2

        samples = np.concatenate(run_ensemble(one, n_traj, base_seed=99))
        target = 1.0 / (2.0 * grid.dx)
        sigma = target / np.sqrt(samples.size)
        assert abs(samples.mean() - target) < 3.0 * sigma

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_left_moving_pulse_exits_without_reflection(self, bound):
        # Left-movers pass the additive source and leave through the seam
        # into the absorber; energy bookkeeping bounds the reflection.
        grid = Grid1D(512, 1.0)
        disp = DispersionPair(DispersionSpec.two_sided(C, grid),
                              DispersionSpec.flat(0.0))
        absorber = make_absorber(grid, speed=C, width_fraction=0.1, opacity=10.0)
        dt = margin_dt(bound, grid, disp, absorber)
        x = grid.x_axis
        k0 = 2 * np.pi / (10 * grid.dx)
        pulse = np.exp(-((x - 0.5 * grid.length) ** 2) / (2 * (25 * grid.dx) ** 2))
        st = FieldState(grid, pulse * np.exp(-1j * k0 * x), np.zeros(grid.n_points))
        incident = st.photon_number()
        stepper = Stepper(grid, CouplingSet(), disp, BathSpec(), None, absorber, dt)
        n_steps = int(0.75 * grid.length / (C * dt))
        for _ in range(n_steps):
            stepper.step_inplace(st)
        interior = slice(0, int(0.88 * grid.n_points))
        remaining = np.sum(np.abs(st.a[interior]) ** 2) * grid.dx
        assert remaining < 1e-4 * incident

    def test_deposit_plan_standalone(self, grid64):
        st = FieldState.vacuum(grid64)
        drive = EndfireDrive(alpha_in=1.0, inlet_cell=4)
        DepositPlan(grid64, DispersionSpec.linear(C), drive, 0.0,
                    1e-3).apply(st.a, st.time)
        assert st.photon_number() > 0

    @pytest.mark.parametrize("alpha_in, omega_L", [
        (0.7 + 0.3j, None), (-1.3e-3 + 2.1j, None), (0.0, None),
        (0.6 - 0.2j, 0.9)])
    def test_deposits_match_the_per_step_expression(self, grid64, alpha_in,
                                                    omega_L):
        # undetuned drives settle their source once; detuned ones evaluate
        # it per step: both are the bytes of the plain expression
        drive = EndfireDrive(alpha_in=alpha_in, omega_L=omega_L, inlet_cell=5)
        frame_omega = 0.2
        plan = DepositPlan(grid64, DispersionSpec.linear(C), drive, frame_omega,
                           1e-3)
        a = np.zeros(grid64.n_points, dtype=np.complex128)
        want = a.copy()
        cells = 5 + np.arange(-2, 3)
        for t in (0.0, 0.37, 1.9):
            plan.apply(a, t)
            s = complex(alpha_in)
            if omega_L is not None:
                s = s * np.exp(-1j * (omega_L - frame_omega) * t)
            if s != 0.0:
                want[cells] += plan.scale * s * plan.kernel
            assert a.tobytes() == want.tobytes()
        assert np.any(a != 0.0) == (alpha_in != 0.0)

    def test_inlet_too_close_to_edge_rejected(self, grid64):
        st = FieldState.vacuum(grid64)
        drive = EndfireDrive(alpha_in=1.0, inlet_cell=0)
        with pytest.raises(BoundaryError):
            DepositPlan(grid64, DispersionSpec.linear(C), drive, 0.0,
                        1e-3).apply(st.a, st.time)

    @pytest.mark.parametrize("k_dx", [np.pi / 3 + 1e-3, 2 * np.pi / 3, 2.5, np.pi,
                                      -2.5])
    def test_carrier_whose_kernel_response_is_below_half_rejected(self, k_dx):
        # the 5-cell Hann window's response is (1 + cos k dx)(1/2 + cos k dx)
        # in magnitude: 0 at 2 pi / 3 and pi, half its k = 0 value at pi / 3
        grid = Grid1D(64, 0.5)
        drive = EndfireDrive(alpha_in=1.0, k_L=k_dx / grid.dx, inlet_cell=8)
        with pytest.raises(BoundaryError, match="below 1/2"):
            DepositPlan(grid, DispersionSpec.linear(C), drive, 0.0, 1e-3)

    @pytest.mark.parametrize("k_dx", [0.0, 1.0, -1.0, np.pi / 3 - 1e-3])
    def test_carrier_kernel_has_unit_response(self, k_dx):
        grid = Grid1D(64, 0.5)
        drive = EndfireDrive(alpha_in=1.0, k_L=k_dx / grid.dx, inlet_cell=8)
        plan = DepositPlan(grid, DispersionSpec.linear(C), drive, 0.0, 1e-3)
        cells = np.arange(64)[plan.kernel_cells]
        response = np.sum(plan.kernel * np.exp(-1j * drive.k_L * cells * grid.dx))
        assert abs(response - 1.0) < 1e-12

    def test_curved_dispersion_rejected_with_diagnostic(self, grid64):
        st = FieldState.vacuum(grid64)
        drive = EndfireDrive(alpha_in=1.0, inlet_cell=4)
        with pytest.raises(BoundaryError, match="non-constant dispersion"):
            DepositPlan(grid64, DispersionSpec.polynomial([0, 1.0, 1.0]), drive,
                        0.0, 1e-3).apply(st.a, st.time)


class TestAbsorbingLayer:
    def test_zero_profile_is_identity(self, grid64, rng):
        profile = AbsorberProfile(sigma=np.zeros(grid64.n_points), width_fraction=0.1)
        assert np.all(profile.decay_factors(0.5) == 1.0)
        a = rng.normal(size=grid64.n_points) + 1j * rng.normal(size=grid64.n_points)
        st = FieldState(grid64, a, a[::-1])
        disp = DispersionPair(DispersionSpec.linear(C), DispersionSpec.flat(1.0))
        finals = []
        for absorber in (profile, None):
            stepper = Stepper(grid64, CouplingSet(), disp, BathSpec(), None,
                              absorber, 0.01)
            finals.append(stepper.run(st, 20).final_state)
        assert np.array_equal(finals[0].a, finals[1].a)
        assert np.array_equal(finals[0].b, finals[1].b)

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_resolved_pulse_absorbed(self, bound):
        # energy bookkeeping: neither transmitted (wrap) nor reflected
        grid, disp, dt, absorber = transport_setup(n=512, bound=bound)
        x = grid.x_axis
        k0 = 2 * np.pi / (12 * grid.dx)
        a0 = np.exp(-((x - 0.5 * grid.length) ** 2) / (2 * (20 * grid.dx) ** 2)) \
            * np.exp(1j * k0 * x)
        st = FieldState(grid, a0, np.zeros(grid.n_points))
        incident = st.photon_number()
        stepper = Stepper(grid, CouplingSet(), disp, BathSpec(), None, absorber, dt)
        for _ in range(int(0.7 * grid.length / (C * dt))):
            stepper.step_inplace(st)
        assert st.photon_number() < 1e-4 * incident

    def test_ramp_wider_than_ten_percent_rejected(self, grid64):
        with pytest.raises(ValueError):
            make_absorber(grid64, speed=C, width_fraction=0.2)
