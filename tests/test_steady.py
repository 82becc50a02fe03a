"""Steady-state relaxation and the linearized fluctuation operator."""

import numpy as np
import pytest

from cwom import CouplingSet, DispersionSpec, FieldState, Grid1D
from cwom.dynamics import (BathSpec, DispersionPair, EndfireDrive, SideDrive,
                           make_absorber)
from cwom.steady import (FluctuationState, LinearizedStepper, SteadyState,
                         SteadyStateError, evolve_linearized, find_steady_state,
                         mean_field_residual)
from cwom.dynamics.stepper import DivergenceError, Stepper


def uniform_steady_setup(grid, g0=0.05, A=2.0, Omega0=1.0, kappa=0.3, gamma=0.5):
    """Manufactured uniform steady state held by a side drive.

    With flat bands the algebra closes: beta = i g0 A^2/(i Omega0 + gamma/2)
    and the side drive balances the photon equation exactly.
    """
    alpha = np.full(grid.n_points, A, dtype=complex)
    beta_val = 1j * g0 * A * A / (1j * Omega0 + 0.5 * gamma)
    beta = np.full(grid.n_points, beta_val, dtype=complex)
    u_beta = 2.0 * beta_val.real
    source = (0.5 * kappa * A - 1j * g0 * A * u_beta) * np.ones(grid.n_points)
    drive = SideDrive(kappa_ex=1.0, profile=lambda x, t: source)
    couplings = CouplingSet.simple(g0)
    bath = BathSpec(kappa=kappa, gamma_mech=gamma)
    steady = SteadyState.from_fields(grid, alpha, beta, g0)
    return steady, couplings, bath, drive, Omega0


class TestFindSteadyState:
    def test_zero_drive_relaxes_to_vacuum(self):
        grid = Grid1D(32, 1.0)
        disp = DispersionPair(DispersionSpec.flat(0.0), DispersionSpec.flat(1.0))
        bath = BathSpec(kappa=0.5, gamma_mech=0.5)
        st = find_steady_state(grid, CouplingSet.simple(0.1), disp, bath,
                               drive=None, dt=0.05, max_time=200.0, tol=1e-12)
        assert np.max(np.abs(st.alpha)) == 0.0
        assert np.max(np.abs(st.beta)) == 0.0

    def test_transport_decay_profile(self):
        # closed-form oracle: with g0 = 0 and uniform kappa the driven
        # envelope decays spatially as |alpha|^2 ~ exp(-(kappa/v) x)
        grid = Grid1D(256, 1.0)
        v, kappa = 2.0, 0.03
        disp = DispersionPair(DispersionSpec.linear(v), DispersionSpec.flat(1.0))
        bath = BathSpec(kappa=kappa, gamma_mech=1.0)
        drive = EndfireDrive(alpha_in=1.0, inlet_cell=4)
        absorber = make_absorber(grid, speed=v, width_fraction=0.1)
        dt = 0.9 * 0.5 / (v * np.pi / grid.dx)
        st = find_steady_state(grid, CouplingSet.simple(0.0), disp, bath, drive,
                               dt=dt, max_time=4000.0, ramp_time=30.0, tol=1e-11,
                               absorber=absorber)
        cells = np.arange(30, 190)
        lnp = np.log(np.abs(st.alpha[cells]) ** 2)
        slope = np.polyfit(cells * grid.dx, lnp, 1)[0]
        assert abs(slope + kappa / v) < 0.01 * (kappa / v)

    def test_weak_coupling_phonon_algebra(self):
        # pointwise oracle: at the steady state the flat-band phonon
        # equation gives 0 = -i Omega0 beta + i g0 |alpha|^2 - (Gamma/2) beta.
        # Periodic bulk with a shaped side drive; the dt-refined march pins
        # the split fixed point to the continuous one below the tolerance.
        grid = Grid1D(64, 0.5)
        v, kappa, gamma, Omega0, g0 = 1.0, 2.0, 2.0, 1.0, 0.05
        disp = DispersionPair(DispersionSpec.linear(v), DispersionSpec.flat(Omega0))
        bath = BathSpec(kappa=kappa, gamma_mech=gamma)
        profile = 0.8 * (1.0 + 0.5 * np.cos(2 * np.pi * grid.x_axis / grid.length))
        drive = SideDrive(kappa_ex=1.0, profile=lambda x, t: profile)
        st = find_steady_state(grid, CouplingSet.simple(g0), disp, bath, drive,
                               dt=1e-3, max_time=30.0, ramp_time=2.0, tol=3e-11,
                               refine_dt=2e-4, refine_time=14.0)
        resid = (-1j * Omega0 * st.beta + 1j * g0 * np.abs(st.alpha) ** 2
                 - 0.5 * gamma * st.beta)
        scale = Omega0 * np.max(np.abs(st.beta))
        assert np.max(np.abs(resid)) < 1e-8 * scale
        # and the closed form beta = i g0 |alpha|^2/(i Omega0 + Gamma/2)
        expected = 1j * g0 * np.abs(st.alpha) ** 2 / (1j * Omega0 + gamma / 2)
        assert np.max(np.abs(st.beta - expected)) < 1e-7 * np.max(np.abs(expected))

    def test_derived_linear_couplings(self):
        grid = Grid1D(16, 1.0)
        steady, couplings, *_ = uniform_steady_setup(grid)
        assert np.allclose(steady.g_lin, couplings.g_ppp * steady.alpha)
        assert np.allclose(steady.g_beta,
                           couplings.g_ppp * 2 * np.real(steady.beta))
        assert np.max(np.abs(np.imag(steady.g_beta))) == 0.0

    def test_resubstitution_residual_small(self):
        grid = Grid1D(16, 1.0)
        steady, couplings, bath, drive, Omega0 = uniform_steady_setup(grid)
        disp = DispersionPair(DispersionSpec.flat(0.0), DispersionSpec.flat(Omega0))
        resid = mean_field_residual(steady, couplings, disp, bath, drive=drive,
                                    dt=1e-4)
        assert resid < 1e-9 * max(bath.kappa, bath.gamma_mech)

    def test_nonconvergence_reports_history(self):
        grid = Grid1D(32, 1.0)
        disp = DispersionPair(DispersionSpec.flat(0.0), DispersionSpec.flat(1.0))
        bath = BathSpec(kappa=0.01, gamma_mech=0.01)
        drive = SideDrive(kappa_ex=1.0,
                          profile=lambda x, t: np.ones(grid.n_points))
        with pytest.raises(SteadyStateError) as err:
            find_steady_state(grid, CouplingSet.simple(0.0), disp, bath, drive,
                              dt=0.05, max_time=20.0, tol=1e-14)
        assert len(err.value.residual_history) > 0

    @pytest.mark.parametrize("converges", [True, False],
                             ids=["converges", "runs_out"])
    def test_one_free_step_per_step_between_checks(self, monkeypatch, converges):
        # the state is read only at the checks (every 50 steps) and at the
        # end: each segment between them pays one opening half step more
        grid = Grid1D(32, 1.0)
        disp = DispersionPair(DispersionSpec.linear(1.0), DispersionSpec.flat(1.0))
        bath = BathSpec(kappa=0.5, gamma_mech=0.5)
        drive = SideDrive(kappa_ex=1.0, profile=lambda x, t: np.ones(grid.n_points))
        free, steps = [], []
        free_step, step_inplace = Stepper._free_step, Stepper.step_inplace
        monkeypatch.setattr(Stepper, "_free_step",
                            lambda self, *a: free.append(1) or free_step(self, *a))
        monkeypatch.setattr(Stepper, "step_inplace",
                            lambda self, *a, **k: steps.append(1)
                            or step_inplace(self, *a, **k))

        def relax(tol, max_time):
            return find_steady_state(grid, CouplingSet.simple(0.05), disp, bath,
                                     drive, dt=0.05, max_time=max_time, tol=tol)

        if converges:
            assert np.all(np.isfinite(relax(1e-6, 100.0).alpha))
        else:
            with pytest.raises(SteadyStateError):
                relax(1e-14, 6.0)
            assert len(steps) == 120  # two checks and a 20-step tail
        assert len(free) == len(steps) + -(-len(steps) // 50)

    def test_requires_dissipation(self):
        grid = Grid1D(32, 1.0)
        disp = DispersionPair(DispersionSpec.flat(0.0), DispersionSpec.flat(1.0))
        with pytest.raises(ValueError):
            find_steady_state(grid, CouplingSet.simple(0.0), disp,
                              BathSpec(kappa=0.0, gamma_mech=1.0), None,
                              dt=0.1, max_time=1.0)

    @pytest.mark.parametrize("times, name", [
        (dict(max_time=0.1), "max_time = 1.000e-01 s is 10 steps"),
        (dict(max_time=1.0, refine_dt=1e-3, refine_time=0.01),
         "refine_time = 1.000e-02 s is 10 steps"),
    ], ids=["max_time", "refine_time"])
    def test_stage_shorter_than_check_interval_rejected(self, times, name):
        # a stage must reach its first convergence check, every 50 steps
        grid = Grid1D(32, 1.0)
        disp = DispersionPair(DispersionSpec.flat(0.0), DispersionSpec.flat(1.0))
        bath = BathSpec(kappa=0.5, gamma_mech=0.5)
        with pytest.raises(ValueError, match="fewer than the 50 steps") as err:
            find_steady_state(grid, CouplingSet.simple(0.0), disp, bath, None,
                              dt=0.01, **times)
        assert name in str(err.value)


def analytic_block(k, v, c2, Omega0, w2, g_lin, g_beta, kappa, gamma):
    """The per-k 4x4 generator of the doubled system for uniform fields.

    Basis (da, da*, db, db*); dispersion omega~(k) = v k + c2 k^2 and
    Omega~(k) = Omega0 + w2 k^2 enter the diagonal, the conjugate rows with
    +i omega(-k).
    """
    wa = lambda kk: v * kk + c2 * kk * kk
    wb = lambda kk: Omega0 + w2 * kk * kk
    g = g_lin
    return np.array([
        [-1j * wa(k) + 1j * g_beta - kappa / 2, 0, 1j * g, 1j * g],
        [0, 1j * wa(-k) - 1j * g_beta - kappa / 2, -1j * np.conj(g), -1j * np.conj(g)],
        [1j * np.conj(g), 1j * g, -1j * wb(k) - gamma / 2, 0],
        [-1j * np.conj(g), -1j * g, 0, 1j * wb(-k) - gamma / 2],
    ], dtype=complex)


def expm(mat):
    vals, vecs = np.linalg.eig(mat)
    return vecs @ np.diag(np.exp(vals)) @ np.linalg.inv(vecs)


class TestLinearizedOperator:
    def test_zero_coupling_free_damped_evolution(self):
        grid = Grid1D(32, 1.0)
        steady = SteadyState.from_fields(grid, np.zeros(32), np.zeros(32), 0.0)
        bath = BathSpec(kappa=0.4, gamma_mech=0.6)
        rng = np.random.default_rng(4)
        f = FluctuationState.from_classical(
            grid, rng.normal(size=32) + 0j, rng.normal(size=32) + 0j)
        disp = DispersionPair(DispersionSpec.flat(0.0), DispersionSpec.flat(0.0))
        stepper = LinearizedStepper(steady, CouplingSet.simple(0.0), disp, bath, 1e-3)
        dda, dda_c, ddb, ddb_c = stepper._derivative(
            np.stack((f.da, f.da_conj, f.db, f.db_conj)), 0.0)
        assert np.allclose(dda, -0.2 * f.da)
        assert np.allclose(ddb, -0.3 * f.db)
        assert np.allclose(dda_c, -0.2 * f.da_conj)
        assert np.allclose(ddb_c, -0.3 * f.db_conj)

    def test_normal_modes_match_analytic_blocks(self):
        # For uniform background fields each k decouples into a 4x4 block;
        # the one-step transfer matrix of the split integrator must match
        # expm of the analytic generator, eigenvalues included.
        grid = Grid1D(32, 0.7)
        g0, A, Omega0, kappa, gamma = 0.06, 1.5, 0.9, 0.25, 0.35
        v, c2, w2 = 0.8, 0.12, 0.05
        steady, couplings, bath, _, _ = uniform_steady_setup(
            grid, g0=g0, A=A, Omega0=Omega0, kappa=kappa, gamma=gamma)
        disp = DispersionPair(DispersionSpec.polynomial([0.0, v, c2]),
                              DispersionSpec.polynomial([Omega0, 0.0, w2]))
        dt = 5e-3
        stepper = LinearizedStepper(steady, couplings, disp, bath, dt)
        g_lin = complex(steady.g_lin[0])
        g_beta = float(steady.g_beta[0])
        for mode in (0, 3, 13):
            k = grid.k_axis[mode]
            wave = np.exp(1j * k * grid.x_axis)
            U_num = np.zeros((4, 4), dtype=complex)
            for col in range(4):
                parts = [np.zeros(32, complex) for _ in range(4)]
                parts[col] = wave.copy()
                f = FluctuationState(grid, *parts)
                stepper.step_inplace(f)
                for row, arr in enumerate((f.da, f.da_conj, f.db, f.db_conj)):
                    U_num[row, col] = np.vdot(wave, arr) / grid.n_points
            L = analytic_block(k, v, c2, Omega0, w2, g_lin, g_beta, kappa, gamma)
            U_ref = expm(L * dt)
            assert np.max(np.abs(U_num - U_ref)) < 1e-7, mode
            lam_num = np.log(np.linalg.eigvals(U_num)) / dt
            lam_ref = list(np.linalg.eigvals(L))
            scale = max(1.0, np.max(np.abs(lam_ref)))
            for lam in lam_num:
                j = int(np.argmin([abs(lam - r) for r in lam_ref]))
                assert abs(lam - lam_ref.pop(j)) < 1e-5 * scale

    def test_richardson_quadratic_remainder(self):
        # || nonlinear(steady + eps phi) - nonlinear(steady) - eps lin(phi) ||
        # must scale as eps^2 across two decades of eps.
        grid = Grid1D(32, 1.0)
        steady, couplings, bath, drive, Omega0 = uniform_steady_setup(
            grid, g0=0.08, A=1.2)
        disp = DispersionPair(DispersionSpec.flat(0.0), DispersionSpec.flat(Omega0))
        rng = np.random.default_rng(8)
        phi_a = rng.normal(size=32) + 1j * rng.normal(size=32)
        phi_b = rng.normal(size=32) + 1j * rng.normal(size=32)
        dt, n_steps = 5e-3, 400

        base = Stepper(grid, couplings, disp, bath=bath, drive=drive, dt=dt)
        ref = FieldState(grid, steady.alpha.copy(), steady.beta.copy())
        for i in range(n_steps):
            base.step_inplace(ref)

        lin = evolve_linearized(
            FluctuationState.from_classical(grid, phi_a, phi_b), steady,
            couplings, disp, bath, dt, n_steps)

        devs = []
        epss = (3e-2, 3e-3, 3e-4)
        for eps in epss:
            st = FieldState(grid, steady.alpha + eps * phi_a,
                            steady.beta + eps * phi_b)
            stepper = Stepper(grid, couplings, disp, bath=bath, drive=drive, dt=dt)
            for i in range(n_steps):
                stepper.step_inplace(st)
            dev = (np.linalg.norm(st.a - ref.a - eps * lin.da)
                   + np.linalg.norm(st.b - ref.b - eps * lin.db))
            devs.append(dev)
        slopes = np.diff(np.log(devs)) / np.diff(np.log(epss))
        assert np.all(np.abs(slopes - 2.0) < 0.2), (devs, slopes)

    def test_fluctuation_boundary_carries_no_drive(self):
        # a zero fluctuation stays exactly zero even though the background
        # was produced by a drive: the linear system has no source term
        grid = Grid1D(32, 1.0)
        steady, couplings, bath, _, Omega0 = uniform_steady_setup(grid)
        disp = DispersionPair(DispersionSpec.flat(0.0), DispersionSpec.flat(Omega0))
        f0 = FluctuationState.from_classical(grid, np.zeros(32), np.zeros(32))
        out = evolve_linearized(f0, steady, couplings, disp, bath, dt=0.01,
                                n_steps=100)
        assert np.all(out.da == 0) and np.all(out.db == 0)

    def test_conjugate_consistency_preserved(self):
        # classical initial data (starred = conjugate) stays conjugate
        grid = Grid1D(32, 1.0)
        steady, couplings, bath, _, Omega0 = uniform_steady_setup(grid)
        disp = DispersionPair(DispersionSpec.polynomial([0.0, 0.5]),
                              DispersionSpec.flat(Omega0))
        rng = np.random.default_rng(5)
        f0 = FluctuationState.from_classical(
            grid, rng.normal(size=32) + 1j * rng.normal(size=32),
            rng.normal(size=32) + 1j * rng.normal(size=32))
        out = evolve_linearized(f0, steady, couplings, disp, bath, dt=0.01,
                                n_steps=200)
        assert np.max(np.abs(out.da_conj - np.conj(out.da))) < 1e-10
        assert np.max(np.abs(out.db_conj - np.conj(out.db))) < 1e-10


    def test_non_finite_fluctuation_raises(self):
        grid = Grid1D(32, 1.0)
        steady, couplings, bath, _, Omega0 = uniform_steady_setup(grid)
        disp = DispersionPair(DispersionSpec.flat(0.0), DispersionSpec.flat(Omega0))
        da = np.zeros(32, complex)
        da[5] = np.nan
        f0 = FluctuationState.from_classical(grid, da, np.zeros(32))
        with pytest.raises(DivergenceError) as err:
            evolve_linearized(f0, steady, couplings, disp, bath, dt=0.01, n_steps=10)
        assert err.value.step_index == 0

class TestPinnedLinearizedRun:
    # Recorded from the per-model stepper: even derivative couplings
    # linearized about a modulated background, damping, absorber.
    CELLS = (3, 30, 64, 100, 125)
    PHOTON = ((-1.3587103668497251 - 0.9582194020898267j),
              (-0.8322320718239948 - 0.08428500598574362j),
              (0.17403654010777247 - 0.18449085519651595j),
              (-0.23017979067744448 - 0.3968665620101151j),
              (-0.2003163444942122 + 0.16941865315279916j))
    PHONON = ((-1.9290494265343043 - 0.8685726060320278j),
              (-0.0829705252029761 + 0.24027927139322536j),
              (0.7865947390400059 + 0.5892893210330291j),
              (-0.1452576332570411 + 0.10138217278083356j),
              (0.1282158639309392 - 0.419238860950472j))

    def test_matches_recorded_values(self):
        grid = Grid1D(128, 0.7)
        rng = np.random.default_rng(8)
        steady = SteadyState.from_fields(
            grid, 1.2 + 0.2 * np.cos(grid.dk * grid.x_axis), np.full(128, 0.1j),
            0.08)
        f0 = FluctuationState.from_classical(
            grid, rng.normal(size=128) + 1j * rng.normal(size=128),
            rng.normal(size=128) + 1j * rng.normal(size=128))
        couplings = CouplingSet.even(g_ppp=0.08, g_mmp=0.02, g_mpm=0.01)
        disp = DispersionPair(DispersionSpec.polynomial([0.0, 0.8, 0.1]),
                              DispersionSpec.polynomial([1.0, 0.0, 0.05]))
        out = evolve_linearized(f0, steady, couplings, disp,
                                BathSpec(kappa=0.3, gamma_mech=0.5), dt=0.01,
                                n_steps=300, absorber=make_absorber(grid, speed=0.8))
        cells = list(self.CELLS)
        for got, want in ((out.da[cells], self.PHOTON),
                          (out.db[cells], self.PHONON)):
            want = np.asarray(want)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), got
