"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line with its measured numbers.

The lines are written past pytest's capture so they appear in any run;
tolerances are fixed here, not tuned at runtime.
"""

import sys
import time

import numpy as np

from cwom import CouplingSet, DispersionSpec, FieldState, Grid1D, interaction_rhs
from cwom.brillouin import brillouin_gain
from cwom.constants import HBAR
from cwom.core.spectral import mode_amplitudes
from cwom.dynamics import (BathSpec, DispersionPair, EndfireDrive, Stepper,
                           evolve, make_absorber, make_energy_observer,
                           observe_photon_number, run_ensemble,
                           trajectory_generator)
from cwom.brillouin import nonlinear_susceptibility
from cwom.experiments import (array_convergence_study, run_forward_comb,
                              run_two_branch_gain)
from cwom.scatter import backward_amplitude, forward_amplitude
from cwom.strongcoupling import sweep_coupling

from conftest import random_band_limited


def _report(cid: str, desc: str, passed: bool, detail: str):
    line = f"{'PASS' if passed else 'FAIL'} [{cid}] {desc} | {detail}"
    print("\n" + line)
    if sys.stdout is not sys.__stdout__:  # also reach the real terminal
        sys.__stdout__.write("\n" + line + "\n")
    assert passed, line


# ---------------------------------------------------------------------------

def test_criterion_1_strong_coupling_thresholds():
    t0 = time.monotonic()
    v2, vb, gamma2, gamma_b = 7e7, 1e3, 10.0, 2e5
    g_thr = np.sqrt(v2 * vb) * abs(gamma2 - gamma_b) / 4.0
    g = np.logspace(np.log10(g_thr) - 2, np.log10(g_thr) + 2, 10_000)
    lam_p, _, D, _ = sweep_coupling(g, v2, vb, gamma2, gamma_b)
    first = int(np.argmax(np.abs(lam_p.imag) > 0))
    bracketed = g[first - 1] <= g_thr <= g[first]
    # equal decay rates: the threshold collapses to zero
    lam_eq, _, D_eq, _ = sweep_coupling(np.array([1e-6 * g_thr]), v2, vb,
                                        gamma2, gamma2)
    zero_thr = abs(lam_eq[0].imag) > 0 and D_eq[0] < 0
    wall = time.monotonic() - t0
    _report("C1", "oscillatory threshold onset in a 1e4-point coupling sweep",
            bracketed and zero_thr and wall < 1.0,
            f"threshold {g_thr:.4e} Hz in [{g[first - 1]:.4e}, {g[first]:.4e}], "
            f"equal-rate threshold 0 ok, runtime {wall:.2f} s < 1 s")


def test_criterion_2_brillouin_gain_cross_validation():
    g0_12, v, vb = 1e4, 7e7, 1e3
    omega1 = 2 * np.pi * 193.5e12
    details = []
    ok = True
    for pump_power, direction, Gamma in ((0.05, +1, 2 * np.pi * 3e8),
                                         (0.5, +1, 2 * np.pi * 3e8),
                                         (5.0, -1, 2 * np.pi * 9e8)):
        t0 = time.monotonic()
        G_B = brillouin_gain(g0_12, v, v, Gamma, omega1)
        kappa2 = 0.15 * G_B * pump_power * v  # gamma2 = 15% of the raw gain
        result = run_two_branch_gain(
            g0_12=g0_12, v1=v, v2=v, vb=vb, Gamma=Gamma, kappa2=kappa2,
            omega1=omega1, pump_power_W=pump_power, seed_power_ratio=1e-10,
            n_points=256, target_efolds=6.0, direction=direction)
        wall = time.monotonic() - t0
        rel = abs(result.measured_power_slope - result.predicted_power_slope) \
            / abs(result.predicted_power_slope)
        lo, hi = result.window
        gain_lengths = (hi - lo) * (result.x[1] - result.x[0]) \
            * result.measured_power_slope
        set_ok = (rel < 0.05 and result.pump_depletion < 0.01
                  and result.adiabatic_ratio >= 100 and gain_lengths >= 3.0
                  and result.phonon_prediction_error < 0.01
                  and wall < 120.0)
        ok = ok and set_ok
        details.append(f"P1={pump_power:g} W dir={direction:+d}: "
                       f"slope err {rel:.2%}, depletion "
                       f"{result.pump_depletion:.1e}, phonon rec err "
                       f"{result.phonon_prediction_error:.1e}, "
                       f"{gain_lengths:.1f} gain lengths, {wall:.0f} s")
    _report("C2", "two-branch solver reproduces G_B P1 - gamma2 over two "
                  "decades of pump power", ok, "; ".join(details))


def test_criterion_3_gain_susceptibility_identity():
    g0_12, v, Gamma = 2.2e3, 7e7, 2 * np.pi * 1e6
    omega1 = 2 * np.pi * 193.5e12
    Omega0 = 2 * np.pi * 5e9
    omegas = Omega0 + Gamma * np.linspace(-30, 30, 1001)
    chi = nonlinear_susceptibility(omegas, g0_12, v, Omega0, Gamma)
    lhs = -2.0 * np.imag(chi) / (HBAR * omega1 * v)
    # independent reconstruction: peak coefficient times the Lorentzian
    G_peak = brillouin_gain(g0_12, v, v, Gamma, omega1)
    rhs = G_peak * (Gamma ** 2 / 4) / ((omegas - Omega0) ** 2 + Gamma ** 2 / 4)
    identity_err = float(np.max(np.abs(lhs - rhs)) / np.max(rhs))
    # FWHM of -Im chi via bisection on each flank
    def neg_im(Om):
        return -nonlinear_susceptibility(Om, g0_12, v, Omega0, Gamma).imag
    half = neg_im(Omega0) / 2.0
    flanks = []
    for lo, hi, rising in ((Omega0 - 5 * Gamma, Omega0, True),
                           (Omega0, Omega0 + 5 * Gamma, False)):
        a_, b_ = lo, hi
        for _ in range(200):
            mid = 0.5 * (a_ + b_)
            above = neg_im(mid) > half
            if above == rising:
                b_ = mid
            else:
                a_ = mid
        flanks.append(0.5 * (a_ + b_))
    fwhm_err = abs((flanks[1] - flanks[0]) - Gamma) / Gamma
    ok = identity_err < 1e-12 and fwhm_err < 1e-3
    _report("C3", "gain-susceptibility identity and linewidth",
            ok, f"identity max rel dev {identity_err:.1e} (machine), "
                f"FWHM err {fwhm_err:.1e} < 1e-3")


def test_criterion_4_array_continuum_convergence():
    t0 = time.monotonic()
    sizes = (32, 64, 128, 256)  # three halvings of the lattice constant
    site = array_convergence_study(kind="site", sizes=sizes, T=4.0, n_ref=512)
    link = array_convergence_study(kind="link", sizes=sizes, T=4.0, n_ref=512)
    wall = time.monotonic() - t0
    ok = (abs(site.slope - 2.0) < 0.2 and abs(link.slope - 2.0) < 0.2
          and wall < 300.0)
    # the derivative couplings must genuinely improve on the pointwise model
    improves = bool(np.all(link.errors < 0.8 * link.errors_pointwise_model))
    _report("C4", "lattice converges to the continuum solver at second order",
            ok and improves,
            f"site slope {site.slope:.3f}, link slope {link.slope:.3f} "
            f"(2.0 +- 0.2), derivative terms cut link error "
            f"{np.mean(link.errors_pointwise_model / link.errors):.1f}x, "
            f"runtime {wall:.0f} s < 300 s")


def test_criterion_5_vertex_consistency():
    grid = Grid1D(128, 0.37)
    m_k = 7
    k = grid.k_axis[m_k]
    singles = {
        "ppp": CouplingSet.even(g_ppp=1.4),
        "mmp": CouplingSet.even(g_mmp=0.6),
        "mpm": CouplingSet.even(g_mpm=0.5 - 0.3j),
        "ppm": CouplingSet.odd(g_ppm=0.8),
        "mpp": CouplingSet.odd(g_mpp=0.4 + 0.7j),
        "mmm": CouplingSet.odd(g_mmm=0.35),
    }
    worst = 0.0
    for name, cs in singles.items():
        a = np.exp(1j * k * grid.x_axis)
        # forward: q = 0 (uniform displacement); backward: q = -2k
        state_f = FieldState(grid, a, np.full(grid.n_points, 0.5 + 0j))
        da_f, _ = interaction_rhs(state_f, cs)
        got_f = np.fft.fft(da_f)[m_k] / grid.n_points
        want_f = 1j * forward_amplitude(cs, k)
        b_b = np.exp(-2j * k * grid.x_axis)
        state_b = FieldState(grid, a, b_b)
        da_b, _ = interaction_rhs(state_b, cs)
        got_b = np.fft.fft(da_b)[(-m_k) % grid.n_points] / grid.n_points
        want_b = 1j * backward_amplitude(cs, k)
        scale = max(abs(want_f), abs(want_b), 1e-30)
        worst = max(worst, abs(got_f - want_f) / scale,
                    abs(got_b - want_b) / scale)
    cs = CouplingSet.simple(2.5)
    ks = np.linspace(-3, 3, 11)
    exact_equal = np.array_equal(forward_amplitude(cs, ks),
                                 backward_amplitude(cs, ks))
    _report("C5", "plane-wave evolution reproduces the scattering vertex "
                  "per coupling constant",
            worst < 1e-10 and exact_equal,
            f"worst rel dev {worst:.1e} < 1e-10; pointwise-only model has "
            f"forward == backward exactly: {exact_equal}")


def test_criterion_6_noise_physics():
    t0 = time.monotonic()
    details = []
    # (a) damped phonon field relaxes to per-mode Wigner occupation
    grid = Grid1D(32, 0.5)
    n_th, gamma = 0.8, 1.0
    n_traj = 224
    bath = BathSpec(gamma_mech=gamma, n_th=n_th, sampling="wigner")
    disp = DispersionPair(DispersionSpec.flat(0.0), DispersionSpec.flat(2.0))

    def one(rng, index):
        st = FieldState.vacuum(grid)
        traj = evolve(st, CouplingSet(), disp, bath=bath, dt=0.02, n_steps=450,
                      rng=rng)
        return np.abs(mode_amplitudes(traj.final_state.b, grid)) ** 2

    occ = np.mean(run_ensemble(one, n_traj, base_seed=2026), axis=0)
    target = n_th + 0.5
    sigma_mode = target / np.sqrt(n_traj)
    mode_dev = np.max(np.abs(occ - target)) / sigma_mode
    a_ok = mode_dev < 3.0
    details.append(f"(a) per-mode occupation dev {mode_dev:.2f} sigma "
                   f"(n={n_traj} traj)")

    # (b) vacuum-driven boundary: equal-time diagonal 1/(2 dx) per mover
    grid_b = Grid1D(128, 1.0)
    c = 2.0
    disp_b = DispersionPair(DispersionSpec.linear(c), DispersionSpec.flat(0.0))
    dt = 0.9 * 0.5 / (c * np.pi / grid_b.dx)
    absorber = make_absorber(grid_b, speed=c, width_fraction=0.1)
    drive = EndfireDrive(alpha_in=0.0, inlet_cell=4)
    bath_b = BathSpec(sampling="wigner")
    n_steps = int(1.5 * grid_b.length / (c * dt))
    cells = slice(20, 100)

    def one_b(rng, index):
        stepper = Stepper(grid_b, CouplingSet(), disp_b, bath_b, drive,
                          absorber, dt)
        st = stepper.run(FieldState.vacuum(grid_b), n_steps, rng=rng).final_state
        return np.abs(st.a[cells]) ** 2

    samples = np.concatenate(run_ensemble(one_b, 256, base_seed=11))
    target_b = 1.0 / (2.0 * grid_b.dx)
    sigma_b = target_b / np.sqrt(samples.size)
    b_dev = abs(samples.mean() - target_b) / sigma_b
    b_ok = b_dev < 3.0
    details.append(f"(b) correlator diagonal dev {b_dev:.2f} sigma of "
                   f"1/(2dx)")

    # (c) left-moving pulse exits through x=0 without reflection
    grid_c = Grid1D(512, 1.0)
    disp_c = DispersionPair(DispersionSpec.two_sided(c, grid_c),
                            DispersionSpec.flat(0.0))
    absorber_c = make_absorber(grid_c, speed=c, width_fraction=0.1)
    x = grid_c.x_axis
    k0 = 2 * np.pi / (10 * grid_c.dx)
    pulse = np.exp(-((x - 0.5 * grid_c.length) ** 2) / (2 * (25 * grid_c.dx) ** 2))
    st = FieldState(grid_c, pulse * np.exp(-1j * k0 * x), np.zeros(512))
    incident = st.photon_number()
    stepper = Stepper(grid_c, CouplingSet(), disp_c, BathSpec(), None,
                      absorber_c, 0.9 * 0.5 / (c * np.pi / grid_c.dx))
    for i in range(int(0.75 * grid_c.length / (c * stepper.dt))):
        stepper.step_inplace(st)
    remaining = np.sum(np.abs(st.a[:int(0.88 * 512)]) ** 2) * grid_c.dx
    refl = remaining / incident
    c_ok = refl < 1e-4
    details.append(f"(c) reflected energy {refl:.1e} < 1e-4")

    wall = time.monotonic() - t0
    details.append(f"runtime {wall:.0f} s < 600 s")
    _report("C6", "Langevin noise physics (thermal occupation, boundary "
                  "vacuum, boundary transparency)",
            a_ok and b_ok and c_ok and wall < 600.0, "; ".join(details))


def test_criterion_7_conservation_suite():
    grid = Grid1D(64, 0.1)
    rng = np.random.default_rng(42)
    couplings = CouplingSet.even(g_ppp=0.3, g_mmp=0.02, g_mpm=0.01 + 0.005j)
    disp = DispersionPair(DispersionSpec.polynomial([0.0, 1.0, 0.05]),
                          DispersionSpec.flat(2.0))
    a0 = random_band_limited(grid, rng, amplitude=0.5)
    b0 = random_band_limited(grid, rng, amplitude=0.3)
    obs = {"n": observe_photon_number,
           "H": make_energy_observer(couplings, disp)}
    traj = evolve(FieldState(grid, a0.copy(), b0.copy()), couplings, disp,
                  dt=2e-4, n_steps=10_000, observers=obs, record_every=500)
    n = np.asarray(traj.records["n"])
    h = np.asarray(traj.records["H"])
    n_drift = float(np.max(np.abs(n - n[0])) / n[0])
    h_drift = float(np.max(np.abs(h - h[0])) / abs(h[0]))

    # Strang order: halving dt cuts the trajectory error ~4x
    T = 0.4

    def final(n_steps):
        st = FieldState(grid, a0.copy(), b0.copy())
        return evolve(st, couplings, disp, dt=T / n_steps,
                      n_steps=n_steps).final_state

    ref = final(4096)
    errs = [np.linalg.norm(final(m).a - ref.a) for m in (64, 128, 256)]
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    order_ok = 3.2 < r1 < 4.8 and 3.2 < r2 < 4.8

    # bit-identical replay under a fixed seed
    bath = BathSpec(kappa=0.4, gamma_mech=0.7, n_th=0.5, sampling="wigner")

    def noisy(seed):
        st = FieldState.vacuum(grid)
        return evolve(st, couplings, disp, bath=bath, dt=1e-3, n_steps=300,
                      rng=trajectory_generator(seed, 0)).final_state

    s1, s2 = noisy(99), noisy(99)
    replay_ok = np.array_equal(s1.a, s2.a) and np.array_equal(s1.b, s2.b)

    ok = n_drift < 1e-8 and h_drift < 1e-8 and order_ok and replay_ok
    _report("C7", "conservation, 2nd-order convergence, bit-identical replay",
            ok, f"photon drift {n_drift:.1e}, H drift {h_drift:.1e} (<1e-8 "
                f"over 1e4 steps), dt-halving ratios {r1:.2f}/{r2:.2f}, "
                f"replay {'bit-identical' if replay_ok else 'MISMATCH'}")


def test_criterion_8_forward_comb_symmetry():
    result = run_forward_comb()
    asym_ok = all(result.asymmetry[n] < 0.05 for n in (1, 2))
    freq_ok = all(abs(result.peak_frequency[n] - result.expected_frequency[n])
                  < 0.05 * result.Omega0 for n in result.peak_frequency)
    _report("C8", "forward comb lines at carrier +- n Omega with symmetric "
                  "Stokes/anti-Stokes power",
            asym_ok and freq_ok,
            f"asymmetry n=1: {result.asymmetry[1]:.2e}, n=2: "
            f"{result.asymmetry[2]:.2e} (< 5%), peaks at "
            f"{sorted(v / result.Omega0 for v in result.peak_frequency.values())} "
            f"x Omega")
