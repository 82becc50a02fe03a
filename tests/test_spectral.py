"""Grid, spectral derivative, and free-evolution checks against independent
oracles (finite differences on a refined grid; analytic packet translation),
and the pocketfft kernels of the per-step transforms against ``np.fft``.
"""

import numpy as np
import pytest

from cwom import CouplingSet, DispersionSpec, Grid1D, spectral_derivative
from cwom.core import interaction
from cwom.core.interaction import CouplingTerms, fused_rhs
from cwom.core.spectral import apply_phase, dispersion_phase

from conftest import random_band_limited

# 8th-order centered first-derivative stencil coefficients for offsets 1..4
FD8 = np.array([4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0])


def fd8_derivative(samples, h):
    """Independent oracle: 8th-order centered finite difference, periodic."""
    out = np.zeros_like(samples)
    for j, c in enumerate(FD8, start=1):
        out += c * (np.roll(samples, -j) - np.roll(samples, j))
    return out / h


class TestGrid:
    def test_k_axis_conventions(self):
        g = Grid1D(128, 0.25)
        assert g.k_axis[0] == 0.0
        assert np.isclose(np.abs(g.k_axis).max(), np.pi / g.dx)
        assert np.isclose(g.length, 32.0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Grid1D(100, 0.1)

    def test_rejects_bad_dx(self):
        with pytest.raises(ValueError):
            Grid1D(64, -1.0)

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_transform_round_trip(self, n, rng):
        g = Grid1D(n, 0.3)
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        back = np.fft.ifft(np.fft.fft(f))
        assert np.max(np.abs(back - f)) < 1e-12 * np.max(np.abs(f))


class TestSpectralDerivative:
    def test_constant_field_gives_zero(self, grid64):
        f = np.full(grid64.n_points, 2.0 + 1.0j)
        d = spectral_derivative(f, grid64, 1)
        assert np.max(np.abs(d)) < 1e-13

    def test_plane_wave_eigenfunction(self, grid64):
        k = grid64.k_axis[5]
        f = np.exp(1j * k * grid64.x_axis)
        d = spectral_derivative(f, grid64, 1)
        assert np.max(np.abs(d - 1j * k * f)) < 1e-12 * k

    def test_against_finite_difference_oracle(self, rng):
        # Band-limited random field built as an explicit Fourier sum so the
        # oracle path shares no transform code with the implementation.
        g = Grid1D(64, 0.5)
        refine = 8
        kmax_idx = 8  # |k| < pi/(4 dx) -> indices below n/8
        idx = np.arange(-kmax_idx + 1, kmax_idx)
        amps = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
        ks = idx * g.dk

        def analytic(x):
            return np.sum(amps[:, None] * np.exp(1j * ks[:, None] * x[None, :]), axis=0)

        fine = Grid1D(g.n_points * refine, g.dx / refine)
        coarse_vals = analytic(g.x_axis)
        fine_vals = analytic(fine.x_axis)
        oracle = fd8_derivative(fine_vals, fine.dx)[::refine]
        ours = spectral_derivative(coarse_vals, g, 1)
        true_scale = np.max(np.abs(oracle))
        assert np.max(np.abs(ours - oracle)) < 1e-8 * true_scale

    def test_second_order(self, grid64):
        k = grid64.k_axis[7]
        f = np.exp(1j * k * grid64.x_axis)
        d2 = spectral_derivative(f, grid64, 2)
        assert np.max(np.abs(d2 + k * k * f)) < 1e-10 * k * k

    def test_order_above_two_rejected(self, grid64):
        with pytest.raises(ValueError):
            spectral_derivative(grid64.zeros(), grid64, 3)

    def test_length_mismatch_rejected(self, grid64):
        with pytest.raises(ValueError):
            spectral_derivative(np.zeros(12), grid64, 1)


class TestApplyDispersion:
    def test_zero_dispersion_is_identity(self, grid64, rng):
        f = random_band_limited(grid64, rng)
        out = apply_phase(f, dispersion_phase(DispersionSpec.flat(0.0), grid64, 0.7))
        assert np.max(np.abs(out - f)) < 1e-13

    def test_plane_wave_global_phase(self, grid64):
        k0 = grid64.k_axis[9]
        disp = DispersionSpec.polynomial([0.0, 2.0, 0.5])
        f = np.exp(1j * k0 * grid64.x_axis)
        dt = 0.31
        out = apply_phase(f, dispersion_phase(disp, grid64, dt))
        expected = f * np.exp(-1j * disp.omega_at(k0) * dt)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_norm_preserved(self, grid256, rng):
        f = random_band_limited(grid256, rng)
        disp = DispersionSpec.polynomial([0.3, -1.2, 0.07])
        out = apply_phase(f, dispersion_phase(disp, grid256, 1.73))
        n0 = np.sum(np.abs(f) ** 2)
        n1 = np.sum(np.abs(out) ** 2)
        assert abs(n1 - n0) < 1e-12 * n0

    def test_gaussian_translation_oracle(self):
        # Analytic oracle: under omega = v k a packet translates rigidly by
        # v dt per step, so the intensity centroid must track x0 + v t.
        g = Grid1D(256, 0.1)
        v = 3.0
        disp = DispersionSpec.linear(v)
        x0 = g.length * 0.3
        w = 8 * g.dx
        f = np.exp(-((g.x_axis - x0) ** 2) / (2 * w * w))
        dt = 0.05  # shift of 0.15 m = 1.5 cells per step
        n_steps = 40

        def centroid(field):
            w2 = np.abs(field) ** 2
            return np.sum(g.x_axis * w2) / np.sum(w2)

        phase = dispersion_phase(disp, g, dt)
        for step in range(1, n_steps + 1):
            f = apply_phase(f, phase)
            expected = x0 + v * dt * step
            assert abs(centroid(f) - expected) < 1e-6 * g.dx

    def test_negative_dt_rejected(self, grid64):
        with pytest.raises(ValueError):
            apply_phase(grid64.zeros(), dispersion_phase(DispersionSpec.flat(1.0),
                                                         grid64, -0.1))


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _np_fft_multiply(field, factor):
    return np.fft.ifft(factor * np.fft.fft(field, axis=-1), axis=-1)


class TestTransformKernels:
    """The per-step transforms call numpy's pocketfft gufuncs directly; they
    must give the bytes of the ``np.fft`` expressions they replace. A numpy
    release that changes those private kernels fails here."""

    # field shape, phase shape (a batch broadcasts the phase rows)
    SHAPES = [((32,), (32,)), ((2, 32), (2, 32)), ((3, 256), (3, 256)),
              ((4, 2, 128), (2, 128)), ((2, 4096), (2, 4096))]

    @pytest.mark.parametrize("shape, phase_shape", SHAPES)
    def test_apply_phase_matches_np_fft(self, shape, phase_shape, rng):
        f = _complex(rng, shape)
        phase = np.exp(1j * rng.normal(size=phase_shape))
        expected = _np_fft_multiply(f, phase).tobytes()
        assert apply_phase(f, phase).tobytes() == expected
        out = np.empty_like(f)
        assert apply_phase(f, phase, out=out) is out
        assert out.tobytes() == expected
        apply_phase(f, phase, out=f)
        assert f.tobytes() == expected

    def test_strided_out(self, rng):
        f = _complex(rng, (2, 256))
        phase = np.exp(1j * rng.normal(size=(2, 256)))
        expected = _np_fft_multiply(f, phase).tobytes()
        rows = np.zeros((5, 256), dtype=np.complex128)
        apply_phase(f, phase, out=rows[1::2])
        assert rows[1::2].tobytes() == expected
        assert not np.any(rows[::2])
        cells = np.zeros((2, 512), dtype=np.complex128)
        apply_phase(f, phase, out=cells[:, ::2])
        assert cells[:, ::2].tobytes() == expected
        assert not np.any(cells[:, 1::2])

    def test_live_rows_in_place(self, rng):
        # a state's live rows stepped through a view of the state itself
        y = _complex(rng, (3, 64))
        phase = np.exp(1j * rng.normal(size=(2, 64)))
        expected = _np_fft_multiply(y[1:], phase).tobytes()
        frozen = y[0].tobytes()
        rows = y[1:]
        apply_phase(rows, phase, out=rows)
        assert y[1:].tobytes() == expected and y[0].tobytes() == frozen

    @pytest.mark.parametrize("sets", [
        [CouplingSet.even(g_ppp=0.9, g_mmp=-0.2, g_mpm=0.1 + 0.3j)],
        [CouplingSet.odd(g_ppm=0.7, g_mpp=-0.3 + 0.2j, g_mmm=0.15)],
        [CouplingSet.even(g_mmp=0.4), CouplingSet.odd(g_mmm=0.2)],
    ], ids=["even", "odd", "batch"])
    def test_fused_rhs_derivatives_match_np_fft(self, sets, grid256, rng,
                                                monkeypatch):
        shape = (len(sets), grid256.n_points) if len(sets) > 1 else grid256.n_points
        a, b = _complex(rng, shape), 0.6 * _complex(rng, shape)
        terms = CouplingTerms.resolve(sets if len(sets) > 1 else sets[0])
        assert terms.kind == "derivative"
        w = grid256.derivative_weight
        ours = fused_rhs(a, b, w, terms)
        monkeypatch.setattr(interaction, "multiply_modes", _np_fft_multiply)
        reference = fused_rhs(a, b, w, terms)
        for x, ref in zip(ours, reference):
            assert x.tobytes() == ref.tobytes()


class TestDispersionSpec:
    def test_group_velocity_polynomial(self):
        disp = DispersionSpec.polynomial([1.0, 2.0, 3.0])
        assert np.isclose(disp.group_velocity_at(0.5), 2.0 + 6.0 * 0.5)

    def test_group_velocity_tabulated(self, grid64):
        v = 4.2
        disp = DispersionSpec.two_sided(v, grid64)
        k_probe = grid64.k_axis[5]
        assert np.isclose(disp.group_velocity_at(k_probe), v, rtol=1e-9)
        assert np.isclose(disp.group_velocity_at(-k_probe), -v, rtol=1e-9)

    @pytest.mark.filterwarnings("error")  # no ComplexWarning before the check
    def test_tabulated_requires_real(self, grid64):
        table = np.full(grid64.n_points, 1.0 + 1e-3j)
        with pytest.raises(ValueError, match="must be real"):
            DispersionSpec(kind="tabulated", table=table, grid=grid64)
