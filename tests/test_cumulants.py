"""The joint's characteristic function, the generating-function log-ratio, and cumulants."""

import dataclasses
from collections import deque
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekin import (
    DecayGuardError,
    DegenerateFitError,
    EvolutionParams,
    ImaginaryResidueError,
    classical_limit_scan,
    collision_rhs,
    gaussian_density,
    gaussian_wigner,
    harmonic_potential,
    heisenberg_check,
    kappa22,
    make_grid,
    moyal_rhs_spectral,
    parse_config,
    phi_field,
    phi_gap,
    potential_from_density,
    propagate,
    quantum_joint_series,
    quantum_joint_spectral,
    quartic_potential,
)
from phasekin import coupling, cumulants, verification
from phasekin.coupling import joint_planes
from phasekin.cumulants import cumulant_pass
from phasekin.grids import face_sup
from phasekin.runner import run_cumulants
from phasekin.states import marginal_over_R, marginal_residuals
from phasekin.verification import KERNEL_CONTENT_FLOOR, KERNEL_GAP_TOL, kappa22_closed_form_oracle

from conftest import SIGMA_COHERENT, gauss
from reference import (
    WholeJoint,
    collect,
    departure_norms,
    fourier_forward,
    frequencies,
    full_derivative_diagonal,
    half_lattice,
    joint_transform,
    kernel_departure_norms,
    peak_traced_bytes,
    phi_from_full_transform,
    planes_of,
    product_joint,
    sample_joint,
    streamed_planes,
    whole_joint,
)


class TestCharacteristicFunction:
    def test_origin_is_total_probability(self, rho_default, wigner_default):
        F = whole_joint(quantum_joint_spectral, rho_default, wigner_default, 1.0)
        mid = rho_default.grid.n // 2
        assert abs(joint_transform(F)[mid, mid, mid] - 1.0) < 1e-7

    def test_classical_joint_factorizes(self, rho_default, wigner_default, grid64):
        F = whole_joint(quantum_joint_series, rho_default, wigner_default, 0.0)
        out = joint_transform(F)
        rho_t = fourier_forward(rho_default.values, (grid64,), (0,))
        w_t = fourier_forward(wigner_default.values, (grid64, grid64), (0, 1))
        assert np.abs(out - rho_t[:, None, None] * w_t[None, :, :]).max() < 1e-9

    def test_gaussian_axis_profile(self, rho_default, wigner_default, grid64):
        F = product_joint(rho_default, wigner_default)
        K = frequencies(grid64)
        mid = grid64.n // 2
        profile = np.abs(joint_transform(F)[:, mid, mid])
        assert np.abs(profile - np.exp(-(K**2) / 2.0)).max() < 1e-8

    def test_hermitian_symmetry(self, rho_default, wigner_default):
        F = whole_joint(quantum_joint_spectral, rho_default, wigner_default, 1.0)
        v = joint_transform(F)
        flipped = np.conj(v[::-1, ::-1, ::-1])
        # index 0 is the unpaired Nyquist plane; mirror of index i is n - i
        assert np.abs(v[1:, 1:, 1:] - flipped[:-1, :-1, :-1]).max() < 1e-10


class TestPhiField:
    def test_classical_phi_vanishes(self, rho_default, wigner_default):
        planes = joint_planes(rho_default, wigner_default, 0.0)
        phi = phi_field(planes, rho_default, wigner_default)
        assert np.abs(phi.values[phi.mask]).max() < 1e-9

    def test_phi_equals_log_kernel_on_lattice(self, rho_default, wigner_default):
        hbar = 1.0
        planes = joint_planes(rho_default, wigner_default, hbar)
        phi = phi_field(planes, rho_default, wigner_default)
        x = hbar * np.multiply.outer(phi.K, phi.q) / 2.0
        assert phi.values.shape == (64, 33) and phi.mask.sum() > 250
        expected = np.log(np.sinc(x[phi.mask] / np.pi))  # np.sinc(y) is sin(pi y) / (pi y)
        gap = np.abs(phi.values[phi.mask] - expected).max()
        assert gap < KERNEL_GAP_TOL
        assert abs(phi_gap(phi, hbar) - gap) < 1e-15

    def test_k_slices_agree(self, rho_default, wigner_default, grid64):
        # the generating function does not depend on the third frequency:
        # phi_field's k = 0 slice against the full transform's third bin above it
        F = whole_joint(quantum_joint_spectral, rho_default, wigner_default, 1.0)
        a = phi_field(planes_of(F), rho_default, wigner_default)
        values, mask = phi_from_full_transform(F, rho_default, wigner_default, grid64.n // 2 + 3)
        common = a.mask & half_lattice(mask)
        assert common.sum() > 100
        assert np.abs(a.values[common] - half_lattice(values)[common]).max() < 1e-7

    def test_phi_even_under_sign_flip_of_K(self, rho_default, wigner_default):
        # the half lattice holds q >= 0 only, so only K flips: row j of the
        # FFT order holds -K at row (n - j) mod n, Nyquist (n/2) onto itself
        planes = joint_planes(rho_default, wigner_default, 1.0)
        phi = phi_field(planes, rho_default, wigner_default)
        n = phi.K.size
        flip = (-np.arange(n)) % n
        rows = np.arange(n) != n // 2
        assert np.array_equal(phi.K[flip][rows], -phi.K[rows])
        keep = phi.mask & phi.mask[flip]
        assert keep.sum() > 250
        assert np.abs(phi.values - phi.values[flip])[keep].max() < 1e-8

    def test_mismatched_inputs_raise_imaginary_residue(self, rho_default, wigner_default, grid64):
        # a momentum-shifted denominator puts a phase in the ratio
        planes = joint_planes(rho_default, wigner_default, 1.0)
        shifted = gaussian_wigner(grid64, grid64, 1.0, 0.0, 2**-0.5, 2**-0.5)
        with pytest.raises(ImaginaryResidueError):
            phi_field(planes, rho_default, shifted)

    def test_reconstruction_identity(self, rho_default, wigner_default, grid64):
        F = whole_joint(quantum_joint_spectral, rho_default, wigner_default, 1.0)
        phi = phi_field(planes_of(F), rho_default, wigner_default)
        mid = grid64.n // 2
        f_t = half_lattice(joint_transform(F)[:, :, mid])
        rho_t = fourier_forward(rho_default.values, (grid64,), (0,))
        w_t = fourier_forward(wigner_default.values, (grid64, grid64), (0, 1))[:, mid]
        recon = np.exp(phi.values[phi.mask]) * half_lattice(rho_t[:, None] * w_t[None, :])[phi.mask]
        assert np.abs(recon - f_t[phi.mask]).max() < 1e-7


def content(phi, hbar):
    """What the kernel row resolves: the gap of phi = 0 (no coupling) on phi's mask."""
    return phi_gap(dataclasses.replace(phi, values=np.zeros_like(phi.values)), hbar)


def _joint_at(factor):
    """phi's inputs with the joint built at hbar = ``factor``, that many times
    the default hbar = 1 at which the row checks it."""
    return lambda planes, rho, W: (joint_planes(rho, W, factor), rho, W)


def _planted_in_over_r(planes, rho, W):
    """phi's inputs with one interior point of ``over_r`` raised by 1e-5 of its peak."""
    over_r = planes.over_r.copy()
    over_r[over_r.shape[0] // 2, over_r.shape[1] // 2] += 1e-5 * np.abs(over_r).max()
    return dataclasses.replace(planes, over_r=over_r), rho, W


def _spoiled_marginal(planes, rho, W):
    """phi's inputs with a density 1% narrower than the joint's own."""
    return planes, gaussian_density(rho.grid, 0.0, 0.99), W


class TestPhiGap:
    def test_gap_at_the_defaults_is_within_tolerance(self, rho_default, wigner_default):
        hbar = 1.0
        phi = phi_field(joint_planes(rho_default, wigner_default, hbar), rho_default, wigner_default)
        assert phi_gap(phi, hbar) <= KERNEL_GAP_TOL
        assert content(phi, hbar) > 3.9  # |ln sinc| near the mask's edge, where sinc is 2e-2

    def test_hbar_zero_trivial(self, rho_default, wigner_default):
        planes = joint_planes(rho_default, wigner_default, 0.0)
        phi = phi_field(planes, rho_default, wigner_default)
        assert phi_gap(phi, 0.0) < 1e-9 and content(phi, 0.0) == 0.0

    def test_kernel_not_positive_on_the_mask_is_an_infinite_gap(self, rho_default, wigner_default):
        # a steep kernel scale puts masked points past the kernel's first zero
        phi = phi_field(joint_planes(rho_default, wigner_default, 1.0), rho_default, wigner_default)
        assert phi_gap(phi, 8.0) == np.inf

    def test_empty_mask_reads_zero(self, rho_default, wigner_default):
        phi = phi_field(joint_planes(rho_default, wigner_default, 1.0), rho_default, wigner_default)
        empty = dataclasses.replace(phi, mask=np.zeros_like(phi.mask))
        assert phi_gap(empty, 1.0) == 0.0

    def test_gap_independent_of_preset_widths(self, grid64):
        hbar = 1.0
        for sigma_R, sigma_p in ((1.0, 2**-0.5), (0.8, 0.9)):
            rho = gaussian_density(grid64, 0.0, sigma_R)
            W = gaussian_wigner(grid64, grid64, 0.0, 0.0, sigma_p, sigma_p)
            assert phi_gap(phi_field(joint_planes(rho, W, hbar), rho, W), hbar) <= KERNEL_GAP_TOL

    @pytest.mark.parametrize(
        "perturb",
        [_joint_at(1.0 + 1e-3), _joint_at(1.0 + 1e-2), _planted_in_over_r, _spoiled_marginal],
        ids=["hbar(1+1e-3)", "hbar(1+1e-2)", "planted_over_r", "spoiled_marginal"],
    )
    def test_row_fails_perturbed_kernels_and_inputs(self, monkeypatch, perturb):
        # a joint built at a nearby hbar, a point planted in its plane and a
        # marginal that is not the joint's: the pointwise row, at the default
        # hbar = 1, fails each by orders of magnitude, judged on the gap and
        # not refused
        monkeypatch.setattr(verification, "phi_field", lambda *inputs: phi_field(*perturb(*inputs)))
        [row] = [c for c in verification.check_configured_hbar(parse_config({})) if c.name.startswith("kernel")]
        assert (row.name, row.passed, row.note) == ("kernel_expansion[pointwise]", False, "")
        assert row.measured > 1e5 * KERNEL_GAP_TOL


class TestKappa22:
    def test_classical_joint_uncorrelated(self, rho_default, wigner_default):
        planes = joint_planes(rho_default, wigner_default, 0.0)
        assert abs(kappa22(planes)) < 1e-6

    def test_hbar_scaling(self, rho_default, wigner_default):
        a = kappa22(joint_planes(rho_default, wigner_default, 1.0))
        b = kappa22(joint_planes(rho_default, wigner_default, 0.5))
        assert abs(a / b / 4.0 - 1.0) < 1e-4

    def test_strictly_negative_for_quantum(self, rho_default, wigner_default):
        assert kappa22(joint_planes(rho_default, wigner_default, 1.0)) < 0

    def test_matches_closed_form_oracle(self, rho_default, wigner_default):
        hbar = 1.0
        measured = kappa22(joint_planes(rho_default, wigner_default, hbar))
        oracle = kappa22_closed_form_oracle(1.0, 2**-0.5, hbar)
        assert abs(measured - oracle) / abs(oracle) < 1e-5

    @pytest.mark.parametrize("hbar", [1e-3, 0.5, 1.0, 2.0])
    def test_oracle_resolves_kappa22_at_every_hbar(self, hbar):
        # the kernel's cross-cumulant is -hbar^2/6 whatever the Gaussian widths
        assert abs(kappa22_closed_form_oracle(1.0, 2**-0.5, hbar) / (-(hbar**2) / 6.0) - 1.0) < 1e-6

    def test_oracle_stencil_accuracy(self):
        # pure-product transform has a zero cross combination; the stencil
        # reproduces it down to its own h^4 rounding floor
        assert abs(kappa22_closed_form_oracle(1.0, 0.7, 0.0)) < 1e-7

    def test_kappa_over_hbar_squared_constant(self, rho_default, wigner_default):
        hbars = [1 / 16, 1 / 8, 1 / 4, 1 / 2]
        ratios = [
            kappa22(joint_planes(rho_default, wigner_default, h)) / h**2 for h in hbars
        ]
        spread = (max(ratios) - min(ratios)) / abs(ratios[0])
        assert spread < 1e-3


class TestHeisenberg:
    def test_gaussian_sigma_R2(self, rho_default, wigner_default):
        planes = joint_planes(rho_default, wigner_default, 1.0)
        report = heisenberg_check(planes, 1.0)
        assert abs(report.sigma_R2 - np.sqrt(2.0)) < 1e-5

    @pytest.mark.parametrize("hbar", [0.5, 1.0])
    def test_cauchy_schwarz_bound(self, rho_default, wigner_default, hbar):
        planes = joint_planes(rho_default, wigner_default, hbar)
        report = heisenberg_check(planes, hbar)
        assert report.cauchy_schwarz_ok
        assert report.kappa22 >= -report.heisenberg_lhs

    def test_hbar_zero_trivial(self, rho_default, wigner_default):
        report = heisenberg_check(joint_planes(rho_default, wigner_default, 0.0), 0.0)
        assert report.heisenberg_rhs == 0.0
        assert report.heisenberg_lhs >= 0.0

    def test_reference_value_recorded(self, rho_default, wigner_default):
        planes = joint_planes(rho_default, wigner_default, 1.0)
        report = heisenberg_check(planes, 1.0)
        assert report.kappa22_reference == -0.5
        # measured value differs from the nominal constant in 1-D; both live in the report
        assert abs(report.kappa22 + 1.0 / 6.0) < 1e-4


SIGMAS = st.floats(0.5, 1.0)
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
# Peak of the scan in complex (n, n) arrays: measured 1.32 at n = 64 (1.28
# at 128); 4.67 when each hbar formed and inverted its kernel G(R, q)
PEAK_COMPLEX_SQUARES = 2


class TestClassicalLimitScan:
    def test_slope(self, rho_default, wigner_default):
        slope = classical_limit_scan(rho_default, wigner_default, [1 / 16, 1 / 8, 1 / 4, 1 / 2])
        assert abs(slope - 2.0) < 0.1

    def test_single_value_rejected(self, rho_default, wigner_default):
        with pytest.raises(ValueError):
            classical_limit_scan(rho_default, wigner_default, [0.5])

    def test_narrow_span_rejected(self, rho_default, wigner_default):
        with pytest.raises(ValueError):
            classical_limit_scan(rho_default, wigner_default, [0.2, 0.3, 0.4, 0.5])

    def test_underflowing_departure_rejected(self, rho_default, wigner_default):
        with pytest.raises(DegenerateFitError):
            classical_limit_scan(rho_default, wigner_default, [1e-8, 2e-8, 4e-8, 1e-7])

    @pytest.mark.parametrize("half_width", [8.0, 12.0])
    def test_slope_matches_full_joint_departures(self, half_width):
        # at half_width 12 the step is not a power of two, so the scale
        # folded into G rounds differently from the full joints' route
        grid = make_grid(64, half_width)
        rho = gaussian_density(grid, 0.0, 1.0)
        W = gaussian_wigner(grid, grid, 0.0, 0.0, SIGMA_COHERENT, SIGMA_COHERENT)
        hbars = [1 / 16, 1 / 8, 1 / 4, 1 / 2]
        expected = np.polyfit(np.log(hbars), np.log(departure_norms(rho, W, hbars)), 1)[0]
        assert abs(classical_limit_scan(rho, W, hbars) / expected - 1.0) < 1e-10


    def test_buffers_stay_below_one_joint(self, rho_default, wigner_default):
        # O(n^2): the power spectra and the (n/2 + 1)^2 kernel, one hbar
        # at a time; no block of the departure joint is formed
        n = rho_default.grid.n
        hbars = [1 / 16, 1 / 8, 1 / 4, 1 / 2]
        classical_limit_scan(rho_default, wigner_default, hbars)
        peak = peak_traced_bytes(classical_limit_scan, rho_default, wigner_default, hbars)
        assert peak <= PEAK_COMPLEX_SQUARES * 16 * n * n

    def test_nan_block_gives_nan_slope(self, rho_default, wigner_default, monkeypatch):
        # a NaN in one entry of the sinc kernel the scan reads must reach the
        # norm and the slope
        kernel = cumulants.sinc_kernel

        def poisoned(K, q, hbar):
            values = kernel(K, q, hbar)
            if hbar == 1 / 4:
                values[3, 5] = np.nan
            return values

        monkeypatch.setattr(cumulants, "sinc_kernel", poisoned)
        assert np.isnan(classical_limit_scan(rho_default, wigner_default, [1 / 16, 1 / 8, 1 / 4, 1 / 2]))

    @PROPERTY_SETTINGS
    @given(sigma_R=SIGMAS, sigma_p=SIGMAS, sigma_r=SIGMAS, ratio=st.floats(1e-3, 0.99))
    def test_norms_match_full_joint_departures(self, sigma_R, sigma_p, sigma_r, ratio):
        # hbar inside the series window hbar < 2 sigma_R sigma_p
        grid = make_grid(32, 8.0)
        rho = gaussian_density(grid, 0.0, sigma_R)
        W = gaussian_wigner(grid, grid, 0.0, 0.0, sigma_p, sigma_r)
        hbars = [2.0 * sigma_R * sigma_p * np.sqrt(ratio)]
        got, expected = cumulants._departure_norms(rho, W, hbars)[0], departure_norms(rho, W, hbars)[0]
        assert abs(got / expected - 1.0) < 1e-10
        assert abs(got / kernel_departure_norms(rho, W, hbars)[0] - 1.0) < 1e-10


# Traced peak of run_cumulants in complex (n, n) arrays: measured 5.05 at
# n3 = 128 (5.14 at 64, 4.52 at 256), where one joint would be 64 of them
PEAK_CUMULANTS_COMPLEX_SQUARES = 6


class TestCumulantsCost:
    def test_no_n3_transform_and_no_builder(self, monkeypatch, tmp_path):
        # every reduction is taken from the spectral joint's two factors and
        # the scan from O(n^2) sums of the same: no builder runs, and no
        # transform, real or complex, acts on an n^3 array
        n3_calls = {"irfft": 0, "complex": 0, "builder": 0}
        irfft, fft, ifft = np.fft.irfft, np.fft.fft, np.fft.ifft

        def counting(fn, key):
            def wrapped(a, *args, **kwargs):
                if np.ndim(a) == 3:
                    n3_calls[key] += 1
                return fn(a, *args, **kwargs)

            return wrapped

        def counted(build):
            def wrapped(*args):
                n3_calls["builder"] += 1
                return build(*args)

            return wrapped

        monkeypatch.setattr(np.fft, "irfft", counting(irfft, "irfft"))
        monkeypatch.setattr(np.fft, "fft", counting(fft, "complex"))
        monkeypatch.setattr(np.fft, "ifft", counting(ifft, "complex"))
        for owner in (coupling, cumulants):
            for name in ("quantum_joint_series", "quantum_joint_spectral"):
                if hasattr(owner, name):
                    monkeypatch.setattr(owner, name, counted(getattr(owner, name)))
        n = 64
        config = parse_config({"grid": {"n2": n, "n3": n, "half_width": 8.0}})
        assert config.hbar > 0.0
        run_cumulants(config, str(tmp_path))
        assert n3_calls == {"irfft": 0, "complex": 0, "builder": 0}

    def test_peak_is_a_few_complex_squares(self, tmp_path):
        n = 128
        config = parse_config({"grid": {"n2": n, "n3": n, "half_width": 8.0}})
        run_cumulants(config, str(tmp_path))
        peak = peak_traced_bytes(run_cumulants, config, str(tmp_path))
        assert peak <= PEAK_CUMULANTS_COMPLEX_SQUARES * 16 * n * n


class TestMonteCarloConsistency:
    def test_sampled_kappa_matches_quadrature(self, rho_default, wigner_default):
        # near-classical joint admits sampling; batch means give the error bar
        hbar = 1 / 8
        F = whole_joint(quantum_joint_spectral, rho_default, wigner_default, hbar)
        quad = kappa22(planes_of(F))
        samples = sample_joint(F, 10**6, seed=123)
        R, p = samples[:, 0], samples[:, 1]
        batches = 10
        R_b = R.reshape(batches, -1)
        p_b = p.reshape(batches, -1)
        kappas = (R_b**2 * p_b**2).mean(axis=1) - (R_b**2).mean(axis=1) * (p_b**2).mean(axis=1)
        estimate = kappas.mean()
        se = kappas.std(ddof=1) / np.sqrt(batches)
        assert abs(estimate - quad) <= 4 * se


class TestPhiAlongTrajectory:
    def test_phi_time_independent(self, grid64, rho_default):
        # rebuild the joint from each snapshot with the static density;
        # the log-ratio must stay the pure kernel at every time.  A
        # rotating coherent state gives real time dependence while its
        # tails stay far inside the box.
        hbar = 1.0
        W0 = gaussian_wigner(grid64, grid64, 0.0, 1.0, 2**-0.5, 2**-0.5)
        U = harmonic_potential(grid64, 1.0)
        params = EvolutionParams(mass=1.0, hbar=hbar, dt=1e-3, steps=600, snapshot_every=200)
        snapshots, _ = collect(W0, U, params)
        reference = None
        for _, snap in snapshots:
            planes = joint_planes(rho_default, snap, hbar)
            phi = phi_field(planes, rho_default, snap)
            if reference is None:
                reference = phi
                continue
            common = reference.mask & phi.mask
            assert np.abs(reference.values[common] - phi.values[common]).max() < 1e-6


@lru_cache(maxsize=None)
def quartic_snapshot():
    """The quartic oracle's final snapshot at the defaults (128^2, hbar 1,
    1000 steps; min W is -9.0e-3 of the peak) and the default rho on its grid."""
    config = parse_config({})
    grid = config.grid2()
    params = EvolutionParams(mass=1.0, hbar=1.0, dt=config.dt, steps=1000, snapshot_every=100)
    final = deque(maxlen=1)
    U = quartic_potential(grid, 0.5, 0.1)
    propagate(config.wigner(grid), U, params, each_snapshot=lambda t, W: final.append(W))
    return final[0], config.rho(grid)


class TestEvolvedJoint:
    def test_marginal_keeps_the_guard_of_the_evolved_snapshot(self):
        # its joint's W marginal reads 5.0e-8 at the boundary, inside the
        # 1e-5 guard of the snapshot it was built from, over the 1e-10 of a
        # prepared W
        W, rho = quartic_snapshot()
        _, report, _ = cumulant_pass(rho, W, 1.0)
        assert abs(report.kappa22 + 1.0 / 6.0) <= 1e-5 / 6.0
        planes = streamed_planes(quantum_joint_spectral, rho, W, 1.0)
        assert max(marginal_residuals(planes, rho, W)) <= 1e-12

    def test_factor_collision_term_matches_the_whole_contraction(self):
        # dF/dR at R = r from the factors against the full n^3 R-derivative's
        # diagonal; the collision term it gives against the resummed Moyal
        # transport of the snapshot.  The guard from the factors reads the
        # whole joint's boundary and peak
        W, rho = quartic_snapshot()
        planes = joint_planes(rho, W, 1.0)
        F = whole_joint(quantum_joint_spectral, rho, W, 1.0)
        expected = full_derivative_diagonal(F)
        assert np.abs(planes.dR_diagonal - expected).max() <= 1e-12 * np.abs(expected).max()
        moyal = moyal_rhs_spectral(W, potential_from_density(rho, 1.0), 1.0, 1.0)
        rhs = collision_rhs(marginal_over_R(planes), planes.dR_diagonal, 1.0, 1.0)
        assert np.abs(rhs - moyal).max() <= 1e-12 * np.abs(moyal).max()
        peak = max(F.values.max(), -F.values.min())
        assert abs(planes.boundary - face_sup(F.values)) <= 1e-12 * peak
        assert max(planes.vmax, -planes.vmin) == peak


class TestPhiFieldSlice:
    @pytest.mark.parametrize("offset", [0, 3, -7])
    @pytest.mark.parametrize("centred", [True, False])
    def test_matches_full_transform(self, grid64, offset, centred):
        # phi_field reads the k = 0 slice; at offset 0 it is the full
        # transform's own, elsewhere the generating function must not
        # depend on k.  Off centre the joint is not even in r, so the
        # slices at k and -k differ
        shift = 0.0 if centred else 0.6
        rho = gaussian_density(grid64, -shift, 0.9)
        W = gaussian_wigner(grid64, grid64, shift / 2, shift, 0.75, 0.7)
        F = whole_joint(quantum_joint_spectral, rho, W, 1.0)
        phi = phi_field(planes_of(F), rho, W)
        values, mask = (half_lattice(a) for a in phi_from_full_transform(F, rho, W, grid64.n // 2 + offset))
        if offset == 0:
            assert mask.sum() > 100 and np.array_equal(phi.mask, mask)
            assert np.abs(phi.values[mask] - values[mask]).max() < 1e-8
        else:
            common = phi.mask & mask
            assert common.sum() > 100
            assert np.abs(phi.values[common] - values[common]).max() < 1e-7

    def test_no_full_complex_cube(self, rho_default, wigner_default):
        n = rho_default.grid.n
        planes = joint_planes(rho_default, wigner_default, 1.0)
        phi_field(planes, rho_default, wigner_default)
        peak = peak_traced_bytes(phi_field, planes, rho_default, wigner_default)
        assert peak < 16 * n**3  # one complex n^3 array

    def test_non_decaying_joint_is_refused(self, rho_default, wigner_default, grid64):
        # a joint whose R profile is too wide for the box: it does not vanish at R = +-8
        wide = gauss(grid64.points, 0.0, 3.0)
        wide /= wide.sum() * grid64.step
        F = WholeJoint(grid64, grid64, grid64, np.multiply.outer(wide, wigner_default.values))
        with pytest.raises(DecayGuardError, match="characteristic-function input is not decaying"):
            phi_field(planes_of(F), rho_default, wigner_default)


class TestContentFloor:
    @pytest.mark.parametrize("hbar", [1e-3, 3e-3, 0.01, 0.1])
    def test_gap_is_resolved_above_the_floor(self, rho_default, wigner_default, hbar):
        # down to 1e-3 at the defaults the gap reads rounding and the content
        # clears the floor
        phi = phi_field(joint_planes(rho_default, wigner_default, hbar), rho_default, wigner_default)
        assert phi_gap(phi, hbar) <= KERNEL_GAP_TOL
        assert content(phi, hbar) >= KERNEL_CONTENT_FLOOR

    @pytest.mark.parametrize("hbar", [1e-4, 1e-100])
    def test_content_falls_below_the_floor(self, rho_default, wigner_default, hbar):
        # the gap still reads rounding; the row refuses on the content alone
        phi = phi_field(joint_planes(rho_default, wigner_default, hbar), rho_default, wigner_default)
        assert phi_gap(phi, hbar) <= KERNEL_GAP_TOL
        assert content(phi, hbar) < KERNEL_CONTENT_FLOOR


class TestFactorPipeline:
    @pytest.mark.parametrize("hbar", [0.0, 0.5, 1.0])
    def test_factor_pass_matches_the_pipeline_on_the_whole_joint(self, rho_default, wigner_default, hbar):
        # the report and the generating function's gap of the whole joint's
        # planes, which the factors' match to rounding (at hbar = 0 the whole
        # joint is the product rho W).  sigma_p2 = sqrt(<p^4> - <p^2>^2)
        # cancels: it measured 3.7e-13 apart
        if hbar == 0.0:
            F = product_joint(rho_default, wigner_default)
        else:
            F = whole_joint(quantum_joint_spectral, rho_default, wigner_default, hbar)
        planes = planes_of(F)
        whole_gap = phi_gap(phi_field(planes, rho_default, wigner_default), hbar)
        whole = heisenberg_check(planes, hbar)
        _, report, gap = cumulant_pass(rho_default, wigner_default, hbar)
        assert abs(report.kappa22 - whole.kappa22) <= 1e-15
        for field in ("sigma_R2", "sigma_p2", "heisenberg_lhs"):
            assert abs(getattr(report, field) / getattr(whole, field) - 1.0) <= 1e-12
        assert report.cauchy_schwarz_ok == whole.cauchy_schwarz_ok
        assert abs(gap - whole_gap) <= 1e-9 and max(gap, whole_gap) <= KERNEL_GAP_TOL

    def test_factor_phi_field_matches_the_whole_joint_s(self, rho_default, wigner_default):
        F = whole_joint(quantum_joint_spectral, rho_default, wigner_default, 1.0)
        whole = phi_field(planes_of(F), rho_default, wigner_default)
        factors = phi_field(joint_planes(rho_default, wigner_default, 1.0), rho_default, wigner_default)
        assert np.array_equal(factors.mask, whole.mask)
        # the log ratio reads rounding over denominators down to 1e-6 of the
        # peak at the mask's edge: 4.6e-10 measured
        assert np.abs(factors.values - whole.values)[whole.mask].max() <= 1e-9
