"""Transport right-hand sides, the central collision identity, and propagation."""

import weakref
from functools import lru_cache

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyder, polyval
from numpy.testing import assert_allclose

from phasekin import (
    DecayGuardError,
    EvolutionParams,
    NonConvergenceError,
    WignerDistribution,
    collision_rhs,
    free_potential,
    gaussian_density,
    gaussian_wigner,
    harmonic_potential,
    liouville_rhs,
    make_grid,
    marginal_over_R,
    moyal_rhs_series,
    moyal_rhs_spectral,
    parse_config,
    potential_from_density,
    quantum_joint_series,
    quantum_joint_spectral,
    quartic_potential,
)
from phasekin.coupling import joint_planes
from phasekin.dynamics import _moyal_terms, propagate
from phasekin.grids import native_frequencies
from phasekin import verification
from phasekin.verification import EQUIV_PRESETS, check_dynamics_oracles

from conftest import gauss
from reference import (
    WholeJoint,
    analytic_free_evolution,
    collect,
    complex_strang_reference,
    full_derivative_diagonal,
    inplace_propagate,
    peak_traced_bytes,
    potential_at,
    planes_of,
    whole_array_free_evolution,
    whole_array_propagate,
    streamed_planes,
    whole_joint,
)


def collided(planes, epsilon, mass):
    """collision_rhs of a joint given by its planes: its W marginal and its dF/dR at R = r."""
    return collision_rhs(marginal_over_R(planes), planes.dR_diagonal, epsilon, mass)


def built_collision(builder, rho, W, hbar, epsilon, mass):
    """collision_rhs of the joint ``builder`` builds, from the planes it returns."""
    return collided(streamed_planes(builder, rho, W, hbar), epsilon, mass)


class TestPotentials:
    def test_from_density_zero_epsilon(self, rho_default):
        U = potential_from_density(rho_default, 0.0)
        assert np.abs(U.samples()).max() == 0.0

    def test_from_density_peak(self, rho_default):
        U = potential_from_density(rho_default, 2.0)
        i0 = rho_default.grid.n // 2  # r = 0 lies on the grid
        assert abs(U.samples()[i0] - 2.0 / np.sqrt(2 * np.pi)) < 1e-9

    def test_from_density_linearity(self, rho_default):
        u1 = potential_from_density(rho_default, 1.0).samples()
        u2 = potential_from_density(rho_default, 2.0).samples()
        assert_allclose(u2, 2.0 * u1, rtol=0, atol=1e-15)

    def test_quartic_requires_confinement(self, grid64):
        with pytest.raises(ValueError):
            quartic_potential(grid64, 0.5, 0.0)

    def test_interpolation_matches_samples(self, rho_default):
        U = potential_from_density(rho_default, 1.3)
        assert np.abs(potential_at(U, rho_default.grid.points) - U.samples()).max() < 1e-12

    @pytest.mark.parametrize("order", range(7))
    @pytest.mark.parametrize(
        "build,coefficients",
        [
            (lambda g: harmonic_potential(g, 1.3, 1.7), (0.0, 0.0, 1.7 * 1.3**2 / 2)),
            (lambda g: quartic_potential(g, -0.3, 0.2), (0.0, 0.0, -0.3, 0.0, 0.2)),
        ],
        ids=["harmonic", "quartic"],
    )
    def test_derivatives_match_numpy_polynomials(self, grid64, build, coefficients, order):
        expected = polyval(grid64.points, polyder(coefficients, order))
        scale = max(np.abs(expected).max(), 1.0)
        assert np.abs(build(grid64).derivative_samples(order) - expected).max() <= 1e-13 * scale


class TestShiftedDifference:
    @pytest.mark.parametrize("kind", ["free", "harmonic", "quartic", "from_density"])
    def test_matches_pointwise_samples(self, grid64, kind):
        U = _potential(kind, grid64)
        s = native_frequencies(grid64) / 2.0
        r = grid64.points
        plus, minus = potential_at(U, r[None, :] + s[:, None]), potential_at(U, r[None, :] - s[:, None])
        # the oracle sums in another order, so allow rounding at the scale of U
        scale = max(np.abs(plus).max(), np.abs(minus).max(), 1.0)
        assert np.abs(U.shifted_difference(s) - (plus - minus)).max() <= 1e-13 * scale

    @pytest.mark.parametrize("kind", ["harmonic", "quartic"])
    def test_kick_generator_keeps_its_classical_limit(self, grid128, kind):
        # the kick's generator [U(r + hbar lam / 2) - U(r - hbar lam / 2)] / hbar
        # tends to lam dU/dr; taken as that difference it kept only 8e-5 of
        # the quartic's at hbar = 1e-12
        U = _potential(kind, grid128)
        lam, hbar = native_frequencies(grid128), 1e-12
        generator = U.shifted_difference(hbar * lam / 2.0) / hbar
        classical = np.multiply.outer(lam, U.derivative_samples(1))
        assert np.abs(generator - classical).max() <= 1e-12 * np.abs(classical).max()

    def test_density_memory_is_quadratic(self):
        grid = make_grid(256, 8.0)
        U = potential_from_density(gaussian_density(grid, 0.0, 1.0), 1.0)
        s = native_frequencies(grid) / 2.0
        assert peak_traced_bytes(U.shifted_difference, s) < 16 * 2**20


class TestLiouvilleRhs:
    def test_free_streaming_parity(self, grid64):
        # even W in p makes the streaming term odd in p
        W = gaussian_wigner(grid64, grid64, 0.0, 0.0, 0.7, 0.7)
        rhs = liouville_rhs(W, free_potential(grid64), 1.0)
        flipped = np.roll(rhs[::-1, :], 1, axis=0)  # p -> -p on the grid
        assert np.abs(rhs + flipped)[1:, :].max() < 1e-12

    def test_thermal_state_is_stationary(self, grid128):
        # symbolic substitution: the harmonic thermal state zeroes the flow
        p, r, theta, m, omega = sympy.symbols("p r theta m omega", positive=True)
        W_sym = sympy.exp(-(p**2 / (2 * m) + m * omega**2 * r**2 / 2) / theta)
        flow = -p / m * sympy.diff(W_sym, r) + sympy.diff(m * omega**2 * r**2 / 2, r) * sympy.diff(W_sym, p)
        assert sympy.simplify(flow) == 0

        thetav, mv, omegav = 1.0, 1.0, 1.0
        g = grid128
        values = np.exp(
            -(g.points[:, None] ** 2 / (2 * mv) + mv * omegav**2 * g.points[None, :] ** 2 / 2) / thetav
        )
        values /= values.sum() * g.step**2
        W = WignerDistribution(g, g, values)
        rhs = liouville_rhs(W, harmonic_potential(g, omegav), mv)
        assert np.abs(rhs).max() < 1e-8

    def test_rhs_integrates_to_zero(self, wigner_default, grid64):
        U = quartic_potential(grid64, 0.5, 0.1)
        rhs = liouville_rhs(wigner_default, U, 1.0)
        assert abs(rhs.sum() * grid64.step**2) < 1e-10

    def test_linearity(self, grid64):
        U = quartic_potential(grid64, 0.5, 0.1)
        a = gaussian_wigner(grid64, grid64, 0.0, 0.0, 0.7, 0.7)
        b = gaussian_wigner(grid64, grid64, 0.0, 0.5, 0.8, 0.6)
        mix = WignerDistribution(grid64, grid64, 0.5 * a.values + 0.5 * b.values)
        lhs = liouville_rhs(mix, U, 1.0)
        rhs = 0.5 * liouville_rhs(a, U, 1.0) + 0.5 * liouville_rhs(b, U, 1.0)
        assert np.abs(lhs - rhs).max() < 1e-13


class TestMoyalRhs:
    @pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
    def test_harmonic_equals_liouville(self, grid128, wigner128, hbar):
        U = harmonic_potential(grid128, 1.0)
        ref = liouville_rhs(wigner128, U, 1.0)
        assert np.abs(moyal_rhs_series(wigner128, U, hbar, 1.0) - ref).max() < 1e-10
        assert np.abs(moyal_rhs_spectral(wigner128, U, hbar, 1.0) - ref).max() < 1e-9

    def test_hbar_zero_is_liouville_exactly(self, grid128, wigner128):
        U = quartic_potential(grid128, 0.5, 0.1)
        a = moyal_rhs_series(wigner128, U, 0.0, 1.0)
        b = liouville_rhs(wigner128, U, 1.0)
        assert np.array_equal(a, b)

    def test_quartic_series_matches_spectral(self, grid128, wigner128):
        U = quartic_potential(grid128, 0.5, 0.1)
        a = moyal_rhs_series(wigner128, U, 1.0, 1.0)
        b = moyal_rhs_spectral(wigner128, U, 1.0, 1.0)
        assert np.abs(a - b).max() < 1e-8

    def test_quartic_series_terminates_at_n1(self, grid128, wigner128):
        # the quartic's fifth derivative vanishes, so every term after the
        # first is exactly zero and the summed series is exact
        terms = _moyal_terms(wigner128, quartic_potential(grid128, 0.5, 0.1), 1.0)
        assert np.any(next(terms))
        assert not any(np.any(next(terms)) for _ in range(3))

    def test_overflowing_series_coefficient_is_refused(self, grid128, wigner128):
        # the first term carries (hbar / 2)^2, beyond the float range here
        with pytest.raises(NonConvergenceError, match=r"\(hbar/2\)\^2 overflows"):
            moyal_rhs_series(wigner128, quartic_potential(grid128, 0.5, 0.1), 1e200, 1.0)

    def test_series_matches_spectral_at_equivalence_preset(self):
        # the verify suite's hbar = 1 inputs at its default n3: the series
        # converges inside the one term cap instead of stopping at it
        sigma_R, sigma_p, sigma_r, half_width = EQUIV_PRESETS[1.0]
        grid = make_grid(64, half_width)
        W = gaussian_wigner(grid, grid, 0.0, 0.0, sigma_p, sigma_r)
        U = potential_from_density(gaussian_density(grid, 0.0, sigma_R), 1.0)
        a = moyal_rhs_series(W, U, 1.0, 1.0)
        b = moyal_rhs_spectral(W, U, 1.0, 1.0)
        assert np.abs(a - b).max() / np.abs(b).max() < 1e-12

    def test_spectral_is_real_on_an_evolved_quartic_snapshot(self, grid64):
        # the snapshot carries momentum content at the unpaired Nyquist
        # bin, where an odd multiplier has no real value: applied there over
        # the full spectrum it left an imaginary residue of 2.1e-6 of the
        # real part.  The quartic series is exact (its fifth derivative
        # vanishes), so it is the oracle.
        W0 = gaussian_wigner(grid64, grid64, 0.0, 0.0, 2**-0.5, 2**-0.5)
        U = quartic_potential(grid64, 0.5, 0.1)
        params = EvolutionParams(mass=1.0, hbar=0.5, dt=1e-3, steps=1000, snapshot_every=1000)
        W = collect(W0, U, params)[0][-1][1]
        b = moyal_rhs_spectral(W, U, 0.5, 1.0)
        a = moyal_rhs_series(W, U, 0.5, 1.0)
        assert np.abs(a - b).max() / np.abs(b).max() < 1e-12

    def test_spectral_requires_positive_hbar(self, grid128, wigner128):
        with pytest.raises(ValueError):
            moyal_rhs_spectral(wigner128, quartic_potential(grid128, 0.5, 0.1), 0.0, 1.0)

    def test_small_hbar_consistency_slope(self, grid128, wigner128):
        U = quartic_potential(grid128, 0.5, 0.1)
        ref = liouville_rhs(wigner128, U, 1.0)
        hbars = np.array([1 / 16, 1 / 8, 1 / 4, 1 / 2])
        gaps = [
            np.abs(moyal_rhs_spectral(wigner128, U, h, 1.0) - ref).max() for h in hbars
        ]
        slope = np.polyfit(np.log(hbars), np.log(gaps), 1)[0]
        assert abs(slope - 2.0) < 0.1

    def test_conservation(self, grid128, wigner128):
        U = quartic_potential(grid128, 0.5, 0.1)
        rhs = moyal_rhs_series(wigner128, U, 1.0, 1.0)
        assert abs(rhs.sum() * grid128.step**2) < 1e-10


class TestCollisionRhs:
    def test_classical_reduces_to_liouville(self, rho_default, wigner_default):
        a = collided(joint_planes(rho_default, wigner_default, 0.0), 1.0, 1.0)
        U = potential_from_density(rho_default, 1.0)
        b = liouville_rhs(wigner_default, U, 1.0)
        assert np.abs(a - b).max() < 1e-8

    @pytest.mark.parametrize("builder", [quantum_joint_series, quantum_joint_spectral])
    def test_central_identity(self, grid64, rho_default, builder):
        # the collision integral on the built joint reproduces the
        # odd-derivative transport series with the density as potential;
        # widths keep the odd series inside its convergence window
        hbar, eps = 1.0, 1.0
        W = gaussian_wigner(grid64, grid64, 0.0, 0.0, 0.85, 0.85)
        a = built_collision(builder, rho_default, W, hbar, eps, 1.0)
        U = potential_from_density(rho_default, eps)
        b = moyal_rhs_series(W, U, hbar, 1.0)
        assert np.abs(a - b).max() / np.abs(b).max() < 1e-6

    def test_zero_epsilon_is_pure_streaming(self, rho_default, wigner_default):
        rhs = collided(joint_planes(rho_default, wigner_default, 0.0), 0.0, 1.0)
        U0 = free_potential(wigner_default.grid_r)
        streaming = liouville_rhs(wigner_default, U0, 1.0)
        assert np.abs(rhs - streaming).max() < 1e-13

    def test_conservation(self, rho_default, wigner_default, grid64):
        rhs = collided(joint_planes(rho_default, wigner_default, 1.0), 1.0, 1.0)
        assert abs(rhs.sum() * grid64.step**2) < 1e-10

    @pytest.mark.parametrize("hbar", sorted(EQUIV_PRESETS))
    def test_diagonal_matches_full_derivative(self, hbar):
        # each builder's diagonal from its factors against the full n^3 R-derivative's
        sigma_R, sigma_p, sigma_r, half_width = EQUIV_PRESETS[hbar]
        grid = make_grid(64, half_width)
        rho = gaussian_density(grid, 0.0, sigma_R)
        W = gaussian_wigner(grid, grid, 0.0, 0.0, sigma_p, sigma_r)
        for builder in (quantum_joint_series, quantum_joint_spectral):
            diagonal = streamed_planes(builder, rho, W, hbar).dR_diagonal
            expected = full_derivative_diagonal(whole_joint(builder, rho, W, hbar))
            assert np.abs(diagonal - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_takes_an_evolved_double_well_snapshot(self, grid64, rho_default, wigner_default):
        # propagate accepts this snapshot at its 1e-5 guard; the marginal of
        # its joint reaches 6.7e-8 of the peak at the boundary, over the 1e-10
        # guard of a prepared W
        params = EvolutionParams(mass=1.0, hbar=0.5, dt=1e-3, steps=500, snapshot_every=500)
        W = collect(wigner_default, quartic_potential(grid64, -0.5, 0.1), params)[0][-1][1]
        rhs = collided(joint_planes(rho_default, W, 0.5), 1.0, 1.0)
        expected = moyal_rhs_spectral(W, potential_from_density(rho_default, 1.0), 0.5, 1.0)
        assert np.abs(rhs - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_marginal_that_does_not_decay_is_refused(self, grid64, rho_default):
        # sigma_r = 3 in a box of half-width 8: the r-tails reach 2.8e-2 of the peak
        w = np.multiply.outer(gauss(grid64.points, 0.0, 0.7), gauss(grid64.points, 0.0, 3.0))
        values = np.multiply.outer(rho_default.values, w / (w.sum() * grid64.step**2))
        planes = planes_of(WholeJoint(grid64, grid64, grid64, values))
        with pytest.raises(DecayGuardError, match="Wigner distribution is not decaying"):
            collided(planes, 1.0, 1.0)


class TestPropagate:
    def test_nan_hbar_is_refused(self):
        # NaN fails every comparison, so a plain hbar < 0 test let it through
        # and propagate then ran the classical kick
        with pytest.raises(ValueError, match="hbar"):
            EvolutionParams(1.0, float("nan"), 1e-3, 10)

    def test_free_matches_analytic_shear(self, grid128, wigner128):
        params = EvolutionParams(mass=1.0, hbar=1.0, dt=1e-3, steps=1000, snapshot_every=1000)
        snapshots, _ = collect(wigner128, free_potential(grid128), params)
        ref = analytic_free_evolution(wigner128, 1.0, 1.0)
        assert np.abs(snapshots[-1][1].values - ref.values).max() < 1e-6

    def test_harmonic_center_tracks_cosine(self, grid128):
        # quarter period here; the full period runs in the acceptance suite
        r0, omega, dt = 1.0, 1.0, 1e-3
        W0 = gaussian_wigner(grid128, grid128, 0.0, r0, 2**-0.5, 2**-0.5)
        steps = int(round(np.pi / 2 / dt))
        params = EvolutionParams(mass=1.0, hbar=1.0, dt=dt, steps=steps, snapshot_every=steps)
        t, snap = collect(W0, harmonic_potential(grid128, omega), params)[0][-1]
        center = float((grid128.points[None, :] * snap.values).sum() * grid128.step**2)
        assert abs(center - r0 * np.cos(omega * t)) < 1e-4

    def test_probability_conserved(self, grid128, wigner128):
        U = quartic_potential(grid128, 0.5, 0.1)
        params = EvolutionParams(mass=1.0, hbar=1.0, dt=1e-3, steps=1000, snapshot_every=100)
        _, conserved = collect(wigner128, U, params)
        drift = max(abs(prob - 1.0) for _, prob, _ in conserved)
        assert drift <= 1e-10

    def test_quartic_energy_drift(self, grid128, wigner128):
        U = quartic_potential(grid128, 0.5, 0.1)
        params = EvolutionParams(mass=1.0, hbar=1.0, dt=1e-3, steps=1000, snapshot_every=100)
        _, conserved = collect(wigner128, U, params)
        energies = [e for _, _, e in conserved]
        assert max(abs(e - energies[0]) for e in energies) <= 1e-6

    def test_quartic_energy_drift_at_smallest_verified_grid(self, grid64):
        # 64^2 reads about 8.9e-7: the drift depends on the Nyquist bins
        # rotating through their imaginary part, not being projected out
        W0 = gaussian_wigner(grid64, grid64, 0.0, 0.0, 2**-0.5, 2**-0.5)
        U = quartic_potential(grid64, 0.5, 0.1)
        params = EvolutionParams(mass=1.0, hbar=1.0, dt=1e-3, steps=1000, snapshot_every=100)
        energies = [e for _, _, e in collect(W0, U, params)[1]]
        assert max(abs(e - energies[0]) for e in energies) <= 1e-6

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(["free", "harmonic", "quartic"]),
        centers=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        sigmas=st.tuples(st.floats(0.78, 0.875), st.floats(0.78, 0.875)),
        hbar=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        dt=st.floats(1e-4, 1e-3),
        steps=st.integers(1, 50),
        every=st.integers(1, 50),
    )
    def test_probability_conserved_at_every_snapshot(self, kind, centers, sigmas, hbar, dt, steps, every):
        # 32^2 on half_width 8 is coarse: widths from 0.78 (0.875 keeps
        # |center| + 8 sigma inside the box) and dt up to 1e-3 keep every
        # snapshot inside its decay guard; at width 0.75 and hbar = 2 the
        # quartic kicks its tails to the box within 50 steps
        grid = make_grid(32, 8.0)
        W0 = gaussian_wigner(grid, grid, *centers, *sigmas)
        U = {
            "free": free_potential(grid),
            "harmonic": harmonic_potential(grid, 1.0),
            "quartic": quartic_potential(grid, 0.5, 0.1),
        }[kind]
        params = EvolutionParams(mass=1.0, hbar=hbar, dt=dt, steps=steps, snapshot_every=every)
        _, conserved = collect(W0, U, params)
        assert len(conserved) == 2 + (steps - 1) // every
        assert all(abs(prob - 1.0) <= 1e-10 for _, prob, _ in conserved)

    def test_second_order_convergence(self, grid64):
        W0 = gaussian_wigner(grid64, grid64, 0.0, 0.5, 2**-0.5, 2**-0.5)
        U = quartic_potential(grid64, 0.5, 0.1)
        horizon = 0.4

        def run(dt):
            steps = int(round(horizon / dt))
            params = EvolutionParams(mass=1.0, hbar=1.0, dt=dt, steps=steps, snapshot_every=steps)
            return collect(W0, U, params)[0][-1][1].values

        ref = run(0.02 / 8)
        err_coarse = np.abs(run(0.02) - ref).max()
        err_fine = np.abs(run(0.01) - ref).max()
        assert err_coarse / err_fine == pytest.approx(4.0, rel=0.2)

    @pytest.mark.parametrize("hbar", [0.0, 1.0])
    @pytest.mark.parametrize("kind, passes", [("free", 2), ("harmonic", 4)])
    def test_identity_kick_is_skipped(self, grid64, monkeypatch, hbar, kind, passes):
        # a free kick phase is exactly 1, so a step only streams: 2 FFT passes, not 4
        calls = []

        def counted(transform):
            def call(*args, **kwargs):
                calls.append(transform)
                return transform(*args, **kwargs)

            return call

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        W0 = gaussian_wigner(grid64, grid64, 0.0, 0.0, 0.7, 0.7)
        U = free_potential(grid64) if kind == "free" else harmonic_potential(grid64, 1.0)

        def count(steps):
            calls.clear()
            collect(W0, U, EvolutionParams(mass=1.0, hbar=hbar, dt=1e-3, steps=steps, snapshot_every=steps))
            return len(calls)

        assert count(20) - count(10) == 10 * passes

    def test_traced_peak_holds_three_complex_arrays(self):
        # the state, the kick and the full stream (48 bytes a point), and 16
        # more: in a step the transposing buffer, and while a snapshot is
        # closed, with the buffer released, the real snapshot and a real
        # temporary of its energy; holding the half-stream whole and closing
        # snapshots from a copy of the state read 88
        grid = make_grid(256, 8.0)
        W0 = gaussian_wigner(grid, grid, 0.3, -0.4, 0.7, 0.7)
        U = potential_from_density(gaussian_density(grid, 0.0, 1.0), 1.0)
        params = EvolutionParams(mass=1.0, hbar=1.0, dt=1e-3, steps=10, snapshot_every=5)

        def run():
            propagate(W0, U, params, each_snapshot=lambda t, W: None)

        assert peak_traced_bytes(run) < 72 * grid.n**2

    def test_traced_peak_of_a_free_potential_holds_two_complex_arrays(self):
        # a kick phase of exactly 1 is not held, nor is the transposing buffer:
        # the state and the full stream (32 bytes a point), the real snapshot
        # and a real temporary of its energy; holding the kick read 65
        grid = make_grid(256, 8.0)
        W0 = gaussian_wigner(grid, grid, 0.3, -0.4, 0.7, 0.7)
        params = EvolutionParams(mass=1.0, hbar=1.0, dt=1e-3, steps=10, snapshot_every=5)

        def run():
            propagate(W0, free_potential(grid), params, each_snapshot=lambda t, W: None)

        assert peak_traced_bytes(run) < 56 * grid.n**2

    def test_initial_state_is_not_held(self, grid64):
        held = []

        def each_snapshot(t, W):
            held.append(weakref.ref(W) if t == 0.0 else held[0]() is not None)

        params = EvolutionParams(mass=1.0, hbar=1.0, dt=1e-3, steps=3, snapshot_every=1)
        U = harmonic_potential(grid64, 1.0)
        # built in the call, W0 has no holder but propagate
        propagate(gaussian_wigner(grid64, grid64, 0.0, 0.0, 0.7, 0.7), U, params, each_snapshot=each_snapshot)
        assert held[1:] == [False, False, False]

    def test_snapshot_times_strictly_increase(self, grid64):
        W0 = gaussian_wigner(grid64, grid64, 0.0, 0.0, 0.7, 0.7)
        params = EvolutionParams(mass=1.0, hbar=0.0, dt=0.01, steps=25, snapshot_every=10)
        snapshots, conserved = collect(W0, free_potential(grid64), params)
        times = [t for t, _ in snapshots]
        assert times[0] == 0.0
        assert all(b > a for a, b in zip(times, times[1:]))
        assert snapshots[0][1] is W0
        assert [t for t, _, _ in conserved] == times


class TestDynamicsOracles:
    def test_quartic_oracle_runs_at_its_calibrated_mass(self):
        # a2 and a4 are set for mass 1; at mass 1.7 the quartic's momentum
        # tails reach the box (a decay-guard row at n2 = 64).  The free and
        # harmonic references are exact at any mass and keep the configured one.
        checks = check_dynamics_oracles(parse_config({"mass": 1.7, "grid": {"n2": 64, "n3": 64}}))
        assert [c.name for c in checks] == [
            "dynamics[free_shear]",
            "dynamics[harmonic_center]",
            "dynamics[probability_drift]",
            "dynamics[energy_drift]",
        ]
        assert all(c.passed for c in checks), [(c.name, c.measured, c.note) for c in checks]

    @pytest.mark.parametrize("mass, passed", [(0.5, True), (0.48, False)])
    def test_free_shear_fails_on_a_tail_wrapped_through_the_face(self, monkeypatch, mass, passed):
        # at t = 1 the sheared tails reach the r faces at 4.1e-6 (mass 0.5)
        # and 8.9e-6 (0.48) of the peak, under the stepper's 1e-5 guard.  The
        # periodic stepper wraps them through the faces and the closed form
        # on the line does not: the row reads that wrap (8.7e-7 and 2.0e-6)
        # and fails above its 1e-6; the stepper is the periodic image of the
        # closed form to rounding.
        monkeypatch.setattr(verification, "_oracle_steps", lambda dt: (1000.0, 1.0, 1.0))
        config = parse_config({"mass": mass})
        row = check_dynamics_oracles(config)[0]
        assert (row.name, row.passed, row.note) == ("dynamics[free_shear]", passed, "")
        grid = config.grid2()
        params = EvolutionParams(mass=mass, hbar=config.hbar, dt=config.dt, steps=1000, snapshot_every=1000)
        snapshots, _ = collect(config.wigner(grid), free_potential(grid), params)
        p, L = grid.points[:, None], config.half_width
        r = np.mod(grid.points - p / mass + L, 2.0 * L) - L  # r - p t / m taken back into the box
        v = np.exp(-(p**2) / (2.0 * config.sigma_p**2) - r**2 / (2.0 * config.sigma_r**2))
        assert np.abs(snapshots[-1][1].values - v / (v.sum() * grid.step**2)).max() < 1e-13


class TestAnalyticFreeEvolution:
    def test_zero_time_is_identity(self, wigner128):
        out = analytic_free_evolution(wigner128, 0.0, 1.0)
        assert np.abs(out.values - wigner128.values).max() < 1e-14

    def test_group_property(self, wigner128):
        one = analytic_free_evolution(analytic_free_evolution(wigner128, 0.3, 1.0), 0.5, 1.0)
        both = analytic_free_evolution(wigner128, 0.8, 1.0)
        assert np.abs(one.values - both.values).max() < 1e-8

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("t, mass", [(0.0, 1.0), (0.7, 1.3)])
    def test_keeps_the_bits_of_the_whole_array_shear(self, n, t, mass):
        grid = make_grid(n, 8.0)
        W0 = gaussian_wigner(grid, grid, 0.3, -0.4, 0.7, 0.7)
        assert np.array_equal(analytic_free_evolution(W0, t, mass).values, whole_array_free_evolution(W0, t, mass))

    @pytest.mark.parametrize("mass, p0, r0", [(1.0, 0.0, 0.0), (1.7, 0.0, 0.0), (1.3, 0.5, -0.4)])
    def test_matches_the_closed_form_that_free_shear_reads(self, mass, p0, r0):
        # W0(p, r - p t / m) on the verify grid, normalized as W0 is
        config = parse_config({"mass": mass, "wigner_preset": {"p0": p0, "r0": r0}})
        grid = config.grid2()
        streamed = analytic_free_evolution(config.wigner(grid), 1.0, mass).values
        assert np.abs(streamed - verification._free_gaussian(config, grid, 1.0)).max() < 1e-13

    def test_ehrenfest_center_motion(self, grid128):
        W0 = gaussian_wigner(grid128, grid128, 0.5, -0.5, 2**-0.5, 2**-0.5)
        t, m = 1.0, 1.0
        out = analytic_free_evolution(W0, t, m)
        vol = grid128.step**2
        r_mean = float((grid128.points[None, :] * out.values).sum() * vol)
        assert abs(r_mean - (-0.5 + t * 0.5 / m)) < 1e-8


def _potential(kind, grid):
    if kind == "free":
        return free_potential(grid)
    if kind == "harmonic":
        return harmonic_potential(grid, 1.0)
    if kind == "quartic":
        return quartic_potential(grid, 0.5, 0.1)
    return potential_from_density(gaussian_density(grid, 0.0, 1.0), 1.0)


@lru_cache(maxsize=None)
def _reference_run(kind, hbar, steps):
    grid = make_grid(64, 8.0)
    W0 = gaussian_wigner(grid, grid, 0.0, 0.0, 2**-0.5, 2**-0.5)
    U = _potential(kind, grid)
    params = EvolutionParams(mass=1.0, hbar=hbar, dt=1e-3, steps=steps)
    return W0, U, complex_strang_reference(W0, U, params)


# hbar = 1 alone would hide a wrong power of hbar in the kick.  At
# hbar = 2 the quartic's kick spreads W to the edge of this 64^2 box,
# and propagate refuses it (DecayGuardError), so it has no trajectory.
STEPPER_CASES = [
    (kind, hbar)
    for kind in ("free", "harmonic", "quartic", "from_density")
    for hbar in (0.0, 0.5, 1.0, 2.0)
    if not (kind == "quartic" and hbar == 2.0)
]


class TestStepperEquivalence:
    """The FSAL stepper against the six-pass Strang loop it replaced."""

    @pytest.mark.parametrize("snapshot_every", [1, 7, 200])
    @pytest.mark.parametrize("kind,hbar", STEPPER_CASES)
    def test_matches_complex_reference(self, kind, hbar, snapshot_every):
        steps, dt = 200, 1e-3
        W0, U, ref = _reference_run(kind, hbar, steps)
        params = EvolutionParams(mass=1.0, hbar=hbar, dt=dt, steps=steps, snapshot_every=snapshot_every)
        snapshots, _ = collect(W0, U, params)
        taken = [0] + [
            step for step in range(1, steps + 1) if step % snapshot_every == 0 or step == steps
        ]
        assert [t for t, _ in snapshots] == [0.0] + [step * dt for step in taken[1:]]
        gap = max(np.abs(snap.values - ref[step]).max() for step, (_, snap) in zip(taken, snapshots))
        # rounding only: projecting the Nyquist bins onto real values
        # after each substep shows up here at about 1e-9
        assert gap <= 1e-12

    @pytest.mark.parametrize("kind", ["free", "harmonic", "quartic", "from_density"])
    def test_single_step(self, kind):
        W0, U, ref = _reference_run(kind, 1.0, 1)
        params = EvolutionParams(mass=1.0, hbar=1.0, dt=1e-3, steps=1)
        snapshots, _ = collect(W0, U, params)
        assert [t for t, _ in snapshots] == [0.0, 1e-3]
        assert np.abs(snapshots[-1][1].values - ref[1]).max() <= 1e-12

    @pytest.mark.parametrize("every", [1, 7, 20])
    @pytest.mark.parametrize("hbar", [0.0, 1.0])
    @pytest.mark.parametrize("kind", ["free", "quartic", "from_density"])
    @pytest.mark.parametrize("n", [64, 256])
    def test_keeps_the_bits_of_the_whole_array_stepper(self, n, kind, hbar, every):
        # TestStepperEquivalence's 1e-12 gap would not see a change of operand
        # order in a complex product; the stepper's blocks must not change a bit
        grid = make_grid(n, 8.0)
        W0 = gaussian_wigner(grid, grid, 0.3, -0.4, 0.7, 0.7)
        params = EvolutionParams(mass=1.3, hbar=hbar, dt=1e-3, steps=20, snapshot_every=every)
        snapshots, conserved = collect(W0, _potential(kind, grid), params)
        ref_snapshots, ref_conserved = whole_array_propagate(W0, _potential(kind, grid), params)
        assert [t for t, _ in snapshots] == [t for t, _ in ref_snapshots]
        assert all(np.array_equal(W.values, ref.values) for (_, W), (_, ref) in zip(snapshots, ref_snapshots))
        assert conserved == ref_conserved

    @pytest.mark.parametrize("every", [1, 5])
    @pytest.mark.parametrize("hbar", [0.0, 1.0])
    @pytest.mark.parametrize("kind", ["free", "harmonic", "quartic", "from_density"])
    @pytest.mark.parametrize("n", [64, 256])
    def test_keeps_the_bits_of_the_inplace_stepper(self, n, kind, hbar, every):
        # each 1-D transform through the transposing buffer sees the input
        # that the in-place pass down the columns gave it
        grid = make_grid(n, 8.0)
        W0 = gaussian_wigner(grid, grid, 0.3, -0.4, 0.7, 0.7)
        params = EvolutionParams(mass=1.3, hbar=hbar, dt=1e-3, steps=10, snapshot_every=every)
        snapshots, conserved = collect(W0, _potential(kind, grid), params)
        ref_snapshots, ref_conserved = inplace_propagate(W0, _potential(kind, grid), params)
        assert [t for t, _ in snapshots] == [t for t, _ in ref_snapshots]
        assert all(np.array_equal(W.values, ref.values) for (_, W), (_, ref) in zip(snapshots, ref_snapshots))
        assert conserved == ref_conserved

    def test_trajectory_ignores_snapshot_cadence(self, grid64):
        W0 = gaussian_wigner(grid64, grid64, 0.3, -0.4, 0.7, 0.7)
        U = quartic_potential(grid64, 0.5, 0.1)
        runs = [
            collect(W0, U, EvolutionParams(mass=1.0, hbar=1.0, dt=1e-3, steps=50, snapshot_every=every))
            for every in (1, 7, 50)
        ]
        finals = [snapshots[-1][1].values for snapshots, _ in runs]
        assert np.array_equal(finals[0], finals[1]) and np.array_equal(finals[0], finals[2])
