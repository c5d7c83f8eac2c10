"""Presets, marginals, moment quadrature, and the sampling oracle."""

import numpy as np
import pytest

from phasekin import (
    DecayGuardError,
    JointSums,
    NormalizationError,
    VirtualDensity,
    WignerDistribution,
    gaussian_density,
    gaussian_wigner,
    make_grid,
    marginal_over_R,
    marginal_over_pr,
    moments,
    quantum_joint_series,
    quantum_joint_spectral,
)
from phasekin.coupling import joint_planes
from phasekin.grids import ensure_decaying
from phasekin.states import JOINT_DECAY_TOL, JOINT_NORMALIZATION_TOL, _unit_integral

from conftest import SIGMA_COHERENT, gauss
from reference import (
    full_weighting_moments,
    plane_moments,
    planes_of,
    product_joint,
    sample_joint,
    streamed_sums,
    whole_joint,
)


def dense_quadrature_moment(mean, sigma, order, half_width=8.0, n=4096):
    """High-resolution quadrature oracle, independent of the package grids."""
    x = np.linspace(-half_width, half_width, n, endpoint=False)
    pdf = gauss(x, mean, sigma)
    dx = x[1] - x[0]
    return float((x**order * pdf).sum() * dx / (pdf.sum() * dx))


class TestGaussianDensity:
    def test_normalized(self, grid64):
        rho = gaussian_density(grid64, 0.0, 1.0)
        assert abs(rho.values.sum() * grid64.step - 1.0) < 1e-8

    def test_variance(self, grid64, rho_default):
        assert abs(moments(rho_default, [(2,)])[(2,)] - 1.0) < 1e-6

    def test_decay_guard(self, grid64):
        with pytest.raises(DecayGuardError):
            gaussian_density(grid64, 6.0, 1.0)

    def test_bad_sigma(self, grid64):
        with pytest.raises(ValueError):
            gaussian_density(grid64, 0.0, -1.0)


class TestGaussianWigner:
    def test_normalized(self, wigner_default, grid64):
        assert abs(wigner_default.values.sum() * grid64.step**2 - 1.0) < 1e-8

    def test_momentum_variance(self, wigner_default):
        assert abs(moments(wigner_default, [(2, 0)])[(2, 0)] - 0.5) < 1e-6

    def test_heisenberg_saturating_preset_accepted(self, grid64):
        # sigma_r * sigma_p = 0.5 is the equality case at hbar = 1
        w = gaussian_wigner(grid64, grid64, 0.0, 0.0, SIGMA_COHERENT, SIGMA_COHERENT)
        assert w.normalization == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_are_a_normalization_error(rho_default, wigner_default, bad):
    F = product_joint(rho_default, wigner_default)
    for build, values in (
        (lambda v: VirtualDensity(rho_default.grid, v), rho_default.values),
        (lambda v: WignerDistribution(wigner_default.grid_p, wigner_default.grid_r, v), wigner_default.values),
        (lambda v: sums_in_blocks(rho_default, wigner_default, v, 4), F.values),
    ):
        spoiled = values.copy()
        spoiled.flat[spoiled.size // 2] = bad
        with pytest.raises(NormalizationError, match="integrates to (nan|inf|-inf)"):
            build(spoiled)


class TestMarginals:
    def test_classical_marginals_exact(self, rho_default, wigner_default):
        sums = streamed_sums(quantum_joint_series, rho_default, wigner_default, 0.0)
        assert np.abs(marginal_over_R(sums).values - wigner_default.values).max() < 1e-12
        assert np.abs(marginal_over_pr(sums).values - rho_default.values).max() < 1e-12

    @pytest.mark.parametrize("hbar", [0.0, 1.0])
    def test_quantum_marginals(self, rho_default, wigner_default, hbar):
        # series corrections are exact derivatives, so they integrate away
        sums = streamed_sums(quantum_joint_spectral, rho_default, wigner_default, hbar)
        tol = 1e-12 if hbar == 0.0 else 1e-8
        assert np.abs(marginal_over_R(sums).values - wigner_default.values).max() < tol
        assert np.abs(marginal_over_pr(sums).values - rho_default.values).max() < tol


def sums_in_blocks(rho, W, values, rows):
    """The JointSums of ``values``, a joint on the grids of ``rho`` and ``W``,
    added ``rows`` rows of R at a time."""
    sums = JointSums(rho, W)
    for start in range(0, len(values), rows):
        sums.add(values[start : start + rows])
    return sums.finish()


class TestJointSums:
    @pytest.mark.parametrize("rows", [1, 3, 4, 64])
    @pytest.mark.parametrize("kind", ["spectral", "random"])
    def test_reductions_equal_the_whole_array_ones_bit_for_bit(self, rho_default, wigner_default, rows, kind):
        # random values tell numpy's summation order apart from others
        F = whole_joint(quantum_joint_spectral, rho_default, wigner_default, 1.0)
        v = F.values
        if kind == "random":
            v = np.random.default_rng(0).random(v.shape)
            v /= v.sum() * F.grid_R.step * F.grid_p.step * F.grid_r.step
        sums = sums_in_blocks(rho_default, wigner_default, v, rows)
        assert np.array_equal(sums.over_R, v.sum(axis=0))
        assert np.array_equal(sums.over_pr, v.sum(axis=(1, 2)))

    def test_readers_equal_the_whole_array_forms(self, rho_default, wigner_default):
        F = whole_joint(quantum_joint_spectral, rho_default, wigner_default, 1.0)
        sums = sums_in_blocks(rho_default, wigner_default, F.values, 4)
        over_R = F.values.sum(axis=0) * F.grid_R.step
        over_pr = F.values.sum(axis=(1, 2)) * F.grid_p.step * F.grid_r.step
        assert np.array_equal(marginal_over_R(sums).values, over_R)
        assert np.array_equal(marginal_over_pr(sums).values, over_pr)
        pairs = [(2, 2), (2, 0), (0, 2), (1, 3), (0, 0)]
        planes = planes_of(F)
        assert moments(planes, pairs) == plane_moments(F, pairs)  # the whole-array route for a joint
        with pytest.raises(ValueError, match="more entries than axes"):
            moments(planes, [(0, 0, 2)])

    @pytest.mark.parametrize("what", ["moment input", "characteristic-function input"])
    def test_decay_guard_raises_as_the_whole_array_guard(self, rho_default, wigner_default, what):
        # at hbar = 2 the default joint's tails reach 2.8e-6 of its peak, over
        # the 1e-7 guard; its planes' guard reads the whole joint's
        F = whole_joint(quantum_joint_spectral, rho_default, wigner_default, 2.0)
        with pytest.raises(DecayGuardError) as whole:
            ensure_decaying(F.values, JOINT_DECAY_TOL, what)
        with pytest.raises(DecayGuardError) as factors:
            joint_planes(rho_default, wigner_default, 2.0).ensure_decaying(JOINT_DECAY_TOL, what)
        assert str(factors.value) == str(whole.value)

    @pytest.mark.parametrize("spoil", ["scaled", "nan"])
    def test_normalization_guard_raises_as_the_joint_does(self, rho_default, wigner_default, spoil):
        F = whole_joint(quantum_joint_spectral, rho_default, wigner_default, 1.0)
        values = 1.5 * F.values
        if spoil == "nan":
            values[40, 3, 5] = np.nan
        grids = (F.grid_R, F.grid_p, F.grid_r)
        with pytest.raises(NormalizationError) as whole:
            # the check a joint's planes take of the sum of their over_pr
            _unit_integral(values.sum(axis=(1, 2)).sum(), grids, JOINT_NORMALIZATION_TOL, "F")
        with pytest.raises(NormalizationError) as streamed:
            sums_in_blocks(rho_default, wigner_default, values, 4)
        assert str(streamed.value) == str(whole.value)

    def test_rows_must_cover_the_grid_once(self, rho_default, wigner_default):
        F = product_joint(rho_default, wigner_default)
        sums = JointSums(rho_default, wigner_default)
        sums.add(F.values[:60])
        with pytest.raises(ValueError, match="60 rows of R added, expected 64"):
            sums.finish()
        with pytest.raises(ValueError, match="does not fit"):
            sums.add(F.values[:8])


class TestMoments:
    def test_gaussian_second_moment(self, grid64):
        rho = gaussian_density(grid64, 0.0, 0.7)
        assert abs(moments(rho, [(2,)])[(2,)] - 0.49) < 1e-6
        assert abs(moments(rho, [(2,)])[(2,)] - dense_quadrature_moment(0.0, 0.7, 2)) < 1e-6

    def test_zeroth_moment_is_one(self, rho_default, wigner_default):
        assert abs(moments(rho_default, [(0,)])[(0,)] - 1.0) < 1e-7
        assert abs(moments(wigner_default, [(0, 0)])[(0, 0)] - 1.0) < 1e-7

    def test_gaussian_fourth_moment(self, grid64):
        rho = gaussian_density(grid64, 0.0, 1.0)
        value = moments(rho, [(4,)])[(4,)]
        assert abs(value - 3.0) < 1e-5
        assert abs(value - dense_quadrature_moment(0.0, 1.0, 4)) < 1e-5

    def test_order_cap(self, rho_default):
        with pytest.raises(ValueError):
            moments(rho_default, [(9,)])

    def test_shifted_gaussian_binomial_identity(self, grid64):
        mu, sigma = 1.0, 0.8
        rho = gaussian_density(grid64, mu, sigma)
        m = moments(rho, [(1,), (2,), (4,)])
        assert abs(m[(1,)] - mu) < 1e-6
        assert abs(m[(2,)] - (sigma**2 + mu**2)) < 1e-5
        expected4 = mu**4 + 6 * mu**2 * sigma**2 + 3 * sigma**4
        assert abs(m[(4,)] - expected4) < 1e-5

    def test_linearity_in_field(self, grid64):
        a = gaussian_density(grid64, 0.0, 1.0)
        b = gaussian_density(grid64, 0.5, 0.7)
        mixed = VirtualDensity(grid64, 0.5 * a.values + 0.5 * b.values)
        m_mixed = moments(mixed, [(2,)])[(2,)]
        m_each = 0.5 * moments(a, [(2,)])[(2,)] + 0.5 * moments(b, [(2,)])[(2,)]
        assert abs(m_mixed - m_each) < 1e-12

    def test_joint_pair_orders_marginalize_r(self, rho_default, wigner_default):
        m = moments(joint_planes(rho_default, wigner_default, 0.0), [(2, 2), (2, 0), (0, 2)])
        # independence: <R^2 p^2> = <R^2><p^2> for the factorized joint
        assert abs(m[(2, 2)] - m[(2, 0)] * m[(0, 2)]) < 1e-10

    @pytest.mark.parametrize("orders", [[(2, 2), (2, 0), (0, 2)], [(4, 0), (2, 4), (0, 0)]])
    def test_joint_pairs_match_full_weighting(self, rho_default, wigner_default, orders):
        # r is summed out once before any weighting; the result moves by rounding only
        F = whole_joint(quantum_joint_spectral, rho_default, wigner_default, 1.0)
        expected = full_weighting_moments(F, orders)
        for key, value in moments(planes_of(F), orders).items():
            assert abs(value - expected[key]) <= 1e-14 * abs(expected[key])


class TestSampleJoint:
    def test_classical_sampling_mean(self, rho_default, wigner_default):
        F = product_joint(rho_default, wigner_default)
        samples = sample_joint(F, 10**6, seed=42)
        se_R = 1.0 / np.sqrt(10**6)
        assert abs(samples[:, 0].mean() - 0.0) < 4 * se_R

    def test_sampling_matches_known_variances(self, rho_default, wigner_default):
        F = product_joint(rho_default, wigner_default)
        samples = sample_joint(F, 200_000, seed=3)
        assert abs(samples[:, 0].var() - 1.0) < 0.02
        assert abs(samples[:, 1].var() - 0.5) < 0.01

    def test_zero_count_rejected(self, rho_default, wigner_default):
        F = product_joint(rho_default, wigner_default)
        with pytest.raises(ValueError):
            sample_joint(F, 0, seed=1)

    def test_signed_density_rejected(self, rho_default, wigner_default):
        F = whole_joint(quantum_joint_spectral, rho_default, wigner_default, 2.0)
        assert F.values.min() < 0  # direct scan: genuinely quantum
        with pytest.raises(ValueError, match="negative lobes"):
            sample_joint(F, 100, seed=1)

    def test_seed_reproducibility(self, rho_default, wigner_default):
        F = product_joint(rho_default, wigner_default)
        a = sample_joint(F, 1000, seed=7)
        b = sample_joint(F, 1000, seed=7)
        assert np.array_equal(a, b)

    def test_two_seeds_within_binomial_error(self, rho_default, wigner_default):
        F = product_joint(rho_default, wigner_default)
        n = 10**5
        a = sample_joint(F, n, seed=11)
        b = sample_joint(F, n, seed=12)
        pa = (a[:, 0] > 0).mean()
        pb = (b[:, 0] > 0).mean()
        sigma_diff = np.sqrt(2 * 0.5 * 0.5 / n)
        assert abs(pa - pb) <= 3 * sigma_diff
