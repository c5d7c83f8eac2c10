"""Coupling kernel and the two joint builders checking each other."""

import math
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phasekin import (
    DecayGuardError,
    GridMismatchError,
    ImaginaryResidueError,
    JointSums,
    NonConvergenceError,
    VirtualDensity,
    WignerDistribution,
    collision_rhs,
    gaussian_density,
    gaussian_wigner,
    kappa22,
    make_grid,
    marginal_over_R,
    moyal_rhs_spectral,
    potential_from_density,
    quantum_joint_series,
    quantum_joint_spectral,
)
from phasekin import coupling
from phasekin.coupling import INVERSE_BLOCK, joint_planes, sinc_values
from phasekin.cumulants import PHI_RATIO_FLOOR, phi_field
from phasekin.grids import face_sup, fourier_forward
from phasekin.states import marginal_residuals, preset_fits

from reference import (
    dense_joint_series,
    full_complex_joint,
    joint_transform,
    one_shot_spectral_joint,
    peak_traced_bytes,
    planes_of,
    product_joint,
    streamed_sums,
    whole_joint,
    whole_product_series,
)


def ignore(block):
    """An ``each_block`` that keeps nothing."""


def sinc(x):
    return float(sinc_values(np.array([x]))[0])


def log_sinc_zeta_oracle(x, terms=50, dps=50):
    """ln(sin x / x) from the product formula: -sum zeta(2k) x^(2k) / (k pi^(2k)).

    Extended-precision series evaluation, independent of the package's
    ratio-plus-Taylor implementation.
    """
    with mpmath.workdps(dps):
        xx = mpmath.mpf(x)
        total = mpmath.mpf(0)
        for k in range(1, terms + 1):
            total -= mpmath.zeta(2 * k) * xx ** (2 * k) / (k * mpmath.pi ** (2 * k))
        return float(total)


class TestCouplingKernel:
    def test_origin(self):
        assert sinc(0.0) == 1.0

    def test_half_pi(self):
        assert sinc(math.pi / 2) == pytest.approx(2 / math.pi, rel=1e-15)

    @pytest.mark.parametrize("x", [1e-5, 5e-5, 9.99e-5, 1e-4, 2e-4, 0.3, 1.0, 2.5, 4.0])
    def test_across_switch_point(self, x):
        # the Taylor branch below 1e-4 and sin(x)/x above it, against extended precision
        with mpmath.workdps(50):
            exact = float(mpmath.sin(x) / x)
        assert abs(sinc(x) - exact) <= 1e-15 * abs(exact)

    def test_log_sinc_against_zeta_series(self):
        # phi = ln sinc is what the generating function reads, so the
        # kernel must hold its precision in log space too
        assert abs(math.log(sinc(0.1)) - log_sinc_zeta_oracle(0.1)) < 1e-12

    @pytest.mark.parametrize("x", [1e-5, 5e-5, 2e-4, 0.3, 1.0, 2.5])
    def test_log_sinc_across_switch_point(self, x):
        # the oracle series converges like (x/pi)^(2k); give it enough terms
        assert abs(math.log(sinc(x)) - log_sinc_zeta_oracle(x, terms=400)) < 1e-12

    def test_evenness(self):
        x = np.array([5e-5, 0.3, 1.7, 4.0])
        assert np.array_equal(sinc_values(x), sinc_values(-x))

    def test_log_undefined_at_kernel_zero(self, rho_default, wigner_default):
        # ln sinc has no value at the kernel zeros; phi_field leaves every
        # lattice point where the kernel falls below its ratio floor unmasked
        assert abs(sinc(math.pi)) < 1e-15
        hbar = 1.0
        phi = phi_field(joint_planes(rho_default, wigner_default, hbar), rho_default, wigner_default)
        x = hbar * np.multiply.outer(phi.K, phi.q) / 2.0
        near_zero = np.abs(sinc_values(x)) < PHI_RATIO_FLOOR
        assert near_zero.any() and not phi.mask[near_zero].any()
        assert np.isnan(phi.values[near_zero]).all()


class TestClassicalJoint:
    """The classical joint rho W, as the series builder streams it at hbar = 0."""

    def test_normalized(self, rho_default, wigner_default, grid64):
        F = whole_joint(quantum_joint_series, rho_default, wigner_default, 0.0)
        assert abs(F.values.sum() * grid64.step**3 - 1.0) < 1e-9

    def test_marginal_is_input(self, rho_default, wigner_default):
        sums = streamed_sums(quantum_joint_series, rho_default, wigner_default, 0.0)
        assert np.abs(marginal_over_R(sums).values - wigner_default.values).max() < 1e-14

    def test_nonnegative_for_nonnegative_wigner(self, rho_default, wigner_default):
        F = whole_joint(quantum_joint_series, rho_default, wigner_default, 0.0)
        assert F.values.min() >= -1e-12


@pytest.mark.parametrize(
    "take",
    [
        lambda rho, W: quantum_joint_series(rho, W, 1.0, ignore),
        lambda rho, W: quantum_joint_spectral(rho, W, 1.0, ignore),
        lambda rho, W: joint_planes(rho, W, 1.0),
        JointSums,
    ],
    ids=["series", "spectral", "planes", "sums"],
)
def test_grid_mismatch_rejected(rho_default, take):
    # R and r share one grid: each builder and each reduction refuses a W
    # whose r grid is not rho's
    other = make_grid(32, 8.0)
    W = gaussian_wigner(other, other, 0.0, 0.0, 0.7, 0.7)
    with pytest.raises(GridMismatchError, match="R vs r axis"):
        take(rho_default, W)


class TestQuantumJointSeries:
    def test_hbar_zero_is_classical(self, rho_default, wigner_default):
        # no terms at hbar = 0: each block is a product with one inner term, exact
        a = whole_joint(quantum_joint_series, rho_default, wigner_default, 0.0)
        assert np.array_equal(a.values, np.multiply.outer(rho_default.values, wigner_default.values))

    def test_matches_spectral_builder(self, rho_default, wigner_default):
        a = whole_joint(quantum_joint_series, rho_default, wigner_default, 1.0)
        b = whole_joint(quantum_joint_spectral, rho_default, wigner_default, 1.0)
        assert np.abs(a.values - b.values).max() < 1e-8

    def test_nonconvergence_detected(self, rho_default, wigner_default):
        # hbar above 2 sigma_R sigma_p: the series is genuinely asymptotic
        with pytest.raises(NonConvergenceError):
            quantum_joint_series(rho_default, wigner_default, 2.0, ignore)

    def test_converges_across_the_documented_window(self, rho_default):
        # sigma_R = hbar = 1, so hbar^2 / (4 sigma_R^2 sigma_p^2) = 0.9, inside
        # hbar < 2 sigma_R sigma_p; hbar = 2 above is outside and raises
        grid = rho_default.grid
        sigma_p = 0.5 / math.sqrt(0.9)
        W = gaussian_wigner(grid, grid, 0.0, 0.0, sigma_p, sigma_p)
        a = whole_joint(quantum_joint_series, rho_default, W, 1.0)
        b = whole_joint(quantum_joint_spectral, rho_default, W, 1.0)
        assert np.abs(a.values - b.values).max() < 1e-12

    def test_only_the_result_is_n_cubed(self, grid128, wigner128, monkeypatch):
        # the terms stay factored and the product streams: one block of
        # rows of R, the (n, N + 1) and (N + 1, n^2) factor matrices and
        # O(n^2) scratch; no n^3 result
        used = []
        accept = coupling.accept_series

        def counting(*args):
            accepted, verdict = accept(*args)
            used.append(len(accepted))
            return accepted, verdict

        monkeypatch.setattr(coupling, "accept_series", counting)
        rho = gaussian_density(grid128, 0.0, 1.0)
        peak = peak_traced_bytes(quantum_joint_series, rho, wigner128, 1.0, ignore)
        n, factor_rows = grid128.n, used[0] + 1
        assert factor_rows > 21  # past the old 20-term cap
        assert peak <= 8 * INVERSE_BLOCK * n**2 + 8 * factor_rows * (n**2 + n) + 48 * n**2


class TestQuantumJointSpectral:
    def test_hbar_zero_is_classical(self, rho_default, wigner_default):
        a = whole_joint(quantum_joint_spectral, rho_default, wigner_default, 0.0)
        b = product_joint(rho_default, wigner_default)
        assert np.abs(a.values - b.values).max() < 1e-12

    def test_kernel_reconstruction(self, rho_default, wigner_default, grid64):
        # transform of the built joint over the product of the marginal
        # transforms recovers the kernel itself
        hbar = 1.0
        F = whole_joint(quantum_joint_spectral, rho_default, wigner_default, hbar)
        f_t = joint_transform(F)
        rho_t = fourier_forward(rho_default.values, (grid64,), (0,))
        w_t = fourier_forward(wigner_default.values, (grid64, grid64), (0, 1))
        denom = rho_t[:, None, None] * w_t[None, :, :]
        mask = np.abs(denom) > 1e-6 * np.abs(denom).max()
        K = grid64.frequencies
        x = hbar * np.multiply.outer(K, K) / 2.0
        expected = np.where(np.abs(x) < 1e-4, 1 - x**2 / 6, np.sin(np.where(x == 0, 1, x)) / np.where(x == 0, 1, x))
        ratio = np.where(mask, f_t / np.where(mask, denom, 1.0), 0.0)
        assert np.abs(ratio.real - expected[:, :, None])[mask].max() < 1e-8

    def test_hbar_parity(self, rho_default, wigner_default):
        a = whole_joint(quantum_joint_spectral, rho_default, wigner_default, 1.0)
        b = whole_joint(quantum_joint_spectral, rho_default, wigner_default, -1.0)
        assert np.array_equal(a.values, b.values)
        a = whole_joint(quantum_joint_series, rho_default, wigner_default, 0.5)
        b = whole_joint(quantum_joint_series, rho_default, wigner_default, -0.5)
        assert np.array_equal(a.values, b.values)

    def test_kernel_symmetry_of_built_joint(self, rho_default, wigner_default, grid64):
        F = whole_joint(quantum_joint_spectral, rho_default, wigner_default, 1.0)
        f_t = joint_transform(F)
        rho_t = fourier_forward(rho_default.values, (grid64,), (0,))
        w_t = fourier_forward(wigner_default.values, (grid64, grid64), (0, 1))
        denom = rho_t[:, None, None] * w_t[None, :, :]
        mask = np.abs(denom) > 1e-6 * np.abs(denom).max()
        ratio = np.where(mask, f_t / np.where(mask, denom, 1.0), np.nan)
        # reconstructed kernel is even under (K, q) -> (-K, -q); skip the
        # unpaired Nyquist row/column
        r = ratio[1:, 1:, grid64.n // 2]
        m = mask[1:, 1:, grid64.n // 2]
        keep = m & m[::-1, ::-1]
        assert np.abs(r - r[::-1, ::-1])[keep].max() < 1e-10


BUILDER_PRESETS = {
    0.25: (1.0, 0.6, 8.0),
    0.5: (1.0, 0.6, 8.0),
    1.0: (1.0, 2**-0.5, 8.0),
    2.0: (1.45, 1.2, 12.0),
}


@pytest.mark.parametrize("hbar", [0.25, 0.5, 1.0, 2.0])
def test_builder_equivalence_across_hbar(hbar):
    sigma_R, sigma_p, half_width = BUILDER_PRESETS[hbar]
    g = make_grid(64, half_width)
    rho = gaussian_density(g, 0.0, sigma_R)
    W = gaussian_wigner(g, g, 0.0, 0.0, sigma_p, sigma_p)
    a = whole_joint(quantum_joint_series, rho, W, hbar)
    b = whole_joint(quantum_joint_spectral, rho, W, hbar)
    assert np.abs(a.values - b.values).max() < 1e-8


def test_classical_limit_decay_slope(rho_default, wigner_default):
    base = product_joint(rho_default, wigner_default).values
    hbars = np.array([1 / 16, 1 / 8, 1 / 4, 1 / 2])
    norms = [
        np.abs(whole_joint(quantum_joint_spectral, rho_default, wigner_default, h).values - base).max()
        for h in hbars
    ]
    slope = np.polyfit(np.log(hbars), np.log(norms), 1)[0]
    assert abs(slope - 2.0) < 0.1


SIGMAS = st.floats(0.5, 1.0)
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestSpectralRoute:
    @PROPERTY_SETTINGS
    @given(
        n_r=st.sampled_from([16, 32, 64]),
        n_p=st.sampled_from([16, 32, 64]),
        means=st.tuples(*[st.floats(-1.5, 1.5)] * 3),
        sigmas=st.tuples(*[st.floats(0.4, 0.8)] * 3),
        hbar=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    )
    def test_matches_full_complex_route(self, n_r, n_p, means, sigmas, hbar):
        grid_r, grid_p = make_grid(n_r, 8.0), make_grid(n_p, 8.0)
        rho = gaussian_density(grid_r, means[0], sigmas[0])
        W = gaussian_wigner(grid_p, grid_r, means[1], means[2], sigmas[1], sigmas[2])
        F = whole_joint(quantum_joint_spectral, rho, W, hbar)
        assert F.values.shape == (n_r, n_p, n_r)
        assert np.abs(F.values - full_complex_joint(rho, W, hbar)).max() < 1e-14

    def test_no_full_complex_cube(self, rho_default, wigner_default):
        n = rho_default.grid.n
        quantum_joint_spectral(rho_default, wigner_default, 1.0, ignore)
        peak = peak_traced_bytes(quantum_joint_spectral, rho_default, wigner_default, 1.0, ignore)
        # one real block and one block of the complex half spectrum; the
        # whole (n, n/2 + 1, n) half spectrum alone is 8 (n + 2) n^2 bytes
        assert peak <= 0.5 * 8 * n**3

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("half_width", [8.0, 12.0])
    def test_blocked_inverse_matches_one_shot(self, n, half_width):
        # the same elementwise products and per-line transforms, so the
        # same bits; at half_width 12 the step is not a power of two
        grid = make_grid(n, half_width)
        rho = gaussian_density(grid, 0.0, 1.0)
        W = gaussian_wigner(grid, grid, 0.0, 0.0, 2**-0.5, 2**-0.5)
        blocked = whole_joint(quantum_joint_spectral, rho, W, 1.0).values
        assert np.array_equal(blocked, one_shot_spectral_joint(rho, W, 1.0))

    def test_complex_kernel_is_refused(self, rho_default, wigner_default, monkeypatch):
        monkeypatch.setattr(coupling, "sinc_values", lambda x: (1 + 1e-3j) * sinc_values(x))
        with pytest.raises(ImaginaryResidueError, match="spectral joint kernel G"):
            quantum_joint_spectral(rho_default, wigner_default, 1.0, ignore)


class TestBuilderAgreement:
    @PROPERTY_SETTINGS
    @given(
        n=st.sampled_from([32, 64]),
        sigma_R=SIGMAS,
        sigma_p=SIGMAS,
        sigma_r=SIGMAS,
        ratio=st.floats(0.0, 0.99),
    )
    def test_series_matches_spectral_inside_measured_window(self, n, sigma_R, sigma_p, sigma_r, ratio):
        # ratio = hbar^2 / (4 sigma_R^2 sigma_p^2); the series converges for
        # ratio < 1, that is hbar < 2 sigma_R sigma_p
        grid = make_grid(n, 8.0)
        hbar = 2.0 * sigma_R * sigma_p * np.sqrt(ratio)
        rho = gaussian_density(grid, 0.0, sigma_R)
        W = gaussian_wigner(grid, grid, 0.0, 0.0, sigma_p, sigma_r)
        a = whole_joint(quantum_joint_series, rho, W, hbar).values
        b = whole_joint(quantum_joint_spectral, rho, W, hbar).values
        assert np.abs(a - b).max() < 1e-8


class TestFactoredSeries:
    @PROPERTY_SETTINGS
    @given(
        n=st.sampled_from([16, 32]),
        means=st.tuples(*[st.floats(-1.5, 1.5)] * 3),
        sigmas=st.tuples(*[st.floats(0.4, 0.8)] * 3),
        ratio=st.floats(0.0, 4.0),
    )
    def test_matches_dense_accumulation(self, n, means, sigmas, ratio):
        # each term as a dense outer product, added in turn: the same sum
        # wherever that oracle converges, and the same refusal where it does not
        grid = make_grid(n, 8.0)
        rho = gaussian_density(grid, means[0], sigmas[0])
        W = gaussian_wigner(grid, grid, means[1], means[2], sigmas[1], sigmas[2])
        hbar = 2.0 * sigmas[0] * sigmas[1] * math.sqrt(ratio)
        try:
            expected = dense_joint_series(rho, W, hbar)
        except NonConvergenceError:
            with pytest.raises(NonConvergenceError):
                quantum_joint_series(rho, W, hbar, ignore)
            return
        got = whole_joint(quantum_joint_series, rho, W, hbar).values
        assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()


@pytest.mark.parametrize(
    "build, whole",
    [
        (partial(quantum_joint_series, hbar=1.0), partial(whole_product_series, hbar=1.0)),
        (partial(quantum_joint_spectral, hbar=1.0), partial(one_shot_spectral_joint, hbar=1.0)),
        (partial(quantum_joint_series, hbar=0.0), lambda rho, W: np.multiply.outer(rho.values, W.values)),
    ],
    ids=["series", "spectral", "classical"],
)
def test_streamed_blocks_equal_the_whole_joint(rho_default, wigner_default, build, whole):
    # each builder's blocks, collected, against its one-call whole-array route
    blocks = []
    assert build(rho_default, wigner_default, each_block=lambda block: blocks.append(block.copy())) is None
    assert len(blocks) == rho_default.grid.n // INVERSE_BLOCK
    assert np.array_equal(np.concatenate(blocks), whole(rho_default, wigner_default))


@pytest.mark.parametrize("n", [64, 128])
def test_streamed_series_equals_one_whole_product(n):
    # the series is one product of its factor matrices; taken INVERSE_BLOCK
    # rows of R at a time it must keep the bits of the one-call product
    grid = make_grid(n, 8.0)
    rho = gaussian_density(grid, 0.0, 1.0)
    W = gaussian_wigner(grid, grid, 0.0, 0.0, 2**-0.5, 2**-0.5)
    blocks = []
    quantum_joint_series(rho, W, 1.0, lambda block: blocks.append(block.copy()))
    assert np.array_equal(np.concatenate(blocks), whole_product_series(rho, W, 1.0))


def test_series_verdict_comes_after_the_last_block(rho_default, wigner_default):
    # hbar = 2 on the coherent preset: the terms grow, and whether the
    # truncated sum is good enough depends on the sup norm of all of it
    handed = []
    with pytest.raises(NonConvergenceError, match="did not converge: last term is"):
        quantum_joint_series(rho_default, wigner_default, 2.0, handed.append)
    assert len(handed) == rho_default.grid.n // INVERSE_BLOCK


# Drawn inputs: box half-width 8, every Gaussian component no narrower than
# 0.5 and inside the box by preset_fits, so rho and W pass their guards
PLANES_SETTINGS = settings(max_examples=24, deadline=None, derandomize=True, database=None)
COMPONENT_SIGMAS = st.floats(0.5, 0.9)


@st.composite
def mixture_inputs(draw):
    """(rho, W, hbar): rho a mixture of 1-3 Gaussians, W of 1-2 product
    Gaussians, on a grid of 64 or 128 points, hbar in [0.25, 2]."""
    grid = make_grid(draw(st.sampled_from([64, 128])), 8.0)

    def component():
        sigma = draw(COMPONENT_SIGMAS)
        reach = grid.half_width - 8.0 * sigma
        center = draw(st.floats(-reach, reach))
        assume(preset_fits(grid.half_width, center, sigma))
        return center, sigma

    def mixture(count, part):
        weights = [draw(st.floats(0.2, 1.0)) for _ in range(count)]
        return sum(w * part().values for w in weights) / sum(weights)

    def product():
        (p0, sigma_p), (r0, sigma_r) = component(), component()
        return gaussian_wigner(grid, grid, p0, r0, sigma_p, sigma_r)

    rho = VirtualDensity(grid, mixture(draw(st.integers(1, 3)), lambda: gaussian_density(grid, *component())))
    W = WignerDistribution(grid, grid, mixture(draw(st.integers(1, 2)), product))
    return rho, W, draw(st.floats(0.25, 2.0))


class TestPlanesOfDrawnInputs:
    @PLANES_SETTINGS
    @given(inputs=mixture_inputs())
    def test_factor_planes_equal_the_streamed_joint_s(self, inputs):
        rho, W, hbar = inputs
        F = whole_joint(quantum_joint_spectral, rho, W, hbar)
        whole, planes = planes_of(F), joint_planes(rho, W, hbar)
        for name in ("over_r", "over_R", "over_pr"):
            expected = getattr(whole, name)
            assert np.abs(getattr(planes, name) - expected).max() <= 1e-12 * np.abs(expected).max(), name
        # the diagonal against the scale its rounding acts on, K_max sup|F|:
        # where rho and W barely overlap at R = r it is 1e-5 of that scale,
        # and both routes' rounding, 7e-16 of it, is 1e-11 of the diagonal
        peak = max(whole.vmax, -whole.vmin)
        gap = np.abs(planes.dR_diagonal - whole.dR_diagonal).max()
        assert gap <= 1e-12 * np.pi / rho.grid.step * peak
        assert abs(planes.boundary - whole.boundary) <= 1e-12 * peak
        assert max(planes.vmax, -planes.vmin) <= peak * (1.0 + 1e-12)  # a bound from within

    @PLANES_SETTINGS
    @given(inputs=mixture_inputs())
    def test_collision_term_equals_moyal_transport(self, inputs):
        rho, W, hbar = inputs
        planes = joint_planes(rho, W, hbar)
        rhs = collision_rhs(marginal_over_R(planes), planes.dR_diagonal, 1.0, 1.0)
        moyal = moyal_rhs_spectral(W, potential_from_density(rho, 1.0), hbar, 1.0)
        assert np.abs(rhs - moyal).max() <= 1e-12 * np.abs(moyal).max()

    @PLANES_SETTINGS
    @given(inputs=mixture_inputs())
    def test_kappa22_is_minus_hbar_squared_over_six(self, inputs):
        # the sinc kernel alone carries the (2, 2) cross term, whatever the
        # inputs' means; a joint whose tails reach the box is refused instead
        rho, W, hbar = inputs
        try:
            kap = kappa22(joint_planes(rho, W, hbar))
        except DecayGuardError as exc:
            assert str(exc).startswith("moment input")
            return
        assert abs(kap + hbar**2 / 6.0) <= 1e-8 * hbar**2 / 6.0

    @PLANES_SETTINGS
    @given(inputs=mixture_inputs())
    def test_marginals_recover_the_inputs(self, inputs):
        rho, W, hbar = inputs
        assert max(marginal_residuals(joint_planes(rho, W, hbar), rho, W)) <= 1e-12


@pytest.mark.parametrize("hbar", [0.0, 0.25, 1.0])
def test_factor_guard_reads_the_whole_joint_s_boundary_and_peak(rho_default, wigner_default, hbar):
    # at the defaults the row of largest over_pr holds the whole joint's
    # extreme, so the bound from within is the peak itself; at hbar = 0 the
    # whole joint is the product rho W that the sinc kernel reduces to
    if hbar == 0.0:
        F = product_joint(rho_default, wigner_default)
    else:
        F = whole_joint(quantum_joint_spectral, rho_default, wigner_default, hbar)
    planes = joint_planes(rho_default, wigner_default, hbar)
    peak = max(F.values.max(), -F.values.min())
    assert abs(planes.boundary - face_sup(F.values)) <= 1e-12 * peak
    assert abs(max(planes.vmax, -planes.vmin) - peak) <= 1e-12 * peak
