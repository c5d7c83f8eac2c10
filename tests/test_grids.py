"""Grid construction, transform contract, and spectral differentiation."""

import ast
import inspect
import itertools
import pathlib

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import phasekin
from phasekin import DecayGuardError, NonConvergenceError, make_grid
from phasekin.grids import (
    INVERSE_BLOCK,
    SERIES_CAP,
    _reshape_for,
    _row_blocks,
    _sup_norm,
    accept_series,
    derivative_array,
    ensure_decaying,
    half_frequencies,
    native_frequencies,
    spectral_derivatives,
)

from conftest import gauss
from reference import (
    alternating,
    fourier_forward,
    fourier_inverse,
    frequencies,
    full_spectrum_derivative_array,
    full_spectrum_derivatives,
    peak_traced_bytes,
)


class TestMakeGrid:
    def test_spacing(self):
        g = make_grid(16, 8.0)
        assert g.step == 1.0
        assert g.points[0] == -8.0
        assert g.points[-1] == 7.0

    def test_fine_spacing(self):
        assert make_grid(128, 8.0).step == 0.125

    @pytest.mark.parametrize("n", [100, 12, 0, 17])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            make_grid(n, 8.0)

    @pytest.mark.parametrize("half_width", [0.0, -1.0])
    def test_rejects_bad_width(self, half_width):
        with pytest.raises(ValueError):
            make_grid(64, half_width)

    def test_conjugate_spacing(self):
        g = make_grid(64, 8.0)
        step = np.pi / g.half_width
        assert step == np.pi / 8.0
        assert_allclose(frequencies(g), step * np.arange(-32, 32), rtol=0, atol=0)
        assert frequencies(g)[g.n // 2] == 0.0
        assert np.array_equal(half_frequencies(g), step * np.arange(33))


class TestForwardTransform:
    def test_normalized_gaussian_has_unit_origin(self):
        g = make_grid(128, 8.0)
        v = gauss(g.points, 0.0, 1.0)
        v /= v.sum() * g.step
        out = fourier_forward(v, (g,), (0,))
        assert abs(out[g.n // 2] - 1.0) < 1e-12

    def test_origin_is_the_integral(self):
        g = make_grid(128, 8.0)
        v = 3.0 * gauss(g.points, 0.4, 1.0)
        out = fourier_forward(v, (g,), (0,))
        assert abs(out[g.n // 2] - v.sum() * g.step) < 1e-12

    def test_point_mass_gives_flat_magnitude(self):
        g = make_grid(64, 8.0)
        v = np.zeros(g.n)
        m0 = 2.5
        v[g.n // 2] = m0 / g.step  # unit-cell spike of total mass m0
        out = fourier_forward(v, (g,), (0,))
        assert_allclose(np.abs(out), m0, rtol=1e-12)

    def test_gaussian_spectrum_closed_form(self):
        # the transform of a unit Gaussian is a unit Gaussian in frequency
        g = make_grid(128, 8.0)
        v = gauss(g.points, 0.0, 1.0)
        out = fourier_forward(v, (g,), (0,))
        w = frequencies(g)
        assert_allclose(out, np.exp(-(w**2) / 2.0), atol=1e-8)

    def test_shifted_gaussian_phase(self):
        g = make_grid(128, 8.0)
        mu = 1.5
        v = gauss(g.points, mu, 1.0)
        out = fourier_forward(v, (g,), (0,))
        w = frequencies(g)
        expected = np.exp(1j * w * mu - w**2 / 2.0)  # +i convention fixes the phase sign
        assert_allclose(out, expected, atol=1e-8)


def _random_decaying_3d(seed=7):
    g = make_grid(32, 6.0)
    rng = np.random.default_rng(seed)
    envelope = np.exp(-(g.points**2) / 2.0)
    v = rng.standard_normal((g.n, g.n, g.n))
    v *= envelope[:, None, None] * envelope[None, :, None] * envelope[None, None, :]
    return (g, g, g), v


class TestRoundTripAndParseval:
    @pytest.mark.parametrize("axes", [s for r in range(1, 4) for s in itertools.combinations(range(3), r)])
    def test_round_trip_axis_subsets(self, axes):
        grids, v = _random_decaying_3d()
        back = fourier_inverse(fourier_forward(v, grids, axes), grids, axes)
        scale = np.abs(v).max()
        assert np.abs(back.real - v).max() / scale < 1e-12
        assert np.abs(back.imag).max() / scale < 1e-12

    @pytest.mark.parametrize("axes", [(0,), (0, 1), (0, 1, 2)])
    def test_parseval(self, axes):
        grids, v = _random_decaying_3d(seed=11)
        out = fourier_forward(v, grids, axes)
        lhs = (np.abs(v) ** 2).sum() * float(np.prod([g.step for g in grids]))
        vol_out = float(np.prod([np.pi / g.half_width if ax in axes else g.step for ax, g in enumerate(grids)]))
        rhs = (np.abs(out) ** 2).sum() * vol_out / (2 * np.pi) ** len(axes)
        assert abs(lhs - rhs) / lhs < 1e-10


class TestSpectralDerivative:
    def test_gaussian_first_derivative(self):
        g = make_grid(128, 8.0)
        f = np.exp(-(g.points**2) / 2.0)
        assert np.abs(derivative_array(f, g, 0, 1) - (-g.points * f)).max() < 1e-8

    def test_order_zero_is_identity(self):
        # even orders keep the unpaired Nyquist mode, so even a rough
        # array comes back to rounding
        g = make_grid(64, 8.0)
        v = np.random.default_rng(5).standard_normal((g.n, 8))
        assert np.abs(derivative_array(v, g, 0, 0) - v).max() < 1e-14 * np.abs(v).max()

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_odd_orders_drop_the_nyquist_mode_and_even_orders_keep_it(self, order):
        # the real Nyquist bin times the imaginary (i w)^order is imaginary,
        # and irfft reads only the real part of that bin
        g = make_grid(32, 8.0)
        nyquist = 1.0 - 2.0 * (np.arange(g.n) % 2)  # the unpaired mode alone
        w = half_frequencies(g)[-1]
        expected = 0.0 * nyquist if order % 2 else (-(w**2)) * nyquist
        assert np.abs(derivative_array(nyquist, g, 0, order) - expected).max() <= 1e-12 * w**order

    def test_fourth_derivative_against_symbolic_oracle(self):
        x = sympy.symbols("x")
        oracle = sympy.lambdify(x, sympy.diff(sympy.exp(-(x**2) / 2), x, 4), "numpy")
        g = make_grid(128, 8.0)
        out = derivative_array(np.exp(-(g.points**2) / 2.0), g, 0, 4)
        assert np.abs(out - oracle(g.points)).max() < 1e-6

    def test_linearity(self):
        g = make_grid(64, 8.0)
        a = np.exp(-(g.points**2) / 2.0)
        b = g.points * np.exp(-(g.points**2))
        da = derivative_array(a, g, 0, 2)
        db = derivative_array(b, g, 0, 2)
        dab = derivative_array(2 * a - 3 * b, g, 0, 2)
        assert np.abs(dab - (2 * da - 3 * db)).max() < 1e-12

    def test_constant_has_zero_derivative(self):
        g = make_grid(64, 8.0)
        assert np.abs(derivative_array(np.full(g.n, 4.2), g, 0, 1)).max() < 1e-12

    def test_composition_matches_single_application(self):
        g = make_grid(128, 8.0)
        f = np.exp(-(g.points**2) / 2.0)
        twice = derivative_array(derivative_array(f, g, 0, 2), g, 0, 3)
        once = derivative_array(f, g, 0, 5)
        assert np.abs(twice - once).max() < 1e-9


# At order m both routes round the spectrum scaled by up to K_max^m, so
# their gap is taken against K_max^m sup|f|.  Measured on the field below,
# ten orders each from 2 and from 3: at most 4.6e-17 of that scale at every
# n and order (relative to the derivative's own sup norm it grows to 1.3e-8
# at order 21, n = 128, where odd orders zero the Nyquist component that
# dominates the even ones).
HALF_SPECTRUM_DERIVATIVE_TOL = 1e-15


@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("n", [16, 64, 128])
def test_half_spectrum_derivatives_match_the_full_spectrum_s(n, first):
    # derivative_array at orders first + 2 to first + 20, and at even orders
    # the series' floored derivatives, each against its full-spectrum route
    g = make_grid(n, 8.0)
    alt = (-1.0) ** np.arange(n)  # a nonzero Nyquist bin
    one = gauss(g.points, 0.3, 0.6) + 0.05 * alt
    mixture = 0.5 * gauss(g.points, -1.0, 0.8) + gauss(g.points, 1.2, 0.5)
    f = np.stack([one, mixture + 0.01 * alt], axis=1)
    assert np.abs(np.fft.rfft(f, axis=0)[-1]).min() > 0.0
    series = zip(spectral_derivatives(f, g), full_spectrum_derivatives(f, g)) if first == 0 else itertools.repeat(None)
    for order, pair in zip(range(first + 2, first + 22, 2), series):
        scale = (np.pi / g.step) ** order * np.abs(f).max()
        if pair is not None:
            half, full = pair
            assert np.abs(half - full).max() <= HALF_SPECTRUM_DERIVATIVE_TOL * scale, order
        gap = derivative_array(f, g, 0, order) - full_spectrum_derivative_array(f, g, 0, order)
        assert np.abs(gap).max() <= HALF_SPECTRUM_DERIVATIVE_TOL * scale, order


class TestDecayGuard:
    def test_boundary_ratio(self):
        v = np.zeros((8, 8))
        v[4, 4] = 1.0
        v[0, 3] = 1e-3
        ensure_decaying(v, 1e-3)
        with pytest.raises(DecayGuardError, match="boundary magnitude is 1.000e-03 of the global maximum"):
            ensure_decaying(v, 9.99e-4)

    def test_gaussian_passes(self):
        g = make_grid(128, 8.0)
        ensure_decaying(gauss(g.points, 0.0, 1.0))

    def test_offcenter_fails(self):
        g = make_grid(128, 8.0)
        with pytest.raises(DecayGuardError):
            ensure_decaying(gauss(g.points, 6.0, 1.0))

    def test_constant_passes(self):
        ensure_decaying(np.full((16, 16), -2.5))

    def test_no_full_size_temporary(self):
        g = make_grid(128, 8.0)
        profile = gauss(g.points, 0.0, 1.0)
        values = np.multiply.outer(np.multiply.outer(profile, profile), profile)  # 16 MiB
        assert peak_traced_bytes(ensure_decaying, values) < 2**20


def oracle_half(values, grid, axis):
    """The oracle's forward transform at w >= 0 read off numpy's rfft along
    ``axis``: ``step * (-1)^k * conj(rfft)``, the factors by which the
    package's rfft spectra differ from the physical ones and which cancel
    in every product the spectral builders form."""
    phase = _reshape_for(grid.step * alternating(grid.n // 2 + 1), values.ndim, axis)
    return phase * np.conj(np.fft.rfft(values, axis=axis))


class TestHalfSpectrum:
    @pytest.mark.parametrize("n, half_width", [(16, 8.0), (64, 5.0)])
    def test_rfft_is_the_nonnegative_half_of_fourier_forward(self, n, half_width):
        g = make_grid(n, half_width)
        values = np.add.outer(np.sin(g.points), gauss(g.points, 0.4, 0.9))
        full = fourier_forward(values, (g, g), (0,))
        half = oracle_half(values, g, 0)
        assert half.shape == (n // 2 + 1, n)
        assert_allclose(half[:-1], full[n // 2 :], rtol=0, atol=1e-13)
        assert_allclose(half[-1], full[0], rtol=0, atol=1e-13)  # Nyquist is stored at index 0

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_frequencies_are_the_native_ones_at_w_ge_0(self, n):
        g = make_grid(n, 8.0)
        w = half_frequencies(g)
        assert np.array_equal(w[:-1], native_frequencies(g)[: n // 2])
        assert np.array_equal(w, np.pi / g.half_width * np.arange(n // 2 + 1))


# numpy's transforms and shifts over the whole complex spectrum
FULL_SPECTRUM = {"fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "fftshift", "ifftshift"}


def full_spectrum_calls(path):
    """``file:line name`` of each use of a FULL_SPECTRUM function of np.fft in a source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in FULL_SPECTRUM:
            if ast.unparse(node.value) in ("np.fft", "numpy.fft"):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.fft"):
            found.append(f"{path.name}:{node.lineno} from {node.module}")
    return found


def test_only_the_stepper_takes_the_full_complex_spectrum():
    # every real field takes the real half spectrum; only the stepper's
    # complex state, in dynamics.py, takes the whole one
    sources = sorted(pathlib.Path(phasekin.__file__).parent.glob("*.py"))
    assert full_spectrum_calls(next(p for p in sources if p.name == "dynamics.py"))  # the scan sees calls
    assert [call for p in sources if p.name != "dynamics.py" for call in full_spectrum_calls(p)] == []


def convention_calls(source, name):
    """``name:line call`` of each np.fft call in ``source`` that would set a
    transform convention beside numpy's own: ``hfft``/``ihfft``, or any
    np.fft function passed ``norm=``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if ast.unparse(node.func.value) in ("np.fft", "numpy.fft"):
                if node.func.attr in ("hfft", "ihfft") or any(kw.arg == "norm" for kw in node.keywords):
                    found.append(f"{name}:{node.lineno} {ast.unparse(node.func)}")
    return found


def test_every_transform_takes_numpy_s_own_convention():
    # no module scales or conjugates its transforms by np.fft's options: a
    # caller pairs rfft with irfft, and the characteristic-function
    # convention lives only in the tests' oracle
    assert convention_calls('np.fft.ihfft(v, axis=0, norm="forward")\nnp.fft.rfft(v, norm="ortho")', "s") == [
        "s:1 np.fft.ihfft",
        "s:2 np.fft.rfft",
    ]
    sources = sorted(pathlib.Path(phasekin.__file__).parent.glob("*.py"))
    assert [call for p in sources for call in convention_calls(p.read_text(), p.name)] == []


PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@st.composite
def decaying_fields(draw):
    """A sum of up to three Gaussian bumps on one or two axes, each centred
    in the middle half of its axis and at most a tenth of it wide, so each
    falls below 1e-12 of its own peak at the boundary."""
    sizes = draw(st.lists(st.sampled_from([16, 32, 64]), min_size=1, max_size=2))
    grids = [make_grid(n, draw(st.floats(4.0, 12.0))) for n in sizes]
    values = 0.0
    for _ in range(draw(st.integers(1, 3))):
        bump = draw(st.floats(-2.0, 2.0).filter(lambda a: abs(a) > 0.1))
        for g in grids:
            center = draw(st.floats(-0.25, 0.25)) * g.half_width
            width = draw(st.floats(0.05, 0.1)) * g.half_width
            bump = np.multiply.outer(bump, gauss(g.points, center, width))
        values = values + bump
    return tuple(grids), values


class TestTransformProperties:
    @PROPERTY_SETTINGS
    @given(field=decaying_fields())
    def test_round_trip_and_zero_frequency(self, field):
        grids, values = field
        axes = tuple(range(values.ndim))
        spectrum = fourier_forward(values, grids, axes)
        back = fourier_inverse(spectrum, grids, axes)
        scale = np.abs(values).max()
        assert np.abs(back - values).max() <= 1e-14 * scale
        # the zero-frequency bin, at index n/2 of each axis, is the quadrature integral
        integral = values.sum() * np.prod([g.step for g in grids])
        bound = 1e-14 * np.abs(values).sum() * np.prod([g.step for g in grids])
        assert abs(spectrum[tuple(g.n // 2 for g in grids)] - integral) <= bound

    @PROPERTY_SETTINGS
    @given(field=decaying_fields(), axis=st.integers(0, 1))
    def test_rfft_is_fourier_forward_at_w_ge_0(self, field, axis):
        grids, values = field
        axis = min(axis, values.ndim - 1)
        n = grids[axis].n
        full = np.moveaxis(fourier_forward(values, grids, (axis,)), axis, 0)
        half = np.moveaxis(oracle_half(values, grids[axis], axis), axis, 0)
        bound = 1e-14 * np.abs(values).sum() * grids[axis].step
        assert np.abs(half[:-1] - full[n // 2 :]).max() <= bound
        assert np.abs(half[-1] - full[0]).max() <= bound


@pytest.mark.parametrize("n_rows", [INVERSE_BLOCK, 64, 128])
def test_row_blocks_cover_the_rows_once_in_order(n_rows):
    # the joint builders, the stepper and its kick phase each take a grid's
    # rows in these blocks, every block written into one buffer of their own
    blocks = list(_row_blocks(n_rows))
    covered = np.concatenate([np.arange(n_rows)[rows] for rows in blocks])
    assert np.array_equal(covered, np.arange(n_rows))
    assert {rows.stop - rows.start for rows in blocks} == {INVERSE_BLOCK}


class TestSupNorm:
    def test_equals_abs_max(self):
        x = np.random.default_rng(3).normal(size=(7, 5))
        for v in (x, -np.abs(x), np.abs(x), np.zeros(3)):
            assert _sup_norm(v) == np.abs(v).max()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_term_is_refused(self, bad):
        term = np.ones(4)
        term[2] = bad
        assert not np.isfinite(_sup_norm(term))
        with pytest.raises(NonConvergenceError, match="term 1 is not finite"):
            accept_series(((t, _sup_norm(t)) for t in [term]), 1.0, "series")


def numbered_terms(norms):
    """``(n, norm)`` for each of ``norms``, the term standing in for its index n."""
    yield from enumerate(norms, 1)


class TestAcceptSeries:
    def accept(self, norms):
        """(accepted terms, verdict) for a series of the given term norms at
        scale 1, after checking that the generator was closed."""
        terms = numbered_terms(norms)
        accepted, verdict = accept_series(terms, 1.0, "series")
        assert inspect.getgeneratorstate(terms) == inspect.GEN_CLOSED
        return accepted, verdict

    def test_converged_series_stops_at_the_small_term(self):
        accepted, verdict = self.accept(itertools.chain([0.5, 1e-3, 1e-12], itertools.repeat(1e-13)))
        assert accepted == [1, 2, 3]
        verdict(1e-300)  # converged: no sum makes it fail

    def test_growing_term_is_not_accepted(self):
        accepted, verdict = self.accept([0.5, 0.1, 0.2, 1e-13])
        assert accepted == [1, 2]  # the smaller partial sum
        with pytest.raises(NonConvergenceError, match="last term is 1.000e-01 of the sum after cap/growth stop"):
            verdict(1.0)
        verdict(1e8)  # the last accepted term is 1e-9 of this sum

    def test_cap_stops_the_series(self):
        accepted, verdict = self.accept(0.9**n for n in itertools.count())
        assert accepted == list(range(1, SERIES_CAP + 1))
        with pytest.raises(NonConvergenceError, match="after cap/growth stop"):
            verdict(1.0)
        verdict(1e9)

    def test_terms_that_run_out_are_exact(self):
        accepted, verdict = self.accept([0.5, 0.1])
        assert accepted == [1, 2]
        verdict(1.0)  # a terminating series needs no small last term

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_norm_is_refused(self, bad):
        terms = numbered_terms([0.5, bad, 0.1])
        with pytest.raises(NonConvergenceError, match="series did not converge: term 2 is not finite"):
            accept_series(terms, 1.0, "series")
        assert inspect.getgeneratorstate(terms) == inspect.GEN_CLOSED
