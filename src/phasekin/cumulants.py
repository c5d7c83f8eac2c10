"""The coupling generating function and the cumulants of a joint.

The generating function is the log of the pointwise ratio between the
joint's characteristic function (its 3-axis transform) and the product
of the marginals'.  For the sinc-coupled joint it equals
``ln sinc(hbar K q / 2)`` wherever the ratio is well conditioned, is
independent of the third frequency axis, and carries the second-second
cross-cumulant in its leading expansion coefficient.  It is taken on the
real half lattice, every K and q >= 0, and :func:`phi_gap` checks it
against ln sinc at every point of its mask.

Every reader takes the joint's O(n^2) reductions from the spectral
builder's two factors (:func:`phasekin.coupling.joint_planes`), and the
classical-limit scan measures the joint's departure from the product
rho W in the quadrature L2 norm from the power spectra of rho and W and
the kernel alone; no n^3 array is formed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .coupling import joint_planes, sinc_kernel
from .errors import DegenerateFitError, ImaginaryResidueError
from .grids import half_frequencies, native_frequencies, require_same_grid
from .states import (
    JOINT_DECAY_TOL,
    JointPlanes,
    VirtualDensity,
    WignerDistribution,
    _check_joint_inputs,
    marginal_over_R,
    marginal_over_pr,
    moments,
)

PHI_IMAG_TOL = 1e-6
# Lattice points where the marginals' product falls below this fraction of
# its peak are masked out: the ratio there is rounding noise.
PHI_PRODUCT_FLOOR = 1e-6
# Ratio floor masking out neighborhoods of the kernel zeros, where the log
# is ill-conditioned (and complex beyond them).
PHI_RATIO_FLOOR = 1e-2
CLASSICAL_SCAN_FRACTIONS = (1 / 16, 1 / 8, 1 / 4, 1 / 2)


@dataclass(frozen=True)
class PhiField:
    """Masked samples of the coupling generating function on the real half
    (K, q) lattice: every K, in the FFT's native order, and q >= 0."""

    K: np.ndarray
    q: np.ndarray
    values: np.ndarray  # real; NaN where masked out
    mask: np.ndarray


@dataclass(frozen=True)
class CumulantReport:
    """Cross-cumulant and uncertainty summary for one joint distribution.

    ``kappa22_reference`` records the nominal closed-form constant
    -hbar^2/2 quoted for this kernel; in the one-dimensional reduction
    the measured value is -hbar^2/6, and both are reported side by side
    rather than forced to agree.
    """

    hbar: float
    kappa22: float
    kappa22_reference: float
    sigma_R2: float
    sigma_p2: float
    heisenberg_lhs: float
    heisenberg_rhs: float
    cauchy_schwarz_ok: bool


def phi_field(planes: JointPlanes, rho: VirtualDensity, W: WignerDistribution) -> PhiField:
    """Log-ratio of the joint's transform to the product of the marginals'
    on the k = 0 slice of the third frequency axis; for the sinc-coupled
    joint it does not depend on k.

    The joint is given by its :class:`JointPlanes`: that slice of its 3-axis
    transform is the (R, p) transform of the r-summed plane ``over_r``, the
    plane :func:`kappa22` reads.  The plane and the marginals are real, so
    their transforms are Hermitian and the half lattice q >= 0 holds every
    value: ``rfft2`` takes the plane's over all of R and half of p, rho's
    half spectrum is mirrored to every K, and W's k = 0 slice is the half
    spectrum of its sum over r.  All three are numpy's transforms, as every
    transform of the package is (:mod:`phasekin.grids`).  Against the
    characteristic-function convention their phase and step factors cancel
    in the ratio and in the mask's threshold, and they conjugate the ratio,
    which changes only the imaginary part that is discarded.  Masked where
    the product magnitude falls below PHI_PRODUCT_FLOOR of its peak or the
    ratio approaches the kernel zeros.
    The imaginary part must be negligible on the mask.
    """
    require_same_grid(rho.grid, planes.grid_R, "phi_field density grid")
    require_same_grid(W.grid_p, planes.grid_p, "phi_field W p-grid")
    require_same_grid(W.grid_r, planes.grid_r, "phi_field W r-grid")
    planes.ensure_decaying(JOINT_DECAY_TOL, "characteristic-function input")
    f_t = np.fft.rfft2(planes.over_r)
    rho_half = np.fft.rfft(rho.values)
    rho_t = np.concatenate([rho_half, np.conj(rho_half[-2:0:-1])])  # every K, native order
    # peak of the full product rho_t(K) w_t(q, k); exact for an outer product
    denom_full_max = float(np.abs(rho_half).max()) * float(np.abs(np.fft.rfft2(W.values)).max())
    denom = rho_t[:, None] * np.fft.rfft(W.values.sum(axis=1))[None, :]  # k = 0

    mask = np.abs(denom) >= PHI_PRODUCT_FLOOR * denom_full_max
    ratio = np.zeros_like(denom)
    ratio[mask] = f_t[mask] / denom[mask]
    mask &= ratio.real >= PHI_RATIO_FLOOR

    values = np.full(denom.shape, np.nan)
    logs = np.log(ratio[mask])
    im_max = float(np.abs(logs.imag).max()) if logs.size else 0.0
    if im_max > PHI_IMAG_TOL:
        raise ImaginaryResidueError(
            f"generating function has imaginary part {im_max:.3e} on the mask (allowed {PHI_IMAG_TOL})"
        )
    values[mask] = logs.real
    return PhiField(native_frequencies(planes.grid_R), half_frequencies(planes.grid_p), values, mask)


def phi_gap(phi: PhiField, hbar: float) -> float:
    """max |phi - ln sinc(hbar K q / 2)| over the mask, 0 on an empty one:
    the sinc-coupled joint's reads rounding.  Infinite where the kernel is
    not positive at a masked point, where ln sinc has no value."""
    kernel = sinc_kernel(phi.K, phi.q, hbar)[phi.mask]
    if not (kernel > 0.0).all():
        return math.inf
    return float(np.abs(phi.values[phi.mask] - np.log(kernel)).max(initial=0.0))


def kappa22(planes: JointPlanes) -> float:
    """Second-second cross combination <R^2 p^2> - <R^2><p^2> of a joint, from its planes."""
    m = moments(planes, [(2, 2), (2, 0), (0, 2)])
    return m[(2, 2)] - m[(2, 0)] * m[(0, 2)]


def heisenberg_check(planes: JointPlanes, hbar: float) -> CumulantReport:
    """Spread-of-squares inequality check on a joint, from its planes.

    sigma_{R^2} comes from the virtual-position marginal, sigma_{p^2}
    from the momentum moments of the recovered phase-space marginal;
    the measured cross-cumulant is checked against its Cauchy-Schwarz
    bound -sigma_{R^2} sigma_{p^2}.
    """
    rho = marginal_over_pr(planes)
    W = marginal_over_R(planes)
    m_rho = moments(rho, [(2,), (4,)])
    m_w = moments(W, [(2, 0), (4, 0)])
    sigma_R2 = float(np.sqrt(max(m_rho[(4,)] - m_rho[(2,)] ** 2, 0.0)))
    sigma_p2 = float(np.sqrt(max(m_w[(4, 0)] - m_w[(2, 0)] ** 2, 0.0)))
    kap = kappa22(planes)
    lhs = sigma_R2 * sigma_p2
    return CumulantReport(
        hbar=hbar,
        kappa22=kap,
        kappa22_reference=-(hbar**2) / 2.0,
        sigma_R2=sigma_R2,
        sigma_p2=sigma_p2,
        heisenberg_lhs=lhs,
        heisenberg_rhs=hbar**2 / 2.0,
        cauchy_schwarz_ok=bool(kap >= -lhs - 1e-12),
    )


def cumulant_pass(rho: VirtualDensity, W: WignerDistribution, hbar: float) -> tuple:
    """``(planes, report, gap)`` of the spectral joint at ``hbar``: its
    :class:`JointPlanes`, taken from its factors with no n^3 array formed,
    their :func:`heisenberg_check` and their generating function's
    :func:`phi_gap`."""
    planes = joint_planes(rho, W, hbar)
    return planes, heisenberg_check(planes, hbar), phi_gap(phi_field(planes, rho, W), hbar)


def _half_power(half: np.ndarray) -> np.ndarray:
    """``sum |half(q, .)|^2`` over axis 1, for the ``q >= 0`` bins on axis 0,
    each counted as often as it stands for a bin of the full spectrum: twice,
    but once for the zero and Nyquist bins, of which only the real parts
    count, all ``irfft`` reads."""
    power = 2.0 * np.sum(half.real**2 + half.imag**2, axis=1)
    power[[0, -1]] = np.sum(half[[0, -1]].real ** 2, axis=1)
    return power


def _departure_norms(rho: VirtualDensity, W: WignerDistribution, hbars: list) -> list:
    """The L2 norm ``(sum D^2 dR dp dr)^(1/2)`` of D = F_hbar - rho W at each hbar.

    rho W is the spectral joint with kernel G(R, q) = rho(R), so D is the
    inverse over q of (G_hbar - rho)(R, q) W_hat(q, r), and by Parseval over
    q and then over K, with numpy's ``rfft`` for the hats,
    ``sum D^2 = sum_q m_q P_W(q) sum_K |rho_hat(K)|^2 (sinc(hbar K q / 2) - 1)^2
    / (n_R n_p)``, P_W(q) = sum_r |W_hat(q, r)|^2 and m_q = 1 at the
    zero and Nyquist bins of q and 2 elsewhere (K likewise): a hbar costs one
    (n/2 + 1)^2 kernel and one matrix-vector product, and no kernel G is
    formed or inverted."""
    half_K, half_q = half_frequencies(rho.grid), half_frequencies(W.grid_p)
    rho_power = _half_power(np.fft.rfft(rho.values)[:, None])
    w_power = _half_power(np.fft.rfft(W.values, axis=0))
    volume = rho.grid.step * W.grid_p.step * W.grid_r.step / (rho.grid.n * W.grid_p.n)
    return [float(np.sqrt(volume * (rho_power @ (sinc_kernel(half_K, half_q, h) - 1.0) ** 2 @ w_power))) for h in hbars]


def classical_limit_scan(rho: VirtualDensity, W: WignerDistribution, hbars) -> float:
    """Log-log slope versus hbar of the L2 norm of the joint's departure
    from factorization (:func:`_departure_norms`)."""
    hbars = [float(h) for h in hbars]
    if len(hbars) < 4:
        raise ValueError(f"scan needs at least 4 hbar values, got {len(hbars)}")
    if any(h < 0 for h in hbars):
        raise ValueError("scan hbar values must not be negative")
    if min(hbars) < sys.float_info.min:  # a subnormal value has lost the digits the span check reads
        raise DegenerateFitError("scan hbar value is 0 or subnormal (underflow?); the log-log fit needs normal values")
    if max(hbars) < 8.0 * min(hbars):
        raise ValueError("scan hbar values must span at least a factor of 8")
    _check_joint_inputs(rho, W)
    norms = _departure_norms(rho, W, hbars)
    for h, diff in zip(hbars, norms):
        if diff < 1e-14:  # a NaN norm passes, for a NaN slope
            raise DegenerateFitError(f"departure norm underflowed at hbar = {h}")
    slope, _ = np.polyfit(np.log(hbars), np.log(norms), 1)
    return float(slope)


# h^2 hbar of the oracle's stencil step h.  Relative to hbar^2 / 6, the
# stencil's truncation error grows as (h^2 hbar)^4 and its rounding error
# falls as (h^2 hbar)^-2; at 0.02 the two together stay below 4e-9 for
# hbar from 1e-4 to 5 (sigma_R, sigma_p of the verify and bench presets).
ORACLE_STEP_SCALE = 0.02


def kappa22_closed_form_oracle(sigma_R: float, sigma_p: float, hbar: float) -> float:
    """Cross-cumulant by finite differences on the analytic transform.

    Independent of the FFT stack: the log of the characteristic function
    of the centered Gaussian inputs, ``-sigma_R^2 K^2 / 2 + ln sinc(hbar
    K q / 2) - sigma_p^2 q^2 / 2``, is evaluated in closed form, and the
    mixed derivative d^2/dK^2 d^2/dq^2 at the origin is taken with
    4th-order central stencils.  The separable Gaussian terms have no
    mixed derivative, so the stencil reads the kernel alone, at a step
    ``h`` with ``h^2 hbar = ORACLE_STEP_SCALE``, where neither rounding
    nor truncation reaches the answer.
    """
    h = math.sqrt(ORACLE_STEP_SCALE / hbar) if hbar > 0 else 1.0
    stencil = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    K, q = offsets[:, None], offsets[None, :]
    # np.sinc is sin(pi y)/(pi y), so feed it arg/pi
    log_f = -(sigma_R**2) * K**2 / 2.0 + np.log(np.sinc(hbar * K * q / 2.0 / np.pi)) - (sigma_p**2) * q**2 / 2.0
    return float(stencil @ log_f @ stencil)
