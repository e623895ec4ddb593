import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jamnet import NumericalFailure, bounds


def test_ceo_distortion_examples():
    assert bounds.ceo_distortion(0.0, [1.0], 1.0) == 1.0
    assert bounds.ceo_distortion(0.0, [0.3, 2.2], 1.0) == 1.0
    assert bounds.ceo_distortion(0.5, [1.0], 1.0) == pytest.approx(0.75, abs=1e-15)
    # Large rate approaches the estimation floor.
    assert bounds.ceo_distortion(50.0, [1.0], 1.0) == pytest.approx(0.5, abs=1e-12)


def test_ceo_distortion_reads_a_one_shot_iterable_once():
    assert bounds.ceo_distortion(1.0, (b for b in [1.0])) == 0.625
    assert bounds.ceo_distortion(1.0, iter([0.3, 2.2])) == bounds.ceo_distortion(1.0, [0.3, 2.2])
    with pytest.raises(ValueError):
        bounds.ceo_distortion(1.0, (b for b in []))
    curve = bounds.ceo_curve([0.0, 1.0], (b for b in [1.0]))
    assert [pt.distortion for pt in curve] == [1.0, 0.625]


def test_a_nan_rate_is_rejected():
    with pytest.raises(ValueError, match="rate must be nonnegative"):
        bounds.ceo_curve([math.nan], [1.0])
    with pytest.raises(ValueError, match="rate must be nonnegative"):
        bounds.ceo_curve([0.5, math.nan], [1.0])
    with pytest.raises(ValueError, match="rate must be nonnegative"):
        bounds.ceo_distortion(math.nan, [1.0])


def _outcome(f):
    try:
        return [(pt.rate.hex(), pt.distortion.hex()) for pt in f()]
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def test_ceo_curve_is_the_per_rate_distortion_bit_for_bit():
    rng = np.random.default_rng(5)
    cases = [(np.linspace(0.0, rng.uniform(2.0, 12.0), 1001), rng.uniform(0.0, 3.0, size=m), s2)
             for m, s2 in ((1, 1.0), (7, 1.0), (32, 1.0), (3, 2.5))]
    cases += [([], [], 1.0), ([], [1e200], 1.0), ([0, 1, 2.5, np.float32(0.3)], [0.7, 1.4], 1.0),
              ([1.0], [], 1.0), ([-1.0], [], 1.0), ([0.5, -1.0], [1.0], 1.0),
              ([0.5, -1.0], [1e200], 1.0), ([-0.5], [1e200], 1.0), ([0.0, "x"], [1.0], 1.0),
              ([0.0, math.inf], [1.0, 2.0], 1.0), ([0.0, 1.0], [0.0], 1.0)]
    for rates, betas, s2 in cases:
        betas = [float(b) for b in betas]
        got = _outcome(lambda: bounds.ceo_curve(rates, betas, s2))
        want = _outcome(lambda: [bounds.RDPoint(float(r), bounds.ceo_distortion(float(r), betas, s2))
                                 for r in rates])
        assert got == want, (rates, betas)


def test_ceo_distortion_monotone_convex():
    betas = [0.7, 1.4, 0.3]
    rates = np.linspace(0.0, 8.0, 100)
    d = np.array([bounds.ceo_distortion(r, betas) for r in rates])
    assert np.all(np.diff(d) < 0.0)
    assert np.all(np.diff(d, 2) > -1e-15)


def test_ceo_decomposition_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        betas = rng.uniform(0.2, 3.0, size=rng.integers(1, 6))
        rate = float(rng.uniform(0.0, 10.0))
        d = bounds.ceo_distortion(rate, betas)
        d_est = bounds.ceo_estimation_floor(betas)
        d_rd = bounds.ceo_sigma_t(betas) * 2.0 ** (-2.0 * rate)
        assert abs(d - (d_est + d_rd)) <= 1e-12


def test_ceo_sigma_t_examples():
    assert bounds.ceo_sigma_t([1.0]) == pytest.approx(0.5, abs=1e-15)
    assert bounds.ceo_sigma_t([]) == 0.0
    assert bounds.ceo_sigma_t([1.0, 1.0, 1.0]) == pytest.approx(0.75, abs=1e-15)
    assert abs(bounds.ceo_sigma_t([1.0, 1.0, 1.0]) - bounds.ceo_sigma_t_matrix([1.0, 1.0, 1.0])) <= 1e-12


def test_ru_spectrum_examples():
    assert np.allclose(bounds.ru_spectrum([1.0, 1.0]), [1.0, 3.0])
    assert np.allclose(bounds.ru_spectrum([0.8]), [1.64])
    assert np.allclose(bounds.ru_spectrum([1.0, 2.0]), [1.0, 6.0])


def test_ru_spectrum_matches_eigensolver():
    rng = np.random.default_rng(3)
    for _ in range(50):
        betas = rng.uniform(0.2, 3.0, size=rng.integers(1, 9))
        closed = bounds.ru_spectrum(betas)
        numeric = np.sort(np.linalg.eigvalsh(bounds.observation_covariance(betas)))
        assert np.max(np.abs(closed - numeric)) <= 1e-10


def test_maximal_correlation_values():
    assert bounds.maximal_correlation_discrete(0.0, 257, 5.0) <= 1e-10
    for rho in (0.5, 0.9, -0.5):
        star = bounds.maximal_correlation_discrete(rho, 257, 5.0)
        assert abs(star - abs(rho)) <= 1e-2


def test_maximal_correlation_error_shrinks_when_grid_doubles():
    for rho in (0.3, 0.5, 0.9):
        err_n = abs(bounds.maximal_correlation_discrete(rho, 65, 5.0) - rho)
        err_2n = abs(bounds.maximal_correlation_discrete(rho, 130, 5.0) - rho)
        assert err_2n <= err_n + 1e-12


def test_maximal_correlation_singular_functions_affine():
    for rho in (0.5, -0.5):
        sig, x, f, g = bounds.maximal_correlation_functions(rho, 257, 5.0)
        assert sig == bounds.maximal_correlation_discrete(rho, 257, 5.0)
        assert abs(sig - abs(rho)) <= 1e-2
        # B is symmetric: the right singular function is the left one times
        # the sign of the eigenvalue, here the sign of rho.
        assert (g == math.copysign(1.0, rho) * f).all()
        inner = slice(1, -1)  # edge cells hold the tails; their centers are nominal
        design = np.vstack([np.ones_like(x[inner]), x[inner]]).T
        for func in (f, g):
            _, residual, *_ = np.linalg.lstsq(design, func[inner], rcond=None)
            rel = math.sqrt(residual[0]) / np.linalg.norm(func[inner])
            assert rel < 1e-3


def test_maximal_correlation_input_guards():
    for rho in (1.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"\|rho\| must be < 1"):
            bounds.maximal_correlation_discrete(rho)
    with pytest.raises(ValueError):
        bounds.maximal_correlation_discrete(0.5, grid_n=2)
    with pytest.raises(NumericalFailure):
        bounds.maximal_correlation_discrete(0.5, 257, range_sigmas=0.0)


# -- the in-repo normal CDF against scipy.special.ndtr ------------------------

def _two_solve_top_block(px, b):
    """_top_block without its Frobenius-norm skip: both blocks' eigvalsh,
    the larger top winning, the odd block on a tie."""
    best = None
    for odd, block in zip((True, False), bounds._reflection_blocks(px, b)):
        lam = np.linalg.eigvalsh(block)
        top = float(max(-lam[0], lam[-1]))
        if best is None or top > best[0]:
            best = (top, odd, block)
    return best


# Both sides of the CLI grid's switch from one eigensolve to two (|rho| 0.78
# to 0.79), the tiny and the extreme rho, on even and odd grids.
_SKIP_RHOS = [0.0, 1e-320, 0.9999, -0.9999] + [sign * k / 100 for k in range(70, 91)
                                                for sign in (1, -1)]
_SKIP_GRIDS = [(n, sigmas) for n in (3, 4, 5, 64, 258) for sigmas in (3.0, 5.0)]


def test_one_eigensolve_keeps_sigma2_bit_for_bit():
    for grid_n, sigmas in _SKIP_GRIDS:
        for rho in _SKIP_RHOS:
            _, px, _, b = bounds.discretized_correlation_operator(rho, grid_n, sigmas)
            star = bounds.maximal_correlation_discrete(rho, grid_n, sigmas)
            assert star.hex() == _two_solve_top_block(px, b)[0].hex(), (grid_n, sigmas, rho)


def test_the_even_eigensolve_is_skipped_only_where_its_norm_cannot_win(monkeypatch):
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    # On the CLI grid the even block's norm is below the odd block's top up
    # to |rho| = 0.78 and above it from 0.79.  At rho = 0 both tops are
    # rounding noise and both blocks are solved.
    for rho, solves in ((0.1, 1), (-0.3, 1), (0.5, 1), (0.75, 1), (-0.75, 1), (0.78, 1),
                        (0.79, 2), (-0.85, 2), (0.85, 2), (0.9, 2), (0.95, 2), (0.0, 2)):
        calls.clear()
        bounds.maximal_correlation_discrete(rho)
        assert len(calls) == solves, (rho, calls)


def test_singular_functions_are_those_of_solving_both_blocks(monkeypatch):
    top_block = bounds._top_block
    cases = [(rho, grid_n, sigmas) for grid_n, sigmas in _SKIP_GRIDS[::3] + [(257, 5.0)]
             for rho in (0.0, 0.5, -0.78, 0.8, -0.9, 0.9999)]
    runs = []
    for chooser in (top_block, _two_solve_top_block):
        monkeypatch.setattr(bounds, "_top_block", chooser)
        runs.append([bounds.maximal_correlation_functions(*case) for case in cases])
    for case, skip, both in zip(cases, *runs):
        _, px, _, b = bounds.discretized_correlation_operator(*case)
        (_, odd, block), (_, ref_odd, ref_block) = top_block(px, b), _two_solve_top_block(px, b)
        assert odd == ref_odd and np.array_equal(block, ref_block), case
        assert skip[0].hex() == both[0].hex(), case
        for got, want in zip(skip[1:], both[1:]):
            assert np.array_equal(got, want), case


def test_ndtr_matches_scipy():
    from scipy.special import ndtr

    # A dense grid over [-40, 40] and each of Cephes' branch edges, |x| = 1,
    # sqrt(2) (erf to erfc) and 8 sqrt(2) (P/Q to R/S), with both neighbours.
    edges = [np.nextafter(v, toward) for e in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0))
             for v in (e, -e) for toward in (-np.inf, v, np.inf)]
    x = np.concatenate((np.linspace(-40.0, 40.0, 160_001), edges))
    got, want = bounds._ndtr(x), ndtr(x)
    # The port takes scipy's steps, so only exp(-a^2) may differ: where
    # numpy's exp gives libm's bits (and on the erf branch, which has no
    # exp), so does the port.
    a = np.minimum(np.abs(x * (0.5 * math.sqrt(2.0))), 27.0)
    libm = np.array([math.exp(v) for v in -(a * a)])
    same = (a < 1.0) | (np.exp(-(a * a)) == libm)
    assert (got[same] == want[same]).all()
    # Elsewhere exp's last bit, through the product and the quotient, moves
    # the result by up to 2.53 eps, measured with numpy 2.4's AVX-512 exp.
    err = np.abs(got - want)
    tail = want < 1e-300
    assert (err[~tail] <= 3.0 * np.finfo(float).eps * want[~tail]).all()
    assert (err[tail] < 1e-300).all()


def test_ndtr_special_values():
    x = np.array([0.0, -0.0, -np.inf, np.inf, -1e308, 1e308, -38.0, 38.0, np.nan])
    got = bounds._ndtr(x)
    assert got[:-1].tolist() == [0.5, 0.5, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
    assert np.isnan(got[-1])
    assert bounds._ndtr(0.0) == 0.5


def test_ndtr_in_place_strided_and_chunk_free(monkeypatch):
    # Every branch, over several chunks.
    x = np.random.default_rng(7).normal(scale=12.0, size=(60, 500))
    want = bounds._ndtr(x)
    assert want.shape == x.shape
    inplace = x.copy()
    assert bounds._ndtr(inplace, out=inplace) is inplace
    assert (inplace == want).all()
    assert (bounds._ndtr(x.T) == want.T).all()
    assert (bounds._ndtr(x[:, ::3]) == want[:, ::3]).all()
    out = np.empty((60, 1000))[:, ::2]
    assert bounds._ndtr(x, out=out) is out
    assert (out == want).all()
    for chunk in (1, 7, 4096, 10**6):
        monkeypatch.setattr(bounds, "_NDTR_CHUNK", chunk)
        assert (bounds._ndtr(x[:4]) == want[:4]).all(), chunk


def _ref_correlation_operator(rho, grid_n, range_sigmas):
    """The operator with the conditional CDF evaluated at both ends of every
    cell and the infinite ends masked: the build before the shared-edge form."""
    from scipy.special import ndtr

    edges = np.linspace(-range_sigmas, range_sigmas, grid_n - 1)
    far = max(range_sigmas + 1.0, 9.0)
    bounds_x = np.concatenate(([-far], edges, [far]))
    nodes, weights = np.polynomial.legendre.leggauss(12)
    lo, hi = bounds_x[:-1], bounds_x[1:]
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    t = mid[:, None] + half[:, None] * nodes[None, :]
    w = half[:, None] * weights[None, :] * np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    s = math.sqrt(1.0 - rho * rho)
    upper = np.concatenate((edges, [np.inf]))
    lower = np.concatenate(([-np.inf], edges))
    cdf_hi = np.where(np.isinf(upper[None, None, :]), 1.0,
                      ndtr((upper[None, None, :] - rho * t[:, :, None]) / s))
    cdf_lo = np.where(np.isinf(lower[None, None, :]), 0.0,
                      ndtr((lower[None, None, :] - rho * t[:, :, None]) / s))
    mass = np.einsum("cq,cqj->cj", w, cdf_hi - cdf_lo)
    mass /= mass.sum()
    px, py = mass.sum(axis=1), mass.sum(axis=0)
    return px, py, mass / np.sqrt(np.outer(px, py))


# The build on the fundamental domain differs from the two-sided build only
# in the wide [far, range] edge cells and at rounding level elsewhere.
# Measured (numpy 2.4, scipy 1.17) over the rho below: at (257, 5 sigma) the
# second singular value moves by at most 7.2e-13 and B by 1.8e-6; at
# (65, 3 sigma), where the edge cells are 6 sigma wide, by 9.2e-8 and 6.8e-5.
_REF_BOUNDS = {(bounds.MAXCORR_GRID_N, bounds.MAXCORR_RANGE_SIGMAS): (1e-12, 2e-6),
               (65, 3.0): (1e-7, 1e-4)}


def test_correlation_operator_is_close_to_the_two_sided_cdf_build():
    for (grid_n, sigmas), (sigma_tol, b_tol) in _REF_BOUNDS.items():
        for rho in (0.0, 0.3, 0.5, 0.9, -0.7, 0.95, -0.95):
            _, px, py, b = bounds.discretized_correlation_operator(rho, grid_n, sigmas)
            ref_px, ref_py, ref_b = _ref_correlation_operator(rho, grid_n, sigmas)
            assert np.abs(b - ref_b).max() <= b_tol, (grid_n, rho)
            ref_sigma = np.linalg.svd(ref_b, compute_uv=False)[1]
            sigma = bounds.maximal_correlation_discrete(rho, grid_n, sigmas)
            assert abs(sigma - ref_sigma) <= sigma_tol, (grid_n, rho)


def test_correlation_operator_keeps_both_symmetries():
    for grid_n in (3, 4, 65, 130, 257, 514):
        for rho in (0.0, 0.5, -0.7, 0.95):
            _, px, py, b = bounds.discretized_correlation_operator(rho, grid_n, 5.0)
            mass = b * np.sqrt(np.outer(px, py))
            assert (px == py).all()
            assert (px == px[::-1]).all()
            assert (b == b.T).all() and (b == b[::-1, ::-1]).all()
            assert (mass == mass.T).all() and (mass == mass[::-1, ::-1]).all()
            assert abs(mass.sum() - 1.0) <= 1e-13
            assert np.abs(mass.sum(axis=1) - px).max() <= 1e-15


def _domain_cells(n):
    """Cells of the fundamental domain {(i, j): j <= min(i, n-1-i)}."""
    return sum(min(i, n - 1 - i) + 1 for i in range(n))


def _cdf_values(monkeypatch, build):
    """``build()``'s result and how many conditional-CDF values it evaluates."""
    ndtr = bounds._ndtr
    evaluated = []

    def counting(z, *args, **kwargs):
        evaluated.append(np.size(z))
        return ndtr(z, *args, **kwargs)

    monkeypatch.setattr(bounds, "_ndtr", counting)
    try:
        result = build()
    finally:
        monkeypatch.setattr(bounds, "_ndtr", ndtr)
    return result, sum(evaluated)


def test_correlation_operator_evaluates_the_cdf_on_a_quarter_of_the_cells(monkeypatch):
    n = bounds.MAXCORR_GRID_N
    star, count = _cdf_values(monkeypatch, lambda: bounds.maximal_correlation_discrete(0.5))
    assert star == bounds.maximal_correlation_discrete(0.5)
    # One CDF per y-edge the fundamental domain uses and quadrature node:
    # 4 nodes per interior x-cell at rho = 0.5 (the cell width times
    # kappa = max(1, |rho|/sqrt(1-rho^2)) = 1 is under 1/8), and on each of
    # the two infinite x-cells, [-9, -5] and its mirror, 6 nodes per panel of
    # width 1/2.
    assert 0 < count <= 4 * (_domain_cells(n) - 2) + 2 * 6 * 8


def test_correlation_operator_cdf_count_is_capped_at_every_rho(monkeypatch):
    # At most 12 nodes per cell of the fundamental domain and 2 x 64 panels of
    # 6 nodes on the infinite x-cells, however sharp the conditional CDF.
    top = 1.0 - 2.0 ** -53
    grids = ((3, 5.0), (4, 5.0), (65, 5.0), (130, 5.0), (bounds.MAXCORR_GRID_N, 5.0),
             (514, 5.0), (65, 3.0))
    for grid_n, sigmas in grids:
        for rho in (0.0, 0.5, -0.7, 0.95, -0.999, top, -top):
            _, count = _cdf_values(monkeypatch, lambda: bounds.discretized_correlation_operator(
                rho, grid_n, sigmas))
            assert 0 < count <= 12 * _domain_cells(grid_n) + 768, (grid_n, sigmas, rho)


def _converged_sigma2(rho, grid_n, range_sigmas):
    """The second singular value of a converged build: the reference for the
    operator's quadrature.  Every x-cell is split into panels of width at
    most 1/kappa (kappa = max(1, |rho|/sqrt(1-rho^2)), the conditional CDF's
    scale in x), each infinite one into at least 64, with 24 Gauss-Legendre
    nodes per panel and per-node CDF differences.  The law's two symmetries
    are exact, so only the fundamental domain is integrated; sigma2 comes from
    an SVD of the whole operator."""
    from scipy.special import ndtr

    n = grid_n
    low = np.linspace(-range_sigmas, range_sigmas, n - 1)[: (n - 1) // 2]
    edges = np.concatenate((low, [0.0] if n % 2 == 0 else [], -low[::-1]))
    s = math.sqrt(1.0 - rho * rho)
    kappa = max(1.0, abs(rho) / s)
    far = max(range_sigmas + 1.0, 9.0)
    cells = np.concatenate(([-far], edges, [far]))
    nodes, weights = np.polynomial.legendre.leggauss(24)
    mass = np.zeros((n, n))
    for i in range(n):
        lo, hi = cells[i], cells[i + 1]
        panels = max(math.ceil((hi - lo) * kappa), 64 if i in (0, n - 1) else 1)
        cuts = np.linspace(lo, hi, panels + 1)
        half, mid = 0.5 * np.diff(cuts), 0.5 * (cuts[1:] + cuts[:-1])
        t = (mid[:, None] + half[:, None] * nodes).ravel()
        w = (half[:, None] * weights).ravel() * np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        m = min(i, n - 1 - i) + 1
        cdf = ndtr((edges[:m] - rho * t[:, None]) / s)
        mass[i, :m] = w @ np.diff(cdf, axis=1, prepend=0.0)
    i, j = np.nonzero(np.arange(n) <= np.minimum(np.arange(n), np.arange(n)[::-1])[:, None])
    on_d = mass[i, j]
    for r, c in ((j, i), (n - 1 - i, n - 1 - j), (n - 1 - j, n - 1 - i)):
        mass[r, c] = on_d
    mass /= mass.sum()
    p = mass.sum(axis=1)
    return np.linalg.svd(mass / np.sqrt(np.outer(p, p)), compute_uv=False)[1]


_ACCURACY_RHOS = (0.0, 0.3, -0.3, 0.5, -0.7, 0.9, 0.95, -0.95, 0.99, 0.999)

# sigma2's error against _converged_sigma2 with one 12-node rule per x-cell,
# the infinite ones included (measured with numpy 2.4 and scipy 1.17): at
# (65, 3 sigma) the infinite cells are 6 sigma wide, and at 3 and 4 cells
# over 5 sigma the interior 12-node rule dominates (and stays).
_ONE_PANEL_ERRORS = {
    (65, 3.0): {0.95: 9.359e-8, -0.95: 9.359e-8},
    (3, 5.0): dict(zip(_ACCURACY_RHOS, (3.169e-11, 1.227e-8, 1.227e-8, 2.989e-8, 8.113e-6,
                                        6.881e-4, 2.638e-3, 2.638e-3, 1.492e-2, 6.140e-2))),
    (4, 5.0): dict(zip(_ACCURACY_RHOS, (3.3e-16, 3.813e-11, 3.813e-11, 2.504e-11, 2.683e-9,
                                        1.313e-6, 1.803e-5, 1.803e-5, 7.615e-4, 9.640e-6))),
}


def test_second_singular_value_matches_a_converged_quadrature():
    # Composite panels on the infinite x-cells: at the CLI grid and at 130
    # cells, sigma2 is the converged value to rounding.
    for grid_n in (bounds.MAXCORR_GRID_N, 130):
        for rho in _ACCURACY_RHOS:
            err = bounds.maximal_correlation_discrete(rho, grid_n, 5.0) - _converged_sigma2(
                rho, grid_n, 5.0)
            assert abs(err) <= 1e-14, (grid_n, rho, err)
    # Interior cells with h * kappa <= 1/8 take 4 nodes, wider ones 6: on
    # either side of the switch, at |rho| = 0.95415 on the CLI grid.
    n = bounds.MAXCORR_GRID_N
    h = 10.0 / (n - 2)
    for rho in (0.9541, -0.9541, 0.9542, -0.9542):
        assert (h * abs(rho) / math.sqrt(1.0 - rho * rho) <= 0.125) == (abs(rho) < 0.95415)
        err = bounds.maximal_correlation_discrete(rho, n, 5.0) - _converged_sigma2(rho, n, 5.0)
        assert abs(err) <= 1e-14, (rho, err)
    # Where one 12-node panel spanned a 6-sigma tail, 1000x closer.
    for rho, before in _ONE_PANEL_ERRORS[65, 3.0].items():
        err = bounds.maximal_correlation_discrete(rho, 65, 3.0) - _converged_sigma2(rho, 65, 3.0)
        assert abs(err) <= before / 1000, (rho, err)
    # Cells wider than 1/(2 kappa) keep the 12-node rule: no more than 10%
    # further than before.
    for grid_n, sigmas in ((3, 5.0), (4, 5.0)):
        for rho, before in _ONE_PANEL_ERRORS[grid_n, sigmas].items():
            err = bounds.maximal_correlation_discrete(rho, grid_n, sigmas) - _converged_sigma2(
                rho, grid_n, sigmas)
            assert abs(err) <= 1.1 * before + 1e-15, (grid_n, rho, err)


def test_correlation_operator_is_independent_of_the_worker_count(monkeypatch):
    # The operator is built on the calling thread: one to four usable CPUs
    # give the same bits, for the operator and for the singular functions.
    cases = ((bounds.MAXCORR_GRID_N, bounds.MAXCORR_RANGE_SIGMAS), (65, 3.0), (3, 5.0))
    for grid_n, sigmas in cases:
        for rho in (0.0, 0.5, -0.7):
            runs = []
            for cpus in ({0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: c,
                                    raising=False)
                runs.append(bounds.discretized_correlation_operator(rho, grid_n, sigmas)
                            + bounds.maximal_correlation_functions(rho, grid_n, sigmas))
            one_worker = runs[0]
            for run in runs[1:]:
                assert run[4] == one_worker[4]
                for k in (0, 1, 2, 3, 5, 6, 7):
                    assert (run[k] == one_worker[k]).all()


def test_maxcorr_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # The golden maxcorr config over a 39-point rho sweep, run in fresh
    # interpreters with one and with two OpenBLAS (and OpenMP) threads.
    from test_golden_outputs import CASES

    command, config = CASES["maxcorr"]
    cfg = tmp_path / "maxcorr.cfg.json"
    cfg.write_text(json.dumps({**config, "sweep": {"param": "rho", "from": -0.95, "to": 0.95,
                                                   "steps": 39}}))
    src = str(Path(bounds.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        done = subprocess.run([sys.executable, "-m", "jamnet.cli", command, "--config", str(cfg),
                               "--out", str(out)], capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append((out.with_suffix(".csv").read_bytes(), out.with_suffix(".json").read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count(b"\n") == 40
