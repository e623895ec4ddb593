import math
import os
import sys

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
    sig, x, f, g = bounds.maximal_correlation_functions(0.5, 257, 5.0)
    inner = slice(1, -1)  # edge cells hold the tails; their centers are nominal
    design = np.vstack([np.ones_like(x[inner]), x[inner]]).T
    for func in (f, g):
        _, residual, *_ = np.linalg.lstsq(design, func[inner], rcond=None)
        rel = math.sqrt(residual[0]) / np.linalg.norm(func[inner])
        assert rel < 1e-3


def test_maximal_correlation_input_guards():
    with pytest.raises(ValueError):
        bounds.maximal_correlation_discrete(1.0)
    with pytest.raises(ValueError):
        bounds.maximal_correlation_discrete(0.5, grid_n=2)
    with pytest.raises(NumericalFailure):
        bounds.maximal_correlation_discrete(0.5, 257, range_sigmas=0.0)


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


def test_correlation_operator_equals_the_two_sided_cdf_build():
    for rho in (0.0, 0.3, 0.5, 0.9, -0.7):
        for grid_n, sigmas in ((bounds.MAXCORR_GRID_N, bounds.MAXCORR_RANGE_SIGMAS), (65, 3.0)):
            _, px, py, b = bounds.discretized_correlation_operator(rho, grid_n, sigmas)
            ref_px, ref_py, ref_b = _ref_correlation_operator(rho, grid_n, sigmas)
            assert (px == ref_px).all() and (py == ref_py).all()
            assert (b == ref_b).all(), rho


def test_correlation_operator_is_independent_of_the_worker_count(monkeypatch):
    # One to four usable CPUs give one- to four-worker pools on any machine;
    # at grid_n = 3 the four-CPU pool is capped at three one-cell stripes.
    # A short switch interval interleaves the stripes' writes into the shared
    # arrays as finely as the interpreter allows.
    cases = ((bounds.MAXCORR_GRID_N, bounds.MAXCORR_RANGE_SIGMAS), (65, 3.0), (3, 5.0))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for grid_n, sigmas in cases:
            for rho in (0.0, 0.5, -0.7):
                ref_px, ref_py, ref_b = _ref_correlation_operator(rho, grid_n, sigmas)
                runs = []
                for cpus in ({0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}):
                    monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: c,
                                        raising=False)
                    _, px, py, b = bounds.discretized_correlation_operator(rho, grid_n, sigmas)
                    assert (px == ref_px).all() and (py == ref_py).all() and (b == ref_b).all()
                    runs.append(bounds.maximal_correlation_functions(rho, grid_n, sigmas))
                one_worker = runs[0]
                for run in runs[1:]:
                    assert run[0] == one_worker[0]
                    for got, want in zip(run[1:], one_worker[1:]):
                        assert (got == want).all()
    finally:
        sys.setswitchinterval(interval)
