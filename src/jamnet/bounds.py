"""Remote-source rate-distortion bound and the maximal-correlation check.

The distortion-rate function of the Gaussian many-helper (CEO-style) problem
splits as D(R) = D_est + D_rd(R): an estimation floor from the sensing noise
plus a classical Gaussian rate-distortion term on the sufficient statistic.
The maximal-correlation lemma (linear maximizers, rho* = |rho| for bivariate
normals) is verified at desk scale by the second singular value of the
discretized conditional-expectation operator.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .model import NumericalFailure

# Default quantization of the maximal-correlation check (and the grid the CLI's
# maxcorr command reports): cells per axis and the half-width, in standard
# deviations, of the equispaced interior edges.
MAXCORR_GRID_N = 257
MAXCORR_RANGE_SIGMAS = 5.0


@dataclasses.dataclass(frozen=True)
class RDPoint:
    rate: float
    distortion: float


def ceo_sigma_t(betas, sigma_s2: float = 1.0) -> float:
    """Variance of the MMSE estimate of S from all observations:
    sigma_S^2 * sum(beta^2) / (1 + sum(beta^2))."""
    sb2 = float(sum(b * b for b in betas))
    return sigma_s2 * sb2 / (1.0 + sb2)


def ceo_estimation_floor(betas, sigma_s2: float = 1.0) -> float:
    """Residual MMSE with unlimited rate: sigma_S^2 / (1 + sum(beta^2))."""
    sb2 = float(sum(b * b for b in betas))
    return sigma_s2 / (1.0 + sb2)


def ceo_distortion(rate: float, betas, sigma_s2: float = 1.0) -> float:
    """D(R) = sigma_S^2 * (1/(1+sum b^2) + (sum b^2/(1+sum b^2)) * 2^(-2R)).

    Strictly decreasing and convex in the rate; D(0) = sigma_S^2 and
    D(inf) = the estimation floor.
    """
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    if len(tuple(betas)) == 0:
        raise ValueError("betas must be nonempty")
    sb2 = float(sum(b * b for b in betas))
    frac = sb2 / (1.0 + sb2)
    # Grouped so D(0) is exactly sigma_S^2.
    return sigma_s2 * (1.0 + frac * (2.0 ** (-2.0 * rate) - 1.0))


def ceo_curve(rates, betas, sigma_s2: float = 1.0) -> list[RDPoint]:
    return [RDPoint(rate=float(r), distortion=ceo_distortion(float(r), betas, sigma_s2)) for r in rates]


def observation_covariance(betas) -> np.ndarray:
    """Covariance of U = beta*S + W with unit source/noise variances:
    I + beta beta^T."""
    b = np.asarray(betas, dtype=float)
    return np.eye(b.size) + np.outer(b, b)


def ceo_sigma_t_matrix(betas, sigma_s2: float = 1.0) -> float:
    """sigma_T^2 via the explicit linear-estimation solve R_SU R_U^-1 R_SU^T
    (cross-check for ceo_sigma_t; exact for unit source variance)."""
    b = np.asarray(betas, dtype=float)
    r_su = sigma_s2 * b
    r_u = sigma_s2 * np.outer(b, b) + np.eye(b.size)
    return float(r_su @ np.linalg.solve(r_u, r_su))


def ru_spectrum(betas) -> np.ndarray:
    """Eigenvalues of I + beta beta^T, ascending: M-1 ones and 1 + sum(beta^2)."""
    b = np.asarray(betas, dtype=float)
    if b.size == 0:
        raise ValueError("betas must be nonempty")
    eigs = np.ones(b.size)
    eigs[-1] = 1.0 + float(np.sum(b * b))
    return np.sort(eigs)


def discretized_correlation_operator(
    rho: float, grid_n: int = MAXCORR_GRID_N, range_sigmas: float = MAXCORR_RANGE_SIGMAS
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Quantize the bivariate normal and form the correlation kernel.

    Each axis is partitioned into grid_n cells whose interior edges are
    equispaced over [-range_sigmas, range_sigmas]; the two edge cells extend
    to infinity so the quantization is a genuine deterministic function of
    each variable (hence the discrete maximal correlation approaches |rho|
    from below as the grid refines).  Cell masses come from per-cell
    Gauss-Legendre quadrature of phi(x) * [Phi ranges of Y | x], exact to
    quadrature precision.  Returns (grid, px, py, B) with
    B = P / sqrt(px py^T); the singular values of B are 1 (constants)
    followed by the maximal correlation of the quantized pair.
    """
    if abs(rho) >= 1.0:
        raise ValueError("|rho| must be < 1")
    if grid_n < 3:
        raise ValueError("grid_n must be >= 3")
    if not np.isfinite(range_sigmas) or range_sigmas <= 0.0:
        raise NumericalFailure("range_sigmas must be positive and finite")

    from scipy.special import ndtr

    edges = np.linspace(-range_sigmas, range_sigmas, grid_n - 1)
    # Quadrature cells: tails truncated at 9 sigma (mass beyond ~1e-19).
    far = max(range_sigmas + 1.0, 9.0)
    bounds_x = np.concatenate(([-far], edges, [far]))
    order = 12
    nodes, weights = np.polynomial.legendre.leggauss(order)
    lo = bounds_x[:-1]
    hi = bounds_x[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    t = mid[:, None] + half[:, None] * nodes[None, :]  # (cells, order)
    w = half[:, None] * weights[None, :] * np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

    s = math.sqrt(1.0 - rho * rho)
    upper = np.concatenate((edges, [np.inf]))
    lower = np.concatenate(([-np.inf], edges))
    cdf_hi = np.where(
        np.isinf(upper[None, None, :]),
        1.0,
        ndtr((upper[None, None, :] - rho * t[:, :, None]) / s),
    )
    cdf_lo = np.where(
        np.isinf(lower[None, None, :]),
        0.0,
        ndtr((lower[None, None, :] - rho * t[:, :, None]) / s),
    )
    mass = np.einsum("cq,cqj->cj", w, cdf_hi - cdf_lo)

    total = mass.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise NumericalFailure("joint mass matrix is not normalizable")
    mass /= total
    px = mass.sum(axis=1)
    py = mass.sum(axis=0)
    if np.any(px <= 0.0) or np.any(py <= 0.0):
        raise NumericalFailure("marginal mass vanished on the grid")

    h = edges[1] - edges[0]
    centers = np.concatenate(([edges[0] - 0.5 * h], edges[:-1] + 0.5 * h, [edges[-1] + 0.5 * h]))
    b = mass / np.sqrt(np.outer(px, py))
    return centers, px, py, b


def maximal_correlation_discrete(
    rho: float, grid_n: int = MAXCORR_GRID_N, range_sigmas: float = MAXCORR_RANGE_SIGMAS
) -> float:
    """Second singular value of the discretized conditional-expectation
    operator; equals |rho| up to discretization error, attained by (nearly)
    affine singular functions."""
    _, _, _, b = discretized_correlation_operator(rho, grid_n, range_sigmas)
    svals = np.linalg.svd(b, compute_uv=False)
    return float(svals[1])


def maximal_correlation_functions(
    rho: float, grid_n: int = MAXCORR_GRID_N, range_sigmas: float = MAXCORR_RANGE_SIGMAS
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(sigma2, grid, f, g): the second singular value and the associated
    singular functions f(x), g(y) in probability coordinates."""
    x, px, py, b = discretized_correlation_operator(rho, grid_n, range_sigmas)
    u, svals, vt = np.linalg.svd(b)
    f = u[:, 1] / np.sqrt(px)
    g = vt[1, :] / np.sqrt(py)
    return float(svals[1]), x, f, g
