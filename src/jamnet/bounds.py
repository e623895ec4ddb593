"""Remote-source rate-distortion bound and the maximal-correlation check.

The distortion-rate function of the Gaussian many-helper (CEO-style) problem
splits as D(R) = D_est + D_rd(R): an estimation floor from the sensing noise
plus a classical Gaussian rate-distortion term on the sufficient statistic.
The maximal-correlation lemma (linear maximizers, rho* = |rho| for bivariate
normals) is verified at desk scale by the second singular value of the
discretized conditional-expectation operator.  The operator's rows are built
in stripes of x-cells on a thread pool of min(grid_n, CPUs this process may
use) workers, into arrays the calling thread allocates; the worker count
never changes the operator.  Normalization, marginals and the SVD run on the
calling thread.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math

import numpy as np

from .model import NumericalFailure, _usable_cpus

# Default quantization of the maximal-correlation check (and the grid the CLI's
# maxcorr command reports): cells per axis and the half-width, in standard
# deviations, of the equispaced interior edges.
MAXCORR_GRID_N = 257
MAXCORR_RANGE_SIGMAS = 5.0


@dataclasses.dataclass(frozen=True)
class RDPoint:
    rate: float
    distortion: float


def _sum_beta2(betas) -> float:
    """sum(beta^2), or NumericalFailure when it overflows the float range."""
    sb2 = float(sum(b * b for b in betas))
    if not math.isfinite(sb2):
        raise NumericalFailure("sum(beta^2) is not finite: a sensing gain overflows")
    return sb2


def ceo_sigma_t(betas, sigma_s2: float = 1.0) -> float:
    """Variance of the MMSE estimate of S from all observations:
    sigma_S^2 * sum(beta^2) / (1 + sum(beta^2))."""
    sb2 = _sum_beta2(betas)
    return sigma_s2 * sb2 / (1.0 + sb2)


def ceo_estimation_floor(betas, sigma_s2: float = 1.0) -> float:
    """Residual MMSE with unlimited rate: sigma_S^2 / (1 + sum(beta^2))."""
    sb2 = _sum_beta2(betas)
    return sigma_s2 / (1.0 + sb2)


def ceo_distortion(rate: float, betas, sigma_s2: float = 1.0) -> float:
    """D(R) = sigma_S^2 * (1/(1+sum b^2) + (sum b^2/(1+sum b^2)) * 2^(-2R)).

    Strictly decreasing and convex in the rate; D(0) = sigma_S^2 and
    D(inf) = the estimation floor.
    """
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    betas = tuple(betas)  # read once: betas may be a one-shot iterator
    if not betas:
        raise ValueError("betas must be nonempty")
    sb2 = _sum_beta2(betas)
    frac = sb2 / (1.0 + sb2)
    # Grouped so D(0) is exactly sigma_S^2.
    return sigma_s2 * (1.0 + frac * (2.0 ** (-2.0 * rate) - 1.0))


def ceo_curve(rates, betas, sigma_s2: float = 1.0) -> list[RDPoint]:
    betas = tuple(betas)  # read by every rate
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
    quadrature precision; the conditional normal CDF is evaluated once per
    interior edge and node.  Returns (grid, px, py, B) with
    B = P / sqrt(px py^T); the singular values of B are 1 (constants)
    followed by the maximal correlation of the quantized pair.

    The rows of the joint mass are built in contiguous stripes of x-cells on
    a thread pool of min(grid_n, CPUs this process may use) workers.  Each
    stripe computes its CDF rows, their differences and its mass rows in
    place, into arrays the calling thread allocates; the workers call only
    numpy and ``ndtr``.  A row's arithmetic does not depend on the stripe
    that holds it, so the worker count never changes the result.
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

    # Cell j of Y spans (edge j-1, edge j]: the conditional CDF at each
    # interior edge, between a first column of 0 and a last of 1 for the
    # infinite ends, differenced.
    s = math.sqrt(1.0 - rho * rho)
    # Every array the stripes touch is allocated here, on the calling thread,
    # so the pool threads' malloc arenas never hold operator-sized buffers.
    rt = rho * t
    cdf = np.empty((grid_n, order, grid_n + 1))
    cdf[:, :, 0] = 0.0
    cdf[:, :, -1] = 1.0
    dcdf = np.empty((grid_n, order, grid_n))
    mass = np.empty((grid_n, grid_n))

    workers = min(grid_n, _usable_cpus())
    cuts = [grid_n * k // workers for k in range(workers + 1)]

    def stripe(k: int) -> None:
        rows = slice(cuts[k], cuts[k + 1])
        inner = cdf[rows, :, 1:-1]
        np.subtract(edges[None, None, :], rt[rows, :, None], out=inner)
        inner /= s
        ndtr(inner, out=inner)
        np.subtract(cdf[rows, :, 1:], cdf[rows, :, :-1], out=dcdf[rows])
        np.einsum("cq,cqj->cj", w[rows], dcdf[rows], out=mass[rows])

    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(stripe, range(workers)))

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
