"""Remote-source rate-distortion bound and the maximal-correlation check.

The distortion-rate function of the Gaussian many-helper (CEO-style) problem
splits as D(R) = D_est + D_rd(R): an estimation floor from the sensing noise
plus a classical Gaussian rate-distortion term on the sufficient statistic.
The maximal-correlation lemma (linear maximizers, rho* = |rho| for bivariate
normals) is verified at desk scale by the second singular value of the
discretized conditional-expectation operator B.  The quantized bivariate
normal keeps the two symmetries of the continuous one, (X, Y) -> (Y, X) and
(X, Y) -> (-X, -Y): the conditional-CDF quadrature runs only on a
fundamental domain of about n^2/4 of the n^2 cells, and the rest of the mass
is copied from it, so B is exactly symmetric and commutes with the
reflection.  The quadrature in x follows the conditional CDF's scale in x:
4 Gauss-Legendre nodes on a cell across which that CDF is smooth, 6 on one
across which it bends more, 12 on a wider one, and composite panels on the
two infinite cells.  The normal CDF is ``_ndtr``, a numpy port of Cephes'
ndtr (the algorithm of scipy.special.ndtr), so the package needs numpy
only.  The second
singular value is then the larger of two half-size symmetric eigenproblems:
B on the odd vectors (by Mehler's expansion the maximal correlation's
singular function is odd) and B on the even vectors deflated by the
constants' singular pair.  Everything runs on the calling thread except
the two ``numpy.linalg.eigvalsh`` calls, which LAPACK runs on the BLAS
library's thread pool unless that is limited to one thread (for OpenBLAS,
OPENBLAS_NUM_THREADS=1).  That pool can stall on a loaded machine: on a
shared 2-core box, 40 calls of the pair at grid 257 and rho = 0.5 took
median 1.77 ms but p90 44 ms under OpenBLAS's default two threads, against
median 1.67 ms and p90 1.71 ms on one.  The result is bit-for-bit the same
for any BLAS thread count.
"""

from __future__ import annotations

import dataclasses
import functools
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
    """D(R) at one rate: ``ceo_curve([rate], betas, sigma_s2)``'s point."""
    return ceo_curve((rate,), betas, sigma_s2)[0].distortion


def ceo_curve(rates, betas, sigma_s2: float = 1.0) -> list[RDPoint]:
    """D(R) = sigma_S^2 * (1/(1+sum b^2) + (sum b^2/(1+sum b^2)) * 2^(-2R))
    at each rate, in order.

    Strictly decreasing and convex in the rate; D(0) = sigma_S^2 and
    D(inf) = the estimation floor.  betas is read once, as it may be a
    one-shot iterator; it is checked nonempty, and its sums formed, at the
    first rate, after that rate's own check.
    """
    betas = tuple(betas)
    points = []
    frac = None
    for r in rates:
        rate = float(r)
        if not rate >= 0.0:  # NaN too
            raise ValueError("rate must be nonnegative")
        if frac is None:
            if not betas:
                raise ValueError("betas must be nonempty")
            frac = ceo_sigma_t(betas)  # the observations' share of a unit source
        # Grouped so D(0) is exactly sigma_S^2.
        points.append(RDPoint(rate, sigma_s2 * (1.0 + frac * (2.0 ** (-2.0 * rate) - 1.0))))
    return points


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


# Cephes' ndtr (Moshier), the algorithm scipy.special.ndtr evaluates, with its
# coefficients, highest power first.  With a = x/sqrt(2): Phi(x) = 1/2 +
# erf(a)/2 for |a| < 1, where erf(a) = a T(a^2)/U(a^2); otherwise
# erfc(|a|)/2, or 1 minus it for a > 0, where erfc(z) = exp(-z^2) P(z)/Q(z)
# on [1, 8), exp(-z^2) R(z)/S(z) from 8, and 0 once z^2 exceeds the log of
# the largest double.  Q, S and U are monic: their leading 1 times z is z.
_NDTR_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
           7.00332514112805075473E3, 5.55923013010394962768E4)
_NDTR_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
           2.26290000613890934246E4, 4.92673942608635921086E4)
_NDTR_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_NDTR_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_NDTR_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_NDTR_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_NDTR_MAXLOG = 7.09782712893383996843E2
# Every |a| from here has erfc 0 (27^2 > the log above): clamping |a| to it
# keeps each intermediate finite.
_NDTR_CLAMP = 27.0
# Values per pass, so that the pass's five buffers stay in a core's L2 cache.
_NDTR_CHUNK = 8192


def _horner(z: np.ndarray, coef, out: np.ndarray) -> np.ndarray:
    """The polynomial coef (highest power first) at z by Horner's rule, the
    steps of Cephes' polevl, into out."""
    np.multiply(z, coef[0], out=out)
    out += coef[1]
    for c in coef[2:]:
        out *= z
        out += c
    return out


def _ndtr(x, out=None) -> np.ndarray:
    """The standard normal CDF of x, elementwise, by Cephes' ndtr: the
    values of scipy.special.ndtr to within the last bits of exp.

    out may be x itself.  The work runs _NDTR_CHUNK values at a time, and
    the erf and far-tail branches are evaluated only on the values that take
    them.
    """
    x = np.asarray(x, dtype=float)
    res = out if out is not None and out.flags.c_contiguous else np.empty(x.shape)
    src, dst = x.reshape(-1), res.reshape(-1)  # dst is res's memory
    chunk = _NDTR_CHUNK
    a, z, e, p, q = (np.empty(min(chunk, src.size)) for _ in range(5))
    for start in range(0, src.size, chunk):
        # The chunk of src is read into a before dst's is written: out may be x.
        k = min(chunk, src.size - start)
        ak, zk, ek = a[:k], z[:k], e[:k]
        np.multiply(src[start:start + k], 0.5 * math.sqrt(2.0), out=ak)
        np.abs(ak, out=zk)
        np.minimum(zk, _NDTR_CLAMP, out=zk)
        # erfc(z) by the [1, 8) rule everywhere; the other branches overwrite.
        np.multiply(zk, zk, out=ek)
        np.negative(ek, out=ek)
        np.exp(ek, out=ek)
        ek *= _horner(zk, _NDTR_P, p[:k])
        ek /= _horner(zk, _NDTR_Q, q[:k])
        far = np.flatnonzero(zk >= 8.0)
        if far.size:
            zf = zk[far]
            y = np.exp(-(zf * zf))
            y *= _horner(zf, _NDTR_R, np.empty_like(zf))
            y /= _horner(zf, _NDTR_S, np.empty_like(zf))
            y[zf * zf > _NDTR_MAXLOG] = 0.0
            ek[far] = y
        ek *= 0.5
        np.subtract(1.0, ek, out=ek, where=ak > 0.0)
        near = np.flatnonzero(zk < 1.0)
        if near.size:
            an = ak[near]
            a2 = an * an
            y = an * _horner(a2, _NDTR_T, np.empty_like(a2))
            y /= _horner(a2, _NDTR_U, np.empty_like(a2))
            y *= 0.5
            y += 0.5
            ek[near] = y
        dst[start:start + k] = ek
    if out is not None and res is not out:
        out[...] = res
        return out
    return res


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The order-point Gauss-Legendre rule on [-1, 1] (nodes antisymmetric,
    weights symmetric, bit for bit), formed once per process and order and
    read-only, since every call shares it."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _quadrature(lo: np.ndarray, hi: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, (cells, order), of phi(x) dx on each [lo, hi]."""
    nodes, weights = _gauss_legendre(order)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    t = mid[:, None] + half[:, None] * nodes[None, :]
    w = half[:, None] * weights[None, :] * np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    return t, w


def discretized_correlation_operator(
    rho: float, grid_n: int = MAXCORR_GRID_N, range_sigmas: float = MAXCORR_RANGE_SIGMAS
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Quantize the bivariate normal and form the correlation kernel.

    Each axis is partitioned into grid_n cells whose interior edges are
    equispaced over [-range_sigmas, range_sigmas], exactly antisymmetric
    about 0; the two edge cells extend to infinity so the quantization is a
    genuine deterministic function of each variable (hence the discrete
    maximal correlation approaches |rho| from below as the grid refines).
    Cell masses come from Gauss-Legendre quadrature in x of
    phi(x) * [Phi ranges of Y | x].  Returns (grid, px, py, B) with
    B = P / sqrt(px py^T); the singular values of B are 1 (constants)
    followed by the maximal correlation of the quantized pair.

    The joint law is invariant under the swap (X, Y) -> (Y, X) and the
    reflection (X, Y) -> (-X, -Y), so the quadrature runs only on the
    fundamental domain D = {(i, j): j <= min(i, n-1-i)}, about n^2/4 cells,
    and every other cell is copied from its image in D.  The joint mass is
    therefore bitwise symmetric under the transpose and under
    (i, j) -> (n-1-i, n-1-j); px == py, and B is symmetric and commutes with
    the reflection.  On D a cell that differences two conditional-CDF values
    has its y-edges at most about a cell above the conditional mean, so no
    cell differences two values near 1.

    The conditional CDF Phi((y - rho x) / sqrt(1 - rho^2)) varies in x on
    the scale 1/kappa, kappa = max(1, |rho| / sqrt(1 - rho^2)) (phi(x) itself
    on the scale 1).  An interior x-cell of width h takes 4 nodes where
    h * kappa <= 1/8 (every |rho| <= 0.954 on the CLI grid), 6 where
    h * kappa <= 1/2 (every |rho| <= 0.9969) and 12 elsewhere.  The two infinite x-cells, truncated at 9 sigma, hold only the
    D cells (0, 0) and (n-1, 0); each takes a composite 6-node rule on panels
    of width <= 0.5 / kappa, at most 64 of them.
    """
    if not abs(rho) < 1.0:  # NaN too
        raise ValueError("|rho| must be < 1")
    if grid_n < 3:
        raise ValueError("grid_n must be >= 3")
    if not np.isfinite(range_sigmas) or range_sigmas <= 0.0:
        raise NumericalFailure("range_sigmas must be positive and finite")

    n = grid_n
    # n-1 interior edges, exactly antisymmetric: linspace's lower half, 0 in
    # the middle when n is even, and the lower half negated.
    low = np.linspace(-range_sigmas, range_sigmas, n - 1)[: (n - 1) // 2]
    edges = np.concatenate((low, [0.0] if n % 2 == 0 else [], -low[::-1]))
    h = edges[1] - edges[0]
    s = math.sqrt(1.0 - rho * rho)
    kappa = max(1.0, abs(rho) / s)

    # D row by row, flattened: row i holds columns 0 .. min(i, n-1-i).  Cell
    # j of Y spans (edge j-1, edge j]; column 0 is the CDF at edge 0 itself,
    # every later column the difference of two consecutive edges.
    i = np.arange(n)
    span = np.minimum(i, n - 1 - i) + 1
    row = np.repeat(i, span)
    first = np.cumsum(span) - span
    col = np.arange(row.size) - first[row]
    on_d = np.empty(row.size)

    # Rows 1 .. n-2, the interior x-cells, fill on_d[1:-1].  Each row's CDF
    # values are summed over the nodes before its columns are differenced;
    # that rounds like per-node differences, to eps times the sums.
    order = 4 if h * kappa <= 0.125 else 6 if h * kappa <= 0.5 else 12
    t, w = _quadrature(edges[:-1], edges[1:], order)
    cell = row[1:-1] - 1  # the x-cell's row of (t, w)
    cdf = np.take(rho / s * t, cell, axis=0)
    np.subtract((edges / s)[col[1:-1]][:, None], cdf, out=cdf)
    _ndtr(cdf, out=cdf)
    cum = np.einsum("kq,kq->k", w[cell], cdf)
    np.subtract(cum[1:], cum[:-1], out=on_d[2:-1])
    on_d[first[1:-1]] = cum[first[1:-1] - 1]

    # Rows 0 and n-1, the infinite x-cells truncated at 9 sigma (mass beyond
    # ~1e-19), hold column 0 only: x in [-far, edge 0] and in its mirror
    # image, both at y <= edge 0.
    far = max(range_sigmas + 1.0, 9.0)
    panels = min(64, math.ceil((far + edges[0]) * kappa / 0.5))
    cuts = np.linspace(-far, edges[0], panels + 1)
    t, w = _quadrature(cuts[:-1], cuts[1:], 6)
    cdf = _ndtr((edges[0] - np.outer((rho, -rho), t)) / s)
    on_d[[0, -1]] = np.einsum("kq,q->k", cdf, w.ravel())

    # D and its images under the transpose, the reflection and both cover
    # the grid; a cell in two images gets the same D cell from each.
    mass = np.empty((n, n))
    for r, c in ((row, col), (col, row), (n - 1 - row, n - 1 - col), (n - 1 - col, n - 1 - row)):
        mass[r, c] = on_d

    total = mass.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise NumericalFailure("joint mass matrix is not normalizable")
    mass /= total
    px = mass.sum(axis=1)
    px[(n + 1) // 2:] = px[: n // 2][::-1]  # the reflection's image, bit for bit
    if np.any(px <= 0.0):
        raise NumericalFailure("marginal mass vanished on the grid")

    centers = np.concatenate(([edges[0] - 0.5 * h], edges[:-1] + 0.5 * h, [edges[-1] + 0.5 * h]))
    b = mass / np.sqrt(np.outer(px, px))
    return centers, px, px.copy(), b  # py == px: the mass is symmetric


def _reflection_blocks(px: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B on the odd and on the even vectors of the central reflection.

    B commutes with the reflection, so its spectrum is that of two symmetric
    blocks.  The odd block acts on (e_i - e_{n-1-i})/sqrt(2), i < n//2.  The
    even block acts on (e_i + e_{n-1-i})/sqrt(2) and, for odd n, the centre
    cell e_c, and is deflated by sqrt(p) sqrt(p)^T: the constants' singular
    pair (value 1) is even, and removing it leaves the maximal correlation as
    the largest |eigenvalue| of the two blocks.  All of it is elementwise, so
    the blocks have the same bits on any BLAS thread count.
    """
    n = b.shape[0]
    m, e = n // 2, (n + 1) // 2
    # odd[i, k] = B[i, k] - B[i, n-1-k]; even[i, k] = D[i, k] + D[i, n-1-k]
    # with D = B - sqrt(p) sqrt(p)^T, scaled by 1/sqrt(2) on the centre row
    # and column (whose basis vector is e_c, not a pair).
    odd = b[:m, :m] - b[:m, ::-1][:, :m]
    root = np.sqrt(px)
    deflated = b[:e] - np.outer(root[:e], root)
    even = deflated[:, :e] + deflated[:, ::-1][:, :e]
    if n % 2:
        even[-1] /= math.sqrt(2.0)
        even[:, -1] /= math.sqrt(2.0)
    return odd, even


def _top_block(px: np.ndarray, b: np.ndarray) -> tuple[float, bool, np.ndarray]:
    """(sigma2, odd, block): the largest |eigenvalue| of the two reflection
    blocks, whether it is the odd block's, and that block."""
    best = None
    for odd, block in zip((True, False), _reflection_blocks(px, b)):
        lam = np.linalg.eigvalsh(block)
        top = float(max(-lam[0], lam[-1]))
        if best is None or top > best[0]:
            best = (top, odd, block)
    return best


def maximal_correlation_discrete(
    rho: float, grid_n: int = MAXCORR_GRID_N, range_sigmas: float = MAXCORR_RANGE_SIGMAS
) -> float:
    """Second singular value of the discretized conditional-expectation
    operator; equals |rho| up to discretization error, attained by (nearly)
    affine singular functions."""
    _, px, _, b = discretized_correlation_operator(rho, grid_n, range_sigmas)
    return _top_block(px, b)[0]


def maximal_correlation_functions(
    rho: float, grid_n: int = MAXCORR_GRID_N, range_sigmas: float = MAXCORR_RANGE_SIGMAS
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(sigma2, grid, f, g): the second singular value and the associated
    singular functions f(x), g(y) in probability coordinates.

    B is symmetric, so f is the top block's eigenvector extended to the whole
    grid (oddly or evenly) and divided by sqrt(p), and g = sign(lambda) * f.
    """
    x, px, _, b = discretized_correlation_operator(rho, grid_n, range_sigmas)
    sigma2, odd, block = _top_block(px, b)
    lam, vec = np.linalg.eigh(block)
    k = 0 if -lam[0] > lam[-1] else -1
    v = vec[:, k]
    n, m = b.shape[0], b.shape[0] // 2
    if odd:
        full = np.concatenate((v, [0.0] if n % 2 else [], -v[::-1])) / math.sqrt(2.0)
    else:
        full = np.concatenate((v[:m] / math.sqrt(2.0), v[m:], v[:m][::-1] / math.sqrt(2.0)))
    f = full / np.sqrt(px)
    return sigma2, x, f, math.copysign(1.0, lam[k]) * f
