"""Multi-index polynomials, exact Laplacians, ball means and kernel ranks.

Everything here is coefficient-level and exact up to float rounding; no
quadrature.  The dimension count of degree-bounded polyharmonic
polynomials (kernel of Delta^{n/2}) is computed as an exact matrix rank
over a large prime field and cross-checked against the closed form
C(n+D, n) - C(D, n).
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import QflatError
from .fields import Dimension, as_dimension

_RANK_PRIME = 2_147_483_647  # 2^31 - 1; entries of Laplacian matrices are tiny integers


@dataclass(frozen=True)
class Polynomial:
    """Polynomial on R^n as a map multi-index -> coefficient."""

    dim: Dimension
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for mi, c in self.coeffs.items():
            mi = tuple(int(k) for k in mi)
            if len(mi) != self.dim.n or any(k < 0 for k in mi):
                raise QflatError(f"bad multi-index {mi} for dimension {self.dim.n}")
            if c != 0.0:
                clean[mi] = float(c)
        object.__setattr__(self, "coeffs", clean)

    def __call__(self, x):
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(len(pts))
        for mi, c in self.coeffs.items():
            term = np.full(len(pts), c)
            for i, k in enumerate(mi):
                if k:
                    term = term * pts[:, i] ** k
            out += term
        return float(out[0]) if np.asarray(x).ndim == 1 else out

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial(self.dim, {(0,) * self.dim.n: float(other)})
        merged = dict(self.coeffs)
        for mi, c in other.coeffs.items():
            merged[mi] = merged.get(mi, 0.0) + c
        return Polynomial(self.dim, merged)

    def scale(self, a):
        return Polynomial(self.dim, {mi: a * c for mi, c in self.coeffs.items()})

    def shift(self, center):
        """p(x + center), expanded exactly via per-variable binomials."""
        center = np.asarray(center, dtype=float)
        out = {}
        for mi, c in self.coeffs.items():
            expansions = [_binomial_shift(k, center[i]) for i, k in enumerate(mi)]
            partial = {(): c}
            for terms in expansions:
                nxt = {}
                for prefix, pc in partial.items():
                    for j, bc in terms:
                        key = prefix + (j,)
                        nxt[key] = nxt.get(key, 0.0) + pc * bc
                partial = nxt
            for mi2, c2 in partial.items():
                out[mi2] = out.get(mi2, 0.0) + c2
        return Polynomial(self.dim, out)


def _binomial_shift(k, c):
    """(t + c)^k as [(j, coeff of t^j)]."""
    return [(j, math.comb(k, j) * c ** (k - j)) for j in range(k + 1)]


@lru_cache(maxsize=None)
def monomials_upto(n, max_degree):
    """All multi-indices in n variables of total degree <= max_degree,
    ordered by (degree, lexicographic)."""
    out = [(0,) * n]
    for d in range(1, max_degree + 1):
        block = set()
        for combo in combinations_with_replacement(range(n), d):
            mi = [0] * n
            for i in combo:
                mi[i] += 1
            block.add(tuple(mi))
        out.extend(sorted(block))
    return tuple(out)


def apply_laplacian_poly(p: Polynomial, m: int = 1) -> Polynomial:
    """Exact coefficient-level Delta^m p."""
    coeffs = dict(p.coeffs)
    for _ in range(m):
        nxt = {}
        for mi, c in coeffs.items():
            for i, k in enumerate(mi):
                if k >= 2:
                    mi2 = mi[:i] + (k - 2,) + mi[i + 1:]
                    nxt[mi2] = nxt.get(mi2, 0.0) + c * k * (k - 1)
        coeffs = nxt
    return Polynomial(p.dim, coeffs)


def poly_partial(p: Polynomial, i: int) -> Polynomial:
    """Exact partial derivative d p / d x_i."""
    out = {}
    for mi, c in p.coeffs.items():
        if mi[i]:
            mi2 = mi[:i] + (mi[i] - 1,) + mi[i + 1:]
            out[mi2] = out.get(mi2, 0.0) + c * mi[i]
    return Polynomial(p.dim, out)


def poly_gradient(p: Polynomial):
    """Vectorized gradient evaluator of p, shape (m, n)."""
    partials = [poly_partial(p, i) for i in range(p.dim.n)]

    def grad(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.stack([q(pts) for q in partials], axis=1)

    return grad


def radial_monomial(dim, power2) -> Polynomial:
    """|x|^{2*power2} as an exact polynomial."""
    dim = as_dimension(dim)
    base = {tuple(2 if j == i else 0 for j in range(dim.n)): 1.0 for i in range(dim.n)}
    p = Polynomial(dim, {(0,) * dim.n: 1.0})
    r2 = Polynomial(dim, base)
    for _ in range(power2):
        p = _poly_mul(p, r2)
    return p


def _poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    out = {}
    for mi1, c1 in a.coeffs.items():
        for mi2, c2 in b.coeffs.items():
            mi = tuple(x + y for x, y in zip(mi1, mi2))
            out[mi] = out.get(mi, 0.0) + c1 * c2
    return Polynomial(a.dim, out)


# ---------------------------------------------------------------------------
# exact ball means
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _unit_ball_monomial_mean(mi):
    """Mean of z^mi over the unit ball B_1(0) in R^{len(mi)} (exact formula)."""
    n = len(mi)
    if any(k % 2 for k in mi):
        return 0.0
    total = sum(mi)
    if total == 0:
        return 1.0
    s_beta = 2.0
    for k in mi:
        s_beta *= math.gamma((k + 1) / 2)
    s_beta /= math.gamma((n + total) / 2)
    omega = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    return s_beta / ((n + total) * omega)


def ball_mean_poly(p: Polynomial, center, R) -> float:
    """Exact mean of p over B_R(center)."""
    shifted = p.shift(np.asarray(center, dtype=float))
    total = 0.0
    for mi, c in shifted.coeffs.items():
        mean1 = _unit_ball_monomial_mean(mi)
        if mean1:
            total += c * mean1 * R ** sum(mi)
    return total


# ---------------------------------------------------------------------------
# polyharmonic dimension counts
# ---------------------------------------------------------------------------

def _rank_mod_p(matrix, p=_RANK_PRIME):
    """Rank of an integer matrix over GF(p) by Gaussian elimination.

    int64 is safe: entries stay in [0, p) with p = 2^31 - 1, so products
    fit well below 2^63.
    """
    mat = np.asarray(matrix, dtype=np.int64)
    if mat.size == 0:
        return 0
    mat = mat % p
    n_rows, n_cols = mat.shape
    rank = 0
    for col in range(n_cols):
        if rank == n_rows:
            break
        nz = np.nonzero(mat[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            mat[[rank, piv]] = mat[[piv, rank]]
        inv = pow(int(mat[rank, col]), p - 2, p)
        below = mat[rank + 1:, col] != 0
        if np.any(below):
            factors = (mat[rank + 1:, col][below] * inv) % p
            mat[rank + 1:][below] = (mat[rank + 1:][below] - factors[:, None] * mat[rank]) % p
        rank += 1
    return rank


def _polyharmonic_matrix(dim: Dimension, degree):
    """(monomials of degree <= degree, integer matrix of Delta^{n/2} from
    them to the monomials of degree <= degree - n); the matrix has no rows
    when degree < n."""
    n = dim.n
    cols = monomials_upto(n, degree)
    rows = {mi: i for i, mi in enumerate(monomials_upto(n, degree - n))} if degree >= n else {}
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for j, mi in enumerate(cols):
        if rows and sum(mi) >= n:
            image = apply_laplacian_poly(Polynomial(dim, {mi: 1.0}), n // 2)
            for mi2, c in image.coeffs.items():
                mat[rows[mi2], j] = int(round(c))
    return cols, mat


def ph_dimension(dim, d) -> int:
    """Dimension of polyharmonic polynomials of growth at most d.

    Counts the kernel of Delta^{n/2} on polynomials of degree <= floor(d)
    by exact rank of the coefficient-level map, then cross-checks against
    the closed form C(n + D, n) - C(D, n).
    """
    dim = as_dimension(dim)
    if d < 0:
        raise QflatError(f"growth exponent must be >= 0, got {d}")
    n = dim.n
    big_d = int(math.floor(d))
    cols, mat = _polyharmonic_matrix(dim, big_d)
    kernel_dim = len(cols) - _rank_mod_p(mat)

    closed = math.comb(n + big_d, n) - (math.comb(big_d, n) if big_d >= n else 0)
    if kernel_dim != closed:
        raise QflatError(
            f"polyharmonic dimension mismatch for n={n}, d={d}: "
            f"kernel rank gives {kernel_dim}, closed form gives {closed}")
    return kernel_dim
