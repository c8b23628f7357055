"""Multi-index polynomials, exact Laplacians, ball means and kernel ranks.

A Polynomial is an int64 exponent matrix (a row per term) plus a float
coefficient vector, and its algebra runs on whole arrays.  The rows of a
Polynomial are distinct and its coefficients nonzero; every operation keeps
that invariant.  Rows are never written in place, so results share them:
`scale` keeps its operand's exponent matrix, and a sum whose terms all meet
the left operand's rows keeps the left operand's.

Addition finds the other operand's rows among its own by one int64 key per
row, adds the matched coefficients (a + b) and appends the unmatched rows
in the other operand's order, as term-by-term dict arithmetic would; a term
that cancels drops, and comes back at the end when added again.  The key of
a row is its exponents as digits in the fixed radix R = 2^(63 // n), so it
fits in int64 whenever every exponent is below R.  A Polynomial computes its
keys the first time they are needed and passes them on: `scale` shares them,
a sum concatenates them and the zero-drop filters them.  A one-term right
operand, the common step of p + q.scale(c), is found by one key comparison;
a longer one by a sorted search.  When some exponent is >= R the keys are
None, and a sum keys the stacked rows of both operands instead (_row_keys).

Shift, Delta and |x|^2k, whose rows really do repeat, merge rows: equal
rows at their first occurrence, summed in term order.  A ball mean needs
only the even moments of p(center + z), so each term expands over the even
powers j <= a alone, prod_i (a_i//2 + 1) rows where a full shift makes
prod_i (a_i + 1); those rows merge the same way, and the mean is the full
shift's bit for bit.

The kernel dimension of Delta^{n/2} on degree <= D is an exact rank mod a
large prime, one homogeneous-degree block at a time, checked against
C(n+D, n) - C(D, n).  Each block comes from the closed form of
Delta^{n/2} x^a, one exact int64 entry per row and multi-index j with
|j| = n/2, with no merge.  A block is already in row echelon form: row b
pivots at column b + n e_n, the lexicographically first of its columns
b + 2j, and b -> b + n e_n keeps that order.  So its rank is read off as
its number of nonzero rows, and the elimination runs only on a matrix that
is not echelon.  The monomial table under the blocks is built in numpy.
"""

import math
import numbers
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from types import MappingProxyType

import numpy as np

from .errors import InputError, QflatError
from .fields import Dimension, as_dimension

_RANK_PRIME = 2_147_483_647  # 2^31 - 1; entries of Laplacian matrices are tiny integers
# Most entries of an array ph_dimension builds, checked before it builds
# any: the monomial table (count x n) and the last, largest degree block
# (rows x columns).  n = 6, d = 10 needs 3.8e5.  Within it every exponent is
# below the radix 2^(63 // n), and an entry of the degree-k block, at most
# k!/(k - n)! (the sum of the coefficients of Delta^{n/2} x^a), is below
# 2^63: int64 entries and radix keys cannot overflow.
ENTRY_BUDGET = 2 ** 22
_EVAL_BLOCK = 1 << 18        # terms x points evaluated at once
_SHELLS_KEPT = 16            # (polynomial, directions) pairs whose parts on_shells keeps
# on_shells: (id(p), id(dirs)) -> (p, dirs, homogeneous parts); an entry
# holds p and dirs, so neither id is reused while it is kept
_shell_parts = {}
_UNSET = object()            # row keys not computed yet


class Polynomial:
    """Distinct exponent rows `exps` (terms x n) with nonzero coefficients
    `vals`; a dict passed in is validated, and `coeffs` is a read-only dict
    view.  Code that builds one from arrays (`_of`) passes distinct rows.
    `_keys` holds the row keys in radix 2^(63 // n) (the module docstring),
    _UNSET until first needed, or None when an exponent is too large for
    them.  Rows, coefficients and keys are shared between Polynomials and
    never written in place."""

    __slots__ = ("dim", "exps", "vals", "_keys")

    def __init__(self, dim: Dimension, coeffs=None):
        clean = {}
        for key, c in (coeffs or {}).items():
            try:
                mi = tuple(int(k) for k in key)
            except (TypeError, ValueError):
                mi = None
            if mi is None or len(mi) != dim.n or any(k < 0 for k in mi) or mi != tuple(key):
                raise QflatError(f"bad multi-index {key} for dimension {dim.n}")
            if c != 0.0:
                clean[mi] = float(c)
        self._set(dim, np.fromiter(chain.from_iterable(clean), np.int64).reshape(-1, dim.n),
                  np.fromiter(clean.values(), float, len(clean)))

    def _set(self, dim, exps, vals, keys=_UNSET):
        if np.count_nonzero(vals) == len(vals):  # no copy when no term drops
            self.dim, self.exps, self.vals, self._keys = dim, exps, vals, keys
            return self
        keep = vals != 0.0
        self.dim, self.exps, self.vals = dim, exps[keep], vals[keep]
        self._keys = keys if keys is None or keys is _UNSET else keys[keep]
        return self

    @classmethod
    def _of(cls, dim, exps, vals, keys=_UNSET):
        return cls.__new__(cls)._set(dim, exps, vals, keys)

    def _carried_keys(self):
        """The row keys, computed on first use (None when an exponent is
        >= the radix)."""
        if self._keys is _UNSET:
            self._keys = _radix_keys(self.exps)
        return self._keys

    @property
    def coeffs(self):
        return MappingProxyType(dict(zip(map(tuple, self.exps.tolist()), self.vals.tolist())))

    def terms(self, pts):
        """c * x_1^k_1 * ... * x_n^k_n per term (rows) and point (columns)."""
        out = np.repeat(self.vals[:, None], len(pts), axis=1)
        for i, col in enumerate(self.exps.T.tolist()):
            for k in set(col) - {0}:
                out[self.exps[:, i] == k] *= pts[:, i] ** k
        return out

    def __call__(self, x):
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(len(pts))
        step = max(_EVAL_BLOCK // max(len(self.vals), 1), 1)
        for s in range(0, len(pts), step):
            # term after term from 0.0, as a loop of += adds them
            terms, part = self.terms(pts[s:s + step]), out[s:s + step]
            if len(terms) > terms.shape[1]:  # many terms, few points
                part += np.cumsum(terms, axis=0)[-1]
            else:
                for row in terms:
                    part += row
        return float(out[0]) if np.asarray(x).ndim == 1 else out

    def on_shells(self, t, dirs):
        """p(t_i dirs_j) as a (len(t), len(dirs)) array, computed as
        sum_k t_i^k p_k(dirs_j) over the homogeneous parts p_k of p.  The
        parts on a read-only dirs array (a sphere_rule's) are kept for the
        next calls, for the last _SHELLS_KEPT pairs of p and dirs."""
        dirs = np.asarray(dirs, dtype=float)
        key = id(self), id(dirs)
        kept = _shell_parts.get(key)
        if kept is None:
            degree = self.exps.sum(axis=1)
            by_degree = (degree == np.arange(int(degree.max(initial=0)) + 1)[:, None]) * 1.0
            step = max(_EVAL_BLOCK // max(len(self.vals), 1), 1)
            kept = self, dirs, np.concatenate([by_degree @ self.terms(dirs[s:s + step])
                                               for s in range(0, len(dirs), step)], axis=1)
            if not dirs.flags.writeable:
                if len(_shell_parts) == _SHELLS_KEPT:
                    del _shell_parts[next(iter(_shell_parts))]
                _shell_parts[key] = kept
        parts = kept[2]
        return (np.asarray(t, dtype=float)[:, None] ** np.arange(len(parts))) @ parts

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, numbers.Real):
                return NotImplemented
            other = Polynomial(self.dim, {(0,) * self.dim.n: float(other)})
        if other.dim.n != self.dim.n:
            raise QflatError(f"cannot add polynomials on R^{self.dim.n} and R^{other.dim.n}")
        size = len(self.vals)
        if not size:
            return Polynomial._of(self.dim, other.exps, other.vals, other._keys)
        # rows are distinct on each side: find other's rows among self's
        mine, theirs = self._carried_keys(), other._carried_keys()
        carried = mine is not None and theirs is not None
        if not carried:
            keys = _row_keys(np.concatenate((self.exps, other.exps)))
            mine, theirs = keys[:size], keys[size:]
        if len(theirs) == 1:  # the step of p + q.scale(c) for a one-term q
            slot = (mine == theirs[0]).nonzero()[0]
            # other's one row is either found or new
            found, new = (slice(None), slice(0)) if len(slot) else (slice(0), slice(None))
        else:
            order = np.argsort(mine)
            slot = order[np.minimum(np.searchsorted(mine, theirs, sorter=order), size - 1)]
            found = mine[slot] == theirs
            slot, new = slot[found], ~found
        if len(slot) == len(theirs):  # no new row: self's rows and keys stay
            vals = self.vals.copy()
            vals[slot] += other.vals  # a + b, as 0 + a + b in term order
            return Polynomial._of(self.dim, self.exps, vals, mine if carried else _UNSET)
        vals = np.concatenate((self.vals, other.vals[new]))
        vals[slot] += other.vals[found]
        return Polynomial._of(self.dim, np.concatenate((self.exps, other.exps[new])), vals,
                              np.concatenate((mine, theirs[new])) if carried else _UNSET)

    def scale(self, a):
        return Polynomial._of(self.dim, self.exps, a * self.vals, self._carried_keys())

    def shift(self, center):
        """p(x + center), expanded exactly via per-variable binomials."""
        return Polynomial._of(self.dim, *_shifted_rows(self, center, 1))


def _radix_keys(exps):
    """One int64 key per row of a nonnegative integer matrix: its entries as
    digits in radix R = 2^(63 // n), so keys of any two such matrices with
    n columns compare; None when an entry is >= R."""
    n = exps.shape[1]
    radix = 1 << (63 // n)
    if int(exps.max(initial=0)) >= radix:
        return None
    return exps @ radix ** np.arange(n, dtype=np.int64)


def _row_keys(exps):
    """One int64 key per row of a nonnegative integer matrix: equal rows,
    equal keys."""
    base = int(exps.max(initial=0)) + 1
    if base ** exps.shape[1] < 2 ** 63:
        return exps @ base ** np.arange(exps.shape[1], dtype=np.int64)
    return np.unique(exps, axis=0, return_inverse=True)[1]


def _merge(exps, vals):
    """Sum vals over equal rows of exps: the index of each distinct row's
    first occurrence, in row order, and its sum, taken in row order."""
    _, first, inverse = np.unique(_row_keys(exps), return_index=True, return_inverse=True)
    order = np.argsort(first)
    slot = np.empty_like(order)
    slot[order] = np.arange(len(order))
    return first[order], np.bincount(slot[inverse], weights=vals, minlength=len(order))


@lru_cache(maxsize=None)
def monomials_upto(n, max_degree):
    """All multi-indices in n variables of total degree <= max_degree,
    ordered by (degree, lexicographic); none when max_degree < 0."""
    return tuple(mi for d in range(max_degree + 1) for mi in sorted(
        {tuple(combo.count(i) for i in range(n))
         for combo in combinations_with_replacement(range(n), d)}))


@lru_cache(maxsize=None)
def _monomial_array(n, max_degree):
    """monomials_upto(n, max_degree) as a read-only (count, n) int64 array;
    (0, n) when max_degree < 0.  Built in numpy, one variable at a time:
    the degree-d monomials in the last v variables are, for each first
    exponent a = 0..d in turn, a followed by each degree-(d - a) monomial
    in the last v - 1, which is lexicographic order."""
    blocks = [np.full((1, 1), d, dtype=np.int64) for d in range(max_degree + 1)]
    for _ in range(n - 1):
        blocks = [np.column_stack((np.repeat(np.arange(d + 1), [len(b) for b in blocks[d::-1]]),
                                   np.concatenate(blocks[d::-1])))
                  for d in range(max_degree + 1)]
    table = np.concatenate(blocks) if blocks else np.zeros((0, n), dtype=np.int64)
    table.flags.writeable = False
    return table


def _laplacian(exps, vals, m):
    """Delta^m of the polynomial whose terms are the rows (exps, vals): each
    step adds c * k * (k - 1) per term and variable, in that order, and
    merges equal rows."""
    for _ in range(m):
        t, i = np.nonzero(exps >= 2)
        k, exps = exps[t, i], exps[t] - 2 * np.eye(exps.shape[1], dtype=np.int64)[i]
        keep, vals = _merge(exps, vals[t] * k * (k - 1))
        exps = exps[keep]
    return exps, vals


def apply_laplacian_poly(p: Polynomial, m: int = 1) -> Polynomial:
    """Exact coefficient-level Delta^m p."""
    return Polynomial._of(p.dim, *_laplacian(p.exps, p.vals, m))


def poly_partial(p: Polynomial, i: int) -> Polynomial:
    """Exact partial derivative d p / d x_i, 0 <= i < n."""
    if not 0 <= i < p.dim.n:
        raise QflatError(f"no variable x_{i} on R^{p.dim.n}")
    has = p.exps[:, i] > 0
    exps = p.exps[has] - np.eye(p.dim.n, dtype=np.int64)[i]
    return Polynomial._of(p.dim, exps, p.vals[has] * p.exps[has, i])


def poly_gradient(p: Polynomial):
    """Vectorized gradient evaluator of p, shape (m, n)."""
    partials = [poly_partial(p, i) for i in range(p.dim.n)]

    def grad(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.stack([q(pts) for q in partials], axis=1)

    return grad


def radial_monomial(dim, power2) -> Polynomial:
    """|x|^{2*power2} as an exact polynomial, multiplied out one |x|^2 at a time."""
    dim = as_dimension(dim)
    exps, vals = np.zeros((1, dim.n), dtype=np.int64), np.ones(1)
    for _ in range(power2):
        exps = (exps[:, None, :] + 2 * np.eye(dim.n, dtype=np.int64)).reshape(-1, dim.n)
        keep, vals = _merge(exps, np.repeat(vals, dim.n))
        exps = exps[keep]
    return Polynomial._of(dim, exps, vals)


@lru_cache(maxsize=None)
def _binomials(size):
    """C(k, j) for 0 <= j, k < size as a read-only float table."""
    table = np.array([[math.comb(k, j) for j in range(size)] for k in range(size)], dtype=float)
    table.flags.writeable = False
    return table


def _shifted_rows(p, center, step):
    """The terms of p(x + center) whose exponents are all multiples of
    step, as (exps, vals) with equal rows merged.  A term with x_i^k spreads
    over (x_i + c)^k = sum_j C(k, j) c^(k-j) x_i^j, one variable at a time,
    and only the j divisible by step are made."""
    center = np.asarray(center, dtype=float)
    size = int(p.exps.max(initial=0)) + 1
    binom, drop = _binomials(size), np.maximum(np.arange(size)[:, None] - np.arange(size), 0)
    owner, vals = np.arange(len(p.vals)), p.vals
    exps = np.zeros((len(owner), 0), dtype=np.int64)
    for i in range(p.dim.n):
        count = p.exps[owner, i] // step + 1
        j = step * (np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count))
        owner, vals, exps = (np.repeat(a, count, axis=0) for a in (owner, vals, exps))
        # scalar pow: numpy's array power can differ from it in the last bit
        power = np.array([center[i] ** e for e in range(size)])
        vals = vals * (binom * power[drop])[p.exps[owner, i], j]
        exps = np.column_stack((exps, j))
    keep, vals = _merge(exps, vals)
    return exps[keep], vals


def ball_mean_poly(p: Polynomial, center, R) -> float:
    """Exact mean of p over B_R(center), from the even moments of p(center + z).

    Over the unit ball of R^n, z^j has mean 0 unless every j_i is even, and
    then 2 prod_i Gamma((j_i+1)/2) / (Gamma((n+|j|)/2) (n+|j|) omega_n).  So
    each term x^a of p expands over the even j <= a only: prod_i (a_i//2 +
    1) rows where the full shift makes prod_i (a_i + 1).  They merge as in
    shift, so the mean is the one shift's even terms give, bit for bit."""
    even, vals = _shifted_rows(p, center, 2)
    n, total = p.dim.n, even.sum(axis=1)
    top = int(total.max(initial=0))
    gamma = np.array([1.0] + [math.gamma(j / 2) for j in range(1, n + top + 1)])
    mean = np.full(len(total), 2.0)
    for i in range(n):
        mean = mean * gamma[even[:, i] + 1]
    mean /= gamma[n + total]
    omega = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    mean = np.where(total == 0, 1.0, mean / ((n + total) * omega))
    on = (vals != 0.0) & (mean != 0.0)
    terms = vals[on] * mean[on] * np.array([R ** d for d in range(top + 1)])[total[on]]
    return float(np.cumsum(terms)[-1]) + 0.0 if len(terms) else 0.0


# ---------------------------------------------------------------------------
# polyharmonic dimension counts
# ---------------------------------------------------------------------------

def _rank_mod_p(matrix, p=_RANK_PRIME):
    """Rank of an integer matrix over GF(p).

    Entries are reduced mod p only when one lies outside [0, p).  When the
    leading columns of the nonzero rows then strictly increase, the matrix
    is in row echelon form and its rank is the number of nonzero rows: the
    elimination would clear nothing.  Every degree block of ph_dimension is
    read this way.  Otherwise each row in turn pivots on its first nonzero
    column and clears that column from the rows below it; the rank is the
    number of nonzero rows met.  int64 is safe: entries stay in [0, p) with
    p = 2^31 - 1, so products fit well below 2^63.
    """
    mat = np.asarray(matrix, dtype=np.int64)
    if not mat.size:
        return 0
    if mat.min() < 0 or mat.max() >= p:
        mat = mat % p
    nonzero = mat != 0
    lead = nonzero.argmax(axis=1)[nonzero.any(axis=1)]
    if np.all(lead[1:] > lead[:-1]):
        return len(lead)
    mat = mat % p  # a copy the elimination writes into
    rank = 0
    for i, row in enumerate(mat):
        nz = np.flatnonzero(row)
        if nz.size == 0:
            continue
        col = int(nz[0])
        rank += 1
        below = mat[i + 1:]
        hit = np.flatnonzero(below[:, col])
        if hit.size:
            factors = below[hit, col] * pow(int(row[col]), p - 2, p) % p
            below[hit] = (below[hit] - factors[:, None] * row) % p
    return rank


def _degree_block(monos, k):
    """Delta^{n/2} from the monomials of degree k >= n to those of degree
    k - n, as an int64 matrix; monos is a _monomial_array of degree >= k,
    whose degree-k rows (and degree-(k - n) rows) are one contiguous slice.

    By the closed form Delta^m x^a = sum_{|j|=m} (m!/j!) prod_i a_i!/(a_i -
    2 j_i)! x^(a - 2j), row b has one entry per j with |j| = m = n/2, in
    column a = b + 2j, of value (m!/j!) prod_i (b_i + 2 j_i)!/b_i!.  Within
    one degree the lexicographic order of monomials_upto is the order of
    the radix keys of the reversed exponents, so columns are found by a
    sorted search."""
    n = monos.shape[1]
    m = n // 2
    rows, cols = (monos[math.comb(n + e - 1, n):math.comb(n + e, n)] for e in (k - n, k))
    steps = monos[math.comb(n + m - 1, n):math.comb(n + m, n)]
    fact = np.array([math.factorial(i) for i in range(m + 1)], dtype=np.int64)
    # rising[b, s] = (b + s)! / b! = (b + 1) ... (b + s)
    rising = np.arange(k - n + 1)[:, None] + np.arange(n + 1)
    rising[:, 0] = 1
    rising = np.cumprod(rising, axis=1)
    vals = (math.factorial(m) // fact[steps].prod(axis=1)
            * rising[rows[:, None, :], 2 * steps].prod(axis=2))
    targets = (rows[:, None, :] + 2 * steps).reshape(-1, n)
    col = np.searchsorted(_radix_keys(cols[:, ::-1]), _radix_keys(targets[:, ::-1]))
    block = np.zeros((len(rows), len(cols)), dtype=np.int64)
    block[np.repeat(np.arange(len(rows)), len(steps)), col] = vals.ravel()
    return block


def _polyharmonic_matrix(dim: Dimension, degree):
    """(monomials of degree <= degree, integer matrix of Delta^{n/2} from them
    to the monomials of degree <= degree - n, with no rows when degree < n),
    assembled from the degree blocks."""
    n, cols, monos = dim.n, monomials_upto(dim.n, degree), _monomial_array(dim.n, degree)
    mat = np.zeros((math.comb(degree, n) if degree >= n else 0, len(cols)), dtype=np.int64)
    for k in range(n, degree + 1):
        mat[math.comb(k - 1, n):math.comb(k, n),
            math.comb(n + k - 1, n):math.comb(n + k, n)] = _degree_block(monos, k)
    return cols, mat


def ph_dimension(dim, d) -> int:
    """Dimension of polyharmonic polynomials of growth at most d.

    Counts the kernel of Delta^{n/2} on polynomials of degree <= floor(d)
    by exact rank of the coefficient-level map, then cross-checks against
    the closed form C(n + D, n) - C(D, n).  The map sends degree k to
    degree k - n, so its matrix is block-diagonal and its rank is the sum
    of the ranks of the degree blocks.  A degree D >= n whose monomial table
    or last block would have more than ENTRY_BUDGET entries is refused
    before either is built."""
    dim = as_dimension(dim)
    if not (d >= 0 and math.isfinite(d)):
        raise QflatError(f"growth exponent must be finite and >= 0, got {d}")
    n, big_d = dim.n, int(math.floor(d))
    ranks = 0
    if big_d >= n:
        # blocks grow with k, so the last one (k = D) is the largest
        size = max(n * math.comb(n + big_d, n),
                   math.comb(big_d - 1, n - 1) * math.comb(big_d + n - 1, n - 1))
        if size > ENTRY_BUDGET:
            raise InputError(
                f"polyharmonic dimension for n={n} up to degree {big_d} needs an array "
                f"over the budget of {ENTRY_BUDGET} entries")
        monos = _monomial_array(n, big_d)
        ranks = sum(_rank_mod_p(_degree_block(monos, k)) for k in range(n, big_d + 1))
    kernel_dim = math.comb(n + big_d, n) - ranks

    closed = math.comb(n + big_d, n) - (math.comb(big_d, n) if big_d >= n else 0)
    if kernel_dim != closed:
        raise QflatError(
            f"polyharmonic dimension mismatch for n={n}, d={d}: "
            f"kernel rank gives {kernel_dim}, closed form gives {closed}")
    return kernel_dim
