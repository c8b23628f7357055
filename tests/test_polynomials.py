import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from qflatlab import (Dimension, Polynomial, apply_laplacian_poly,
                      ball_mean_poly, monomials_upto, ph_dimension,
                      poly_partial, radial_monomial)
from qflatlab.polynomials import (ENTRY_BUDGET, _UNSET, _monomial_array, _polyharmonic_matrix,
                                  _radix_keys, _rank_mod_p)


def poly(n, coeffs):
    return Polynomial(Dimension(n), coeffs)


class TestLaplacian:
    def test_x1_squared(self):
        p = apply_laplacian_poly(poly(2, {(2, 0): 1.0}))
        assert p.coeffs == {(0, 0): 2.0}

    def test_r4_in_n4(self):
        p = apply_laplacian_poly(radial_monomial(Dimension(4), 2))
        # Delta |x|^4 = (4n + 8)|x|^2 = 24 |x|^2 in n = 4
        expected = {tuple(2 if j == i else 0 for j in range(4)): 24.0 for i in range(4)}
        assert p.coeffs == expected

    def test_harmonic_monomial(self):
        assert apply_laplacian_poly(poly(2, {(1, 1): 3.0})).coeffs == {}

    def test_iterate_matches_power(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.choice([2, 4]))
            monos = monomials_upto(n, 4)
            pick = rng.choice(len(monos), size=5, replace=False)
            p = poly(n, {monos[i]: float(rng.integers(-5, 6)) for i in pick})
            twice = apply_laplacian_poly(apply_laplacian_poly(p, 1), 1)
            power = apply_laplacian_poly(p, 2)
            assert twice.coeffs == power.coeffs


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-4, 4), min_size=1, max_size=6))
def test_laplacian_composition_property(coeff_map):
    p = poly(2, {k: float(v) for k, v in coeff_map.items()})
    a = apply_laplacian_poly(apply_laplacian_poly(p, 1), 1)
    b = apply_laplacian_poly(p, 2)
    assert a.coeffs == b.coeffs


class TestShiftAndEval:
    def test_shift_matches_translation(self):
        rng = np.random.default_rng(7)
        p = poly(3 * 0 + 2, {(2, 1): 1.5, (0, 3): -0.5, (1, 0): 2.0})
        c = rng.normal(size=2)
        xs = rng.normal(size=(20, 2))
        assert np.allclose(p.shift(c)(xs), p(xs + c), atol=1e-12)

    def test_partial_derivative(self):
        p = poly(2, {(2, 1): 4.0})
        assert poly_partial(p, 0).coeffs == {(1, 1): 8.0}
        assert poly_partial(p, 1).coeffs == {(2, 0): 4.0}


class TestBallMeans:
    def test_constant(self):
        assert ball_mean_poly(poly(2, {(0, 0): 3.0}), [0, 0], 2.0) == pytest.approx(3.0)

    def test_r2_mean(self):
        p = radial_monomial(Dimension(2), 1)
        assert ball_mean_poly(p, [0, 0], 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_odd_vanishes(self):
        assert ball_mean_poly(poly(2, {(1, 0): 1.0}), [0, 0], 3.0) == 0.0

    def test_against_quadrature_oracle(self):
        # independent oracle: scipy dblquad over the disc B_R(c)
        p = poly(2, {(2, 1): 1.0, (0, 2): -0.7, (1, 0): 0.3})
        c = np.array([0.4, -0.8])
        R = 1.3

        def integrand(rho, th):
            x = c[0] + rho * math.cos(th)
            y = c[1] + rho * math.sin(th)
            return (x * x * y - 0.7 * y * y + 0.3 * x) * rho

        val, _ = integrate.dblquad(integrand, 0, 2 * math.pi, 0, R,
                                   epsabs=1e-12, epsrel=1e-12)
        mean = val / (math.pi * R * R)
        assert ball_mean_poly(p, c, R) == pytest.approx(mean, abs=1e-10)


class TestPhDimension:
    def test_constants_only(self):
        assert ph_dimension(Dimension(2), 0) == 1

    def test_n2_d2(self):
        assert ph_dimension(Dimension(2), 2) == 5

    def test_n4_d3(self):
        assert ph_dimension(Dimension(4), 3) == 35

    def test_floor_of_real_growth(self):
        assert ph_dimension(Dimension(2), 2.9) == ph_dimension(Dimension(2), 2)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_closed_form_all_degrees(self, n):
        for d in range(0, 11):
            got = ph_dimension(Dimension(n), d)
            closed = math.comb(n + d, n) - (math.comb(d, n) if d >= n else 0)
            assert got == closed, (n, d)

    def test_negative_rejected(self):
        from qflatlab import QflatError
        for d in (-1, math.nan, math.inf):
            with pytest.raises(QflatError, match="growth exponent"):
                ph_dimension(Dimension(2), d)

    def test_oversized_degree_refused_before_allocating(self):
        # n = 6, d = 30 would need a monomial table of 2.0e6 rows and a last
        # block of 3.9e10 entries
        from qflatlab import InputError
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(InputError, match="over the budget"):
                ph_dimension(Dimension(6), 30)
            with pytest.raises(InputError, match="over the budget"):
                ph_dimension(Dimension(2), 1e300)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 50e6, (elapsed, peak)

    def test_entries_and_keys_fit_int64_within_the_budget(self):
        # at the largest degree D each n admits, exponents stay below the
        # radix 2^(63 // n) and an entry, at most D!/(D - n)!, below 2^63
        def size(n, big_d):
            return max(n * math.comb(n + big_d, n),
                       math.comb(big_d - 1, n - 1) * math.comb(big_d + n - 1, n - 1))

        admitted = 0
        for n in range(2, 40, 2):
            big_d = n - 1
            while size(n, big_d + 1) <= ENTRY_BUDGET:
                big_d += 1
            if big_d >= n:
                admitted += 1
                assert big_d < 2 ** (63 // n), n
                assert math.perm(big_d, n) < 2 ** 63, n
        assert admitted == 5  # n = 2 to 10


# ---------------------------------------------------------------------------
# the array algebra against a term-by-term dict reference
# ---------------------------------------------------------------------------

def ref_add(a, b):
    out = dict(a)
    for mi, c in b.items():
        out[mi] = out.get(mi, 0.0) + c
    return {mi: c for mi, c in out.items() if c != 0.0}


def ref_shift(a, center):
    out = {}
    for mi, c in a.items():
        partial = {(): c}
        for i, k in enumerate(mi):
            partial = {pre + (j,): pc * math.comb(k, j) * center[i] ** (k - j)
                       for pre, pc in partial.items() for j in range(k + 1)}
        for mi2, c2 in partial.items():
            out[mi2] = out.get(mi2, 0.0) + c2
    return {mi: c for mi, c in out.items() if c != 0.0}


def ref_laplacian(a, m):
    for _ in range(m):
        out = {}
        for mi, c in a.items():
            for i, k in enumerate(mi):
                if k >= 2:
                    mi2 = mi[:i] + (k - 2,) + mi[i + 1:]
                    out[mi2] = out.get(mi2, 0.0) + c * k * (k - 1)
        a = out
    return {mi: c for mi, c in a.items() if c != 0.0}


def ref_partial(a, i):
    return {mi[:i] + (mi[i] - 1,) + mi[i + 1:]: c * mi[i] for mi, c in a.items() if mi[i]}


def ref_radial(n, power2):
    out = {(0,) * n: 1.0}
    for _ in range(power2):
        nxt = {}
        for mi, c in out.items():
            for i in range(n):
                mi2 = mi[:i] + (mi[i] + 2,) + mi[i + 1:]
                nxt[mi2] = nxt.get(mi2, 0.0) + c
        out = nxt
    return out


def ref_eval(a, pts):
    return np.array([sum(c * math.prod(x ** k for x, k in zip(pt, mi))
                         for mi, c in a.items()) for pt in pts])


@st.composite
def int_polynomials(draw, n):
    keys = st.tuples(*[st.integers(0, 3)] * n)
    return {mi: float(c) for mi, c in
            draw(st.dictionaries(keys, st.integers(-4, 4), max_size=8)).items()}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from([2, 4]).flatmap(lambda n: st.tuples(
    int_polynomials(n), int_polynomials(n), st.integers(-3, 3),
    st.lists(st.integers(-2, 2), min_size=n, max_size=n),
    st.integers(0, n - 1), st.integers(0, 3))))
def test_array_algebra_matches_dict_reference(case):
    a, b, s, center, i, m = case
    n = len(center)
    p, q = poly(n, a), poly(n, b)

    def same(got, want):  # same keys, values and first-occurrence order
        assert list(got.coeffs.items()) == list(want.items())

    same(p, {mi: c for mi, c in a.items() if c != 0.0})
    same(p + q, ref_add(p.coeffs, q.coeffs))
    same(p + 1.5, ref_add(p.coeffs, {(0,) * n: 1.5}))
    same(p.scale(s), {mi: s * c for mi, c in p.coeffs.items() if s * c != 0.0})
    same(p.shift(center), ref_shift(p.coeffs, center))
    same(apply_laplacian_poly(p, m), ref_laplacian(p.coeffs, m))
    same(poly_partial(p, i), ref_partial(p.coeffs, i))
    same(radial_monomial(Dimension(n), m), ref_radial(n, m))
    pts = np.random.default_rng(m).uniform(-1.5, 1.5, size=(7, n))
    assert np.allclose(p(pts), ref_eval(p.coeffs, pts), rtol=1e-12, atol=1e-12)
    assert p(pts[0]) == pytest.approx(ref_eval(p.coeffs, pts[:1])[0], rel=1e-12, abs=1e-12)


def test_blocked_evaluation_matches_unblocked(monkeypatch):
    import qflatlab.polynomials as polynomials
    p = poly(4, {(2, 1, 0, 0): 1.5, (0, 0, 3, 1): -0.25, (0, 0, 0, 0): 2.0})
    pts = np.random.default_rng(2).normal(size=(50, 4))
    whole = p(pts)
    monkeypatch.setattr(polynomials, "_EVAL_BLOCK", 7)  # 2 points per block
    assert np.array_equal(p(pts), whole)


def ref_terms(p, pts):
    """Polynomial.terms as a masked loop: each variable's nonzero exponents
    in turn multiply the rows that carry them by x_i ** k."""
    out = np.repeat(p.vals[:, None], len(pts), axis=1)
    for i, col in enumerate(p.exps.T.tolist()):
        for k in set(col) - {0}:
            out[p.exps[:, i] == k] *= pts[:, i] ** k
    return out


def _by_masked_loop(monkeypatch, evaluate):
    with monkeypatch.context() as patch:
        patch.setattr(Polynomial, "terms", ref_terms)
        return evaluate()


def _same_as_masked_loop(monkeypatch, p, pts, shells=True):
    """terms, __call__ (on points and on one point) and, with shells,
    on_shells of p are those that the masked loop gives, bit for bit."""
    t = np.linspace(0.0, 2.5, 4)
    assert np.array_equal(p.terms(pts), ref_terms(p, pts))

    def evaluate():  # a writeable dirs array is not kept by on_shells
        return (p(pts), p(pts[0])) + ((p.on_shells(t, pts),) if shells else ())

    got, want = evaluate(), _by_masked_loop(monkeypatch, evaluate)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_evaluation_matches_masked_loop_bit_for_bit(n, monkeypatch):
    import qflatlab.polynomials as polynomials
    rng = np.random.default_rng(n)
    monos = monomials_upto(n, 7)
    polys = [poly(n, {}), poly(n, {(0,) * n: -1.5}), poly(n, {(0,) * n: 3e-300})]
    polys += [poly(n, {monos[i]: rng.normal()
                       for i in rng.choice(len(monos), min(size, len(monos)), replace=False)})
              for size in (1, 3, 30, 300)]
    for m in (1, 1000):
        # negative coordinates, exact zeros and both signs of zero
        pts = rng.normal(scale=1.5, size=(m, n))
        pts[rng.random(size=pts.shape) < 0.1] = 0.0
        pts[rng.random(size=pts.shape) < 0.05] = -0.0
        for p in polys:
            _same_as_masked_loop(monkeypatch, p, pts)
    monkeypatch.setattr(polynomials, "_EVAL_BLOCK", 7)  # a few points per block
    for p in polys[3:]:
        _same_as_masked_loop(monkeypatch, p, pts)


def test_huge_exponents_evaluate_without_a_table_up_to_them(monkeypatch):
    # x1^1024 at n = 6 and x1^(2^40) at n = 2 each take one table row
    rng = np.random.default_rng(8)
    e, big = (0,) * 5, 2 ** 40
    for p in (poly(6, {(1024,) + e: 2.0, (1,) + e: -1.0, e + (3,): 0.5}),
              poly(2, {(big, 1): 1.5, (0, big + 1): -2.0, (1, 0): 1.0})):
        pts = rng.uniform(-1.0, 1.0, size=(1000, p.dim.n))
        pts[:4] = [[1.0] * p.dim.n, [-1.0] * p.dim.n, [0.0] * p.dim.n, [-0.0] * p.dim.n]
        tracemalloc.start()
        try:
            p.terms(pts), p(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        _same_as_masked_loop(monkeypatch, p, pts, shells=False)


# ---------------------------------------------------------------------------
# kernel ranks: per-degree blocks, the full matrix and the per-monomial map
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 4, 6])
def test_block_ranks_match_full_matrix_rank(n):
    for d in range(0, 11):
        cols, mat = _polyharmonic_matrix(Dimension(n), d)
        assert ph_dimension(Dimension(n), d) == len(cols) - _rank_mod_p(mat), (n, d)


@pytest.mark.parametrize("n", [2, 4])
def test_matrix_matches_per_monomial_laplacian(n):
    dim = Dimension(n)
    for d in range(0, 9):
        cols, mat = _polyharmonic_matrix(dim, d)
        rows = {mi: i for i, mi in enumerate(monomials_upto(n, d - n))} if d >= n else {}
        expect = np.zeros((len(rows), len(cols)), dtype=np.int64)
        for j, mi in enumerate(cols):
            if rows and sum(mi) >= n:
                image = apply_laplacian_poly(Polynomial(dim, {mi: 1.0}), n // 2)
                for mi2, c in image.coeffs.items():
                    expect[rows[mi2], j] = int(round(c))
        assert cols == monomials_upto(n, d)
        assert np.array_equal(mat, expect), (n, d)


def test_n6_degree_blocks_match_per_monomial_laplacian():
    # every degree block k = 6..8 of the n = 6 matrix, and zeros off the blocks
    n, dim = 6, Dimension(6)
    cols, mat = _polyharmonic_matrix(dim, 8)
    rows = {mi: i for i, mi in enumerate(monomials_upto(n, 2))}
    expect = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for j, mi in enumerate(cols):
        if sum(mi) >= n:
            for mi2, c in apply_laplacian_poly(Polynomial(dim, {mi: 1.0}), n // 2).coeffs.items():
                expect[rows[mi2], j] = int(round(c))
    for k in range(n, 9):
        block = np.s_[math.comb(k - 1, n):math.comb(k, n),
                      math.comb(n + k - 1, n):math.comb(n + k, n)]
        assert np.array_equal(mat[block], expect[block]), k
    assert np.array_equal(mat, expect)


def test_ph_dimension_builds_no_polynomial(monkeypatch):
    # every Polynomial, built from a dict or from arrays, passes through _set once
    built = []
    real_set = Polynomial._set

    def counting_set(self, *args):
        built.append(self)
        return real_set(self, *args)

    monkeypatch.setattr(Polynomial, "_set", counting_set)
    p = poly(2, {(1, 0): 2.0, (0, 0): -1.0})
    assert len(built) == 1
    assert list((p + 1.0).coeffs.items()) == [((1, 0), 2.0)]
    assert len(built) == 3  # the constant and the sum
    built.clear()
    assert ph_dimension(Dimension(6), 10) == math.comb(16, 6) - math.comb(10, 6)
    assert built == []


def test_one_term_sums_build_no_stacked_keys(monkeypatch):
    # p + q.scale(c) with a one-term q, as in a sum of an n = 6 kernel basis
    # below degree n, compares q's carried key with p's: no stacked rows are keyed
    import qflatlab.polynomials as polynomials
    calls = []
    real = polynomials._row_keys

    def counting_row_keys(*args):
        calls.append(args)
        return real(*args)

    dim = Dimension(6)
    basis = [Polynomial(dim, {mi: 1.0}) for mi in monomials_upto(6, 5)]
    coeff = np.random.default_rng(3).normal(size=2 * len(basis))
    monkeypatch.setattr(polynomials, "_row_keys", counting_row_keys)
    p, want = Polynomial(dim, {}), {}
    for c, q in zip(coeff, basis + basis[::-1]):  # new rows, then hits
        p = p + q.scale(c)
        want = ref_add(want, {next(iter(q.coeffs)): c})
    assert calls == []
    assert list(p.coeffs.items()) == list(want.items())


@pytest.mark.parametrize("n", [2, 6])
def test_monomial_arrays_are_read_only_tables(n):
    for degree in (-n, -1, 0, 3):
        table = _monomial_array(n, degree)
        assert table.dtype == np.int64 and table.shape == (len(monomials_upto(n, degree)), n)
        assert [tuple(row) for row in table.tolist()] == list(monomials_upto(n, degree))
        assert _monomial_array(n, degree) is table
        with pytest.raises(ValueError):
            table[...] = 0


def test_monomial_tables_of_one_dimension_share_one_array():
    # each table is a prefix of the next larger one: after ph_dimension at
    # n = 10 for d = 0..11 the tables held take no more bytes than the largest
    for d in range(12):
        ph_dimension(Dimension(10), d)
    tables = [_monomial_array(10, d) for d in range(12)]
    held = {id(a): a for a in (t if t.base is None else t.base for t in tables)}
    assert sum(a.nbytes for a in held.values()) <= tables[-1].nbytes


@pytest.mark.parametrize("coeffs", [{(1,): 1.0}, {(-1, 0): 1.0}, {(0, 0, 0): 1.0}])
def test_bad_multi_index_rejected(coeffs):
    from qflatlab import QflatError
    with pytest.raises(QflatError):
        poly(2, coeffs)


@pytest.mark.parametrize("key", [(1.5, 0), ("a", 0)])
def test_non_integer_exponent_rejected(key):
    # an exponent is an integer, not truncated to one
    from qflatlab import QflatError
    with pytest.raises(QflatError, match="bad multi-index"):
        poly(2, {key: 1.0})


def test_no_monomials_below_degree_zero():
    assert monomials_upto(2, -1) == ()
    assert monomials_upto(2, 0) == ((0, 0),)


def test_coeffs_view_is_read_only():
    p = poly(2, {(1, 0): 2.0, (0, 1): 0.0, (0, 0): -1})
    assert list(p.coeffs.items()) == [((1, 0), 2.0), ((0, 0), -1.0)]
    with pytest.raises(TypeError):
        p.coeffs[(0, 0)] = 3.0


def test_huge_exponents_merge_without_key_overflow():
    # (2^40 + 1)^2 keys do not fit in int64: rows are compared directly
    big = 2 ** 40
    p = poly(2, {(big, 1): 1.0, (0, big): 2.0}) + poly(2, {(0, big): 3.0, (1, 0): 1.0})
    assert list(p.coeffs.items()) == [((big, 1), 1.0), ((0, big), 5.0), ((1, 0), 1.0)]
    # x1^1024 is past the n = 6 radix 2^10, on either side of a sum, with
    # one-term and longer operands, found, new and cancelling
    e = (0,) * 5
    huge = poly(6, {(1024,) + e: 2.0, (1,) + e: 1.0})
    small = poly(6, {(1,) + e: 0.5, e + (3,): 1.0})
    for a, b in ((huge, small), (small, huge), (huge, poly(6, {(1024,) + e: -2.0})),
                 (huge, poly(6, {(1,) + e: 4.0})), (small, poly(6, {(2048,) + e: 1.0})),
                 (huge, huge.scale(-1.0))):
        assert list((a + b).coeffs.items()) == list(ref_add(a.coeffs, b.coeffs).items())
    # a sum keeps the fallback until its huge row cancels
    back = huge + poly(6, {(1024,) + e: -2.0}) + poly(6, {(1,) + e: 1.0})
    assert list(back.coeffs.items()) == [((1,) + e, 2.0)]


# ---------------------------------------------------------------------------
# addition by sorted-key lookup: chains, cancellation and re-entry
# ---------------------------------------------------------------------------

def ref_scale(a, s):
    return {mi: s * c for mi, c in a.items() if s * c != 0.0}


@st.composite
def float_polynomials(draw, n):
    keys = st.tuples(*[st.integers(0, 2)] * n)
    vals = st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False)
    return draw(st.dictionaries(keys, vals, max_size=6))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from([2, 4]).flatmap(lambda n: st.tuples(
    st.just(n), float_polynomials(n),
    st.lists(st.tuples(float_polynomials(n),
                       st.sampled_from([1.0, -1.0, 0.5, -2.5, 1e-3, 3.0]),
                       st.booleans()), min_size=1, max_size=6))))
def test_chained_sums_match_dict_reference(case):
    # p = p + q.scale(c) step by step; a cancelling step adds -p on some of
    # p's rows, so those terms drop and may come back at the end later
    n, start, steps = case
    p, want = poly(n, start), {mi: c for mi, c in start.items() if c != 0.0}
    for terms, c, cancel in steps:
        if cancel:
            terms = {mi: -v for mi, v in list(want.items())[::2]}
            c = 1.0
        q = poly(n, terms)
        p = p + q.scale(c)
        want = ref_add(want, ref_scale(q.coeffs, c))
        assert list(p.coeffs.items()) == list(want.items())


def test_cancelled_term_reenters_at_the_end():
    p = poly(2, {(1, 0): 1.5, (0, 1): -0.25, (2, 0): 3.0})
    p = p + poly(2, {(0, 1): 0.25, (0, 2): 1.0})
    assert list(p.coeffs.items()) == [((1, 0), 1.5), ((2, 0), 3.0), ((0, 2), 1.0)]
    p = p + poly(2, {(0, 1): 7.0, (1, 0): 0.5})
    assert list(p.coeffs.items()) == [((1, 0), 2.0), ((2, 0), 3.0), ((0, 2), 1.0),
                                      ((0, 1), 7.0)]
    assert list((p + p.scale(-1.0)).coeffs.items()) == []
    empty = poly(2, {})
    assert list((empty + p).coeffs.items()) == list(p.coeffs.items())
    assert list((p + empty).coeffs.items()) == list(p.coeffs.items())
    # one-term right operands: a hit, a miss, exact cancellations, a re-entry
    want = dict(p.coeffs)
    for mi, c in (((2, 0), 0.5), ((3, 1), -1.0), ((2, 0), -3.5), ((1, 0), 0.25),
                  ((2, 0), 1e-3), ((3, 1), 1.0)):
        p = p + poly(2, {mi: 1.0}).scale(c)
        want = ref_add(want, {mi: c})
        assert list(p.coeffs.items()) == list(want.items())
    assert list(p.coeffs.items()) == [((1, 0), 2.25), ((0, 2), 1.0), ((0, 1), 7.0),
                                      ((2, 0), 1e-3)]


@pytest.mark.parametrize("c", [np.int64(2), np.float32(1.5), np.float64(-0.5), True,
                               Fraction(1, 4)])
def test_add_any_real_number(c):
    p = poly(2, {(1, 0): 2.0, (0, 0): 0.5})
    want = ref_add(p.coeffs, {(0, 0): float(c)})
    assert list((p + c).coeffs.items()) == list(want.items())


@pytest.mark.parametrize("other", ["x", None, [1.0], 1j])
def test_add_other_types_raise_type_error(other):
    with pytest.raises(TypeError):
        poly(2, {(1, 0): 2.0}) + other


def test_add_across_dimensions_rejected():
    from qflatlab import QflatError
    with pytest.raises(QflatError):
        poly(2, {(1, 0): 1.0}) + poly(4, {(1, 0, 0, 0): 1.0})


def _distinct(p):
    assert len(np.unique(p.exps, axis=0)) == len(p.exps), p.exps
    assert np.all(p.vals != 0.0)
    assert p.vals.dtype == np.float64, p.vals.dtype
    # keys carried from the operands are those of the result's own rows
    if p._keys is not _UNSET:
        assert np.array_equal(p._keys, _radix_keys(p.exps)), (p._keys, p.exps)
    return p


def test_every_algebra_result_has_distinct_rows():
    from qflatlab import decompose, gallery
    from qflatlab.verification import _polyharmonic_basis
    rng = np.random.default_rng(11)
    for n in (2, 4):
        monos = monomials_upto(n, 4)
        a, b = ({monos[i]: float(rng.integers(-3, 4)) for i in
                 rng.choice(len(monos), size=8, replace=False)} for _ in range(2))
        p, q = _distinct(poly(n, a)), _distinct(poly(n, b))
        one, cancel = poly(n, {monos[3]: 1.0}), poly(n, {mi: -c for mi, c in b.items()})
        linear = poly(n, {monos[0]: 2.0, monos[1]: -1.0})
        for r in (p + q, p + 2.0, p + p.scale(-1.0), p.scale(0.5), p.shift(rng.normal(size=n)),
                  apply_laplacian_poly(p, 1), apply_laplacian_poly(p, 2), poly_partial(p, 0),
                  radial_monomial(Dimension(n), 3), p + one.scale(-2.0), q + one + one.scale(0.5),
                  p + q + cancel, (p + q + cancel) + q, p + q.scale(3.0) + p.scale(-1.0),
                  # a vanishing Laplacian and the shift of zero merge no rows at all
                  apply_laplacian_poly(linear, 1), poly(n, {}).shift(np.full(n, 0.5))):
            _distinct(r)
            assert r._keys is not None
        # verification builds its random kernel polynomials from basis rows
        exps, basis = _polyharmonic_basis(Dimension(n), 5)
        _distinct(Polynomial._of(Dimension(n), exps, rng.normal(size=len(basis)) @ basis))
    # the radial branch of decompose stacks the rows of |x|^0, |x|^2, |x|^4
    ctx = gallery("sphere", {}, 6)
    _distinct(decompose(ctx.u, ctx.density).polynomial_part)


@pytest.mark.parametrize("i", [-1, 2, 5])
def test_partial_outside_variables_rejected(i):
    from qflatlab import QflatError
    with pytest.raises(QflatError, match="no variable"):
        poly_partial(poly(2, {(2, 1): 4.0}), i)


# ---------------------------------------------------------------------------
# row-pivot ranks against a plain reference
# ---------------------------------------------------------------------------

def ref_rank(rows):
    """Rank over Q by fraction-exact column-by-column elimination.  Entries
    of at most 3 in size and at most 8 columns keep every minor below
    3^8 * 8^4 < 2^31 - 1 (Hadamard), so the rank over GF(2^31 - 1) is the
    same."""
    mat = [[Fraction(int(x)) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col] / mat[rank][col]
            mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_rank_mod_p_matches_reference():
    rng = np.random.default_rng(5)
    for trial in range(300):
        rows, cols = (int(k) for k in rng.integers(1, 9, size=2))
        if trial % 2:  # rank-deficient: every row is +- one of k < min(rows, cols) rows
            k = int(rng.integers(0, min(rows, cols)))
            base = rng.integers(-3, 4, size=(max(k, 1), cols)) * (k > 0)
            mat = base[rng.integers(0, max(k, 1), size=rows)] * rng.choice([-1, 1], size=(rows, 1))
            assert ref_rank(mat.tolist()) <= k < min(rows, cols)
        else:
            mat = rng.integers(-3, 4, size=(rows, cols)) * (rng.random((rows, cols)) < 0.6)
        assert _rank_mod_p(mat) == ref_rank(mat.tolist()), mat
    assert _rank_mod_p(np.zeros((3, 0), dtype=np.int64)) == 0
    assert _rank_mod_p(np.zeros((0, 4), dtype=np.int64)) == 0


# ---------------------------------------------------------------------------
# the echelon read of _rank_mod_p, and kernel ranks at n = 8 and 10
# ---------------------------------------------------------------------------

def _leads_increase(mat):
    """Whether the first nonzero columns of the nonzero rows strictly
    increase (row echelon form)."""
    leads = [int(np.flatnonzero(row)[0]) for row in mat if row.any()]
    return all(a < b for a, b in zip(leads, leads[1:]))


def test_echelon_read_matches_reference():
    # small echelon matrices S, some rows zero, plus multiples of p anywhere
    # (also left of a row's lead, so its first nonzero column moves once
    # reduced): mod p they are S again, and a copy with its first and last
    # nonzero rows swapped is not echelon, so it runs the elimination
    from qflatlab.polynomials import _RANK_PRIME as p
    rng = np.random.default_rng(11)
    swapped_runs = moved_leads = 0
    for _ in range(200):
        rows, cols = (int(k) for k in rng.integers(1, 9, size=2))
        small = np.zeros((rows, cols), dtype=np.int64)
        live = np.flatnonzero(rng.random(rows) < 0.7)[:cols]
        leads = np.sort(rng.choice(cols, size=len(live), replace=False))
        for r, lead in zip(live, leads):
            small[r, lead] = rng.choice([-3, -2, -1, 1, 2, 3])
            small[r, lead + 1:] = rng.integers(-3, 4, size=cols - lead - 1)
        shifted = small + p * rng.integers(-2, 3, size=(rows, cols)) * (rng.random((rows, cols)) < 0.4)
        moved_leads += any((row != 0).argmax() != (row % p != 0).argmax() for row in shifted)
        # small % p is already in [0, p), so it is not reduced
        for mat in (shifted, small % p):
            assert _leads_increase(mat % p)
            kept = mat.copy()
            assert _rank_mod_p(mat) == ref_rank(small.tolist()) == len(live), mat
            assert np.array_equal(mat, kept)
            if len(live) >= 2:
                order = np.arange(rows)
                order[[live[0], live[-1]]] = order[[live[-1], live[0]]]
                swapped = mat[order]
                assert not _leads_increase(swapped % p)
                kept = swapped.copy()
                assert _rank_mod_p(swapped) == ref_rank(small[order].tolist()), swapped
                assert np.array_equal(swapped, kept)
                swapped_runs += 1
    assert swapped_runs > 200 and moved_leads > 50


def test_degree_blocks_are_echelon():
    # row b of a degree block pivots at column b + n e_n: the
    # lexicographically first of its columns b + 2j, an order-keeping map
    from qflatlab.polynomials import _degree_block
    for n, big_d in ((2, 40), (4, 12), (6, 10), (8, 10)):
        monos = _monomial_array(n, big_d)
        for k in range(n, big_d + 1):
            assert _leads_increase(_degree_block(monos, k)), (n, k)


def test_ph_dimension_at_n8_and_n10_up_to_the_budget():
    # D = 11 is the largest degree the entry budget admits at n = 10
    start = time.perf_counter()
    for n in (8, 10):
        for d in range(12):
            closed = math.comb(n + d, n) - (math.comb(d, n) if d >= n else 0)
            assert ph_dimension(Dimension(n), d) == closed, (n, d)
    elapsed = time.perf_counter() - start
    from qflatlab import InputError
    with pytest.raises(InputError, match="over the budget"):
        ph_dimension(Dimension(10), 12)
    assert elapsed < 1.0, elapsed


# ---------------------------------------------------------------------------
# ball means from even moments against a dict reference
# ---------------------------------------------------------------------------

def ref_ball_mean(a, center, R):
    """Mean over B_R(center): shift term by term, then the unit-ball mean
    prod_i Gamma((j_i+1)/2) Gamma(n/2+1) / (pi^(n/2) Gamma((n+|j|)/2+1)) of
    each monomial z^j with every j_i even (0 otherwise)."""
    n = len(center)
    parts = []
    for mi, c in ref_shift(a, center).items():
        if all(k % 2 == 0 for k in mi):
            mean = (math.prod(math.gamma((k + 1) / 2) for k in mi) * math.gamma(n / 2 + 1)
                    / (math.pi ** (n / 2) * math.gamma((n + sum(mi)) / 2 + 1)))
            parts.append(c * mean * R ** sum(mi))
    return math.fsum(parts)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_ball_mean_matches_dict_reference(n):
    rng = np.random.default_rng(n)
    monos = monomials_upto(n, 7)
    for _ in range(12):
        picks = rng.choice(len(monos), size=int(rng.integers(1, 30)), replace=False)
        a = {monos[i]: float(rng.normal()) for i in picks}
        center, R = rng.normal(size=n), float(rng.uniform(0.3, 2.5))
        assert ball_mean_poly(poly(n, a), center, R) == pytest.approx(
            ref_ball_mean(a, center.tolist(), R), rel=1e-12, abs=0.0), (a, center, R)


def test_ball_mean_is_the_full_shift_mean_bit_for_bit():
    # the even-moment expansion merges and sums in the order of shift, so
    # the mean over shift's merged rows, summed in their order, is the same
    # float
    def shift_mean(p, center, R):
        q, n = p.shift(center), p.dim.n
        total = q.exps.sum(axis=1)
        gamma = np.array([1.0] + [math.gamma(j / 2) for j in range(1, n + int(total.max()) + 1)])
        mean = np.full(len(total), 2.0)
        for i in range(n):
            mean = mean * gamma[q.exps[:, i] + 1]
        mean /= gamma[n + total]
        omega = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
        mean = np.where(total == 0, 1.0, mean / ((n + total) * omega))
        on = ~np.any(q.exps % 2 == 1, axis=1)
        return float(np.cumsum(q.vals[on] * mean[on] * np.array([R ** int(d) for d in total[on]]))[-1])

    rng = np.random.default_rng(3)
    for n in (2, 4, 6):
        monos = monomials_upto(n, 7)
        for _ in range(10):
            picks = rng.choice(len(monos), size=min(40, len(monos)), replace=False)
            p = poly(n, {monos[i]: float(rng.normal()) for i in picks})
            center, R = rng.normal(size=n), float(rng.uniform(0.3, 2.5))
            assert ball_mean_poly(p, center, R) == shift_mean(p, center, R), (n, center, R)


def test_pizzetti_coefficients_keep_their_bits():
    from qflatlab import pizzetti_coeffs
    pinned = {
        2: ("0x1.0000000000000p+0", "0x1.0000000000000p-3", "0x1.5555555555556p-8",
            "0x1.c71c71c71c71cp-14"),
        4: ("0x1.0000000000000p+0", "0x1.5555555555554p-4", "0x1.5555555555557p-9",
            "0x1.6c16c16c16c16p-15"),
        6: ("0x1.0000000000000p+0", "0x1.ffffffffffffdp-5", "0x1.9999999999999p-10",
            "0x1.6c16c16c16c18p-16"),
    }
    for n, bits in pinned.items():
        assert pizzetti_coeffs(Dimension(n), 4).c == tuple(float.fromhex(b) for b in bits), n
