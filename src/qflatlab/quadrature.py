"""Deterministic quadrature machinery.

Everything in this module is deterministic: fixed Gauss-Legendre orders,
fixed subdivision rules, no randomness.  Integrands are expected to be
vectorized (they receive a 1-D numpy array of abscissae and return an array
of the same shape).

Four layers:

* one adaptive engine, a GL(15/31) panel pass over many radial segments
  at once: ``segment_integrals`` (vector-valued; ``running_integrals`` sums
  it from 0 to each radius of a sweep), the strict ``integrate_radial``
  and the non-strict ``integrate_radial_estimate``/``adaptive_estimate``.
  Most calls settle in one round on a few panels, so the pass keeps its
  fixed cost low: one integrand call up to PANEL_BLOCK panels, sums per
  segment by one ``np.bincount``, no split bookkeeping after the last
  round, and logs of the log-panel ends only;
* signed improper integrals over [r0, inf) by blocks of decades on that
  engine, with geometric tails and a Cauchy-condensation convergence test
  (``decade_mass_integral``);
* finite-vs-infinite classification of positive improper integrals through
  log-space condensation blocks over radii log2 R_{j+1} = 1.5 log2 R_j,
  which stay decisive even for borderline tails like 1/(t log^c t)
  (``log_condensation_blocks``, ``classify_log_blocks``), reduced by
  ``log_sum_exp``, scipy's log-sum-exp arithmetic without its dispatch;
* sphere shells and balls: ``sphere_rule`` is the trapezoid rule on the
  circle at n = 2 and a Gauss-Jacobi product rule, exact to a degree set
  by its resolution, at n >= 4; ``shell_values`` evaluates f on radii
  times its directions chunk by chunk after one POINT_BUDGET check; the
  adaptive ``sphere_shell`` (every non-radial ball integral and tau sweep),
  the fixed product rule ``shell_product_rule`` (the growth criteria) and
  geometry's volume class reduce its chunks.
  ``offset_ball_integral_radial`` is the exact 1-D reduction for radial
  integrands over offset balls.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import sphere_constants
from .errors import NonIntegrableError, QuadratureError

# Ratio thresholds for the condensation classifier.  Blocks whose tail
# ratios stay below Q_FINITE are summable; sustained ratios at or above
# Q_INFINITE certify divergence.  The band in between is reported as
# inconclusive rather than guessed.
Q_FINITE = 0.97
Q_INFINITE = 0.999
CONSECUTIVE_BLOCKS = 6
# Condensation blocks: log2 R_{j+1} = 1.5 log2 R_j up to r = 2^256 ~ 1.2e77,
# each integrated in t = log r with GL(24) on panels at most 4 wide.
MAX_LOG2_RADIUS = 256.0
CONDENSATION_GROWTH = 1.5
CONDENSATION_ORDER = 24
CONDENSATION_PANEL_WIDTH = 4.0
MAX_DECADES = 130         # decade blocks of decade_mass_integral before the ratio test
DECADE_BLOCK = 8          # decades per engine pass of decade_mass_integral
# A decade tail is geometric when RATIO_RUN consecutive decade ratios agree
# within RATIO_AGREEMENT.
RATIO_RUN = 3
RATIO_AGREEMENT = 1e-8
MAX_BISECTIONS = 4096     # panel splits of one segment_integrals call
PANEL_BLOCK = 128         # panels (46 nodes each) per integrand call of the engine
# Most points of a sphere rule on all radii of one shell_values call, checked
# before the rule is built: sphere_shell at resolution 96 on 31 radii needs
# 6.9M at n = 4.
POINT_BUDGET = 2 ** 23
# Radii per sphere_shell refinement group (one GL(31) panel): a group doubles
# its resolution until all its radii settle, so changing it moves numbers.
SHELL_RADII = 31
# Points per chunk of shell_values, which bounds memory: whole radii, at least one.
PRODUCT_RULE_POINTS = 2 ** 17


@lru_cache(maxsize=None)
def gl_rule(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


@lru_cache(maxsize=None)
def _engine_rule():
    """The engine's nodes, GL(15) then GL(31), and a (46, 2) weight matrix
    whose columns give the GL(15) and the GL(31) sums; both read-only."""
    x15, w15 = gl_rule(15)
    x31, w31 = gl_rule(31)
    weights = np.zeros((46, 2))
    weights[:15, 0], weights[15:, 1] = w15, w31
    return _frozen(np.concatenate([x15, x31]), weights)


def fixed_gl(f, a, b, order=32):
    """Gauss-Legendre estimate of integral_a^b f on one panel."""
    x, w = gl_rule(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(w, np.asarray(f(mid + half * x), dtype=float)))


def _panel_pass(f, edges, rel_tol, abs_tol, max_bisections, strict, breaks=()):
    """The adaptive engine: (values, errors) of f over every segment
    between the sorted edges, each (K, segments), all segments at once.

    ``f`` maps a 1-D array of radii to K rows of values (or one value per
    radius).  Each segment gets GL(15/31), linear in r below 1 and in
    t = log r above 1.  Its first panels are its pieces between the
    ``breaks`` inside it, and 1 is always a break: a piece keeps its
    segment's index and tolerance, with a share of 1/pieces.  The first
    piece of each segment stays in its place and the others follow all
    segments, so that a pass without breaks adds in the same order.  A
    panel is accepted when, on every component, its error |GL(31) - GL(15)|
    is within ``max(rel_tol * |value|, abs_tol)`` or within its share of
    ``rel_tol`` times the magnitude of its segment's first estimate
    (QUADPACK's per-panel part of a global error test): the share halves at
    each bisection.  Other panels are bisected.  f sees PANEL_BLOCK panels per
    call; ``abs_tol`` broadcasts against (K, segments); a segment's error
    sums its panels' errors.  With ``strict``, a non-finite value or more
    than ``max_bisections`` splits raise QuadratureError naming the
    segments.  Otherwise a non-finite panel makes its segment non-finite,
    and panels left when the budget runs out are added as they are.
    """
    edges = np.asarray(edges, dtype=float)
    n_seg = len(edges) - 1
    a, b, seg, share = edges[:-1], edges[1:], np.arange(n_seg), np.ones(n_seg)
    r0, r1 = float(edges[0]), float(edges[-1])
    cuts = sorted({c for c in (1.0, *np.asarray(breaks, dtype=float).tolist()) if r0 < c < r1})
    if cuts:
        cuts = np.array(cuts)
        k = a.searchsorted(cuts, side="right") - 1      # the segment of each cut
        inside = a[k] < cuts                              # not on an edge
        k, cuts = k[inside], cuts[inside]
        if len(cuts):
            # a piece ends at the next cut, or at its segment's end when that comes first
            after = np.concatenate((cuts, [np.inf]))
            b = np.minimum(np.concatenate((b, b[k])),
                           np.concatenate((after[cuts.searchsorted(a, side="right")],
                                           after[1:])))
            a, seg = np.concatenate((a, cuts)), np.concatenate((seg, k))
            share = 1.0 / (np.bincount(k, minlength=n_seg) + 1)[seg]
    in_log = a >= 1.0
    if in_log.any():
        a, b = a.copy(), b.copy()      # a and b may be views of the caller's edges
        a[in_log], b[in_log] = np.log(a[in_log]), np.log(b[in_log])
    nodes, weights = _engine_rule()

    def rules(a, b, in_log):
        """GL(15) and GL(31) values of each panel: shape (2, K, panels)."""
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x = mid[:, None] + half[:, None] * nodes
        r = np.where(in_log[:, None], np.exp(x), x)
        vals = np.asarray(f(r.ravel()), dtype=float).reshape(-1, *r.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = vals * np.where(in_log[:, None], r, 1.0)
            return half * (vals @ weights).transpose(2, 0, 1)

    def per_segment(seg, *values):
        """The (K, segments) sums of each (K, panels) array of values over
        the panels of each segment, added in panel order from 0."""
        rows = len(values[0])
        idx = seg if rows == 1 else (np.arange(rows)[:, None] * n_seg + seg).ravel()
        return [np.bincount(idx, v.ravel(), minlength=rows * n_seg).reshape(rows, n_seg)
                for v in values]

    lim, bisections, settled = None, 0, []
    while True:
        # f sees PANEL_BLOCK panels at a time, which bounds the memory
        if len(a) <= PANEL_BLOCK:
            coarse, fine = rules(a, b, in_log)
        else:
            coarse, fine = np.concatenate(
                [rules(a[i:i + PANEL_BLOCK], b[i:i + PANEL_BLOCK], in_log[i:i + PANEL_BLOCK])
                 for i in range(0, len(a), PANEL_BLOCK)], axis=-1)
        bad = ~np.isfinite(fine).all(axis=0)
        if strict and bad.any():
            raise QuadratureError(
                f"non-finite segment integral on {_segment_list(edges, seg[bad])}")
        with np.errstate(invalid="ignore"):
            if lim is None:
                # per segment: the floor, and rel_tol |first estimate|
                lim = np.zeros((2, len(fine), n_seg))
                lim[0] += abs_tol
                lim[1] = rel_tol * np.abs(per_segment(seg, fine)[0])
            err = np.abs(fine - coarse)
            floor, first = lim[..., seg]
            # fmax: a non-finite first estimate leaves the other tests
            done = bad | (err <= np.fmax(np.fmax(rel_tol * np.abs(fine), floor),
                                         share * first)).all(axis=0)
        keep = ~done
        open_panels = np.count_nonzero(keep)
        if open_panels and bisections + open_panels > max_bisections:
            if strict:
                raise QuadratureError(
                    f"segment quadrature did not settle within {max_bisections} "
                    f"bisections on {_segment_list(edges, seg[keep])}")
            open_panels = 0
        if not open_panels:
            settled.append((seg, fine, err))
            break
        settled.append((seg[done], fine[:, done], err[:, done]))
        a, b, seg, in_log, share = a[keep], b[keep], seg[keep], in_log[keep], share[keep]
        mid = 0.5 * (a + b)
        bisections += open_panels
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        seg, in_log = np.concatenate([seg, seg]), np.concatenate([in_log, in_log])
        share = np.concatenate([share, share]) * 0.5
    if len(settled) > 1:
        settled = [[np.concatenate(part, axis=-1) for part in zip(*settled)]]
    seg, fine, err = settled[0]
    return tuple(per_segment(seg, fine, err))


def _segment_list(edges, seg, shown=3):
    seg = np.unique(seg)
    spans = ", ".join(f"[{edges[i]:g}, {edges[i + 1]:g}]" for i in seg[:shown])
    more = f" and {len(seg) - shown} more" if len(seg) > shown else ""
    return f"radii {spans}{more}"


def segment_integrals(f, edges, rel_tol, abs_tol, breaks=()):
    """The (K, segments) integrals of the strict engine pass with
    MAX_BISECTIONS splits, first panels cut at the ``breaks``."""
    return _panel_pass(f, edges, rel_tol, abs_tol, MAX_BISECTIONS, strict=True,
                       breaks=breaks)[0]


def running_integrals(f, radii, rel_tol, abs_tol, breaks=()):
    """The integrals of a scalar f from 0 to each of the sorted radii: the
    cumulative sums of one segment_integrals pass over [0, *radii]."""
    edges = np.concatenate(([0.0], radii))
    return np.cumsum(segment_integrals(lambda t: f(t)[None, :], edges, rel_tol, abs_tol,
                                       breaks)[0])


def _radial_pass(f, r0, r1, rel_tol, abs_tol, breakpoints, max_panels, strict):
    """One engine pass of a scalar f over [r0, *breakpoints, r1], each
    piece with an equal share of abs_tol: (value, error)."""
    if r1 <= r0:
        return 0.0, 0.0
    edges = sorted({r0, r1, *(p for p in breakpoints if r0 < p < r1)})
    vals, errs = _panel_pass(f, edges, rel_tol, abs_tol / (len(edges) - 1), max_panels,
                             strict)
    value = float(np.sum(vals))
    if not math.isfinite(value):
        raise QuadratureError(f"non-finite quadrature value {value} on "
                              f"{_segment_list(edges, np.flatnonzero(~np.isfinite(vals[0])))}")
    return value, float(np.sum(errs))


def adaptive_estimate(f, a, b, rel_tol=1e-8, abs_tol=0.0, max_panels=4096, breakpoints=()):
    """The non-strict engine pass that integrate_radial_estimate runs:
    (value, error) also when ``max_panels`` bisections leave panels
    unsettled.  Raises QuadratureError, naming the radii, when the value
    is NaN or infinite."""
    return _radial_pass(f, a, b, rel_tol, abs_tol, breakpoints, max_panels, strict=False)


def integrate_radial_estimate(f, r0, r1, rel_tol=1e-8, abs_tol=0.0,
                              breakpoints=(), max_panels=4096):
    """Integral of f(r) dr over [r0, r1] with decade-friendly panels.

    The region beyond r = 1 is integrated in t = log r, which keeps panel
    counts small when r1 spans many decades.  Breakpoints (kernel kinks,
    support edges) are honored in both pieces.  Returns (value, error).
    """
    return adaptive_estimate(f, r0, r1, rel_tol, abs_tol, max_panels, breakpoints)


def integrate_radial(f, r0, r1, rel_tol=1e-8, abs_tol=0.0, breakpoints=()):
    """Strict form of integrate_radial_estimate: returns the value, and
    raises QuadratureError when 4096 bisections do not settle every panel."""
    return _radial_pass(f, r0, r1, rel_tol, abs_tol, breakpoints, 4096, strict=True)[0]


# ---------------------------------------------------------------------------
# Signed improper integrals (masses of densities)
# ---------------------------------------------------------------------------

@dataclass
class MassResult:
    value: float            # integral over [r0, r_reached] plus tail estimate
    tail_estimate: float    # magnitude of the extrapolated remainder
    r_reached: float
    converged_early: bool   # decade contributions hit the tolerance floor
    cancellation: float     # (sum |d| - |sum d|) / 2 over the tail decades d


def sign_cancellation(steps):
    """(sum |d| - |sum d|) / 2: the mass of the steps d that cancels between
    signs (0 when they share one sign)."""
    steps = np.asarray(steps, dtype=float)
    return 0.5 * (float(np.sum(np.abs(steps))) - abs(float(np.sum(steps))))


def _geometric_tail(decades):
    """(n, tail) for the last RATIO_RUN ratios rho of consecutive decades
    after the first piece that agree within RATIO_AGREEMENT and lie in
    (0, Q_INFINITE): the run ends at decades[n - 1], and tail is its
    geometric remainder at the last ratio.  None when no run qualifies."""
    d = np.asarray(decades[1:], dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = d[1:] / d[:-1]
    for j in range(len(q) - RATIO_RUN, -1, -1):
        w = q[j:j + RATIO_RUN]
        if np.all((w > 0) & (w < Q_INFINITE)) and np.ptp(w) <= RATIO_AGREEMENT:
            return j + RATIO_RUN + 2, float(d[j + RATIO_RUN] * w[-1] / (1.0 - w[-1]))
    return None


def decade_mass_integral(f, r0=0.0, rel_tol=1e-8, breakpoints=(),
                         support_radius=None, abs_tol=0.0):
    """Signed integral of f over [r0, inf) by decade blocks.

    A non-strict engine pass integrates DECADE_BLOCK decades at a time;
    the walk reads them in order and raises QuadratureError, naming the
    radii, at a non-finite one.  Three quiet decades in a row end it.  A
    decade of exactly 0 right after a non-quiet one is an underflowed
    integrand: the walk ends at the last geometric run before it
    (_geometric_tail) plus its remainder, as it does after MAX_DECADES
    decades when such a run ends at the last one.  Otherwise convergence
    is judged on Cauchy-condensation groups of decades (decade indices
    [2^j, 2^{j+1})), which separates summable tails like 1/(r log^2 r)
    from divergent ones like 1/r even though both have decade-ratio -> 1;
    NonIntegrableError is raised when they fail to decay.
    ``cancellation`` is the sign_cancellation of the decades after the
    first piece (0 with a support radius).
    """
    if support_radius is not None:
        hi = max(support_radius, r0)
        val = integrate_radial(f, r0, hi * (1 + 1e-12) if hi > 0 else 1.0,
                               rel_tol=rel_tol, breakpoints=breakpoints)
        return MassResult(value=val, tail_estimate=0.0, r_reached=hi, converged_early=True,
                          cancellation=0.0)

    first_hi = max(1.0, 10.0 * max(r0, 0.1))
    d0, e0 = integrate_radial_estimate(f, r0, first_hi, rel_tol=rel_tol,
                                       breakpoints=breakpoints, abs_tol=abs_tol,
                                       max_panels=1024)
    decades, errors = [d0], [e0]

    def result(n, tail, tail_mag, early):
        """The first n decades plus a remainder."""
        return MassResult(value=sum(decades[:n]) + tail,
                          tail_estimate=tail_mag + sum(errors[:n]),
                          r_reached=first_hi * 10.0 ** (n - 1), converged_early=early,
                          cancellation=sign_cancellation(decades[1:n]))

    running = d0
    quiet = 0
    while len(decades) <= MAX_DECADES:
        n = len(decades)
        radii = first_hi * 10.0 ** np.arange(n - 1, min(n + DECADE_BLOCK, MAX_DECADES + 1))
        edges = np.unique(np.concatenate(
            [radii, [p for p in breakpoints if radii[0] < p < radii[-1]]]))
        starts = np.searchsorted(edges, radii[:-1])
        pieces = np.diff(np.append(starts, len(edges) - 1))
        # decades contributing below the tolerance floor need no relative
        # resolution of their own; unresolved quadrature error (underflowing
        # tails) is carried into the tail estimate instead of failing hard
        scale = max(abs(running), abs_tol / max(rel_tol, 1e-15), 1e-12)
        # nothing past the decade where the walk stops is read: no warnings
        with np.errstate(over="ignore", invalid="ignore"):
            vals, errs = _panel_pass(f, edges, rel_tol,
                                     np.repeat(0.02 * rel_tol * scale / pieces, pieces),
                                     1024 * len(starts), strict=False)
        for d, e, lo, hi in zip(np.add.reduceat(vals[0], starts).tolist(),
                                np.add.reduceat(errs[0], starts).tolist(),
                                radii[:-1].tolist(), radii[1:].tolist()):
            if not math.isfinite(d):
                raise QuadratureError(
                    f"non-finite decade integral {d} on radii [{lo:g}, {hi:g}]")
            geometric = _geometric_tail(decades) if d == 0.0 and quiet == 0 else None
            if geometric is not None:
                return result(*geometric, abs(geometric[1]), False)
            decades.append(d)
            errors.append(e)
            running += d
            if abs(d) + e > 0.1 * rel_tol * max(abs(running), 1e-12):
                quiet = 0
            elif (quiet := quiet + 1) >= 3:
                return result(len(decades), 0.0, abs(d), True)

    geometric = _geometric_tail(decades)
    if geometric is not None and geometric[0] == len(decades):
        return result(*geometric, abs(geometric[1]), False)
    # condense decades 1..end into doubling groups and ratio-test them
    tail = np.array(decades[1:])
    groups = [np.sum(tail[2 ** j - 1:2 ** (j + 1) - 1])
              for j in range(math.ceil(math.log2(len(tail))))]
    mags = np.abs(groups)
    ratios = mags[1:] / np.maximum(mags[:-1], 1e-300)
    last = ratios[-3:]
    if np.any(last >= Q_INFINITE) and mags[-1] > rel_tol * max(abs(running), 1e-12):
        raise NonIntegrableError(
            f"condensed decade blocks do not decay (last ratios {last})"
        )
    rho = float(min(max(np.max(last), 0.0), 0.98))
    tail_mag = mags[-1] * rho / (1.0 - rho)
    return result(len(decades), math.copysign(tail_mag, groups[-1]), tail_mag, False)


# ---------------------------------------------------------------------------
# Finite-vs-infinite classification of positive integrands
# ---------------------------------------------------------------------------

@dataclass
class TailClassification:
    kind: str                    # "finite" | "infinite" | "inconclusive"
    log_blocks: np.ndarray       # log of each block integral
    ratios: np.ndarray           # linear-space ratios of consecutive blocks
    log_tail_estimate: float     # log of extrapolated remainder (finite case)


def log_sum_exp(a, axis=None):
    """log(sum(exp(a))) over axis (over every entry when axis is None),
    bit for bit as scipy.special.logsumexp computes it for real input, but
    without its per-call dispatch, which dominates on the short rows of a
    condensation pass.

    The entries equal to the maximum of a slice are counted (m) and left
    out of the shifted sum s, which is then divided by m; the result is
    log1p(s) + log(m) + max.  A slice whose result is not finite (a NaN,
    a +inf, or only -inf entries) takes log(sum(exp(a))) instead, and an
    empty slice gives -inf.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.size == 0:
        return np.full(np.sum(a, axis=axis).shape, -np.inf)[()]
    with np.errstate(divide="ignore", invalid="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        top = a == a_max
        m = np.sum(top, axis=axis, keepdims=True, dtype=float)
        s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max), axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not np.all(finite):
            with np.errstate(over="ignore"):
                direct = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))
            out = np.where(finite, out, direct)
    return np.squeeze(out, axis=axis)[()]


@lru_cache(maxsize=8)
def _condensation_grid(r_start):
    """(t, log(half), bounds) of the condensation pass from r_start: the
    GL nodes in t = log r of every panel of every block (one row per
    panel), the log half-width of each panel, and the first panel of each
    block followed by the panel count.  The exponents grow by a factor, so
    the pass must start beyond r = 1."""
    if not (math.isfinite(r_start) and r_start > 1.0):
        raise QuadratureError(
            f"condensation blocks need a finite r_start > 1, got {r_start!r}")
    exps = []
    e = math.log2(r_start)
    while e <= MAX_LOG2_RADIUS:
        exps.append(e)
        e *= CONDENSATION_GROWTH
    x, _ = gl_rule(CONDENSATION_ORDER)
    ts, halves, bounds = [np.empty((0, CONDENSATION_ORDER))], [np.empty(0)], [0]
    for lo_e, hi_e in zip(exps[:-1], exps[1:]):
        ta, tb = lo_e * math.log(2.0), hi_e * math.log(2.0)
        n_panels = max(1, int(math.ceil((tb - ta) / CONDENSATION_PANEL_WIDTH)))
        edges = np.linspace(ta, tb, n_panels + 1)
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
        ts.append(mid[:, None] + half[:, None] * x)
        halves.append(half)
        bounds.append(bounds[-1] + n_panels)
    t, log_half = np.concatenate(ts), np.log(np.concatenate(halves))
    for arr in (t, log_half):
        arr.setflags(write=False)
    return t, log_half, tuple(bounds)


def log_condensation_blocks(log_f, r_start=2.0):
    """Log-space block integrals of exp(log_f(r)) dr over [R_j, R_{j+1}],
    where log2 R_{j+1} = 1.5 log2 R_j starting from R_0 = r_start, up to
    MAX_LOG2_RADIUS.  An r_start that is not a finite number > 1 raises
    QuadratureError.

    For integrands 1/(t log^{-c} t) the block ratios tend to 1.5^{c+1},
    so the finite/infinite thresholds translate into a narrow honest
    undecidable band around the true boundary c = -1.  The growth 1.5
    yields enough blocks that startup transients (cutoff regions) fall out
    of the tail window.

    Each block is integrated in t = log r on sub-panels of width at most
    4 (a single rule cannot follow exponential decay across a block
    spanning dozens of e-folds), reduced with log-sum-exp per panel and
    then per block, so factors like e^{n u} r^{n-1} never overflow.
    ``log_f`` receives the radii of every panel of every block in one call
    (984 from r_start = 2) and returns the log of the (positive)
    integrand; -inf is an exact zero, while NaN or +inf raises
    QuadratureError naming the first such radius.
    """
    t, log_half, bounds = _condensation_grid(float(r_start))
    if not t.size:
        return np.array([])
    r = np.exp(t).ravel()
    vals = np.asarray(log_f(r), dtype=float)
    bad = np.isnan(vals) | (vals == np.inf)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise QuadratureError(
            f"non-finite log integrand {vals[i]} at r = {r[i]:.6g} in the "
            f"condensation blocks from r = {r_start:g}")
    _, w = gl_rule(CONDENSATION_ORDER)
    ell = vals.reshape(t.shape) + t
    pieces = log_sum_exp(ell + np.log(w) + log_half[:, None], axis=1)
    return _log_sum_exp_blocks(pieces, bounds)


def _log_sum_exp_blocks(a, bounds):
    """log_sum_exp of every block a[bounds[j]:bounds[j + 1]], bit for bit,
    in one segmented reduction with its max-count/log1p arithmetic; a block
    whose result is not finite takes log_sum_exp of its slice.  Each block
    is led by one -inf entry, an exact zero of the shifted sum, so that
    ``np.add.reduceat`` (first entry plus a pairwise sum of the rest) adds
    in the order of ``np.sum`` (zero plus a pairwise sum of all)."""
    starts = np.asarray(bounds[:-1])
    heads = starts + np.arange(starts.size)
    led = np.insert(a, starts, -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        a_max = np.maximum.reduceat(led, heads)
        shift = np.repeat(a_max, np.diff(bounds) + 1)
        top = led == shift
        m = np.add.reduceat(top, heads, dtype=float)
        s = np.add.reduceat(np.exp(np.where(top, -np.inf, led) - shift), heads)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
    for j in np.flatnonzero(~np.isfinite(out)):
        out[j] = log_sum_exp(a[bounds[j]:bounds[j + 1]])
    return out


def classify_log_blocks(log_blocks):
    """Classify an improper positive integral from its condensation blocks:
    the verdict rests on the last CONSECUTIVE_BLOCKS ratios."""
    need = CONSECUTIVE_BLOCKS
    lb = np.asarray(log_blocks, dtype=float)
    finite_mask = np.isfinite(lb)
    if np.sum(finite_mask) < need + 1:
        # integrand underflowed to exp(-inf) on most blocks: decisively finite
        if not np.all(np.isfinite(lb[-need:])):
            return TailClassification("finite", lb, np.array([]), -np.inf)
        return TailClassification("inconclusive", lb, np.array([]), math.nan)
    with np.errstate(over="ignore"):   # an overflowed ratio reads as growth
        ratios = np.exp(np.diff(lb))
    last = ratios[-need:]
    if np.all(last <= Q_FINITE):
        rho = float(min(np.max(last), 0.98))
        log_tail = lb[-1] + math.log(rho / (1.0 - rho)) if rho > 0 else -np.inf
        return TailClassification("finite", lb, ratios, log_tail)
    if np.all(last >= Q_INFINITE):
        return TailClassification("infinite", lb, ratios, math.nan)
    return TailClassification("inconclusive", lb, ratios, math.nan)


# ---------------------------------------------------------------------------
# Sphere product rules and ball integrals
# ---------------------------------------------------------------------------

def _rule_size(n, resolution):
    """Number of directions of sphere_rule(n, resolution)."""
    if n == 2:
        return 4 * resolution
    return 2 * _polar_nodes(resolution) ** (n - 1)


def _polar_nodes(resolution):
    """Gauss-Jacobi nodes per polar angle of sphere_rule at n >= 4."""
    return max((resolution + 1) // 2, 4)


def _gauss_jacobi(p, a):
    """p-point Gauss rule for the weight (1 - x^2)^a on [-1, 1], a >= 0, by
    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix, and mu0 = sqrt(pi) Gamma(a + 1) / Gamma(a + 3/2) times the
    squared first eigenvector components are the weights."""
    j = np.arange(1, p)
    off = np.sqrt(j * (j + 2 * a) / ((2 * j + 2 * a) ** 2 - 1.0))
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    mu0 = math.sqrt(math.pi) * math.gamma(a + 1) / math.gamma(a + 1.5)
    return x, mu0 * v[0] ** 2


def _check_budget(n, resolution, radii):
    points = _rule_size(n, resolution) * radii
    if points > POINT_BUDGET:
        raise QuadratureError(
            f"sphere rule of resolution {resolution} in n = {n} on {radii} radii needs "
            f"{points:.3g} points, over the budget of {POINT_BUDGET:.3g}")


@lru_cache(maxsize=None)
def sphere_rule(n, resolution):
    """Product quadrature on the unit sphere S^{n-1} in R^n.

    Returns (directions, weights) with sum(weights) = |S^{n-1}|.  For n = 2
    this is the trapezoid rule on the circle with 4 * resolution points
    (spectrally accurate).  Higher n take p = max(ceil(resolution / 2), 4)
    Gauss-Jacobi nodes in x_k = cos(theta_k) for the weight
    (1 - x_k^2)^{(n-3-k)/2} of each polar angle theta_k, k < n - 2, times
    2p azimuths: 2 p^{n-1} directions, exact for every polynomial of degree
    at most 2p - 1.  Raises QuadratureError, before building the grid, when
    it would have more than POINT_BUDGET directions.  Both arrays are
    cached and read-only.
    """
    _check_budget(n, resolution, 1)
    if n == 2:
        m = 4 * resolution
        th = 2.0 * np.pi * np.arange(m) / m
        return _frozen(np.stack([np.cos(th), np.sin(th)], axis=1),
                       np.full(m, 2.0 * np.pi / m))

    # cosines of the polar angles theta_1..theta_{n-2}, azimuth in [0, 2 pi)
    p = _polar_nodes(resolution)
    rules = [_gauss_jacobi(p, (n - 3 - k) / 2) for k in range(n - 2)]
    rules.append((np.pi * np.arange(2 * p) / p, np.full(2 * p, np.pi / p)))
    wts = np.ones(1)
    for _, w in rules:
        wts = np.multiply.outer(wts, w)
    *cosines, phi = [m.ravel() for m in np.meshgrid(*(x for x, _ in rules), indexing="ij")]
    dirs = np.empty((wts.size, n))
    sin_prod = np.ones(wts.size)
    for k, x in enumerate(cosines):
        dirs[:, k] = sin_prod * x
        sin_prod = sin_prod * np.sqrt(1.0 - x * x)
    dirs[:, n - 2] = sin_prod * np.cos(phi)
    dirs[:, n - 1] = sin_prod * np.sin(phi)
    return _frozen(dirs, wts.ravel())


def _frozen(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def shell_points(n, resolution, center, radii):
    """The points center + rho w, for each rho in radii (outer) and each
    direction w of sphere_rule(n, resolution) (inner), as an (m, n) array,
    and the rule's weights.  Raises QuadratureError, before the rule is
    built, when there would be more than POINT_BUDGET points."""
    radii = np.asarray(radii, dtype=float)
    _check_budget(n, resolution, len(radii))
    dirs, wts = sphere_rule(n, resolution)
    pts = (radii[:, None, None] * dirs[None]).reshape(-1, n)
    pts += np.asarray(center, dtype=float)
    return pts, wts


def shell_values(f, n, center, radii, resolution):
    """f(center + rho w) for each rho in radii and direction w of
    sphere_rule(n, resolution): the rule's weights and an iterator of
    (i, values) chunks, values (k, directions) for k whole radii from
    radii[i] within PRODUCT_RULE_POINTS points (at least one).  About the
    origin a field with a sphere-grid evaluator goes through f.on_shells;
    anything else is called on shell_points.  Raises QuadratureError,
    before the rule is built, when all the radii need more than
    POINT_BUDGET points."""
    radii = np.asarray(radii, dtype=float)
    _check_budget(n, resolution, len(radii))
    dirs, wts = sphere_rule(n, resolution)
    step = max(PRODUCT_RULE_POINTS // len(wts), 1)
    on_grid = (getattr(getattr(f, "caps", None), "shells", None) is not None
               and not np.any(center))

    def chunks():
        for i in range(0, len(radii), step):
            t = radii[i:i + step]
            if on_grid:
                yield i, f.on_shells(t, dirs)
            else:   # no name keeps the points alive while the caller reduces
                yield i, np.asarray(f(shell_points(n, resolution, center, t)[0]),
                                    dtype=float).reshape(len(t), len(wts))

    return wts, chunks()


def sphere_shell(f, n, center, radii, tol):
    """rho^{n-1} * integral of f(center + rho w) over unit directions w, for
    each rho in radii, refined SHELL_RADII radii at a time.

    The sphere_rule resolution doubles until every radius changes by at
    most tol relative to its value, or the last resolution is reached.
    """
    center = np.asarray(center, dtype=float)
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if len(radii) > SHELL_RADII:
        return np.concatenate([sphere_shell(f, n, center, radii[i:i + SHELL_RADII], tol)
                               for i in range(0, len(radii), SHELL_RADII)])

    def at(resolution):
        wts, chunks = shell_values(f, n, center, radii, resolution)
        return np.concatenate([vals @ wts for _, vals in chunks]) * radii ** (n - 1)

    # n = 2: the trapezoid rules with 32 to 4096 points.  n >= 4: each
    # doubling multiplies the number of directions by exactly 2^{n-1}, so
    # the rule stops after three doublings (the point budget refuses 192 on
    # 31 radii at n = 4, and 24 at n = 6).
    res, last = (8, 1024) if n == 2 else (24, 192)
    prev = at(res)
    while res < last:
        res *= 2
        cur = at(res)
        if np.all(np.abs(cur - prev) <= tol * np.maximum(np.abs(cur), 1e-300) + 1e-300):
            return cur
        prev = cur
    return prev


def shell_product_rule(f, n, center, a, b, resolution, order):
    """Integral of f over the shell a <= |y - center| <= b by a fixed
    product rule: Gauss-Legendre of the given order in the radius times
    sphere_rule(n, resolution), summed over the chunks of shell_values."""
    x, w = gl_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    t = mid + half * x
    wr = w * half * t ** (n - 1)
    wts, chunks = shell_values(f, n, center, t, resolution)
    return sum(float(np.einsum("i,j,ij->", wr[i:i + len(vals)], wts, vals))
               for i, vals in chunks)


def cap_angle_integral(n, x):
    """int_0^x sin^{n-2}(t) dt for even n, by the standard recursion."""
    x = np.asarray(x, dtype=float)
    k = n - 2
    if k == 0:
        return x.copy()
    sin_x, cos_x = np.sin(x), np.cos(x)
    i_prev = x.copy()          # k' = 0
    i_cur = 1.0 - cos_x        # k' = 1
    for kk in range(2, k + 1):
        nxt = ((kk - 1) * i_prev - sin_x ** (kk - 1) * cos_x) / kk
        i_prev, i_cur = i_cur, nxt
    return i_cur


def offset_ball_integral_radial(phi, n, center_norm, rho, rel_tol=1e-8,
                                breakpoints=()):
    """Integral of phi(|y|) over a ball B_rho(x0) with |x0| = center_norm.

    Exact spherical-cap reduction: the sphere |y| = s meets the ball in a
    cap of polar angle theta*(s) with cos(theta*) = (s^2+c^2-rho^2)/(2sc),
    so the integral is 1-D in s.  Adaptive quadrature in s resolves
    densities concentrated far from the ball's center, which a fixed
    angular rule around x0 cannot see.
    """
    c = float(center_norm)
    area = sphere_constants(n).boundary_area

    def full_shell(t):
        return np.asarray(phi(t), dtype=float) * area * t ** (n - 1)

    if c == 0.0:
        return integrate_radial(full_shell, 0.0, rho, rel_tol=rel_tol, breakpoints=breakpoints)

    area_nm2 = 2.0 * np.pi ** ((n - 1) / 2) / math.gamma((n - 1) / 2)
    total = 0.0
    inner_hi = max(rho - c, 0.0)
    if inner_hi > 0:
        total += integrate_radial(full_shell, 0.0, inner_hi, rel_tol=rel_tol,
                                  breakpoints=[p for p in breakpoints if p < inner_hi])

    lo, hi = abs(c - rho), c + rho

    def shell(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        cos_t = np.clip((s * s + c * c - rho * rho) / (2.0 * s * c), -1.0, 1.0)
        theta = np.arccos(cos_t)
        return (np.asarray(phi(s), dtype=float) * s ** (n - 1)
                * area_nm2 * cap_angle_integral(n, theta))

    bps = [p for p in breakpoints if lo < p < hi]
    total += integrate_radial(shell, lo, hi, rel_tol=rel_tol, abs_tol=1e-13,
                              breakpoints=bps)
    return total
