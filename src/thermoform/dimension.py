"""Lyapunov exponents, entropy rates, and pointwise-dimension estimators.

Three kinds of number come out of this module: ergodic averages along orbits
(float orbits for absolutely continuous measures, symbolic chains for Gibbs
weightings), closed-form sums over interval partitions, and ball-counting
regressions on sampled point clouds. The dimension checks put them side by
side: entropy over Lyapunov exponent against the measured slope of
log(ball mass) versus log(radius).

Chains are simulated symbolically and only pushed to the interval through
the cells' affine contractions; iterating the interval maps in floats instead
would re-weight the orbit toward Lebesgue-typical points and silently corrupt
every singular-measure average.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .beta import BetaSystem, GlsPartition
from .errors import ConfigError, ConvergenceError
from .gdms import Gdms, brentq, geometric_potential
from .rng import Columns, skip, task_rng
from .shifts import (
    WALK_BLOCK,
    GibbsMarkovMeasure,
    IncidenceMatrix,
    Potential,
    TruncatedShift,
    entropy_from_pressure,
    gibbs_measure,
    letter_sups,
    tail_ratio,
)

# ---------------------------------------------------------------------------
# Lyapunov exponents


@dataclass(frozen=True)
class LyapunovEstimate:
    value: float
    stderr: float
    method: str
    n_steps: int = 0
    n_orbits: int = 0


class MapOrbit:
    """Float orbits of an interval map T, vectorized across orbits.

    The map comes as an in-place step: step(x, row, scratch) writes T(x) into
    row, with scratch a free buffer of x's shape. gauss_orbit and beta_orbit
    step by two ufuncs each, np.reciprocal or np.multiply into row and then
    np.modf(row, row, scratch), outputs passed positionally; they equal the
    expressions
    (1.0 / x) % 1.0 and (beta * x) % 1.0 bit for bit, since np.reciprocal is
    the correctly rounded 1/x and, for finite x >= 0, the fraction from modf
    and x % 1.0 are both exact and both +0.0 on integers.

    Seeds are Lebesgue-uniform unless a start sampler is given; for maps with
    an absolutely continuous invariant measure that makes the orbits generic
    for it. Iterates are clamped to [eps, 1 - eps] so log-derivatives stay
    finite; the clamp is far below every statistic reported here.
    """

    def __init__(self, step, log_deriv, start=None, eps: float = 1e-15):
        self.step = step
        self.log_deriv = log_deriv
        self._start = start
        self.eps = eps

    def start(self, rng, n: int) -> np.ndarray:
        x = self._start(rng, n) if self._start is not None else rng.random(n)
        return np.clip(x, self.eps, 1.0 - self.eps)

    def advance(self, x, rng, out) -> np.ndarray:
        """Iterate len(out) times from x; out[t] gets log|T'| at the t-th point.

        The orbit fills one buffer a row per step by the step alone, and the
        clamp is checked once per block: if every new row lies in
        [eps, 1 - eps], clamping after each step would have changed no row,
        so the block equals the per-step clamped orbit bit for bit. A row out
        of range or NaN fails the check, and then the whole block is stepped
        again from x with the clamp after every step, np.maximum then
        np.minimum in place (np.clip on finite values), which costs one more
        pass over the block at most. The unclamped pass may divide by 0 or
        overflow once an orbit leaves the range, so it runs with those
        floating-point errors ignored; the clamped pass keeps 1/x finite. The
        log-derivative then runs once over the whole block.
        """
        b = out.shape[0]
        xs = np.empty((b + 1, x.size))
        xs[0] = x
        scratch = np.empty(x.size)
        rows, step = list(xs), self.step
        lo, hi = self.eps, 1.0 - self.eps
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for cur, nxt in zip(rows, rows[1:]):
                step(cur, nxt, scratch)
        if not (xs[1:].min() >= lo and xs[1:].max() <= hi):
            for cur, nxt in zip(rows, rows[1:]):
                step(cur, nxt, scratch)
                np.minimum(np.maximum(nxt, lo, out=nxt), hi, out=nxt)
        out[...] = self.log_deriv(xs[:b])
        return xs[b]


def gauss_orbit() -> MapOrbit:
    """x -> 1/x mod 1 with log|T'| = -2 log x."""

    def step(x, row, scratch):
        np.modf(np.reciprocal(x, row), row, scratch)

    return MapOrbit(step, lambda x: -2.0 * np.log(x))


def beta_orbit(beta: float) -> MapOrbit:
    """x -> beta x mod 1 with log|T'| = log beta."""
    b = float(beta)

    def step(x, row, scratch):
        np.modf(np.multiply(x, b, row), row, scratch)

    return MapOrbit(step, lambda x: np.full(x.shape, math.log(b)))


class ChainOrbit:
    """Stationary Markov chain walker reading a per-state observable."""

    def __init__(self, mu: GibbsMarkovMeasure, observable):
        self.obs = np.asarray(observable, dtype=float)
        if self.obs.shape != (mu.n_states,):
            raise ConfigError(
                f"observable has shape {self.obs.shape}, chain has {mu.n_states} states"
            )
        self.chain = mu.forward

    def start(self, rng, n: int) -> np.ndarray:
        return self.chain.start(rng, n)

    def advance(self, s, rng, out) -> np.ndarray:
        """Walk len(out) steps from s; out[t] gets the observable before step t+1."""
        path = self.chain.walk(s, rng, out.shape[0])
        np.take(self.obs, s, out=out[0])
        np.take(self.obs, path[:-1], out=out[1:])
        return path[-1]


def gls_return_observable(mu: GibbsMarkovMeasure, partition: GlsPartition) -> np.ndarray:
    """log of the induced-map derivative on each chain state: (k(n)+1) log beta."""
    logb = math.log(partition.beta)
    letters, state_letter = np.unique(mu.states[:, 0], return_inverse=True)
    ks = np.array([partition.cell(e + 1).k for e in letters.tolist()], dtype=int)
    return (ks[state_letter] + 1) * logb


def lyapunov_birkhoff(
    driver,
    n_steps: int = 1_000_000,
    n_orbits: int = 32,
    seed: int = 0,
    burn_in: int = 0,
) -> LyapunovEstimate:
    """Birkhoff average of the log-derivative observable over seeded orbits.

    The value is the mean of the per-orbit averages and the standard error is
    taken across orbits, so correlations along a single orbit do not bias the
    reported uncertainty. The driver (MapOrbit or ChainOrbit) advances all
    orbits a block of steps at a time.
    """
    if n_steps < 1 or n_orbits < 1:
        raise ConfigError("need at least one step and one orbit")
    rng = task_rng(seed)
    state = driver.start(rng, n_orbits)
    block = max(1, WALK_BLOCK // n_orbits)
    # row 0 carries the running sum and rows 1.. a block of observables, one
    # contiguous row per step. numpy sums pairwise only along the fast axis,
    # so a reduce over the rows of two or more orbits adds one row at a time
    # in order, and the sum equals a per-step acc += vals bit for bit; one
    # orbit's rows are one contiguous column, which a reduce would sum
    # pairwise and accumulate adds in order
    buf = np.empty((block + 1, n_orbits))
    for done in range(0, burn_in, block):
        state = driver.advance(state, rng, buf[1 : 1 + min(block, burn_in - done)])
    acc = np.zeros(n_orbits)
    for done in range(0, n_steps, block):
        rows = buf[: 1 + min(block, n_steps - done)]
        rows[0] = acc
        state = driver.advance(state, rng, rows[1:])
        if n_orbits > 1:
            acc = np.add.reduce(rows, axis=0)
        else:
            acc = np.add.accumulate(rows, axis=0, out=rows)[-1].copy()
    per_orbit = acc / n_steps
    value = float(per_orbit.mean())
    stderr = float(per_orbit.std(ddof=1) / math.sqrt(n_orbits)) if n_orbits > 1 else 0.0
    return LyapunovEstimate(value, stderr, "birkhoff", n_steps, n_orbits)


def lyapunov_gls_closed_form(
    weights,
    beta: float,
    tail_tol: float = 1e-6,
) -> LyapunovEstimate:
    """log beta times the weighted mean return time over partition cells.

    weights is a probability vector over cells 1..len(weights) (or a dict
    keyed by cell number, from 1). Mass beyond the last cell is bounded by the
    next cell's return time and reported as the stderr field.
    """
    if isinstance(weights, dict):
        if not all(isinstance(n, (int, np.integer)) and n >= 1 for n in weights):
            raise ConfigError(f"cell numbers must be integers >= 1, got {list(weights)}")
        top = max(weights, default=0)
        w = np.zeros(top)
        for n, v in weights.items():
            w[n - 1] = v
    else:
        w = np.asarray(weights, dtype=float)
    if np.any(w < -1e-15):
        raise ConfigError("cell weights must be nonnegative")
    part = GlsPartition(BetaSystem(beta))
    total_cells = part.total_cells
    if total_cells is not None and len(w) > total_cells:
        raise ConfigError(f"{len(w)} weights but the partition has {total_cells} cells")
    tail_mass = max(0.0, 1.0 - float(w.sum()))
    if tail_mass > tail_tol:
        raise ConvergenceError(
            f"tail mass {tail_mass:.3g} beyond cell {len(w)} exceeds {tail_tol:.3g}"
        )
    logb = math.log(beta)
    value = logb * sum(
        (part.cell(n + 1).k + 1) * w[n] for n in range(len(w)) if w[n] != 0.0
    )
    if tail_mass > 0.0 and (total_cells is None or len(w) < total_cells):
        bound = logb * (part.cell(len(w) + 1).k + 1) * tail_mass
    else:
        bound = 0.0
    return LyapunovEstimate(float(value), float(bound), "closed-form-gls")


def golden_lyapunov(w2: float) -> LyapunovEstimate:
    """Two-cell closed form log phi * (1 + w2), w2 the mass of the short cell."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    return LyapunovEstimate(math.log(phi) * (1.0 + w2), 0.0, "closed-form-golden")


# ---------------------------------------------------------------------------
# cell weights of the induced chain


def cell_weights(mu: GibbsMarkovMeasure) -> np.ndarray:
    """Stationary mass per first letter, one entry per cell."""
    # bincount adds each letter's mass in state order, one state at a time
    return np.bincount(mu.states[:, 0], mu.pi)


# ---------------------------------------------------------------------------
# pointwise dimension from ball counts


@dataclass(frozen=True)
class LocalDimensionEstimate:
    slopes: np.ndarray
    mean: float
    std: float
    stderr: float
    mean_upper: float
    j_range: tuple[int, int]
    n_centers: int
    method: str

    def to_dict(self) -> dict:
        """Report fields: every field but the per-center slopes."""
        return {
            "mean": self.mean,
            "std": self.std,
            "stderr": self.stderr,
            "mean_upper": self.mean_upper,
            "j_range": list(self.j_range),
            "n_centers": self.n_centers,
            "method": self.method,
        }


def _ball_counts_1d(pts: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    order = np.sort(pts)
    hi = np.searchsorted(order, centers[:, None] + radii[None, :], side="right")
    lo = np.searchsorted(order, centers[:, None] - radii[None, :], side="left")
    return hi - lo - 1  # the center is a cloud point; leave it out


def _ball_counts_2d(pts: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Points with dx*dx + dy*dy <= r*r around each center, the center left out.

    The points are sorted by x once; each ball is counted inside the x-strip
    |x - cx| <= r of its center, a contiguous run of the sorted points. The
    strips are widened by a few ulps so that no point the test admits falls
    outside them by a rounding of cx -+ r, and the squared distances are
    computed once per center, over its widest strip.
    """
    order = np.argsort(pts[:, 0])  # ties in x may come in any order
    xs, ys = pts[order, 0], pts[order, 1]
    del order
    cx, cy = centers[:, 0], centers[:, 1]
    half = radii[None, :] + 4.0 * np.finfo(float).eps * (np.abs(cx)[:, None] + radii.max())
    lo = np.searchsorted(xs, cx[:, None] - half, side="left")
    hi = np.searchsorted(xs, cx[:, None] + half, side="right")
    wide = np.argmax(radii)
    r2 = radii * radii
    counts = np.empty((centers.shape[0], radii.size), dtype=np.intp)
    for i in range(centers.shape[0]):
        a, b = lo[i, wide], hi[i, wide]
        # dx*dx + dy*dy in place, so a wide strip holds two arrays, not five
        d2, dy = xs[a:b] - cx[i], ys[a:b] - cy[i]
        d2 *= d2
        dy *= dy
        d2 += dy
        for j in range(radii.size):
            counts[i, j] = np.count_nonzero(d2[lo[i, j] - a:hi[i, j] - a] <= r2[j])
    return counts - 1


def local_dimension(
    cloud,
    j_range: tuple[int, int] | None = None,
    n_centers: int = 64,
    min_count: int = 50,
    max_frac: float = 0.2,
    seed: int = 0,
) -> LocalDimensionEstimate:
    """Pooled slope of log(ball mass) vs log(radius) at centers from the cloud.

    Radii run over 2^-j for j in j_range. A radius counts for a center only
    when its ball holds at least min_count points and at most max_frac of the
    cloud; a center needs three such radii to contribute a slope. mean_upper
    refits each center on the larger-radius half of its usable range, which
    the scaling-regime stability checks compare against the full fit.
    """
    pts = np.asarray(cloud, dtype=float)
    if pts.ndim == 2 and pts.shape[1] == 1:
        pts = pts[:, 0]
    two_d = pts.ndim == 2
    if two_d and pts.shape[1] != 2:
        raise ConfigError(f"clouds must be 1- or 2-dimensional, got shape {pts.shape}")
    M = pts.shape[0]
    if M < 4 * min_count:
        raise ConfigError(f"cloud of {M} points is too small for min_count={min_count}")

    # each coordinate's bounds, one column at a time: min and max over a
    # strided column give the floats the axis-0 reductions give, and cost
    # less than reducing over length-2 rows
    cols = pts.T if two_d else pts[None]
    lo = np.array([c.min() for c in cols])
    hi = np.array([c.max() for c in cols])
    spread = float(np.max(hi - lo))
    if spread < 1e-12:
        # atomic measure: every ball holds everything, the slope is exactly 0
        return LocalDimensionEstimate(
            np.zeros(1), 0.0, 0.0, 0.0, 0.0, (0, 0), 1, "degenerate"
        )

    if j_range is None:
        # r = 2^-2 is a sizable fraction of a unit-box support and saturates
        # max_frac; 2^-10 starves min_count in 2D at desk-scale M
        j_range = (3, 9) if two_d else (4, 15)
    js = np.arange(j_range[0], j_range[1] + 1)
    if js.size == 0:
        raise ConfigError(f"empty radius range j_range={list(j_range)}")
    radii = 2.0 ** (-js.astype(float))

    rng = task_rng(seed)
    r_max = radii[0]
    interior = np.ones(M, dtype=bool)  # at least r_max inside the bounds in every coordinate
    for c, a, b in zip(cols, lo, hi):
        interior &= (c >= a + r_max) & (c <= b - r_max)
    pool = np.flatnonzero(interior)
    if pool.size < max(8, n_centers // 4):
        pool = np.arange(M)  # heavy trim, fall back to the whole cloud
    centers = pts[rng.choice(pool, size=min(n_centers, pool.size), replace=False)]
    del pool, interior  # M entries each, not needed while counting

    counts = (_ball_counts_2d if two_d else _ball_counts_1d)(pts, centers, radii)

    log_r = np.log(radii)
    slopes, uppers = [], []
    for row in counts:
        valid = (row >= min_count) & (row <= max_frac * M)
        if valid.sum() < 3:
            continue
        lr = log_r[valid]
        lm = np.log(row[valid] / (M - 1))
        slopes.append(np.polyfit(lr, lm, 1)[0])
        half = max(2, valid.sum() // 2)  # radii are descending, so this is the large-r half
        uppers.append(np.polyfit(lr[:half], lm[:half], 1)[0])
    if not slopes:
        raise ConvergenceError(
            f"no center had {min_count}..{max_frac:.0%} counts on three radii; "
            "widen j_range or enlarge the cloud"
        )
    slopes = np.array(slopes)
    std = float(slopes.std(ddof=1)) if slopes.size > 1 else 0.0
    return LocalDimensionEstimate(
        slopes=slopes,
        mean=float(slopes.mean()),
        std=std,
        stderr=std / math.sqrt(slopes.size) if slopes.size > 1 else 0.0,
        mean_upper=float(np.mean(uppers)),
        j_range=(int(js[0]), int(js[-1])),
        n_centers=int(slopes.size),
        method="strip-2d" if two_d else "sorted-1d",
    )


# ---------------------------------------------------------------------------
# sampled clouds


def gauss_acim_cloud(n: int, seed: int = 0) -> np.ndarray:
    """Exact samples of the density 1/((1+x) log 2) via the inverse CDF."""
    u = task_rng(seed).random(n)
    return np.exp2(u) - 1.0


def _state_cells(mu: GibbsMarkovMeasure, part: GlsPartition) -> np.ndarray:
    """(2, S): the left end and the length of each state's first cell."""
    first = mu.states[:, 0]
    cells = part.cells_up_to(int(first.max()) + 1)
    if len(cells) <= first.max():
        raise ConfigError(
            f"chain uses {first.max() + 1} letters but the partition has {len(cells)} cells"
        )
    return np.array([[c.left for c in cells], [c.length for c in cells]])[:, first]


# Most walkers a cloud fold walks at a time (see _fold_walk). Golden chain,
# M = 2e5, depth 91, fiber / joint cloud, median of 5 runs of a median of 7
# (2 vCPUs, numpy 2.4), with the tracemalloc peak: 2**12 387 / 780 ms (49
# chunks of 4,081 walkers, under COUNT_WIDTH, so stepped by search); 2**13
# 154 / 337 ms, 2.66 / 5.71 MiB; 2**14 165 / 287 ms, 3.00 / 6.05 MiB; 2**16
# 153 / 325 ms, 5.16 / 8.21 MiB; all 2e5 walkers at once 181 / 361 ms, 16.0
# / 19.1 MiB. Equal chunks of a wider walk hold more than FOLD_WIDTH / 2
# walkers, past COUNT_WIDTH.
FOLD_WIDTH = 2**14


def _fold_walk(chain, s, rng, n_steps: int, cells, out, from_cell: bool = False) -> None:
    """Walk n_steps from the states s and fold each state's cell into the
    walkers' y-contraction as it is walked, outermost first; out[i] gets
    walker i's point.

    A walker's contraction is y -> offset + scale * y, from the identity, or
    from its start state's own cell when from_cell; each step does
    offset += scale * left and then scale *= length of the cell it reads,
    in place, and the point is offset + scale / 2. Every entry indexes the
    per-entry tables: clip mode skips the bounds check.

    The walkers go in equal chunks of at most FOLD_WIDTH, each walked through
    every step before the next starts, so the fold's buffers and the walk's
    uniforms, entries and needles are a few doubles per chunk walker and only
    out grows with len(s). A chunk reads its columns of the step-major
    stream of one rng.random(len(s)) per step (see rng.Columns), and rng ends
    where that stream leaves it. A walker's path is the same on every route
    of chain.blocks and at every chunk width, so the points equal those of
    one walk of all the walkers bit for bit.
    """
    left, length = chain.per_entry(cells[0]), chain.per_entry(cells[1])
    W = s.size
    n_chunks = max(1, -(-W // FOLD_WIDTH))
    bounds = [W * i // n_chunks for i in range(n_chunks + 1)]
    for c0, c1 in zip(bounds, bounds[1:]):
        first = s[c0:c1]
        if from_cell:
            offset, scale = cells[0, first], cells[1, first]
        else:
            offset, scale = np.zeros(c1 - c0), np.ones(c1 - c0)
        term = np.empty(c1 - c0)
        for block in chain.blocks(first, Columns(rng, c0, c1, W), n_steps):
            for row in block:
                offset += np.multiply(scale, np.take(left, row, out=term, mode="clip"), out=term)
                scale *= np.take(length, row, out=term, mode="clip")
        scale *= 0.5
        np.add(offset, scale, out=out[c0:c1])
    skip(rng, n_steps * W)


def _fold_depth(beta: float) -> int:
    # enough contractions to pin the folded point well below float resolution
    return int(40.0 / math.log(beta)) + 8


def fiber_cloud(
    mu: GibbsMarkovMeasure,
    part: GlsPartition,
    n: int,
    depth: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Past coordinates conditioned on a fixed present state.

    Runs the reversed chain from the most likely state and folds the past
    letters through the cells' y-contractions, most recent letter outermost,
    as the walk yields them (see _fold_walk). Memory is the (n,) result and
    one chunk's buffers, at every depth: on the golden chain the tracemalloc
    peak is 1.59 MiB at n = 50,000 and 3.00 MiB at n = 200,000 (2.0 doubles
    per point, the result included), at depth 91 and at depth 364 alike.
    """
    cells = _state_cells(mu, part)
    if depth is None:
        depth = _fold_depth(part.beta)
    rng = task_rng(seed)
    s0 = np.broadcast_to(np.intp(np.argmax(mu.pi)), n)  # one state, held once
    cloud = np.empty(n)
    _fold_walk(mu.backward, s0, rng, depth, cells, cloud)
    return cloud


def joint_cloud(
    mu: GibbsMarkovMeasure,
    part: GlsPartition,
    n: int,
    depth: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Stationary (x, y) samples, one two-sided chain path per point.

    x comes from the forward letters starting at the present state, y from the
    reversed letters; given the present state the two walks are independent,
    which is exactly the Markov structure of the invariant measure. Each side
    is folded as it is walked (see _fold_walk), x from the present state's
    cell, which is outermost, and y from the identity, into the two columns
    of the result. Memory is the (n, 2) result, the n present states and one
    chunk's buffers, at every depth: on the golden chain the tracemalloc peak
    is 2.34 MiB at n = 50,000 and 6.05 MiB at n = 200,000 (4.0 doubles per
    point), at depth 91 and at depth 364 alike.
    """
    cells = _state_cells(mu, part)
    if depth is None:
        depth = _fold_depth(part.beta)
    rng = task_rng(seed)
    s0 = mu.forward.start(rng, n)
    cloud = np.empty((n, 2))
    _fold_walk(mu.forward, s0, rng, depth, cells, cloud[:, 0], from_cell=True)
    _fold_walk(mu.backward, s0, rng, depth, cells, cloud[:, 1])
    return cloud


# ---------------------------------------------------------------------------
# dimension checks


def induced_cell_chain(
    beta: float,
    psi: Potential | None = None,
    n_cells: int | None = None,
    incidence: IncidenceMatrix | str | dict | None = None,
) -> tuple[GibbsMarkovMeasure, GlsPartition]:
    """Gibbs chain over the cell alphabet of the induced map.

    psi defaults to the zero potential. incidence is anything
    IncidenceMatrix.from_config reads; it defaults to the full shift (the
    cells genuinely form one), with "golden" selecting the two-letter no-11
    rule used throughout the worked examples.
    """
    part = GlsPartition(BetaSystem(beta))
    total = part.total_cells
    if n_cells is None:
        n_cells = total if total is not None else 64
    if total is not None and n_cells > total:
        raise ConfigError(f"n_cells={n_cells} but the partition has {total} cells")
    if psi is None:
        psi = Potential.constant(0.0)
    mu = gibbs_measure(psi, IncidenceMatrix.from_config(incidence), n_cells)
    return mu, part


def _cell_summary(mu: GibbsMarkovMeasure, beta: float):
    """The cell chain's stationary cell weights, its entropy h (the skew
    product adds nothing since the second coordinate is contracted) and the
    closed-form chi, whose tail mass must stay below 1e-9."""
    w = cell_weights(mu)
    return w, entropy_from_pressure(mu), lyapunov_gls_closed_form(w, beta, tail_tol=1e-9)


def conditional_dimension_check(
    beta: float,
    psi: Potential | None = None,
    M: int = 200_000,
    seed: int = 0,
    *,
    n_cells: int | None = None,
    incidence: IncidenceMatrix | str | dict | None = None,
    depth: int | None = None,
    j_range: tuple[int, int] | None = None,
    n_centers: int = 64,
    keep_cloud: bool = False,
) -> dict:
    """Fiber slope of the conditional measure against h/chi."""
    return _conditional_check(induced_cell_chain(beta, psi, n_cells, incidence), beta, M, seed,
                              depth, j_range, n_centers, keep_cloud)


def _conditional_check(chain, beta, M, seed, depth, j_range, n_centers, keep_cloud) -> dict:
    """conditional_dimension_check on the (mu, part) of induced_cell_chain."""
    mu, part = chain
    w, h, closed_form = _cell_summary(mu, beta)
    chi = closed_form.value
    target = h / chi
    cloud = fiber_cloud(mu, part, M, depth, seed)
    est = local_dimension(cloud, j_range=j_range, n_centers=n_centers, seed=seed + 1)
    report = {
        "beta": beta,
        "n_cells": len(w),
        "h": h,
        "chi": chi,
        "target": target,
        "fiber": est,
        "deviation": est.mean - target,
        "relative_error": abs(est.mean - target) / target if target > 0 else abs(est.mean),
    }
    if keep_cloud:
        report["cloud"] = cloud
    return report


def global_dimension_check(
    beta: float,
    psi: Potential | None = None,
    M: int = 200_000,
    seed: int = 0,
    *,
    n_cells: int | None = None,
    incidence: IncidenceMatrix | str | dict | None = None,
    depth: int | None = None,
    j_range_2d: tuple[int, int] | None = None,
    j_range_1d: tuple[int, int] | None = None,
    n_centers: int = 64,
    keep_cloud: bool = False,
) -> dict:
    """Joint, base, and fiber slopes against 2h/chi and its even split."""
    return _global_check(induced_cell_chain(beta, psi, n_cells, incidence), beta, M, seed,
                         depth, j_range_2d, j_range_1d, n_centers, keep_cloud)


def _global_check(chain, beta, M, seed, depth, j_range_2d, j_range_1d, n_centers,
                  keep_cloud) -> dict:
    """global_dimension_check on the (mu, part) of induced_cell_chain."""
    mu, part = chain
    w, h, closed_form = _cell_summary(mu, beta)
    chi = closed_form.value
    cloud = joint_cloud(mu, part, M, depth, seed)
    est_joint = local_dimension(cloud, j_range=j_range_2d, n_centers=n_centers, seed=seed + 1)
    est_base = local_dimension(cloud[:, 0], j_range=j_range_1d, n_centers=n_centers, seed=seed + 2)
    est_fiber = local_dimension(cloud[:, 1], j_range=j_range_1d, n_centers=n_centers, seed=seed + 3)
    gap = est_base.mean + est_fiber.mean - est_joint.mean
    pooled = math.sqrt(est_base.stderr**2 + est_fiber.stderr**2 + est_joint.stderr**2)
    report = {
        "beta": beta,
        "n_cells": len(w),
        "h": h,
        "chi": chi,
        "target_global": 2.0 * h / chi,
        "target_marginal": h / chi,
        "global": est_joint,
        "base": est_base,
        "fiber": est_fiber,
        "additivity_gap": gap,
        "pooled_stderr": pooled,
    }
    if keep_cloud:
        report["cloud"] = cloud
    return report


# ---------------------------------------------------------------------------
# pressure-equation roots


@dataclass(frozen=True)
class TemperatureResult:
    q: float
    t: float
    bracket: tuple[float, float]
    residual: float


TEMPERATURE_XTOL = 1e-13  # brentq's absolute tolerance on every temperature root


def temperature(
    system: Gdms,
    theta: Potential | None = None,
    q: float = 0.0,
    bracket: tuple[float, float] = (1e-3, 2.0),
    *,
    p_theta: float = 0.0,
    memory: int = 1,
    truncation: int | None = None,
) -> TemperatureResult:
    """Root in t of the pressure of t*log|branch'| + q*(theta - p_theta).

    q != 0 needs theta or a nonzero p_theta. The pressure must change sign over
    the bracket or vanish at one of its ends, which is then the root. For
    countable systems the tail ratio, the share of the letter sums carried by
    the top floor(N/2) letters, raises above 0.5 at either end of the bracket
    (divergence) and warns once above 1e-6 at the root (the truncated root is
    well defined, the ideal-system reading is what is shaky).

    Cost: log|branch'| at each state's coding point depends on neither t nor
    q, so a root reads one TruncatedShift, whose state graph is built at most
    once, and computes one coding point per tail word, once, from one image
    table; each tail ratio then only reweights the states (a letter's term is
    its largest over the states it begins), and each distinct t the solver
    asks for runs one TruncatedShift.log_rho: the right power iteration alone
    or, on a full shift at memory 1, the closed form. The pressure is kept
    per t, so the bracket ends, which brentq evaluates again, and the
    returned root, which it has already evaluated, cost nothing more.
    """
    a, b = float(bracket[0]), float(bracket[1])
    if not a < b:
        raise ConfigError(f"empty bracket {bracket}")

    countable = system.n_edges is None
    N = truncation if truncation is not None else system.n_edges
    if N is None:
        raise ConfigError("a countable edge set needs an explicit truncation")
    A = system.shift_view(N)
    base = geometric_potential(system, t=a, q=q, theta=theta, p_theta=p_theta, memory=memory)
    shift = TruncatedShift(base.memory, A, N)
    values = base.tabulate(shift.states)
    if countable:
        for end in (a, b):
            ratio = tail_ratio(letter_sups(shift.states, values(end), N))
            if ratio > 0.5:
                raise ConvergenceError(
                    f"letter sums diverge at t={end}: tail ratio {ratio:.2f}"
                )

    pressures: dict[float, float] = {}

    def f(t: float) -> float:
        if t not in pressures:
            pressures[t] = shift.log_rho(values(t))
        return pressures[t]

    fa, fb = f(a), f(b)
    # brentq returns an end where the pressure is 0
    if not (fa >= 0.0 >= fb or fa <= 0.0 <= fb):
        raise ConvergenceError(
            f"pressure does not change sign on the bracket: P({a})={fa:.4g}, P({b})={fb:.4g}"
        )
    root = float(brentq(f, a, b, xtol=TEMPERATURE_XTOL))
    residual = abs(f(root))
    if residual >= 1e-9:
        raise ConvergenceError(f"pressure residual {residual:.3g} at t={root}")
    if countable:
        ratio = tail_ratio(letter_sups(shift.states, values(root), N))
        if ratio > 1e-6:
            warnings.warn(
                f"slow letter-sum decay at the root t={root:.4g} "
                f"(tail ratio {ratio:.2g}); treat the root as truncation-dependent",
                stacklevel=2,
            )
    return TemperatureResult(q=q, t=root, bracket=(a, b), residual=residual)


def temperature_sweep(system: Gdms, theta: Potential, qs, **kwargs) -> list[TemperatureResult]:
    return [temperature(system, theta, float(q), **kwargs) for q in qs]


def hd_limit_set(system: Gdms, bracket: tuple[float, float] = (1e-3, 2.0), **kwargs) -> float:
    """Dimension of the limit set: the zero of t -> P(t log|branch'|)."""
    return temperature(system, None, 0.0, bracket, **kwargs).t
