"""Greedy beta-expansions and the stacked-rectangle natural extension.

The base map is x -> beta*x mod 1 on [0,1). Its invertible extension lives on
a tower of rectangles Z_i indexed by how far the orbit of 1 has been chased;
inducing on the ground floor Z_0 = [0,1)^2 collapses the tower into a single
affine skew map driven by a countable interval partition of [0,1). Everything
here is plain float arithmetic with a digit snap of 1e-12: after snapping,
orbits of algebraic betas like the golden ratio terminate exactly, and the
closed forms below stay within ~1e-12 of the step-iterated tower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryPointError,
    BudgetError,
    ConfigError,
    ConvergenceError,
    DomainError,
    ThermoformError,
)
from .rng import task_rng

SNAP = 1e-12
AMBIGUOUS = 1e-9


def t_beta(beta: float, x: float) -> float:
    """The expanding base map beta*x mod 1."""
    if not 0.0 <= x < 1.0:
        raise DomainError(f"x={x} outside [0,1)")
    w = beta * x
    return w - math.floor(w)


def beta_digits(beta: float, x: float, k: int) -> list[int]:
    """First k greedy digits of x."""
    if not 0.0 <= x < 1.0:
        raise DomainError(f"x={x} outside [0,1)")
    out = []
    for _ in range(k):
        w = beta * x
        d = math.floor(w)
        out.append(d)
        x = w - d
    return out


def expansion_of_one(beta: float, k: int = 64) -> tuple[list[int], bool]:
    """Greedy digits of 1 from the orbit of 1; flags a terminating expansion.

    Products like beta*(beta-1) land within float noise of integers for
    algebraic betas, so near-integers are snapped before taking floors.
    """
    if beta <= 1.0:
        raise ConfigError(f"beta={beta} must exceed 1")
    digits: list[int] = []
    z = 1.0
    for _ in range(k):
        w = beta * z
        r = round(w)
        if abs(w - r) < SNAP * max(1.0, abs(w)):
            w = float(r)
        d = math.floor(w)
        z = w - d
        if z < SNAP:
            digits.append(d)
            return digits, True
        digits.append(d)
    return digits, False


class BetaSystem:
    """Digits of 1, their tails, and partial data shared by the tower maps.

    digit(j) is b_j (1-based); tail(i) is the i-th image of 1 under the base
    map, so tail(0) = 1. For a terminating expansion of length m the tower has
    floors 0..m-1 and tail(m) = 0.
    """

    def __init__(self, beta: float, depth: int = 64, max_depth: int = 1 << 16):
        if not 1.0 < beta < math.inf:
            raise ConfigError(f"beta={beta} must be finite and exceed 1")
        self.beta = float(beta)
        self.max_depth = max_depth
        self._digits, self.finite = expansion_of_one(beta, depth)
        self._rebuild()

    def _rebuild(self):
        b = self.beta
        self._tails = [1.0]
        self._prefix = [0.0]
        self._cum = [0]
        z = 1.0
        for j, d in enumerate(self._digits, start=1):
            z = b * z - d
            if self.finite and j == len(self._digits):
                z = 0.0
            self._tails.append(z)
            self._prefix.append(self._prefix[-1] + d * b ** (-j))
            self._cum.append(self._cum[-1] + d)

    def _extend(self, need: int):
        if self.finite or need <= len(self._digits):
            return
        if need > self.max_depth:
            raise BudgetError(f"digit depth {need} exceeds the {self.max_depth} cap")
        # grow geometrically so repeated one-step lookups stay amortized,
        # but never let the speculative headroom trip the cap
        depth = min(self.max_depth, max(need, 2 * len(self._digits)))
        self._digits, self.finite = expansion_of_one(self.beta, depth)
        self._rebuild()

    @property
    def digits(self) -> list[int]:
        return list(self._digits)

    def digit(self, j: int) -> int:
        if j < 1:
            raise ConfigError("digit index is 1-based")
        if j > len(self._digits):
            if self.finite:
                raise DomainError(
                    f"b_{j} does not exist: the expansion of 1 has {len(self._digits)} digits"
                )
            self._extend(j)
        return self._digits[j - 1]

    def tail(self, i: int) -> float:
        if i > len(self._digits):
            if self.finite:
                return 0.0
            self._extend(i)
        return self._tails[i]

    def prefix_value(self, k: int) -> float:
        """Sum of b_j beta^-j for j <= k."""
        if k > len(self._digits):
            if self.finite:
                raise DomainError(f"prefix depth {k} beyond a terminating expansion")
            self._extend(k)
        return self._prefix[k]

    def cum(self, k: int) -> int:
        if k > len(self._digits):
            if self.finite:
                raise DomainError(f"cumulative depth {k} beyond a terminating expansion")
            self._extend(k)
        return self._cum[k]

    def quasi_greedy_digit(self, j: int) -> int:
        """Reference sequence for admissibility: the expansion of 1 itself, or
        its periodic left limit (b_1 .. b_{m-1} (b_m - 1))^inf when finite."""
        if not self.finite:
            return self.digit(j)
        m = len(self._digits)
        d = self._digits[(j - 1) % m]
        return d - 1 if (j - 1) % m == m - 1 else d


def is_admissible_beta(sys_or_beta, word) -> bool:
    """Lexicographic test: every tail of the word stays at or below the
    quasi-greedy expansion of 1, compared letter by letter."""
    bs = sys_or_beta if isinstance(sys_or_beta, BetaSystem) else BetaSystem(sys_or_beta)
    word = list(word)
    top = math.floor(bs.beta)
    if any(not 0 <= d <= top for d in word):
        return False
    L = len(word)
    for start in range(L):
        for offset in range(L - start):
            ref = bs.quasi_greedy_digit(offset + 1)
            d = word[start + offset]
            if d < ref:
                break
            if d > ref:
                return False
    return True


@dataclass(frozen=True)
class GlsAffineData:
    slope: float
    offset: float


@dataclass(frozen=True)
class GlsCell:
    """Cell number n, its interval, and the digit data (k, i) behind it."""

    n: int
    left: float
    k: int
    i: int
    beta: float

    @property
    def length(self) -> float:
        return self.beta ** (-(self.k + 1))

    @property
    def right(self) -> float:
        return self.left + self.length

    @property
    def return_time(self) -> int:
        return self.k + 1

    def affine(self) -> GlsAffineData:
        return GlsAffineData(slope=self.beta ** (self.k + 1), offset=self.left)


class GlsPartition:
    """The interval partition of [0,1) indexed by how long a point rides the
    expansion of 1: cell n pins digits b_1..b_k followed by one smaller digit.

    Cell numbers n are 1-based and ordered left to right; n decomposes as
    cum(k) + i with 1 <= i <= b_{k+1}.
    """

    def __init__(self, bs: BetaSystem):
        self.system = bs
        self.beta = bs.beta

    @property
    def total_cells(self) -> int | None:
        return self.system.cum(len(self.system.digits)) if self.system.finite else None

    def cell(self, n: int) -> GlsCell:
        bs = self.system
        if n < 1:
            raise ConfigError("cell numbers are 1-based")
        total = self.total_cells
        if total is not None and n > total:
            raise DomainError(f"the partition has only {total} cells")
        k = 0
        while bs.cum(k + 1) < n:
            k += 1
        i = n - bs.cum(k)
        left = bs.prefix_value(k) + (i - 1) * bs.beta ** (-(k + 1))
        return GlsCell(n, left, k, i, bs.beta)

    def cells_up_to(self, count: int) -> list[GlsCell]:
        total = self.total_cells
        if total is not None:
            count = min(count, total)
        return [self.cell(n) for n in range(1, count + 1)]

    def locate(self, x: float, budget: int = 4096) -> GlsCell:
        """Cell containing x, read off the run of digits matching b_1 b_2 ...

        Points whose digits sit within 1e-9 of a carry are ambiguous between
        neighboring cells and raise BoundaryPointError.
        """
        if not 0.0 <= x < 1.0:
            raise DomainError(f"x={x} outside [0,1)")
        bs = self.system
        b = self.beta
        k = 0
        while k < budget:
            w = b * x
            if abs(w - round(w)) < AMBIGUOUS and w > AMBIGUOUS:
                raise BoundaryPointError(f"digit {k + 1} of {x} is ambiguous")
            d = math.floor(w)
            if d < bs.digit(k + 1):
                return self.cell(bs.cum(k) + d + 1)
            if d > bs.digit(k + 1):
                raise DomainError(
                    f"inadmissible digit {d} at position {k + 1}; x may lie beyond "
                    "the greedy domain"
                )
            x = w - d
            k += 1
        raise BudgetError(f"no cell found within {budget} digits")

    def coverage(self, count: int) -> float:
        return sum(c.length for c in self.cells_up_to(count))


def gls_partition_interval(beta_or_system, n: int) -> tuple[tuple[float, float], int, int]:
    """Endpoints of cell n plus its (k, i) decomposition."""
    bs = beta_or_system if isinstance(beta_or_system, BetaSystem) else BetaSystem(beta_or_system)
    cell = GlsPartition(bs).cell(n)
    return (cell.left, cell.right), cell.k, cell.i


@dataclass
class ExtensionPoint:
    """A point of the tower: (x, y) on floor `level`, with y < beta^-level."""

    x: float
    y: float
    level: int = 0

    def validate(self, bs: BetaSystem):
        if self.level < 0:
            raise DomainError("negative tower level")
        if not 0.0 <= self.x < bs.tail(self.level) + SNAP:
            raise DomainError(
                f"x={self.x} outside [0, {bs.tail(self.level)}) on floor {self.level}"
            )
        if not 0.0 <= self.y < bs.beta ** (-self.level) + SNAP:
            raise DomainError(f"y={self.y} too tall for floor {self.level}")


def natural_extension_step(bs: BetaSystem, p: ExtensionPoint) -> ExtensionPoint:
    """One move of the tower map.

    A digit below b_{i+1} drops the point to the ground floor, splicing the
    pinned prefix b_1..b_i and the fresh digit in front of the squeezed y;
    hitting b_{i+1} exactly climbs one floor with y shrunk by beta.
    """
    p.validate(bs)
    b = bs.beta
    i = p.level
    w = b * p.x
    d = math.floor(w)
    x_new = w - d
    b_next = bs.digit(i + 1)
    if d > b_next:
        raise DomainError(
            f"digit {d} exceeds b_{i + 1}={b_next}: the point left its floor"
        )
    if d < b_next:
        y_new = bs.prefix_value(i) + d * b ** (-(i + 1)) + p.y / b
        return ExtensionPoint(x_new, y_new, 0)
    return ExtensionPoint(x_new, p.y / b, i + 1)


def first_return_time(bs: BetaSystem, x: float, y: float, budget: int = 10_000) -> int:
    """Steps of the tower map needed to land back on the ground floor."""
    p = natural_extension_step(bs, ExtensionPoint(x, y, 0))
    steps = 1
    while p.level != 0:
        if steps >= budget:
            raise BudgetError(f"no return to the ground floor within {budget} steps")
        p = natural_extension_step(bs, p)
        steps += 1
    return steps


def measured_return_time(bs: BetaSystem, n: int, u: float = 0.37) -> int:
    """Return time of the point at relative position u inside cell n, with the
    orbit evaluated stably.

    Forward iteration multiplies float error by beta each floor, which scrambles
    digits once the cell's run length passes ~log_beta(1e13). Here the orbit
    values r_i = T^i(x) are produced by the backward recursion
    r_i = (b_{i+1} + r_{i+1})/beta from the exit floor down, which contracts
    error instead; the forward walk then reads each digit off floor(beta*r_i)
    and counts floors climbed until the digit drops below the expansion of 1.
    """
    if not 0.0 < u < 1.0:
        raise DomainError("relative position must be interior")
    part = GlsPartition(bs)
    cell = part.cell(n)
    k = cell.k
    r = (cell.i - 1 + u) / bs.beta
    orbit = [r]
    for i in range(k - 1, -1, -1):
        r = (bs.digit(i + 1) + r) / bs.beta
        orbit.append(r)
    orbit.reverse()  # orbit[i] = T^i(x), x = left + u*length
    steps = 0
    for i in range(k + 1):
        w = bs.beta * orbit[i]
        d = math.floor(w)
        steps += 1
        b_next = bs.digit(i + 1)
        if d < b_next:
            return steps
        if d > b_next:
            raise DomainError(
                f"digit {d} at floor {i} exceeds b_{i + 1}={b_next}: "
                "cell decomposition inconsistent"
            )
    raise ConvergenceError(f"no exit within {k + 1} floors of cell {n}")


def induced_map_z0(bs: BetaSystem, x: float, y: float) -> tuple[float, float]:
    """Ground-floor return map in closed form, read off the digit run of x.

    Walks the orbit of x while it repeats the digits of 1 (k steps), then one
    more; the new y splices the pinned prefix and the exit digit above the
    squeezed old y. Matches iterating natural_extension_step to the first
    return, up to float roundoff.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError(f"x={x} outside [0,1)")
    b = bs.beta
    k = 0
    while True:
        w = b * x
        if abs(w - round(w)) < AMBIGUOUS and w > AMBIGUOUS:
            raise BoundaryPointError(f"digit {k + 1} is ambiguous")
        d = math.floor(w)
        x = w - d
        if d < bs.digit(k + 1):
            y_new = bs.prefix_value(k) + d * b ** (-(k + 1)) + y * b ** (-(k + 1))
            return x, y_new
        if d > bs.digit(k + 1):
            raise DomainError(f"inadmissible digit {d} at position {k + 1}")
        k += 1
        if k > bs.max_depth:
            raise BudgetError("digit run exhausted the depth cap")


def gls_natural_extension(partition, x: float, y: float) -> tuple[float, float]:
    """The skew product driven by the partition: expand x by the covering
    cell's affine branch, contract y into that cell."""
    if isinstance(partition, BetaSystem):
        partition = GlsPartition(partition)
    cell = partition.locate(x)
    aff = cell.affine()
    x_new = aff.slope * (x - aff.offset)
    y_new = aff.offset + y * cell.length
    if not -SNAP <= x_new < 1.0 + SNAP:
        raise DomainError(f"branch image {x_new} escaped [0,1); cell {cell.n}")
    return min(max(x_new, 0.0), math.nextafter(1.0, 0.0)), y_new


class _Batch:
    """Outcomes of a batch of ground-floor samples, indexed in draw order.

    rejected marks samples whose digits pass within AMBIGUOUS of a carry; they
    are redrawn. failed[j] indexes into errors the exception sample j raises,
    -1 if none. The samples that fail at one check on one floor share one
    exception, whose message names the first of them: only that one can be
    the first failure in draw order.
    """

    def __init__(self, n: int):
        self.gap = np.zeros(n)
        self.rejected = np.zeros(n, dtype=bool)
        self.failed = np.full(n, -1, dtype=np.intp)
        self.errors: list[Exception] = []

    def fail(self, idx: np.ndarray, exc: Exception):
        self.failed[idx] = len(self.errors)
        self.errors.append(exc)


def _partition_route(bs: BetaSystem, x: np.ndarray, y: np.ndarray, batch: _Batch,
                     budget: int = 4096) -> tuple[np.ndarray, np.ndarray]:
    """gls_natural_extension over arrays, a floor at a time.

    Every sample still riding the expansion of 1 takes its next digit with the
    others. The tests, the per-floor digit lookup and the float expressions are
    those of GlsPartition.locate, GlsPartition.cell and gls_natural_extension,
    so the images are bit-identical; rejected and failing samples are marked
    in batch, and their images are left at 0.
    """
    b = bs.beta
    xa = np.zeros(x.size)
    ya = np.zeros(x.size)
    idx = np.arange(x.size)
    xk = x
    k = 0
    while idx.size:
        if k >= budget:
            batch.fail(idx, BudgetError(f"no cell found within {budget} digits"))
            break
        w = b * xk
        amb = (np.abs(w - np.rint(w)) < AMBIGUOUS) & (w > AMBIGUOUS)
        batch.rejected[idx[amb]] = True
        idx, w = idx[~amb], w[~amb]
        if not idx.size:
            break
        d = np.floor(w)
        try:
            b_next = bs.digit(k + 1)
        except ThermoformError as exc:
            batch.fail(idx, exc)
            break
        over = d > b_next
        if over.any():
            batch.fail(idx[over], DomainError(
                f"inadmissible digit {int(d[over][0])} at position {k + 1}; x may lie "
                "beyond the greedy domain"))
        out = d < b_next
        if out.any():
            j, dj = idx[out], d[out]
            try:
                length = b ** (-(k + 1))
                left = bs.prefix_value(k) + dj * length
                slope = b ** (k + 1)
            except (ThermoformError, OverflowError) as exc:
                batch.fail(j, exc)
            else:
                x_new = slope * (x[j] - left)
                esc = ~((-SNAP <= x_new) & (x_new < 1.0 + SNAP))
                if esc.any():
                    batch.fail(j[esc], DomainError(
                        f"branch image {float(x_new[esc][0])} escaped [0,1); "
                        f"cell {bs.cum(k) + int(dj[esc][0]) + 1}"))
                    j, x_new, left = j[~esc], x_new[~esc], left[~esc]
                xa[j] = np.minimum(np.maximum(x_new, 0.0), math.nextafter(1.0, 0.0))
                ya[j] = left + y[j] * length
        up = d == b_next
        idx, xk = idx[up], w[up] - d[up]
        k += 1
    return xa, ya


def _tower_return(bs: BetaSystem, x: np.ndarray, y: np.ndarray, batch: _Batch,
                  idx: np.ndarray, budget: int = 10_000) -> tuple[np.ndarray, np.ndarray]:
    """first_return_time and the steps it counts, over the samples idx.

    One pass a floor at a time: ExtensionPoint.validate as a mask, then the
    digit, the drop to the ground floor or the climb, with the float
    expressions of natural_extension_step. Returns where each sample lands.
    """
    b = bs.beta
    xt = np.zeros(x.size)
    yt = np.zeros(x.size)
    xi, yi = x[idx], y[idx]
    i = 0
    while idx.size:
        top = bs.tail(i)
        wide = ~((0.0 <= xi) & (xi < top + SNAP))
        if wide.any():
            batch.fail(idx[wide], DomainError(
                f"x={float(xi[wide][0])} outside [0, {top}) on floor {i}"))
        tall = ~wide & ~((0.0 <= yi) & (yi < b ** (-i) + SNAP))
        if tall.any():
            batch.fail(idx[tall], DomainError(f"y={float(yi[tall][0])} too tall for floor {i}"))
        ok = ~(wide | tall)
        idx, xi, yi = idx[ok], xi[ok], yi[ok]
        w = b * xi
        d = np.floor(w)
        x_new = w - d
        b_next = bs.digit(i + 1)
        over = d > b_next
        if over.any():
            batch.fail(idx[over], DomainError(
                f"digit {int(d[over][0])} exceeds b_{i + 1}={b_next}: the point left its floor"))
        drop = d < b_next
        j = idx[drop]
        xt[j] = x_new[drop]
        yt[j] = bs.prefix_value(i) + d[drop] * b ** (-(i + 1)) + yi[drop] / b
        up = d == b_next
        idx, xi, yi = idx[up], x_new[up], yi[up] / b
        i += 1
        if idx.size and i >= budget:
            batch.fail(idx, BudgetError(f"no return to the ground floor within {budget} steps"))
            break
    return xt, yt


def _identity_batch(bs: BetaSystem, x: np.ndarray, y: np.ndarray) -> _Batch:
    """Both routes of the identity for each sample (x[j], y[j]) and their gap."""
    batch = _Batch(x.size)
    xa, ya = _partition_route(bs, x, y, batch)
    live = np.flatnonzero(~batch.rejected & (batch.failed < 0))
    xt, yt = _tower_return(bs, x, y, batch, live)
    batch.gap = np.maximum(np.abs(xa - xt), np.abs(ya - yt))
    return batch


def _max_gap(outcomes, sample_size: int, seed: int) -> float:
    """Largest gap over sample_size seeded uniform points of the square.

    outcomes(x, y) steps a batch of draws and returns its _Batch. Each round
    draws 2 * remaining uniforms, x = u[0::2] and y = u[1::2]: the doubles a
    loop reading x then y per point reads, and none past the last point it
    could accept. The outcomes are read in draw order: rejected points are
    redrawn, and the first error raises unless the rejection that takes the
    count past 50 * sample_size + 1000 comes before it, which raises
    ConvergenceError.
    """
    rng = task_rng(seed)
    cap = 50 * sample_size + 1000
    worst = 0.0
    accepted = rejected = 0
    while accepted < sample_size:
        m = sample_size - accepted
        u = rng.random(2 * m)
        batch = outcomes(u[0::2], u[1::2])
        rej = np.flatnonzero(batch.rejected)
        stop = rej[cap - rejected] if rejected + rej.size > cap else m
        bad = np.flatnonzero(batch.failed >= 0)
        if bad.size and bad[0] < stop:
            raise batch.errors[batch.failed[bad[0]]]
        if stop < m:
            raise ConvergenceError("too many boundary-adjacent samples rejected")
        if rej.size < m:
            worst = max(worst, float(batch.gap[~batch.rejected].max()))
        accepted += m - rej.size
        rejected += rej.size
    return worst


def identity_check(beta, sample_size: int = 10_000, seed: int = 0) -> float:
    """Max gap between the partition skew product and the step-iterated tower
    return map over seeded samples of the ground floor.

    Points whose digit runs pass within 1e-9 of a carry are redrawn; they sit
    on cell boundaries where neither route is defined. Accepts a prebuilt
    BetaSystem to run under a caller-imposed digit budget.

    The samples are stepped together, a floor at a time, over arrays, and
    redrawn and failed in draw order, so the result, or the exception, is the
    one a per-sample loop over gls_natural_extension, first_return_time and
    natural_extension_step gives. Those scalar functions are the reference.
    """
    bs = beta if isinstance(beta, BetaSystem) else BetaSystem(beta)
    return _max_gap(lambda x, y: _identity_batch(bs, x, y), sample_size, seed)


GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def golden_w_map(x: float, y: float) -> tuple[float, float]:
    """The two-rectangle picture of the golden natural extension.

    Lives on W = [0,1) x [0,1/beta) with the tall branch re-inflating y by a
    unit shift instead of the tower's beta shift.
    """
    b = GOLDEN
    if not 0.0 <= x < 1.0:
        raise DomainError(f"x={x} outside [0,1)")
    if x < 1.0 / b:
        return b * x, y / b
    return b * b * x - b, (y + 1.0) / (b * b)


def golden_conjugacy_deviation(sample_size: int = 4096, seed: int = 0) -> float:
    """Max gap of Psi(S(x,y)) vs T_W(Psi(x,y)) with Psi(x,y) = (x, y/beta)."""
    bs = BetaSystem(GOLDEN)
    b = GOLDEN

    def outcomes(x: np.ndarray, y: np.ndarray) -> _Batch:
        batch = _Batch(x.size)
        sx, sy = _partition_route(bs, x, y, batch)
        # golden_w_map at (x, y / beta), branch by branch
        yw = y / bs.beta
        low = x < 1.0 / b
        wx = np.where(low, b * x, b * b * x - b)
        wy = np.where(low, yw / b, (yw + 1.0) / (b * b))
        batch.gap = np.maximum(np.abs(sx - wx), np.abs(sy / bs.beta - wy))
        return batch

    return _max_gap(outcomes, sample_size, seed)


def analyze(beta: float, depth: int = 64, *, identity_samples: int = 2000,
            partition_cells: int = 24, seed: int = 0) -> dict:
    """Bundle for the command line: digits, partition table, identity gap.

    depth is a hard digit budget for every sub-analysis; runs that need
    digits of 1 beyond it fail with BudgetError rather than extending.
    """
    if depth < 1:
        raise ConfigError("depth must be at least 1")
    bs = BetaSystem(beta, depth=depth, max_depth=depth)
    part = GlsPartition(bs)
    cells = part.cells_up_to(partition_cells)
    table = [
        {"n": c.n, "left": c.left, "right": c.right, "k": c.k, "i": c.i}
        for c in cells
    ]
    return {
        "beta": beta,
        "digits_of_one": bs.digits,
        "finite": bs.finite,
        "partition": table,
        "partition_coverage": sum(c.length for c in cells),
        "identity_check": identity_check(bs, identity_samples, seed),
    }
