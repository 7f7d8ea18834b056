"""Graph-directed systems of monotone contracting interval branches.

Vertices carry closed intervals; edges carry injective branches mapping the
interval of their domain vertex into the interval of their image vertex. Words
compose right to left, so the first letter is the outermost map. Countable
edge sets are enumerated lazily and truncated on demand. Parabolic systems
mark edges whose branch has a neutral fixed point; the jump transform turns
runs of a parabolic letter into a fresh uniformly contracting alphabet.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ConvergenceError, WordLengthError
from .shifts import IncidenceMatrix, Potential, _word_rows

Interval = tuple[float, float]

# ---------------------------------------------------------------------------
# root finding

BRENT_XTOL = 2e-12
BRENT_RTOL = 4 * float(np.finfo(float).eps)
BRENT_MAXITER = 100


def _brent_value(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    xtol: float = BRENT_XTOL,
) -> float:
    """A zero of f in [a, b] by Brent's method (Brent 1973, ch. 4), step for
    step the loop of scipy.optimize.brentq with its default rtol and maxiter,
    so the two return the same float.

    f(a) and f(b) must differ in sign unless one of them is 0, and then that
    end is returned; same signs or a NaN value raise ValueError, and no
    convergence within BRENT_MAXITER steps raises RuntimeError. The root is
    within xtol + BRENT_RTOL * |root| of a sign change of f.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    rtol, maxiter = BRENT_RTOL, BRENT_MAXITER
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _brent_value(f, xpre), _brent_value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        step = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                # in IEEE arithmetic a zero divisor gives an inf or NaN step,
                # which the test below rejects; Python raises instead
                step = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
            except ZeroDivisionError:
                pass
        if step:  # a good short step
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _brent_value(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


@dataclass(frozen=True)
class Branch:
    """One edge: an injective monotone map from X_dom into X_img."""

    label: object
    dom: int
    img: int
    fn: Callable[[float], float]
    deriv: Callable[[float], float]
    kind: str = "custom"
    params: dict = field(default_factory=dict, compare=False)

    def image_of(self, iv: Interval) -> Interval:
        a, b = self.fn(iv[0]), self.fn(iv[1])
        return (a, b) if a <= b else (b, a)

    def fn_and_deriv(self, x: float) -> tuple[float, float]:
        """(fn(x), deriv(x))."""
        return self.fn(x), self.deriv(x)

    def sup_deriv(self, iv: Interval) -> float:
        """max |deriv| over 9 evenly spaced points of iv."""
        xs = np.linspace(iv[0], iv[1], 9)
        return float(max(abs(self.deriv(float(x))) for x in xs))


class Gdms:
    """Vertex intervals, branches and an admissibility rule.

    Edges are indexed 0,1,2,...; labels are user-facing names (ints or
    tuples). edge_factory builds edge k on first use; n_edges None means a
    countable edge set, truncated by the caller. pair_allowed restricts which
    label pairs may follow each other on top of the vertex-chaining rule
    dom(first) == img(second).
    """

    def __init__(
        self,
        vertices: Sequence[Interval],
        edge_factory: Callable[[int], Branch],
        n_edges: int | None = None,
        *,
        pair_allowed: Callable[[object, object], bool] | None = None,
        name: str = "custom",
    ):
        if not vertices:
            raise ConfigError("a system needs at least one vertex interval")
        if n_edges == 0:
            raise ConfigError("a system needs at least one edge")
        self.vertices = [(float(lo), float(hi)) for lo, hi in vertices]
        for lo, hi in self.vertices:
            if not lo < hi:
                raise ConfigError(f"degenerate vertex interval ({lo}, {hi})")
        self._factory = edge_factory
        self.n_edges = n_edges
        self._edges: list[Branch] = []
        self._by_label: dict = {}
        self.pair_allowed = pair_allowed
        self.name = name

    def edge(self, k: int) -> Branch:
        if self.n_edges is not None and k >= self.n_edges:
            raise ConfigError(f"edge index {k} beyond the {self.n_edges} edges of {self.name}")
        while len(self._edges) <= k:
            br = self._factory(len(self._edges))
            self._edges.append(br)
            self._by_label[br.label] = br
        return self._edges[k]

    def edges_up_to(self, N: int) -> list[Branch]:
        if self.n_edges is not None:
            N = min(N, self.n_edges)
        return [self.edge(k) for k in range(N)]

    def branch(self, label, probe: int = 4096) -> Branch:
        br = self._by_label.get(label)
        if br is not None:
            return br
        limit = self.n_edges if self.n_edges is not None else probe
        for k in range(len(self._edges), limit):
            br = self.edge(k)
            if br.label == label:
                return br
        raise ConfigError(f"no edge labeled {label!r} within the first {limit} edges")

    def domain_of(self, br: Branch) -> Interval:
        return self.vertices[br.dom]

    def admissible_pair(self, a: Branch, b: Branch) -> bool:
        if a.dom != b.img:
            return False
        if self.pair_allowed is not None:
            return bool(self.pair_allowed(a.label, b.label))
        return True

    def is_admissible_word(self, labels: Sequence) -> bool:
        brs = [self.branch(l) for l in labels]
        return all(self.admissible_pair(a, b) for a, b in zip(brs[:-1], brs[1:]))

    def shift_view(self, N: int) -> IncidenceMatrix:
        """Letter-level incidence on edge indices 0..N-1 for the shift machinery."""
        edges = self.edges_up_to(N)
        dom = np.array([br.dom for br in edges], dtype=int)
        img = np.array([br.img for br in edges], dtype=int)
        allowed = dom[:, None] == img[None, :]
        if self.pair_allowed is not None:
            for a, b in zip(*np.nonzero(allowed)):
                allowed[a, b] = bool(self.pair_allowed(edges[a].label, edges[b].label))
        return IncidenceMatrix.from_table(allowed, name=f"{self.name}-edges")


class ParabolicSystem(Gdms):
    def __init__(self, base_kwargs: dict, parabolic: dict):
        """parabolic: label -> (fixed point, exponent guess or None)."""
        super().__init__(**base_kwargs)
        self.parabolic = {}
        for label, (x_fix, beta_e) in parabolic.items():
            br = self.branch(label)
            if abs(br.fn(x_fix) - x_fix) > 1e-9:
                raise ConfigError(f"edge {label!r}: {x_fix} is not fixed by its branch")
            if abs(abs(br.deriv(x_fix)) - 1.0) > 1e-10:
                raise ConfigError(
                    f"edge {label!r}: |derivative| at the fixed point is "
                    f"{abs(br.deriv(x_fix)):.12f}, not 1"
                )
            if not self.admissible_pair(br, br):
                raise ConfigError(f"parabolic edge {label!r} must be allowed to follow itself")
            self.parabolic[label] = (float(x_fix), beta_e)

    @property
    def omega(self) -> list:
        return list(self.parabolic)


def compose_word(S: Gdms, labels: Sequence) -> Callable[[float], float]:
    brs = [S.branch(l) for l in labels]

    def fn(x: float) -> float:
        for br in reversed(brs):
            x = br.fn(x)
        return x

    return fn


def _tested(count: int, max_letters: int) -> bool:
    """Whether a coding word's nested image is tested at this length: every
    length up to 128, then only powers of two and max_letters, so a word that
    never contracts costs O(max_letters) images, not quadratic."""
    return count <= 128 or not count & (count - 1) or count >= max_letters


def _no_contraction(tol: float, max_letters: int) -> ConvergenceError:
    return ConvergenceError(
        f"images did not contract below {tol} within {max_letters} letters; "
        "parabolic systems need a jump transform first"
    )


def coding_point(S: Gdms, word, tol: float = 1e-13, max_letters: int = 2000) -> float:
    """Point coded by an infinite admissible word: the limit of nested images.

    word is an iterable of labels; it must keep yielding until the nested
    images contract below tol (wrap finite words with tail_extension first).
    The images are tested at every length up to 128 letters and at powers of
    two and max_letters after that; the point is the midpoint of the first
    tested image narrower than tol.

    The image of w1...wn is w1.image_of(image of w2...wn), and the image of
    the one letter wn starts from the domain of wn. This is the one-word
    reference: a tested length images its whole prefix afresh, and nothing
    but the word's branches is kept. A root's tails go through _tail_points,
    which gives the same bits from one image table.
    """
    if tol <= 0:
        raise ConfigError("tol must be positive")
    it = iter(word)
    prefix: list[Branch] = []
    for count in range(1, max_letters + 1):
        try:
            br = S.branch(next(it))
        except StopIteration:
            raise WordLengthError(
                "word ended before the nested images contracted below tol"
            ) from None
        if prefix and not S.admissible_pair(prefix[-1], br):
            raise WordLengthError(f"inadmissible pair at position {count}")
        prefix.append(br)
        if not _tested(count, max_letters):
            continue
        iv = S.domain_of(br)
        for b in reversed(prefix):
            iv = b.image_of(iv)
        if iv[1] - iv[0] < tol:
            return 0.5 * (iv[0] + iv[1])
    raise _no_contraction(tol, max_letters)


def periodic_word(labels: Sequence):
    while True:
        yield from labels


def _greedy_next(S: Gdms, cur: Branch) -> int:
    """Index of the lowest-index edge among the first 256 that may follow cur."""
    for k in range(256):
        if S.admissible_pair(cur, S.edge(k)):
            return k
    raise ConvergenceError(f"no admissible continuation after {cur.label!r}")


def tail_extension(S: Gdms, labels: Sequence):
    """Infinite admissible word starting with labels.

    Repeats the word when the wrap-around pair is admissible, otherwise
    continues greedily with the lowest-index admissible edge among the
    first 256.
    """
    brs = [S.branch(l) for l in labels]
    if S.admissible_pair(brs[-1], brs[0]):
        yield from periodic_word(labels)
        return
    yield from labels
    cur = brs[-1]
    while True:
        cur = S.edge(_greedy_next(S, cur))
        yield cur.label


def _moebius_coefficients(br: Branch):
    """(a, b, c, d) with br.fn(x) == (a x + b) / (c x + d) and br.deriv(x) ==
    (a d - b c) / (c x + d) ** 2 bit for bit, for a moebius or an affine
    branch; None for any other. An affine branch is c = 0, d = 1: dividing by
    1.0 and subtracting b * 0.0 round nothing."""
    p = br.params
    if br.kind == "moebius":
        return p["a"], p["b"], p["c"], p["d"]
    if br.kind == "affine":
        return p["a"], p["b"], 0.0, 1.0
    return None


def _tail_points(S: Gdms, tails: np.ndarray, tol: float, max_letters: int = 2000) -> np.ndarray:
    """coding_point(S, tail_extension(S, labels of the tail), tol) for each row
    of tails, an (n, p) array of distinct edge-index words, bit for bit.

    One image table serves all the tails. Its rows are the tails' infinite
    words and every suffix of them, a finite set: the rotations of a periodic
    tail; for a greedy one its shorter suffixes and the greedy orbit of its
    last letter (each letter's greedy successor is found once). At level n
    row r holds the image of its first n letters, first(r)'s image of the
    level n-1 image of shift(r); level 1 starts from first(r)'s domain.
    Moebius and affine rows are evaluated as parameter arrays over a level,
    other branches by their own image_of, one row at a time. A level computes
    only the rows that an unsettled tail reads. The array rows keep their two
    ends unsorted: |v - u| and 0.5 * (u + v) are the width and midpoint that
    image_of's sorted pair gives.

    Of the tails that fail, the first in row order raises, as it would going
    through the tails with coding_point one by one.
    """
    edge = S.edge
    n_tails, p = tails.shape
    if not n_tails:
        return np.empty(0)
    succ: dict = {}  # letter -> its greedy successor, or the error finding it

    def greedy(k: int):
        if k not in succ:
            try:
                succ[k] = _greedy_next(S, edge(k))
            except (ConfigError, ConvergenceError) as exc:
                succ[k] = exc
        return succ[k]

    # rows by key: ("p", rotation) for a periodic tail, ("t", suffix) for two
    # or more letters of a greedy tail, ("g", letter) for a letter and its
    # greedy orbit; shift keys of None mark a letter with no successor
    index: dict = {}
    first: list[int] = []
    shift_keys: list = []

    def row(key) -> int:
        start = key
        while key is not None and key not in index:
            index[key] = len(first)
            kind, w = key
            if kind == "g":
                first.append(w)
                k = greedy(w)
                key = None if isinstance(k, Exception) else ("g", k)
            else:
                first.append(w[0])
                if kind == "p":
                    key = ("p", w[1:] + w[:1])
                else:
                    key = ("t", w[1:]) if len(w) > 2 else ("g", w[1])
            shift_keys.append(key)
        return index[start]

    # pair j of a tail is (letter j, letter j + 1), the last one wrapping round
    K = int(tails.max()) + 1
    codes, inv = np.unique(tails * K + np.roll(tails, -1, axis=1), return_inverse=True)
    ok = np.array([S.admissible_pair(edge(c // K), edge(c % K)) for c in codes.tolist()])
    ok = ok[inv.reshape(-1)].reshape(n_tails, p)
    periodic = ok[:, -1]
    # the level at which coding_point would fail on each tail, and its error;
    # it meets a forbidden pair j at position j + 2
    fail_at = np.full(n_tails, max_letters + 1)
    errors: dict = {}
    bad = ~ok[:, :-1]
    for i in np.flatnonzero(bad.any(axis=1)).tolist():
        fail_at[i] = c = int(bad[i].argmax()) + 2
        errors[i] = WordLengthError(f"inadmissible pair at position {c}")
    targets = np.array([
        row(("p", w) if per else ("t", w) if p > 1 else ("g", w[0]))
        for w, per in zip(map(tuple, tails.tolist()), periodic.tolist())
    ], dtype=np.intp)
    shift = np.array([-1 if key is None else index[key] for key in shift_keys], dtype=np.intp)

    # a greedy tail whose orbit reaches a letter with no successor fails at
    # the position of the missing letter
    to = shift.tolist()
    for i in np.flatnonzero(~periodic & (fail_at > max_letters)).tolist():
        r, c, seen = int(targets[i]), 1, set()
        while r >= 0 and r not in seen and c < max_letters:
            seen.add(r)
            if to[r] < 0:
                fail_at[i], errors[i] = c + 1, succ[first[r]]
            r, c = to[r], c + 1

    brs = [edge(k) for k in first]
    coef = [_moebius_coefficients(br) for br in brs]
    is_array = np.array([c is not None for c in coef])
    abcd = np.array([c or (0.0, 0.0, 0.0, 1.0) for c in coef], dtype=float)
    dom = np.array([S.domain_of(br) for br in brs], dtype=float)
    prev, cur = np.empty((len(first), 2)), np.empty((len(first), 2))
    points = np.empty(n_tails)
    active = np.ones(n_tails, dtype=bool)
    failed = n_tails  # the first tail known to fail
    fail_levels = set(fail_at.tolist())

    def live(n: int):
        """The array and the scalar rows an active tail reads at level n."""
        need = np.zeros(len(first), dtype=bool)
        frontier = targets[active]
        while frontier.size:
            need[frontier] = True
            frontier = shift[frontier]
            frontier = frontier[frontier >= 0]
            frontier = frontier[~need[frontier]]
        if n > 1:
            need &= shift >= 0  # a row with no successor has level 1 only
        rows = np.flatnonzero(need & is_array)
        scalar = np.flatnonzero(need & ~is_array).tolist()
        c4 = abcd.T[:, rows, None]
        affine = not c4[2].any() and (c4[3] == 1.0).all()  # then x / 1.0 is x
        return rows, shift[rows], c4, affine, scalar

    rows, src, c4, affine, scalar = live(1)
    for n in range(1, max_letters + 1):
        if n in fail_levels:
            hit = np.flatnonzero(active & (fail_at == n))
            if hit.size:
                active[hit] = False
                failed = min(failed, int(hit[0]))
                if not active[:failed].any():
                    raise errors[failed]
                rows, src, c4, affine, scalar = live(n)
        prev, cur = cur, prev
        x = dom[rows] if n == 1 else prev[src]
        num = c4[0] * x
        num += c4[1]
        if not affine:
            x *= c4[2]
            x += c4[3]
            num /= x
        cur[rows] = num
        for r in scalar:
            if n == 1:
                iv = S.domain_of(brs[r])
            else:
                u, v = prev[shift[r]].tolist()
                iv = (u, v) if u <= v else (v, u)
            cur[r] = brs[r].image_of(iv)
        if n == 1:
            prev[:] = cur  # rows with no successor keep their level 1
        if not _tested(n, max_letters):
            continue
        ends = cur[targets]
        done = np.abs(ends[:, 1] - ends[:, 0]) < tol
        done &= active
        if np.count_nonzero(done):
            points[done] = 0.5 * (ends[done, 0] + ends[done, 1])
            active[done] = False
            if not active[:failed].any():
                break
            rows, src, c4, affine, scalar = live(n + 1)
        elif n == 1 and (shift < 0).any():
            rows, src, c4, affine, scalar = live(2)
    if active[:failed].any():
        raise _no_contraction(tol, max_letters)
    if failed < n_tails:
        raise errors[failed]
    return points


@dataclass
class OscReport:
    edges_checked: int
    overlaps: list

    @property
    def ok(self) -> bool:
        return not self.overlaps


def verify_osc(S: Gdms, N: int, tol: float = 1e-12) -> OscReport:
    """Pairwise interior disjointness of branch images within each vertex."""
    edges = S.edges_up_to(N)
    by_img: dict[int, list] = {}
    for br in edges:
        iv = br.image_of(S.domain_of(br))
        by_img.setdefault(br.img, []).append((iv, br.label))
    overlaps = []
    for group in by_img.values():
        group.sort()
        reach, reach_label = -math.inf, None
        for iv, label in group:
            depth = reach - iv[0]
            if depth > tol:
                overlaps.append({"pair": (reach_label, label), "overlap": float(depth)})
            if iv[1] > reach:
                reach, reach_label = iv[1], label
    return OscReport(len(edges), overlaps)


@dataclass
class BdpReport:
    k_by_length: dict[int, float]
    k_est: float
    renyi_flagged: bool


def bdp_constant(
    S: Gdms,
    N: int,
    n_max: int = 8,
    grid: int = 9,
    *,
    words_per_length: int = 24,
    seed: int = 0,
) -> BdpReport:
    """Distortion constant: worst derivative ratio over sampled words and points.

    The flag trips when the per-length worst ratio keeps growing, the usual
    symptom of a neutral fixed point hiding in the alphabet.
    """
    from .rng import task_rng

    rng = task_rng(seed)
    edges = S.edges_up_to(N)
    if not edges:
        raise ConfigError("no edges to sample")
    k_by_length: dict[int, float] = {}
    for n in range(1, n_max + 1):
        worst = 1.0
        for _ in range(words_per_length):
            word = [edges[rng.integers(len(edges))]]
            for _ in range(n - 1):
                nxt = [b for b in edges if S.admissible_pair(word[-1], b)]
                if not nxt:
                    break
                word.append(nxt[rng.integers(len(nxt))])
            if len(word) < n:
                continue
            lo, hi = S.domain_of(word[-1])
            ds = []
            for x in np.linspace(lo, hi, grid):
                x = float(x)
                d = 1.0
                for br in reversed(word):
                    x, dx = br.fn_and_deriv(x)
                    d *= abs(dx)
                ds.append(d)
            lo_d, hi_d = min(ds), max(ds)
            if lo_d > 0:
                worst = max(worst, hi_d / lo_d)
        k_by_length[n] = worst
    ks = [k_by_length[n] for n in sorted(k_by_length)]
    flagged = len(ks) >= 4 and ks[-1] > 1.5 * ks[len(ks) // 2] and ks[-1] > 2.0
    return BdpReport(k_by_length, max(ks), flagged)


# ---------------------------------------------------------------------------
# built-in systems


def _moebius_branch(label, a, b, c, d, dom=0, img=0) -> Branch:
    det = a * d - b * c

    def fn(x: float) -> float:
        return (a * x + b) / (c * x + d)

    def deriv(x: float) -> float:
        return det / (c * x + d) ** 2

    return Branch(label, dom, img, fn, deriv, kind="moebius",
                  params={"a": a, "b": b, "c": c, "d": d})


def _affine_branch(label, a, b, dom=0, img=0) -> Branch:
    return Branch(
        label, dom, img,
        fn=lambda x: a * x + b,
        deriv=lambda x: a,
        kind="affine",
        params={"a": a, "b": b},
    )


def gauss_cf() -> Gdms:
    """Inverse branches x -> 1/(x+n), n >= 1, of the continued-fraction map."""

    def factory(k: int) -> Branch:
        return _moebius_branch(k + 1, 0.0, 1.0, 1.0, float(k + 1))

    return Gdms([(0.0, 1.0)], factory, None, name="gauss-cf")


def backward_cf() -> ParabolicSystem:
    """Branches x -> 1/(i-x), i >= 2; the branch i=2 is neutral at x=1."""

    def factory(k: int) -> Branch:
        i = k + 2
        return _moebius_branch(i, 0.0, 1.0, -1.0, float(i))

    base = dict(vertices=[(0.0, 1.0)], edge_factory=factory, n_edges=None,
                name="backward-cf")
    return ParabolicSystem(base, {2: (1.0, 1.0)})


def _mp_slope(alpha: float, x: float) -> float:
    """The derivative of an inverse of x -> x + x^(1+alpha) - offset at the
    point it maps to x."""
    return 1.0 / (1.0 + (1.0 + alpha) * x**alpha)


class _MPBranch(Branch):
    """An mp-branch, whose derivative is a function of its value, so
    fn_and_deriv finds both with one root solve."""

    def fn_and_deriv(self, y: float) -> tuple[float, float]:
        x = self.fn(y)
        return x, _mp_slope(self.params["alpha"], x)


def _mp_branch(label, alpha: float, offset: float, lo: float, hi: float,
               dom: int = 0, img: int = 0) -> Branch:
    """Inverse of x -> x + x^(1+alpha) - offset on [lo, hi], by root finding."""
    a1 = 1.0 + alpha

    def fn(y: float) -> float:
        target = min(max(y + offset, lo + lo**a1), hi + hi**a1)
        if target <= lo + lo**a1:
            return lo
        if target >= hi + hi**a1:
            return hi
        return float(brentq(lambda x: x + x**a1 - target, lo, hi, xtol=1e-15))

    def deriv(y: float) -> float:
        return _mp_slope(alpha, fn(y))

    return _MPBranch(label, dom, img, fn, deriv, kind="mp-branch",
                     params={"alpha": alpha, "offset": offset, "bracket": [lo, hi]})


def manneville_pomeau(alpha: float) -> ParabolicSystem:
    """Two inverse branches of x + x^(1+alpha) mod 1; branch 0 is neutral at 0."""
    if alpha <= 0:
        raise ConfigError("alpha must be positive")
    a1 = 1.0 + alpha
    x_star = float(brentq(lambda x: x + x**a1 - 1.0, 0.0, 1.0))
    branches = [_mp_branch(0, alpha, 0.0, 0.0, x_star), _mp_branch(1, alpha, 1.0, x_star, 1.0)]

    base = dict(vertices=[(0.0, 1.0)], edge_factory=lambda k: branches[k],
                n_edges=2, name=f"manneville-pomeau-{alpha}")
    return ParabolicSystem(base, {0: (0.0, alpha)})


def luroth(cells: Sequence[Interval] | None = None) -> Gdms:
    if cells is not None:
        return gls(cells)

    def factory(k: int) -> Branch:
        n = k + 1
        return _affine_branch(n, 1.0 / (n * (n + 1)), 1.0 / (n + 1))

    return Gdms([(0.0, 1.0)], factory, None, name="luroth")


def gls(cells: Sequence[Interval]) -> Gdms:
    """Affine system whose branch images are the given cells of [0,1)."""
    cell_list = [(float(lo), float(hi)) for lo, hi in cells]
    total = sum(hi - lo for lo, hi in cell_list)
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(f"cells cover measure {total}, expected 1")

    def factory(k: int) -> Branch:
        lo, hi = cell_list[k]
        if not lo < hi:
            raise ConfigError(f"cell {k} is degenerate")
        return _affine_branch(k, hi - lo, lo)

    return Gdms([(0.0, 1.0)], factory, len(cell_list), name="gls")


def affine_system(slope_offset_pairs: Sequence[tuple[float, float]]) -> Gdms:
    """Branches x -> a x + b on [0,1]; the workhorse for Moran-type examples."""
    pairs = [(float(a), float(b)) for a, b in slope_offset_pairs]
    for a, b in pairs:
        if not 0 < abs(a) < 1:
            raise ConfigError(f"slope {a} is not a contraction")

    def factory(k: int) -> Branch:
        a, b = pairs[k]
        return _affine_branch(k, a, b)

    return Gdms([(0.0, 1.0)], factory, len(pairs), name="affine")


# ---------------------------------------------------------------------------
# parabolic machinery


class JumpSystem(Gdms):
    """Derived alphabet: runs i^n of a parabolic letter fused with their exit j.

    Labels are tuples of original labels; untouched hyperbolic edges keep
    their original label wrapped as a 1-tuple. Two derived letters may follow
    each other exactly when the concatenated original word is admissible,
    which reduces to the original rule on (last of first, first of second).
    """

    def __init__(self, P: ParabolicSystem, n_cap: int = 1024):
        self.original = P
        self.n_cap = n_cap
        omega = set(P.omega)
        # a derived letter takes its dom from its exit letter and its img from
        # its run letter, so the vertex rule on derived letters already is the
        # parent's on (last, first); only a parent's pair rule is left to ask
        pair_allowed = (
            (lambda a, b: P.pair_allowed(a[-1], b[0])) if P.pair_allowed is not None else None
        )

        # Gdms.edge asks for edges 0, 1, 2, ... in order and keeps them
        gen = self._enumerate(P, omega)

        def factory(k: int) -> Branch:
            return next(gen)

        finite = P.n_edges is not None
        n_edges = None
        if finite:
            n_hyp = sum(
                1 for k in range(P.n_edges) if P.edge(k).label not in omega
            )
            per_par = {}
            for i in omega:
                js = [
                    P.edge(k).label
                    for k in range(P.n_edges)
                    if P.edge(k).label != i and P.admissible_pair(P.branch(i), P.edge(k))
                ]
                per_par[i] = n_cap if js else 0
            n_edges = n_hyp + sum(per_par.values())
        super().__init__(
            P.vertices, factory, n_edges, pair_allowed=pair_allowed,
            name=f"jump({P.name})",
        )

    def _enumerate(self, P: ParabolicSystem, omega: set):
        emitted = {i: 0 for i in omega}
        hyp_cursor = 0
        r = 0
        idle = 0
        while True:
            r += 1
            produced = False
            # next untouched hyperbolic edge, in original order
            while True:
                if P.n_edges is not None and hyp_cursor >= P.n_edges:
                    break
                br = P.edge(hyp_cursor)
                hyp_cursor += 1
                if br.label not in omega:
                    yield Branch(
                        (br.label,), br.dom, br.img, br.fn, br.deriv,
                        kind=br.kind, params=br.params,
                    )
                    produced = True
                    break
            # derived run edges along the diagonal n + j_rank = r
            for i in sorted(omega, key=repr):
                if emitted[i] >= self.n_cap:
                    continue
                js = self._exits(P, i, r)
                for n in range(1, r + 1):
                    j_rank = r - n
                    if j_rank >= len(js):
                        continue
                    if emitted[i] >= self.n_cap:
                        break
                    yield self._derived(P, i, n, js[j_rank])
                    emitted[i] += 1
                    produced = True
            idle = 0 if produced else idle + 1
            if idle > 4:
                return

    @staticmethod
    def _exits(P: ParabolicSystem, i, count: int) -> list:
        """First `count` labels j != i with ij admissible, in edge order."""
        out = []
        k = 0
        br_i = P.branch(i)
        while len(out) < count:
            if P.n_edges is not None and k >= P.n_edges:
                break
            br = P.edge(k)
            k += 1
            if br.label != i and P.admissible_pair(br_i, br):
                out.append(br.label)
        return out

    @staticmethod
    def _derived(P: ParabolicSystem, i, n: int, j) -> Branch:
        bi, bj = P.branch(i), P.branch(j)

        def fn(x: float) -> float:
            x = bj.fn(x)
            for _ in range(n):
                x = bi.fn(x)
            return x

        def deriv(x: float) -> float:
            x, d = bj.fn_and_deriv(x)
            for _ in range(n):
                x, di = bi.fn_and_deriv(x)
                d *= di
            return d

        return Branch(
            (i,) * n + (j,), bj.dom, bi.img, fn, deriv, kind="jump-run",
            params={"i": i, "j": j, "n": n},
        )


def jump_transform(P: ParabolicSystem, n_cap: int = 1024, *, check: bool = True) -> JumpSystem:
    """Hyperbolic system over the run alphabet; spot-checks contraction."""
    if n_cap < 1:
        raise ConfigError(f"jump n_cap must be at least 1, got {n_cap}")
    J = JumpSystem(P, n_cap)
    if check:
        probe = [J.edge(k) for k in range(min(24, n_cap))]
        for br in probe:
            bound = br.sup_deriv(J.domain_of(br))
            if bound >= 1.0:
                raise ConvergenceError(
                    f"derived branch {br.label!r} has derivative bound {bound:.4f} >= 1; "
                    "is the parabolic set mislabeled?"
                )
    return J


@dataclass
class JumpContractionReport:
    per_run: dict
    worst: float
    all_contracting: bool


def jump_contraction_report(
    P: ParabolicSystem, n_cap: int = 1024, grid: int = 17, exits_per_letter: int = 8
) -> JumpContractionReport:
    """Contraction bounds for every run edge i^n j, n <= n_cap, in one orbit pass.

    Shares the orbit of phi_i across all n, so the cost is grid * n_cap branch
    evaluations per (i, j) instead of the quadratic direct sweep.
    """
    per_run: dict = {}
    worst = 0.0
    for i in P.omega:
        bi = P.branch(i)
        for j in JumpSystem._exits(P, i, exits_per_letter):
            bj = P.branch(j)
            lo, hi = P.domain_of(bj)
            bounds = np.zeros(n_cap)
            for y0 in np.linspace(lo, hi, grid):
                x, d = bj.fn_and_deriv(float(y0))
                logd = math.log(abs(d))
                for n in range(1, n_cap + 1):
                    x, d = bi.fn_and_deriv(x)
                    logd += math.log(abs(d))
                    bounds[n - 1] = max(bounds[n - 1], math.exp(logd))
            per_run[(i, j)] = bounds
            worst = max(worst, float(bounds.max()))
    return JumpContractionReport(per_run, worst, worst < 1.0)


@dataclass
class ParabolicFit:
    slope: float
    beta_implied: float
    spread: float
    residual: float
    n_values: list[int]
    mean_logs: list[float]


def parabolic_asymptotics(
    P: ParabolicSystem,
    i,
    n_range: Sequence[int],
    *,
    z_samples: int = 5,
    beta_expected: float | None = None,
    max_residual: float = 0.2,
) -> ParabolicFit:
    """Decay rate of |d/dz phi_i^n(z)| for z off the neutral fixed point.

    Fits log|derivative| against log n by least squares; the model exponent
    -(beta+1)/beta then gives the implied beta. The spread is the max/min
    ratio of derivative * n^exponent across all samples and n, using the
    expected beta when supplied (the fitted one otherwise).
    """
    n_range = sorted(set(int(n) for n in n_range))
    if len(n_range) < 3:
        raise ConfigError("need at least three n values to fit a slope")
    n_max = n_range[-1]
    bi = P.branch(i)

    zs = []
    k = 0
    while len(zs) < z_samples:
        if P.n_edges is not None and k >= P.n_edges:
            break
        br = P.edge(k)
        k += 1
        if br.label == i or not P.admissible_pair(bi, br):
            continue
        lo, hi = br.image_of(P.domain_of(br))
        zs.extend([lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)])
    zs = zs[:z_samples] if len(zs) >= z_samples else zs
    if not zs:
        raise ConfigError(f"no admissible exits from parabolic letter {i!r}")

    wanted = set(n_range)
    logs = np.zeros((len(zs), len(n_range)))
    for col, z in enumerate(zs):
        x = float(z)
        logd = 0.0
        pos = 0
        for n in range(1, n_max + 1):
            x, d = bi.fn_and_deriv(x)
            logd += math.log(abs(d))
            if n in wanted:
                logs[col, pos] = logd
                pos += 1

    mean_logs = logs.mean(axis=0)
    ln_n = np.log(np.array(n_range, dtype=float))
    slope, intercept = np.polyfit(ln_n, mean_logs, 1)
    resid = float(np.sqrt(np.mean((mean_logs - (slope * ln_n + intercept)) ** 2)))
    if resid > max_residual:
        raise ConvergenceError(
            f"log-log fit residual {resid:.3f} exceeds {max_residual}; "
            "the decay is not a clean power law on this range"
        )
    if slope >= -1.0:
        raise ConvergenceError(f"slope {slope:.3f} >= -1 implies no finite exponent")
    beta_implied = -1.0 / (1.0 + slope)
    exponent = (
        (beta_expected + 1.0) / beta_expected if beta_expected is not None
        else -float(slope)
    )
    ratios = np.exp(logs) * np.power(
        np.array(n_range, dtype=float), exponent
    )[None, :]
    spread = float(ratios.max() / ratios.min())
    return ParabolicFit(
        float(slope), float(beta_implied), spread, resid,
        list(n_range), [float(v) for v in mean_logs],
    )


# ---------------------------------------------------------------------------
# geometric potentials on the edge alphabet

# width below which the nested images pin a state's coding point
CODING_TOL = 1e-14


def _log_derivatives(S: Gdms, letters: np.ndarray, x: np.ndarray) -> np.ndarray:
    """math.log(abs(S.edge(k).deriv(x))) for each letter k and point x, bit for
    bit. Moebius and affine branches take one array pass; the square and the
    log go through math.pow and math.log, as deriv and its caller round them,
    since numpy's square and log may round differently."""
    ks, pos = np.unique(letters, return_inverse=True)
    coef = [_moebius_coefficients(S.edge(k)) for k in ks.tolist()]
    arr = np.array([c is not None for c in coef])[pos]
    out = np.empty(len(letters))
    if arr.any():
        # c, d and the determinant a d - b c, as deriv's closure has them
        cdd = np.array([(c[2], c[3], c[0] * c[3] - c[1] * c[2]) if c else (0.0, 1.0, 1.0)
                        for c in coef])[pos[arr]]
        y = (cdd[:, 0] * x[arr] + cdd[:, 1]).tolist()
        sq = np.fromiter(map(math.pow, y, itertools.repeat(2.0)), float, len(y))
        out[arr] = np.fromiter(map(math.log, np.abs(cdd[:, 2] / sq).tolist()), float, len(y))
    for i in np.flatnonzero(~arr).tolist():
        out[i] = math.log(abs(S.edge(int(letters[i])).deriv(float(x[i]))))
    return out


class _GeometricPotential(Potential):
    """t * log|phi'_(first letter)| at the tail coding point, plus optional
    q * (theta - P(theta)). Uses every letter handed to it, not just the
    declared memory window, so longer words sharpen the tail point.

    A row's coding point depends only on its tail (the letters after the first,
    or the row itself if it has one): tabulate computes one per distinct tail,
    from one image table."""

    def __init__(self, S: Gdms, t: float, q: float, theta: Potential | None,
                 p_theta: float, memory: int):
        self.system = S
        self.t = float(t)
        self.q = float(q)
        self.theta = theta
        self.p_theta = float(p_theta)
        mem = memory if theta is None else max(memory, theta.memory)
        super().__init__(None, memory=mem, label="geometric")

    def table(self, words) -> np.ndarray:
        return self.tabulate(words)(self.t)

    def tabulate(self, words):
        """t -> the values on the rows of an (S, k) letter array, k >= memory,
        of this potential at t instead of self.t, as one array; every
        log|phi'_(first letter)| and theta value is read once, here."""
        words = _word_rows(words, self.memory)
        tails = words[:, 1:] if words.shape[1] > 1 else words
        # the distinct tails in order of first use, so that a failing tail
        # raises as it would row by row
        uniq, first, inverse = np.unique(tails, axis=0, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        x = _tail_points(self.system, uniq[order], CODING_TOL)[rank[inverse.reshape(-1)]]
        L = _log_derivatives(self.system, words[:, 0], x)
        if self.q != 0.0:
            th = self.theta.table(words) if self.theta else np.zeros(L.size)

        def values(t: float) -> np.ndarray:
            out = np.zeros(L.size)
            if t != 0.0:
                out += t * L
            if self.q != 0.0:
                out += self.q * (th - self.p_theta)
            return out

        return values


def geometric_potential(
    S: Gdms,
    t: float,
    q: float = 0.0,
    theta: Potential | None = None,
    p_theta: float = 0.0,
    *,
    memory: int = 1,
) -> Potential:
    if q != 0.0 and theta is None and p_theta == 0.0:
        raise ConfigError("q != 0 needs a theta potential (or an explicit p_theta)")
    return _GeometricPotential(S, t, q, theta, p_theta, memory)


# ---------------------------------------------------------------------------
# declarative construction


def _label(x):
    """A label from JSON: a list names a tuple label."""
    return tuple(x) if isinstance(x, list) else x


def _edge_label(x, edges: dict):
    label = _label(x)
    if label not in edges:
        raise ConfigError(f"label {label!r} names no edge")
    return label


def _branch_from_config(e: dict) -> Branch:
    label = _label(e["label"])
    dom = int(e.get("source", 0))
    img = int(e.get("target", 0))
    kind = e["kind"]
    p = e.get("params", {})
    if kind == "affine":
        return _affine_branch(label, float(p["a"]), float(p["b"]), dom, img)
    if kind == "moebius":
        return _moebius_branch(label, float(p["a"]), float(p["b"]),
                               float(p["c"]), float(p["d"]), dom, img)
    if kind == "mp-branch":
        lo, hi = p["bracket"]
        return _mp_branch(label, float(p["alpha"]), float(p.get("offset", 0.0)),
                          float(lo), float(hi), dom, img)
    raise ConfigError(f"unknown branch kind {kind!r}")


_BUILTINS = {
    "gauss_cf": lambda cfg: gauss_cf(),
    "backward_cf": lambda cfg: backward_cf(),
    "manneville_pomeau": lambda cfg: manneville_pomeau(float(cfg["alpha"])),
    "luroth": lambda cfg: luroth(cfg.get("cells")),
    "gls": lambda cfg: gls(cfg["cells"]),
    "affine": lambda cfg: affine_system(cfg["branches"]),
}


def system_from_config(cfg: dict) -> Gdms:
    """{"builtin": name, ...} or explicit {vertices, edges, parabolic}."""
    if not isinstance(cfg, dict):
        raise ConfigError("system config must be an object")
    if "builtin" in cfg:
        name = cfg["builtin"]
        if name not in _BUILTINS:
            raise ConfigError(f"unknown builtin system {name!r}")
        try:
            S = _BUILTINS[name](cfg)
            n_cap = int(cfg["jump"].get("n_cap", 1024)) if "jump" in cfg else None
        except KeyError as missing:
            raise ConfigError(f"builtin system {name!r} needs {missing}") from None
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"builtin system {name!r}: {exc}") from None
        if n_cap is None:
            return S
        if not isinstance(S, ParabolicSystem):
            raise ConfigError(f"builtin {name!r} has no parabolic structure to jump")
        return jump_transform(S, n_cap=n_cap)
    try:
        vertices = [tuple(iv) for iv in cfg["vertices"]]
        branches = [_branch_from_config(e) for e in cfg["edges"]]
        if any(not (0 <= v < len(vertices)) for br in branches for v in (br.dom, br.img)):
            raise ConfigError("an edge source or target names no vertex")
        edges = {br.label: br for br in branches}
        if len(edges) != len(branches):
            raise ConfigError("duplicate edge labels")
        forbidden = set()
        for pair in cfg.get("forbidden_pairs", []):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(f"forbidden pair {pair!r} is not two labels")
            forbidden.add((_edge_label(pair[0], edges), _edge_label(pair[1], edges)))
        parab = {}
        for entry in cfg.get("parabolic", []):
            if isinstance(entry, dict):
                label, x_fix = _edge_label(entry["label"], edges), float(entry["fixed_point"])
                beta_e = entry.get("beta")
            else:
                label, x_fix, beta_e = _edge_label(entry, edges), None, None
            if x_fix is None:
                br = edges[label]
                lo, hi = vertices[br.dom]
                x_fix = float(brentq(lambda x: br.fn(x) - x, lo, hi))
            parab[label] = (x_fix, beta_e)
        base = dict(
            vertices=vertices,
            edge_factory=lambda k: branches[k],
            n_edges=len(branches),
            pair_allowed=(lambda a, b: (a, b) not in forbidden) if forbidden else None,
            name=cfg.get("name", "config"),
        )
        return ParabolicSystem(base, parab) if parab else Gdms(**base)
    except KeyError as missing:
        raise ConfigError(f"system config lacks {missing}") from None
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ConfigError(f"system config: {exc}") from None
