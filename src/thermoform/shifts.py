"""One-sided shift spaces over truncated countable alphabets.

Letters are nonnegative integers; a truncation keeps letters 0..N-1 and all
computations happen on the truncated shift. Countable systems are handled by
sweeping the truncation and watching the pressure stabilize. Words are plain
tuples of letters. Potentials are locally constant with a declared memory m:
the value on a word depends only on its first m letters, which makes Birkhoff
sums over cylinders exact and turns the Ruelle operator into a finite weighted
matrix on admissible m-words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    BudgetError,
    ConfigError,
    ConvergenceError,
    NotIrreducibleError,
    WordLengthError,
)
from .rng import task_rng

Word = tuple


class IncidenceMatrix:
    """0/1 transition rule on letter pairs.

    A predicate of None means the full shift (every transition allowed),
    which lets hot paths skip per-pair checks entirely.
    """

    def __init__(self, pred: Callable[[int, int], bool] | None = None, *, name: str = "custom"):
        self._pred = pred
        self.name = name

    @property
    def is_full(self) -> bool:
        return self._pred is None

    def allows(self, a: int, b: int) -> bool:
        if self._pred is None:
            return True
        return bool(self._pred(a, b))

    def __repr__(self):
        return f"IncidenceMatrix({self.name})"

    @staticmethod
    def full() -> "IncidenceMatrix":
        return IncidenceMatrix(None, name="full")

    @staticmethod
    def golden_mean() -> "IncidenceMatrix":
        """Two letters {0,1} with the word 11 forbidden (and 1->1 for any larger N)."""
        return IncidenceMatrix(lambda a, b: not (a == 1 and b == 1), name="golden-mean")

    @staticmethod
    def from_forbidden_pairs(pairs: Iterable[Sequence[int]], name: str = "forbidden-pairs") -> "IncidenceMatrix":
        try:
            forb = frozenset((int(a), int(b)) for a, b in pairs)
        except (TypeError, ValueError):
            raise ConfigError("forbidden pairs must be letter pairs [a, b]") from None
        return IncidenceMatrix(lambda a, b: (a, b) not in forb, name=name)

    @staticmethod
    def from_config(spec) -> "IncidenceMatrix":
        """None or "full", "golden", {"forbidden_pairs": [[a, b], ...]}, or an IncidenceMatrix."""
        if isinstance(spec, IncidenceMatrix):
            return spec
        if spec is None or spec == "full":
            return IncidenceMatrix.full()
        if spec == "golden":
            return IncidenceMatrix.golden_mean()
        if isinstance(spec, dict) and "forbidden_pairs" in spec:
            return IncidenceMatrix.from_forbidden_pairs(spec["forbidden_pairs"])
        raise ConfigError(f"unrecognized incidence spec {spec!r}")

    def submatrix(self, N: int) -> np.ndarray:
        out = np.ones((N, N), dtype=bool)
        if self._pred is not None:
            for a in range(N):
                for b in range(N):
                    out[a, b] = self._pred(a, b)
        return out


def is_admissible(word: Sequence[int], A: IncidenceMatrix) -> bool:
    """True when every consecutive letter pair is allowed."""
    if len(word) == 0:
        raise WordLengthError("admissibility needs a nonempty word")
    if A.is_full:
        return True
    return all(A.allows(word[k], word[k + 1]) for k in range(len(word) - 1))


def enumerate_cylinders(n: int, N: int, A: IncidenceMatrix, cap: int = 2_000_000) -> list[Word]:
    """All admissible words of length n over letters 0..N-1, lexicographic.

    Raises BudgetError when the count would exceed cap.
    """
    if n < 1:
        raise WordLengthError("cylinder length must be >= 1")
    out: list[Word] = []
    stack: list[Word] = [(e,) for e in reversed(range(N))]
    while stack:
        w = stack.pop()
        if len(w) == n:
            out.append(w)
            if len(out) > cap:
                raise BudgetError(f"cylinder enumeration exceeded cap {cap}")
            continue
        last = w[-1]
        for e in reversed(range(N)):
            if A.is_full or A.allows(last, e):
                stack.append(w + (e,))
    return out


class Potential:
    """Locally constant potential with declared memory m and Holder exponent.

    value(word) reads only the first m letters. letter_sup, when provided,
    gives sup of the potential over the length-1 cylinder [e] in closed form
    (used for summability over countable alphabets).
    """

    def __init__(
        self,
        fn: Callable[[Word], float],
        memory: int = 1,
        *,
        holder_beta: float = 1.0,
        letter_sup: Callable[[int], float] | None = None,
        label: str = "custom",
        params: dict | None = None,
    ):
        if memory < 1:
            raise ConfigError("potential memory must be >= 1")
        self.memory = int(memory)
        self.holder_beta = float(holder_beta)
        self.label = label
        self.params = params or {}
        self._fn = fn
        self._letter_sup = letter_sup
        self._cache: dict[Word, float] = {}

    def value(self, word: Sequence[int]) -> float:
        if len(word) < self.memory:
            raise WordLengthError(
                f"word of length {len(word)} shorter than memory {self.memory}"
            )
        key = tuple(word[: self.memory])
        v = self._cache.get(key)
        if v is None:
            try:
                v = float(self._fn(key))
            except (KeyError, IndexError):
                raise ConfigError(f"{self.label} potential has no value for {key}") from None
            self._cache[key] = v
        return v

    def sup_over_letter(self, e: int, N: int, A: IncidenceMatrix) -> float:
        """sup of the potential over the cylinder [e], exact for this truncation."""
        if self._letter_sup is not None:
            return float(self._letter_sup(e))
        if self.memory == 1:
            return self.value((e,))
        best = -math.inf
        stack: list[Word] = [(e,)]
        while stack:
            w = stack.pop()
            if len(w) == self.memory:
                best = max(best, self.value(w))
                continue
            for b in range(N):
                if A.is_full or A.allows(w[-1], b):
                    stack.append(w + (b,))
        return best

    @staticmethod
    def constant(c: float) -> "Potential":
        return Potential(lambda w: c, memory=1, letter_sup=lambda e: c,
                         label="constant", params={"value": float(c)})

    @staticmethod
    def memory1(values) -> "Potential":
        """Per-letter table: list/array, dict, or callable letter -> value."""
        if callable(values):
            fn = values
            return Potential(lambda w: fn(w[0]), memory=1, label="memory1-table")
        if isinstance(values, dict):
            table = {int(k): float(v) for k, v in values.items()}
            return Potential(lambda w: table[w[0]], memory=1,
                             label="memory1-table", params={"table": table})
        arr = [float(v) for v in values]
        return Potential(lambda w: arr[w[0]], memory=1,
                         label="memory1-table", params={"values": arr})

    @staticmethod
    def memory2(table) -> "Potential":
        """Pair table: dict[(a,b)] -> value, 2D array, or callable (a,b) -> value."""
        if callable(table):
            return Potential(lambda w: table(w[0], w[1]), memory=2, label="memory2-table")
        if isinstance(table, dict):
            tbl = {(int(a), int(b)): float(v) for (a, b), v in table.items()}
            return Potential(lambda w: tbl[(w[0], w[1])], memory=2,
                             label="memory2-table", params={"table": tbl})
        arr = np.asarray(table, dtype=float)
        return Potential(lambda w: float(arr[w[0], w[1]]), memory=2,
                         label="memory2-table", params={"values": arr.tolist()})

    @staticmethod
    def from_config(cfg: dict) -> "Potential":
        """Build from the declarative JSON form used by the CLI.

        Table values must be numbers with |psi| <= PSI_MAX. A letter or pair
        that the truncated shift reads but the table lacks raises ConfigError
        when it is first read, so pairs a forbidden transition never reaches
        may stay out.
        """
        try:
            kind = cfg["type"]
        except (KeyError, TypeError):
            raise ConfigError("potential config needs a 'type' field")
        try:
            if kind == "constant":
                return Potential.constant(float(_psi_table(cfg["value"], 0)))
            if kind == "memory1-table":
                if "table" in cfg:
                    keys = [int(k) for k in cfg["table"]]
                    vals = _psi_table(list(cfg["table"].values()), 1)
                    return Potential.memory1(dict(zip(keys, vals.tolist())))
                return Potential.memory1(_psi_table(cfg["values"], 1).tolist())
            if kind == "memory2-table":
                if "table" in cfg:
                    keys = [tuple(int(c) for c in key.split(",")) for key in cfg["table"]]
                    if any(len(k) != 2 for k in keys):
                        raise ConfigError("memory2 table keys must read 'a,b'")
                    vals = _psi_table(list(cfg["table"].values()), 1)
                    return Potential.memory2(dict(zip(keys, vals.tolist())))
                return Potential.memory2(_psi_table(cfg["values"], 2))
            if kind == "geometric":
                from . import gdms as _gdms

                system = _gdms.system_from_config(cfg["system"])
                theta = Potential.from_config(cfg["theta"]) if "theta" in cfg else None
                return _gdms.geometric_potential(
                    system,
                    t=float(cfg.get("t", 1.0)),
                    q=float(cfg.get("q", 0.0)),
                    theta=theta,
                    p_theta=float(cfg.get("p_theta", 0.0)),
                    memory=int(cfg.get("memory", 1)),
                )
        except KeyError as missing:
            raise ConfigError(f"{kind} potential config lacks {missing}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{kind} potential config: {exc}") from None
        raise ConfigError(f"unknown potential type {kind!r}")


# exp(psi) and exp(-psi) both stay normal floats below this
PSI_MAX = 700.0


def _psi_table(values, ndim: int) -> np.ndarray:
    """A potential table from a config: ndim axes of numbers within +-PSI_MAX."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("potential tables must hold numbers") from None
    if arr.ndim != ndim:
        raise ConfigError(f"potential table has {arr.ndim} axes, expected {ndim}")
    if not (np.abs(arr) <= PSI_MAX).all():  # NaN fails this too
        raise ConfigError(f"potential values must be finite with |psi| <= {PSI_MAX:g}")
    return arr


def birkhoff_sum(psi: Potential, word: Sequence[int], n: int) -> float:
    """S_n psi along the cylinder word; needs len(word) >= n + memory - 1."""
    m = psi.memory
    if len(word) < n + m - 1:
        raise WordLengthError(
            f"need {n + m - 1} letters for an order-{n} Birkhoff sum of a memory-{m} potential"
        )
    return float(sum(psi.value(word[k: k + m]) for k in range(n)))


@dataclass
class SummabilityReport:
    truncations: list[int]
    partial_sums: list[float]
    last_relative_increment: float
    converged: bool

    @property
    def verdict(self) -> str:
        return "converged" if self.converged else "not summable at this truncation"


def summability_report(
    psi: Potential,
    N: int,
    A: IncidenceMatrix | None = None,
    *,
    schedule: Sequence[int] | None = None,
    rel_tol: float = 1e-3,
) -> SummabilityReport:
    """Partial sums of sum_e exp(sup psi|[e]) over growing truncations."""
    A = A or IncidenceMatrix.full()
    if schedule is None:
        schedule = []
        k = 32
        while k < N:
            schedule.append(k)
            k *= 2
        schedule.append(N)
        schedule = sorted(set(schedule))
    sums = []
    total = 0.0
    prev = 0
    for nk in schedule:
        for e in range(prev, nk):
            s = psi.sup_over_letter(e, N, A)
            if s > -math.inf:
                total += math.exp(s)
        prev = nk
        sums.append(total)
    if len(sums) >= 2 and sums[-1] > 0:
        inc = (sums[-1] - sums[-2]) / sums[-1]
    else:
        inc = 0.0 if len(sums) < 2 else math.inf
    return SummabilityReport(list(schedule), sums, inc, converged=(inc < rel_tol))


# ---------------------------------------------------------------------------
# state machinery: admissible m-words as the vertices of a weighted digraph


def _blocks(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For blocks of the given sizes laid end to end: each block's start and
    each item's offset inside its block."""
    starts = np.cumsum(counts) - counts
    return starts, np.arange(int(counts.sum())) - np.repeat(starts, counts)


def _state_graph(psi: Potential, A: IncidenceMatrix, N: int, state_cap: int):
    """States (admissible m-words), their psi values, and the transition CSR.

    States come in lexicographic order. Level k holds the admissible k-words
    whose last letter can still take m-k steps, so no level outgrows the last
    one and the state cap is checked as each level is built. Each word also
    carries the index of its suffix w[1:] one level down, or -1 when the
    suffix is not kept there: the suffix of p + e is the child e of the
    suffix of p. The successors u[1:] + e of a state u are the children of
    its suffix in the last level, one contiguous column block.
    """
    m = psi.memory
    if m == 1 and N > state_cap:
        # every letter is a state; fail before evaluating the N^2 incidence
        raise BudgetError(f"more than {state_cap} admissible 1-words at truncation {N}")
    src, dst = np.nonzero(A.submatrix(N))  # letter edges, sorted by (src, dst)
    deg = np.bincount(src, minlength=N)
    # live[j]: letters that start a path of j more steps
    live = [np.ones(N, dtype=bool)]
    for _ in range(m - 1):
        nxt = np.zeros(N, dtype=bool)
        nxt[src[live[-1][dst]]] = True
        live.append(nxt)

    words = np.flatnonzero(live[m - 1])[:, None]
    for k in range(1, m):
        # children of the k-words: letters that can still take m-k-1 steps
        keep = live[m - 1 - k][dst]
        kept = np.flatnonzero(keep)
        kptr = np.concatenate(([0], np.cumsum(np.bincount(src[kept], minlength=N))))
        last = words[:, -1]
        counts = kptr[last + 1] - kptr[last]
        if counts.sum() > state_cap:
            raise BudgetError(f"more than {state_cap} admissible {m}-words at truncation {N}")
        starts, offsets = _blocks(counts)
        edge = kept[np.repeat(kptr[last], counts) + offsets]
        e = dst[edge]
        if k == 1:
            suffix = (np.cumsum(live[m - 1]) - 1)[e]
        else:
            suffix = prev_starts[np.repeat(sig, counts)] + prev_rank[edge]
        # a suffix ending in a letter that cannot take m-k steps is not kept
        # one level down; -1 keeps the lookups of its children in range
        suffix[~live[m - k][e]] = -1
        words = np.column_stack((np.repeat(words, counts, axis=0), e))
        sig, prev_starts = suffix, starts
        prev_rank = np.cumsum(keep) - keep - kptr[src]  # rank among the source's kept edges

    S = len(words)
    if m == 1:
        indptr, indices = np.concatenate(([0], np.cumsum(deg))), dst
    else:
        counts = deg[words[:, -1]]
        _, offsets = _blocks(counts)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        indices = starts[np.repeat(sig, counts)] + offsets
    adj = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(S, S))
    states = list(map(tuple, words.tolist()))
    index = dict(zip(states, range(S)))
    psi_vals = np.fromiter(map(psi.value, states), dtype=float, count=S)
    return states, index, psi_vals, adj


@dataclass
class PressureEstimate:
    """Per-level values (1/n) log Lambda_n for n = memory..n_max.

    value is the ratio estimate log Lambda_n - log Lambda_{n-1} at n = n_max
    (the last level itself when n_max equals the memory); gap is its distance
    from the ratio estimate one level earlier, with the first level standing in
    for the ratio at n = memory.
    """

    levels: list[float]
    n_start: int
    value: float
    truncation: int
    memory: int
    gap: float

    @property
    def n_max(self) -> int:
        return self.n_start + len(self.levels) - 1

    def level(self, n: int) -> float:
        return self.levels[n - self.n_start]


def pressure(
    psi: Potential,
    A: IncidenceMatrix,
    N: int,
    n_max: int = 10,
    *,
    state_cap: int = 200_000,
) -> PressureEstimate:
    """Topological pressure via level sums Lambda_n = sum_{|w|=n} exp(sup S_n psi|[w]).

    The sup over a cylinder is exact for locally constant psi: the last m-1
    Birkhoff terms are maximized over admissible extensions by dynamic
    programming. Per-level values are (1/n) log Lambda_n, which converge like
    C/n; the returned value is the ratio estimate log Lambda_n -
    log Lambda_{n-1}, which converges geometrically for a mixing graph. All
    accumulation is scaled/log-space.
    """
    m = psi.memory
    if n_max < m:
        raise ConfigError(f"n_max={n_max} below potential memory {m}")

    if A.is_full and m == 1:
        # Lambda_n = (sum_e e^psi(e))^n exactly: every level equals log-sum-exp.
        vals = np.array([psi.value((e,)) for e in range(N)])
        top = vals.max()
        lse = top + math.log(np.exp(vals - top).sum())
        levels = [lse] * (n_max - m + 1)
        return PressureEstimate(levels, m, lse, N, m, 0.0)

    states, _, psi_vals, adj = _state_graph(psi, A, N, state_cap)
    S = len(states)
    if S == 0:
        raise ConvergenceError("no admissible states at this truncation")

    # tail(u): max over admissible m-1 step extensions of the trailing Birkhoff
    # terms, one reduceat over the nonempty rows (whose starts strictly
    # increase, so each segment is exactly one row); dead ends stay -inf
    tail = np.zeros(S)
    nonempty = np.flatnonzero(np.diff(adj.indptr))
    for _ in range(m - 1):
        contrib = psi_vals[adj.indices] + tail[adj.indices]
        tail = np.full(S, -np.inf)
        tail[nonempty] = np.maximum.reduceat(contrib, adj.indptr[nonempty])

    psi_top = psi_vals.max()
    w = np.exp(psi_vals - psi_top)

    adj_t = adj.T  # a CSC view; its matvec adds in the same order as a CSR copy's
    vec = w.copy()
    shift = psi_top
    tail_top = tail.max()
    if not np.isfinite(tail_top):
        raise ConvergenceError("every state is a dead end at this truncation")
    tail_w = np.exp(tail - tail_top)

    log_lams = []
    for n in range(m, n_max + 1):
        if n > m:
            vec = adj_t @ vec
            vec *= w
            mx = float(vec.max())
            if mx <= 0.0 or not np.isfinite(mx):
                raise ConvergenceError(f"cylinder weights vanished at level n={n}")
            vec /= mx
            shift += math.log(mx) + psi_top
        lam = float(vec @ tail_w)
        if lam <= 0.0:
            raise ConvergenceError(f"no extendable cylinders at level n={n}")
        log_lams.append(shift + tail_top + math.log(lam))

    levels = [lg / n for n, lg in zip(range(m, n_max + 1), log_lams)]
    estimates = [levels[0], *np.diff(log_lams).tolist()]
    gap = abs(estimates[-1] - estimates[-2]) if len(estimates) >= 2 else 0.0
    return PressureEstimate(levels, m, estimates[-1], N, m, gap)


@dataclass
class EigenData:
    """Leading eigendata of the weighted transition matrix on m-word states.

    matrix holds M_scaled with M = exp(scale) * M_scaled; log_rho is the log of
    the true leading eigenvalue (the pressure). nu sums to 1 and nu . h = 1.
    """

    states: list[Word]
    index: dict
    log_rho: float
    rho_scaled: float
    scale: float
    h: np.ndarray
    nu: np.ndarray
    psi_vals: np.ndarray
    matrix: sp.csr_matrix
    residual: float
    iterations: int
    memory: int
    truncation: int


def _power_iteration(M: sp.spmatrix, tol: float, max_iter: int):
    S = M.shape[0]
    x = np.full(S, 1.0 / S)
    shift = 0.5 * float(M.data.max()) if M.nnz else 1.0
    lam_prev = None
    its = 0
    for its in range(1, max_iter + 1):
        y = M @ x + shift * x
        lam = float(y.sum())
        if lam <= 0 or not np.isfinite(lam):
            raise ConvergenceError("power iteration left the positive cone")
        y /= lam
        delta = float(np.abs(y - x).max())
        x = y
        if lam_prev is not None and abs(lam - lam_prev) < tol * lam and delta < 100 * tol:
            lam_prev = lam
            break
        lam_prev = lam
    else:
        raise ConvergenceError(f"power iteration did not converge in {max_iter} steps")
    rho = lam_prev - shift
    return rho, x, its


def rpf_eigendata(
    psi: Potential,
    A: IncidenceMatrix,
    N: int,
    *,
    tol: float = 1e-13,
    max_iter: int = 10**6,
    state_cap: int = 200_000,
) -> EigenData:
    """Leading (rho, h, nu) for M[u -> w] = exp(psi(u + last(w))).

    For a memory-m potential the weight reduces to exp(psi(u)) on every
    admissible transition out of u. Requires the truncated state graph to be
    strongly connected.
    """
    states, index, psi_vals, adj = _state_graph(psi, A, N, state_cap)
    S = len(states)
    if S == 0:
        raise ConvergenceError("no admissible states at this truncation")
    ncomp, _ = connected_components(adj, directed=True, connection="strong")
    if ncomp != 1:
        raise NotIrreducibleError(
            f"state graph has {ncomp} strongly connected components at truncation {N}"
        )
    if adj.nnz == 0:  # one state and no loop: strongly connected, but nilpotent
        raise NotIrreducibleError(f"state graph has no transitions at truncation {N}")

    scale = float(psi_vals.max())
    weights = np.exp(psi_vals - scale)
    M = sp.csr_matrix((np.repeat(weights, np.diff(adj.indptr)), adj.indices, adj.indptr),
                      shape=(S, S))

    rho_s, h, its_r = _power_iteration(M, tol, max_iter)
    Mt = M.T  # a CSC view, as adj.T in pressure
    rho_l, nu, its_l = _power_iteration(Mt, tol, max_iter)

    nu = nu / nu.sum()
    h = h / float(nu @ h)
    resid_r = float(np.abs(M @ h - rho_s * h).max()) / rho_s
    resid_l = float(np.abs(Mt @ nu - rho_l * nu).max()) / rho_l
    return EigenData(
        states=states,
        index=index,
        log_rho=scale + math.log(rho_s),
        rho_scaled=rho_s,
        scale=scale,
        h=h,
        nu=nu,
        psi_vals=psi_vals,
        matrix=M,
        residual=max(resid_r, resid_l),
        iterations=its_r + its_l,
        memory=psi.memory,
        truncation=N,
    )


# doubles per uniform block drawn by ChainSampler.blocks (8 bytes each); time per
# step was flat from 2**15 to 2**18, and smaller blocks keep less heap resident
WALK_BLOCK = 2**15
# Largest states x walkers at which ChainSampler.blocks speculates. Speculation
# multiplies the work per step by the number of states and saves interpreter
# steps, so it pays only on tiny chains. Measured per step, serial ->
# speculative (2 vCPUs, numpy 2.4), at states x walkers = 64: 32 walkers on
# 2 states 4.7 -> 3.3 us, 16 on 4 states 4.5 -> 3.3 us, one walker on 64
# states 3.7 -> 2.3 us; at 96: 5.2 -> 4.9, 4.7 -> 4.7, 3.8 -> 3.6 us (even);
# at 128: 5.8 -> 6.4, 3.4 -> 4.2 us (a loss).
SPECULATE_WIDTH = 64


class ChainSampler:
    """Draws of a Markov chain from its CSR stochastic kernel.

    Each row's cumulative sums over its positive entries, in column order, are
    stored in one flat array shifted by 2*row, with the row's last entry
    pinned to exactly 1.0, so a row sum that rounding left short of 1 cannot
    send a draw past it. A uniform u in [0, 1) moves state s to the first
    entry of row s whose cumulative sum reaches u: one searchsorted of 2*s + u
    over every row at once. Row s owns the band [2s, 2s + 1], which a rounded
    2s + u never leaves. Walkers carry 2*s as a float, the exact double that
    2*s + u adds to, and target2 holds twice each entry's column, so a step is
    a search and a gather. Start states come from the stationary cdf, pinned
    the same way.
    """

    def __init__(self, kernel: sp.csr_matrix, pi: np.ndarray):
        K = kernel.sorted_indices()  # a copy, columns ascending in each row
        K.eliminate_zeros()
        deg = np.diff(K.indptr)
        if not deg.all():
            raise ConvergenceError("a state has no transition; chain not irreducible")
        # per-row cumsums in place, adding terms in the order np.cumsum does
        cum, first = K.data, K.indptr[:-1]
        for k in range(1, int(deg.max())):
            at = first[deg > k] + k
            cum[at] += cum[at - 1]
        cum[K.indptr[1:] - 1] = 1.0
        cum += np.repeat(2 * np.arange(K.shape[0]), deg)
        self.flat = cum
        self.target2 = 2.0 * K.indices
        pic = np.cumsum(pi)
        pic[-1] = 1.0
        self._pic = pic

    def start(self, rng, n: int) -> np.ndarray:
        """n states drawn from the stationary law."""
        return np.searchsorted(self._pic, rng.random(n))

    def _step2(self, y, u):
        """Doubled next states from doubled states y given uniforms u in [0, 1)."""
        return self.target2[self.flat.searchsorted(y + u)]

    def blocks(self, s, rng, n_steps: int):
        """Yield the n_steps states after each step from the W states s, a block at a time.

        Each block is a fresh time-major (b, W) intp array, one row per step,
        of at most max(WALK_BLOCK, W) entries. Uniforms are drawn as
        rng.random((b, W)) per block, the same stream as one rng.random(W) per
        step, and each step is the same search, so the path equals the serial
        walk bit for bit. On a small chain a block of b steps is cut into C
        chunks of length L: chunks 0..C-2 first run from every state at once
        and keep only their ends, which stitch into each chunk's true start;
        then all C chunks run together from those starts. That costs about
        2L + C vectorized steps instead of b. Speculation multiplies the work
        per step by the number of states, so past SPECULATE_WIDTH states x
        walkers C stays 1 and the second loop alone is the serial walk.
        """
        s = np.asarray(s, dtype=np.intp)
        W = s.size
        n_states = self._pic.size
        cols = np.arange(W)
        rows = max(1, WALK_BLOCK // W)
        y = 2.0 * s[None]  # one row per chunk: its doubled state
        for t0 in range(0, n_steps, rows):
            u = rng.random((min(rows, n_steps - t0), W))
            b = u.shape[0]
            C = 1 if n_states * W > SPECULATE_WIDTH else math.isqrt(2 * b)
            L = -(-b // C)
            C = -(-b // L)
            short = b - (C - 1) * L  # length of the last chunk; the others are full
            if C > 1:
                ends = np.broadcast_to(2.0 * np.arange(n_states)[:, None], (C - 1, n_states, W))
                head = u[: (C - 1) * L].reshape(C - 1, L, 1, W)
                for j in range(L):
                    ends = self._step2(ends, head[:, j])
                ends = ends.astype(np.intp) >> 1
                starts = [s]
                for c in range(C - 1):
                    starts.append(ends[c, starts[-1], cols])
                y = 2.0 * np.stack(starts)
            block = np.empty((b, W), dtype=np.intp)
            for j in range(L):
                if j < short:
                    y = self._step2(y, u[j::L])
                    block[j::L] = y
                else:  # the last chunk is done and y[-1] keeps its end
                    y[:-1] = self._step2(y[:-1], u[j::L])
                    block[j::L] = y[:-1]
            block >>= 1
            s, y = block[-1], y[-1:]
            yield block

    def walk(self, s, rng, n_steps: int) -> np.ndarray:
        """The (n_steps, W) states of blocks(s, rng, n_steps), collected."""
        parts = list(self.blocks(s, rng, n_steps))
        if len(parts) == 1:
            return parts[0]
        return np.concatenate([np.empty((0, np.size(s)), dtype=np.intp), *parts])


class GibbsMarkovMeasure:
    """Stationary Markov chain on m-word states realizing the Gibbs state.

    kernel p(u -> w) = M[u,w] h(w) / (rho h(u)), stationary pi(u) = nu(u) h(u).
    forward and backward sample the chain and its time reversal.
    """

    def __init__(self, eig: EigenData):
        self.eig = eig
        self.states = eig.states
        self.index = eig.index
        self.memory = eig.memory
        self.truncation = eig.truncation
        self.pressure = eig.log_rho
        M = eig.matrix
        data = M.data * eig.h[M.indices] / np.repeat(eig.rho_scaled * eig.h, np.diff(M.indptr))
        self.kernel = sp.csr_matrix((data, M.indices.copy(), M.indptr.copy()), shape=M.shape)
        self.pi = eig.nu * eig.h

    @property
    def n_states(self) -> int:
        return len(self.states)

    def reversed_kernel(self) -> sp.csr_matrix:
        """Time reversal: p_rev(w -> u) = pi(u) p(u -> w) / pi(w)."""
        KT = self.kernel.T.tocsr()
        data = KT.data * self.pi[KT.indices] / np.repeat(self.pi, np.diff(KT.indptr))
        return sp.csr_matrix((data, KT.indices, KT.indptr), shape=KT.shape)

    @cached_property
    def forward(self) -> ChainSampler:
        return ChainSampler(self.kernel, self.pi)

    @cached_property
    def backward(self) -> ChainSampler:
        return ChainSampler(self.reversed_kernel(), self.pi)


def gibbs_measure(
    psi: Potential,
    A: IncidenceMatrix,
    N: int,
    **eig_kwargs,
) -> GibbsMarkovMeasure:
    return GibbsMarkovMeasure(rpf_eigendata(psi, A, N, **eig_kwargs))


def _state_path(mu: GibbsMarkovMeasure, word: Sequence[int]):
    m = mu.memory
    path = []
    for k in range(len(word) - m + 1):
        i = mu.index.get(tuple(word[k: k + m]))
        if i is None:
            return None
        path.append(i)
    return path


def cylinder_log_measure(mu: GibbsMarkovMeasure, word: Sequence[int]) -> float:
    """log mu([word]); -inf for inadmissible or out-of-truncation words."""
    if len(word) == 0:
        raise WordLengthError("cylinder needs a nonempty word")
    if any(e < 0 or e >= mu.truncation for e in word):
        return -math.inf
    m = mu.memory
    if len(word) < m:
        total = 0.0
        pref = tuple(word)
        for i, st in enumerate(mu.states):
            if st[: len(pref)] == pref:
                total += mu.pi[i]
        return math.log(total) if total > 0 else -math.inf
    path = _state_path(mu, word)
    if path is None:
        return -math.inf
    acc = math.log(mu.pi[path[0]]) if mu.pi[path[0]] > 0 else -math.inf
    K = mu.kernel
    for a, b in zip(path[:-1], path[1:]):
        lo, hi = K.indptr[a], K.indptr[a + 1]
        hit = np.flatnonzero(K.indices[lo:hi] == b)
        p = K.data[lo + hit[0]] if hit.size else 0.0
        if p <= 0.0:
            return -math.inf
        acc += math.log(p)
    return acc


def cylinder_measure(mu: GibbsMarkovMeasure, word: Sequence[int]) -> float:
    lm = cylinder_log_measure(mu, word)
    return math.exp(lm) if lm > -math.inf else 0.0


def sample_forward(mu: GibbsMarkovMeasure, length: int, seed: int = 0) -> Word:
    """A word of the given length from the stationary chain."""
    m = mu.memory
    if length < m:
        raise WordLengthError(f"forward samples need length >= memory {m}")
    rng = task_rng(seed)
    chain = mu.forward
    i = chain.start(rng, 1)
    path = chain.walk(i, rng, length - m)[:, 0]
    return tuple(mu.states[i[0]]) + tuple(mu.states[j][-1] for j in path)


def sample_past(
    mu: GibbsMarkovMeasure, future_prefix: Sequence[int], length: int, seed: int = 0
) -> Word:
    """A past word tau, drawn from the reversed chain, with tau+future admissible."""
    m = mu.memory
    if len(future_prefix) < m:
        raise WordLengthError(f"future prefix must carry at least memory={m} letters")
    start = mu.index.get(tuple(future_prefix[:m]))
    if start is None:
        raise WordLengthError("future prefix is not admissible at this truncation")
    rng = task_rng(seed)
    path = mu.backward.walk(np.array([start]), rng, length)[::-1, 0]
    return tuple(mu.states[j][0] for j in path)


def _greedy_extension(mu: GibbsMarkovMeasure, word: Sequence[int], extra: int) -> Word:
    """Extend by the most probable next letter; deterministic and admissible."""
    K = mu.kernel
    i = _state_path(mu, word)[-1]
    out = list(word)
    for _ in range(extra):
        lo, hi = K.indptr[i], K.indptr[i + 1]
        cols, vals = K.indices[lo:hi], K.data[lo:hi]
        j = int(cols[vals == vals.max()].min())  # ties go to the smallest state
        out.append(mu.states[j][-1])
        i = j
    return tuple(out)


@dataclass
class GibbsAuditRow:
    n: int
    count: int
    r_min: float
    r_max: float
    exact_min: float | None
    exact_max: float | None

    @property
    def d_literal(self) -> float:
        return max(self.r_max, 1.0 / self.r_min)


@dataclass
class GibbsAudit:
    """Cylinder-mass Gibbs check.

    Literal ratio r = mu([w]) / exp(S_n psi(tau) - P n) at a point tau in [w]
    (bounded, with boundary eigenvector factors; its per-length constant must
    not trend upward). Exact-form ratio divides mu([w]) by the closed
    prediction nu(u_first) h(u_last) exp(S_{n-m} psi - (n-m) P), identically 1
    for the constructed chain.
    """

    rows: list[GibbsAuditRow]

    @property
    def d_literal(self) -> float:
        return max(r.d_literal for r in self.rows)

    @property
    def d_exact(self) -> float:
        vals = [
            max(r.exact_max, 1.0 / r.exact_min)
            for r in self.rows
            if r.exact_min is not None
        ]
        if not vals:
            raise WordLengthError("no audited lengths reach the potential memory")
        return max(vals)

    def trend(self) -> float:
        """Slope of log d_literal against n over the stabilized lengths."""
        pts = [(r.n, math.log(r.d_literal)) for r in self.rows]
        if len(pts) < 4:
            return 0.0
        pts = pts[2:]
        xs = np.array([p[0] for p in pts], dtype=float)
        ys = np.array([p[1] for p in pts], dtype=float)
        return float(np.polyfit(xs, ys, 1)[0])


def gibbs_audit(
    mu: GibbsMarkovMeasure,
    psi: Potential,
    n_range: Sequence[int] = range(1, 13),
    *,
    sample_size: int = 512,
    seed: int = 0,
) -> GibbsAudit:
    m = mu.memory
    P = mu.pressure
    eig = mu.eig
    rows = []
    for t, n in enumerate(n_range):
        try:
            words = enumerate_cylinders(n, mu.truncation, _mu_incidence(mu), cap=sample_size)
        except BudgetError:
            words = set()
            for k in range(sample_size):
                words.add(sample_forward(mu, max(n, m), seed=seed * 100003 + t * 1009 + k)[:n])
            words = sorted(words)
        r_min, r_max = math.inf, -math.inf
        e_min, e_max = math.inf, -math.inf
        count = 0
        for w in words:
            lm = cylinder_log_measure(mu, w)
            if lm == -math.inf:
                continue
            count += 1
            tau = _greedy_extension(mu, w, m - 1) if len(w) >= m else _pad_short(mu, w)
            sn = birkhoff_sum(psi, tau, n)
            r = math.exp(lm - (sn - P * n))
            r_min, r_max = min(r_min, r), max(r_max, r)
            if n >= m:
                path = _state_path(mu, w)
                s_trans = float(sum(eig.psi_vals[i] for i in path[:-1]))
                log_pred = (
                    math.log(eig.nu[path[0]])
                    + math.log(eig.h[path[-1]])
                    + s_trans
                    - P * (n - m)
                )
                rex = math.exp(lm - log_pred)
                e_min, e_max = min(e_min, rex), max(e_max, rex)
        if count == 0:
            raise ConvergenceError(f"no admissible cylinders of length {n}")
        rows.append(
            GibbsAuditRow(
                n,
                count,
                r_min,
                r_max,
                e_min if n >= m else None,
                e_max if n >= m else None,
            )
        )
    return GibbsAudit(rows)


def _mu_incidence(mu: GibbsMarkovMeasure) -> IncidenceMatrix:
    """Letter-level incidence induced by the chain's admissible states."""
    m = mu.memory
    if m == 1:
        K = mu.kernel
        letter = np.array([st[0] for st in mu.states])
        rows = np.repeat(np.arange(mu.n_states), np.diff(K.indptr))
        pairs = set(zip(letter[rows].tolist(), letter[K.indices].tolist()))
        return IncidenceMatrix(lambda a, b: (a, b) in pairs, name="from-chain")
    # candidate words only; inadmissible ones are filtered downstream when
    # cylinder_log_measure returns -inf
    pair_ok = set()
    for st in mu.states:
        for k in range(m - 1):
            pair_ok.add((st[k], st[k + 1]))
    return IncidenceMatrix(lambda a, b: (a, b) in pair_ok, name="from-chain")


def _pad_short(mu: GibbsMarkovMeasure, word: Word) -> Word:
    """Complete a below-memory word to memory + its Birkhoff horizon."""
    m = mu.memory
    pref = tuple(word)
    for i, st in enumerate(mu.states):
        if st[: len(pref)] == pref:
            return _greedy_extension(mu, st, m - 1)[: len(word) + m - 1] if m > 1 else st
    raise WordLengthError("word extends to no admissible state")


def entropy_from_pressure(mu: GibbsMarkovMeasure) -> float:
    """h = P(psi) - integral of psi; exact for the chain since psi is m-local."""
    integral = float(mu.pi @ mu.eig.psi_vals)
    return mu.pressure - integral


def markov_entropy(mu: GibbsMarkovMeasure) -> float:
    """-sum_u pi(u) sum_w p(u->w) log p(u->w), the chain's entropy rate."""
    K = mu.kernel
    pi_rows = np.repeat(mu.pi, np.diff(K.indptr))
    data = K.data
    mask = data > 0
    return float(-(pi_rows[mask] * data[mask] * np.log(data[mask])).sum())


def measure_to_json(mu: GibbsMarkovMeasure, max_states: int = 4096) -> dict:
    """Dense JSON export {states, kernel, stationary, pressure}.

    A measure with more than max_states states raises BudgetError: the
    config is valid, the dense export is over its cap.
    """
    if mu.n_states > max_states:
        raise BudgetError(
            f"measure has {mu.n_states} states; refusing dense export beyond {max_states}"
        )
    dense = mu.kernel.toarray()
    return {
        "states": [list(map(int, s)) for s in mu.states],
        "kernel": [[float(v) for v in row] for row in dense],
        "stationary": [float(v) for v in mu.pi],
        "pressure": float(mu.pressure),
    }
