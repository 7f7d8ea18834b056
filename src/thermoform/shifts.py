"""One-sided shift spaces over truncated countable alphabets.

Letters are nonnegative integers; a truncation keeps letters 0..N-1 and all
computations happen on the truncated shift. Countable systems are handled by
sweeping the truncation and watching the pressure stabilize. A word is a
tuple of letters; many words of one length n form a (W, n) integer array,
which is how a Gibbs chain reads them (GibbsMarkovMeasure.lookup).
Potentials are locally constant with a declared memory m: the value on a
word depends only on its first m letters, which makes Birkhoff sums over
cylinders exact and turns the Ruelle operator into a finite weighted matrix
on admissible m-words.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
import numpy.ma  # noqa: F401  (np.unique reads np.ma, which numpy 2 loads on first use)

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
    """0/1 transition rule on letter pairs, held as the set of forbidden pairs.

    The full shift forbids nothing. A pair with a letter outside 0..N-1 does
    not touch the truncation at N.
    """

    def __init__(self, forbidden: Iterable[tuple[int, int]] = (), *, name: str = "custom"):
        self.forbidden = frozenset(forbidden)
        self.name = name

    @property
    def is_full(self) -> bool:
        return not self.forbidden

    def allows(self, a: int, b: int) -> bool:
        return (a, b) not in self.forbidden

    def __repr__(self):
        return f"IncidenceMatrix({self.name})"

    @staticmethod
    def full() -> "IncidenceMatrix":
        return IncidenceMatrix(name="full")

    @staticmethod
    def golden_mean() -> "IncidenceMatrix":
        """Two letters {0,1} with the word 11 forbidden (and 1->1 for any larger N)."""
        return IncidenceMatrix({(1, 1)}, name="golden-mean")

    @staticmethod
    def from_forbidden_pairs(pairs: Iterable[Sequence[int]], name: str = "forbidden-pairs") -> "IncidenceMatrix":
        """Letters are integers >= 0: numpy integers and 1.0 count, bools do not."""
        def pair(p) -> tuple[int, int]:
            if isinstance(p, (list, tuple)) and len(p) == 2 and all(
                    (isinstance(x, (int, np.integer)) or isinstance(x, float) and x.is_integer())
                    and not isinstance(x, bool) and x >= 0 for x in p):
                return int(p[0]), int(p[1])
            raise ConfigError(f"forbidden pair {p!r} is not two letters >= 0")

        try:
            return IncidenceMatrix(map(pair, pairs), name=name)
        except TypeError:
            raise ConfigError("forbidden pairs must be a list of letter pairs [a, b]") from None

    @staticmethod
    def from_table(allowed: np.ndarray, name: str = "custom") -> "IncidenceMatrix":
        """The rule of an N x N boolean table on the letters 0..N-1."""
        rows, cols = np.nonzero(~np.asarray(allowed, dtype=bool))
        return IncidenceMatrix(zip(rows.tolist(), cols.tolist()), name=name)

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
        inside = [p for p in self.forbidden if 0 <= p[0] < N and 0 <= p[1] < N]
        if inside:
            out[tuple(np.array(inside).T)] = False
        return out


def is_admissible(word: Sequence[int], A: IncidenceMatrix) -> bool:
    """True when every consecutive letter pair is allowed."""
    if len(word) == 0:
        raise WordLengthError("admissibility needs a nonempty word")
    return all(A.allows(word[k], word[k + 1]) for k in range(len(word) - 1))


def enumerate_cylinders(n: int, N: int, A: IncidenceMatrix, cap: int = 2_000_000) -> list[Word]:
    """All admissible words of length n over letters 0..N-1, lexicographic:
    the states of memory n.

    Raises BudgetError when the count would exceed cap.
    """
    if n < 1:
        raise WordLengthError("cylinder length must be >= 1")
    return list(map(tuple, _state_graph(n, A, N, cap).states.tolist()))


class Potential:
    """Locally constant potential with declared memory m.

    fn maps an (S, m) integer array of words, one per row, to their S values.
    table(words) evaluates it on the first m letters of each row of an (S, k)
    letter array, k >= m; every evaluation goes through it.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], memory: int = 1, *,
                 label: str = "custom"):
        if memory < 1:
            raise ConfigError("potential memory must be >= 1")
        self.memory = int(memory)
        self.label = label
        self._fn = fn

    def table(self, words) -> np.ndarray:
        """The values on each row of an (S, k) letter array, k >= memory."""
        words = _word_rows(words, self.memory)
        try:
            vals = self._fn(words[:, : self.memory])
        except (KeyError, IndexError) as exc:
            raise ConfigError(f"{self.label} potential lacks a word it reads: {exc}") from None
        return np.asarray(vals, dtype=float)

    def value(self, word: Sequence[int]) -> float:
        return float(self.table([word])[0])

    @staticmethod
    def constant(c: float) -> "Potential":
        c = float(c)
        return Potential(lambda w: np.full(len(w), c), memory=1, label="constant")

    @staticmethod
    def memory1(values) -> "Potential":
        """Per-letter table: list/array or dict letter -> value."""
        if isinstance(values, dict):
            table = {int(k): float(v) for k, v in values.items()}
            return Potential(lambda w: [table[a] for a in w[:, 0].tolist()], memory=1,
                             label="memory1-table")
        arr = np.array([float(v) for v in values])
        return Potential(lambda w: arr[w[:, 0]], memory=1, label="memory1-table")

    @staticmethod
    def memory2(table) -> "Potential":
        """Pair table: dict[(a,b)] -> value or 2D array."""
        if isinstance(table, dict):
            tbl = {(int(a), int(b)): float(v) for (a, b), v in table.items()}
            return Potential(lambda w: [tbl[p] for p in zip(*w.T.tolist())], memory=2,
                             label="memory2-table")
        arr = np.asarray(table, dtype=float)
        return Potential(lambda w: arr[w[:, 0], w[:, 1]], memory=2, label="memory2-table")

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


def _word_rows(words, m: int) -> np.ndarray:
    """words as an (S, k) integer array, each row at least m letters long."""
    words = np.asarray(words, dtype=np.intp)
    if words.ndim != 2 or words.shape[1] < m:
        raise WordLengthError(f"words of shape {words.shape} are not rows of at least {m} letters")
    return words


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
    return float(birkhoff_sums(psi, [word], n)[0])


def birkhoff_sums(psi: Potential, words, n: int) -> np.ndarray:
    """S_n psi along each row of an (W, k) letter array, its n windows added
    left to right; needs k >= n + memory - 1."""
    m = psi.memory
    words = np.asarray(words, dtype=np.intp)
    if words.shape[1] < n + m - 1:
        raise WordLengthError(
            f"need {n + m - 1} letters for an order-{n} Birkhoff sum of a memory-{m} potential"
        )
    windows = np.lib.stride_tricks.sliding_window_view(words, m, axis=1)[:, :n]
    return _row_sums(psi.table(windows.reshape(-1, m)).reshape(len(words), n))


def _row_sums(vals: np.ndarray) -> np.ndarray:
    """Each row of vals summed left to right from 0.0, as sum() adds a list."""
    out = np.zeros(len(vals))
    for col in vals.T:
        out += col
    return out


@dataclass
class SummabilityReport:
    truncations: list[int]
    partial_sums: list[float]
    tail_ratio: float


def letter_sups(states: np.ndarray, vals: np.ndarray, N: int) -> np.ndarray:
    """The max of vals over the states that begin with each letter e < N, -inf
    for a letter that begins none; states are lexicographic rows, so each first
    letter is one segment."""
    first = states[:, 0]
    starts = np.flatnonzero(np.diff(first, prepend=-1))
    out = np.full(N, -np.inf)
    if len(starts):
        out[first[starts]] = np.maximum.reduceat(vals, starts)
    return out


def tail_ratio(sups: np.ndarray) -> float:
    """The share of sum_e exp(sups[e]) carried by the top floor(N/2) of the
    N = len(sups) letters; each term is scaled by the largest, so none
    overflows."""
    N = len(sups)
    w = np.exp(sups - sups.max())
    return float(w[N - N // 2:].sum() / w.sum())


def summability_report(sups: np.ndarray) -> SummabilityReport:
    """Partial sums of sum_e exp(sups[e]) over the truncations 32, 64, ... below
    N = len(sups) and N itself, as letter_sups gives sups[e] = sup psi|[e], and
    their tail_ratio. No truncation can decide summability, so the report
    gives no verdict."""
    N = len(sups)
    truncations = []
    k = 32
    while k < N:
        truncations.append(k)
        k *= 2
    truncations.append(N)
    vals = sups.tolist()
    sums = []
    total = 0.0
    prev = 0
    for k in truncations:
        for s in vals[prev:k]:
            total += math.exp(s)
        prev = k
        sums.append(total)
    return SummabilityReport(truncations, sums, tail_ratio(sups))


# ---------------------------------------------------------------------------
# state machinery: admissible m-words as the vertices of a weighted digraph


def _blocks(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For blocks of the given sizes laid end to end: each block's start and
    each item's offset inside its block."""
    starts = np.cumsum(counts) - counts
    return starts, np.arange(int(counts.sum())) - np.repeat(starts, counts)


def _group(keys: np.ndarray, vals: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Group starts and vals grouped by their key in 0..n-1, in order within a group."""
    ptr = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n))))
    return ptr, vals[np.argsort(keys, kind="stable")]


# steps of B, forward and back, that n_components walks from state 0 before
# it leaves the count to scipy; E2 at memory 10 needs 10
REACH_ROUNDS = 64


class Blocks:
    """A 0/1 matrix on states whose rows are shared: B[u, v] = [v in block cls[u]].

    Block b holds the states members[ptr[b]:ptr[b + 1]], ascending; members
    None means the blocks split the states in order, so block b is the states
    ptr[b]..ptr[b + 1] - 1 themselves. State u reads block cls[u], or no block
    (a dead end) when cls[u] is -1. B factors into one entry per state (u to
    its block) and one per block member, so products with B and B^T cost the
    states plus the members, never the transitions.
    """

    def __init__(self, cls: np.ndarray, ptr: np.ndarray, members: np.ndarray | None = None):
        self.cls = cls
        self.ptr = ptr
        self.members = members
        self.sizes = np.diff(ptr)
        self._nonempty = np.flatnonzero(self.sizes)
        self._cls1 = cls + 1  # dead ends fall in bin 0 of a bincount

    @property
    def n_states(self) -> int:
        return self.cls.size

    @property
    def n_blocks(self) -> int:
        return self.sizes.size

    @property
    def out_degree(self) -> np.ndarray:
        """Successors of each state: the size of the block it reads, 0 for none."""
        return np.append(self.sizes, 0)[self.cls]

    @property
    def nnz(self) -> int:
        """Transitions of B, counted and not stored."""
        return int(self.out_degree.sum())

    def states_of(self, entries: np.ndarray) -> np.ndarray:
        """The states held at the given positions of the members array."""
        return entries if self.members is None else self.members[entries]

    def entry_sums(self, vals: np.ndarray, ufunc=np.add, empty: float = 0.0) -> np.ndarray:
        """ufunc over each block of per-member values, plus one trailing
        `empty` entry that cls -1 reads; empty blocks get `empty` too."""
        out = np.full(self.n_blocks + 1, empty)
        if self._nonempty.size:
            # nonempty starts strictly increase, so each segment is one block
            out[self._nonempty] = ufunc.reduceat(vals, self.ptr[self._nonempty])
        return out

    def block_sums(self, f: np.ndarray, ufunc=np.add, empty: float = 0.0) -> np.ndarray:
        """entry_sums of the per-state values f at each block's members."""
        return self.entry_sums(f if self.members is None else f[self.members], ufunc, empty)

    def reader_sums(self, g: np.ndarray) -> np.ndarray:
        """g summed over the states reading each block."""
        return np.bincount(self._cls1, g, minlength=self.n_blocks + 1)[1:]

    def forward(self, f: np.ndarray) -> np.ndarray:
        """(B f)(u): f summed over the block u reads, 0 for a dead end."""
        return self.block_sums(f)[self.cls]

    def backward(self, g: np.ndarray) -> np.ndarray:
        """(B^T g)(v): g summed over the states whose block holds v."""
        out = np.repeat(self.reader_sums(g), self.sizes)
        if self.members is not None:
            # float even when no block holds a member (bincount is then int)
            out = np.bincount(self.members, out, minlength=self.n_states).astype(float)
        return out

    def reversed(self) -> "Blocks":
        """The blocks of B^T: v reads the block of states u whose block holds v."""
        holder = np.repeat(np.arange(self.n_blocks), self.sizes)
        if self.members is None:
            # v sits in one block, so its predecessors are that block's readers
            live = np.flatnonzero(self.cls >= 0)
            return Blocks(holder, *_group(self.cls[live], live, self.n_blocks))
        # memory 1: state u reads block u, so v's predecessors are the blocks
        # that hold v, one per entry of the incidence column
        return Blocks(np.arange(self.n_states), *_group(self.members, holder, self.n_states))

    def _all_reach_zero(self, step: Callable[[np.ndarray], np.ndarray]) -> bool:
        """Whether every state reaches state 0 within REACH_ROUNDS steps along
        B (step forward) or is reached from it (step backward); stops early
        once the states found stop growing."""
        seen = np.zeros(self.n_states, dtype=bool)
        seen[0] = True
        count = 1
        for _ in range(REACH_ROUNDS):
            if count == self.n_states:
                return True
            seen |= step(seen.astype(float)) > 0
            before, count = count, np.count_nonzero(seen)
            if count == before:
                return False
        return count == self.n_states

    @cached_property
    def n_components(self) -> int:
        """Strongly connected components of the state graph B, counted once
        however often the structure is reweighted.

        A graph in which every state reaches state 0 and is reached from it is
        one component; that is settled by at most REACH_ROUNDS steps forward
        along B and along B^T. Otherwise (a reducible graph, or one whose
        paths to and from state 0 are longer) the components are counted by
        scipy on the graph of states and blocks, with the edges u -> cls[u]
        and b -> each member of b. A path between two states there is a path
        of B, so the states split into the same components.
        """
        S, C = self.n_states, self.n_blocks
        if S and self._all_reach_zero(self.forward) and self._all_reach_zero(self.backward):
            return 1
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components

        live = self.cls >= 0
        members = np.arange(S) if self.members is None else self.members
        indptr = np.concatenate(([0], np.cumsum(np.concatenate((live, self.sizes)))))
        indices = np.concatenate((S + self.cls[live], members))
        graph = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(S + C, S + C))
        _, labels = connected_components(graph, directed=True, connection="strong")
        return np.unique(labels[:S]).size


@dataclass
class StateGraph:
    """Admissible m-words, one (S, m) row each, and their successor blocks.

    For m >= 2 the successors of u are the states whose (m-1)-prefix is u's
    (m-1)-suffix: block b holds the children of the b-th kept (m-1)-word, the
    blocks split the states in order, and u reads the block of its suffix
    (-1 when the suffix is not kept, a dead end). For m = 1 state a reads
    block a, the letter row a of the incidence.
    """

    states: np.ndarray
    blocks: Blocks
    memory: int
    truncation: int


def _state_graph(m: int, A: IncidenceMatrix, N: int, state_cap: int) -> StateGraph:
    """States (admissible m-words) in lexicographic order, with their blocks.

    Level k holds the admissible k-words whose last letter can still take m-k
    steps, so no level outgrows the last one and the state cap is checked as
    each level is built. Each word also carries the index of its suffix w[1:]
    one level down, or -1 when the suffix is not kept there: the suffix of
    p + e is the child e of the suffix of p. The successors u[1:] + e of a
    state u are the children of its suffix in the last level, one contiguous
    block, so the last level's suffix indices are the blocks the states read.
    """
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
        blocks = Blocks(np.arange(S), np.concatenate(([0], np.cumsum(deg))), dst)
    else:
        blocks = Blocks(sig, np.append(prev_starts, S))
    return StateGraph(words, blocks, m, N)


@dataclass
class PressureEstimate:
    """Per-level values (1/n) log Lambda_n for n = memory..n_max.

    value is the ratio estimate log Lambda_n - log Lambda_{n-1} at n = n_max
    (the last level itself when n_max equals the memory); gap is its distance
    from the ratio estimate one level earlier, with the first level standing in
    for the ratio at n = memory.
    """

    levels: list[float]
    value: float
    truncation: int
    memory: int
    gap: float


def _level_pressure(graph: StateGraph, psi_vals: np.ndarray, n_max: int) -> PressureEstimate:
    m, S = graph.memory, len(graph.states)
    if S == 0:
        raise ConvergenceError("no admissible states at this truncation")
    B = graph.blocks

    # tail(u): max over admissible m-1 step extensions of the trailing Birkhoff
    # terms, a max over each block; dead ends stay -inf
    tail = np.zeros(S)
    for _ in range(m - 1):
        tail = B.block_sums(psi_vals + tail, np.maximum, -np.inf)[B.cls]

    psi_top = psi_vals.max()
    w = np.exp(psi_vals - psi_top)

    vec = w.copy()
    shift = psi_top
    tail_top = tail.max()
    if not np.isfinite(tail_top):
        raise ConvergenceError("every state is a dead end at this truncation")
    tail_w = np.exp(tail - tail_top)

    log_lams = []
    for n in range(m, n_max + 1):
        if n > m:
            vec = B.backward(vec)
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
    return PressureEstimate(levels, estimates[-1], graph.truncation, m, gap)


class BlockMatrix:
    """M = diag(weights) B on a state graph's blocks: M[u, v] = weights[u] for
    each v in the block u reads. nnz is the transition count of B."""

    def __init__(self, blocks: Blocks, weights: np.ndarray):
        self.blocks = blocks
        self.weights = weights

    @property
    def nnz(self) -> int:
        return self.blocks.nnz

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.weights * self.blocks.forward(x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return self.blocks.backward(self.weights * y)


@dataclass
class EigenData:
    """Leading eigendata of the weighted transition matrix on m-word states.

    matrix holds M_scaled with M = exp(scale) * M_scaled; log_rho is the log of
    the true leading eigenvalue (the pressure). nu sums to 1 and nu . h = 1.
    """

    states: np.ndarray
    log_rho: float
    rho_scaled: float
    scale: float
    h: np.ndarray
    nu: np.ndarray
    psi_vals: np.ndarray
    matrix: BlockMatrix
    residual: float
    iterations: int
    memory: int
    truncation: int


# _power_iteration's relative tolerance and step cap for every eigensolve
EIG_TOL = 1e-13
EIG_MAX_ITER = 10**6


def _power_iteration(apply: Callable[[np.ndarray], np.ndarray], S: int, shift: float,
                     tol: float, max_iter: int):
    """Leading eigenpair of the nonnegative operator apply, iterating apply + shift."""
    x = np.full(S, 1.0 / S)
    lam_prev = None
    its = 0
    for its in range(1, max_iter + 1):
        y = apply(x) + shift * x
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


class TruncatedShift:
    """The shift on letters 0..N-1 under A, and the pressure of memory-m
    potentials given by their values on its states, the admissible m-words.

    On a full shift at memory 1 the states are the letters and levels and
    log_rho read the closed form log sum_e exp(psi(e)) without a graph.
    Otherwise the state graph is built on first need and every reading
    shares it; eigendata always reads it.
    """

    def __init__(self, memory: int, A: IncidenceMatrix, N: int, state_cap: int = 200_000):
        self.memory, self.A, self.N, self.state_cap = memory, A, N, state_cap
        self.closed_form = A.is_full and memory == 1

    @cached_property
    def graph(self) -> StateGraph:
        return _state_graph(self.memory, self.A, self.N, self.state_cap)

    @cached_property
    def states(self) -> np.ndarray:
        """The states in lexicographic order, one (memory,) row each."""
        return np.arange(self.N)[:, None] if self.closed_form else self.graph.states

    def levels(self, vals: np.ndarray, n_max: int) -> PressureEstimate:
        """The level sums for levels memory..n_max, as pressure reports them;
        on the closed form Lambda_n = (sum_e e^psi(e))^n, so every level is exact."""
        if n_max < self.memory:
            raise ConfigError(f"n_max={n_max} below potential memory {self.memory}")
        if self.closed_form:
            lse = self.log_rho(vals)
            return PressureEstimate([lse] * n_max, lse, self.N, 1, 0.0)
        return _level_pressure(self.graph, vals, n_max)

    def log_rho(self, vals: np.ndarray) -> float:
        """The pressure alone, bit for bit levels(vals, 1).value on the closed
        form and else eigendata(vals).log_rho, from the right power iteration
        alone (eigendata also runs the left one, for nu)."""
        if self.closed_form:
            top = vals.max()
            return top + math.log(np.exp(vals - top).sum())
        _, scale, _, rho_s, _, _ = self._right(vals)
        return scale + math.log(rho_s)

    def eigendata(self, vals: np.ndarray) -> EigenData:
        """Leading (rho, h, nu) of the weighted transition matrix, as
        rpf_eigendata reports them."""
        M, scale, shift, rho_s, h, its_r = self._right(vals)
        rho_l, nu, its_l = _power_iteration(M.rmatvec, len(h), shift, EIG_TOL, EIG_MAX_ITER)

        nu = nu / nu.sum()
        h = h / float(nu @ h)
        resid_r = float(np.abs(M.matvec(h) - rho_s * h).max()) / rho_s
        resid_l = float(np.abs(M.rmatvec(nu) - rho_l * nu).max()) / rho_l
        return EigenData(
            states=self.graph.states,
            log_rho=scale + math.log(rho_s),
            rho_scaled=rho_s,
            scale=scale,
            h=h,
            nu=nu,
            psi_vals=vals,
            matrix=M,
            residual=max(resid_r, resid_l),
            iterations=its_r + its_l,
            memory=self.memory,
            truncation=self.N,
        )

    def _right(self, vals: np.ndarray):
        """Check that the state graph is irreducible and run the right power
        iteration: (M, scale, shift, rho_scaled, h, iterations), with M the
        BlockMatrix of the weights over exp(scale), shift the one the iteration
        added, and exp(scale) * rho_scaled the true leading eigenvalue."""
        S, N, B = len(self.graph.states), self.N, self.graph.blocks
        if S == 0:
            raise ConvergenceError("no admissible states at this truncation")
        ncomp = B.n_components
        if ncomp != 1:
            raise NotIrreducibleError(
                f"state graph has {ncomp} strongly connected components at truncation {N}"
            )
        moves = B.out_degree > 0
        if not moves.any():  # one state and no loop: strongly connected, but nilpotent
            raise NotIrreducibleError(f"state graph has no transitions at truncation {N}")

        scale = float(vals.max())
        weights = np.exp(vals - scale)
        M = BlockMatrix(B, weights)
        shift = 0.5 * float(weights[moves].max())  # half the largest entry of M
        rho_s, h, its = _power_iteration(M.matvec, S, shift, EIG_TOL, EIG_MAX_ITER)
        return M, scale, shift, rho_s, h, its


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
    shift = TruncatedShift(psi.memory, A, N, state_cap)
    return shift.levels(psi.table(shift.states), n_max)


def rpf_eigendata(
    psi: Potential,
    A: IncidenceMatrix,
    N: int,
    *,
    state_cap: int = 200_000,
) -> EigenData:
    """Leading (rho, h, nu) for M[u -> w] = exp(psi(u + last(w))).

    For a memory-m potential the weight reduces to exp(psi(u)) on every
    admissible transition out of u. Requires the truncated state graph to be
    strongly connected.
    """
    shift = TruncatedShift(psi.memory, A, N, state_cap)
    return shift.eigendata(psi.table(shift.graph.states))


# doubles per uniform block drawn by ChainSampler.blocks (8 bytes each); time per
# step was flat from 2**15 to 2**18, and smaller blocks keep less heap resident
WALK_BLOCK = 2**15
# Largest blocks x walkers that ChainSampler.blocks walks by a scan, and
# largest blocks x walkers x block degree, as the scan counts through every
# block's entries; other walks step serially. Measured per step, serial ->
# scan (2 vCPUs, numpy 2.4, best of 3), at blocks x walkers 64: golden with
# 32 walkers 3.5 -> 1.1 us, the 4-block memory-2 chain with 16 walkers 3.7 ->
# 1.2 us; at 128: 3.1 -> 2.0 and 4.6 -> 2.5 us, but 8 letters with 16
# walkers 4.3 -> 4.1 us, and at 256 the scan loses from 8 letters on. By
# work: 8 letters with 8 walkers (512) 3.6 -> 2.8 us, 12 with 4 (576) 3.1 ->
# 1.9 us, 20 with one (400) 2.8 -> 1.4 us; from 720 to 900 (12 letters with
# 5 or 6 walkers, 16 with 3, 20 with 2, 30 with 1) the two are even, and 16
# letters with 4 walkers (1024) 3.2 -> 3.6 us, 60 with one 2.8 -> 9.8 us.
SCAN_WIDTH = 64
SCAN_WORK = 640
# Table entries (blocks x steps x walkers) per scan sub-block. Golden with 32
# walkers, per step: 2**13 1.4 us, 2**14 1.1 us, 2**15 1.0 us; at 2**15 the
# Birkhoff walk gained nothing and the scan buffers doubled.
SCAN_TABLE = 2**14
# Most cdf entries, and fewest walkers, for which ChainSampler.blocks counts
# the entries below each needle instead of searching for it; COUNT_WIDTH is
# past any scanned width. Per walker-step, search -> count (2 vCPUs, numpy
# 2.4, median of 5), by cdf entries: at 2e5 walkers 3: 31.6 -> 11.8 ns, 16:
# 52.4 -> 27.2, 25: 58.4 -> 32.6, 36: 61.8 -> 43.9, 64: 76.2 -> 75.0; at
# 4,096 walkers 3: 26.5 -> 11.9, 16: 48.8 -> 22.9, 25: 55.1 -> 34.1, 36:
# 64.8 -> 45.7, 64: 70.8 -> 72.5. Below about 2,700 walkers the broadcast
# comparison runs several times slower per entry: at 2,048 walkers 25
# entries 60.1 -> 56.3 ns and 36 entries 61.0 -> 72.6, at 64 walkers 3
# entries 62.7 -> 115.4 ns.
COUNT_ENTRIES = 32
COUNT_WIDTH = 4096
# Most walkers that ChainSampler.blocks walks in plain Python (_scalar) when
# the scan does not take them. Per step, search -> scalar (2 vCPUs, numpy
# 2.4, best of 3): one walker on 30 letters 1.63 -> 0.34 us, on 100 letters
# at memory 2 2.86 -> 0.46; 4 walkers 2.22 -> 1.34 and 3.38 -> 1.74. Median
# of 7 interleaved runs, 30 letters: 5 walkers 2.77 -> 1.82 (scalar faster
# in 7 of 7), 6 2.59 -> 2.40 (6/7), 7 2.25 -> 2.40 (1/7), 8 2.60 -> 3.11
# (1/7); 100 letters: 6 2.75 -> 2.54 (4/7), 7 2.65 -> 2.94 (2/7).
SCALAR_WALKERS = 6
# Rows of uniforms a scalar walker converts to floats, and of entries it
# writes back, at a time. One walker, 50,000 steps over 100 letters at
# memory 2 through walk, tracemalloc peak above the entries and one block of
# uniforms: 2**15 rows (a whole block) 2.23 MB, 2**11 rows 0.15 MB.
SCALAR_ROWS = 2**11


@dataclass
class BlockKernel:
    """Markov kernel whose rows are shared by blocks: a state reading block b
    moves to the state at member entry k of b with probability p[k]."""

    blocks: Blocks
    p: np.ndarray

    @staticmethod
    def normalized(blocks: Blocks, weights: np.ndarray) -> "BlockKernel":
        """p proportional to the per-state weights over each block's members."""
        vals = weights if blocks.members is None else weights[blocks.members]
        return BlockKernel(blocks, vals / np.repeat(blocks.entry_sums(vals)[:-1], blocks.sizes))

    def row(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """The successors of state u, ascending, and their probabilities."""
        b = self.blocks.cls[u]
        lo, hi = (self.blocks.ptr[b], self.blocks.ptr[b + 1]) if b >= 0 else (0, 0)
        return self.blocks.states_of(np.arange(lo, hi)), self.p[lo:hi]


@lru_cache
def _bit_reversal(n: int) -> np.ndarray:
    """The permutation of range(n), n a power of 2, that reverses the bits of
    each index; it is its own inverse."""
    rev = np.zeros(1, dtype=np.intp)
    while rev.size < n:
        rev = np.concatenate((2 * rev, 2 * rev + 1))
    rev.flags.writeable = False  # the cache hands the same array to every caller
    return rev


class ChainSampler:
    """Draws of a Markov chain from its block kernel.

    Each block's cumulative sums, in member order, are stored in one flat
    array shifted by 2*block, with the block's last entry pinned to exactly
    1.0, so a block sum that rounding left short of 1 cannot send a draw past
    it. A uniform u in [0, 1) moves a walker reading block k to the first
    entry of k whose cumulative sum reaches u: the searchsorted-left of the
    double 2k + u in flat. Block k owns the band [2k, 2k + 1], which a rounded
    2k + u never leaves: lower blocks' entries lie below 2k and higher
    blocks' above 2k + 1, and within block k, whose sums ascend up to the
    pinned 1.0, flat < 2k + u holds on a prefix. So the entry is also the
    count of flat's entries below 2k + u, and block k's first entry plus the
    count of its unpinned entries below it. target2 holds twice the block
    each entry's state reads. blocks walks by one of four routes with the
    same result: small walks by a log-depth scan over per-step block tables
    (_scan); walks of a few walkers that the scan does not take, one walker
    at a time in plain Python by bisect_left of 2k + u within block k's
    entries (_scalar); and the rest one step at a time, wide walks by that
    count over short tables (_count) and others by search. Walks come out
    as the cdf entries each step found;
    states_of maps them to states and per_entry tabulates a per-state
    quantity by entry, so a block of entries is mapped once. Start states
    come from the stationary cdf, pinned the same way.
    """

    def __init__(self, kernel: BlockKernel, pi: np.ndarray):
        B = kernel.blocks
        deg = B.sizes
        if (B.cls < 0).any() or not deg[B.cls].all():
            raise ConvergenceError("a state has no transition; chain not irreducible")
        # per-block cumsums in place, adding terms in the order np.cumsum does
        cum, first = kernel.p.copy(), B.ptr[:-1]
        for k in range(1, int(deg.max())):
            at = first[deg > k] + k
            cum[at] += cum[at - 1]
        cum[B.ptr[1:][deg > 0] - 1] = 1.0
        cum += np.repeat(2 * np.arange(B.n_blocks), deg)
        self.flat = cum
        self.cls = B.cls
        self._next = B.cls[B.states_of(np.arange(cum.size))]
        self.target2 = 2.0 * self._next
        self.states_of, self._members = B.states_of, B.members
        self._n_blocks = B.n_blocks
        self._twice = 2.0 * np.arange(B.n_blocks)
        self._ptr, self._deg = B.ptr, deg
        pic = np.cumsum(pi)
        pic[-1] = 1.0
        self._pic = pic

    def start(self, rng, n: int) -> np.ndarray:
        """n states drawn from the stationary law."""
        return np.searchsorted(self._pic, rng.random(n))

    def per_entry(self, values: np.ndarray) -> np.ndarray:
        """values[state] for the state each cdf entry moves to."""
        return values[self.states_of(np.arange(self.flat.size))]

    @property
    def scan_walkers(self) -> int:
        """The most walkers blocks walks by a scan: blocks x walkers at most
        SCAN_WIDTH, and that times the largest block degree at most SCAN_WORK."""
        K = self._n_blocks
        return min(SCAN_WIDTH // K, SCAN_WORK // (K * int(self._deg.max())))

    def blocks(self, s, rng, n_steps: int, out=None):
        """Yield the cdf entries of the n_steps steps from the W states s, a block at a time.

        Each block is a time-major (b, W) intp array, one row per step, of at
        most max(WALK_BLOCK, W) entries: fresh, or its rows of out when an
        (n_steps, W) intp out is given. Uniforms are drawn as
        rng.random((b, W)) per block, the same stream as one rng.random(W) per
        step, and every step finds the entry the serial search would, so the
        path equals the serial walk bit for bit. A walker's next block is a
        function of its block and its uniform, so up to scan_walkers walkers
        a block's steps are walked by a scan over sub-blocks of at most
        SCAN_TABLE table entries (see _scan), and up to SCALAR_WALKERS
        walkers that the scan does not take walk in plain Python (see
        _scalar). More step one at a time, from COUNT_WIDTH walkers on over
        at most COUNT_ENTRIES cdf entries by a count (see _count), else by a
        search. No walkers take the scalar route, over empty (b, 0) blocks.
        """
        s = np.asarray(s, dtype=np.intp)
        W = s.size
        rows = max(1, WALK_BLOCK // max(1, W))
        K, deg = self._n_blocks, self._deg
        scan = 0 < W <= self.scan_walkers
        scalar = W <= SCALAR_WALKERS and not scan
        count = W >= COUNT_WIDTH and self.flat.size <= COUNT_ENTRIES
        # the scan carries each walker's block, the serial walk twice it
        k, y = self.cls[s], 2.0 * self.cls[s]
        if scalar:
            # block k's needle base 2k and its entries ptr[k]..ptr[k+1]-1
            ptr = self._ptr.tolist()
            bands = list(zip(self._twice.tolist(), ptr[:-1], ptr[1:]))
        elif scan:
            sub = 1 << max(0, (SCAN_TABLE // (K * W)).bit_length() - 1)
            # the tables and levels of a sub-block, its needles, and its ramp,
            # starts and gather positions (see _scan)
            buf = np.empty((K, 2 * sub, W), dtype=np.intp)
            work = np.empty((3, sub, W), dtype=np.intp)
            work[0] = np.arange(sub * W).reshape(sub, W)
            # below[i, k]: the (i+1)-th entry of block k, +inf past its unpinned ones
            i = np.arange(int(deg.max()) - 1)[:, None]
            first = self._ptr[:-1]
            below = np.where(i < deg - 1, self.flat.take(first + i, mode="clip"), np.inf)
            needles = np.empty((K, sub, W))
            tables = (buf, work, needles, first, below, self._next * buf[0].size)
        elif count:
            counts = (np.empty(W), np.empty((self.flat.size, W), dtype=bool))
        for t0 in range(0, n_steps, rows):
            u = rng.random((min(rows, n_steps - t0), W))
            block = np.empty(u.shape, dtype=np.intp) if out is None else out[t0 : t0 + len(u)]
            if scalar:
                k = self._scalar(k, u, block, bands)
            elif scan:
                for a in range(0, len(u), sub):
                    k = self._scan(k, u[a : a + sub], block[a : a + sub], *tables)
            else:
                for j in range(len(u)):
                    if count:
                        self._count(y, u[j], block[j], *counts)
                    else:
                        block[j] = self.flat.searchsorted(y + u[j])
                        y = self.target2[block[j]]
            del u  # spent: never hold two blocks of uniforms, nor one while the caller has the block
            yield block

    def _scalar(self, k, u, out, bands) -> np.ndarray:
        """Walk the len(u) steps of the uniforms u from the blocks k into out,
        one walker at a time in plain Python, and return the blocks the
        walkers read after them, in k.

        A walker reading block k finds the entry bisect_left(flat, 2k + u,
        ptr[k], ptr[k+1]), bands[k] holding 2k and the two bounds: block k
        owns the band [2k, 2k + 1] and its pinned 1.0 closes it (see the class
        docstring), so that is the entry the serial search finds, the first
        of equal cdf entries included. flat and the blocks after each entry
        are read through memoryviews, not copied; a walker's uniforms and
        entries pass as lists SCALAR_ROWS rows at a time.
        """
        flat, nxt = memoryview(self.flat), memoryview(self._next)
        for w in range(u.shape[1]):
            y, lo, hi = bands[k[w]]
            for a in range(0, len(u), SCALAR_ROWS):
                found = []
                add = found.append
                for x in u[a : a + SCALAR_ROWS, w].tolist():
                    e = bisect_left(flat, y + x, lo, hi)
                    add(e)
                    y, lo, hi = bands[nxt[e]]
                out[a : a + SCALAR_ROWS, w] = found
            k[w] = nxt[e]
        return k

    def _count(self, y, u, out, needle, below) -> None:
        """Step the walkers at twice their blocks y with the uniforms u: write
        to out the count of flat's entries below each needle y + u, the entry
        each finds, and twice the blocks they read next to y. needle is (W,)
        doubles and below (flat.size, W) bools."""
        np.add(y, u, out=needle)
        np.less(self.flat[:, None], needle, out=below)
        below.sum(axis=0, out=out)
        self.target2.take(out, out=y, mode="clip")

    def _scan(self, k, u, out, buf, work, needles, first, below, next_scaled) -> np.ndarray:
        """Walk the len(u) steps of the uniforms u from the blocks k into out,
        and return the blocks the walkers read after them.

        Each step maps every block to the block after it, a (K, W) table; the
        walk is the exclusive prefix scan of these maps under composition
        (Blelloch 1990). The entry a walker reading block k finds with the
        uniform u is first[k] plus the count of the unpinned entries below[:,
        k] under the double 2k + u, the serial search's needle (see the class
        docstring). Up the scan, adjacent maps compose pairwise level by
        level; down it, the blocks at the start of each composed segment give
        those at the start of its halves, until every step's block is known
        and its entry is gathered.
        Time runs in bit-reversed order, padded to a power of 2 with repeats of
        the last uniforms, so each level's pairs are its two halves and every
        pass is contiguous.

        buf is (K, 2 * sub, W), K the blocks and sub >= P the sub-block, and
        needles is (K, sub, W) doubles. Columns 0..P-1 of buf hold the entry table,
        through which the maps of single steps are read, and the composed
        levels follow from column sub on. A block k is held as k * stride,
        stride the size of buf[k], so buf[k, c + p, w] is at k * stride +
        ramp[p, w] in the flat buf from c * W on, ramp[p, w] = p * W + w being
        work[0]; next_scaled holds the block after each entry so scaled. Every
        gather is one take from a contiguous slice of the flat buf.
        """
        r, W = u.shape
        P = 1 << (r - 1).bit_length()
        rev = _bit_reversal(P)
        flat, ramp, start, at = buf.reshape(-1), work[0], work[1, :P], work[2, :P]
        table, needle = buf[:, :P], needles[:, :P]
        np.add(self._twice[:, None, None], u.take(rev, axis=0, mode="clip"), out=needle)
        table[...] = first[:, None, None]
        for row in below:
            table += row[:, None, None] < needle
        # (c, n): the level of n segments, in columns c..c+n-1
        levels, h = [], P // 2
        if h >= 2:
            pair = next_scaled.take(buf[:, :h], mode="clip") + ramp[:h]
            c = buf.shape[1] // 2
            next_scaled.take(flat[h * W :].take(pair), out=buf[:, c : c + h], mode="clip")
            levels.append((c, h))
        while levels and levels[-1][1] > 2:
            c, n = levels[-1]
            h = n // 2
            pair = buf[:, c : c + h] + ramp[:h]
            flat[(c + h) * W :].take(pair, out=buf[:, c + n : c + n + h], mode="clip")
            levels.append((c + n, h))
        start[0] = k * buf[0].size
        for c, n in reversed(levels):
            h = n // 2
            np.add(start[:h], ramp[:h], out=at[:h])
            flat[c * W :].take(at[:h], out=start[h : 2 * h], mode="clip")
        h = P // 2
        np.add(start[:h], ramp[:h], out=at[:h])
        next_scaled.take(flat.take(at[:h]), out=start[h : 2 * h], mode="clip")
        np.add(start, ramp[:P], out=at)
        flat.take(at, out=start, mode="clip")
        start.take(rev[:r], axis=0, out=out, mode="clip")
        return self._next[out[-1]]

    def walk(self, s, rng, n_steps: int) -> np.ndarray:
        """The (n_steps, W) states after each step of blocks(s, rng, n_steps).

        A walk of one block returns that block's states, mapped while blocks
        is suspended on it. Longer walks are walked into the rows of one
        preallocated array and mapped to states there, so they hold their
        result, one block of uniforms and, with members, the copy through
        which take writes (out is buffered under mode="raise"), never every
        block and then a joined copy. One block stays a fresh array: on the
        golden chain's Birkhoff walk (one block per call), a preallocated one,
        or mapping only after blocks had finished, took 57,000 to 141,000
        minor page faults per 1e6 steps against about 400, and 0.2 to 0.5 s
        longer.
        """
        W = np.size(s)
        if 0 < n_steps <= max(1, WALK_BLOCK // max(1, W)):
            for block in self.blocks(s, rng, n_steps):
                return self.states_of(block)
        path = np.empty((n_steps, W), dtype=np.intp)
        for block in self.blocks(s, rng, n_steps, out=path):
            if self._members is not None:
                self._members.take(block, out=block)
        return path


class WordLookup:
    """Reads (W, n) arrays of letters in 0..N-1 against a chain's m-word states.

    The states sharing a j-prefix are one run, as the states are
    lexicographic. keys[j] holds first(u) * N + u[j] per state u, first(u)
    the start of u's j-prefix run: it ascends and stays below S * N, so one
    searchsorted per column narrows a word's run. Kernel entry k of block b is
    keyed b * N + the last letter of its state, which ascends within a block
    at every memory: a state reading b moves on letter e by the entry b * N + e.
    """

    def __init__(self, states: np.ndarray, blocks: Blocks, N: int):
        self.N, self.cls, self.states_of = N, blocks.cls, blocks.states_of
        first, self.keys = np.zeros(len(states), dtype=np.intp), []
        for col in states.T:
            self.keys.append(first * N + col)
            first = self.keys[-1].searchsorted(self.keys[-1])
        block = np.repeat(np.arange(blocks.n_blocks), blocks.sizes)
        self.entry_keys = block * N + states[blocks.states_of(np.arange(block.size)), -1]

    def runs(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The run lo..hi-1 of the states that begin with each row of a
        (W, k <= m) letter array; lo == hi when none does."""
        lo, hi = np.zeros(len(words), dtype=np.intp), np.full(len(words), len(self.keys[0]))
        for key, col in zip(self.keys, words.T):
            target, empty = lo * self.N + col, lo == hi
            lo, hi = key.searchsorted(target), key.searchsorted(target, "right")
            hi[empty] = lo[empty]
        return lo, hi

    def paths(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The states along each row of a (W, n >= m) letter array, (W, n-m+1),
        and the kernel entries between them, (W, n-m); both are -1 from where
        the row leaves the chain."""
        m = len(self.keys)
        lo, hi = self.runs(words[:, :m])
        path = np.empty((len(words), words.shape[1] - m + 1), dtype=np.intp)
        path[:, 0] = np.where(lo < hi, lo, -1)
        entries = np.empty((len(words), path.shape[1] - 1), dtype=np.intp)
        for j, u in enumerate(path[:, :-1].T):
            target = np.where(u >= 0, self.cls[u] * self.N + words[:, m + j], -1)
            k = np.minimum(self.entry_keys.searchsorted(target), self.entry_keys.size - 1)
            entries[:, j] = np.where(self.entry_keys[k] == target, k, -1)
            path[:, j + 1] = np.where(entries[:, j] >= 0, self.states_of(k), -1)
        return path, entries


class GibbsMarkovMeasure:
    """Stationary Markov chain on m-word states realizing the Gibbs state.

    kernel p(u -> v) = M[u,v] h(v) / (rho h(u)) = h(v) / (E h)[c(u)] over the
    block c(u) that u reads, so one row per block is kept; stationary
    pi(u) = nu(u) h(u). states holds the m-words, one (S, m) row each, and
    lookup reads arrays of words against them and the kernel. forward and
    backward sample the chain and its time reversal.
    """

    def __init__(self, eig: EigenData):
        self.eig = eig
        self.states = eig.states
        self.memory = eig.memory
        self.truncation = eig.truncation
        self.pressure = eig.log_rho
        self.kernel = BlockKernel.normalized(eig.matrix.blocks, eig.h)
        self.pi = eig.nu * eig.h

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def lookup(self) -> WordLookup:
        return WordLookup(self.states, self.kernel.blocks, self.truncation)

    def reversed_kernel(self) -> BlockKernel:
        """Time reversal: p_rev(v -> u) = pi(u) p(u -> v) / pi(v).

        With rho h(u) = w(u) (E h)[c(u)] this is nu(u) w(u) / (rho nu(v)), so
        v's predecessors u are drawn in proportion to nu(u) w(u).
        """
        return BlockKernel.normalized(self.kernel.blocks.reversed(),
                                      self.eig.nu * self.eig.matrix.weights)

    @cached_property
    def forward(self) -> ChainSampler:
        return ChainSampler(self.kernel, self.pi)

    @cached_property
    def backward(self) -> ChainSampler:
        return ChainSampler(self.reversed_kernel(), self.pi)


def gibbs_measure(psi: Potential, A: IncidenceMatrix, N: int) -> GibbsMarkovMeasure:
    return GibbsMarkovMeasure(rpf_eigendata(psi, A, N))


def _logs(x: np.ndarray) -> np.ndarray:
    """math.log of each entry, -inf where it is not positive (np.log can
    differ from math.log in the last bit)."""
    return np.array([math.log(v) if v > 0 else -math.inf for v in x.ravel().tolist()]).reshape(x.shape)


def _exps(x: np.ndarray) -> np.ndarray:
    """math.exp of each entry, for the same reason."""
    return np.array([math.exp(v) for v in x.tolist()])


def cylinder_log_measures(mu: GibbsMarkovMeasure, words) -> np.ndarray:
    """log mu([w]) for each row w of an (W, n) letter array; -inf for
    inadmissible or out-of-truncation rows. A row's logs are added left to
    right: log pi of its first state, then log p of each transition."""
    return _cylinder_logs(mu, words)[0]


def _cylinder_logs(mu: GibbsMarkovMeasure, words) -> tuple[np.ndarray, np.ndarray | None]:
    """cylinder_log_measures of the rows, and for rows of at least memory
    letters the state paths they were read along (WordLookup.paths; rows
    past the truncation read as zeros), else None."""
    words = _word_rows(words, 1)
    inside = ((words >= 0) & (words < mu.truncation)).all(axis=1)
    words = np.where(inside[:, None], words, 0)
    path = None
    if words.shape[1] < mu.memory:
        lo, hi = mu.lookup.runs(words)
        # the pi of each run, added one at a time in state order
        key = mu.lookup.keys[words.shape[1] - 1]
        totals = np.bincount(key.searchsorted(key), mu.pi, minlength=mu.n_states + 1)
        logs = _logs(np.where(lo < hi, totals[lo], 0.0))
    else:
        path, entries = mu.lookup.paths(words)
        vals = np.column_stack((np.where(path[:, 0] >= 0, mu.pi[path[:, 0]], 0.0),
                                np.where(entries >= 0, mu.kernel.p[entries], 0.0)))
        logs = _row_sums(_logs(vals))
    return np.where(inside, logs, -np.inf), path


def cylinder_log_measure(mu: GibbsMarkovMeasure, word: Sequence[int]) -> float:
    """log mu([word]); -inf for inadmissible or out-of-truncation words."""
    if len(word) == 0:
        raise WordLengthError("cylinder needs a nonempty word")
    # checked ahead of the intp conversion, which 10**30 would overflow
    if any(e < 0 or e >= mu.truncation for e in word):
        return -math.inf
    return float(cylinder_log_measures(mu, np.array([word], dtype=np.intp))[0])


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
    return tuple(mu.states[i[0]].tolist()) + tuple(mu.states[path, -1].tolist())


def sample_past(
    mu: GibbsMarkovMeasure, future_prefix: Sequence[int], length: int, seed: int = 0
) -> Word:
    """A past word tau, drawn from the reversed chain, with tau+future admissible."""
    m = mu.memory
    if len(future_prefix) < m:
        raise WordLengthError(f"future prefix must carry at least memory={m} letters")
    lo = hi = 0
    if all(0 <= e < mu.truncation for e in future_prefix[:m]):
        lo, hi = mu.lookup.runs(np.array([future_prefix[:m]], dtype=np.intp))
    if not lo < hi:
        raise WordLengthError("future prefix is not admissible at this truncation")
    rng = task_rng(seed)
    path = mu.backward.walk(lo, rng, length)[::-1, 0]
    return tuple(mu.states[path, 0].tolist())


def _greedy_letters(mu: GibbsMarkovMeasure, u: np.ndarray, steps: int) -> np.ndarray:
    """The letters of steps moves from the states u, each to the most probable
    next state (ties to the smallest): deterministic and admissible."""
    B, p = mu.kernel.blocks, mu.kernel.p
    # the first entry at its block's max (an irreducible chain has no empty block)
    top = p == np.repeat(B.entry_sums(p, np.maximum, -np.inf)[:-1], B.sizes)
    best = B.states_of(np.minimum.reduceat(np.where(top, np.arange(p.size), p.size), B.ptr[:-1]))
    out = np.empty((len(u), steps), dtype=np.intp)
    for j in range(steps):
        u = best[B.cls[u]]
        out[:, j] = mu.states[u, -1]
    return out


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
        vals = [max(r.exact_max, 1.0 / r.exact_min) for r in self.rows if r.exact_min is not None]
        if not vals:
            raise WordLengthError("no audited lengths reach the potential memory")
        return max(vals)

    def trend(self) -> float:
        """Slope of log d_literal against n over the stabilized lengths."""
        if len(self.rows) < 4:
            return 0.0
        rows = self.rows[2:]
        return float(np.polyfit([float(r.n) for r in rows], [math.log(r.d_literal) for r in rows], 1)[0])


def gibbs_audit(mu: GibbsMarkovMeasure, psi: Potential, n_range: Sequence[int] = range(1, 13),
                *, sample_size: int = 512, seed: int = 0) -> GibbsAudit:
    """One row per length n: every admissible n-word, or past sample_size of
    them the distinct words of sample_size stationary walks. tau is the word
    (below the memory, the first state it starts) extended greedily. A
    range with no length at or past the memory, where the exact form has no
    row, is refused before any row is computed."""
    if len(n_range) == 0:
        raise ConfigError("a Gibbs audit needs at least one cylinder length")
    m, P, eig = mu.memory, mu.pressure, mu.eig
    if max(n_range) < m:
        raise ConfigError(f"a Gibbs audit needs a cylinder length of at least the memory {m}")
    A = _mu_incidence(mu)
    rows = []
    for t, n in enumerate(n_range):
        try:
            words = _state_graph(n, A, mu.truncation, sample_size).states
        except BudgetError:
            # sample_size stationary walks of max(n, m) letters, cut to n;
            # np.unique sorts the distinct words lexicographically
            rng = task_rng(seed * 100003 + t * 1009)
            s = mu.forward.start(rng, sample_size)
            path = mu.forward.walk(s, rng, max(n, m) - m)
            letters = np.concatenate((mu.states[s], mu.states[path, -1].T), axis=1)[:, :n]
            words = np.unique(letters, axis=0)
        lm, path = _cylinder_logs(mu, words)
        keep = lm > -np.inf
        words, lm = words[keep], lm[keep]
        if not len(words):
            raise ConvergenceError(f"no admissible cylinders of length {n}")
        if n >= m:
            path = path[keep]
            head, last = words, path[:, -1]
            log_pred = (_logs(eig.nu[path[:, 0]]) + _logs(eig.h[last])
                        + _row_sums(eig.psi_vals[path[:, :-1]]) - P * (n - m))
            rex = _exps(lm - log_pred)
            exact = (float(rex.min()), float(rex.max()))
        else:
            last = mu.lookup.runs(words)[0]
            head, exact = mu.states[last], (None, None)
        tau = np.concatenate((head, _greedy_letters(mu, last, m - 1)), axis=1)[:, : n + m - 1]
        r = _exps(lm - (birkhoff_sums(psi, tau, n) - P * n))
        rows.append(GibbsAuditRow(n, len(words), float(r.min()), float(r.max()), *exact))
    return GibbsAudit(rows)


def _mu_incidence(mu: GibbsMarkovMeasure) -> IncidenceMatrix:
    """Letter-level incidence induced by the chain's admissible states."""
    allowed = np.zeros((mu.truncation, mu.truncation), dtype=bool)
    if mu.memory == 1:
        # the states are the letters, and block a holds the letters that may follow a
        B = mu.kernel.blocks
        allowed[np.repeat(np.arange(B.n_blocks), B.sizes), B.members] = True
    else:
        # candidate words only; inadmissible ones are filtered downstream
        # when cylinder_log_measures returns -inf
        allowed[mu.states[:, :-1], mu.states[:, 1:]] = True
    return IncidenceMatrix.from_table(allowed, name="from-chain")


def entropy_from_pressure(mu: GibbsMarkovMeasure) -> float:
    """h = P(psi) - integral of psi; exact for the chain since psi is m-local."""
    integral = float(mu.pi @ mu.eig.psi_vals)
    return mu.pressure - integral


def markov_entropy(mu: GibbsMarkovMeasure) -> float:
    """-sum_u pi(u) sum_w p(u->w) log p(u->w), the chain's entropy rate.

    Every state reading a block shares its row, so the row entropies are
    summed once per block and weighted by the stationary mass of its readers.
    """
    K = mu.kernel
    log_p = np.log(K.p, out=np.zeros_like(K.p), where=K.p > 0)
    row_entropy = -K.blocks.entry_sums(K.p * log_p)[:-1]
    return float(K.blocks.reader_sums(mu.pi) @ row_entropy)


def measure_to_json(mu: GibbsMarkovMeasure, max_states: int = 4096) -> dict:
    """JSON export {states, block_of, blocks, stationary, pressure}.

    State u moves to blocks[b]["states"][k] with probability blocks[b]["p"][k]
    for b = block_of[u] (-1: no move), so the export grows with the states
    plus the block entries. A measure with more than max_states states raises
    BudgetError: the config is valid, the export is over its cap.
    """
    if mu.n_states > max_states:
        raise BudgetError(
            f"measure has {mu.n_states} states; refusing export beyond {max_states}"
        )
    B, p = mu.kernel.blocks, mu.kernel.p
    members = B.states_of(np.arange(p.size)).tolist()
    ptr, p = B.ptr.tolist(), p.tolist()
    return {
        "states": mu.states.tolist(),
        "block_of": B.cls.tolist(),
        "blocks": [{"states": members[lo:hi], "p": p[lo:hi]} for lo, hi in zip(ptr[:-1], ptr[1:])],
        "stationary": mu.pi.tolist(),
        "pressure": float(mu.pressure),
    }
