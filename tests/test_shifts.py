"""Incidence matrices, potentials, pressure, and Gibbs chains."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from thermoform import shifts
from thermoform.errors import BudgetError, ConfigError, ThermoformError
from thermoform.shifts import (
    IncidenceMatrix,
    Potential,
    birkhoff_sum,
    cylinder_log_measure,
    cylinder_log_measures,
    cylinder_measure,
    entropy_from_pressure,
    enumerate_cylinders,
    gibbs_audit,
    gibbs_measure,
    is_admissible,
    letter_sups,
    markov_entropy,
    measure_to_json,
    pressure,
    rpf_eigendata,
    sample_forward,
    sample_past,
    summability_report,
    tail_ratio,
)

PHI = (1 + math.sqrt(5)) / 2

# leading eigenvalue of [[e^a, e^a], [e^b, 0]] for (a, b) = (0.3, -0.2),
# frozen from the quadratic root (e^a + sqrt(e^{2a} + 4 e^{a+b})) / 2
GOLDEN_AB_LOG_RHO = 0.6545152048013506

# log(e^0.1 + e^-0.4 + e^0.25), frozen from numpy.logaddexp.reduce
FULL3_LSE = 1.1182568579832712


def fib(n: int) -> int:
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# --- incidence


def test_full_incidence():
    A = IncidenceMatrix.full()
    assert A.is_full
    assert A.allows(0, 17) and A.allows(5, 5)


def test_golden_incidence_forbids_11():
    A = IncidenceMatrix.golden_mean()
    assert not A.is_full
    assert A.allows(0, 0) and A.allows(0, 1) and A.allows(1, 0)
    assert not A.allows(1, 1)


def test_incidence_from_config():
    assert IncidenceMatrix.from_config(None).is_full
    assert IncidenceMatrix.from_config("full").is_full
    golden = IncidenceMatrix.from_config("golden")
    assert not golden.allows(1, 1) and golden.allows(1, 0)
    forb = IncidenceMatrix.from_config({"forbidden_pairs": [[0, 2], [2, 2]]})
    assert np.array_equal(forb.submatrix(3), IncidenceMatrix.from_forbidden_pairs([(0, 2), (2, 2)]).submatrix(3))
    assert IncidenceMatrix.from_config(golden) is golden
    for bad in ("bogus", {}, {"forbidden_pairs": [[0]]}, {"forbidden_pairs": [[0, 1, 2]]},
                {"forbidden_pairs": [["a", 1]]}, {"forbidden_pairs": 5}):
        with pytest.raises(ConfigError):
            IncidenceMatrix.from_config(bad)


def test_forbidden_pairs_parser_is_strict():
    A = IncidenceMatrix.from_forbidden_pairs([[np.int64(1), 1.0], (np.uint8(0), 10**30)])
    assert A.forbidden == {(1, 1), (0, 10**30)}
    assert all(type(a) is int and type(b) is int for a, b in A.forbidden)
    for bad in ([[0, 1.5]], [[0, True]], [[0, np.bool_(True)]], [[0, -1]], [[0, "1"]],
                [[0, None]], [[[0], 1]], [[0]], [[0, 1, 2]], [np.array([0, 1])], [5], 5):
        with pytest.raises(ConfigError):
            IncidenceMatrix.from_forbidden_pairs(bad)


def test_forbidden_pairs_matrix():
    A = IncidenceMatrix.from_forbidden_pairs([(0, 2), (2, 2)])
    assert not A.allows(0, 2) and not A.allows(2, 2)
    assert A.allows(2, 0) and A.allows(1, 2)
    sub = A.submatrix(3)
    assert sub.shape == (3, 3)
    assert sub[0, 2] == 0 and sub[1, 2] == 1


def test_submatrix_ignores_pairs_outside_the_truncation():
    # the parser refuses negative letters; the constructor takes any pairs
    A = IncidenceMatrix({(-1, 0), (0, -1), (0, 4), (4, 0), (1, 2)})
    expect = np.ones((4, 4), dtype=bool)
    expect[1, 2] = False  # -1 does not wrap around to letter 3
    assert np.array_equal(A.submatrix(4), expect)
    assert np.array_equal(A.submatrix(5)[:4, :4], expect) and not A.submatrix(5)[0, 4]
    assert A.submatrix(0).shape == (0, 0)


def test_submatrix_of_a_far_letter_stays_small():
    A = IncidenceMatrix.from_forbidden_pairs([[10**9, 0]])
    tracemalloc.start()
    try:
        sub = A.submatrix(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sub.all() and sub.shape == (4, 4)
    assert peak < 2**16


def test_empty_forbidden_set_is_full():
    A = IncidenceMatrix.from_forbidden_pairs([])
    assert A.is_full and A.submatrix(6).all()


def test_incidence_is_plain_data():
    rng = np.random.default_rng(3)
    table = rng.random((7, 7)) < 0.6
    A = IncidenceMatrix.from_table(table)
    assert np.array_equal(A.submatrix(7), table)
    assert A.forbidden == {(int(a), int(b)) for a, b in np.argwhere(~table)}
    for B in (A, IncidenceMatrix.full(), IncidenceMatrix.golden_mean()):
        assert not any(callable(v) for v in vars(B).values())
    assert IncidenceMatrix.golden_mean().forbidden == {(1, 1)}
    assert IncidenceMatrix.from_table(np.ones((3, 3), dtype=bool)).is_full


def test_cylinder_counts_follow_transfer_matrix():
    A = IncidenceMatrix.golden_mean()
    # admissible n-words over {0,1} with 11 forbidden: Fibonacci growth
    for n in range(1, 10):
        words = enumerate_cylinders(n, 2, A)
        assert len(words) == fib(n + 1)
        assert all(is_admissible(w, A) for w in words)
    full = enumerate_cylinders(5, 3, IncidenceMatrix.full())
    assert len(full) == 3**5


@pytest.mark.parametrize("kind,N", [("full", 4), ("golden", 3), ("half", 6), ("dead-end", 5),
                                    ("one-pair", 3), ("empty", 3)])
def test_enumerate_cylinders_filters_all_words_in_order(kind, N):
    """The words against a filter of all N^n words: the same words in the
    same order, and BudgetError exactly when there are more than cap."""
    A = _incidence(kind, N)
    for n in range(1, 6):
        ref = [w for w in itertools.product(range(N), repeat=n) if is_admissible(w, A)]
        assert enumerate_cylinders(n, N, A) == ref
        for cap in {max(0, len(ref) - 1), len(ref)}:
            if len(ref) > cap:
                with pytest.raises(BudgetError):
                    enumerate_cylinders(n, N, A, cap=cap)
            else:
                assert enumerate_cylinders(n, N, A, cap=cap) == ref


# --- potentials


def test_constant_potential():
    psi = Potential.constant(-0.7)
    assert psi.memory == 1
    assert psi.value((4,)) == -0.7
    assert birkhoff_sum(psi, (0, 1, 2, 0), 4) == pytest.approx(-2.8, abs=1e-15)


def test_memory1_and_memory2_values():
    psi = Potential.memory1([0.1, -0.4, 0.25])
    assert psi.value((2, 0)) == 0.25
    tab = {(a, b): 0.1 * a - 0.2 * b for a in range(2) for b in range(2)}
    psi2 = Potential.memory2(tab)
    assert psi2.memory == 2
    assert psi2.value((1, 0, 1)) == pytest.approx(0.1)
    # Birkhoff sum shifts the window one letter at a time
    s = psi2.value((1, 0)) + psi2.value((0, 1)) + psi2.value((1, 1))
    assert birkhoff_sum(psi2, (1, 0, 1, 1), 3) == pytest.approx(s, abs=1e-15)


def test_potential_from_config_round_trip():
    psi = Potential.from_config({"type": "memory1-table", "values": [0.5, -0.5]})
    assert psi.value((1,)) == -0.5
    c = Potential.from_config({"type": "constant", "value": 0.25})
    assert c.value((0,)) == 0.25
    with pytest.raises(ConfigError):
        Potential.from_config({"type": "nope"})


def _table_cases():
    """(potential, per-row reference) pairs, the references reading the raw
    tables one word at a time."""
    rng = np.random.default_rng(3)
    vals1 = rng.normal(0.0, 0.5, 6).tolist()
    dict1 = {e: v for e, v in enumerate(vals1)}
    arr2 = rng.normal(0.0, 0.5, (6, 6))
    dict2 = {(a, b): float(arr2[a, b]) for a in range(6) for b in range(6)}
    arr3 = rng.normal(0.0, 0.5, (6, 6, 6))
    return {
        "constant": (Potential.constant(-0.7), lambda w: -0.7),
        "memory1-list": (Potential.memory1(vals1), lambda w: vals1[w[0]]),
        "memory1-dict": (Potential.memory1(dict1), lambda w: dict1[w[0]]),
        "memory2-array": (Potential.memory2(arr2), lambda w: float(arr2[w[0], w[1]])),
        "memory2-dict": (Potential.memory2(dict2), lambda w: dict2[(w[0], w[1])]),
        "memory3-array": (Potential(lambda w: arr3[w[:, 0], w[:, 1], w[:, 2]], memory=3),
                          lambda w: float(arr3[w[0], w[1], w[2]])),
        # a function of whole rows sees only the first m letters
        "memory2-row-sum": (Potential(lambda w: 0.1 * w.sum(axis=1), memory=2),
                            lambda w: 0.1 * (w[0] + w[1])),
    }


@pytest.mark.parametrize("case", ["constant", "memory1-list", "memory1-dict", "memory2-array",
                                  "memory2-dict", "memory3-array", "memory2-row-sum"])
def test_table_matches_per_row_reference(case):
    psi, ref = _table_cases()[case]
    # rows longer than the memory: the table reads their first m letters
    words = np.array(enumerate_cylinders(4, 6, IncidenceMatrix.from_forbidden_pairs([(0, 5)])))
    got = psi.table(words)
    assert got.dtype == np.float64 and got.shape == (len(words),)
    assert got.tolist() == [ref(w) for w in words.tolist()]
    assert [psi.value(w) for w in words.tolist()] == got.tolist()
    assert psi.table(words[:0]).shape == (0,)
    with pytest.raises(shifts.WordLengthError):
        psi.table(words[:, : psi.memory - 1])


def test_dict_table_reads_only_its_rows():
    # a far letter in a dict table allocates nothing the size of that letter
    psi = Potential.memory1({0: 1.0, 10**9: 0.0})
    out = {}
    assert _traced_peak(lambda: out.update(v=psi.table(np.zeros((1, 1), dtype=np.intp)))) < 64 * 2**10
    assert out["v"].tolist() == [1.0]


@pytest.mark.parametrize("psi", [Potential.memory1([0.0, 1.0]), Potential.memory2({(0, 0): 0.0})])
def test_table_missing_word_is_a_config_error(psi):
    with pytest.raises(ConfigError, match="lacks a word"):
        psi.table([[0, 1], [1, 1], [2, 0]])


def _dfs_letter_sup(psi, e, N, A):
    """The per-letter search letter_sups replaced: the max of psi over the
    admissible m-words that start with e."""
    best = -math.inf
    stack = [(e,)]
    while stack:
        w = stack.pop()
        if len(w) == psi.memory:
            best = max(best, psi.value(w))
            continue
        for b in range(N):
            if A.allows(w[-1], b):
                stack.append(w + (b,))
    return best


@pytest.mark.parametrize("case", ["memory2-forbidden", "memory3", "memory3-dead-letter"])
def test_letter_sups_match_per_letter_search(case):
    rng = np.random.default_rng(8)
    N = 9
    A = IncidenceMatrix.from_forbidden_pairs(np.argwhere(rng.random((N, N)) < 0.3).tolist())
    if case == "memory2-forbidden":
        psi = Potential.memory2(rng.normal(0.0, 0.5, (N, N)))
    else:
        psi = _poly_potential(3)
    if case == "memory3-dead-letter":
        # letter 4 has no successor, so it starts no 3-word and stays -inf
        A = IncidenceMatrix(A.forbidden | {(4, b) for b in range(N)})
    states = shifts._state_graph(psi.memory, A, N, 10**6).states
    got = letter_sups(states, psi.table(states), N)
    ref = [_dfs_letter_sup(psi, e, N, A) for e in range(N)]
    assert got.tolist() == ref
    assert (got[4] == -np.inf) == (case == "memory3-dead-letter")


def test_state_graph_does_not_evaluate_the_potential():
    def refuse(words):
        raise AssertionError("the state graph read psi")

    psi = Potential(refuse, memory=3)
    graph = shifts._state_graph(psi.memory, IncidenceMatrix.golden_mean(), 2, 100)
    assert graph.states.tolist() == [[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 0, 1]]
    with pytest.raises(AssertionError):
        psi.table(graph.states)


def test_birkhoff_sum_adds_windows_in_order():
    psi = _poly_potential(2)
    word = (3, 1, 4, 1, 5, 9, 2)
    ref = 0
    for k in range(5):
        ref += psi.value(word[k: k + 2])
    assert birkhoff_sum(psi, word, 5) == ref


# --- summability


def test_tail_ratio_small_for_decaying_weights():
    # letter weights 1/(e+1)^2 sum to pi^2/6; the top 2,048 of 4,096 letters
    # carry about 1.5e-4 of it
    vals = np.array([-2.0 * math.log(e + 1.0) for e in range(4096)])
    rep = summability_report(vals)
    assert rep.truncations == [32, 64, 128, 256, 512, 1024, 2048, 4096]
    assert rep.partial_sums[-1] == pytest.approx(math.pi**2 / 6, abs=1e-3)
    assert rep.tail_ratio < 1e-3
    assert rep.tail_ratio == tail_ratio(vals)


def test_tail_ratio_flags_slow_tails():
    # letter weights ~ 1/(e+1): harmonic, the top half keeps about 8 % of the sum
    vals = np.array([-math.log(e + 1.0) for e in range(4096)])
    rep = summability_report(vals)
    assert rep.tail_ratio > 1e-3
    assert rep.tail_ratio == tail_ratio(vals)


# --- m-word state graph


def _poly_potential(m):
    """sum over the first m letters e_k of 0.1 (k + 1) e_k - 0.05 e_k^2, one
    row at a time in letter order."""
    def fn(w):
        out = np.zeros(len(w))
        for k in range(m):
            e = w[:, k].astype(float)
            out += 0.1 * (k + 1) * e - 0.05 * e * e
        return out

    return Potential(fn, memory=m)


def _loop_state_graph(psi, A, N, state_cap):
    """Reference builder: one predicate call per candidate transition, on
    the admissible words among all N^m in lexicographic order."""
    m = psi.memory
    states = [w for w in itertools.product(range(N), repeat=m) if is_admissible(w, A)]
    if len(states) > state_cap:
        raise BudgetError(f"{len(states)} states pass the cap {state_cap}")
    index = {w: i for i, w in enumerate(states)}
    psi_vals = np.array([psi.value(w) for w in states], dtype=float)
    rows, cols = [], []
    for i, u in enumerate(states):
        suffix = u[1:]
        last = u[-1]
        for e in range(N):
            if A.allows(last, e):
                j = index.get(suffix + (e,))
                if j is not None:
                    rows.append(i)
                    cols.append(j)
    S = len(states)
    adj = sp.csr_matrix(
        (np.ones(len(rows)), (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))),
        shape=(S, S),
    )
    return states, index, psi_vals, adj


def _incidence(kind, N):
    if kind == "full":
        return IncidenceMatrix.full()
    if kind == "golden":
        return IncidenceMatrix.golden_mean()
    if kind == "half":
        rng = np.random.default_rng(12)
        return IncidenceMatrix.from_forbidden_pairs(np.argwhere(rng.random((N, N)) < 0.5).tolist())
    if kind == "dead-end":
        # letter N-1 has no successor; on top of that, half of the pairs are
        # forbidden, so words die at several depths before reaching length m
        rng = np.random.default_rng(29)
        forbidden = np.argwhere(rng.random((N, N)) < 0.5).tolist()
        return IncidenceMatrix.from_forbidden_pairs(forbidden + [(N - 1, b) for b in range(N)])
    every = [(a, b) for a in range(N) for b in range(N)]
    if kind == "one-pair":
        # only 0 -> 1: the 2-words are one dead end, and no 3-word exists
        return IncidenceMatrix.from_forbidden_pairs([p for p in every if p != (0, 1)], "one-pair")
    return IncidenceMatrix.from_forbidden_pairs(every, "empty")


STATE_GRAPH_GRID = [
    (kind, N, m)
    for kind, N in [("full", 5), ("golden", 5), ("half", 12), ("dead-end", 5), ("empty", 5)]
    for m in range(1, 5)
] + [(kind, 2, 10) for kind in ["full", "golden", "dead-end", "empty"]]


def _assemble_csr(blocks):
    """The S x S transition CSR of a block structure, one entry per
    transition: the assembly the state graph made before it kept blocks."""
    S = blocks.n_states
    counts = blocks.out_degree
    _, offsets = shifts._blocks(counts)
    entries = blocks.ptr[np.repeat(blocks.cls, counts)] + offsets
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return sp.csr_matrix((np.ones(entries.size), blocks.states_of(entries), indptr),
                         shape=(S, S))


def _reference_graph(psi, A, N, state_cap):
    """_state_graph with its state rows as tuples and its blocks assembled
    into the transition CSR."""
    g = shifts._state_graph(psi.memory, A, N, state_cap)
    return list(map(tuple, g.states.tolist())), psi.table(g.states), _assemble_csr(g.blocks)


@pytest.mark.parametrize("kind,N,m", STATE_GRAPH_GRID)
def test_state_graph_matches_loop_builder(kind, N, m):
    A = _incidence(kind, N)
    psi = _poly_potential(m)
    ref = _loop_state_graph(psi, A, N, 10**6)
    graph = shifts._state_graph(psi.memory, A, N, 10**6)
    got = _reference_graph(psi, A, N, 10**6)
    # the states are one (S, m) array of letters, in the loop builder's order
    assert graph.states.dtype == np.intp and graph.states.shape == (len(ref[0]), m)
    assert got[0] == ref[0]
    assert got[1].dtype == ref[2].dtype and np.array_equal(got[1], ref[2])
    assert got[2].shape == ref[3].shape
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got[2], part), getattr(ref[3], part)
        assert a.dtype == b.dtype and np.array_equal(a, b), part
    # the blocks hold one entry per state (per letter edge at memory 1)
    assert graph.blocks.nnz == ref[3].nnz
    stored = graph.blocks.cls.size + graph.blocks.ptr.size
    stored += 0 if graph.blocks.members is None else graph.blocks.members.size
    assert stored <= 2 * len(ref[0]) + 1 + (ref[3].nnz if m == 1 else 0)
    S = len(ref[0])
    if S:
        with pytest.raises(BudgetError):
            _loop_state_graph(psi, A, N, S - 1)
        with pytest.raises(BudgetError):
            shifts._state_graph(m, A, N, S - 1)


# --- pressure


def _segment_max(values, indptr, S):
    """The scatter tail pass that pressure() used before its reduceat."""
    out = np.full(S, -np.inf)
    rows = np.repeat(np.arange(S), np.diff(indptr))
    np.maximum.at(out, rows, values)
    return out


def _reference_pressure(psi, A, N, n_max, state_cap=200_000):
    """pressure() on the transition CSR, with the scatter tail and a CSR copy
    of the transpose."""
    m = psi.memory
    if A.is_full and m == 1:
        return pressure(psi, A, N, n_max=n_max, state_cap=state_cap)
    states, psi_vals, adj = _reference_graph(psi, A, N, state_cap)
    S = len(states)
    if S == 0:
        raise shifts.ConvergenceError("no admissible states at this truncation")
    adj_t = adj.T.tocsr()
    tail = np.zeros(S)
    for _ in range(m - 1):
        tail = _segment_max(psi_vals[adj.indices] + tail[adj.indices], adj.indptr, S)
    psi_top = psi_vals.max()
    w = np.exp(psi_vals - psi_top)
    vec = w.copy()
    shift = psi_top
    tail_top = tail.max()
    if not np.isfinite(tail_top):
        raise shifts.ConvergenceError("every state is a dead end at this truncation")
    tail_w = np.exp(tail - tail_top)
    log_lams = []
    for n in range(m, n_max + 1):
        if n > m:
            vec = adj_t @ vec
            vec *= w
            mx = float(vec.max())
            if mx <= 0.0 or not np.isfinite(mx):
                raise shifts.ConvergenceError(f"cylinder weights vanished at level n={n}")
            vec /= mx
            shift += math.log(mx) + psi_top
        lam = float(vec @ tail_w)
        if lam <= 0.0:
            raise shifts.ConvergenceError(f"no extendable cylinders at level n={n}")
        log_lams.append(shift + tail_top + math.log(lam))
    levels = [lg / n for n, lg in zip(range(m, n_max + 1), log_lams)]
    estimates = [levels[0], *np.diff(log_lams).tolist()]
    gap = abs(estimates[-1] - estimates[-2]) if len(estimates) >= 2 else 0.0
    return shifts.PressureEstimate(levels, estimates[-1], N, m, gap)


def _reference_eigendata(psi, A, N, tol=1e-13, max_iter=10**6, state_cap=200_000):
    """rpf_eigendata() on the transition CSR and a CSR copy of its transpose."""
    states, psi_vals, adj = _reference_graph(psi, A, N, state_cap)
    S = len(states)
    if S == 0:
        raise shifts.ConvergenceError("no admissible states at this truncation")
    ncomp, _ = connected_components(adj, directed=True, connection="strong")
    if ncomp != 1:
        raise shifts.NotIrreducibleError(
            f"state graph has {ncomp} strongly connected components at truncation {N}"
        )
    scale = float(psi_vals.max())
    weights = np.exp(psi_vals - scale)
    rows = np.repeat(np.arange(S), np.diff(adj.indptr))
    M = sp.csr_matrix((weights[rows], adj.indices.copy(), adj.indptr.copy()), shape=(S, S))
    Mt = M.T.tocsr()
    shift = 0.5 * float(M.data.max()) if M.nnz else 1.0
    rho_s, h, its_r = shifts._power_iteration(M.dot, S, shift, tol, max_iter)
    rho_l, nu, its_l = shifts._power_iteration(Mt.dot, S, shift, tol, max_iter)
    nu = nu / nu.sum()
    h = h / float(nu @ h)
    resid_r = float(np.abs(M @ h - rho_s * h).max()) / rho_s
    resid_l = float(np.abs(Mt @ nu - rho_l * nu).max()) / rho_l
    return dict(log_rho=scale + math.log(rho_s), rho_scaled=rho_s, scale=scale, h=h, nu=nu,
                matrix=M, residual=max(resid_r, resid_l), iterations=its_r + its_l)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except ThermoformError as exc:
        return None, (type(exc), str(exc))


# dead-end graphs have empty rows inside and at the end of the CSR
ROUTE_GRID = STATE_GRAPH_GRID + [("one-pair", 2, m) for m in range(1, 4)]


# block sums add in another order than the CSR rows: the routes agree to
# rounding, not bit for bit
RTOL = 1e-13


def _close(got, ref):
    return np.allclose(got, ref, rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("kind,N,m", ROUTE_GRID)
def test_pressure_matches_scatter_reference(kind, N, m):
    A = _incidence(kind, N)
    psi = _poly_potential(m)
    n_max = m + 6
    got, err = _outcome(pressure, psi, A, N, n_max=n_max)
    ref, ref_err = _outcome(_reference_pressure, psi, A, N, n_max)
    assert err == ref_err
    if ref is not None:
        assert _close(got.levels, ref.levels)
        assert _close(got.value, ref.value)
        # a difference of two estimates: its error is theirs, not its own size
        assert abs(got.gap - ref.gap) <= RTOL * max(map(abs, ref.levels))
        assert (got.truncation, got.memory) == (ref.truncation, ref.memory)


@pytest.mark.parametrize("kind,N,m", [c for c in ROUTE_GRID if c != ("one-pair", 2, 2)])
def test_eigendata_matches_csr_transpose_reference(kind, N, m):
    A = _incidence(kind, N)
    psi = _poly_potential(m)
    got, err = _outcome(rpf_eigendata, psi, A, N)
    ref, ref_err = _outcome(_reference_eigendata, psi, A, N)
    assert err == ref_err
    if ref is not None:
        assert got.scale == ref["scale"] and got.iterations == ref["iterations"]
        for key in ("log_rho", "rho_scaled"):
            assert _close(getattr(got, key), ref[key]), key
        assert _close(got.h, ref["h"]) and _close(got.nu, ref["nu"])
        # max |M h - rho h| / rho: a difference of near-equal sums, so absolute
        assert abs(got.residual - ref["residual"]) < RTOL
        assert got.matrix.nnz == ref["matrix"].nnz


def _dense(kernel):
    """The S x S matrix of a block kernel."""
    S = kernel.blocks.n_states
    P = np.zeros((S, S))
    for u in range(S):
        cols, probs = kernel.row(u)
        P[u, cols] = probs
    return P


def _normalize_rows(P):
    return sp.csr_matrix(P.multiply(1.0 / np.asarray(P.sum(axis=1))))


def _reference_kernels(ref):
    """The Gibbs kernel M[u, v] h(v) / (rho h(u)) and its time reversal
    pi(u) p(u -> v) / pi(v) on the CSR eigendata, each row divided by its
    sum: they summed to 1 only within the eigen residual (about 1e-12), and
    the block kernels normalize each row exactly."""
    M, h, nu = ref["matrix"], ref["h"], ref["nu"]
    deg = np.diff(M.indptr)
    K = sp.csr_matrix((M.data * h[M.indices] / np.repeat(ref["rho_scaled"] * h, deg),
                       M.indices, M.indptr), shape=M.shape)
    pi = nu * h
    KT = K.T.tocsr()
    R = sp.csr_matrix((KT.data * pi[KT.indices] / np.repeat(pi, np.diff(KT.indptr)),
                       KT.indices, KT.indptr), shape=KT.shape)
    return _normalize_rows(K).toarray(), _normalize_rows(R).toarray()


@pytest.mark.parametrize("kind,N,m", [
    ("full", 5, 1), ("golden", 5, 1), ("half", 12, 1), ("half", 12, 2), ("half", 12, 3),
    ("full", 5, 3), ("golden", 5, 4), ("golden", 2, 10), ("dead-end", 5, 1),
    ("dead-end", 5, 2), ("dead-end", 5, 3),
])
def test_gibbs_kernels_match_csr_reference(kind, N, m):
    A = _incidence(kind, N)
    psi = _poly_potential(m)
    ref, err = _outcome(_reference_eigendata, psi, A, N)
    mu, got_err = _outcome(gibbs_measure, psi, A, N)
    assert got_err == err
    if ref is None:  # a dead end leaves the graph reducible: no chain
        return
    K, R = _reference_kernels(ref)
    got_K, got_R = _dense(mu.kernel), _dense(mu.reversed_kernel())
    assert np.array_equal(got_K > 0, K > 0) and np.array_equal(got_R > 0, R > 0)
    assert _close(got_K, K) and _close(got_R, R)
    assert _close(mu.pi, ref["nu"] * ref["h"])


def test_pressure_full_shift_constant_zero():
    est = pressure(Potential.constant(0.0), IncidenceMatrix.full(), 5, n_max=8)
    assert est.value == pytest.approx(math.log(5), abs=1e-12)
    # every level is already exact on a full shift
    for lv in est.levels:
        assert lv == pytest.approx(math.log(5), abs=1e-12)


def test_pressure_full_shift_memory1_table():
    psi = Potential.memory1([0.1, -0.4, 0.25])
    est = pressure(psi, IncidenceMatrix.full(), 3, n_max=8)
    assert est.value == pytest.approx(FULL3_LSE, abs=1e-10)


def test_pressure_golden_mean_approaches_log_phi():
    est = pressure(Potential.constant(0.0), IncidenceMatrix.golden_mean(), 2,
                   n_max=14)
    assert est.value == pytest.approx(math.log(PHI), abs=1e-5)
    # tail-sup levels decrease toward the limit from above
    diffs = np.diff(est.levels)
    assert (diffs <= 1e-12).all()
    assert est.levels[-1] >= math.log(PHI) - 1e-12


def test_pressure_state_cap_guard(monkeypatch):
    # the full-shift memory-1 fast path never builds states, so block one pair
    def no_table(self, N):
        raise AssertionError(f"built the {N} x {N} letter table")

    monkeypatch.setattr(IncidenceMatrix, "submatrix", no_table)
    A = IncidenceMatrix.from_forbidden_pairs([(0, 0)])
    # 100,000 one-letter states exceed the cap before the 10^10 table is built
    with pytest.raises(BudgetError):
        pressure(Potential.constant(0.0), A, 100_000, n_max=2, state_cap=100)


def test_pressure_near_decoupled_memory2_matches_dense():
    # levels (1/n) log Lambda_n sit near log(2)/n here; the ratio estimate
    # must not inherit that C/n error
    table = np.where(np.eye(2, dtype=bool), 0.0, -15.0)
    ref = math.log(np.abs(np.linalg.eigvals(np.exp(table))).max())
    est = pressure(Potential.memory2(table), IncidenceMatrix.full(), 2)
    assert est.value == pytest.approx(ref, abs=1e-12)
    assert est.gap < 1e-12


# --- transfer eigendata


def test_eigendata_golden_constant_zero():
    eig = rpf_eigendata(Potential.constant(0.0), IncidenceMatrix.golden_mean(), 2)
    assert math.exp(eig.log_rho) == pytest.approx(PHI, abs=1e-14)
    assert eig.residual < 1e-12
    assert (eig.h > 0).all() and (eig.nu > 0).all()


def test_eigendata_golden_memory1_matches_frozen_quadratic():
    psi = Potential.memory1([0.3, -0.2])
    eig = rpf_eigendata(psi, IncidenceMatrix.golden_mean(), 2)
    assert eig.log_rho == pytest.approx(GOLDEN_AB_LOG_RHO, abs=1e-12)


def test_eigendata_agrees_with_level_pressure():
    psi = Potential.memory1([0.2, -0.1, 0.0])
    A = IncidenceMatrix.from_forbidden_pairs([(2, 2)])
    eig = rpf_eigendata(psi, A, 3)
    est = pressure(psi, A, 3, n_max=12)
    assert est.value == pytest.approx(eig.log_rho, abs=1e-6)
    assert est.levels[-1] >= eig.log_rho - 1e-12


def test_eigendata_rejects_graph_without_transitions():
    # one state and no transition (the reference route divides by zero there)
    cases = [(_incidence("one-pair", 2), 2, 2),
             (IncidenceMatrix.from_forbidden_pairs([(0, 0)]), 1, 1)]
    for A, N, m in cases:
        psi = Potential(lambda w: np.zeros(len(w)), memory=m)
        with pytest.raises(shifts.NotIrreducibleError, match="no transitions"):
            rpf_eigendata(psi, A, N)


@pytest.mark.parametrize("A,N,m", [
    (IncidenceMatrix.full(), 4, 1),
    (IncidenceMatrix.golden_mean(), 2, 1),
    (IncidenceMatrix.from_forbidden_pairs([(0, 1), (2, 2)]), 3, 2),
], ids=["full-m1", "golden-m1", "forbidden-m2"])
def test_truncated_shift_reads_one_graph(monkeypatch, A, N, m):
    # the front's three readings equal the public routes bit for bit, and a
    # front builds its state graph at most once, only when a reading needs it
    psi = _poly_potential(m)
    closed = A.is_full and m == 1
    ref = pressure(psi, A, N, n_max=6)
    ref_rho = pressure(psi, A, N, n_max=1).value if closed else rpf_eigendata(psi, A, N).log_rho

    builds, real = [], shifts._state_graph
    monkeypatch.setattr(shifts, "_state_graph", lambda *a: builds.append(a) or real(*a))
    front = shifts.TruncatedShift(m, A, N, 200_000)
    vals = psi.table(front.states)
    est, rho = front.levels(vals, 6), front.log_rho(vals)
    assert len(builds) == (0 if closed else 1)
    eig = front.eigendata(vals)
    assert front.levels(vals, 6) == est and front.log_rho(vals) == rho
    assert len(builds) == 1

    for field in ("levels", "value", "truncation", "memory", "gap"):
        assert getattr(est, field) == getattr(ref, field), field
    assert rho.hex() == ref_rho.hex()
    assert eig.log_rho.hex() == rpf_eigendata(psi, A, N).log_rho.hex()


def test_pressure_rejects_n_max_below_memory_before_the_graph(monkeypatch):
    # 600 letters at memory 2 make more states than the cap of 100: the bad
    # n_max is a ConfigError, found before any state graph is built
    builds, real = [], shifts._state_graph
    monkeypatch.setattr(shifts, "_state_graph", lambda *a: builds.append(a) or real(*a))
    psi = Potential.memory2(np.zeros((600, 600)))
    A = IncidenceMatrix.from_forbidden_pairs([[0, 1]])
    with pytest.raises(ConfigError, match="n_max=1 below potential memory 2"):
        pressure(psi, A, 600, n_max=1, state_cap=100)
    assert builds == []


def _count_scipy_calls(monkeypatch) -> list:
    import scipy.sparse.csgraph as csgraph

    calls, real = [], csgraph.connected_components
    monkeypatch.setattr(csgraph, "connected_components",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


def _cycles(*lengths) -> IncidenceMatrix:
    """Letters on disjoint cycles a -> a + 1 of the given lengths, in order."""
    N = sum(lengths)
    allowed = np.zeros((N, N), dtype=bool)
    start = 0
    for n in lengths:
        a = np.arange(start, start + n)
        allowed[a, start + (a - start + 1) % n] = True
        start += n
    return IncidenceMatrix.from_table(allowed)


def test_bench_state_graphs_are_irreducible_without_scipy(monkeypatch):
    calls = _count_scipy_calls(monkeypatch)
    rng = np.random.default_rng(3)
    allow = rng.random((150, 150)) >= 0.10
    allow[np.arange(150), (np.arange(150) + 1) % 150] = True
    cases = [(2, IncidenceMatrix.full(), 8), (2, IncidenceMatrix.full(), 10),
             (60, IncidenceMatrix.full(), 2), (2, IncidenceMatrix.golden_mean(), 1),
             (150, IncidenceMatrix.from_table(allow), 2), (100, IncidenceMatrix.full(), 2)]
    for N, A, m in cases:
        assert shifts._state_graph(m, A, N, 10**6).blocks.n_components == 1
    assert calls == []


@pytest.mark.parametrize("lengths,count", [
    ((shifts.REACH_ROUNDS + 2,), 1),  # one cycle, longer than the round bound
    ((3, 2), 2),  # reducible: the bound is never reached
    ((shifts.REACH_ROUNDS + 2, 1), 2),
])
def test_components_past_the_round_bound_are_counted_by_scipy(monkeypatch, lengths, count):
    calls = _count_scipy_calls(monkeypatch)
    A = _cycles(*lengths)
    N = sum(lengths)
    for m in (1, 2):
        assert shifts._state_graph(m, A, N, 10**6).blocks.n_components == count
    assert len(calls) == 2


# --- Gibbs chains


@pytest.fixture(scope="module")
def golden_chain():
    return gibbs_measure(Potential.constant(0.0), IncidenceMatrix.golden_mean(), 2)


def test_golden_chain_stationary_law(golden_chain):
    mu = golden_chain
    # closed form: pi = (phi^2, 1) / (1 + phi^2)
    assert mu.pi[0] == pytest.approx(PHI**2 / (1 + PHI**2), abs=1e-12)
    assert mu.pi[1] == pytest.approx(1 / (1 + PHI**2), abs=1e-12)
    K = _dense(mu.kernel)
    assert K.sum(axis=1) == pytest.approx(np.ones(2), abs=1e-14)
    assert mu.pi @ K == pytest.approx(mu.pi, abs=1e-14)


def test_reversed_kernel_is_stochastic_and_stationary(golden_chain):
    mu = golden_chain
    R = _dense(mu.reversed_kernel())
    assert R.sum(axis=1) == pytest.approx(np.ones(2), abs=1e-12)
    assert mu.pi @ R == pytest.approx(mu.pi, abs=1e-12)


def test_cylinder_measures_golden(golden_chain):
    mu = golden_chain
    # [0] and [1] split the mass, [11] carries none
    assert cylinder_measure(mu, (0,)) + cylinder_measure(mu, (1,)) == pytest.approx(1.0)
    assert cylinder_measure(mu, (1, 1)) == 0.0
    assert cylinder_log_measure(mu, (1, 1)) == -math.inf


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cylinder_additivity_sweep(golden_chain, n):
    mu = golden_chain
    A = IncidenceMatrix.golden_mean()
    total = 0.0
    for w in enumerate_cylinders(n, 2, A):
        m_w = cylinder_measure(mu, w)
        total += m_w
        ext = sum(cylinder_measure(mu, w + (e,)) for e in range(2))
        assert ext == pytest.approx(m_w, abs=1e-14)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_letters_past_the_truncation_weigh_nothing(golden_chain):
    mu = golden_chain
    # 10**30 has no intp form, so the letters are checked before conversion
    for w in [(0, 10**30), (10**30,), (-1,), (0, -1, 0), (2,), (-(10**30), 1), (0, 2**64)]:
        assert cylinder_log_measure(mu, w) == -math.inf
        assert cylinder_measure(mu, w) == 0.0
    got = cylinder_log_measures(mu, np.array([[0, 2], [-1, 0], [0, 1], [1, 1]]))
    assert got[[0, 1, 3]].tolist() == [-math.inf] * 3 and got[2] > -math.inf
    for future in [(2, 0), (10**30, 0), (-1, 1)]:
        with pytest.raises(shifts.WordLengthError):
            sample_past(mu, future, 5)


def test_cylinder_additivity_full3_memory1():
    psi = Potential.memory1([0.1, -0.4, 0.25])
    mu = gibbs_measure(psi, IncidenceMatrix.full(), 3)
    for w in [(0,), (2, 1), (1, 0, 2)]:
        ext = sum(cylinder_measure(mu, w + (e,)) for e in range(3))
        assert ext == pytest.approx(cylinder_measure(mu, w), abs=5e-13)


def test_sample_forward_deterministic_and_admissible(golden_chain):
    mu = golden_chain
    w1 = sample_forward(mu, 400, seed=7)
    w2 = sample_forward(mu, 400, seed=7)
    assert w1 == w2
    assert len(w1) == 400
    assert is_admissible(w1, IncidenceMatrix.golden_mean())
    assert sample_forward(mu, 400, seed=8) != w1


def test_sample_forward_letter_frequencies(golden_chain):
    mu = golden_chain
    counts = np.zeros(2)
    for s in range(16):
        w = sample_forward(mu, 2500, seed=s)
        for e in w:
            counts[e] += 1
    freq = counts / counts.sum()
    # 40k draws: keep a generous 4-sigma band around pi
    assert abs(freq[0] - mu.pi[0]) < 0.01


def test_sample_past_extends_backward(golden_chain):
    mu = golden_chain
    prefix = (1, 0)
    past = sample_past(mu, prefix, 50, seed=3)
    assert len(past) == 50
    # a past word must still feed admissibly into the given future
    assert is_admissible(past + prefix, IncidenceMatrix.golden_mean())
    assert past == sample_past(mu, prefix, 50, seed=3)


# --- Gibbs audits


def test_audit_exact_form_golden(golden_chain):
    aud = gibbs_audit(golden_chain, Potential.constant(0.0), range(1, 13))
    assert 1.0 <= aud.d_exact <= 1.0 + 1e-9
    assert abs(aud.trend()) < 1e-6
    # counts follow the admissible-word ladder
    assert [r.count for r in aud.rows[:5]] == [2, 3, 5, 8, 13]


def test_audit_exact_form_full3_memory1():
    psi = Potential.memory1([0.1, -0.4, 0.25])
    mu = gibbs_measure(psi, IncidenceMatrix.full(), 3)
    aud = gibbs_audit(mu, psi, range(1, 13))
    assert 1.0 <= aud.d_exact <= 1.0 + 1e-9
    assert aud.d_literal < 10.0


def test_audit_memory2_literal_band_is_flat():
    table = {(a, b): 0.12 * a - 0.3 * b + 0.05 * a * b
             for a in range(3) for b in range(3)}
    psi = Potential.memory2(table)
    mu = gibbs_measure(psi, IncidenceMatrix.full(), 3)
    aud = gibbs_audit(mu, psi, range(2, 13))
    assert 1.0 <= aud.d_exact <= 1.0 + 1e-9
    assert abs(aud.trend()) < 1e-6
    # the literal ratio band stays put once boundary effects saturate
    first, last = aud.rows[0], aud.rows[-1]
    assert last.r_max / last.r_min == pytest.approx(first.r_max / first.r_min,
                                                    rel=1e-9)


def test_audit_samples_past_the_enumeration_cap():
    # past 16 words a length draws 16 stationary walks and audits their
    # distinct words
    A = IncidenceMatrix.from_forbidden_pairs([(1, 1), (2, 0)])
    psi = Potential.memory2({(a, b): 0.1 * a - 0.2 * b for a in range(3) for b in range(3)})
    mu = gibbs_measure(psi, A, 3)
    aud = gibbs_audit(mu, psi, range(2, 9), sample_size=16, seed=4)
    for t, row in enumerate(aud.rows):
        n = row.n
        if len(enumerate_cylinders(n, 3, A)) <= 16:
            assert row.count == len(enumerate_cylinders(n, 3, A))
            continue
        # the walks, one word per walker: its start state, then the last
        # letter of each state it steps to
        rng = shifts.task_rng(4 * 100003 + t * 1009)
        s = mu.forward.start(rng, 16)
        path = mu.forward.walk(s, rng, n - 2)
        words = {tuple(mu.states[s[i]].tolist()) + tuple(mu.states[path[:, i], -1].tolist())
                 for i in range(16)}
        assert all(is_admissible(w, A) for w in words)
        assert row.count == len(words) > 1
    assert 1.0 <= aud.d_exact <= 1.0 + 1e-9
    assert gibbs_audit(mu, psi, range(2, 9), sample_size=16, seed=4).rows == aud.rows
    assert gibbs_audit(mu, psi, range(2, 9), sample_size=16, seed=5).rows != aud.rows


# --- batched cylinder reads against per-word loops


def _parity_chain(name):
    """psi, incidence, letters, audited lengths and sample size of a chain."""
    if name == "golden":
        return Potential.constant(0.0), IncidenceMatrix.golden_mean(), 2, range(1, 13), 512
    if name == "full3-memory1":
        return Potential.memory1([0.1, -0.4, 0.25]), IncidenceMatrix.full(), 3, range(1, 13), 512
    if name == "forbidden-memory1":
        A = IncidenceMatrix.from_forbidden_pairs([(0, 2), (2, 2), (4, 1), (3, 3)])
        return Potential.memory1([0.3, -0.2, 0.1, 0.05, -0.4]), A, 5, range(1, 9), 64
    if name == "symbolic-memory2":
        # the full-shift table of the symbolic benchmark at seed 901: N = 100,
        # 10^4 states, every length past the enumeration cap
        rng = np.random.default_rng(901)
        rng.normal(0.0, 0.5, (150, 150)), rng.random((150, 150))
        return (Potential.memory2(rng.normal(0.0, 0.5, (100, 100))), IncidenceMatrix.full(),
                100, range(2, 9), 256)
    # sparse memory 3: about 45 % of the pairs forbidden, a -> a+1 mod 7 kept
    forbidden = np.argwhere(np.random.default_rng(5).random((7, 7)) < 0.45).tolist()
    A = IncidenceMatrix.from_forbidden_pairs([p for p in forbidden if p[1] != (p[0] + 1) % 7])
    psi = Potential(lambda w: 0.2 * w[:, 0] - 0.1 * w[:, 1] * w[:, 2] + 0.05 * w[:, 2], memory=3)
    return psi, A, 7, range(1, 10), 128


class _PerWord:
    """One word at a time, as the chain was read before word arrays: a dict
    from state tuples to states, K[u, v] from u's kernel row (the dense
    kernel's row u), and each log added left to right in Python floats."""

    def __init__(self, mu):
        self.mu = mu
        self.states = list(map(tuple, mu.states.tolist()))
        self.index = {s: i for i, s in enumerate(self.states)}

    def path(self, w):
        m = self.mu.memory
        return [self.index.get(tuple(w[k: k + m])) for k in range(len(w) - m + 1)]

    def kernel(self, u, v):
        cols, probs = self.mu.kernel.row(u)
        hit = np.flatnonzero(cols == v)
        return float(probs[hit[0]]) if hit.size else 0.0

    def greedy(self, i, steps):
        out = ()
        for _ in range(steps):
            cols, vals = self.mu.kernel.row(i)
            i = int(cols[vals == vals.max()].min())
            out += (self.states[i][-1],)
        return out

    def log_measure(self, w):
        mu = self.mu
        if any(e < 0 or e >= mu.truncation for e in w):
            return -math.inf
        if len(w) < mu.memory:
            total = 0.0
            for i, s in enumerate(self.states):
                if s[: len(w)] == tuple(w):
                    total += mu.pi[i]
            return math.log(total) if total > 0 else -math.inf
        path = self.path(w)
        if None in path:
            return -math.inf
        vals = [mu.pi[path[0]]] + [self.kernel(u, v) for u, v in zip(path, path[1:])]
        if min(vals) <= 0:
            return -math.inf
        acc = math.log(vals[0])
        for p in vals[1:]:
            acc += math.log(p)
        return acc

    def audit_row(self, psi, n, words):
        mu, m, eig = self.mu, self.mu.memory, self.mu.eig
        r, rex = [], []
        for w in words:
            lm = self.log_measure(w)
            if lm == -math.inf:
                continue
            if n >= m:
                path = self.path(w)
                tau = tuple(w) + self.greedy(path[-1], m - 1)
                s_trans = sum(eig.psi_vals[i] for i in path[:-1])
                log_pred = (math.log(eig.nu[path[0]]) + math.log(eig.h[path[-1]]) + s_trans
                            - mu.pressure * (n - m))
                rex.append(math.exp(lm - log_pred))
            else:
                first = next(i for i, s in enumerate(self.states) if s[:n] == tuple(w))
                tau = (self.states[first] + self.greedy(first, m - 1))[: n + m - 1]
            sn = 0
            for k in range(n):
                sn += psi.value(tau[k: k + psi.memory])
            r.append(math.exp(lm - (sn - mu.pressure * n)))
        exact = (min(rex), max(rex)) if n >= m else (None, None)
        return shifts.GibbsAuditRow(n, len(r), min(r), max(r), *exact)


@pytest.mark.parametrize("name", ["golden", "full3-memory1", "forbidden-memory1",
                                  "symbolic-memory2", "sparse-memory3"])
def test_batched_reads_match_per_word_loops(name):
    """Audit rows and cylinder log-measures equal, bit for bit, the per-word
    loops the word arrays replaced."""
    psi, A, N, n_range, size = _parity_chain(name)
    mu = gibbs_measure(psi, A, N)
    ref = _PerWord(mu)
    audit = gibbs_audit(mu, psi, n_range, sample_size=size, seed=3)
    chain_A = shifts._mu_incidence(mu)
    for t, (n, row) in enumerate(zip(n_range, audit.rows)):
        try:
            words = enumerate_cylinders(n, N, chain_A, cap=size)
        except BudgetError:
            # the audit's walks, one word per walker, as sorted distinct tuples
            rng = shifts.task_rng(3 * 100003 + t * 1009)
            s = mu.forward.start(rng, size)
            path = mu.forward.walk(s, rng, max(n, mu.memory) - mu.memory)
            words = sorted({(ref.states[s[i]] + tuple(mu.states[path[:, i], -1].tolist()))[:n]
                            for i in range(size)})
        assert row == ref.audit_row(psi, n, words)
    rng = np.random.default_rng(1)
    for n in range(1, 7):
        # random words, mostly inadmissible or past the truncation, and
        # prefixes of chain walks
        walks = [sample_forward(mu, max(n, mu.memory), seed=i)[:n] for i in range(20)]
        words = np.concatenate((rng.integers(-1, N + 1, (40, n)), np.array(walks)))
        expect = [ref.log_measure(w) for w in words.tolist()]
        assert cylinder_log_measures(mu, words).tolist() == expect
        assert [cylinder_log_measure(mu, w) for w in words.tolist()] == expect


@pytest.mark.parametrize("name", ["golden", "symbolic-memory2", "sparse-memory3"])
def test_audit_reuses_the_log_measure_paths(name, monkeypatch):
    """The exact form reads the state paths of the log-measure pass: one
    WordLookup.paths call per length at or past the memory, and the rows the
    route that looked the paths up a second time gives, bit for bit."""
    psi, A, N, n_range, size = _parity_chain(name)
    mu = gibbs_measure(psi, A, N)
    m, eig = mu.memory, mu.eig
    read, lookup_paths = [], shifts.WordLookup.paths
    monkeypatch.setattr(shifts.WordLookup, "paths",
                        lambda self, words: read.append(words) or lookup_paths(self, words))
    audit = gibbs_audit(mu, psi, n_range, sample_size=size, seed=3)
    assert [words.shape[1] for words in read] == [n for n in n_range if n >= m]
    monkeypatch.undo()
    rows = [row for row in audit.rows if row.n >= m]
    for row, words in zip(rows, read):
        lm = cylinder_log_measures(mu, words)
        words, lm = words[lm > -np.inf], lm[lm > -np.inf]
        path, _ = mu.lookup.paths(words)
        log_pred = (shifts._logs(eig.nu[path[:, 0]]) + shifts._logs(eig.h[path[:, -1]])
                    + shifts._row_sums(eig.psi_vals[path[:, :-1]]) - mu.pressure * (row.n - m))
        rex = shifts._exps(lm - log_pred)
        assert (row.exact_min, row.exact_max) == (float(rex.min()), float(rex.max()))


def test_audit_below_the_memory_is_refused_before_any_row(monkeypatch):
    psi, A, N, _, _ = _parity_chain("sparse-memory3")
    mu = gibbs_measure(psi, A, N)
    monkeypatch.setattr(shifts, "_cylinder_logs", lambda *a: pytest.fail("a row was computed"))
    with pytest.raises(ConfigError, match="memory 3"):
        gibbs_audit(mu, psi, range(1, 3))


# --- entropy


def test_entropy_routes_agree():
    for psi, A, N in [
        (Potential.constant(0.0), IncidenceMatrix.golden_mean(), 2),
        (Potential.memory1([0.3, -0.2]), IncidenceMatrix.golden_mean(), 2),
        (Potential.memory1([0.1, -0.4, 0.25]), IncidenceMatrix.full(), 3),
    ]:
        mu = gibbs_measure(psi, A, N)
        assert markov_entropy(mu) == pytest.approx(entropy_from_pressure(mu),
                                                   abs=1e-10)


def test_golden_entropy_is_log_phi():
    mu = gibbs_measure(Potential.constant(0.0), IncidenceMatrix.golden_mean(), 2)
    assert markov_entropy(mu) == pytest.approx(math.log(PHI), abs=1e-12)


# --- memory: the blocks hold states, never transitions


def _traced_peak(fn):
    """Peak bytes that tracemalloc sees while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gibbs_chain_memory_grows_with_states():
    # 10,000 states and 1,000,000 transitions: one float per transition
    # alone would be 7.6 MB, a CSR kernel with its transpose over 30 MB
    psi = Potential.memory2(np.random.default_rng(0).normal(0.0, 0.5, (100, 100)))
    out = {}

    def build():
        mu = out["mu"] = gibbs_measure(psi, IncidenceMatrix.full(), 100)
        mu.forward, mu.backward

    assert _traced_peak(build) < 10 * 2**20
    mu = out["mu"]
    assert mu.eig.matrix.nnz == 10**6
    assert mu.forward.flat.size == mu.backward.flat.size == mu.n_states == 10**4


def test_pressure_routes_memory_grows_with_states():
    # 12,946 states and 1.4M transitions of a memory-2 graph with 10 % of the
    # letter pairs forbidden (4 MB traced); a CSR graph and its weighted copy
    # would take over 30 MB
    rng = np.random.default_rng(1)
    allow = rng.random((120, 120)) >= 0.1
    allow[np.arange(120), (np.arange(120) + 1) % 120] = True  # strongly connected
    A = IncidenceMatrix.from_forbidden_pairs(np.argwhere(~allow).tolist())
    table = rng.normal(0.0, 0.5, (120, 120))
    psi = Potential.memory2(table)
    out = {}

    def routes():
        shift = shifts.TruncatedShift(psi.memory, A, 120, 200_000)
        vals = psi.table(shift.states)
        out["est"], out["eig"] = shift.levels(vals, 12), shift.eigendata(vals)

    assert _traced_peak(routes) < 10 * 2**20
    ref = math.log(np.abs(np.linalg.eigvals(np.exp(table) * allow)).max())
    assert out["eig"].log_rho == pytest.approx(ref, abs=1e-10)
    assert out["eig"].matrix.nnz == 1_396_843


# --- export


def _kernel_from_json(d):
    """The S x S kernel of an exported chain, rebuilt from its blocks."""
    S = len(d["states"])
    P = np.zeros((S, S))
    for u, b in enumerate(d["block_of"]):
        if b >= 0:
            P[u, d["blocks"][b]["states"]] = d["blocks"][b]["p"]
    return P


def test_measure_to_json_shape(golden_chain):
    d = measure_to_json(golden_chain)
    assert d["states"] == [[0], [1]] and len(d["stationary"]) == 2
    assert d["pressure"] == pytest.approx(math.log(PHI), abs=1e-14)
    assert np.array_equal(_kernel_from_json(d), _dense(golden_chain.kernel))
    assert _kernel_from_json(d)[1, 1] == 0.0
    with pytest.raises(BudgetError):
        measure_to_json(golden_chain, max_states=1)
    # memory 3 with dead-end letter pairs: rows shared by blocks
    psi = Potential(lambda w: 0.1 * w[:, 0] - 0.2 * w[:, 1] + 0.05 * w[:, 2], memory=3)
    mu = gibbs_measure(psi, IncidenceMatrix.from_forbidden_pairs([(0, 2), (2, 2), (1, 1)]), 4)
    d = measure_to_json(mu)
    assert d["states"] == mu.states.tolist() and d["stationary"] == mu.pi.tolist()
    assert np.array_equal(_kernel_from_json(d), _dense(mu.kernel))
    assert json.loads(json.dumps(d)) == d


def test_measure_to_json_grows_with_states():
    # full shift, memory 2, N = 32: 1,024 states in 32 blocks; a dense
    # kernel held 1,024^2 numbers
    psi = Potential.memory2(np.random.default_rng(5).normal(0.0, 0.5, (32, 32)))
    mu = gibbs_measure(psi, IncidenceMatrix.full(), 32)
    d = measure_to_json(mu)
    S, entries = mu.n_states, mu.kernel.p.size
    assert S == entries == 1024 and len(d["blocks"]) == 32

    def count(x):
        return sum(map(count, x.values() if isinstance(x, dict) else x)) \
            if isinstance(x, (dict, list)) else 1

    # m numbers per state, its block, its stationary mass, the pressure, and
    # a state and a probability per block entry
    assert count(d) == (mu.memory + 2) * S + 1 + 2 * entries
    assert np.array_equal(_kernel_from_json(d), _dense(mu.kernel))
