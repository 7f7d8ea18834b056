"""Incidence matrices, potentials, pressure, and Gibbs chains."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from thermoform import shifts
from thermoform.errors import BudgetError, ConfigError, ThermoformError
from thermoform.shifts import (
    IncidenceMatrix,
    Potential,
    birkhoff_sum,
    cylinder_log_measure,
    cylinder_measure,
    entropy_from_pressure,
    enumerate_cylinders,
    gibbs_audit,
    gibbs_measure,
    is_admissible,
    markov_entropy,
    measure_to_json,
    pressure,
    rpf_eigendata,
    sample_forward,
    sample_past,
    summability_report,
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


def test_forbidden_pairs_matrix():
    A = IncidenceMatrix.from_forbidden_pairs([(0, 2), (2, 2)])
    assert not A.allows(0, 2) and not A.allows(2, 2)
    assert A.allows(2, 0) and A.allows(1, 2)
    sub = A.submatrix(3)
    assert sub.shape == (3, 3)
    assert sub[0, 2] == 0 and sub[1, 2] == 1


def test_cylinder_counts_follow_transfer_matrix():
    A = IncidenceMatrix.golden_mean()
    # admissible n-words over {0,1} with 11 forbidden: Fibonacci growth
    for n in range(1, 10):
        words = enumerate_cylinders(n, 2, A)
        assert len(words) == fib(n + 1)
        assert all(is_admissible(w, A) for w in words)
    full = enumerate_cylinders(5, 3, IncidenceMatrix.full())
    assert len(full) == 3**5


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


# --- summability


def test_summability_converges_for_decaying_weights():
    # letter weights 1/(e+1)^2 sum to pi^2/6
    vals = [-2.0 * math.log(e + 1.0) for e in range(4096)]
    rep = summability_report(Potential.memory1(vals), 4096,
                             schedule=[256, 1024, 4096])
    assert rep.verdict == "converged"
    assert rep.partial_sums[-1] == pytest.approx(math.pi**2 / 6, abs=1e-3)
    assert rep.last_relative_increment < 1e-3


def test_summability_flags_slow_tails():
    # letter weights ~ 1/(e+1): harmonic, the partial sums keep climbing
    vals = [-math.log(e + 1.0) for e in range(4096)]
    rep = summability_report(Potential.memory1(vals), 4096,
                             schedule=[256, 1024, 4096])
    assert rep.verdict != "converged"
    assert rep.last_relative_increment > 1e-3


# --- m-word state graph


def _loop_state_graph(psi, A, N, state_cap):
    """Reference builder: one predicate call per candidate transition."""
    m = psi.memory
    states = enumerate_cylinders(m, N, A, cap=state_cap)
    index = {w: i for i, w in enumerate(states)}
    psi_vals = np.array([psi.value(w) for w in states], dtype=float)
    rows, cols = [], []
    for i, u in enumerate(states):
        suffix = u[1:]
        last = u[-1]
        for e in range(N):
            if A.is_full or A.allows(last, e):
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
    if kind == "one-pair":
        # only 0 -> 1: the 2-words are one dead end, and no 3-word exists
        return IncidenceMatrix(lambda a, b: (a, b) == (0, 1), name="one-pair")
    return IncidenceMatrix(lambda a, b: False, name="empty")


STATE_GRAPH_GRID = [
    (kind, N, m)
    for kind, N in [("full", 5), ("golden", 5), ("half", 12), ("dead-end", 5), ("empty", 5)]
    for m in range(1, 5)
] + [(kind, 2, 10) for kind in ["full", "golden", "dead-end", "empty"]]


@pytest.mark.parametrize("kind,N,m", STATE_GRAPH_GRID)
def test_state_graph_matches_loop_builder(kind, N, m):
    A = _incidence(kind, N)
    psi = Potential(lambda w: sum(0.1 * (k + 1) * e - 0.05 * e * e for k, e in enumerate(w)),
                    memory=m)
    ref = _loop_state_graph(psi, A, N, 10**6)
    got = shifts._state_graph(psi, A, N, 10**6)
    assert got[0] == ref[0]
    assert got[1] == ref[1]
    assert got[2].dtype == ref[2].dtype and np.array_equal(got[2], ref[2])
    assert got[3].shape == ref[3].shape
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got[3], part), getattr(ref[3], part)
        assert a.dtype == b.dtype and np.array_equal(a, b), part
    S = len(ref[0])
    if S:
        for build in (_loop_state_graph, shifts._state_graph):
            with pytest.raises(BudgetError):
                build(psi, A, N, S - 1)


# --- pressure


def _segment_max(values, indptr, S):
    """The scatter tail pass that pressure() used before its reduceat."""
    out = np.full(S, -np.inf)
    rows = np.repeat(np.arange(S), np.diff(indptr))
    np.maximum.at(out, rows, values)
    return out


def _reference_pressure(psi, A, N, n_max, state_cap=200_000):
    """pressure() with the scatter tail and a CSR copy of the transpose."""
    m = psi.memory
    if A.is_full and m == 1:
        return pressure(psi, A, N, n_max=n_max, state_cap=state_cap)
    states, _, psi_vals, adj = shifts._state_graph(psi, A, N, state_cap)
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
    return shifts.PressureEstimate(levels, m, estimates[-1], N, m, gap)


def _reference_eigendata(psi, A, N, tol=1e-13, max_iter=10**6, state_cap=200_000):
    """rpf_eigendata() with copied index arrays and a CSR copy of the transpose."""
    states, index, psi_vals, adj = shifts._state_graph(psi, A, N, state_cap)
    S = len(states)
    if S == 0:
        raise shifts.ConvergenceError("no admissible states at this truncation")
    ncomp, _ = shifts.connected_components(adj, directed=True, connection="strong")
    if ncomp != 1:
        raise shifts.NotIrreducibleError(
            f"state graph has {ncomp} strongly connected components at truncation {N}"
        )
    scale = float(psi_vals.max())
    weights = np.exp(psi_vals - scale)
    rows = np.repeat(np.arange(S), np.diff(adj.indptr))
    M = sp.csr_matrix((weights[rows], adj.indices.copy(), adj.indptr.copy()), shape=(S, S))
    rho_s, h, its_r = shifts._power_iteration(M, tol, max_iter)
    Mt = M.T.tocsr()
    rho_l, nu, its_l = shifts._power_iteration(Mt, tol, max_iter)
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


@pytest.mark.parametrize("kind,N,m", ROUTE_GRID)
def test_pressure_matches_scatter_reference(kind, N, m):
    A = _incidence(kind, N)
    psi = Potential(lambda w: sum(0.1 * (k + 1) * e - 0.05 * e * e for k, e in enumerate(w)),
                    memory=m)
    n_max = m + 6
    got, err = _outcome(pressure, psi, A, N, n_max=n_max)
    ref, ref_err = _outcome(_reference_pressure, psi, A, N, n_max)
    assert err == ref_err
    if ref is not None:
        assert got.levels == ref.levels
        assert got.value == ref.value
        assert got.gap == ref.gap
        assert (got.n_start, got.truncation, got.memory) == (ref.n_start, ref.truncation, ref.memory)


@pytest.mark.parametrize("kind,N,m", [c for c in ROUTE_GRID if c != ("one-pair", 2, 2)])
def test_eigendata_matches_csr_transpose_reference(kind, N, m):
    A = _incidence(kind, N)
    psi = Potential(lambda w: sum(0.1 * (k + 1) * e - 0.05 * e * e for k, e in enumerate(w)),
                    memory=m)
    got, err = _outcome(rpf_eigendata, psi, A, N)
    ref, ref_err = _outcome(_reference_eigendata, psi, A, N)
    assert err == ref_err
    if ref is not None:
        for key in ("log_rho", "rho_scaled", "scale", "residual", "iterations"):
            assert getattr(got, key) == ref[key], key
        assert np.array_equal(got.h, ref["h"]) and np.array_equal(got.nu, ref["nu"])
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got.matrix, part), getattr(ref["matrix"], part)
            assert a.dtype == b.dtype and np.array_equal(a, b), part


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


def test_pressure_state_cap_guard():
    # the full-shift memory-1 fast path never builds states, so block one pair
    calls = []

    def pred(a, b):
        calls.append((a, b))
        return (a, b) != (0, 0)

    with pytest.raises(BudgetError):
        pressure(Potential.constant(0.0), IncidenceMatrix(pred), 500, n_max=2, state_cap=100)
    # 500 one-letter states exceed the cap before the 500^2 incidence is read
    assert calls == []


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
        psi = Potential(lambda w: 0.0, memory=m)
        with pytest.raises(shifts.NotIrreducibleError, match="no transitions"):
            rpf_eigendata(psi, A, N)


# --- Gibbs chains


@pytest.fixture(scope="module")
def golden_chain():
    return gibbs_measure(Potential.constant(0.0), IncidenceMatrix.golden_mean(), 2)


def test_golden_chain_stationary_law(golden_chain):
    mu = golden_chain
    # closed form: pi = (phi^2, 1) / (1 + phi^2)
    assert mu.pi[0] == pytest.approx(PHI**2 / (1 + PHI**2), abs=1e-12)
    assert mu.pi[1] == pytest.approx(1 / (1 + PHI**2), abs=1e-12)
    K = mu.kernel.toarray()
    assert K.sum(axis=1) == pytest.approx(np.ones(2), abs=1e-14)
    assert mu.pi @ K == pytest.approx(mu.pi, abs=1e-14)


def test_reversed_kernel_is_stochastic_and_stationary(golden_chain):
    mu = golden_chain
    R = mu.reversed_kernel().toarray()
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


# --- export


def test_measure_to_json_shape(golden_chain):
    d = measure_to_json(golden_chain)
    assert len(d["states"]) == 2 and len(d["stationary"]) == 2
    assert d["pressure"] == pytest.approx(math.log(PHI), abs=1e-14)
    assert d["kernel"][1][1] == 0.0
    with pytest.raises(BudgetError):
        measure_to_json(golden_chain, max_states=1)
