"""Lyapunov exponents, pointwise-dimension slopes, and pressure roots."""

import contextlib
import math
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
from scipy.optimize import brentq

from thermoform import dimension, gdms, shifts
from thermoform.dimension import (
    ChainOrbit,
    MapOrbit,
    _fold_depth,
    beta_orbit,
    cell_weights,
    conditional_dimension_check,
    fiber_cloud,
    gauss_acim_cloud,
    gauss_orbit,
    global_dimension_check,
    gls_return_observable,
    golden_lyapunov,
    hd_limit_set,
    induced_cell_chain,
    joint_cloud,
    local_dimension,
    lyapunov_birkhoff,
    lyapunov_gls_closed_form,
    temperature,
    temperature_sweep,
)
from thermoform.errors import BudgetError, ConfigError, ConvergenceError
from thermoform.gdms import (
    affine_system,
    gauss_cf,
    geometric_potential,
    jump_transform,
    manneville_pomeau,
)
from thermoform.rng import task_rng
from thermoform.shifts import (
    COUNT_ENTRIES,
    COUNT_WIDTH,
    SCALAR_ROWS,
    SCALAR_WALKERS,
    WALK_BLOCK,
    ChainSampler,
    Potential,
    cylinder_log_measure,
    entropy_from_pressure,
    pressure,
    rpf_eigendata,
    sample_forward,
    sample_past,
)

PHI = (1 + math.sqrt(5)) / 2
W2 = 1 / (1 + PHI**2)
LOG2_OVER_LOG3 = 0.6309297535714574

# integral of -2 log x against the density 1/((1+x) ln 2), frozen from
# scipy.integrate.quad (abserr 8e-13); equals pi^2 / (6 ln 2)
GAUSS_CHI = 2.373138220831253

# root of the two-digit continued-fraction pressure at memory depth 8,
# frozen from the solver's own refinement ladder (the alternating sequence
# over depths 4..10 brackets it; Aitken extrapolation gives 0.53128051)
GAUSS_12_HD_MEM8 = 0.5312842851869067

# dim E_2, the limit set of continued fractions with digits 1 and 2
# (Jenkinson-Pollicott, Ergodic Theory Dynam. Systems 21, 2001)
E2_DIMENSION = 0.531280506277205


# --- Lyapunov exponents


def test_beta_map_lyapunov_is_log_beta():
    est = lyapunov_birkhoff(beta_orbit(1.8), n_steps=2000, n_orbits=4, seed=1)
    assert est.value == pytest.approx(math.log(1.8), abs=1e-12)
    assert est.n_steps == 2000 and est.n_orbits == 4


def test_gauss_lyapunov_matches_quadrature():
    est = lyapunov_birkhoff(gauss_orbit(), n_steps=200_000, n_orbits=8, seed=0)
    assert est.value == pytest.approx(GAUSS_CHI, rel=0.01)
    assert est.stderr < 0.01


def test_gauss_lyapunov_deterministic_by_seed():
    a = lyapunov_birkhoff(gauss_orbit(), n_steps=5000, n_orbits=2, seed=4)
    b = lyapunov_birkhoff(gauss_orbit(), n_steps=5000, n_orbits=2, seed=4)
    c = lyapunov_birkhoff(gauss_orbit(), n_steps=5000, n_orbits=2, seed=5)
    assert a.value == b.value
    assert a.value != c.value


def test_golden_closed_form_routes_agree():
    mu, _ = induced_cell_chain(PHI, incidence="golden")
    w = cell_weights(mu)
    assert w[1] == pytest.approx(W2, abs=1e-12)
    general = lyapunov_gls_closed_form(w, PHI)
    special = golden_lyapunov(w[1])
    target = math.log(PHI) * (1 + W2)
    assert general.value == pytest.approx(target, abs=1e-12)
    assert special.value == pytest.approx(target, abs=1e-12)
    assert general.method != special.method


def test_closed_form_accepts_weight_dict():
    mu, _ = induced_cell_chain(PHI, incidence="golden")
    w = cell_weights(mu)
    as_dict = {n + 1: float(w[n]) for n in range(len(w))}
    est = lyapunov_gls_closed_form(as_dict, PHI)
    assert est.value == pytest.approx(math.log(PHI) * (1 + W2), abs=1e-12)


@pytest.mark.parametrize("weights", [{0: 1.0}, {0: 0.5, 1: 0.5}, {1.5: 1.0}, {-1: 1.0}])
def test_closed_form_rejects_bad_cell_numbers(weights):
    # cells are numbered from 1: cell 0 would write w[-1], and a float key
    # indexes nothing
    with pytest.raises(ConfigError, match="cell numbers"):
        lyapunov_gls_closed_form(weights, PHI)


def test_closed_form_rejects_heavy_tail():
    # weights that keep a fifth of the mass past the truncation
    with pytest.raises(ConvergenceError):
        lyapunov_gls_closed_form([0.5, 0.3], 1.8, tail_tol=1e-6)


def test_chain_birkhoff_matches_closed_form():
    mu, part = induced_cell_chain(PHI, incidence="golden")
    closed = lyapunov_gls_closed_form(cell_weights(mu), PHI).value
    est = lyapunov_birkhoff(
        ChainOrbit(mu, gls_return_observable(mu, part)),
        n_steps=50_000, n_orbits=8, seed=2,
    )
    assert est.value == pytest.approx(closed, abs=4 * est.stderr + 1e-3)


def test_entropy_of_induced_golden():
    mu, _ = induced_cell_chain(PHI, incidence="golden")
    assert entropy_from_pressure(mu) == pytest.approx(math.log(PHI), abs=1e-12)


def test_induced_chain_weights_sum_to_one():
    for beta, inc in [(PHI, "golden"), (math.pi, None), (1.8, None)]:
        mu, part = induced_cell_chain(beta, incidence=inc)
        w = cell_weights(mu)
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert (w > 0).all()


# --- pointwise dimension


def test_lebesgue_1d_slope():
    pts = task_rng(11).random(40_000)
    est = local_dimension(pts, seed=5)
    assert est.mean == pytest.approx(1.0, abs=0.05)
    assert est.method == "sorted-1d"


def test_lebesgue_2d_slope():
    pts = task_rng(12).random((40_000, 2))
    est = local_dimension(pts, seed=5)
    assert est.mean == pytest.approx(2.0, abs=0.1)
    assert est.method == "strip-2d"


def test_cantor_cloud_slope():
    rng = task_rng(13)
    digs = rng.integers(0, 2, size=(60_000, 40)) * 2
    pts = (digs * (3.0 ** -np.arange(1, 41))).sum(axis=1)
    est = local_dimension(pts, seed=6)
    assert est.mean == pytest.approx(LOG2_OVER_LOG3, abs=0.03)


def test_atomic_cloud_short_circuits():
    pts = np.full(500, 0.25)
    est = local_dimension(pts)
    assert est.mean == 0.0
    assert est.method == "degenerate"


def test_local_dimension_guards():
    with pytest.raises(ConfigError):
        local_dimension(task_rng(0).random(40))
    with pytest.raises(ConvergenceError):
        # radii so small that no ball reaches min_count
        local_dimension(task_rng(1).random(5000), j_range=(18, 20))


def test_mean_upper_tracks_mean_on_clean_scaling():
    pts = task_rng(14).random(60_000)
    est = local_dimension(pts, seed=7)
    assert est.mean_upper == pytest.approx(est.mean, abs=0.1)


# --- sampled clouds


def test_gauss_acim_cloud_law():
    pts = gauss_acim_cloud(100_000, seed=3)
    assert ((pts > 0) & (pts < 1)).all()
    # empirical CDF against log2(1+x) at a few anchors
    for x in (0.2, 0.5, 0.8):
        emp = float((pts <= x).mean())
        assert emp == pytest.approx(math.log2(1 + x), abs=0.01)


def test_fiber_cloud_shape_and_determinism():
    mu, part = induced_cell_chain(PHI, incidence="golden")
    a = fiber_cloud(mu, part, 3000, None, 9)
    b = fiber_cloud(mu, part, 3000, None, 9)
    assert a.shape == (3000,)
    assert ((a >= 0) & (a < 1)).all()
    assert (a == b).all()


def test_joint_cloud_shape():
    mu, part = induced_cell_chain(PHI, incidence="golden")
    c = joint_cloud(mu, part, 3000, None, 9)
    assert c.shape == (3000, 2)
    assert ((c >= 0) & (c < 1)).all()


@pytest.mark.parametrize("cloud", [fiber_cloud, joint_cloud])
def test_cloud_refuses_more_letters_than_cells(cloud):
    # a three-letter chain over the golden partition, which has two cells
    mu = shifts.gibbs_measure(Potential.constant(0.0), shifts.IncidenceMatrix.full(), 3)
    part = induced_cell_chain(PHI, incidence="golden")[1]
    with pytest.raises(ConfigError, match="3 letters but the partition has 2 cells"):
        cloud(mu, part, 100, None, 0)


# --- chain sampler against the dense reference


def _dense(kernel):
    """The S x S matrix of a block kernel."""
    S = kernel.blocks.n_states
    P = np.zeros((S, S))
    for u in range(S):
        cols, probs = kernel.row(u)
        P[u, cols] = probs
    return P


def _dense_flat_cum(kernel):
    # Dense reference sampler, O(S^2) memory: rows of the cumulative kernel
    # shifted by their row index, last column pinned to 1.
    P = _dense(kernel)
    S = P.shape[0]
    cum = np.cumsum(P, axis=1)
    cum[:, -1] = 1.0
    return (np.arange(S)[:, None] + cum).ravel(), S


def _dense_walk(kernel, s0, depth, rng):
    flat, S = _dense_flat_cum(kernel)
    out = np.empty((s0.size, depth), dtype=np.int64)
    s = s0
    for j in range(depth):
        s = np.searchsorted(flat, s + rng.random(s.size)) - s * S
        out[:, j] = s
    return out


def _dense_start(mu, rng, n):
    pic = np.cumsum(mu.pi)
    pic[-1] = 1.0
    return np.searchsorted(pic, rng.random(n))


def _memory2_chain(cells):
    table = np.random.default_rng(0).normal(0.0, 0.3, (cells, cells))
    return induced_cell_chain(1.8, Potential.memory2(table), cells)


@pytest.fixture(scope="module")
def chain400():
    return _memory2_chain(20)


class _ConstantRng:
    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return np.full(shape, self.u)


def _memory3_chain():
    # letter pairs 0 -> 2, 2 -> 2 and 4 -> 1 forbidden, so some short
    # prefixes are rarer than others
    psi = Potential(lambda w: 0.2 * w[:, 0] - 0.1 * w[:, 1] * w[:, 2] + 0.05 * w[:, 2], memory=3)
    return induced_cell_chain(1.8, psi, 5, {"forbidden_pairs": [[0, 2], [2, 2], [4, 1]]})


def _greedy_reference(mu, i, steps):
    """The last letters of steps moves from state i, each to its most
    probable successor, ties to the smallest state."""
    out = []
    for _ in range(steps):
        cols, vals = mu.kernel.row(i)
        i = int(cols[vals == vals.max()].min())
        out.append(int(mu.states[i, -1]))
    return out


@pytest.mark.parametrize("chain", ["golden", "memory2", "memory3"])
def test_state_array_reads_match_state_loops(chain, chain400):
    """The array reads of mu.states against the loops over state tuples
    they replaced; the sums add in the same order, so they agree exactly."""
    mu, part = {"golden": lambda: induced_cell_chain(PHI, incidence="golden"),
                "memory2": lambda: chain400, "memory3": _memory3_chain}[chain]()
    states = [tuple(s) for s in mu.states.tolist()]
    m, N = mu.memory, mu.truncation
    w = np.zeros(1 + max(s[0] for s in states))
    for s, p in zip(states, mu.pi):
        w[s[0]] += p
    assert np.array_equal(cell_weights(mu), w)
    logb = math.log(part.beta)
    obs = [(part.cell(s[0] + 1).k + 1) * logb for s in states]
    assert gls_return_observable(mu, part).tolist() == obs
    # the letter incidence the audit enumerates: pairs inside the states, or
    # at memory 1 the pairs along transitions
    table = np.zeros((N, N), dtype=bool)
    for u, s in enumerate(states):
        if m == 1:
            for v in mu.kernel.row(u)[0]:
                table[s[0], states[v][0]] = True
        for k in range(m - 1):
            table[s[k], s[k + 1]] = True
    assert np.array_equal(shifts._mu_incidence(mu).submatrix(N), table)
    for k in range(1, m):
        for pref in [(a,) + s[1:k] for s in states[:: max(1, len(states) // 7)] for a in range(N)]:
            total, hits = 0.0, []
            for i, s in enumerate(states):
                if s[:k] == pref:
                    total += mu.pi[i]
                    hits.append(i)
            assert cylinder_log_measure(mu, pref) == (math.log(total) if total > 0 else -math.inf)
            # the run of states the prefix starts, and the greedy letters
            # that complete a below-memory word from its first state
            lo, hi = mu.lookup.runs(np.array([pref]))
            if not hits:
                assert lo[0] == hi[0]
            else:
                assert list(range(lo[0], hi[0])) == hits
                assert shifts._greedy_letters(mu, lo, m - 1).tolist() == \
                    [_greedy_reference(mu, hits[0], m - 1)]
    assert all(type(e) is int for e in sample_forward(mu, 50, seed=1) + sample_past(mu, states[0], 50))


@lru_cache(maxsize=None)
def _full100():
    # the shape of the symbolic bench's Gibbs chain: a memory-2 full shift on
    # 100 letters, 100 blocks of degree 100
    table = np.random.default_rng(0).normal(0.0, 0.5, (100, 100))
    return shifts.gibbs_measure(Potential.memory2(table), shifts.IncidenceMatrix.full(), 100)


def _scan_chain(name):
    """A chain the scan walks: golden (blocks of degree 2 and 1), the 16-state
    memory-2 chain (four blocks of degree 4), 8 letters whose rows keep the
    letters from i // 2 on (blocks of degrees 8, 8, 7, 7, 6, 6, 5, 5), or 20
    letters (twenty blocks of degree 20, so the scan's work bound stops it
    at one walker); or one it never walks, full100."""
    if name == "full100":
        mu = _full100()
        assert mu.forward.scan_walkers == 0 and mu.forward.flat.size == 10_000
        return mu, mu.forward
    if name == "golden":
        mu, _ = induced_cell_chain(PHI, incidence="golden")
    elif name == "memory2":
        mu, _ = _memory2_chain(4)
    elif name == "uneven":
        forbidden = [[i, j] for i in range(8) for j in range(i // 2)]
        mu, _ = induced_cell_chain(1.8, Potential.memory1(np.linspace(-1, 0, 8)), 8,
                                   {"forbidden_pairs": forbidden})
        assert mu.kernel.blocks.sizes.tolist() == [8, 8, 7, 7, 6, 6, 5, 5]
    else:
        mu, _ = induced_cell_chain(1.8, Potential.memory1(np.linspace(-1, 0, 20)), 20)
    sampler = mu.forward
    assert sampler.scan_walkers == {"golden": 32, "memory2": 16, "uneven": 8, "letters20": 1}[name]
    assert sampler.flat.size == {"golden": 3, "memory2": 16, "uneven": 52, "letters20": 400}[name]
    return mu, sampler


@pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)])
@pytest.mark.parametrize("chain", ["golden", "memory2", "uneven", "letters20"])
def test_chain_step_lands_on_kernel_nonzero(chain, u):
    # golden row 1 sums to 1 - 1.7e-15: a draw above that must still go to 0;
    # 40 steps from every state, at most scan_walkers at a time so all scan
    mu, sampler = _scan_chain(chain)
    per_walk = sampler.scan_walkers
    for s in np.array_split(np.arange(mu.n_states), -(-mu.n_states // per_walk)):
        path = np.vstack([s, sampler.walk(s, _ConstantRng(u), 40)])
        assert ((path >= 0) & (path < mu.n_states)).all()
        assert (_dense(mu.kernel)[path[:-1], path[1:]] > 0).all()


@pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)])
@pytest.mark.parametrize("chain", ["golden", "memory2", "early_one"])
def test_counted_step_matches_search_at_edges(chain, u, monkeypatch):
    # COUNT_WIDTH walkers, from every state in turn, count; "early_one" walks
    # back over three letters, the last of weight e^-40, so each block's
    # cumulative sums reach 1.0 one entry before the pinned 1.0
    if chain == "early_one":
        mu, _ = induced_cell_chain(1.8, Potential.memory1(np.array([0.0, 0.0, -40.0])), 3)
        sampler, kernel = mu.backward, mu.reversed_kernel()
        assert (sampler.flat[1::3] == sampler.flat[2::3]).all()
    else:
        mu, sampler = _scan_chain(chain)
        kernel = mu.kernel
    assert sampler.flat.size <= COUNT_ENTRIES
    counts, count = [], ChainSampler._count
    monkeypatch.setattr(ChainSampler, "_count", lambda self, *a: counts.append(1) or count(self, *a))
    s = np.resize(np.arange(mu.n_states), COUNT_WIDTH)
    path = np.vstack([s, sampler.walk(s, _ConstantRng(u), 40)])
    assert len(counts) == 40
    for t in range(40):
        assert np.array_equal(path[t + 1], _step(sampler, path[t], np.full(s.size, u)))
    assert (_dense(kernel)[path[:-1], path[1:]] > 0).all()


@pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)])
def test_scalar_step_matches_search_at_equal_entries(u, monkeypatch):
    # "early_one" again: each block's last two cdf entries are equal, and
    # bisect_left must find the first of them, as searchsorted does. The
    # scan takes its three walkers; with no scan width they go scalar.
    mu, _ = induced_cell_chain(1.8, Potential.memory1(np.array([0.0, 0.0, -40.0])), 3)
    sampler = mu.backward
    assert (sampler.flat[1::3] == sampler.flat[2::3]).all()
    monkeypatch.setattr(shifts, "SCAN_WIDTH", 0)
    assert sampler.scan_walkers == 0
    scalars, scalar = [], ChainSampler._scalar
    monkeypatch.setattr(ChainSampler, "_scalar", lambda self, *a: scalars.append(1) or scalar(self, *a))
    s = np.arange(mu.n_states)
    path = np.vstack([s, sampler.walk(s, _ConstantRng(u), 40)])
    assert len(scalars) == 1
    for t in range(40):
        assert np.array_equal(path[t + 1], _step(sampler, path[t], np.full(s.size, u)))
    assert (_dense(mu.reversed_kernel())[path[:-1], path[1:]] > 0).all()


def test_chain_orbit_matches_dense_reference(chain400):
    mu, _ = chain400
    assert mu.n_states == 400
    steps, walkers = 20_000, 32
    orbit = ChainOrbit(mu, np.zeros(mu.n_states))
    rng = task_rng(21)
    s = orbit.start(rng, walkers)
    got = orbit.chain.walk(s, rng, steps).T
    ref_rng = task_rng(21)
    ref = _dense_walk(mu.kernel, _dense_start(mu, ref_rng, walkers), steps, ref_rng)
    assert np.array_equal(got, ref)


def _forward_fold(letters, lefts, lengths):
    # the fold as the clouds walk it, one literal step per column, column 0
    # outermost: offset + scale * y composed with the next cell's contraction
    offset, scale = np.zeros(letters.shape[0]), np.ones(letters.shape[0])
    for col in letters.T:
        offset = offset + scale * lefts[col]
        scale = scale * lengths[col]
    return offset + scale / 2


def _horner_fold(letters, lefts, lengths):
    # the mathematical reference: the contractions applied innermost first by
    # Horner's rule. It rounds differently from the forward fold, so the two
    # agree within depth * eps, not bit for bit
    y = np.full(letters.shape[0], 0.5)
    for j in range(letters.shape[1] - 1, -1, -1):
        col = letters[:, j]
        y = lefts[col] + lengths[col] * y
    return y


def _assert_clouds(mu, part, n, seed, fiber_letters, joint_letters):
    """The clouds equal the forward fold of the reference walks' letters bit
    for bit, and Horner's rule within depth * eps."""
    cells = part.cells_up_to(int(mu.states[:, 0].max()) + 1)
    lefts, lengths = np.array([c.left for c in cells]), np.array([c.length for c in cells])
    tol = (fiber_letters.shape[1] + 1) * np.finfo(float).eps
    fiber = fiber_cloud(mu, part, n, None, seed)
    assert np.array_equal(fiber, _forward_fold(fiber_letters, lefts, lengths))
    np.testing.assert_allclose(fiber, _horner_fold(fiber_letters, lefts, lengths), rtol=0, atol=tol)
    joint = joint_cloud(mu, part, n, None, seed)
    for got, letters in zip(joint.T, joint_letters):
        assert np.array_equal(got, _forward_fold(letters, lefts, lengths))
        np.testing.assert_allclose(got, _horner_fold(letters, lefts, lengths), rtol=0, atol=tol)


@pytest.mark.parametrize("chain", ["golden", "memory2"])
def test_clouds_match_dense_reference(chain, chain400):
    if chain == "golden":
        mu, part = induced_cell_chain(PHI, incidence="golden")
    else:
        mu, part = chain400
    n, seed = 5000, 4
    letter_of = mu.states[:, 0]
    depth = _fold_depth(part.beta)
    rng = task_rng(seed)
    s0 = np.full(n, int(np.argmax(mu.pi)), dtype=np.int64)
    past = letter_of[_dense_walk(mu.reversed_kernel(), s0, depth, rng)]
    rng = task_rng(seed)
    s0 = _dense_start(mu, rng, n)
    fwd = _dense_walk(mu.kernel, s0, depth, rng)
    bwd = _dense_walk(mu.reversed_kernel(), s0, depth, rng)
    _assert_clouds(mu, part, n, seed, past,
                   (letter_of[np.column_stack([s0, fwd])], letter_of[bwd]))


def _traced_peak(fn):
    """Peak bytes that tracemalloc sees while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chain_orbit_memory_grows_with_transitions():
    # 3,600 states and 216,000 transitions; a dense kernel alone is 104 MB
    mu, part = _memory2_chain(60)
    obs = gls_return_observable(mu, part)
    peak = _traced_peak(lambda: ChainOrbit(mu, obs))
    assert mu.n_states == 3600
    assert peak < 10 * 2**20


@pytest.mark.parametrize("cloud", [fiber_cloud, joint_cloud])
def test_cloud_peak_does_not_grow_with_depth(cloud):
    # 5e4 points: each walker folds its letters as it walks them, so depth 364
    # peaks as depth 91 does (1.64 MiB fiber, 2.39 MiB joint; the bounds leave
    # 15 % over that); a depth x M letter array would grow by M bytes per
    # letter or more
    bound = {fiber_cloud: 1.9, joint_cloud: 2.75}[cloud]  # MiB
    mu, part = induced_cell_chain(PHI, incidence="golden")
    mu.forward, mu.backward  # build the samplers outside the trace
    assert _fold_depth(part.beta) == 91
    M = 50_000
    shallow, deep = (_traced_peak(lambda: cloud(mu, part, M, d, 0)) for d in (91, 364))
    assert abs(deep - shallow) < 0.05 * shallow
    assert shallow < bound * 2**20


# --- block-stepped walks against the per-step loop


def _step(sampler, s, u):
    # the sampler's rule one step at a time: s goes to the first member of the
    # block it reads whose cumulative sum reaches u
    return sampler.states_of(np.searchsorted(sampler.flat, 2 * sampler.cls[s] + u))


# the float maps as literal per-step expressions and their log-derivatives,
# so the reference does not run through MapOrbit's in-place steps
_LITERAL_MAPS = {
    "gauss": (lambda x: (1.0 / x) % 1.0, lambda x: -2.0 * np.log(x)),
    "beta": (lambda x: (1.8 * x) % 1.0, lambda x: np.full(x.shape, math.log(1.8))),
    "beta2": (lambda x: (2.0 * x) % 1.0, lambda x: np.full(x.shape, math.log(2.0))),
}
EPS = 1e-15  # MapOrbit's default clamp


def _per_step_birkhoff(orbit, n_steps, n_orbits, seed, burn_in=0, start=None):
    # the per-step Birkhoff loop that block stepping replaced, kept as the
    # reference: one rng.random(W) per chain step; a float map, named in
    # _LITERAL_MAPS, stepped by its expression and np.clip every step from
    # uniform seeds or start(rng, n)
    rng = task_rng(seed)
    if isinstance(orbit, ChainOrbit):
        state = orbit.start(rng, n_orbits)

        def step(s):
            return _step(orbit.chain, s, rng.random(s.size)), orbit.obs[s]
    else:
        T, log_deriv = _LITERAL_MAPS[orbit]
        x0 = rng.random(n_orbits) if start is None else start(rng, n_orbits)
        state = np.clip(x0, EPS, 1.0 - EPS)

        def step(x):
            return np.clip(T(x), EPS, 1.0 - EPS), log_deriv(x)

    for _ in range(burn_in):
        state, _ = step(state)
    acc = np.zeros(n_orbits)
    for _ in range(n_steps):
        state, vals = step(state)
        acc += vals
    per_orbit = acc / n_steps
    stderr = float(per_orbit.std(ddof=1) / math.sqrt(n_orbits)) if n_orbits > 1 else 0.0
    return float(per_orbit.mean()), stderr


def _driver(name, chain400):
    if name == "gauss":
        return gauss_orbit()
    if name == "beta":
        return beta_orbit(1.8)
    if name == "golden":
        mu, part = induced_cell_chain(PHI, incidence="golden")
    else:
        mu, part = chain400
    return ChainOrbit(mu, gls_return_observable(mu, part))


def _reference(name, chain400):
    """What _per_step_birkhoff steps for the orbit of that name."""
    return name if name in _LITERAL_MAPS else _driver(name, chain400)


BLOCK = WALK_BLOCK // 32  # Birkhoff block length at 32 walkers


@pytest.mark.parametrize("n_steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 77])
@pytest.mark.parametrize("driver", ["golden", "chain400", "gauss", "beta"])
def test_birkhoff_blocks_match_per_step_loop(driver, n_steps, chain400):
    est = lyapunov_birkhoff(_driver(driver, chain400), n_steps, 32, seed=11)
    ref = _per_step_birkhoff(_reference(driver, chain400), n_steps, 32, 11)
    assert (est.value, est.stderr) == ref


@pytest.mark.parametrize("n_orbits,burn_in", [(32, 5), (32, BLOCK + 3), (1, 0), (1, 7), (3, 2)])
@pytest.mark.parametrize("driver", ["golden", "chain400", "gauss", "beta"])
def test_birkhoff_burn_in_and_one_orbit_match_per_step_loop(driver, n_orbits, burn_in,
                                                            chain400):
    # one orbit makes each Birkhoff column a contiguous 1-D sum, which a
    # pairwise reduction would round differently; accumulate must not
    n_steps = 3000
    est = lyapunov_birkhoff(_driver(driver, chain400), n_steps, n_orbits, seed=5,
                            burn_in=burn_in)
    ref = _per_step_birkhoff(_reference(driver, chain400), n_steps, n_orbits, 5, burn_in)
    assert (est.value, est.stderr) == ref


def _counted(orbit):
    """orbit with its step wrapped to count calls into the returned list."""
    calls, step = [], orbit.step

    def counted(*args):
        calls.append(None)
        step(*args)

    orbit.step = counted
    return orbit, calls


def test_beta2_orbit_clamps_and_matches_per_step_loop():
    # the doubling map shifts a double's bits out and reaches 0 within 53
    # steps, then restarts from eps: blocks leave the range and are stepped
    # again with the clamp, which must equal the per-step clip
    n_steps = 2 * BLOCK + 77
    orbit, calls = _counted(beta_orbit(2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = lyapunov_birkhoff(orbit, n_steps, 32, seed=3)
        ref = _per_step_birkhoff("beta2", n_steps, 32, 3)
    assert (est.value, est.stderr) == ref
    assert len(calls) == 2 * n_steps  # every block left the range


@pytest.mark.parametrize("burn_in", [0, 1])
@pytest.mark.parametrize("start", ["half", "above_half", "linspace"])
def test_gauss_orbit_from_clamping_starts_matches_per_step_loop(start, burn_in):
    # 1/0.5 = 2 and, among the linspace seeds, 1/(1/31) = 31 are integers,
    # whose fraction 0 is clamped up; 1/nextafter(0.5, 1) rounds to
    # 2 - 4.4e-16, whose fraction is clamped down (a one-step burn-in ends
    # its block there); the linspace seeds 0 and 1 are clamped by start itself
    seeds = {"half": lambda rng, n: np.full(n, 0.5),
             "above_half": lambda rng, n: np.full(n, np.nextafter(0.5, 1.0)),
             "linspace": lambda rng, n: np.linspace(0.0, 1.0, n)}[start]
    g = gauss_orbit()
    orbit, calls = _counted(MapOrbit(g.step, g.log_deriv, start=seeds))
    n_steps = BLOCK + 77
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = lyapunov_birkhoff(orbit, n_steps, 32, seed=2, burn_in=burn_in)
        ref = _per_step_birkhoff("gauss", n_steps, 32, 2, burn_in, start=seeds)
    assert (est.value, est.stderr) == ref
    assert len(calls) > n_steps + burn_in  # a block was stepped again with the clamp


def test_gauss_orbit_from_nan_ends_nan_once_per_block():
    # NaN fails the range check and survives the clamp: each block is stepped
    # twice, not again and again, and the estimate is NaN as per step
    g = gauss_orbit()
    nan = lambda rng, n: np.full(n, np.nan)  # noqa: E731
    orbit, calls = _counted(MapOrbit(g.step, g.log_deriv, start=nan))
    n_steps = BLOCK + 5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = lyapunov_birkhoff(orbit, n_steps, 32, seed=2)
        ref = _per_step_birkhoff("gauss", n_steps, 32, 2, start=nan)
    assert math.isnan(est.value) and math.isnan(est.stderr)
    assert all(math.isnan(v) for v in ref)
    assert len(calls) == 2 * n_steps


# the route each chain walks by, by walkers; the rest search. The scan takes
# up to scan_walkers ("at"); past it, up to SCALAR_WALKERS go scalar: 20
# letters at 2 ("past") and 3, and full100, which the scan never takes, up to
# the "limit" ("over" is one more). Counting needs COUNT_WIDTH walkers over
# at most COUNT_ENTRIES cdf entries: golden's 3 and the 16-state chain's 16,
# not the uneven 52 or the 400 of 20 letters.
_ROUTES = {
    "golden": {1: "scan", 3: "scan", 32: "scan", "at": "scan", "wide": "count"},
    "memory2": {1: "scan", 3: "scan", "at": "scan", "wide": "count"},
    "uneven": {1: "scan", 3: "scan", "at": "scan"},
    "letters20": {1: "scan", 3: "scalar", "at": "scan", "past": "scalar"},
    "full100": {1: "scalar", "limit": "scalar"},
}


def _spy_routes(monkeypatch) -> set:
    """The set to which ChainSampler's scalar, scan and count routes add their
    names as they run; a walk by search adds none."""
    ran = set()
    for name in ("_scalar", "_scan", "_count"):
        method = getattr(ChainSampler, name)
        monkeypatch.setattr(ChainSampler, name,
                            lambda self, *a, _m=method, _n=name[1:]: ran.add(_n) or _m(self, *a))
    return ran


def _walk_matches_step_loop(chain, walkers, steps, monkeypatch):
    mu, sampler = _scan_chain(chain)
    route = _ROUTES[chain].get(walkers, "search")
    if walkers in ("at", "past"):
        walkers = sampler.scan_walkers + (walkers == "past")
    elif walkers in ("limit", "over"):
        walkers = SCALAR_WALKERS + (walkers == "over")
    elif walkers in ("narrow", "wide"):
        walkers = COUNT_WIDTH - (walkers == "narrow")
    steps = steps(walkers)
    ran = _spy_routes(monkeypatch)
    rng = task_rng(8)
    got = sampler.walk(sampler.start(rng, walkers), rng, steps)
    assert ran == ({route} - {"search"})
    rng = task_rng(8)
    s = sampler.start(rng, walkers)
    ref = np.empty((steps, walkers), dtype=np.intp)
    for t in range(steps):
        s = ref[t] = _step(sampler, s, rng.random(walkers))
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("walkers", [1, 3, 32, 100, "at", "past", "narrow", "wide"])
@pytest.mark.parametrize("chain", ["golden", "memory2", "uneven", "letters20"])
def test_walk_matches_step_loop(chain, walkers, monkeypatch):
    # up to scan_walkers walkers are scanned: golden up to 32, the 16-state
    # chain up to 16, the uneven one up to 8, 20 letters only one; "at" sits on
    # that count and "past" one walker beyond it (see _ROUTES for the route
    # each takes). Two full blocks are followed by a one-step block, which
    # scans a sub-block of one step from the carried state.
    _walk_matches_step_loop(chain, walkers, lambda W: 2 * (WALK_BLOCK // W) + 1, monkeypatch)


@pytest.mark.parametrize("walkers", [1, "limit", "over"])
def test_symbolic_shape_walk_matches_step_loop(walkers, monkeypatch):
    # a full block, then SCALAR_ROWS + 1 steps: past a WALK_BLOCK boundary
    # and a chunk boundary of the scalar route
    _walk_matches_step_loop("full100", walkers, lambda W: WALK_BLOCK // W + SCALAR_ROWS + 1,
                            monkeypatch)


@pytest.mark.parametrize("walkers", [1, 3, "at", "past"])
@pytest.mark.parametrize("chain", ["golden", "memory2", "uneven", "letters20"])
def test_odd_walk_matches_step_loop(chain, walkers, monkeypatch):
    # 777 steps are odd, so no multiple of a sub-block: the last sub-block is
    # padded to a power of 2 with repeats of its last uniforms
    _walk_matches_step_loop(chain, walkers, lambda W: 777, monkeypatch)


@pytest.mark.parametrize("walkers,steps", [
    (16, 2 * (WALK_BLOCK // 16) + 5),  # scanned blocks of 2,048 rows, then 5
    (100, 3 * (WALK_BLOCK // 100) + 1),  # serial blocks of 327 rows, then 1
    (WALK_BLOCK + 3, 3),  # one row per block
])
def test_walk_blocks_match_step_loop(walkers, steps):
    mu, _ = induced_cell_chain(PHI, incidence="golden")
    sampler = mu.forward
    rng = task_rng(9)
    blocks = list(sampler.blocks(sampler.start(rng, walkers), rng, steps))
    rows = max(1, WALK_BLOCK // walkers)
    assert [b.shape for b in blocks] == [(min(rows, steps - t), walkers)
                                         for t in range(0, steps, rows)]
    assert all(b.dtype == np.intp and b.size <= max(WALK_BLOCK, walkers) for b in blocks)
    blocks = [sampler.states_of(b) for b in blocks]
    rng = task_rng(9)
    s = sampler.start(rng, walkers)
    ref = np.empty((steps, walkers), dtype=np.intp)
    for t in range(steps):
        s = ref[t] = _step(sampler, s, rng.random(walkers))
    assert np.array_equal(np.concatenate(blocks), ref)


def _per_step_forward(mu, length, seed):
    rng = task_rng(seed)
    i = mu.forward.start(rng, 1)[0]
    word = list(mu.states[i])
    for u in rng.random(length - mu.memory):
        i = _step(mu.forward, i, u)
        word.append(mu.states[i][-1])
    return tuple(word)


def _per_step_past(mu, future, length, seed):
    rng = task_rng(seed)
    out, i = [], mu.states.tolist().index(list(future[: mu.memory]))
    for u in rng.random(length):
        i = _step(mu.backward, i, u)
        out.append(mu.states[i][0])
    return tuple(reversed(out))


def _per_step_walk(sampler, s0, depth, rng):
    out = np.empty((s0.size, depth), dtype=np.int64)
    s = s0
    for j in range(depth):
        s = out[:, j] = _step(sampler, s, rng.random(s.size))
    return out


@pytest.mark.parametrize("chain", ["golden", "memory2", "full60", "full300"])
def test_words_and_clouds_match_per_step_loops(chain, chain400):
    if chain == "golden":
        mu, part = induced_cell_chain(PHI, incidence="golden")
    elif chain == "memory2":
        mu, part = chain400
    else:  # full60 is past the scan's work bound at one walker; full300
        # is a wide alphabet, 300 blocks of degree 300
        k = int(chain[4:])
        mu, part = induced_cell_chain(1.8, Potential.memory1(np.linspace(-1, 0, k)), k)
    for length in (mu.memory, mu.memory + 1, 5000):
        assert sample_forward(mu, length, seed=3) == _per_step_forward(mu, length, 3)
    future = mu.states[-1]
    for length in (0, 1, 5000):
        assert sample_past(mu, future, length, seed=4) == _per_step_past(mu, future, length, 4)
    _assert_per_step_clouds(mu, part, 3000, 6)


def _assert_per_step_clouds(mu, part, n, seed):
    """The clouds of n points equal the fold of the per-step walks' letters."""
    letter_of = mu.states[:, 0]
    depth = _fold_depth(part.beta)
    rng = task_rng(seed)
    s0 = np.full(n, int(np.argmax(mu.pi)), dtype=np.int64)
    past = letter_of[_per_step_walk(mu.backward, s0, depth, rng)]
    rng = task_rng(seed)
    s0 = mu.forward.start(rng, n)
    fwd = _per_step_walk(mu.forward, s0, depth, rng)
    bwd = _per_step_walk(mu.backward, s0, depth, rng)
    _assert_clouds(mu, part, n, seed, past,
                   (letter_of[np.column_stack([s0, fwd])], letter_of[bwd]))


@pytest.mark.parametrize("chain,width,n,routes", [
    ("golden", 10, 37, {"scan"}),  # chunks of 9, 9, 9 and 10 walkers
    ("golden", 1000, 2501, set()),  # 833, 834, 834: by search
    ("golden", 5000, 13_001, {"count"}),  # 4,333, 4,334, 4,334
    ("memory2", 2, 7, {"scan", "scalar"}),  # 1, 2, 2, 2: one walker is scanned
    ("memory2", 1000, 2501, set()),
])
def test_chunked_clouds_match_per_step_loops(chain, width, n, routes, chain400, monkeypatch):
    # at least three equal chunks with a ragged last one, each walked through
    # every step on its own route before the next, from its columns of the
    # step-major uniforms
    mu, part = induced_cell_chain(PHI, incidence="golden") if chain == "golden" else chain400
    monkeypatch.setattr(dimension, "FOLD_WIDTH", width)
    ran = _spy_routes(monkeypatch)
    _assert_per_step_clouds(mu, part, n, 6)
    assert ran == routes


def test_zero_walkers_walk_to_empty_blocks_and_clouds(chain400):
    for mu, part in (induced_cell_chain(PHI, incidence="golden"), chain400):
        for sampler in (mu.forward, mu.backward):
            s = sampler.start(task_rng(0), 0)
            shapes = [b.shape for b in sampler.blocks(s, task_rng(0), WALK_BLOCK + 1)]
            assert shapes == [(WALK_BLOCK, 0), (1, 0)]
            for steps in (0, 5, WALK_BLOCK + 1):
                assert sampler.walk(s, task_rng(0), steps).shape == (steps, 0)
        assert fiber_cloud(mu, part, 0).shape == (0,)
        assert joint_cloud(mu, part, 0).shape == (0, 2)


def test_joint_cloud_peak_is_a_few_doubles_per_point():
    # the README's 6.10 MiB at the bench's M = 200,000, 4.0 doubles per point:
    # the (M, 2) result, the M present states, and one chunk's offset, scale
    # and term and its walk's uniforms, entries and needles. The bound leaves
    # 12 % over that
    mu, part = induced_cell_chain(PHI, incidence="golden")
    mu.forward, mu.backward  # build the samplers outside the trace
    M = 200_000
    assert _traced_peak(lambda: joint_cloud(mu, part, M, None, 0)) < 4.5 * 8 * M


def test_global_check_peak_at_the_bench_size():
    # the clouds workload's global check: the (M, 2) cloud, then the 2-D ball
    # counts' sorted coordinates and the squared distances over a center's
    # widest strip, 8.42 MiB; the bound leaves 13 % over that
    assert _traced_peak(lambda: global_dimension_check(
        PHI, None, M=200_000, seed=0, incidence="golden")) < 9.5 * 2**20


def test_scalar_walk_peak_is_its_entries_and_one_block():
    # one walker, 50,000 steps on full100: the (n, 1) intp entries, one
    # block's WALK_BLOCK uniforms, and a chunk of SCALAR_ROWS uniforms and
    # entries as Python lists. The lists cost 0.15 MB through walk; here
    # the peak falls in the shorter last block, whose uniforms hide all but
    # 0.02 MB of them. A whole block as lists adds 2.1 MB
    mu, sampler = _scan_chain("full100")
    n, rng = 50_000, task_rng(0)
    s = sampler.start(rng, 1)
    peak = _traced_peak(lambda: list(sampler.blocks(s, rng, n)))
    assert peak < 8 * n + 8 * WALK_BLOCK + 2**18


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("n", [50_000, 100_000])
def test_walk_peak_is_its_result_and_one_block(direction, n):
    # one walker on full100 (its forward blocks are states, its backward ones
    # map through members): the (n, 1) intp result, one block's WALK_BLOCK
    # uniforms or the copy take writes states through, and the scalar route's
    # lists of SCALAR_ROWS uniforms and entries (0.15 MB); 1.21 MB at 100,000
    # steps. Joining a list of blocks held the result twice: 1.60 MB there,
    # and 0.95 MB backward at 50,000
    mu, _ = _scan_chain("full100")
    sampler = getattr(mu, direction)
    rng = task_rng(0)
    s = sampler.start(rng, 1)
    peak = _traced_peak(lambda: sampler.walk(s, rng, n))
    assert peak < 8 * n + 8 * WALK_BLOCK + 2**18


def test_birkhoff_block_buffers_stay_small():
    mu, part = induced_cell_chain(PHI, incidence="golden")
    orbit = ChainOrbit(mu, gls_return_observable(mu, part))
    peak = _traced_peak(lambda: lyapunov_birkhoff(orbit, n_steps=100_000, n_orbits=32, seed=0))
    # a few (WALK_BLOCK / 32, 32) blocks at a time and the scan's sub-block
    # buffers, ~1.8 MB under tracemalloc; the steps never add up
    assert peak < 2 * 2**20


def test_conditional_check_golden():
    rep = conditional_dimension_check(PHI, None, M=60_000, seed=0,
                                      incidence="golden")
    assert rep["target"] == pytest.approx(math.log(PHI) /
                                          (math.log(PHI) * (1 + W2)), abs=1e-12)
    assert rep["relative_error"] < 0.08


def test_global_check_golden():
    rep = global_dimension_check(PHI, None, M=60_000, seed=0, incidence="golden")
    tg = rep["target_global"]
    assert tg == pytest.approx(2 / (1 + W2), abs=1e-12)
    assert abs(rep["global"].mean - tg) / tg < 0.08
    assert abs(rep["additivity_gap"]) < 0.1


# --- pressure roots


@pytest.fixture(scope="module")
def moran():
    return affine_system([(1 / 3, 0.0), (1 / 3, 2 / 3)])


def test_moran_dimension_exact(moran):
    r = temperature(moran, q=0.0)
    assert r.t == pytest.approx(LOG2_OVER_LOG3, abs=1e-12)
    assert r.residual < 1e-12


def test_moran_temperature_family(moran):
    theta = Potential.memory1([math.log(0.5), math.log(0.5)])
    rows = temperature_sweep(moran, theta, [0.0, 0.5, 1.0, 2.0],
                             bracket=(-2.0, 2.0))
    for row in rows:
        expect = (1 - row.q) * LOG2_OVER_LOG3
        assert row.t == pytest.approx(expect, abs=1e-10)


def test_golden_two_branch_dimension_is_one():
    S = affine_system([(1 / PHI, 0.0), (1 / PHI**2, 1 / PHI)])
    assert hd_limit_set(S) == pytest.approx(1.0, abs=1e-12)


# two vertices and three edges of slope 1/3 (source -> target): e: V0 -> V0
# at 0, f: V1 -> V0 at 2/3, g: V0 -> V1 at 0. The limit set in V0 is
# e(X0) u f(g(X0)), so its dimension solves 3^-t + 9^-t = 1
GRAPH_DIRECTED = {
    "vertices": [[0.0, 1.0], [0.0, 1.0]],
    "edges": [{"label": label, "source": src, "target": dst, "kind": "affine",
               "params": {"a": 1 / 3, "b": b}}
              for label, src, dst, b in [("e", 0, 0, 0.0), ("f", 1, 0, 2 / 3), ("g", 0, 1, 0.0)]],
}


def test_graph_directed_root_and_greedy_tails():
    S = gdms.system_from_config(GRAPH_DIRECTED)
    # g and f may not follow themselves, so their tails continue greedily:
    # g e e e ... codes g(0) = 0 and f g e e ... codes f(g(0)) = 2/3
    assert gdms.coding_point(S, gdms.tail_extension(S, ["g"])) == pytest.approx(0.0, abs=1e-13)
    assert gdms.coding_point(S, gdms.tail_extension(S, ["f"])) == pytest.approx(2 / 3, abs=1e-13)
    for memory in (1, 2, 3):
        assert hd_limit_set(S, memory=memory) == pytest.approx(
            math.log(PHI) / math.log(3.0), abs=1e-13)


def test_full_shift_roots_match_logsumexp_route(moran):
    # frozen from the scipy logsumexp route the full-shift closed form replaced
    assert abs(temperature(moran, q=0.0).t - 0.6309297535714574) <= 1e-15
    S = affine_system([(1 / PHI, 0.0), (1 / PHI**2, 1 / PHI)])
    assert abs(hd_limit_set(S) - 0.9999999999999999) <= 1e-15


def test_temperature_requires_theta_with_q(moran):
    with pytest.raises(ConfigError):
        temperature(moran, q=0.5)


def test_root_checks_its_state_cap_before_the_tail_probes(monkeypatch):
    # a memory-3 theta at truncation 60 makes 216,000 states, over the
    # 200,000 cap; each tail probe would build that graph uncapped first
    builds = []
    real = shifts._state_graph

    def counted(*args):
        builds.append(args[0])
        return real(*args)

    monkeypatch.setattr(shifts, "_state_graph", counted)
    theta = Potential(lambda w: np.zeros(len(w)), memory=3)
    with pytest.raises(BudgetError):
        temperature(gauss_cf(), theta, q=0.5, p_theta=0.1, truncation=60)
    assert builds == [3]


def test_temperature_needs_sign_change(moran):
    with pytest.raises(ConvergenceError):
        temperature(moran, bracket=(1.0, 2.0))


def test_gauss_two_digit_dimension_frozen():
    G = gauss_cf()
    with pytest.warns(UserWarning, match="truncation-dependent") as record:
        v = hd_limit_set(G, truncation=2, memory=8)
    assert v == pytest.approx(GAUSS_12_HD_MEM8, abs=1e-9)
    # the tail is probed at the root itself, and the root warns once
    assert len(record) == 1
    assert f"at the root t={v:.4g} " in str(record[0].message)


def test_divergent_letter_sums_raise():
    # at t = -0.5 the Gauss letter sums grow with the digit
    with pytest.raises(ConvergenceError, match="diverge"):
        temperature(gauss_cf(), bracket=(-0.5, 2.0), truncation=8)


def _gauss_theta2():
    return Potential(lambda w: 0.1 - 0.02 * w[:, 1], memory=2)


def test_countable_root_builds_one_potential_and_one_graph(monkeypatch):
    # the tail probes read the root's own table: no potential or state graph
    # of their own
    builds, potentials = [], []
    real_graph, real_potential = shifts._state_graph, gdms.geometric_potential

    def counted_graph(*args):
        builds.append(args[0])
        return real_graph(*args)

    def counted_potential(*args, **kwargs):
        potentials.append(1)
        return real_potential(*args, **kwargs)

    monkeypatch.setattr(shifts, "_state_graph", counted_graph)
    monkeypatch.setattr(gdms, "geometric_potential", counted_potential)
    monkeypatch.setattr(dimension, "geometric_potential", counted_potential)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        temperature(gauss_cf(), _gauss_theta2(), q=0.5, p_theta=0.2, memory=2, truncation=8)
    assert builds == [2]
    assert len(potentials) == 1


def test_gauss_two_digit_refinement_alternates():
    G = gauss_cf()
    vals = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for mem in range(4, 9):
            vals.append(hd_limit_set(G, truncation=2, memory=mem))
    steps = np.diff(vals)
    assert all(a * b < 0 for a, b in zip(steps, steps[1:]))
    assert all(abs(b) < abs(a) for a, b in zip(steps, steps[1:]))


def test_countable_system_requires_truncation():
    with pytest.raises(ConfigError):
        hd_limit_set(gauss_cf())


def test_gauss_two_digit_dimension_matches_published_constant():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        v = hd_limit_set(gauss_cf(), truncation=2, memory=10)
    assert abs(v - E2_DIMENSION) < 1e-6


@pytest.mark.parametrize("N, root", [
    (3, 0.6922805042163256),
    (5, 0.8150348064646116),
    (7, 0.8626633232194263),
])
def test_odd_truncation_roots(N, root):
    # the tail probe takes the top floor(N/2) letters, so odd N no longer
    # reads a finite truncation as divergent
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert abs(hd_limit_set(gauss_cf(), truncation=N) - root) < 1e-9


def _reference_root(system, theta=None, q=0.0, bracket=(1e-3, 2.0), *,
                    p_theta=0.0, memory=1, truncation=None):
    """The per-step route: a fresh geometric potential, and so fresh coding
    points, a fresh incidence view and a fresh state graph, at every solver
    step, read through pressure and rpf_eigendata instead of one
    TruncatedShift's log_rho."""
    N = truncation if truncation is not None else system.n_edges

    def f(t):
        psi = geometric_potential(system, t=t, q=q, theta=theta, p_theta=p_theta,
                                  memory=memory)
        A = system.shift_view(N)
        if A.is_full and memory == 1:
            return pressure(psi, A, N, n_max=1).value
        return rpf_eigendata(psi, A, N).log_rho

    root = float(brentq(f, *bracket, xtol=1e-13))
    return root, abs(f(root))


def _moran_theta2():
    return Potential.memory2([[math.log(0.2), math.log(0.8)],
                              [math.log(0.6), math.log(0.4)]])


ROOT_CASES = {
    **{f"e2_m{m}": (gauss_cf, dict(truncation=2, memory=m)) for m in range(1, 9)},
    "gauss8_m2": (gauss_cf, dict(truncation=8, memory=2)),
    "gauss8_m3": (gauss_cf, dict(truncation=8, memory=3)),
    "gauss8_theta2_q": (gauss_cf, dict(theta=_gauss_theta2(), q=0.5, p_theta=0.2, memory=2,
                                       truncation=8)),
    **{f"moran_q{q}": (lambda: affine_system([(1 / 3, 0.0), (1 / 3, 2 / 3)]),
                       dict(theta=Potential.memory1([math.log(0.3), math.log(0.7)]),
                            q=float(q), bracket=(-10.0, 10.0)))
       for q in range(-3, 4)},
    "golden_slope": (lambda: affine_system([(1 / PHI, 0.0), (1 / PHI**2, 1 / PHI)]), {}),
    "affine_theta2_q": (lambda: affine_system([(1 / 3, 0.0), (1 / 4, 1 / 2)]),
                       dict(theta=_moran_theta2(), q=0.5, memory=2, bracket=(-10.0, 10.0))),
}


@pytest.mark.filterwarnings("ignore:slow letter-sum decay")
@pytest.mark.parametrize("case", list(ROOT_CASES))
def test_tabulated_roots_match_per_step_route(case):
    make, kw = ROOT_CASES[case]
    got = temperature(make(), **kw)
    assert (got.t, got.residual) == _reference_root(make(), **kw)


def _tail_tables(monkeypatch) -> list:
    """(tails, points) of every image table computed after the call."""
    tables = []
    real = gdms._tail_points

    def kept(S, tails, *args):
        points = real(S, tails, *args)
        tables.append((tails, points))
        return points

    monkeypatch.setattr(gdms, "_tail_points", kept)
    return tables


def _coding_points_of_root(monkeypatch, system, **kwargs) -> int:
    tables = _tail_tables(monkeypatch)
    monkeypatch.setattr(gdms, "coding_point", None)  # the one-word reference is not used
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hd_limit_set(system, **kwargs)
    (tails, points), = tables  # one table per root
    assert len(points) == len(tails)
    return len(points)


def test_root_computes_one_coding_point_per_state(monkeypatch):
    assert 0 < _coding_points_of_root(monkeypatch, gauss_cf(), truncation=2, memory=8) <= 2**8


@pytest.mark.parametrize("make, truncation, memory, points", [
    (gauss_cf, 2, 8, 2**7),
    (gauss_cf, 8, 2, 8),
    (lambda: jump_transform(manneville_pomeau(0.5)), 8, 2, 8),
])
def test_root_computes_one_coding_point_per_tail(monkeypatch, make, truncation, memory, points):
    # a state's coding point depends only on its tail, the letters after the
    # first: at memory m the tails are the admissible (m-1)-words
    assert _coding_points_of_root(monkeypatch, make(), truncation=truncation,
                                  memory=memory) == points


def test_mp_jump_root_frozen():
    # derived run edges solve each Manneville-Pomeau step once; the root is
    # the one of two solves per step, to the last bit
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t = hd_limit_set(jump_transform(manneville_pomeau(0.5)), truncation=20, memory=2)
    assert t.hex() == "0x1.f78cc13b1d5fcp-1"


@pytest.mark.filterwarnings("ignore:slow letter-sum decay")
@pytest.mark.parametrize("truncation, memory, root", [
    (2, 8, "0x1.10047e6b83542p-1"),
    (2, 10, "0x1.10040b27870ebp-1"),
    (60, 2, "0x1.00ad3bce9666ap+0"),
])
def test_bench_roots_frozen(truncation, memory, root):
    # the interval workload's e2_m8, e2_m10 and gauss60 roots, to the last bit
    assert hd_limit_set(gauss_cf(), truncation=truncation, memory=memory).hex() == root


@contextlib.contextmanager
def _image_of_calls():
    """A one-item list counting Branch.image_of calls inside the block."""
    calls = [0]
    image_of = gdms.Branch.image_of

    def counted(self, iv):
        calls[0] += 1
        return image_of(self, iv)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gdms.Branch, "image_of", counted)
        yield calls


@pytest.mark.filterwarnings("ignore:slow letter-sum decay")
def test_root_work_on_e2_memory8(monkeypatch):
    # the 128 tails are moebius rows of one array table, and each distinct t
    # the solver asks for runs one right power iteration: the bracket ends,
    # which brentq evaluates again, and the root, which it returns after
    # evaluating it, cost no second one
    power, solve = shifts._power_iteration, dimension.brentq
    counts = {"power": 0}
    ts = set()

    def counted_power(*args):
        counts["power"] += 1
        return power(*args)

    def counted_solve(f, *args, **kw):
        def g(t):
            ts.add(t)
            return f(t)
        return solve(g, *args, **kw)

    monkeypatch.setattr(shifts, "_power_iteration", counted_power)
    monkeypatch.setattr(dimension, "brentq", counted_solve)
    with _image_of_calls() as calls:
        hd_limit_set(gauss_cf(), truncation=2, memory=8)
    assert calls[0] == 0
    assert counts["power"] == len(ts) == 8


@pytest.mark.filterwarnings("ignore:slow letter-sum decay")
def test_jump_run_rows_call_image_of_once_per_level_read():
    # the backward_cf jump root's derived letters are scalar rows of its
    # table; the label-keyed memo of nested images that the table replaced
    # made 429 image_of calls on this root
    with _image_of_calls() as calls:
        hd_limit_set(jump_transform(gdms.backward_cf(), n_cap=64), truncation=60, memory=2)
    assert 0 < calls[0] <= 1.1 * 429


def test_root_whose_tail_never_contracts_fails_as_coding_point_does(monkeypatch):
    # slope 0.99999 needs ~3.3 million letters; the table walks its one row
    # through the 2,000 levels once and fails with coding_point's message
    levels = [0]
    tested = gdms._tested

    def counted(count, max_letters):
        levels[0] += 1
        return tested(count, max_letters)

    monkeypatch.setattr(gdms, "_tested", counted)
    with pytest.raises(ConvergenceError) as err:
        hd_limit_set(affine_system([(0.99999, 0.0)]))
    assert str(err.value) == ("images did not contract below 1e-14 within 2000 letters; "
                              "parabolic systems need a jump transform first")
    assert levels[0] == 2000


def test_root_at_a_bracket_end_is_that_end():
    # P(t) = log 2 + t log(1/2) vanishes exactly at t = 1, the upper end
    S = affine_system([(0.5, 0.0), (0.5, 0.5)])
    assert hd_limit_set(S, bracket=(0.5, 1.0)) == 1.0
    assert hd_limit_set(S, bracket=(1.0, 2.0)) == 1.0
    with pytest.raises(ConvergenceError, match="does not change sign"):
        hd_limit_set(S, bracket=(1.5, 2.0))


@pytest.mark.filterwarnings("ignore:slow letter-sum decay")
@pytest.mark.parametrize("make, truncation, memory", [
    (gauss_cf, 2, 10),
    (gauss_cf, 8, 3),
    (lambda: jump_transform(gdms.backward_cf(), n_cap=64), 60, 2),
    *[(lambda: gdms.system_from_config(GRAPH_DIRECTED), 3, m) for m in (1, 2, 3)],
    (lambda: affine_system([(1 / 3, 0.0), (1 / 4, 1 / 2)]), 2, 3),
    (lambda: jump_transform(manneville_pomeau(0.5)), 8, 2),
])
def test_shared_images_change_no_coding_point(monkeypatch, make, truncation, memory):
    # each tail's point as a root computes it, from the image table of one
    # geometric potential tabulating the root's states, equals a fresh
    # coding_point of its tail extension bit for bit, and so does every
    # state's log-derivative there: moebius (gauss_cf, backward_cf's
    # hyperbolic letters), affine, jump-run and mp-branch rows, periodic and
    # greedy tails
    S = make()
    psi = geometric_potential(S, t=1.0, memory=memory)
    states = shifts.TruncatedShift(psi.memory, S.shift_view(truncation), truncation).states
    tables = _tail_tables(monkeypatch)
    with _image_of_calls() as shared:
        values = psi.tabulate(states)(1.0)
    (tails, points), = tables
    point = dict(zip(map(tuple, tails.tolist()), points.tolist()))
    assert set(point) == {tuple(w[1:]) or tuple(w) for w in states.tolist()}
    with _image_of_calls() as fresh:
        for tail, x in point.items():
            y = gdms.coding_point(S, gdms.tail_extension(S, [S.edge(k).label for k in tail]),
                                  tol=gdms.CODING_TOL)
            assert y.hex() == x.hex(), tail
    assert values.tolist() == [math.log(abs(S.edge(w[0]).deriv(point[tuple(w[1:]) or tuple(w)])))
                               for w in states.tolist()]
    assert shared[0] <= fresh[0]
    if memory >= 3:
        assert shared[0] < fresh[0]


def test_q_with_p_theta_and_no_theta_matches_closed_form():
    # psi = t log(1/3) + (0 - 0.5) on two letters: P = log 2 - t log 3 - 0.5
    S = affine_system([(1 / 3, 0.0), (1 / 3, 2 / 3)])
    r = temperature(S, q=1.0, p_theta=0.5)
    assert abs(r.t - (math.log(2) - 0.5) / math.log(3)) <= 1e-12


def test_memory1_with_memory2_theta_solves(moran):
    # the full-shift closed form needs a memory-1 potential; theta's memory
    # decides, so this takes the eigen route instead of failing
    r = temperature(moran, _moran_theta2(), q=0.5, bracket=(-10.0, 10.0))
    r2 = temperature(moran, _moran_theta2(), q=0.5, bracket=(-10.0, 10.0), memory=2)
    assert r.t == r2.t
