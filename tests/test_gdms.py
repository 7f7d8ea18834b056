"""Branch systems: coding, separation checks, jump transform, asymptotics."""

import math
import tracemalloc

import numpy as np
import pytest

from thermoform import gdms as gdms_module
from thermoform import shifts
from thermoform.errors import ConfigError, ConvergenceError
from thermoform.gdms import (
    ParabolicSystem,
    affine_system,
    backward_cf,
    bdp_constant,
    coding_point,
    gauss_cf,
    geometric_potential,
    gls,
    jump_contraction_report,
    jump_transform,
    luroth,
    manneville_pomeau,
    parabolic_asymptotics,
    periodic_word,
    system_from_config,
    tail_extension,
    verify_osc,
)
from thermoform.shifts import IncidenceMatrix, Potential, letter_sups

# classic periodic continued fractions, frozen from the quadratic surds:
# x = [0; (1)] solves x^2 + x = 1, x = [0; (2)] solves x^2 + 2x = 1,
# x = [0; (1,2)] solves x^2 + 2x = 2, x = [0; (2,1)] solves 2x^2 + 2x = 1
CF_ALL_ONES = 0.6180339887498949      # (sqrt 5 - 1) / 2
CF_ALL_TWOS = 0.41421356237309515     # sqrt 2 - 1
CF_ONE_TWO = 0.7320508075688772       # sqrt 3 - 1
CF_TWO_ONE = 0.3660254037844386       # (sqrt 3 - 1) / 2


# --- coding map


def test_gauss_periodic_words_hit_quadratic_surds():
    G = gauss_cf()
    assert coding_point(G, periodic_word([1])) == pytest.approx(CF_ALL_ONES, abs=1e-13)
    assert coding_point(G, periodic_word([2])) == pytest.approx(CF_ALL_TWOS, abs=1e-13)
    assert coding_point(G, periodic_word([1, 2])) == pytest.approx(CF_ONE_TWO, abs=1e-13)
    assert coding_point(G, periodic_word([2, 1])) == pytest.approx(CF_TWO_ONE, abs=1e-13)


def test_gauss_coding_point_matches_finite_continued_fraction():
    G = gauss_cf()
    # [0; 3, 7, 16] with a long constant tail converges near the rational
    x = coding_point(G, tail_extension(G, [3, 7, 16]))
    a = 1 / (3 + 1 / (7 + 1 / 16.0))
    assert abs(x - a) < 1e-3


def test_coding_point_respects_admissibility():
    B = backward_cf()
    word = tail_extension(B, [2, 3, 2])
    x = coding_point(B, word)
    assert 0.0 < x < 1.0


def test_coding_point_that_never_contracts_fails_in_linear_images(monkeypatch):
    # slope 0.99999 needs ~3.3 million letters to reach tol; testing the nested
    # image at every length up to 128, then at powers of two and at
    # max_letters, makes 8,256 + 256 + 512 + 1,024 + 2,000 image_of calls
    S = affine_system([(0.99999, 0.0)])
    calls = [0]
    image_of = gdms_module.Branch.image_of

    def counted(self, iv):
        calls[0] += 1
        return image_of(self, iv)

    monkeypatch.setattr(gdms_module.Branch, "image_of", counted)
    with pytest.raises(ConvergenceError):
        coding_point(S, periodic_word([0]))
    assert calls[0] <= 12_048


def test_coding_point_that_never_contracts_keeps_linear_images():
    # each tested length images its prefix afresh and keeps no image: the
    # peak is the word's 2,000 branches, a list of 8 bytes a letter
    S = affine_system([(0.99999, 0.0)])
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError):
            coding_point(S, periodic_word([0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 1024


# --- separation and distortion


def test_osc_holds_for_builtin_systems():
    for S, N in [(gauss_cf(), 30), (luroth(), 20), (backward_cf(), 25)]:
        rep = verify_osc(S, N)
        assert rep.ok, rep


def test_osc_rejects_overlapping_branches():
    S = affine_system([(0.7, 0.0), (0.7, 0.3)])
    rep = verify_osc(S, 2)
    assert not rep.ok
    assert rep.overlaps


def test_bdp_constant_gauss():
    rep = bdp_constant(gauss_cf(), 25, n_max=6)
    assert 1.0 <= rep.k_est <= 16.0
    assert not rep.renyi_flagged
    # deterministic for a fixed probe budget and seed
    again = bdp_constant(gauss_cf(), 25, n_max=6)
    assert again.k_est == rep.k_est


def test_bdp_flags_parabolic_distortion():
    rep = bdp_constant(manneville_pomeau(0.5), 2, n_max=8,
                       words_per_length=48)
    assert rep.renyi_flagged


# --- builtins


def test_manneville_pomeau_neutral_fixed_point():
    P = manneville_pomeau(0.5)
    assert P.omega == [0]
    br = P.branch(0)
    assert br.fn(0.0) == pytest.approx(0.0, abs=1e-12)
    assert abs(br.deriv(0.0)) == pytest.approx(1.0, abs=1e-9)
    # the companion branch is uniformly contracting
    other = P.branch(1)
    assert max(abs(other.deriv(u)) for u in np.linspace(0, 1, 21)) < 1.0


def test_backward_cf_parabolic_at_label_two():
    B = backward_cf()
    assert B.omega == [2]
    br = B.branch(2)
    assert br.fn(1.0) == pytest.approx(1.0, abs=1e-12)
    assert abs(br.deriv(1.0)) == pytest.approx(1.0, abs=1e-9)
    # deeper digits contract hard
    assert abs(B.branch(7).deriv(0.5)) < 0.05


def test_gls_cells_tile():
    S = gls([(0.0, 0.5), (0.5, 0.75), (0.75, 1.0)])
    assert S.n_edges == 3
    images = sorted((S.branch(S.edge(k).label).fn(0.0),
                     S.branch(S.edge(k).label).fn(1.0)) for k in range(3))
    assert images[0][0] == pytest.approx(0.0)
    assert images[-1][1] == pytest.approx(1.0)
    for (a, b), (c, d) in zip(images, images[1:]):
        assert b == pytest.approx(c, abs=1e-12)


def test_luroth_first_cells():
    L = luroth()
    br = L.branch(L.edge(0).label)
    assert br.fn(0.0) == pytest.approx(0.5)
    assert br.fn(1.0) == pytest.approx(1.0)


# --- jump transform


@pytest.fixture(scope="module")
def jumped_backward():
    return jump_transform(backward_cf(), n_cap=64)


@pytest.fixture(scope="module")
def jumped_mp():
    return jump_transform(manneville_pomeau(0.5), n_cap=64)


def test_jump_labels_are_source_words(jumped_backward):
    S = jumped_backward
    labels = [S.edge(k).label for k in range(12)]
    assert all(isinstance(lab, tuple) for lab in labels)
    # runs of the neutral letter appear with every exit digit
    assert any(lab[:2] == (2, 2) for lab in labels)


def test_jump_edges_compose_parabolic_runs(jumped_backward):
    from thermoform.gdms import compose_word

    S = jumped_backward
    P = backward_cf()
    # the derived branch labeled (i,...,i,j) is phi_i^n o phi_j
    for k in range(24):
        derived = S.edge(k)
        direct = compose_word(P, derived.label)
        for u in (0.15, 0.5, 0.85):
            assert derived.fn(u) == pytest.approx(direct(u), abs=1e-11)


def test_jump_run_deriv_solves_each_mp_step_once(jumped_mp, monkeypatch):
    # a run edge i^n j steps through n + 1 Manneville-Pomeau branches; each
    # gives its value and derivative from one brentq solve
    runs = [br for br in (jumped_mp.edge(k) for k in range(24)) if br.kind == "jump-run"]
    assert runs
    calls, solve = [], gdms_module.brentq
    monkeypatch.setattr(gdms_module, "brentq", lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    P = jumped_mp.original
    for br in runs:
        bi, bj = P.branch(br.params["i"]), P.branch(br.params["j"])
        for x in (0.15, 0.5, 0.85):
            calls.clear()
            d = br.deriv(x)
            assert len(calls) == br.params["n"] + 1
            ref = bj.deriv(x)  # the chain rule with deriv and fn apart
            y = bj.fn(x)
            for _ in range(br.params["n"]):
                ref *= bi.deriv(y)
                y = bi.fn(y)
            assert d == ref


def test_jump_contraction_backward():
    rep = jump_contraction_report(backward_cf(), n_cap=64)
    assert rep.worst < 1.0


def test_jump_contraction_mp():
    rep = jump_contraction_report(manneville_pomeau(0.5), n_cap=64)
    assert rep.worst < 1.0


def test_jump_admissibility_matches_concatenation(jumped_backward):
    S = jumped_backward
    P = backward_cf()
    branches = [S.edge(k) for k in range(15)]
    for a in branches:
        for b in branches:
            assert S.admissible_pair(a, b) == P.is_admissible_word(
                tuple(a.label) + tuple(b.label)
            )


def test_jump_shift_view_matches_pairs(jumped_mp):
    S = jumped_mp
    A = S.shift_view(12)
    for i in range(12):
        for j in range(12):
            assert A.allows(i, j) == S.admissible_pair(S.edge(i), S.edge(j))


def _mp_without_pair_11():
    """manneville_pomeau(0.5) with the label pair (1, 1) forbidden."""
    P = manneville_pomeau(0.5)
    base = dict(vertices=P.vertices, edge_factory=P.edge, n_edges=P.n_edges,
                pair_allowed=lambda a, b: (a, b) != (1, 1), name="mp-no-11")
    return ParabolicSystem(base, P.parabolic)


@pytest.mark.parametrize("make,N", [
    (backward_cf, 24),
    (_mp_without_pair_11, 17),
], ids=["no-pair-rule", "forbidden-pair"])
def test_jump_shift_view_asks_the_parent_on_last_and_first(make, N):
    P = make()
    S = jump_transform(P, n_cap=16)
    # the vertex rule on derived letters is the parent's, so a jump system
    # keeps a pair rule only when its parent has one
    assert (S.pair_allowed is None) == (P.pair_allowed is None)
    edges = S.edges_up_to(N)
    ref = np.array([[P.admissible_pair(P.branch(a.label[-1]), P.branch(b.label[0]))
                     for b in edges] for a in edges], dtype=bool)
    assert np.array_equal(S.shift_view(N).submatrix(N), ref)
    assert ref.all() == (P.pair_allowed is None)


# --- parabolic asymptotics


def test_parabolic_decay_backward_cf():
    fit = parabolic_asymptotics(backward_cf(), 2, [2**k for k in range(4, 11)])
    assert fit.slope == pytest.approx(-2.0, rel=0.08)
    assert fit.residual < 0.2
    assert fit.beta_implied == pytest.approx(1.0, rel=0.1)


def test_parabolic_decay_mp_alpha_one():
    fit = parabolic_asymptotics(manneville_pomeau(1.0), 0,
                                [2**k for k in range(4, 11)])
    assert fit.slope == pytest.approx(-2.0, rel=0.08)


def test_parabolic_needs_three_levels():
    with pytest.raises(ConfigError):
        parabolic_asymptotics(backward_cf(), 2, [16, 32])


# --- geometric potentials


def test_geometric_potential_gauss_branch_derivative():
    G = gauss_cf()
    g = (math.sqrt(5) - 1) / 2
    for t in (0.5, 0.7):
        psi = geometric_potential(G, t=t)
        for n in (1, 2, 5):
            # word starting with digit n, then all-ones tail: the branch
            # derivative at the golden tail point is 1/(g+n)^2
            word = (n - 1,) + (0,) * 40
            assert psi.value(word) == pytest.approx(-2 * t * math.log(g + n),
                                                    abs=1e-12)


def test_geometric_potential_sup_dominates_point_values():
    G = gauss_cf()
    psi = geometric_potential(G, t=0.6)
    letters = np.arange(12)[:, None]
    sups = letter_sups(letters, psi.table(letters), 12)
    for e in range(5):
        assert sups[e] >= psi.value((e,) + (0,) * 40) - 1e-12


def test_geometric_potential_affine_is_constant_per_letter():
    S = affine_system([(1 / 3, 0.0), (1 / 3, 2 / 3)])
    psi = geometric_potential(S, t=1.0)
    for e in range(2):
        v = psi.value((e,) + (0,) * 10)
        assert v == pytest.approx(math.log(1 / 3), abs=1e-14)


@pytest.mark.parametrize("q", [0.0, 0.5])
def test_geometric_potential_tabulate_shares_log_derivatives(monkeypatch, q):
    G = gauss_cf()
    theta = Potential.memory2([[0.1, -0.2], [0.3, 0.0]])
    words = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
    ts = (0.0, 0.4, 0.9)
    expect = [[geometric_potential(G, t=t, q=q, theta=theta, p_theta=0.25,
                                   memory=3).value(w) for w in words] for t in ts]
    base = geometric_potential(G, t=0.4, q=q, theta=theta, p_theta=0.25, memory=3)
    values = base.tabulate(words)
    monkeypatch.setattr(gdms_module, "coding_point", None)  # no recomputation
    for t, row in zip(ts, expect):
        assert values(t).tolist() == row


def _geometric_with_memory2_theta():
    theta = Potential.memory2([[0.1, -0.2, 0.05], [0.3, 0.0, -0.1], [0.2, 0.15, -0.3]])
    return geometric_potential(gauss_cf(), t=0.7, q=0.5, theta=theta, p_theta=0.25), theta


def test_geometric_table_matches_per_row_reference():
    psi, theta = _geometric_with_memory2_theta()
    words = np.array([(a, b, c) for a in range(3) for b in range(3) for c in range(3)])
    G = psi.system
    ref = []
    for w in words.tolist():
        # log|phi'_(first letter)| at the coding point of the tail extension
        tail = w[1:] if len(w) > 1 else w
        x = coding_point(G, tail_extension(G, [G.edge(k).label for k in tail]),
                         tol=gdms_module.CODING_TOL)
        # the additions the per-word value() made
        out = 0.0
        out += psi.t * math.log(abs(G.edge(w[0]).deriv(x)))
        out += psi.q * (theta.value(w[:2]) - psi.p_theta)
        ref.append(out)
    assert psi.memory == 2
    assert psi.table(words).tolist() == ref
    assert [psi.value(w) for w in words.tolist()] == ref


def _two_vertex_affine(*edges):
    """Edges (label, source, target, a, b) of x -> a x + b on two unit vertices."""
    return system_from_config({"vertices": [[0.0, 1.0], [0.0, 1.0]], "edges": [
        {"label": l, "source": s, "target": d, "kind": "affine", "params": {"a": a, "b": b}}
        for l, s, d, a, b in edges]})


# e: 0 -> 0, f: 1 -> 0, g: 0 -> 1, so g may not follow e or g
_GRAPH = [("e", 0, 0, 1 / 3, 0.0), ("f", 1, 0, 1 / 3, 2 / 3), ("g", 0, 1, 1 / 3, 0.0)]
# nothing maps into vertex 1, so b has no successor; c never contracts
_SINK = [("a", 0, 0, 0.5, 0.0), ("b", 1, 0, 0.5, 0.5), ("c", 0, 0, 0.99999, 0.0)]


@pytest.mark.parametrize("edges, memory, words", [
    (_GRAPH, 3, [[0, 0, 0], [1, 2, 2], [0, 0, 2]]),
    (_SINK, 4, [[0, 0, 1, 1]]),
    (_SINK, 2, [[0, 2], [0, 1]]),
    (_SINK, 2, [[0, 1], [0, 2]]),
    (_SINK, 3, [[0, 0, 0], [0, 0, 1]]),
])
def test_geometric_table_fails_as_its_first_failing_row_does(edges, memory, words):
    # an inadmissible tail, a tail whose greedy orbit stops and a tail that
    # never contracts: the table raises what coding_point raises on the
    # first row that fails, going through the rows in order
    S = _two_vertex_affine(*edges)
    with pytest.raises(Exception) as want:
        for w in words:
            tail = w[1:] or w
            coding_point(S, tail_extension(S, [S.edge(k).label for k in tail]),
                         tol=gdms_module.CODING_TOL)
    with pytest.raises(type(want.value)) as got:
        geometric_potential(S, t=1.0, memory=memory).table(words)
    assert str(got.value) == str(want.value)


def test_geometric_letter_sups_match_per_letter_search():
    # theta reads two letters, so the sups come from the admissible 2-words
    psi, _ = _geometric_with_memory2_theta()
    A = IncidenceMatrix.from_forbidden_pairs([(0, 1), (2, 2)])
    ref = []
    for e in range(3):
        ref.append(max(psi.value((e, b)) for b in range(3) if A.allows(e, b)))
    states = shifts._state_graph(psi.memory, A, 3, 10**6).states
    assert letter_sups(states, psi.table(states), 3).tolist() == ref


# --- config plumbing


def test_system_from_config_builtin_affine():
    S = system_from_config({"builtin": "affine",
                            "branches": [[0.5, 0.0], [0.25, 0.75]]})
    assert S.n_edges == 2
    assert S.branch(S.edge(1).label).fn(0.0) == pytest.approx(0.75)


def test_system_from_config_explicit_edges():
    cfg = {
        "vertices": [[0.0, 1.0]],
        "edges": [
            {"label": "a", "kind": "affine", "params": {"a": 0.4, "b": 0.0}},
            {"label": "b", "kind": "affine", "params": {"a": 0.4, "b": 0.6}},
        ],
        "forbidden_pairs": [["b", "b"]],
    }
    S = system_from_config(cfg)
    assert S.n_edges == 2
    assert S.is_admissible_word(["a", "b"])
    assert not S.is_admissible_word(["b", "b"])


def test_system_from_config_mp_branch_matches_builtin():
    P = manneville_pomeau(0.5)
    edges = [{"label": k, "kind": "mp-branch", "params": P.edge(k).params} for k in range(2)]
    S = system_from_config({"vertices": [[0.0, 1.0]], "edges": edges})
    grid = np.linspace(0.0, 1.0, 65)
    for k in range(2):
        want, got = P.edge(k), S.edge(k)
        assert got.kind == "mp-branch" and (got.dom, got.img) == (0, 0)
        for y in grid:
            assert got.fn(y) == want.fn(y)
            assert got.deriv(y) == want.deriv(y)


def test_system_from_config_rejects_unknown_builtin():
    with pytest.raises(ConfigError):
        system_from_config({"builtin": "zeta"})
    with pytest.raises(ConfigError):
        system_from_config({"builtin": "affine",
                            "branches": [[0.5, 0.0]], "jump": {}})


def _pairwise_view(S, N):
    """The letter table of shift_view, one admissible_pair call per pair."""
    edges = S.edges_up_to(N)
    return np.array([[S.admissible_pair(a, b) for b in edges] for a in edges], dtype=bool)


# two vertices: edges 0, 1 leave vertex 0 and edges 2, 3 vertex 1 (dom),
# each lands in the vertex of its target (img); two label pairs that the
# vertices allow are forbidden
TWO_VERTEX = {
    "vertices": [[0.0, 0.5], [0.5, 1.0]],
    "edges": [{"label": k, "source": k // 2, "target": k % 2, "kind": "affine",
               "params": {"a": 0.2, "b": b}} for k, b in enumerate([0.05, 0.6, 0.1, 0.7])],
    "forbidden_pairs": [[0, 0], [3, 3]],
}


@pytest.mark.parametrize("make,N", [
    (lambda: system_from_config(TWO_VERTEX), 4),
    (lambda: jump_transform(backward_cf(), n_cap=64), 24),
    (lambda: jump_transform(manneville_pomeau(0.5), n_cap=64), 24),
    (gauss_cf, 10),
], ids=["two-vertex", "jump-backward-cf", "jump-mp", "gauss"])
def test_shift_view_matches_pairwise_rule(make, N):
    S = make()
    ref = _pairwise_view(S, N)
    assert np.array_equal(S.shift_view(N).submatrix(N), ref)
    assert S.shift_view(N).is_full == bool(ref.all())


@pytest.mark.parametrize("n_cap", [0, -3])
def test_jump_transform_refuses_a_cap_below_one(n_cap):
    # a cap below 1 would emit no run edges and silently change the root
    with pytest.raises(ConfigError, match="n_cap"):
        jump_transform(backward_cf(), n_cap=n_cap)


def test_shift_view_detects_full_shift():
    assert gauss_cf().shift_view(10).is_full
    # backward_cf has one vertex and no pair rule, so every pair of jump
    # letters is admissible: the view is full although the system has a rule
    assert jump_transform(backward_cf(), n_cap=32).shift_view(10).is_full
    # the vertex rule forbids 8 pairs and the label rule 2 more
    view = system_from_config(TWO_VERTEX).shift_view(4)
    assert not view.is_full
    assert view.forbidden == {(0, 1), (0, 3), (1, 1), (1, 3), (2, 0), (2, 2), (3, 0), (3, 2),
                              (0, 0), (3, 3)}
