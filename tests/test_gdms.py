"""Branch systems: coding, separation checks, jump transform, asymptotics."""

import math

import numpy as np
import pytest

from thermoform import gdms as gdms_module
from thermoform.errors import ConfigError
from thermoform.gdms import (
    affine_system,
    backward_cf,
    bdp_constant,
    coding_point,
    compose_branch,
    gauss_cf,
    gdms_map_apply,
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
from thermoform.shifts import Potential

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


def test_expanding_map_inverts_each_branch():
    G = gauss_cf()
    for n in (1, 2, 5, 9):
        br = G.branch(n)
        for u in np.linspace(0.05, 0.95, 7):
            y = br.fn(u)
            assert gdms_map_apply(G, y) == pytest.approx(u, abs=1e-10)


def test_compose_branch_interval_and_derivative_range():
    from thermoform.gdms import compose_word

    G = gauss_cf()
    iv, (dmin, dmax) = compose_branch(G, [1, 1, 2])
    assert 0.0 < dmin <= dmax < 1.0
    fn = compose_word(G, [1, 1, 2])
    # the image interval brackets the composed map
    for u in (0.0, 0.3, 0.9, 1.0):
        assert iv[0] - 1e-12 <= fn(u) <= iv[1] + 1e-12
    # a hand-rolled chain-rule product lands inside the reported range
    d = abs(G.branch(2).deriv(0.5))
    x = G.branch(2).fn(0.5)
    for lab in (1, 1):
        d *= abs(G.branch(lab).deriv(x))
        x = G.branch(lab).fn(x)
    assert dmin <= d <= dmax


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
    for e in range(5):
        sup = psi.sup_over_letter(e, 12, G.shift_view(12))
        assert sup >= psi.value((e,) + (0,) * 40) - 1e-12


def test_geometric_potential_affine_is_constant_per_letter():
    S = affine_system([(1 / 3, 0.0), (1 / 3, 2 / 3)])
    psi = geometric_potential(S, t=1.0)
    for e in range(2):
        v = psi.value((e,) + (0,) * 10)
        assert v == pytest.approx(math.log(1 / 3), abs=1e-14)


def test_geometric_potential_at_shares_log_derivatives(monkeypatch):
    G = gauss_cf()
    theta = Potential.memory2([[0.1, -0.2], [0.3, 0.0]])
    words = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
    ts = (0.0, 0.4, 0.9)
    expect = [[geometric_potential(G, t=t, q=0.5, theta=theta, p_theta=0.25,
                                   memory=3).value(w) for w in words] for t in ts]
    base = geometric_potential(G, t=0.4, q=0.5, theta=theta, p_theta=0.25, memory=3)
    for w in words:
        base.value(w)
    monkeypatch.setattr(gdms_module, "coding_point", None)  # no recomputation
    for t, row in zip(ts, expect):
        psi = base.at(t)
        assert (psi.t, psi.params["t"], psi.memory) == (t, t, 3)
        assert [psi.value(w) for w in words] == row


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
        lo, hi = want.params["bracket"]
        for x in np.linspace(lo, hi, 33):
            assert got.inv(x) == want.inv(x)


def test_system_from_config_rejects_unknown_builtin():
    with pytest.raises(ConfigError):
        system_from_config({"builtin": "zeta"})
    with pytest.raises(ConfigError):
        system_from_config({"builtin": "affine",
                            "branches": [[0.5, 0.0]], "jump": {}})


def test_shift_view_detects_full_shift():
    assert gauss_cf().shift_view(10).is_full
    assert not jump_transform(backward_cf(), n_cap=32).shift_view(10).is_full
