"""Greedy expansions, the return-time partition, and the tower extension."""

import math

import numpy as np
import pytest

from thermoform import beta as beta_mod
from thermoform.beta import (
    GOLDEN,
    BetaSystem,
    ExtensionPoint,
    GlsPartition,
    analyze,
    beta_digits,
    expansion_of_one,
    first_return_time,
    gls_natural_extension,
    gls_partition_interval,
    golden_conjugacy_deviation,
    golden_w_map,
    identity_check,
    induced_map_z0,
    is_admissible_beta,
    measured_return_time,
    natural_extension_step,
    t_beta,
)
from thermoform.errors import (
    BoundaryPointError,
    BudgetError,
    ConvergenceError,
    DomainError,
    ThermoformError,
)
from thermoform.rng import task_rng

# greedy digits of 1 for beta = pi, recomputed by hand iteration of
# x -> frac(beta x) starting from 1
PI_DIGITS_OF_ONE = [3, 0, 1, 1, 0, 2, 1, 1, 1, 0, 0, 2]

BETAS = [GOLDEN, 1.8, math.pi]


# --- digits


def test_t_beta_basic():
    assert t_beta(2.0, 0.75) == pytest.approx(0.5)
    assert t_beta(10.0, 0.123) == pytest.approx(0.23, abs=1e-12)


def test_beta_digits_dyadic_sanity():
    # 11/16 is exact in binary, so the digit reads are too
    assert beta_digits(2.0, 0.6875, 4) == [1, 0, 1, 1]


def test_expansion_of_one_golden_is_finite():
    digits, finite = expansion_of_one(GOLDEN)
    assert finite
    assert digits == [1, 1]


def test_expansion_of_one_integer_base():
    digits, finite = expansion_of_one(2.0)
    assert finite
    assert digits == [2]


def test_expansion_of_one_pi_matches_hand_iteration():
    digits, finite = expansion_of_one(math.pi, k=12)
    assert not finite
    assert digits == PI_DIGITS_OF_ONE


@pytest.mark.parametrize("beta", BETAS)
def test_digits_of_one_reconstruct_one(beta):
    digits, finite = expansion_of_one(beta, k=16)
    total = sum(d * beta ** (-(j + 1)) for j, d in enumerate(digits))
    if finite:
        assert total == pytest.approx(1.0, abs=3e-16)
    else:
        # greedy truncations undershoot by at most one tail cell
        assert 0.0 < 1.0 - total < beta ** (-15)


def test_quasi_greedy_digits_golden():
    bs = BetaSystem(GOLDEN)
    # finite (1,1) turns into the periodic word (1,0) repeated
    assert [bs.quasi_greedy_digit(j) for j in range(1, 7)] == [1, 0, 1, 0, 1, 0]


def test_quasi_greedy_digits_integer_base():
    bs = BetaSystem(2.0)
    assert [bs.quasi_greedy_digit(j) for j in range(1, 5)] == [1, 1, 1, 1]


def test_tail_prefix_identity():
    for beta in BETAS:
        bs = BetaSystem(beta, depth=48)
        top = len(bs.digits) if bs.finite else 12
        for k in range(top + 1):
            lhs = bs.prefix_value(k) + beta ** (-k) * bs.tail(k)
            assert lhs == pytest.approx(1.0, abs=1e-12)


def test_admissibility_lexicographic_rule():
    assert is_admissible_beta(GOLDEN, [1, 0, 1, 0])
    assert not is_admissible_beta(GOLDEN, [1, 1])
    assert not is_admissible_beta(GOLDEN, [0, 1, 1, 0])
    assert is_admissible_beta(2.0, [1, 1, 1, 1])
    assert not is_admissible_beta(2.0, [2])
    assert is_admissible_beta(math.pi, [3, 0, 1, 1])
    assert not is_admissible_beta(math.pi, [3, 1])


def test_digit_budget_is_hard():
    bs = BetaSystem(math.pi, depth=4, max_depth=4)
    bs.digit(4)
    with pytest.raises(BudgetError):
        bs.digit(5)


# --- partition


@pytest.mark.parametrize("beta", BETAS)
def test_cells_tile_left_to_right(beta):
    part = GlsPartition(BetaSystem(beta, depth=64))
    cells = part.cells_up_to(40)
    assert cells[0].left == 0.0
    for a, b in zip(cells, cells[1:]):
        assert b.left == pytest.approx(a.right, abs=1e-14)
        assert a.length == pytest.approx(beta ** (-(a.k + 1)), abs=1e-15)


def test_partition_coverage_approaches_one():
    part = GlsPartition(BetaSystem(math.pi, depth=64))
    c10, c40 = part.coverage(10), part.coverage(40)
    assert c10 < c40 <= 1.0 + 1e-12
    assert c40 > 0.999


def test_golden_partition_is_two_cells():
    part = GlsPartition(BetaSystem(GOLDEN))
    assert part.total_cells == 2
    (l0, r0), k0, _ = gls_partition_interval(GOLDEN, 1)
    (l1, r1), k1, _ = gls_partition_interval(GOLDEN, 2)
    assert (l0, k0) == (0.0, 0)
    assert r0 == pytest.approx(1 / GOLDEN, abs=1e-15)
    assert l1 == pytest.approx(1 / GOLDEN, abs=1e-15)
    assert r1 == pytest.approx(1.0, abs=1e-15)
    assert k1 == 1
    with pytest.raises(DomainError):
        part.cell(3)


@pytest.mark.parametrize("beta", [1.8, math.pi])
def test_locate_round_trips_cell_interiors(beta):
    part = GlsPartition(BetaSystem(beta, depth=64))
    checked = 0
    for n in range(1, 41):
        cell = part.cell(n)
        if cell.length < 1e-9:
            continue  # interior offsets thinner than float spacing near 1
        for u in (0.31, 0.77):
            found = part.locate(cell.left + u * cell.length)
            assert found.n == n
        checked += 1
    assert checked >= 15


def test_locate_flags_cell_boundaries():
    part = GlsPartition(BetaSystem(GOLDEN))
    with pytest.raises((BoundaryPointError, DomainError)):
        part.locate(1 / GOLDEN)


def test_locate_rejects_outside_domain():
    part = GlsPartition(BetaSystem(1.8))
    with pytest.raises(DomainError):
        part.locate(-0.1)
    with pytest.raises(DomainError):
        part.locate(1.0)


# --- tower map


def test_tower_climb_and_drop_golden():
    bs = BetaSystem(GOLDEN)
    # x in the right cell rides the expansion of 1 for one step
    p = natural_extension_step(bs, ExtensionPoint(0.7, 0.3, 0))
    assert p.level == 1
    assert p.y == pytest.approx(0.3 / GOLDEN, abs=1e-15)
    # from floor 1 the only digits are 0 (drop) since b_2 = 1 needs x >= tail
    q = natural_extension_step(bs, p)
    assert q.level in (0, 2)


def test_tower_drop_lands_on_cell_left():
    # starting from (x, 0) with x in cell n, the orbit climbs k floors and
    # drops once; the landing y is exactly the left endpoint of cell n
    bs = BetaSystem(1.8, depth=48)
    part = GlsPartition(bs)
    for n in range(1, 21):
        cell = part.cell(n)
        x = cell.left + 0.4 * cell.length
        p = ExtensionPoint(x, 0.0, 0)
        steps = 0
        while True:
            p = natural_extension_step(bs, p)
            steps += 1
            if p.level == 0:
                break
        assert steps == cell.return_time
        assert p.y == pytest.approx(cell.left, abs=1e-11)


@pytest.mark.parametrize("beta", BETAS)
def test_identity_of_tower_and_affine_routes(beta):
    assert identity_check(beta, sample_size=2000, seed=1) < 1e-11


def test_identity_check_accepts_prebuilt_system():
    bs = BetaSystem(1.8, depth=64)
    assert identity_check(bs, sample_size=500, seed=2) < 1e-11


# largest gaps over 2000 samples at seed 0 (4096 for the conjugacy), frozen
# from the two rejection loops that the shared one replaced; equal values
# mean the same draws are accepted and redrawn
IDENTITY_SEED0 = {GOLDEN: 3.3306690738754696e-16, 1.8: 1.2889689315898067e-13,
                  math.pi: 2.0489165919457264e-13}
GOLDEN_CONJUGACY_SEED0 = 4.440892098500626e-16


@pytest.mark.parametrize("beta", BETAS)
def test_identity_check_frozen_stream(beta):
    assert identity_check(beta, sample_size=2000, seed=0) == IDENTITY_SEED0[beta]


def test_golden_conjugacy_frozen_stream():
    assert golden_conjugacy_deviation(sample_size=4096, seed=0) == GOLDEN_CONJUGACY_SEED0


# largest gaps at the bench's size: 10,000 samples, depth 256, seed 901,
# frozen from the per-sample loop
IDENTITY_BENCH_SEED901 = {GOLDEN: 3.3306690738754696e-16, 1.8: 1.3807954779565534e-11,
                          math.pi: 3.4561242756581123e-13}


@pytest.mark.parametrize("beta", BETAS)
def test_identity_check_frozen_at_bench_size(beta):
    bs = BetaSystem(beta, depth=256, max_depth=256)
    assert identity_check(bs, sample_size=10_000, seed=901) == IDENTITY_BENCH_SEED901[beta]


def _scalar_gap(bs, x, y):
    """One sample through both routes, one ExtensionPoint at a time."""
    xa, ya = gls_natural_extension(GlsPartition(bs), x, y)
    p = ExtensionPoint(x, y, 0)
    for _ in range(first_return_time(bs, x, y)):
        p = natural_extension_step(bs, p)
    return max(abs(xa - p.x), abs(ya - p.y))


def _scalar_max_gap(gap, sample_size, seed):
    """The per-sample loop identity_check replaced: draw x then y, redraw on
    BoundaryPointError, give up past 50 * sample_size + 1000 redraws."""
    rng = task_rng(seed)
    worst, accepted, rejected = 0.0, 0, 0
    while accepted < sample_size:
        if rejected > 50 * sample_size + 1000:
            raise ConvergenceError("too many boundary-adjacent samples rejected")
        x, y = float(rng.random()), float(rng.random())
        try:
            dev = gap(x, y)
        except BoundaryPointError:
            rejected += 1
            continue
        worst = max(worst, dev)
        accepted += 1
    return worst


def _scalar_identity_check(bs, sample_size, seed):
    return _scalar_max_gap(lambda x, y: _scalar_gap(bs, x, y), sample_size, seed)


@pytest.mark.parametrize("sample_size, seed", [(4096, 0), (1024, 0), (3000, 7), (500, 3)])
def test_golden_conjugacy_matches_scalar_loop(sample_size, seed):
    # golden_w_map is the scalar form of the branches the array route inlines
    part = GlsPartition(BetaSystem(GOLDEN))

    def gap(x, y):
        sx, sy = gls_natural_extension(part, x, y)
        wx, wy = golden_w_map(x, y / GOLDEN)
        return max(abs(sx - wx), abs(sy / GOLDEN - wy))

    assert golden_conjugacy_deviation(sample_size, seed) == _scalar_max_gap(gap, sample_size, seed)


def _outcome(run):
    try:
        return run()
    except Exception as exc:  # which exception, and for which draw, is the outcome
        return type(exc), str(exc)


# of the 48 capped runs per beta below, how many raise (BudgetError, once a
# sample climbs past the digits of 1 the cap allows)
RAISING_RUNS = {GOLDEN: 4, 1.8: 41, math.pi: 21, 2.5: 25, 1.1: 48}


def _capped(beta, depth):
    return BetaSystem(beta, depth=depth, max_depth=depth)


@pytest.mark.parametrize("beta", list(RAISING_RUNS))
def test_identity_check_matches_scalar_loop(beta):
    raised = 0
    for depth in range(1, 13):
        for seed in range(4):
            want = _outcome(lambda: _scalar_identity_check(_capped(beta, depth), 200, seed))
            got = _outcome(lambda: identity_check(_capped(beta, depth), 200, seed))
            assert got == want, (depth, seed)
            raised += isinstance(want, tuple)
    assert raised == RAISING_RUNS[beta]


def test_identity_check_rejection_cap_matches_scalar_loop():
    # beta * x is a float above 2^53, hence an integer, for every draw: all
    # samples are ambiguous and the redraw cap is what ends the run
    assert _outcome(lambda: _scalar_identity_check(BetaSystem(1e300), 200, 0))[0] \
        is ConvergenceError
    with pytest.raises(ConvergenceError):
        identity_check(1e300, sample_size=200, seed=0)


def test_identity_batch_rejects_boundary_points():
    bs = BetaSystem(GOLDEN)
    x = np.array([1 / GOLDEN, 0.3, 0.8, 0.0])
    y = np.array([0.5, 0.25, 0.6, 0.9])
    batch = beta_mod._identity_batch(bs, x, y)
    # 1/phi sits on the boundary of the two cells: redrawn, not an error;
    # 0 is no carry, so it stays
    assert batch.rejected.tolist() == [True, False, False, False]
    assert batch.failed.tolist() == [-1, -1, -1, -1]
    with pytest.raises(BoundaryPointError):
        _scalar_gap(bs, 1 / GOLDEN, 0.5)
    for j in (1, 2, 3):
        assert batch.gap[j] == _scalar_gap(bs, float(x[j]), float(y[j]))


@pytest.mark.parametrize("beta", BETAS)
def test_array_routes_match_scalar_routes_bitwise(beta):
    bs = BetaSystem(beta, depth=256, max_depth=256)
    part = GlsPartition(bs)
    u = task_rng(11).random(2 * 3000)
    # random points, which mostly exit on the lowest floors, and points inside
    # each of the first 60 cells, which reach every floor up to theirs
    cells = part.cells_up_to(60)
    inner = [c.left + r * c.length for c in cells for r in (0.13, 0.5, 0.77)]
    x = np.concatenate([u[0::2], inner])
    y = np.concatenate([u[1::2], np.linspace(0.05, 0.95, len(inner))])
    batch = beta_mod._Batch(x.size)
    xa, ya = beta_mod._partition_route(bs, x, y, batch)
    live = np.flatnonzero(~batch.rejected & (batch.failed < 0))
    xt, yt = beta_mod._tower_return(bs, x, y, batch, live)
    for j in range(x.size):
        xj, yj = float(x[j]), float(y[j])
        try:
            want = gls_natural_extension(part, xj, yj)
            p = ExtensionPoint(xj, yj, 0)
            for _ in range(first_return_time(bs, xj, yj)):
                p = natural_extension_step(bs, p)
        except BoundaryPointError:
            assert batch.rejected[j]
            continue
        except ThermoformError as exc:
            # deep cells drift off their floor; the same point must fail alike
            assert type(batch.errors[batch.failed[j]]) is type(exc)
            continue
        assert batch.failed[j] == -1 and not batch.rejected[j]
        assert (xa[j], ya[j]) == want
        assert (xt[j], yt[j]) == (p.x, p.y)


def test_tower_return_validates_each_point():
    # the off-floor points fail as ExtensionPoint.validate fails them
    bs = BetaSystem(1.8)
    x = np.array([0.5, 1.0 + 1e-11, 0.5])
    y = np.array([0.5, 0.5, 1.0 + 1e-11])
    batch = beta_mod._Batch(x.size)
    beta_mod._tower_return(bs, x, y, batch, np.arange(x.size))
    assert batch.failed[0] == -1
    for j in (1, 2):
        with pytest.raises(DomainError) as scalar:
            first_return_time(bs, float(x[j]), float(y[j]))
        assert str(batch.errors[batch.failed[j]]) == str(scalar.value)


def _indexed(kinds):
    """A scalar gap and a batch outcome function that agree draw by draw:
    draw c overall is kinds(c), one of "ok" (gap x), "reject" or "fail"."""
    calls = [0]

    def gap(x, y):
        c = calls[0]
        calls[0] += 1
        if kinds(c) == "reject":
            raise BoundaryPointError(f"draw {c}")
        if kinds(c) == "fail":
            raise DomainError(f"draw {c}")
        return x

    drawn = [0]

    def outcomes(x, y):
        batch = beta_mod._Batch(x.size)
        for j in range(x.size):
            c = drawn[0] + j
            if kinds(c) == "reject":
                batch.rejected[j] = True
            elif kinds(c) == "fail":
                batch.fail(np.array([j]), DomainError(f"draw {c}"))
        batch.gap = x.copy()
        drawn[0] += x.size
        return batch

    return gap, outcomes


# (sample size, kind of draw c): the cap for one sample is 1050 redraws
DRAW_ORDER_CASES = [
    (1, lambda c: "reject" if c < 1050 else "fail"),  # last draw before the cap
    (1, lambda c: "reject" if c < 1051 else "fail"),  # cap passed first
    (10, lambda c: "reject" if c % 2 else "ok"),
    (10, lambda c: "fail" if c in (3, 5) else "reject" if c % 2 else "ok"),
    (10, lambda c: "fail" if c == 40 else "reject" if c % 2 else "ok"),  # never read
    (3, lambda c: "reject" if c < 1149 else "ok"),
    (3, lambda c: "reject" if c < 1151 else "ok"),
    # the cap for 100 samples is 6000 redraws, passed inside a round of 100
    (100, lambda c: "reject" if c < 6000 else "fail"),
    (100, lambda c: "reject" if c < 6001 else "fail"),
]


@pytest.mark.parametrize("case", range(len(DRAW_ORDER_CASES)))
def test_max_gap_reads_outcomes_in_draw_order(case):
    n, kinds = DRAW_ORDER_CASES[case]
    gap, outcomes = _indexed(kinds)
    want = _outcome(lambda: _scalar_max_gap(gap, n, seed=7))
    assert _outcome(lambda: beta_mod._max_gap(outcomes, n, seed=7)) == want


def test_induced_map_matches_affine_form():
    bs = BetaSystem(math.pi, depth=64)
    part = GlsPartition(bs)
    rng = task_rng(5)
    for _ in range(40):
        x, y = rng.random(), rng.random()
        a = induced_map_z0(bs, x, y)
        b = gls_natural_extension(part, x, y)
        assert a[0] == pytest.approx(b[0], abs=1e-11)
        assert a[1] == pytest.approx(b[1], abs=1e-11)


def test_golden_conjugacy_deviation_small():
    assert golden_conjugacy_deviation(sample_size=1024, seed=0) < 1e-12


# --- return times


@pytest.mark.parametrize("beta", BETAS)
def test_measured_return_time_equals_cell_return(beta):
    bs = BetaSystem(beta, depth=1 << 12, max_depth=1 << 14)
    part = GlsPartition(bs)
    total = part.total_cells
    for n in range(1, 61):
        if total is not None and n > total:
            break
        cell = part.cell(n)
        assert measured_return_time(bs, n) == cell.return_time
        assert measured_return_time(bs, n, u=0.81) == cell.return_time


def test_first_return_time_agrees_on_shallow_cells():
    bs = BetaSystem(1.8, depth=256)
    part = GlsPartition(bs)
    for n in range(1, 15):
        cell = part.cell(n)
        x = cell.left + 0.37 * cell.length
        assert first_return_time(bs, x, 0.4) == cell.return_time


def test_first_return_budget():
    bs = BetaSystem(1.8, depth=256)
    part = GlsPartition(bs)
    cell = part.cell(12)
    with pytest.raises(BudgetError):
        first_return_time(bs, cell.left + 0.37 * cell.length, 0.4,
                          budget=cell.return_time - 1)


# --- analyze bundle


def test_analyze_summary_shape():
    out = analyze(1.8, depth=32, identity_samples=400, partition_cells=12, seed=0)
    assert out["beta"] == 1.8
    assert not out["finite"]
    assert len(out["partition"]) == 12
    assert 0.9 < out["partition_coverage"] <= 1.0
    assert out["identity_check"] < 1e-11


def test_analyze_depth_budget_raises():
    with pytest.raises(BudgetError):
        analyze(math.pi, depth=4)
