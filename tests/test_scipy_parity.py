"""thermoform's own Brent loop, strip ball counts and irreducibility check
give what the scipy routines they stand in for give: the same float and
the same counts; test_scipy_parity_fuzz.py fuzzes the Brent loop and the
irreducibility verdict. scipy is imported here as the reference."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq
from scipy.spatial import cKDTree

from thermoform import dimension, gdms
from thermoform.rng import task_rng

PHI = (1.0 + math.sqrt(5.0)) / 2.0
# the xtol thermoform asks for: temperature, the MP branch inverse, and the
# default (MP's x_star, fixed points of config branches)
TOLS = [{"xtol": 1e-13}, {"xtol": 1e-15}, {}]


@pytest.mark.parametrize("kw", TOLS)
def test_brentq_returns_an_end_where_f_is_zero(kw):
    for a, b in [(1.0, 3.0), (-2.0, 1.0), (1.0, -2.0)]:
        root = gdms.brentq(lambda x: x - 1.0, a, b, **kw)
        assert root == 1.0 and root.hex() == scipy_brentq(lambda x: x - 1.0, a, b, **kw).hex()


@pytest.mark.parametrize("f,a,b", [
    (lambda x: x * x + 1.0, -1.0, 2.0),  # same signs
    (lambda x: math.nan, 0.0, 1.0),  # NaN at an end
    (lambda x: math.nan if 0.3 < x < 0.7 else x - 0.5, 0.0, 1.0),  # NaN inside
])
def test_brentq_raises_value_error_as_scipy_does(f, a, b):
    with pytest.raises(ValueError) as ours:
        gdms.brentq(f, a, b)
    with pytest.raises(ValueError) as theirs:
        scipy_brentq(f, a, b)
    assert str(ours.value) == str(theirs.value)


def test_brentq_raises_runtime_error_as_scipy_does(monkeypatch):
    f = lambda x: math.atan(x - 0.123)  # noqa: E731
    monkeypatch.setattr(gdms, "BRENT_MAXITER", 3)
    with pytest.raises(RuntimeError) as ours:
        gdms.brentq(f, -10.0, 10.0)
    with pytest.raises(RuntimeError) as theirs:
        scipy_brentq(f, -10.0, 10.0, maxiter=3)
    assert str(ours.value) == str(theirs.value)


# --- ball counts


def _kdtree_counts(pts, centers, radii):
    tree = cKDTree(pts)
    return np.stack([np.asarray(tree.query_ball_point(centers, r=r, return_length=True))
                     for r in radii], axis=1) - 1


@pytest.mark.parametrize("seed", [1, 2])
def test_strip_counts_equal_kdtree_on_the_golden_joint_cloud(seed):
    # the clouds workload's global check: M = 2e5, 64 centers, j = 3..9
    mu, part = dimension.induced_cell_chain(PHI, None, None, "golden")
    cloud = dimension.joint_cloud(mu, part, 200_000, None, seed)
    centers = cloud[task_rng(seed + 1).choice(cloud.shape[0], size=64, replace=False)]
    radii = 2.0 ** -np.arange(3, 10).astype(float)
    got = dimension._ball_counts_2d(cloud, centers, radii)
    assert got.dtype.kind == "i"
    assert np.array_equal(got, _kdtree_counts(cloud, centers, radii))


def test_strip_counts_equal_kdtree_on_and_beside_the_circle():
    rng = task_rng(7)
    centers = np.vstack([rng.random((24, 2)), [[0.0, 0.0], [1.0, 0.5], [-0.75, 3.0]]])
    radii = 2.0 ** -np.arange(1, 8).astype(float)
    angles = np.concatenate((np.arange(4) * np.pi / 2, rng.random(12) * 2 * np.pi))
    ring = []
    for cx, cy in centers:
        for r in radii:
            x, y = cx + r * np.cos(angles), cy + r * np.sin(angles)
            # on the circle, exactly so where cx + r and cy - r are exact
            x[::4], y[::4] = cx + r, cy
            x[1::4], y[1::4] = cx, cy - r
            for dx in (-np.inf, None, np.inf):  # one ulp either side, or none
                for dy in (-np.inf, None, np.inf):
                    ring.append(np.column_stack((
                        x if dx is None else np.nextafter(x, dx),
                        y if dy is None else np.nextafter(y, dy))))
    pts = np.vstack([centers, *ring, rng.random((2_000, 2))])
    got = dimension._ball_counts_2d(pts, centers, radii)
    assert np.array_equal(got, _kdtree_counts(pts, centers, radii))
