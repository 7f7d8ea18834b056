"""Fuzzed parity with scipy: thermoform's Brent loop returns the float, or
raises the error, that scipy.optimize.brentq does, and its reach counts are
the sizes of scipy's breadth-first orders from the first state, which call a
graph irreducible exactly when scipy finds one strongly connected component.
scipy is imported here as the reference."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from scipy.optimize import brentq as scipy_brentq  # noqa: E402
from scipy.sparse.csgraph import breadth_first_order, connected_components  # noqa: E402

from thermoform import gdms, shifts  # noqa: E402

# the xtol thermoform asks for: temperature, the MP branch inverse, and the
# default (MP's x_star, fixed points of config branches)
TOLS = [{"xtol": 1e-13}, {"xtol": 1e-15}, {}]

SHAPES = {
    "tanh-cubic": lambda s, p: lambda u: math.tanh(s * u) + p * u**3,
    "expm1": lambda s, p: lambda u: math.expm1(s * u) + p * u,
    "atan-wave": lambda s, p: lambda u: math.atan(s * u) * (1.5 + math.sin(5.0 * u + p)),
    "cubic": lambda s, p: lambda u: s * u**3 + p * u,
    "shifted-exp": lambda s, p: lambda u: u * math.exp(p * u) + 1e-3 * s * u**5,
    # not smooth: steps and flat runs make the ties (|f| equal at two points,
    # a step exactly at a bound) that smooth functions almost never hit
    "step": lambda s, p: lambda u: math.copysign(1.0 + p, u) + (s if u > 1.0 else 0.0),
    "quantized": lambda s, p: lambda u: round(math.tanh(s * u) * 64.0 + p) / 64.0,
    "clipped": lambda s, p: lambda u: min(max(s * u, -p - 0.5), 1.0),
}


def _outcome(solve, f, a, b, kw):
    try:
        return "root", solve(f, a, b, **kw).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(shape=st.sampled_from(sorted(SHAPES)), c=st.floats(-5.0, 5.0),
       s=st.floats(0.05, 50.0), p=st.floats(0.0, 3.0),
       left=st.floats(1e-9, 10.0), right=st.floats(1e-9, 10.0),
       flip=st.booleans(), swap=st.booleans(), kw=st.sampled_from(TOLS))
def test_brentq_equals_scipy_bit_for_bit(shape, c, s, p, left, right, flip, swap, kw):
    g = SHAPES[shape](s, p)
    sign = -1.0 if flip else 1.0

    def f(x):
        return sign * g(x - c)

    a, b = c - left, c + right
    if swap:
        a, b = b, a
    assert _outcome(gdms.brentq, f, a, b, kw) == _outcome(scipy_brentq, f, a, b, kw)


# --- irreducibility


def _reference_adjacency(graph, allowed) -> np.ndarray:
    """The dense transition matrix, built from the states themselves."""
    states = graph.states
    if graph.memory == 1:
        return allowed[np.ix_(states[:, 0], states[:, 0])]
    return (states[:, None, 1:] == states[None, :, :-1]).all(axis=2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), N=st.integers(1, 5), m=st.integers(1, 3),
       density=st.sampled_from([0.3, 0.6, 0.9]))
def test_reachability_verdict_equals_scipy(data, N, m, density):
    allowed = np.array(data.draw(st.lists(
        st.floats(0.0, 1.0), min_size=N * N, max_size=N * N))).reshape(N, N) < density
    graph = shifts._state_graph(m, shifts.IncidenceMatrix.from_table(allowed), N, 10**6)
    S = len(graph.states)
    if S == 0:
        return
    adj = _reference_adjacency(graph, allowed)
    ref = tuple(breadth_first_order(g, 0, return_predecessors=False).size
                for g in (adj, adj.T))
    reach = graph.blocks.reach
    assert reach == ref
    ncomp = int(connected_components(adj, directed=True, connection="strong")[0])
    assert (reach == (S, S)) == (ncomp == 1)
