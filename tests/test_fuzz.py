"""Fuzzed configs of all four commands keep the CLI's exit-code contract.

Every config, however malformed, must end in exit 0 (a report), 2 (a numeric
failure or an exceeded cap) or 3 (a config error), with a one-line message
and no traceback. The trees mix valid shapes with wrong types, out-of-range
letters (2**64 among them), ragged tables, empty audit and radius ranges,
malformed brackets, systems and non-finite numbers. Beta and dimension trees
keep every walk, cloud and truncation small, so each run stays cheap.
"""

import contextlib
import io
import json
import math
import warnings

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from thermoform import cli  # noqa: E402

letter = st.integers(min_value=-1, max_value=5)
number = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([701.0, -1e300, math.inf, math.nan]),
)
junk = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), number,
    st.lists(letter, max_size=3), st.dictionaries(st.text(max_size=2), letter, max_size=2),
)
psi = st.one_of(
    st.fixed_dictionaries({"type": st.just("constant"), "value": number}),
    st.fixed_dictionaries({"type": st.just("memory1-table"),
                           "values": st.lists(number, max_size=6)}),
    st.fixed_dictionaries({"type": st.just("memory1-table"),
                           "table": st.dictionaries(st.sampled_from(["0", "1", "2", "x"]),
                                                    number, max_size=4)}),
    st.fixed_dictionaries({"type": st.just("memory2-table"),
                           "values": st.lists(st.lists(number, min_size=1, max_size=5),
                                              max_size=5)}),
    st.fixed_dictionaries({"type": st.just("memory2-table"),
                           "table": st.dictionaries(
                               st.sampled_from(["0,0", "0,1", "1,0", "1,1", "2,1", "1", "a,b"]),
                               number, max_size=5)}),
    st.dictionaries(st.sampled_from(["type", "value", "values", "table", "system"]), junk,
                    max_size=3),
)
incidence = st.one_of(
    st.sampled_from(["full", "golden", "bogus"]),
    st.fixed_dictionaries({"forbidden_pairs": st.lists(st.lists(letter, max_size=3),
                                                       max_size=8)}),
    junk,
)
pressure_cfg = st.fixed_dictionaries(
    {"psi": psi, "n_letters": letter},
    optional={
        "incidence": incidence,
        "n_max": st.integers(min_value=-1, max_value=8),
        "state_cap": st.integers(min_value=0, max_value=40),
        "truncation_sweep": st.lists(letter, max_size=2),
        "summability": st.booleans(),
        "eigendata": st.booleans(),
        "unknown": junk,
    },
)
# 2**64 has no intp form; an n_lo above n_hi leaves no length to audit
cylinders = st.lists(st.lists(st.one_of(letter, st.just(2**64)), max_size=4), max_size=3)
audit = st.fixed_dictionaries({}, optional={
    "n_lo": st.integers(min_value=0, max_value=5),
    "n_hi": st.integers(min_value=0, max_value=5),
    "sample_size": st.integers(min_value=0, max_value=8),
})
gibbs_cfg = st.fixed_dictionaries(
    {"psi": psi, "n_letters": letter},
    optional={
        "incidence": incidence,
        "max_states": st.integers(min_value=0, max_value=30),
        "cylinders": cylinders,
        "audit": audit,
    },
)
# a valid chain, so that the cylinders and the audit are always reached
chain_cfg = st.fixed_dictionaries(
    {"psi": st.fixed_dictionaries({"type": st.just("memory1-table"),
                                   "values": st.lists(st.floats(min_value=-3.0, max_value=3.0),
                                                      min_size=5, max_size=5)}),
     "n_letters": st.integers(min_value=1, max_value=5),
     "cylinders": cylinders,
     "audit": st.fixed_dictionaries({"n_lo": st.integers(min_value=1, max_value=5),
                                     "n_hi": st.integers(min_value=1, max_value=5)})},
    optional={"incidence": st.sampled_from(["full", "golden"])},
)
# a tree that is not an object at all, or an object that is mostly junk
config = st.one_of(
    st.tuples(st.just("pressure"), pressure_cfg),
    st.tuples(st.just("gibbs"), gibbs_cfg),
    st.tuples(st.just("gibbs"), chain_cfg),
    st.tuples(st.sampled_from(["pressure", "gibbs"]),
              st.one_of(junk, st.dictionaries(st.sampled_from(["psi", "n_letters"]), junk))),
)


# beta and dimension trees: mostly valid, so that runs get past the schema,
# with small steps, the schema's least M and cloud_points, truncations up to 4


def mostly(valid, bad):
    """valid three draws in four"""
    return st.tuples(st.integers(0, 3), valid, bad).map(lambda t: t[2] if t[0] == 3 else t[1])


PHI = (1 + math.sqrt(5)) / 2
beta_cfg = st.fixed_dictionaries({"beta": mostly(st.sampled_from([PHI, 1.8, math.pi]), number)},
                                 optional={
    "depth": st.integers(min_value=1, max_value=12),
    "identity_samples": st.integers(min_value=1, max_value=8),
    "partition_cells": st.integers(min_value=1, max_value=6),
})
j_range = mostly(st.lists(st.integers(min_value=2, max_value=12), min_size=2, max_size=2),
                 st.one_of(st.lists(letter, max_size=3), junk))
bracket = mostly(st.lists(st.floats(min_value=1e-3, max_value=2.0), min_size=2, max_size=2),
                 st.one_of(st.lists(number, max_size=3), junk))
label = st.one_of(st.integers(min_value=-1, max_value=2), st.lists(letter, max_size=2), junk)
labels = st.lists(label, max_size=2)
explicit_system = st.fixed_dictionaries(
    {"vertices": mostly(st.just([[0.0, 1.0]]),
                        st.one_of(st.lists(st.lists(number, max_size=3), max_size=2), junk)),
     # affine branches only: an unjumped parabolic branch costs each run
     # seconds in coding_point before it exits 2 (the builtin backward_cf
     # covers that exit); [1, 2] is the tuple label (1, 2)
     "edges": st.sampled_from([
         [{"label": 0, "kind": "affine", "params": {"a": 0.4, "b": 0.0}},
          {"label": 1, "kind": "affine", "params": {"a": 0.4, "b": 0.6}}],
         [{"label": 0, "kind": "affine", "params": {"a": 0.5, "b": 0.0}},
          {"label": [1, 2], "kind": "affine", "params": {"a": -0.5, "b": 1.0}}],
     ])},
    optional={
        "parabolic": st.one_of(
            labels, junk, st.lists(st.fixed_dictionaries({"label": label}, optional={
                "fixed_point": number, "beta": number}), max_size=2)),
        "forbidden_pairs": st.one_of(st.lists(labels, max_size=3), junk),
    },
)
jump = mostly(st.fixed_dictionaries({}, optional={"n_cap": st.integers(min_value=1, max_value=6)}),
              st.one_of(junk, st.fixed_dictionaries({"n_cap": junk})))
builtin_system = st.one_of(
    st.fixed_dictionaries({"builtin": st.just("affine"), "branches": mostly(
        st.just([[1 / 3, 0.0], [1 / 3, 2 / 3]]), st.lists(st.lists(number, max_size=3),
                                                          max_size=3))}),
    st.fixed_dictionaries({"builtin": st.just("gls"), "cells": mostly(
        st.just([[0.0, 0.5], [0.5, 1.0]]), st.lists(st.lists(number, max_size=3),
                                                    max_size=3))}),
    st.fixed_dictionaries({"builtin": st.sampled_from(["gauss_cf", "backward_cf"])},
                          optional={"jump": jump}),
)
root_optional = {
    "bracket": bracket,
    "truncation": mostly(st.integers(min_value=1, max_value=4), st.integers(max_value=0)),
    "memory": st.integers(min_value=1, max_value=2),
}
root = st.fixed_dictionaries({"system": mostly(st.one_of(builtin_system, explicit_system), junk)},
                             optional=root_optional)
temperature = st.fixed_dictionaries({"system": st.one_of(builtin_system, explicit_system)},
                                    optional={**root_optional, "q": number, "p_theta": number,
                                              "theta": mostly(st.just(
                                                  {"type": "constant", "value": -1.0}), psi)})
cloud = {"M": st.just(1000), "n_centers": st.integers(min_value=4, max_value=8)}
beta_block = st.fixed_dictionaries(
    {"beta": mostly(st.sampled_from([PHI, 1.8]), number)},
    optional={
        "psi": mostly(st.just({"type": "constant", "value": 0.0}), psi),
        "incidence": mostly(st.sampled_from(["full", "golden"]), incidence),
        "n_cells": st.integers(min_value=1, max_value=5),
        "lyapunov": st.fixed_dictionaries({"n_steps": st.integers(min_value=1, max_value=64),
                                           "n_orbits": st.integers(min_value=1, max_value=3)}),
        "conditional": st.fixed_dictionaries(cloud, optional={
            "depth": st.integers(min_value=1, max_value=6), "j_range": j_range}),
        "global": st.fixed_dictionaries(cloud, optional={
            "depth": st.integers(min_value=1, max_value=6), "j_range_2d": j_range,
            "j_range_1d": j_range}),
    },
)
gauss_block = st.fixed_dictionaries({"gauss": st.fixed_dictionaries(
    {"n_steps": st.integers(min_value=1, max_value=64), "cloud_points": st.just(1000)},
    optional={"n_orbits": st.integers(min_value=2, max_value=3), "j_range": j_range})})
dimension_cfg = st.one_of(
    beta_block,
    gauss_block,
    st.fixed_dictionaries({"temperature": temperature}),
    st.fixed_dictionaries({"hd_limit_set": root}),
)
other_config = st.one_of(
    st.tuples(st.just("beta"), beta_cfg),
    st.tuples(st.just("dimension"), dimension_cfg),  # twice: it has more shapes
    st.tuples(st.just("dimension"), dimension_cfg),
    st.tuples(st.sampled_from(["beta", "dimension"]),
              st.one_of(junk, st.dictionaries(st.sampled_from(["beta", "gauss", "hd_limit_set"]),
                                              junk))),
)


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cfg.json"


def _check_exit_code(cfg_path, command, tree):
    cfg_path.write_text(json.dumps(tree))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")  # slow tail decay of truncated roots
        rc = cli.main([command, "--config", str(cfg_path), "--stable"])
    assert rc in (0, 2, 3), (rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        assert json.loads(out.getvalue())["command"] == command
    else:
        assert err.getvalue().startswith(("config error: ", "numeric failure: "))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=config)
def test_fuzzed_configs_keep_exit_codes(cfg_path, case):
    _check_exit_code(cfg_path, *case)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=other_config)
def test_fuzzed_beta_and_dimension_configs_keep_exit_codes(cfg_path, case):
    _check_exit_code(cfg_path, *case)
