"""Fuzzed pressure and gibbs configs keep the CLI's exit-code contract.

Every config, however malformed, must end in exit 0 (a report), 2 (a numeric
failure or an exceeded cap) or 3 (a config error), with a one-line message
and no traceback. The trees mix valid shapes with wrong types, out-of-range
letters (2**64 among them), ragged tables, empty audit ranges and non-finite
numbers.
"""

import contextlib
import io
import json
import math

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


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cfg.json"


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=config)
def test_fuzzed_configs_keep_exit_codes(cfg_path, case):
    command, tree = case
    cfg_path.write_text(json.dumps(tree))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([command, "--config", str(cfg_path), "--stable"])
    assert rc in (0, 2, 3), (rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        assert json.loads(out.getvalue())["command"] == command
    else:
        assert err.getvalue().startswith(("config error: ", "numeric failure: "))
