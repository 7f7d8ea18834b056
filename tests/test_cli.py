"""End-to-end runs of the command line driver in a subprocess."""

import json
import math
import os
import subprocess
import sys

import pytest

PHI = (1 + math.sqrt(5)) / 2


def run_cli(*argv, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "thermoform", *argv],
        capture_output=True, text=True,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


ENVELOPE_KEYS = {"command", "version", "seed", "config", "results", "diagnostics"}


def test_pressure_report_envelope(tmp_path):
    cfg = write_config(tmp_path, {
        "n_letters": 5,
        "psi": {"type": "constant", "value": 0.0},
        "n_max": 6,
    })
    out = json.loads(run_cli("pressure", "--config", cfg).stdout)
    assert set(out) == ENVELOPE_KEYS | {"wall_time_s"}
    assert out["command"] == "pressure"
    assert out["results"]["pressure"] == pytest.approx(math.log(5), abs=1e-12)
    assert out["results"]["memory"] == 1
    # defaults get resolved into the echoed config
    assert out["config"]["state_cap"] == 200_000
    assert "summability" in out["diagnostics"]


def test_stable_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {
        "n_letters": 2,
        "incidence": "golden",
        "psi": {"type": "constant", "value": 0.0},
        "cylinders": [[0], [1], [0, 1]],
        "audit": {"n_lo": 1, "n_hi": 4, "sample_size": 64},
    })
    a = run_cli("gibbs", "--config", cfg, "--stable").stdout
    b = run_cli("gibbs", "--config", cfg, "--stable").stdout
    assert a == b
    assert "wall_time_s" not in json.loads(a)


def test_beta_inline_is_bare_analysis():
    out = json.loads(run_cli("beta", "analyze", "--beta", "1.8").stdout)
    assert "command" not in out
    assert out["beta"] == 1.8
    assert out["identity_check"] < 1e-9


@pytest.mark.parametrize("argv", [("beta", "--beta", "1.8"), ("beta",)])
def test_beta_without_config_or_analyze_exits_3(argv):
    proc = run_cli(*argv, check=False)
    assert proc.returncode == 3
    assert "--config FILE" in proc.stderr
    assert "beta analyze --beta V" in proc.stderr


def test_beta_config_gets_envelope(tmp_path):
    cfg = write_config(tmp_path, {"beta": PHI, "depth": 24,
                                  "identity_samples": 200,
                                  "partition_cells": 6})
    out = json.loads(run_cli("beta", "--config", cfg).stdout)
    assert out["command"] == "beta"
    assert out["results"]["finite"] is True
    assert out["results"]["digits_of_one"] == [1, 1]


@pytest.mark.parametrize("option", [("--beta", "1.8"), ("--depth", "3")])
@pytest.mark.parametrize("mode", [(), ("analyze",)])
def test_beta_config_rejects_inline_options(tmp_path, capsys, option, mode):
    from thermoform import cli

    cfg = write_config(tmp_path, {"beta": 2.0, "depth": 8})
    assert cli.main(["beta", *mode, "--config", cfg, *option, "--stable"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "beta analyze --beta V --depth K" in captured.err
    assert "--config FILE" in captured.err


def test_output_file(tmp_path):
    cfg = write_config(tmp_path, {"beta": 2.0, "depth": 8})
    dest = tmp_path / "report.json"
    proc = run_cli("beta", "--config", cfg, "-o", str(dest))
    assert proc.stdout == ""
    assert json.loads(dest.read_text())["command"] == "beta"


def test_emit_cloud_csv_1d(tmp_path):
    cfg = write_config(tmp_path, {
        "gauss": {"n_steps": 5000, "n_orbits": 2, "cloud_points": 2000},
    })
    csv = tmp_path / "cloud.csv"
    out = json.loads(run_cli("dimension", "--config", cfg,
                             "--emit-cloud", str(csv)).stdout)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "x"
    assert len(lines) == 2001
    assert out["diagnostics"]["cloud_csv"]["points"] == 2000
    # acim_dimension is the ball-count slope; no second field repeats it
    assert set(out["results"]["gauss"]) == {"lyapunov", "acim_dimension"}


def test_emit_cloud_csv_2d(tmp_path):
    cfg = write_config(tmp_path, {
        "beta": PHI,
        "incidence": "golden",
        "global": {"M": 4000},
    })
    csv = tmp_path / "cloud2.csv"
    run_cli("dimension", "--config", cfg, "--emit-cloud", str(csv))
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 4001
    assert all(len(row.split(",")) == 2 for row in lines[1:4])


def test_dimension_temperature_task(tmp_path):
    cfg = write_config(tmp_path, {
        "temperature": {
            "system": {"builtin": "affine",
                       "branches": [[1 / 3, 0.0], [1 / 3, 2 / 3]]},
        },
    })
    out = json.loads(run_cli("dimension", "--config", cfg).stdout)
    t = out["results"]["temperature"]["t"]
    assert t == pytest.approx(math.log(2) / math.log(3), abs=1e-10)


def test_hd_limit_set_root_at_the_bracket_end_exits_0(tmp_path, capsys):
    # P(t) = log 2 + t log(1/2) is exactly 0 at the bracket's upper end
    from thermoform import cli

    cfg = write_config(tmp_path, {"hd_limit_set": {
        "system": {"builtin": "affine", "branches": [[0.5, 0.0], [0.5, 0.5]]},
        "bracket": [0.5, 1.0],
    }})
    assert cli.main(["dimension", "--config", cfg, "--stable"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["hd_limit_set"]["t"] == 1.0


def test_bad_json_exits_3(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    proc = run_cli("pressure", "--config", str(path), check=False)
    assert proc.returncode == 3
    assert "config error" in proc.stderr


def test_missing_config_exits_3(tmp_path):
    proc = run_cli("gibbs", "--config", str(tmp_path / "nope.json"),
                   check=False)
    assert proc.returncode == 3


def test_schema_violation_exits_3(tmp_path):
    cfg = write_config(tmp_path, {"n_letters": 3,
                                  "psi": {"type": "constant", "value": 0.0},
                                  "bogus_knob": 1})
    proc = run_cli("pressure", "--config", cfg, check=False)
    assert proc.returncode == 3
    assert "bogus_knob" in proc.stderr


BAD_POTENTIAL_CONFIGS = {
    "memory1_table_short": {"psi": {"type": "memory1-table", "values": [-1.0, -2.0]},
                            "n_letters": 4},
    "memory2_table_missing_pair": {"psi": {"type": "memory2-table",
                                           "table": {"0,0": -1, "0,1": -1, "1,0": -2}},
                                   "n_letters": 2},
    "memory2_values_too_small": {"psi": {"type": "memory2-table",
                                         "values": [[-1, -1], [-2, -2]]},
                                 "n_letters": 3},
    "constant_without_value": {"psi": {"type": "constant"}, "n_letters": 3},
    "manneville_pomeau_without_alpha": {
        "psi": {"type": "geometric", "system": {"builtin": "manneville_pomeau"}},
        "n_letters": 4},
    "psi_1e308": {"psi": {"type": "constant", "value": 1e308}, "n_letters": 3},
    "psi_nan": {"psi": {"type": "memory1-table", "values": [-1.0, float("nan")]},
                "n_letters": 2},
}


@pytest.mark.parametrize("command", ["pressure", "gibbs"])
@pytest.mark.parametrize("case", sorted(BAD_POTENTIAL_CONFIGS))
def test_bad_potential_config_exits_3(tmp_path, capsys, case, command):
    from thermoform import cli

    cfg = write_config(tmp_path, BAD_POTENTIAL_CONFIGS[case])
    assert cli.main([command, "--config", cfg, "--stable"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err


def test_numeric_failure_exits_2(tmp_path):
    cfg = write_config(tmp_path, {
        "temperature": {
            "system": {"builtin": "affine",
                       "branches": [[1 / 3, 0.0], [1 / 3, 2 / 3]]},
            "bracket": [1.0, 2.0],
        },
    })
    proc = run_cli("dimension", "--config", cfg, check=False)
    assert proc.returncode == 2
    assert "numeric failure" in proc.stderr


# schema-valid sizes of 10^15 elements: petabytes, past the address space, so
# the allocation fails at once (a size that overcommit could grant would be
# touched later and could get the process killed instead)
OUT_OF_MEMORY_CONFIGS = {
    "conditional_M": ("dimension", {"beta": PHI, "incidence": "golden",
                                    "conditional": {"M": 10**15}}),
    "identity_samples": ("beta", {"beta": 1.8, "identity_samples": 10**15}),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_MEMORY_CONFIGS))
def test_out_of_memory_request_exits_2(tmp_path, case):
    command, payload = OUT_OF_MEMORY_CONFIGS[case]
    proc = run_cli(command, "--config", write_config(tmp_path, payload), check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("numeric failure: ")
    assert "Traceback" not in proc.stderr


def test_shallow_depth_budget_exits_2():
    proc = run_cli("beta", "analyze", "--beta", str(math.pi),
                   "--depth", "4", check=False)
    assert proc.returncode == 2


def test_thread_cap_defaults_to_one(monkeypatch):
    from thermoform import cli

    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    cli._cap_threads()
    assert os.environ["OMP_NUM_THREADS"] == "1"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["pressure", "--threads", "2"])


INCIDENCE_BASE = {
    "pressure": {"psi": {"type": "constant", "value": 0.0}, "n_letters": 2, "n_max": 6},
    "gibbs": {"psi": {"type": "constant", "value": 0.0}, "n_letters": 2},
    "dimension": {"beta": PHI},
}


@pytest.mark.parametrize("command", sorted(INCIDENCE_BASE))
@pytest.mark.parametrize("spec", [
    {"forbidden_pairs": [[0]]}, {"forbidden_pairs": [[0, 1, 2]]}, "bogus",
    *({"forbidden_pairs": [[0, letter]]} for letter in (1.5, True, -1, "1", None, [0])),
    {"forbidden_pairs": [[1, 1], 5]}, {"forbidden_pairs": 5}, {}])
def test_bad_incidence_exits_3(tmp_path, capsys, command, spec):
    from thermoform import cli

    cfg = write_config(tmp_path, {**INCIDENCE_BASE[command], "incidence": spec})
    assert cli.main([command, "--config", cfg, "--stable"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", sorted(INCIDENCE_BASE))
@pytest.mark.parametrize("spec, same_as", [
    ({"forbidden_pairs": [[1.0, 1]]}, "golden"),  # an integral float is a letter
    ({"forbidden_pairs": [[1, 1], [10**30, 0]]}, "golden"),  # past the truncation
    ({"forbidden_pairs": []}, "full"),
])
def test_accepted_forbidden_pairs_exit_0(tmp_path, capsys, command, spec, same_as):
    from thermoform import cli

    results = []
    for incidence in (same_as, spec):
        cfg = write_config(tmp_path, {**INCIDENCE_BASE[command], "incidence": incidence})
        assert cli.main([command, "--config", cfg, "--stable"]) == 0
        results.append(json.loads(capsys.readouterr().out)["results"])
    assert results[0] == results[1]


@pytest.mark.parametrize("command", sorted(INCIDENCE_BASE))
def test_forbidden_pairs_match_golden(tmp_path, capsys, command):
    from thermoform import cli

    results = []
    for spec in ("golden", {"forbidden_pairs": [[1, 1]]}):
        cfg = write_config(tmp_path, {**INCIDENCE_BASE[command], "incidence": spec})
        assert cli.main([command, "--config", cfg, "--stable"]) == 0
        results.append(json.loads(capsys.readouterr().out)["results"])
    assert results[0] == results[1]


def test_dimension_builds_one_cell_chain(tmp_path, capsys, monkeypatch):
    from thermoform import cli, dimension, shifts

    # lyapunov, conditional and global read one cell chain and one eigensolve,
    # and report what the standalone checks give
    calls = {"chain": 0, "eigen": 0}
    chain, eigen = dimension.induced_cell_chain, shifts.rpf_eigendata

    def chain_spy(*args):
        calls["chain"] += 1
        return chain(*args)

    def eigen_spy(*args, **kw):
        calls["eigen"] += 1
        return eigen(*args, **kw)

    cfg = write_config(tmp_path, {
        "beta": PHI, "incidence": "golden",
        "lyapunov": {"n_steps": 2000, "n_orbits": 4},
        "conditional": {"M": 20_000}, "global": {"M": 20_000},
    })
    with monkeypatch.context() as mp:
        mp.setattr(dimension, "induced_cell_chain", chain_spy)
        mp.setattr(shifts, "rpf_eigendata", eigen_spy)
        assert cli.main(["dimension", "--config", cfg, "--seed", "3", "--stable"]) == 0
    assert calls == {"chain": 1, "eigen": 1}
    results = json.loads(capsys.readouterr().out)["results"]
    cond = dimension.conditional_dimension_check(PHI, None, M=20_000, seed=3, incidence="golden")
    glob = dimension.global_dimension_check(PHI, None, M=20_000, seed=3, incidence="golden")
    assert results["conditional"]["deviation"] == cond["deviation"]
    assert results["conditional"]["fiber"]["mean"] == cond["fiber"].mean
    assert results["global"]["additivity_gap"] == glob["additivity_gap"]
    assert results["global"]["global"]["mean"] == glob["global"].mean


def test_pressure_passes_state_cap_to_eigendata(tmp_path, capsys, monkeypatch):
    from thermoform import cli, shifts

    # the level sums, the eigen route and the summability sums share one
    # state graph, built with the cap
    caps = []
    build = shifts._state_graph

    def spy(psi, A, N, state_cap):
        caps.append(state_cap)
        return build(psi, A, N, state_cap)

    monkeypatch.setattr(shifts, "_state_graph", spy)
    memory2 = {
        "psi": {"type": "memory2-table",
                "values": [[0.1 * (a - b) + 0.05 * a * b for b in range(5)] for a in range(5)]},
        "n_letters": 5,
        "incidence": {"forbidden_pairs": [[0, 1], [2, 2], [3, 0], [4, 4]]},
        "n_max": 6,
    }
    for base in ({**INCIDENCE_BASE["pressure"], "incidence": "full"},
                 {**INCIDENCE_BASE["pressure"], "incidence": "golden"}, memory2):
        caps.clear()
        cfg = write_config(tmp_path, {**base, "state_cap": 300_000})
        assert cli.main(["pressure", "--config", cfg, "--stable"]) == 0
        assert caps == [300_000]
        out = json.loads(capsys.readouterr().out)
        assert "eigen" in out["results"] and "summability" in out["diagnostics"]


@pytest.mark.parametrize("system, n_letters, t", [
    ({"builtin": "gauss_cf"}, 64, 0.8),
    ({"builtin": "backward_cf", "jump": {"n_cap": 64}}, 60, 0.9),
])
def test_summability_sums_the_reported_potential(tmp_path, capsys, system, n_letters, t):
    from thermoform import cli

    # at memory 1 on the full shift the first level is log sum_e exp(psi(e)),
    # the summability sum over every letter of the same table
    cfg = write_config(tmp_path, {
        "psi": {"type": "geometric", "system": system, "t": t},
        "n_letters": n_letters,
        "n_max": 1,
        "eigendata": False,
    })
    assert cli.main(["pressure", "--config", cfg, "--stable"]) == 0
    out = json.loads(capsys.readouterr().out)
    sums = out["diagnostics"]["summability"]["partial_sums"]
    assert sums[-1] == pytest.approx(math.exp(out["results"]["levels"][0]), rel=1e-12)


@pytest.mark.parametrize("psi, n_letters, ratio", [
    # sum n^-0.8 diverges, one partial sum
    ({"type": "geometric", "system": {"builtin": "gauss_cf"}, "t": 0.4}, 8, 0.32341740172773215),
    # sum n^-1.6 converges, slowly
    ({"type": "geometric", "system": {"builtin": "gauss_cf"}, "t": 0.8}, 64, 0.04695715182645228),
    # a finite sum of equal terms: the top half holds half of it
    ({"type": "constant", "value": 0.0}, 40, 0.5),
])
def test_summability_reports_the_tail_ratio_and_no_verdict(tmp_path, capsys, psi, n_letters,
                                                            ratio):
    from thermoform import cli

    # no truncation decides summability, so the report gives the tail share
    cfg = write_config(tmp_path, {"psi": psi, "n_letters": n_letters})
    assert cli.main(["pressure", "--config", cfg, "--stable"]) == 0
    summ = json.loads(capsys.readouterr().out)["diagnostics"]["summability"]
    assert set(summ) == {"truncations", "partial_sums", "tail_ratio"}
    assert summ["tail_ratio"] == pytest.approx(ratio, rel=1e-12)


def test_summability_tail_ratio_is_the_roots(tmp_path, capsys, monkeypatch):
    from thermoform import cli, dimension, gdms
    from thermoform.errors import ConvergenceError

    # the root at the bracket end t = -0.5 raises on the number a pressure
    # report at t = -0.5 gives
    seen = []
    real = dimension.tail_ratio

    def spy(sups):
        seen.append(real(sups))
        return seen[-1]

    monkeypatch.setattr(dimension, "tail_ratio", spy)
    with pytest.raises(ConvergenceError, match="tail ratio 0.70"):
        dimension.temperature(gdms.gauss_cf(), bracket=(-0.5, 2.0), truncation=8)
    cfg = write_config(tmp_path, {
        "psi": {"type": "geometric", "system": {"builtin": "gauss_cf"}, "t": -0.5},
        "n_letters": 8,
    })
    assert cli.main(["pressure", "--config", cfg, "--stable"]) == 0
    summ = json.loads(capsys.readouterr().out)["diagnostics"]["summability"]
    assert seen == [summ["tail_ratio"]] == [0.6970054913335472]


def test_graph_without_transitions_exits_2(tmp_path, capsys):
    from thermoform import cli

    # one admissible 2-word, 01, and nothing may follow it
    cfg = write_config(tmp_path, {
        "psi": {"type": "memory2-table", "values": [[0.0, 0.0], [0.0, 0.0]]},
        "n_letters": 2,
        "incidence": {"forbidden_pairs": [[0, 0], [1, 0], [1, 1]]},
    })
    assert cli.main(["gibbs", "--config", cfg, "--stable"]) == 2
    assert capsys.readouterr().err.startswith("numeric failure: ")


def test_gibbs_over_state_cap_exits_2(tmp_path, capsys):
    from thermoform import cli

    cfg = write_config(tmp_path, {**INCIDENCE_BASE["gibbs"], "max_states": 1})
    assert cli.main(["gibbs", "--config", cfg, "--stable"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ")
    assert "Traceback" not in err


def test_empty_audit_range_exits_3(tmp_path, capsys):
    from thermoform import cli

    # n_lo above n_hi leaves no length to audit
    cfg = write_config(tmp_path, {**INCIDENCE_BASE["gibbs"], "audit": {"n_lo": 5, "n_hi": 3}})
    assert cli.main(["gibbs", "--config", cfg, "--stable"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err


def test_audit_below_the_memory_exits_3(tmp_path, capsys):
    from thermoform import cli

    # memory 2, and the one audited length is 1: no exact-form row
    cfg = write_config(tmp_path, {
        "psi": {"type": "memory2-table", "values": [[0.0, -1.0], [-0.5, 0.0]]},
        "n_letters": 2,
        "audit": {"n_lo": 1, "n_hi": 1},
    })
    assert cli.main(["gibbs", "--config", cfg, "--stable"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err


def test_cylinder_letters_past_the_truncation_weigh_nothing(tmp_path, capsys):
    from thermoform import cli

    # 10**30 and 2**64 have no intp form; 2 is past the truncation at 2 letters
    words = [[0, 10**30], [2**64], [2], [0, 1]]
    cfg = write_config(tmp_path, {**INCIDENCE_BASE["gibbs"], "cylinders": words})
    assert cli.main(["gibbs", "--config", cfg, "--stable"]) == 0
    got = json.loads(capsys.readouterr().out)["results"]["cylinders"]
    assert [c["word"] for c in got] == words
    assert [c["measure"] for c in got[:3]] == [0.0] * 3 and got[3]["measure"] > 0


def test_pressure_reports_route_gap(tmp_path, capsys):
    from thermoform import cli

    cfg = write_config(tmp_path, {
        "n_letters": 2,
        "incidence": "golden",
        "psi": {"type": "constant", "value": 0.0},
        "n_max": 12,
    })
    assert cli.main(["pressure", "--config", cfg, "--stable"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    eigen = results["eigen"]
    assert eigen["route_gap"] == abs(results["pressure"] - eigen["log_rho"])
    assert 1e-7 < eigen["route_gap"] < 1e-4  # 5.1e-6 on the golden shift at n_max 12
    assert eigen["route_gap_exceeds_ratio_gap"] is False  # ratio_gap is 1.8e-5


def test_pressure_flags_route_gap_beyond_ratio_gap(tmp_path, capsys):
    from thermoform import cli

    # one level has no earlier ratio: ratio_gap is 0 and log 2 is far from log phi
    cfg = write_config(tmp_path, {
        "n_letters": 2,
        "incidence": "golden",
        "psi": {"type": "constant", "value": 0.0},
        "n_max": 1,
    })
    assert cli.main(["pressure", "--config", cfg, "--stable"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["ratio_gap"] == 0.0
    assert results["eigen"]["route_gap"] == pytest.approx(math.log(2 / PHI), abs=1e-12)
    assert results["eigen"]["route_gap_exceeds_ratio_gap"] is True


def test_pressure_on_reducible_graph_keeps_level_sums(tmp_path, capsys):
    from thermoform import cli

    # letters 0 and 1 never reach 2: two strongly connected components
    cfg = write_config(tmp_path, {
        "n_letters": 3,
        "incidence": {"forbidden_pairs": [[0, 2], [1, 2]]},
        "psi": {"type": "memory1-table", "values": [0.1, 0.2, 0.3]},
    })
    assert cli.main(["pressure", "--config", cfg, "--stable"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["config"]["eigendata"] is True
    assert "eigen" not in out["results"]
    # the pressure is the larger of the components': the full shift on {0, 1}
    # gives log(e^0.1 + e^0.2), the loop at 2 only 0.3; words that start at 2
    # fade from the ratio estimate like (e^0.3 / (e^0.1 + e^0.2))^n
    assert out["results"]["pressure"] == pytest.approx(math.log(math.exp(0.1) + math.exp(0.2)),
                                                       abs=1e-3)
    assert len(out["results"]["levels"]) == 12
    assert out["diagnostics"]["eigen"] == {
        "error": "NotIrreducibleError",
        "message": "state graph has 2 strongly connected components at truncation 3",
    }


def test_pressure_n_max_below_memory_exits_3_before_the_state_cap(tmp_path, capsys):
    from thermoform import cli

    cfg = write_config(tmp_path, {
        "psi": {"type": "memory2-table", "values": [[0.0]]},
        "n_letters": 600, "n_max": 1, "state_cap": 100,
        "incidence": {"forbidden_pairs": [[0, 0]]},
    })
    assert cli.main(["pressure", "--config", cfg, "--stable"]) == 3
    assert capsys.readouterr().err == "config error: n_max=1 below potential memory 2\n"


AFFINE = {"builtin": "affine", "branches": [[1 / 3, 0.0], [1 / 3, 2 / 3]]}
# an explicit system of two labels, 0 and 1: with a neutral fixed point at 0
# (parabolic) and without (hyperbolic)
PARABOLIC = {"vertices": [[0, 1]], "edges": [
    {"label": 0, "kind": "mp-branch", "params": {"alpha": 0.5, "bracket": [0, 0.5]}},
    {"label": 1, "kind": "affine", "params": {"a": 0.5, "b": 0.5}}]}
HYPERBOLIC = {"vertices": [[0, 1]], "edges": [
    {"label": 0, "kind": "affine", "params": {"a": 0.4, "b": 0.0}},
    {"label": 1, "kind": "affine", "params": {"a": 0.4, "b": 0.6}}]}
GAUSS_SMALL = {"n_steps": 100, "n_orbits": 2, "cloud_points": 1000}
BAD_DIMENSION_CONFIGS = {
    "hd_limit_set_bracket_one_end": {"hd_limit_set": {"system": AFFINE, "bracket": [0.5]}},
    "temperature_bracket_one_end": {"temperature": {"system": AFFINE, "bracket": [0.5]}},
    "gauss_j_range_one_end": {"gauss": {**GAUSS_SMALL, "j_range": [3]}},
    "gauss_j_range_empty": {"gauss": {**GAUSS_SMALL, "j_range": [9, 3]}},
    "jump_not_object": {"hd_limit_set": {"system": {"builtin": "backward_cf", "jump": 5},
                                         "truncation": 4}},
    "jump_n_cap_not_int": {"hd_limit_set": {"system": {"builtin": "backward_cf",
                                                       "jump": {"n_cap": "x"}},
                                            "truncation": 4}},
    "parabolic_not_list": {"hd_limit_set": {"system": {**PARABOLIC, "parabolic": 5}}},
    "parabolic_names_no_edge": {"hd_limit_set": {"system": {**PARABOLIC, "parabolic": [5]}}},
    "parabolic_without_fixed_point": {"hd_limit_set": {"system": {**PARABOLIC,
                                                                  "parabolic": [{"label": 0}]}}},
    "forbidden_pairs_not_list": {"hd_limit_set": {"system": {**HYPERBOLIC, "forbidden_pairs": 5}}},
    "forbidden_pair_names_no_edge": {"hd_limit_set": {"system": {
        **HYPERBOLIC, "forbidden_pairs": [[[1, 2], 0]]}}},
    "forbidden_pair_one_label": {"hd_limit_set": {"system": {**HYPERBOLIC,
                                                             "forbidden_pairs": [[1]]}}},
    **{f"jump_n_cap_{cap}": {"hd_limit_set": {"system": {"builtin": "backward_cf",
                                                         "jump": {"n_cap": cap}},
                                              "truncation": 4}}
       for cap in (0, -3)},
    "jump_n_cap_infinite": {"hd_limit_set": {"system": {"builtin": "backward_cf",
                                                        "jump": {"n_cap": math.inf}},
                                             "truncation": 4}},
    "vertex_of_three_numbers": {"hd_limit_set": {"system": {**HYPERBOLIC,
                                                            "vertices": [[0, 0.5, 1]]}}},
    "edge_source_names_no_vertex": {"hd_limit_set": {"system": {**HYPERBOLIC, "edges": [
        {**HYPERBOLIC["edges"][0], "source": 1}, HYPERBOLIC["edges"][1]]}}},
    "affine_without_branches": {"hd_limit_set": {"system": {"builtin": "affine",
                                                            "branches": []}}},
    "beta_infinite": {"beta": math.inf},
    "beta_nan": {"beta": math.nan},
}


@pytest.mark.parametrize("case", sorted(BAD_DIMENSION_CONFIGS))
def test_bad_dimension_config_exits_3(tmp_path, capsys, case):
    from thermoform import cli

    cfg = write_config(tmp_path, BAD_DIMENSION_CONFIGS[case])
    assert cli.main(["dimension", "--config", cfg, "--stable"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_beta_exits_3(tmp_path, capsys, value):
    from thermoform import cli

    # both pass the schema's exclusiveMinimum of 1
    cfg = write_config(tmp_path, {"beta": value})
    assert cli.main(["beta", "--config", cfg, "--stable"]) == 3
    assert capsys.readouterr().err.startswith("config error: beta=")


def test_forbidden_pair_list_labels_name_tuple_edges():
    from thermoform.gdms import system_from_config

    # a list label is a tuple label, in the edges and in the forbidden pairs
    edges = [{**e, "label": [e["label"], 9]} for e in HYPERBOLIC["edges"]]
    S = system_from_config({**HYPERBOLIC, "edges": edges, "forbidden_pairs": [[[1, 9], [1, 9]]]})
    assert S.is_admissible_word([(0, 9), (1, 9)])
    assert not S.is_admissible_word([(1, 9), (1, 9)])


def test_schemas_are_valid():
    import jsonschema

    from thermoform import cli

    # run() skips check_schema, so every schema is checked here once
    assert sorted(cli.SCHEMAS) == sorted(cli.COMMANDS)
    for schema in cli.SCHEMAS.values():
        jsonschema.validators.validator_for(schema).check_schema(schema)


def _to_jsonable(obj):
    """The recursive copy that reports went through before json.dumps took a
    default hook; the reference for cli._json_default."""
    import dataclasses

    import numpy as np

    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        if hasattr(obj, "to_dict"):
            return _to_jsonable(obj.to_dict())
        return _to_jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def test_json_default_matches_the_recursive_copy():
    import numpy as np

    from thermoform import cli
    from thermoform.dimension import LocalDimensionEstimate, LyapunovEstimate, TemperatureResult

    local = LocalDimensionEstimate(np.array([0.9, 1.1]), np.float64(1.0), 0.1, 0.07,
                                   np.float64(0.98), (3, 9), np.int64(2), "sorted-1d")
    tree = {
        "array": np.arange(6, dtype=np.int32).reshape(2, 3),
        "floats": np.array([0.1, np.nan, -np.inf]),
        "int64": np.int64(2**40),
        "float32": np.float32(0.1),
        "bool": np.bool_(True),
        "bools": np.array([True, False]),
        "non_finite": [math.nan, math.inf, -math.inf, np.float64(np.nan)],
        "tuple": (1, np.float64(2.5), "x"),
        "local": local,
        "lyapunov": LyapunovEstimate(np.float64(0.48), 1e-3, "birkhoff", 1000, np.int64(4)),
        "temperature": TemperatureResult(0.5, np.float64(0.62), (1e-3, 2.0), 0.0),
        "nested": [{"estimates": [local, (np.int64(1), None)]}],
    }
    want = json.dumps(_to_jsonable(tree), sort_keys=True, indent=2)
    assert json.dumps(tree, sort_keys=True, indent=2, default=cli._json_default) == want
    assert "slopes" not in want and '"bracket": [\n' in want
    with pytest.raises(TypeError):
        json.dumps({"x": object()}, default=cli._json_default)
