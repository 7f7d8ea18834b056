"""Workload inputs, timed task lists and answer checks.

A workload is three functions of (seed, size):

* ``inputs`` draws every random input from ``numpy.random.default_rng(seed)``
  and writes the CLI configs into a scratch directory;
* ``tasks`` lists the calls into thermoform's public API, in the fixed order
  the worker times them (one closed-loop client: each task starts when the
  previous one ends);
* ``checks`` compares the answers with references that do not come from the
  route under test, and returns the numbers that are reported but not gated.

A task that raises fails every check that needs its result; it never stops
the worker.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings

import numpy as np

from thermoform import beta, cli, dimension, gdms, shifts
from thermoform.errors import BoundaryPointError

PHI = (1.0 + math.sqrt(5.0)) / 2.0
GAUSS_CHI = math.pi**2 / (6.0 * math.log(2.0))
# dim of the continued-fraction Cantor set E_2 (digits {1, 2}),
# Jenkinson-Pollicott, Ergodic Theory Dynam. Systems 21 (2001)
E2_DIM = 0.531280506277205
# golden induced chain with zero potential is the Parry measure of the no-11
# shift: h = log phi and the short cell has mass 1/(phi^2 + 1), so
# chi = log phi * (1 + 1/(phi^2 + 1)) and h/chi = (phi^2 + 1)/(phi^2 + 2)
GOLDEN_CHI = math.log(PHI) * (1.0 + 1.0 / (PHI**2 + 1.0))
GOLDEN_H_OVER_CHI = (PHI**2 + 1.0) / (PHI**2 + 2.0)
MORAN_P = (0.3, 0.7)
# the two routes of the tower identity may differ by this many ulps of x,
# carried through the branch slope (observed worst: 0.86 over 3e5 samples)
IDENTITY_ULPS = 4.0

SIZES = {
    "full": {
        "symbolic": {"n_forbidden": 150, "n_full": 100, "audit_hi": 8, "audit_size": 256,
                     "sample_len": 50_000},
        "walks": {"golden_steps": 1_000_000, "cells": 60, "chain_steps": 50_000,
                  "gauss_steps": 250_000, "walkers": 32},
        "clouds": {"points": 200_000},
        "interval": {"gauss_truncation": 60, "identity_samples": 10_000, "cells": 64,
                     "depth": 256},
    },
    "tiny": {
        "symbolic": {"n_forbidden": 12, "n_full": 10, "audit_hi": 5, "audit_size": 64,
                     "sample_len": 2_000},
        "walks": {"golden_steps": 100_000, "cells": 8, "chain_steps": 20_000,
                  "gauss_steps": 50_000, "walkers": 32},
        "clouds": {"points": 50_000},
        "interval": {"gauss_truncation": 8, "identity_samples": 500, "cells": 8,
                     "depth": 256},
    },
}


class Check:
    def __init__(self, name: str, needs: tuple, test):
        self.name, self.needs, self.test = name, needs, test

    def evaluate(self, results: dict) -> tuple[str, bool, str]:
        for task in self.needs:
            if isinstance(results.get(task), BaseException):
                err = results[task]
                return self.name, False, f"task {task} raised {type(err).__name__}: {err}"
        try:
            ok, detail = self.test(results)
        except Exception as exc:  # a check can fail, never crash the worker
            return self.name, False, f"check raised {type(exc).__name__}: {exc}"
        return self.name, bool(ok), detail


def _within(value: float, ref: float, tol: float, what: str) -> tuple[bool, str]:
    err = abs(value - ref)
    return err <= tol, f"{what} {value:.12g} vs {ref:.12g}: err {err:.3g} (tol {tol:g})"


def _rel_within(value: float, ref: float, tol: float, what: str) -> tuple[bool, str]:
    rel = abs(value - ref) / abs(ref)
    return rel <= tol, f"{what} {value:.8g} vs {ref:.8g}: rel {rel:.3%} (tol {tol:.1%})"


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _run_cli(argv: list, out: str) -> dict:
    return {"rc": cli.main([*argv, "--stable", "-o", out]), "report": out}


def _read_report(res: dict) -> dict:
    if res["rc"] != 0:
        raise RuntimeError(f"thermoform exited {res['rc']}")
    with open(res["report"], encoding="utf-8") as fh:
        return json.load(fh)


def _dense_log_rho(table: np.ndarray, allow: np.ndarray) -> float:
    # For a memory-2 potential the m-word transfer matrix is the line digraph
    # of B = exp(table) * allow on letters; both share their nonzero spectrum.
    return float(math.log(np.abs(np.linalg.eigvals(np.exp(table) * allow)).max()))


# ---------------------------------------------------------------------------
# symbolic: big m-word graphs, level sums, eigendata, Gibbs chains


def symbolic_inputs(seed: int, size: dict, tmp: str) -> dict:
    rng = np.random.default_rng(seed)
    n1, n2 = size["n_forbidden"], size["n_full"]
    table1 = rng.normal(0.0, 0.5, (n1, n1))
    allow1 = rng.random((n1, n1)) >= 0.10
    # a -> a+1 mod N stays allowed: the letter graph holds a Hamiltonian
    # cycle, so every m-word graph is strongly connected by construction
    allow1[np.arange(n1), (np.arange(n1) + 1) % n1] = True
    table2 = rng.normal(0.0, 0.5, (n2, n2))
    cfg1 = {
        "n_letters": n1,
        "incidence": {"forbidden_pairs": np.argwhere(~allow1).tolist()},
        "psi": {"type": "memory2-table", "values": table1.tolist()},
    }
    cfg2 = {"n_letters": n2, "psi": {"type": "memory2-table", "values": table2.tolist()}}
    return {
        "seed": seed, "size": size, "tmp": tmp,
        "table1": table1, "allow1": allow1, "table2": table2,
        "cfg1": _write_json(os.path.join(tmp, "pressure-forbidden.json"), cfg1),
        "cfg2": _write_json(os.path.join(tmp, "pressure-full.json"), cfg2),
    }


def symbolic_tasks(inp: dict) -> list:
    size, seed, tmp = inp["size"], inp["seed"], inp["tmp"]

    def gibbs():
        psi = shifts.Potential.memory2(inp["table2"])
        mu = shifts.gibbs_measure(psi, shifts.IncidenceMatrix.full(), size["n_full"])
        audit = shifts.gibbs_audit(mu, psi, range(2, size["audit_hi"] + 1),
                                   sample_size=size["audit_size"], seed=seed)
        word = shifts.sample_forward(mu, size["sample_len"], seed=seed)
        return {
            "d_exact": audit.d_exact,
            "h_pressure": shifts.entropy_from_pressure(mu),
            "h_markov": shifts.markov_entropy(mu),
            "word_len": len(word),
            "letters_ok": all(0 <= e < size["n_full"] for e in word),
        }

    argv = ["pressure", "--seed", str(seed), "--config"]
    return [
        ("pressure_forbidden", lambda: _run_cli([*argv, inp["cfg1"]],
                                                os.path.join(tmp, "report-forbidden.json"))),
        ("pressure_full", lambda: _run_cli([*argv, inp["cfg2"]],
                                           os.path.join(tmp, "report-full.json"))),
        ("gibbs", gibbs),
    ]


def symbolic_checks(inp: dict, results: dict) -> tuple[list, dict]:
    n2 = inp["size"]["n_full"]
    refs = {
        "pressure_forbidden": _dense_log_rho(inp["table1"], inp["allow1"]),
        "pressure_full": _dense_log_rho(inp["table2"], np.ones((n2, n2), dtype=bool)),
    }
    reported = {}
    checks = []
    for task, ref in refs.items():
        res = results[task]
        checks.append(Check(f"{task}.exit0", (task,),
                            lambda r, t=task: (r[t]["rc"] == 0, f"exit code {r[t]['rc']}")))
        checks.append(Check(f"{task}.log_rho", (task,),
                            lambda r, t=task, ref=ref: _within(
                                _read_report(r[t])["results"]["eigen"]["log_rho"], ref,
                                1e-10, "eigen log rho vs dense eigvals")))
        try:
            report = _read_report(res)["results"]
            # the level-sum error is a known defect (Aitken applied to levels
            # that converge like C/n), reported and not gated
            errors = {"shifts.pressure.abs_err": abs(report["pressure"] - ref),
                      "shifts.rpf_eigendata.abs_err": abs(report["eigen"]["log_rho"] - ref)}
        except Exception:  # the checks above already count this as a failure
            continue
        for key, err in errors.items():
            reported[key] = max(reported.get(key, 0.0), err)
    checks += [
        Check("gibbs.band", ("gibbs",), lambda r: (
            1.0 <= r["gibbs"]["d_exact"] <= 1.0 + 1e-9,
            f"d_exact - 1 = {r['gibbs']['d_exact'] - 1.0:.3g} (band [0, 1e-9])")),
        Check("gibbs.entropy_routes", ("gibbs",), lambda r: _within(
            r["gibbs"]["h_markov"], r["gibbs"]["h_pressure"], 1e-9,
            "Markov entropy vs P - int psi")),
        Check("gibbs.sample_forward", ("gibbs",), lambda r: (
            r["gibbs"]["word_len"] == inp["size"]["sample_len"] and r["gibbs"]["letters_ok"],
            f"{r['gibbs']['word_len']} letters, all inside the alphabet: "
            f"{r['gibbs']['letters_ok']}")),
    ]
    return checks, reported


# ---------------------------------------------------------------------------
# walks: many Birkhoff steps with few walkers


def walks_inputs(seed: int, size: dict, tmp: str) -> dict:
    rng = np.random.default_rng(seed)
    n = size["cells"]
    return {"seed": seed, "size": size, "table": rng.normal(0.0, 0.3, (n, n))}


def walks_tasks(inp: dict) -> list:
    size, seed = inp["size"], inp["seed"]
    walkers = size["walkers"]

    def chain(beta_value, psi, n_cells, incidence, steps):
        mu, part = dimension.induced_cell_chain(beta_value, psi, n_cells, incidence)
        orbit = dimension.ChainOrbit(mu, dimension.gls_return_observable(mu, part))
        est = dimension.lyapunov_birkhoff(orbit, n_steps=steps, n_orbits=walkers, seed=seed)
        return {"chi": est.value, "weights": dimension.cell_weights(mu), "beta": beta_value}

    return [
        ("golden", lambda: chain(PHI, None, None, "golden", size["golden_steps"])),
        ("memory2_chain", lambda: chain(1.8, shifts.Potential.memory2(inp["table"]),
                                        size["cells"], None, size["chain_steps"])),
        ("gauss", lambda: dimension.lyapunov_birkhoff(
            dimension.gauss_orbit(), n_steps=size["gauss_steps"], n_orbits=walkers,
            seed=seed).value),
    ]


def walks_checks(inp: dict, results: dict) -> tuple[list, dict]:
    def series(r):
        res = r["memory2_chain"]
        ref = dimension.lyapunov_gls_closed_form(res["weights"], res["beta"],
                                                 tail_tol=1e-9).value
        return _rel_within(res["chi"], ref, 0.005, "Birkhoff chi vs closed-form series")

    return [
        Check("golden.birkhoff", ("golden",), lambda r: _rel_within(
            r["golden"]["chi"], GOLDEN_CHI, 0.005, "Birkhoff chi vs log(phi)(1 + w2)")),
        Check("memory2_chain.birkhoff", ("memory2_chain",), series),
        Check("gauss.birkhoff", ("gauss",), lambda r: _rel_within(
            r["gauss"], GAUSS_CHI, 0.005, "Birkhoff chi vs pi^2/(6 ln 2)")),
    ], {}


# ---------------------------------------------------------------------------
# clouds: many walkers for few steps, affine fold, ball counting


def clouds_inputs(seed: int, size: dict, tmp: str) -> dict:
    return {"seed": seed, "size": size}


def clouds_tasks(inp: dict) -> list:
    m, seed = inp["size"]["points"], inp["seed"]
    return [
        ("conditional", lambda: dimension.conditional_dimension_check(
            PHI, None, M=m, seed=seed, incidence="golden")["fiber"].mean),
        ("global", lambda: dimension.global_dimension_check(
            PHI, None, M=m, seed=seed, incidence="golden")["global"].mean),
        ("gauss_acim", lambda: dimension.local_dimension(
            dimension.gauss_acim_cloud(m, seed=seed), seed=seed).mean),
    ]


def clouds_checks(inp: dict, results: dict) -> tuple[list, dict]:
    return [
        Check("conditional.fiber_slope", ("conditional",), lambda r: _rel_within(
            r["conditional"], GOLDEN_H_OVER_CHI, 0.05, "fiber slope vs h/chi")),
        Check("global.joint_slope", ("global",), lambda r: _rel_within(
            r["global"], 2.0 * GOLDEN_H_OVER_CHI, 0.05, "joint slope vs 2h/chi")),
        Check("gauss_acim.slope", ("gauss_acim",), lambda r: _within(
            r["gauss_acim"], 1.0, 0.02, "acim slope vs 1")),
    ], {}


# ---------------------------------------------------------------------------
# interval: many small pressure-equation roots, beta towers


def interval_inputs(seed: int, size: dict, tmp: str) -> dict:
    paths = {}
    betas = {"phi": PHI, "1.8": 1.8, "pi": math.pi}
    for name, b in betas.items():
        cfg = {"beta": b, "depth": size["depth"], "identity_samples": size["identity_samples"],
               "partition_cells": size["cells"]}
        paths[name] = _write_json(os.path.join(tmp, f"beta-{name}.json"), cfg)
    return {"seed": seed, "size": size, "tmp": tmp, "betas": betas, "beta_cfgs": paths}


def interval_tasks(inp: dict) -> list:
    size, seed, tmp = inp["size"], inp["seed"], inp["tmp"]

    def quiet(fn):
        # countable systems warn about slow tail decay; count, do not print
        def run():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                value = fn()
            return {"value": value, "warnings": len(caught)}
        return run

    def moran():
        system = gdms.affine_system([(1 / 3, 0.0), (1 / 3, 2 / 3)])
        theta = shifts.Potential.memory1([math.log(p) for p in MORAN_P])
        return [dimension.temperature(system, theta, q=float(q), bracket=(-10.0, 10.0)).t
                for q in range(-3, 4)]

    tasks = [
        ("e2_m8", quiet(lambda: dimension.hd_limit_set(gdms.gauss_cf(), truncation=2, memory=8))),
        ("e2_m10", quiet(lambda: dimension.hd_limit_set(gdms.gauss_cf(), truncation=2,
                                                        memory=10))),
        ("gauss60", quiet(lambda: dimension.hd_limit_set(
            gdms.gauss_cf(), truncation=size["gauss_truncation"], memory=2))),
        ("moran", moran),
        ("golden_slope", lambda: dimension.hd_limit_set(
            gdms.affine_system([(1 / PHI, 0.0), (1 / PHI**2, 1 / PHI)]))),
    ]
    for name, path in inp["beta_cfgs"].items():
        out = os.path.join(tmp, f"report-beta-{name}.json")
        tasks.append((f"beta_{name}", lambda path=path, out=out: _run_cli(
            ["beta", "--seed", str(seed), "--config", path], out)))
    return tasks


def _identity_ulps(beta_value: float, depth: int, samples: int, seed) -> float:
    """Worst gap between the partition skew product and the step-iterated
    tower return, in units of eps times the slope of the sample's branch.

    Both routes expand x by the branch slope beta^(k+1), so a rounding of x
    by one ulp moves either answer by eps * slope; the gap divided by that is
    the disagreement in ulps of the input. Points on cell boundaries, where
    neither route is defined, are redrawn as identity_check redraws them.
    """
    bs = beta.BetaSystem(beta_value, depth=depth, max_depth=depth)
    part = beta.GlsPartition(bs)
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    worst, accepted, rejected = 0.0, 0, 0
    while accepted < samples:
        if rejected > 50 * samples + 1000:
            raise RuntimeError("too many boundary samples redrawn")
        x, y = float(rng.random()), float(rng.random())
        try:
            slope = part.locate(x).affine().slope
            xa, ya = beta.gls_natural_extension(part, x, y)
            p = beta.ExtensionPoint(x, y, 0)
            for _ in range(beta.first_return_time(bs, x, y)):
                p = beta.natural_extension_step(bs, p)
        except BoundaryPointError:
            rejected += 1
            continue
        worst = max(worst, max(abs(xa - p.x), abs(ya - p.y)) / (eps * slope))
        accepted += 1
    return worst


def interval_checks(inp: dict, results: dict) -> tuple[list, dict]:
    checks = [
        Check("e2_m8.dim", ("e2_m8",), lambda r: _within(
            r["e2_m8"]["value"], E2_DIM, 1e-5, "dim E2 at memory 8")),
        Check("e2_m10.dim", ("e2_m10",), lambda r: _within(
            r["e2_m10"]["value"], E2_DIM, 1e-6, "dim E2 at memory 10")),
        # the value is a known defect (above the ambient dimension 1), reported
        # below and not gated; only the run itself is checked
        Check("gauss60.root", ("gauss60",), lambda r: (
            math.isfinite(r["gauss60"]["value"]),
            f"t = {r['gauss60']['value']:.10g} ({r['gauss60']['warnings']} tail warnings)")),
        Check("golden_slope.dim", ("golden_slope",), lambda r: _within(
            r["golden_slope"], 1.0, 1e-6, "golden-slope affine dimension")),
    ]
    for k, q in enumerate(range(-3, 4)):
        ref = math.log(sum(p**q for p in MORAN_P)) / math.log(3.0)
        checks.append(Check(f"moran.T({q})", ("moran",), lambda r, k=k, q=q, ref=ref: _within(
            r["moran"][k], ref, 1e-10, f"T({q}) vs log sum p^q / log 3")))
    size = inp["size"]
    for k, (name, b) in enumerate(inp["betas"].items()):
        task = f"beta_{name}"

        def beta_ok(r, task=task, b=b, k=k):
            # the CLI's identity_check is the largest absolute gap, which grows
            # with the slope of the deepest branch sampled; it is shown, and
            # the identity is gated per sample in ulps of x instead
            dev = _read_report(r[task])["results"]["identity_check"]
            ulps = _identity_ulps(b, size["depth"], size["identity_samples"],
                                  (inp["seed"], k))
            return ulps <= IDENTITY_ULPS, (
                f"exit 0, CLI identity_check {dev:.3g} (largest absolute gap, shown); "
                f"{size['identity_samples']} own samples: worst gap / (eps * branch slope) "
                f"{ulps:.3g} (tol {IDENTITY_ULPS:g})")

        checks.append(Check(f"{task}.identity", (task,), beta_ok))
    reported = {}
    for key, task in (("dimension.hd_limit_set.e2_m8.abs_err", "e2_m8"),
                      ("dimension.hd_limit_set.e2_m10.abs_err", "e2_m10")):
        if not isinstance(results[task], BaseException):
            reported[key] = abs(results[task]["value"] - E2_DIM)
    if not isinstance(results["gauss60"], BaseException):
        reported["dimension.hd_limit_set.gauss60.t"] = results["gauss60"]["value"]
    return checks, reported


WORKLOADS = {
    "symbolic": (symbolic_inputs, symbolic_tasks, symbolic_checks),
    "walks": (walks_inputs, walks_tasks, walks_checks),
    "clouds": (clouds_inputs, clouds_tasks, clouds_checks),
    "interval": (interval_inputs, interval_tasks, interval_checks),
}


def report_digests(results: dict) -> dict:
    """sha256 and size of every --stable CLI report the tasks wrote."""
    out = {}
    for task, res in results.items():
        if isinstance(res, dict) and "report" in res and res["rc"] == 0:
            with open(res["report"], "rb") as fh:
                raw = fh.read()
            out[task] = {"sha256": hashlib.sha256(raw).hexdigest(), "bytes": len(raw)}
    return out
