"""Batch command line: pressure, Gibbs chains, beta towers, dimension runs.

Every run is a pure function of (config, seed): the report embeds the resolved
config, results carry only numbers produced by library calls, and --stable
drops the wall clock so identical runs serialize byte for byte. Heavy modules
are imported inside the command handlers, after the thread cap is applied.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import sys
import time

from . import __version__
from .errors import ConfigError, ThermoformError

# "full", "golden", or {"forbidden_pairs": [[a, b], ...]}: IncidenceMatrix.from_config checks the pairs
INCIDENCE_SCHEMA = {"oneOf": [
    {"enum": ["full", "golden"]},
    {"type": "object", "properties": {"forbidden_pairs": {"type": "array"}},
     "required": ["forbidden_pairs"], "additionalProperties": False},
]}

# j ranges of the radii 2^-j and root brackets: [lo, hi]
INT_PAIR = {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2}
NUMBER_PAIR = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}

SCHEMAS = {
    "pressure": {
        "type": "object",
        "properties": {
            "psi": {"type": "object"},
            "n_letters": {"type": "integer", "minimum": 1},
            "incidence": INCIDENCE_SCHEMA,
            "n_max": {"type": "integer", "minimum": 1},
            "state_cap": {"type": "integer", "minimum": 1},
            "truncation_sweep": {
                "type": "array",
                "items": {"type": "integer", "minimum": 1},
            },
            "summability": {"type": "boolean"},
            "eigendata": {"type": "boolean"},
        },
        "required": ["psi", "n_letters"],
        "additionalProperties": False,
    },
    "gibbs": {
        "type": "object",
        "properties": {
            "psi": {"type": "object"},
            "n_letters": {"type": "integer", "minimum": 1},
            "incidence": INCIDENCE_SCHEMA,
            "max_states": {"type": "integer", "minimum": 1},
            "cylinders": {
                "type": "array",
                "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
            },
            "audit": {
                "type": "object",
                "properties": {
                    "n_lo": {"type": "integer", "minimum": 1},
                    "n_hi": {"type": "integer", "minimum": 1},
                    "sample_size": {"type": "integer", "minimum": 1},
                },
                "additionalProperties": False,
            },
        },
        "required": ["psi", "n_letters"],
        "additionalProperties": False,
    },
    "beta": {
        "type": "object",
        "properties": {
            "beta": {"type": "number", "exclusiveMinimum": 1.0},
            "depth": {"type": "integer", "minimum": 1},
            "identity_samples": {"type": "integer", "minimum": 1},
            "partition_cells": {"type": "integer", "minimum": 1},
        },
        "required": ["beta"],
        "additionalProperties": False,
    },
    "dimension": {
        "type": "object",
        "properties": {
            "beta": {"type": "number", "exclusiveMinimum": 1.0},
            "psi": {"type": "object"},
            "incidence": INCIDENCE_SCHEMA,
            "n_cells": {"type": "integer", "minimum": 1},
            "lyapunov": {
                "type": "object",
                "properties": {
                    "n_steps": {"type": "integer", "minimum": 1},
                    "n_orbits": {"type": "integer", "minimum": 1},
                },
                "additionalProperties": False,
            },
            "conditional": {
                "type": "object",
                "properties": {
                    "M": {"type": "integer", "minimum": 1000},
                    "depth": {"type": "integer", "minimum": 1},
                    "j_range": INT_PAIR,
                    "n_centers": {"type": "integer", "minimum": 4},
                },
                "additionalProperties": False,
            },
            "global": {
                "type": "object",
                "properties": {
                    "M": {"type": "integer", "minimum": 1000},
                    "depth": {"type": "integer", "minimum": 1},
                    "j_range_2d": INT_PAIR,
                    "j_range_1d": INT_PAIR,
                    "n_centers": {"type": "integer", "minimum": 4},
                },
                "additionalProperties": False,
            },
            "gauss": {
                "type": "object",
                "properties": {
                    "n_steps": {"type": "integer", "minimum": 1},
                    "n_orbits": {"type": "integer", "minimum": 2},
                    "cloud_points": {"type": "integer", "minimum": 1000},
                    "j_range": INT_PAIR,
                },
                "additionalProperties": False,
            },
            "temperature": {
                "type": "object",
                "properties": {
                    "system": {"type": "object"},
                    "theta": {"type": "object"},
                    "q": {"type": "number"},
                    "p_theta": {"type": "number"},
                    "bracket": NUMBER_PAIR,
                    "truncation": {"type": "integer", "minimum": 1},
                    "memory": {"type": "integer", "minimum": 1},
                },
                "required": ["system"],
                "additionalProperties": False,
            },
            "hd_limit_set": {
                "type": "object",
                "properties": {
                    "system": {"type": "object"},
                    "bracket": NUMBER_PAIR,
                    "truncation": {"type": "integer", "minimum": 1},
                    "memory": {"type": "integer", "minimum": 1},
                },
                "required": ["system"],
                "additionalProperties": False,
            },
        },
        "additionalProperties": False,
    },
}


def _json_default(obj):
    """json.dumps hook for what json cannot encode: numpy values and result
    dataclasses (to_dict() when a class trims its fields, else asdict)."""
    import numpy as np

    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return obj.to_dict() if hasattr(obj, "to_dict") else dataclasses.asdict(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# command handlers: each returns (results, diagnostics, cloud-or-None)


def cmd_pressure(config: dict, seed: int):
    from . import shifts
    from .errors import ConvergenceError, NotIrreducibleError

    psi = shifts.Potential.from_config(config["psi"])
    A = shifts.IncidenceMatrix.from_config(config.get("incidence"))
    N = int(config["n_letters"])
    n_max = int(config.setdefault("n_max", 12))
    if n_max < psi.memory:  # a config error, reported before the state cap can fail
        raise ConfigError(f"n_max={n_max} below potential memory {psi.memory}")
    state_cap = int(config.setdefault("state_cap", 200_000))
    # the level sums, the eigen route and the summability sums read one state graph
    shift = shifts.TruncatedShift(psi.memory, A, N, state_cap)
    vals = psi.table(shift.states)
    est = shift.levels(vals, n_max)
    results = {
        "pressure": est.value,
        "levels": est.levels,
        "n_start": est.memory,
        "ratio_gap": est.gap,
        "truncation": est.truncation,
        "memory": est.memory,
    }
    diagnostics = {}
    if config.setdefault("summability", True):
        rep = shifts.summability_report(shifts.letter_sups(shift.states, vals, N))
        diagnostics["summability"] = {
            "truncations": rep.truncations,
            "partial_sums": rep.partial_sums,
            "tail_ratio": rep.tail_ratio,
        }
    if config.setdefault("eigendata", True):
        try:
            eig = shift.eigendata(vals)
        except (NotIrreducibleError, ConvergenceError) as exc:
            # the level sums stand without the eigen route
            diagnostics["eigen"] = {"error": type(exc).__name__, "message": str(exc)}
        else:
            route_gap = abs(est.value - eig.log_rho)
            results["eigen"] = {
                "log_rho": eig.log_rho,
                "residual": eig.residual,
                "iterations": eig.iterations,
                "n_states": len(eig.states),
                "route_gap": route_gap,
                "route_gap_exceeds_ratio_gap": route_gap > est.gap,
            }
    if "truncation_sweep" in config:
        results["truncation_sweep"] = [
            {
                "n_letters": int(nk),
                "pressure": shifts.pressure(psi, A, int(nk), n_max=n_max,
                                            state_cap=state_cap).value,
            }
            for nk in config["truncation_sweep"]
        ]
    return results, diagnostics, None


def cmd_gibbs(config: dict, seed: int):
    from . import shifts

    psi = shifts.Potential.from_config(config["psi"])
    A = shifts.IncidenceMatrix.from_config(config.get("incidence"))
    N = int(config["n_letters"])
    mu = shifts.gibbs_measure(psi, A, N)
    results = {
        "chain": shifts.measure_to_json(mu, max_states=int(config.setdefault("max_states", 4096))),
        "entropy": {
            "from_pressure": shifts.entropy_from_pressure(mu),
            "markov": shifts.markov_entropy(mu),
        },
    }
    diagnostics = {
        "eigen_residual": mu.eig.residual,
        "eigen_iterations": mu.eig.iterations,
    }
    if "cylinders" in config:
        results["cylinders"] = [
            {"word": list(map(int, w)), "measure": shifts.cylinder_measure(mu, tuple(w))}
            for w in config["cylinders"]
        ]
    if "audit" in config:
        acfg = config["audit"]
        n_lo = int(acfg.setdefault("n_lo", max(1, mu.memory)))
        n_hi = int(acfg.setdefault("n_hi", 12))
        size = int(acfg.setdefault("sample_size", 512))
        audit = shifts.gibbs_audit(mu, psi, range(n_lo, n_hi + 1),
                                   sample_size=size, seed=seed)
        results["audit"] = {
            "rows": [
                {
                    "n": r.n,
                    "count": r.count,
                    "d_literal": r.d_literal,
                    "exact_min": r.exact_min,
                    "exact_max": r.exact_max,
                }
                for r in audit.rows
            ],
            "d_literal": audit.d_literal,
            "d_exact": audit.d_exact,
            "trend": audit.trend(),
        }
    return results, diagnostics, None


def cmd_beta(config: dict, seed: int):
    from . import beta as beta_mod

    results = beta_mod.analyze(
        float(config["beta"]),
        int(config.setdefault("depth", 64)),
        identity_samples=int(config.setdefault("identity_samples", 2000)),
        partition_cells=int(config.setdefault("partition_cells", 24)),
        seed=seed,
    )
    return results, {}, None


def cmd_dimension(config: dict, seed: int):
    from . import dimension as dim
    from .gdms import system_from_config
    from .shifts import Potential

    results: dict = {}
    diagnostics: dict = {}
    cloud = None

    if "beta" in config:
        beta = float(config["beta"])
        psi = Potential.from_config(config["psi"]) if "psi" in config else None
        incidence = config.get("incidence")
        n_cells = config.get("n_cells")
        mu, part = dim.induced_cell_chain(beta, psi, n_cells, incidence)
        w, h, closed_form = dim._cell_summary(mu, beta)
        chi = closed_form.value
        results["cells"] = {
            "n_cells": len(w),
            "weights": w,
            "h": h,
            "chi": chi,
            "h_over_chi": h / chi,
            "two_h_over_chi": 2.0 * h / chi,
        }
        if "lyapunov" in config:
            lcfg = config["lyapunov"]
            birk = dim.lyapunov_birkhoff(
                dim.ChainOrbit(mu, dim.gls_return_observable(mu, part)),
                n_steps=int(lcfg.setdefault("n_steps", 1_000_000)),
                n_orbits=int(lcfg.setdefault("n_orbits", 32)),
                seed=seed,
            )
            entry = {
                "birkhoff": birk,
                "closed_form": closed_form,
            }
            if abs(beta - (1 + 5**0.5) / 2) < 1e-9 and len(w) == 2:
                entry["closed_form_golden"] = dim.golden_lyapunov(float(w[1]))
            results["lyapunov"] = entry
        if "conditional" in config:
            ccfg = config["conditional"]
            rep = dim._conditional_check(
                (mu, part),
                beta,
                M=int(ccfg.setdefault("M", 200_000)),
                seed=seed,
                depth=ccfg.get("depth"),
                j_range=ccfg.get("j_range"),
                n_centers=int(ccfg.setdefault("n_centers", 64)),
                keep_cloud=True,
            )
            cloud = rep.pop("cloud")
            results["conditional"] = rep
        if "global" in config:
            gcfg = config["global"]
            rep = dim._global_check(
                (mu, part),
                beta,
                M=int(gcfg.setdefault("M", 200_000)),
                seed=seed,
                depth=gcfg.get("depth"),
                j_range_2d=gcfg.get("j_range_2d"),
                j_range_1d=gcfg.get("j_range_1d"),
                n_centers=int(gcfg.setdefault("n_centers", 64)),
                keep_cloud=True,
            )
            cloud = rep.pop("cloud")  # prefer the joint cloud when both run
            results["global"] = rep

    if "gauss" in config:
        gcfg = config["gauss"]
        birk = dim.lyapunov_birkhoff(
            dim.gauss_orbit(),
            n_steps=int(gcfg.setdefault("n_steps", 1_000_000)),
            n_orbits=int(gcfg.setdefault("n_orbits", 32)),
            seed=seed,
        )
        acim = dim.gauss_acim_cloud(int(gcfg.setdefault("cloud_points", 200_000)), seed)
        est = dim.local_dimension(acim, j_range=gcfg.get("j_range"), seed=seed + 1)
        results["gauss"] = {"lyapunov": birk, "acim_dimension": est}
        if cloud is None:
            cloud = acim

    if "temperature" in config:
        tcfg = config["temperature"]
        system = system_from_config(tcfg["system"])
        theta = Potential.from_config(tcfg["theta"]) if "theta" in tcfg else None
        res = dim.temperature(
            system,
            theta,
            q=float(tcfg.setdefault("q", 0.0)),
            bracket=tuple(tcfg.setdefault("bracket", [1e-3, 2.0])),
            p_theta=float(tcfg.setdefault("p_theta", 0.0)),
            memory=int(tcfg.setdefault("memory", 1)),
            truncation=tcfg.get("truncation"),
        )
        results["temperature"] = res

    if "hd_limit_set" in config:
        hcfg = config["hd_limit_set"]
        system = system_from_config(hcfg["system"])
        results["hd_limit_set"] = {
            "t": dim.hd_limit_set(
                system,
                bracket=tuple(hcfg.setdefault("bracket", [1e-3, 2.0])),
                memory=int(hcfg.setdefault("memory", 1)),
                truncation=hcfg.get("truncation"),
            )
        }

    if not results:
        raise ConfigError(
            "dimension config requests nothing; add one of "
            "beta/gauss/temperature/hd_limit_set"
        )
    return results, diagnostics, cloud


COMMANDS = {
    "pressure": cmd_pressure,
    "gibbs": cmd_gibbs,
    "beta": cmd_beta,
    "dimension": cmd_dimension,
}
HANDLER_MODULE = {
    "pressure": "shifts",
    "gibbs": "shifts",
    "beta": "beta",
    "dimension": "dimension",
}


# ---------------------------------------------------------------------------
# plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoform",
        description="pressure, Gibbs measures, beta towers, and dimension checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name == "beta":
            p.add_argument("mode", nargs="?", choices=["analyze"],
                           help="inline form: beta analyze --beta V --depth K")
            p.add_argument("--beta", type=float)
            p.add_argument("--depth", type=int)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--stable", action="store_true",
                       help="omit wall time for byte-identical reports")
        p.add_argument("--emit-cloud", dest="emit_cloud", metavar="PATH.CSV")
        p.add_argument("-o", "--output", help="report path (default stdout)")
    return parser


def _cap_threads():
    # One thread unless set; before numpy loads, so the handlers import it lazily.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def _load_config(args) -> dict:
    if args.config is None:
        inline = " or the inline form beta analyze --beta V" if args.command == "beta" else ""
        raise ConfigError(f"{args.command} needs --config FILE{inline}")
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _emit_cloud(path: str, cloud, diagnostics: dict):
    import numpy as np

    arr = np.asarray(cloud)
    if arr.ndim == 1:
        arr = arr[:, None]
    header = ",".join(("x", "y")[: arr.shape[1]])
    np.savetxt(path, arr, delimiter=",", fmt="%.17g", header=header, comments="")
    diagnostics["cloud_csv"] = {"path": path, "points": int(arr.shape[0])}


def run(args) -> dict:
    import jsonschema

    if args.config is not None and (getattr(args, "beta", None) is not None
                                    or getattr(args, "depth", None) is not None):
        raise ConfigError("--beta and --depth belong to the inline form beta analyze --beta V "
                          "--depth K; with --config FILE the config sets beta and depth")
    config = _load_config(args)
    # jsonschema.validate minus check_schema: the schemas are constant and tested
    schema = SCHEMAS[args.command]
    validator = jsonschema.validators.validator_for(schema)(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(config))
    if error is not None:
        raise ConfigError(f"config: {error.message}")

    # the handlers import their module lazily; load it first so wall_time_s
    # measures the command and not the numpy import
    importlib.import_module(f"{__package__}.{HANDLER_MODULE[args.command]}")
    t0 = time.perf_counter()
    results, diagnostics, cloud = COMMANDS[args.command](config, args.seed)
    if args.emit_cloud:
        if cloud is None:
            diagnostics["cloud_csv"] = "no cloud produced by this config"
        else:
            _emit_cloud(args.emit_cloud, cloud, diagnostics)
    report = {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "config": config,
        "results": results,
        "diagnostics": diagnostics,
    }
    if not args.stable:
        report["wall_time_s"] = time.perf_counter() - t0
    return report


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _cap_threads()
    try:
        if args.command == "beta" and args.mode == "analyze" and args.config is None:
            # inline form prints the bare analysis, no report envelope
            from . import beta as beta_mod

            if args.beta is None:
                raise ConfigError("beta analyze needs --beta (or --config FILE)")
            payload = beta_mod.analyze(args.beta, 64 if args.depth is None else args.depth,
                                       seed=args.seed)
        else:
            payload = run(args)
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (ThermoformError, MemoryError) as exc:
        # an array too large to allocate is a request numpy cannot meet, not a bug
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2

    text = json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
