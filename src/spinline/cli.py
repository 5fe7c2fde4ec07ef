"""Command-line front end.

``SCHEMAS`` declares every option once: the subcommand flags, their help
and the defaults come from it.  A subcommand's flags, or a ``run --config``
file, give a plain config dict; ``validate_config`` checks it against the
command's JSON schema and fills in the defaults, and the runner embeds that
resolved config in each artifact it writes, so both entry paths write the
same artifacts and a run is reproducible from them alone.  The check is
spinline's own, of the JSON Schema keywords in :data:`KEYWORDS`, the ones
``SCHEMAS`` uses: it reports the first error in a fixed order, in the
usual JSON Schema wording, and needs no package beyond numpy.

Exit codes: 0 success, 1 failed verification report or numerical
self-check (among them an eigensolve that fails, a phase lambda t that
overflows and a parameter set that comes out NaN), 2 invalid config or
input (an input file that is not UTF-8 text, a config, chain, target or
probe-output file that is not valid JSON of the expected shape, a bad
scan grid, search box, parameter table, target state or sender size, a
parameter-table or target entry above 1 in magnitude, an incomplete or
degenerate probe set, a chain too short for its coupling profile, a chain
above 1000 nodes, more than 10^5 sampled chains or 10^4 solver starts), 3 file
I/O error, 4 infeasible target or no transfer arrival.  Each error type
carries its code and stderr label (:mod:`~spinline.errors`), so
:func:`main` has one handler for them all.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import benchmarks as bm
from .basis import control_slices
from .chainopt import COUPLING_TOL, lattice, optimize_boundary
from .disorder import (
    DEFAULT_N_CHAINS,
    MAX_CHAINS,
    export_param_stats_csv,
    export_robustness_csv,
    param_statistics,
    sample_line_params,
    werner_robustness,
)
from .dynamics import diagonalize
from .errors import InputError, SpinlineError, check_keys, is_number, malformed, numbers
from .hamiltonian import ChainSpec
from .inverse import (
    WERNER_P,
    check_target,
    feasibility_scan,
    solve_general,
    solve_werner,
    werner_target,
)
from .probing import (
    extract_params,
    probe_outputs_from_json,
    probe_outputs_to_json,
    probe_set,
    simulate_probes,
)
from .receiver import (
    export_params_csv,
    import_params_csv,
    line_params_at,
    table_labels,
)
from .verification import (
    check_boundary_optimization,
    check_disorder,
    check_family_i,
    check_family_ii,
    check_family_iii,
    check_invariants,
    check_oracle_equivalence,
    check_probe_closure,
    check_werner,
    tuned_spec,
)

EXIT_OK = 0
EXIT_REPORT_FAILED = 1
EXIT_IO = 3

_CHAIN_FIELDS = {
    "n": {"type": "integer", "minimum": 4,
          "description": "chain length (uniform unless --tuned)"},
    "tuned": {"type": "boolean", "description": "use the benchmark boundary couplings and t0"},
    "chain": {"type": "string", "description": "JSON chain-spec file"},
    "t0": {"type": "number", "minimum": 0, "description": "registration time"},
    "sender": {"type": "integer", "minimum": 2, "default": 4, "description": "sender size"},
}

_RANGE = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2,
          "description": "lo,hi"}
_SEED = {"type": "integer", "minimum": 0, "default": 0, "description": "random seed"}
_JSON_OUT = {"type": ["string", "null"], "description": "JSON artifact (default: stdout)"}
_PARAMS_CSV = "params.csv"
_CSV_OUT = {"type": ["string", "null"], "description": f"parameter CSV (default: {_PARAMS_CSV})"}
_PARAMS_IN = {"type": "string", "description": "line-parameter CSV"}
# 150x the default 64.  The solver stacks every start, ~37 KB each for a
# general solve of a 4-node table: on the tuned n = 20 one it peaked at 38 /
# 75 / 152 MB RSS for 32 / 1000 / 3000 starts, and 10^4 starts on n = 30
# tables at 496 / 829 / 1404 MB for 4- / 5- / 6-node senders
MAX_STARTS = 10**4


def _command(name, description, required=(), **properties):
    return name, {
        "type": "object",
        "description": description,
        "properties": {"command": {"const": name}, **properties},
        "required": ["command", *required],
        "additionalProperties": False,
    }


# the only definition of each option: build_parser makes the flags from it
# and validate_config fills in its defaults
SCHEMAS = dict([
    _command(
        "optimize-chain", "tune the boundary couplings", required=["n"],
        n={"type": "integer", "minimum": 7, "description": "chain length"},
        # the whole lattice is scored, so a finer step costs time in proportion
        # to its points; the refinement resolves far below any step
        grid_step={"type": "number", "minimum": COUPLING_TOL,
                   "description": "coupling lattice step"},
        delta1_range=_RANGE,
        delta2_range=_RANGE,
        out=_JSON_OUT,
    ),
    _command("compute-params", "line parameters from the Hamiltonian",
             **_CHAIN_FIELDS, out=_CSV_OUT),
    _command(
        "probe-params", "line parameters from probe outputs",
        **_CHAIN_FIELDS,
        outputs={"type": "string", "description": "probe-output JSON (external data)"},
        dump_outputs={"type": ["string", "null"],
                      "description": "write the simulated probe outputs here"},
        out=_CSV_OUT,
    ),
    _command(
        "create-state", "solve for sender controls", required=["target", "params"],
        target={"type": "string", "description": "'werner' or 'file:target.json'"},
        p={"type": "number", "minimum": 0, "maximum": 1,
           "description": "werner mixing parameter"},
        params=_PARAMS_IN,
        starts={"type": "integer", "minimum": 1, "maximum": MAX_STARTS,
                "description": "solver starts"},
        seed=_SEED,
        out=_JSON_OUT,
    ),
    _command(
        "feasibility", "largest creatable werner parameter", required=["params"],
        params=_PARAMS_IN,
        grid={"type": "string", "default": "0:1:0.02", "description": "lo:hi:step"},
        starts={"type": "integer", "minimum": 1, "maximum": MAX_STARTS, "default": 64,
                "description": "solver starts per werner parameter"},
        seed=_SEED,
        out=_JSON_OUT,
    ),
    _command(
        "disorder-study", "Monte-Carlo over random chains",
        required=["epsilon", "seed", "out"],
        **_CHAIN_FIELDS,
        epsilon={"type": "number", "minimum": 0, "exclusiveMaximum": 1,
                 "description": "relative bulk-coupling error"},
        chains={"type": "integer", "minimum": 2, "maximum": MAX_CHAINS,
                "default": DEFAULT_N_CHAINS, "description": "sampled chains"},
        seed={"type": "integer", "minimum": 0, "description": "random seed"},
        out={"type": "string", "description": "JSON artifact"},
        params_csv={"type": ["string", "null"],
                    "description": "write the parameter statistics here"},
        robustness_csv={"type": ["string", "null"],
                        "description": "write the werner robustness here"},
    ),
    _command(
        "reproduce-paper", "run the verification report against the references",
        n={"type": "integer", "enum": [20, 60], "default": 20, "description": "chain length"},
        fast={"type": "boolean", "description": "skip the boundary-coupling optimization"},
    ),
])


_DEFAULTS = {
    command: {key: field["default"] for key, field in schema["properties"].items()
              if "default" in field}
    for command, schema in SCHEMAS.items()
}
_TYPES = {"string": str, "boolean": bool, "null": type(None), "array": list, "object": dict}
# keyword -> (breaks the bound, message) for a number
_BOUNDS = {
    "minimum": (lambda v, b: v < b, "less than the minimum"),
    "maximum": (lambda v, b: v > b, "greater than the maximum"),
    "exclusiveMaximum": (lambda v, b: v >= b, "greater than or equal to the maximum"),
}
# the JSON Schema keywords _check implements, and the two annotations that
# build_parser and _DEFAULTS read: a test holds SCHEMAS to these
KEYWORDS = frozenset({"type", "const", "enum", *_BOUNDS, "required", "additionalProperties",
                      "properties", "items", "minItems", "maxItems", "description", "default"})


class ConfigError(InputError):
    """A config its command's schema refuses, or options that do not combine."""

    label = "invalid config"


def _has_type(value, kind):
    if kind in ("integer", "number"):
        return is_number(value, kind)
    return isinstance(value, _TYPES[kind])


def _check(schema, value, key=None, whole=None):
    """Raise ConfigError, in JSON Schema wording, at the first rule of
    ``schema`` that ``value`` breaks, in this order: a float must be
    finite (reported as ``<key> must be finite, got <whole>``, naming the
    option and its whole value), then type, const, enum, the bounds of a
    number, the length of an array and each of its items in turn; of an
    object, the required keys in their listed order, unknown keys, then
    each set option in the order of ``properties``.
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {whole!r}")
    if "type" in schema:
        kinds = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_has_type(value, kind) for kind in kinds):
            raise ConfigError(f"{value!r} is not of type {', '.join(map(repr, kinds))}")
    if "const" in schema and value != schema["const"]:
        raise ConfigError(f"{schema['const']!r} was expected")
    if "enum" in schema and value not in schema["enum"]:
        raise ConfigError(f"{value!r} is not one of {schema['enum']!r}")
    if _has_type(value, "number"):
        for keyword, (breaks, words) in _BOUNDS.items():
            if keyword in schema and breaks(value, schema[keyword]):
                raise ConfigError(f"{value!r} is {words} of {schema[keyword]!r}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise ConfigError(f"{value!r} is too short")
        if len(value) > schema.get("maxItems", len(value)):
            raise ConfigError(f"{value!r} is too long")
        for item in value:
            _check(schema.get("items", {}), item, key, whole)
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for name in schema.get("required", ()):
            if name not in value:
                raise ConfigError(f"{name!r} is a required property")
        unknown = sorted(value.keys() - properties.keys(), key=str)
        if unknown and schema.get("additionalProperties") is False:
            verb = "was" if len(unknown) == 1 else "were"
            raise ConfigError(f"Additional properties are not allowed "
                              f"({', '.join(map(repr, unknown))} {verb} unexpected)")
        for name, field in properties.items():
            if name in value:
                _check(field, value[name], name, value[name])


def validate_config(config):
    """Check a config against its command's schema and return it with the
    schema defaults of its unset options filled in.

    The check reads the keywords of :data:`KEYWORDS` and reports the first
    error in the fixed order of :func:`_check`.
    """
    command = config.get("command")
    if not isinstance(command, str) or command not in SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    _check(SCHEMAS[command], config)
    return {**_DEFAULTS[command], **config}


def _read_text(path):
    """The text of the input file ``path``; InputError names a file that is
    not UTF-8 text."""
    with open(path, encoding="utf-8") as fh, malformed(f"{path} is not UTF-8 text"):
        return fh.read()


def _parse_file(path, parse):
    """``parse`` of the text of the input file ``path``; an InputError it
    raises names the file."""
    text = _read_text(path)
    try:
        return parse(text)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _resolve_chain(config, default_tuned=False):
    """(spec, t0, n_sender) from the chain-selection part of a config."""
    sender = config["sender"]
    if config.get("chain"):
        spec = _parse_file(config["chain"], ChainSpec.from_json)
        if config.get("t0") is None:
            raise ConfigError("--t0 is required with --chain")
        return spec, float(config["t0"]), sender
    n = config.get("n")
    if n is None:
        raise ConfigError("either --chain or --n is required")
    if default_tuned and config.get("t0") is None and n in bm.TUNED_CHAINS:
        config = {**config, "tuned": True}
    if config.get("tuned"):
        if n not in bm.TUNED_CHAINS:
            raise ConfigError(f"no tuned reference couplings for n={n}")
        t0 = float(config.get("t0", bm.TUNED_CHAINS[n]["t0"]))
        return tuned_spec(n), t0, sender
    if config.get("t0") is None:
        raise ConfigError("--t0 is required unless --tuned is given")
    return ChainSpec.uniform(n), float(config["t0"]), sender


def _emit_json(config, result, out):
    # one sorted-key line: without indent, json.dumps runs the C encoder
    artifact = json.dumps({"config": config, "result": result}, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(artifact)
    else:
        sys.stdout.write(artifact)


def _provenance(config):
    return [f"config: {json.dumps(config, sort_keys=True)}"]


def run_optimize_chain(config):
    keys = ("grid_step", "delta1_range", "delta2_range")
    opt = optimize_boundary(config["n"], **{k: config[k] for k in keys if config.get(k)})
    _emit_json(config, opt.as_dict(), config.get("out"))
    return EXIT_OK


def _line_params_for(config, default_tuned=False):
    spec, t0, sender = _resolve_chain(config, default_tuned)
    return line_params_at(diagonalize(spec), t0, n_sender=sender), spec


def run_compute_params(config):
    params, _spec = _line_params_for(config)
    out = config.get("out") or _PARAMS_CSV
    export_params_csv(params, out, header_lines=_provenance(config))
    print(f"wrote {params.n_entries} parameters to {out}")
    return EXIT_OK


def run_probe_params(config):
    probe_set(config["sender"])  # rejects an unsupported sender before any work
    if config.get("outputs"):
        if config.get("t0") is None:
            raise ConfigError("--t0 is required with --outputs")
        t0 = float(config["t0"])
        outputs = _parse_file(config["outputs"], probe_outputs_from_json)
    else:
        params_true, _spec = _line_params_for(config)
        t0 = params_true.t0
        outputs = simulate_probes(params_true)
        if config.get("dump_outputs"):
            with open(config["dump_outputs"], "w") as fh:
                fh.write(probe_outputs_to_json(outputs) + "\n")
    params = extract_params(outputs, t0)
    out = config.get("out") or _PARAMS_CSV
    export_params_csv(params, out, header_lines=_provenance(config))
    print(f"extracted {params.n_entries} parameters to {out}")
    return EXIT_OK


def _target_from_json(text):
    with malformed("must hold JSON {'re': 4x4, 'im': 4x4} numbers"):
        data = json.loads(text)
        check_keys(data, {"re", "im"})
        m = numbers(data["re"], "re") + 1j * numbers(data["im"], "im")
    return check_target(m)


def _load_target(config):
    target = config["target"]
    if target == "werner":
        if config.get("p") is None:
            raise ConfigError("--p is required for the werner target")
        return werner_target(config["p"]), True
    if target.startswith("file:"):
        return _parse_file(target[5:], _target_from_json), False
    raise ConfigError(f"unknown target {target!r} (use 'werner' or 'file:...')")


def run_create_state(config):
    params = import_params_csv(config["params"])
    target, is_werner = _load_target(config)
    # unset, the solver's own default applies: it depends on the target
    starts = {"n_starts": config["starts"]} if "starts" in config else {}
    single, pair = control_slices(params.n_sender)
    if is_werner:
        solved = solve_werner(params, [config["p"]], seed=config["seed"], **starts)
        x, residual, delta = solved.x[0], solved.residual[0], solved.discrepancy[0]
        controls = {f"a_{n}{m}": a.real for (n, m), a in zip(params.pairs, x[pair])}
    else:
        sol = solve_general(params, target, seed=config["seed"], **starts)
        x, residual, delta = sol.x, sol.residual, sol.discrepancy
        controls = {
            "a0": float(x[0].real),
            "a_single": [[z.real, z.imag] for z in x[single]],
            "a_double": [[z.real, z.imag] for z in x[pair]],
        }
    result = {
        "controls": controls,
        "residual": residual,
        "discrepancy": delta,
    }
    _emit_json(config, result, config.get("out"))
    return EXIT_OK


def run_feasibility(config):
    params = import_params_csv(config["params"])
    spec = config["grid"]
    with malformed(f"--grid must be lo:hi:step, got {spec!r}"):
        lo, hi, step = (float(x) for x in spec.split(":"))
    # lattice refuses ends that are not finite and a step that is not positive
    if lo < 0 or hi > 1:
        raise InputError(f"--grid must lie in [0, 1], got {spec!r}")
    boundary, resolution = feasibility_scan(params, lattice(lo, hi, step),
                                            n_starts=config["starts"], seed=config["seed"])
    _emit_json(config, {"boundary": boundary, "resolution": resolution},
               config.get("out"))
    return EXIT_OK


def run_disorder_study(config):
    # bare --n defaults to the tuned benchmark chain: a disorder study only
    # makes sense at a fixed registration time
    params, spec = _line_params_for(config, default_tuned=True)
    epsilon = config["epsilon"]
    n_chains = config["chains"]
    seed = config["seed"]
    sample = sample_line_params(spec, params.t0, epsilon, n_chains=n_chains, seed=seed,
                                n_sender=params.n_sender)
    study = param_statistics(params, sample)
    # rows stop at the first Werner p the line cannot create; the rest are listed
    controls = solve_werner(params, WERNER_P, seed=seed)
    robustness = werner_robustness(sample, controls.p, controls.x)
    result = {
        "epsilon": epsilon,
        "chains": n_chains,
        "param_stats": {
            f"{kind};{indices}": {
                "family": family, "mean": [mean.real, mean.imag], "std": std,
                "shift": [shift.real, shift.imag],
            }
            for kind, indices, family, mean, std, shift in zip(
                *table_labels(params.n_sender),
                study.mean.tolist(), study.std.tolist(), study.shift.tolist())
        },
        "werner_robustness": [dict(zip(("p", "mean_delta", "std_delta", "sem"), row))
                              for row in np.column_stack(robustness).tolist()],
        "werner_skipped_p": list(WERNER_P[len(controls.p):]),
    }
    _emit_json(config, result, config["out"])
    if config.get("params_csv"):
        export_param_stats_csv(study, config["params_csv"],
                               header_lines=_provenance(config))
    if config.get("robustness_csv"):
        export_robustness_csv(robustness, config["robustness_csv"],
                              header_lines=_provenance(config))
    print(f"wrote disorder study to {config['out']}")
    return EXIT_OK


def run_reproduce(config):
    n = config["n"]
    sections = []
    if not config.get("fast"):
        sections.append((f"boundary optimization (n={n})",
                         lambda: check_boundary_optimization(n)))
    sections.append((f"family I values (n={n})", lambda: check_family_i(n)))
    sections.append((f"family II values (n={n})", lambda: check_family_ii(n)))
    if n == 20:
        sections += [
            ("family III values (n=20)", check_family_iii),
            ("oracle equivalence", check_oracle_equivalence),
            ("probe-protocol closure", check_probe_closure),
            ("werner creation", check_werner),
            ("disorder robustness", check_disorder),
            ("structural invariants", check_invariants),
        ]
    all_ok = True
    for title, runner in sections:
        print(f"== {title}")
        for res in runner():
            print(res.line())
            all_ok &= res.passed
    print("== report:", "ALL CHECKS PASSED" if all_ok else "SOME CHECKS FAILED")
    return EXIT_OK if all_ok else EXIT_REPORT_FAILED


RUNNERS = {
    "optimize-chain": run_optimize_chain,
    "compute-params": run_compute_params,
    "probe-params": run_probe_params,
    "create-state": run_create_state,
    "feasibility": run_feasibility,
    "disorder-study": run_disorder_study,
    "reproduce-paper": run_reproduce,
}


def run_config(config):
    """Validate and execute a config dict; returns the exit code."""
    config = validate_config(config)
    return RUNNERS[config["command"]](config)


def _add_flag(sub, key, field, required):
    """The flag of one schema option: --key, with _ written as -."""
    flag = "--" + key.replace("_", "-")
    text = field["description"]
    if "default" in field:
        text += f" (default: {field['default']})"
    if field.get("type") == "boolean":
        sub.add_argument(flag, action="store_true", help=text)
    elif "enum" in field:
        sub.add_argument(flag, type=type(field["enum"][0]), choices=field["enum"],
                         required=required, help=text)
    else:
        kind = field["type"]
        # a range is read as "lo,hi" and split by _config_from_args
        sub.add_argument(flag, type=int if kind == "integer" else float if kind == "number"
                         else str, required=required, help=text)


@functools.cache  # the parser depends only on SCHEMAS, so one serves every call
def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinline",
        description="Remote two-qubit state creation through boundary-tuned XY chains",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, schema in SCHEMAS.items():
        # an unset flag stays out of the namespace; validate_config fills in its default
        sub = subs.add_parser(command, help=schema["description"],
                              argument_default=argparse.SUPPRESS)
        for key, field in schema["properties"].items():
            if key != "command":
                _add_flag(sub, key, field, key in schema["required"])
    p = subs.add_parser("run", help="execute a saved config file")
    p.add_argument("--config", required=True)
    return parser


def _config_from_args(args):
    if args.command == "run":
        text = _read_text(args.config)
        with malformed(f"{args.config} is not JSON"):
            config = json.loads(text)
        if not isinstance(config, dict):
            raise InputError(f"{args.config} must hold a JSON object")
        return config
    config = vars(args)
    for key in ("delta1_range", "delta2_range"):
        if key in config:
            with malformed(f"--{key.replace('_', '-')} must be lo,hi, got {config[key]!r}"):
                lo, hi = (float(x) for x in config[key].split(","))
            config[key] = [lo, hi]
    return config


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return run_config(_config_from_args(args))
    except SpinlineError as exc:  # each error type carries its exit code and label
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
