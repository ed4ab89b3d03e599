"""Command-line frontend: reproducible experiments with structured JSON/CSV
output.  Every document embeds the resolved configuration and a schema tag;
reruns with identical flags are byte-identical.

Exit codes: 0 success, 2 validation/usage error, 3 pathology-dominated run.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Callable, NamedTuple

from . import jsonio
from .core import (
    Configuration,
    IHSEError,
    ModelParams,
    Tolerances,
    UsageError,
    all_pairs,
    conserved_quantities,
    dot,
)
from .collision import predict_pair
from .jacobian_lab import random_flow_jacobians, scattering_measure_samples, tensor_sum_det
from .measure_mc import (
    SPEED_BAND_CUTOFF,
    SPEED_BAND_WIDTH,
    MeasureEstimate,
    PathologicalSetSpec,
    ensemble_volume_evolution,
    estimate_pathological_measure,
)
from .rng import sample_generator
from .scattering import CollisionKind, scatter
from .simulator import NOT_INTERIOR, random_configuration, simulate
from .tct import ExcludedConfigurationError, ExclusionReason, classified_flow_det, classify_tct_domain, tct_flow

SCHEMA = "ihse/1"

SEED_LIMIT = 2**64  # every --seed keys rng streams, which take 64 bits

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PATHOLOGY = 3


def _prediction_doc(pred) -> dict:
    return {
        "pair": pred.pair.as_list(),
        "delta": float(pred.discriminant),
        "tau": None if pred.time is None else float(pred.time),
        "grazing": pred.grazing,
    }


def _measure_doc(est: MeasureEstimate) -> dict:
    spec = est.spec
    return {
        "family": spec.family,
        "N": spec.n_particles,
        "k": spec.k,
        "delta": spec.delta,
        "mu": spec.mu,
        "R1": spec.R1,
        "R2": spec.R2,
        "eps0": spec.params.epsilon0,
        "band": spec.band,
        "n_samples": est.n_samples,
        "hits": est.hits,
        "fraction": est.fraction,
        "volume": est.volume,
        "ci95": est.ci95,
    }


class Flag(NamedTuple):
    """One flag --name (underscores as dashes).  Its default lives here, not
    in argparse, so a --run-config value can slot in under an explicit flag."""

    name: str
    type: type
    default: object
    help: str
    required: bool = False


# Tolerance flags map to Tolerances fields (--h sets fd_step) and take their
# defaults from Tolerances().
TOLERANCE_FIELDS = {
    "grazing_tol": ("grazing_tol", float, "grazing band on the discriminant"),
    "simultaneity_tol": ("simultaneity_tol", float, "distinct-pair simultaneity window"),
    "crit_tol": ("crit_tol", float, "half-width of the critical energy band"),
    "contact_tol": ("contact_tol", float, "contact tolerance on pair gaps"),
    "h": ("fd_step", float, "finite-difference step"),
    "max_events": ("max_events", int, "event-count ceiling"),
}

ENGINE_TOLERANCES = ("grazing_tol", "simultaneity_tol", "crit_tol", "contact_tol")


class Command(NamedTuple):
    """One CLI command: its handler, its own flags, and the names of the
    tolerance flags it reads."""

    handler: Callable[[dict], tuple[dict, int]]
    flags: tuple[Flag, ...]
    tolerances: tuple[str, ...] = ()

    def all_flags(self) -> tuple[Flag, ...]:
        """The command's own flags followed by its tolerance flags."""
        defaults = Tolerances()
        return self.flags + tuple(
            Flag(name, ftype, getattr(defaults, field), help_text)
            for name, (field, ftype, help_text) in TOLERANCE_FIELDS.items()
            if name in self.tolerances
        )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process.  Flags must be
    spelled in full: a prefix of a flag is not accepted."""
    parser = argparse.ArgumentParser(
        prog="ihse",
        description="Event-driven dynamics and numerical verification lab for "
        "inelastic hard spheres with emission.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, entry in COMMANDS.items():
        p = sub.add_parser(command, allow_abbrev=False)
        for flag in entry.all_flags():
            p.add_argument(f"--{flag.name.replace('_', '-')}", dest=flag.name, type=flag.type, help=flag.help)
        p.add_argument("--output", "-o", dest="output", help="output file (default: stdout)")
        p.add_argument("--run-config", dest="run_config", help="JSON file of flag defaults; explicit flags override")
    return parser


def _file_value(name: str, ftype: type, raw):
    """A --run-config value converted as the command line converts the text
    of its flag; a JSON number also serves a float flag, and an int flag when
    it is integral.  null leaves the flag unset."""
    if raw is None:
        return None
    number = ftype is not str and type(raw) in (int, float)
    try:
        if isinstance(raw, str) or (number and (ftype is float or int(raw) == raw)):
            return ftype(raw)
    except (ValueError, OverflowError):
        pass
    raise UsageError(f"--run-config key '{name}': invalid {ftype.__name__} value {raw!r}")


def resolve_flags(args: argparse.Namespace) -> dict:
    """Merge explicit flags over --run-config values over builtin defaults.
    The file's keys must be the command's flag names."""
    command = args.command
    flags = {flag.name: flag for flag in COMMANDS[command].all_flags()}
    file_values = {} if args.run_config is None else jsonio.load_file(args.run_config)
    if not isinstance(file_values, dict):
        raise UsageError("--run-config must contain a JSON object")
    for name, raw in file_values.items():
        if name not in flags:
            raise UsageError(f"--run-config key '{name}' is not a flag of '{command}'")
        file_values[name] = _file_value(name, flags[name].type, raw)
    resolved = {"command": command}
    for name, flag in flags.items():
        value = next((v for v in (getattr(args, name), file_values.get(name)) if v is not None), flag.default)
        if value is None and flag.required:
            raise UsageError(f"--{name.replace('_', '-')} is required for '{command}'")
        if name == "seed" and not 0 <= value < SEED_LIMIT:
            raise UsageError(f"--seed must be an integer in [0, 2**64), got {value}")
        resolved[name] = value
    return resolved


def _load_configuration(path: str) -> Configuration:
    return Configuration.from_json_dict(jsonio.load_file(path))


def _tolerances(flags: dict) -> Tolerances:
    """The one Tolerances block of a command, from its resolved flags."""
    return Tolerances(**{TOLERANCE_FIELDS[name][0]: flags[name] for name in COMMANDS[flags["command"]].tolerances})


def _samples(flags: dict) -> int:
    """The command's --samples, which must be positive."""
    if flags["samples"] <= 0:
        raise UsageError("--samples must be positive")
    return flags["samples"]


def _document(flags: dict, body: dict) -> dict:
    return {"schema": SCHEMA, "config": flags, **body}


def cmd_classify(flags: dict) -> tuple[dict, int]:
    cfg = _load_configuration(flags["config"])
    params = ModelParams(flags["eps0"])
    tol = _tolerances(flags)
    cls = classify_tct_domain(cfg, flags["tau"], params, tol=tol)
    predictions = [_prediction_doc(predict_pair(cfg, pair, tol=tol)) for pair in all_pairs(cfg.n_particles)]
    return _document(flags, {"classification": cls, "predictions": predictions}), EXIT_OK


def cmd_flow(flags: dict) -> tuple[dict, int]:
    cfg = _load_configuration(flags["config"])
    params = ModelParams(flags["eps0"])
    tol = _tolerances(flags)
    try:
        result = tct_flow(cfg, flags["tau"], params, tol=tol)
    except ExcludedConfigurationError as exc:
        if exc.reason is ExclusionReason.BOUNDARY_START:  # an input error, as for simulate and volume
            raise UsageError(NOT_INTERIOR) from exc
        raise
    det, prefactor, det_n = classified_flow_det(cfg, result.classification, result.final.velocities, params, tol=tol)
    cls, outcome = result.classification, result.outcome
    record = None if outcome is None else {"pair": cls.pair, "t_c": cls.t_c, "outcome": outcome}
    body = {
        "classification": cls,
        "final": result.final,
        "collision_record": record,
        "jacobian": {"det": det, "prefactor": prefactor, "det_N": det_n},
    }
    return _document(flags, body), EXIT_OK


def cmd_simulate(flags: dict) -> tuple[dict, int]:
    if flags["config"] is not None:
        for flag in COMMANDS["simulate"].flags:
            if flag.name in SAMPLING_FLAGS and flags[flag.name] != flag.default:
                raise UsageError(f"--{flag.name} has no effect with --config")
        cfg = _load_configuration(flags["config"])
    else:
        for name in ("N", "R1", "R2"):
            if flags[name] is None:
                raise UsageError("sampled initial conditions need --N, --R1 and --R2")
        cfg = random_configuration(flags["seed"], 0, flags["N"], flags["dim"], flags["R1"], flags["R2"])
    params = ModelParams(flags["eps0"])
    report = simulate(cfg, flags["T"], params, tol=_tolerances(flags))
    momentum, ke = conserved_quantities(report.final)
    body = {
        "initial": cfg,
        "report": report,
        "final_momentum": momentum,
        "final_kinetic_energy": ke,
    }
    if flags["events_csv"] is not None:
        jsonio.csv_append(
            flags["events_csv"],
            ["time", "i", "j", "kind", "ke_before", "ke_after"],
            [[e.time, e.pair.i, e.pair.j, e.kind.value, e.ke_before, e.ke_after] for e in report.events],
        )
    status = EXIT_PATHOLOGY if report.halted is not None else EXIT_OK
    return _document(flags, body), status


def cmd_jacobian(flags: dict) -> tuple[dict, int]:
    tol = _tolerances(flags)
    indices = range(_samples(flags))
    if flags["eps0"] is None:
        kinds = [CollisionKind.INELASTIC if index % 2 else CollisionKind.ELASTIC for index in indices]
    else:
        kinds = [None] * len(indices)  # fixed quantum: take the branch the draw lands on
    reports = random_flow_jacobians(
        flags["seed"],
        indices,
        flags["n_particles"],
        kinds=kinds,
        tau=flags["tau"],
        d=flags["dim"],
        fixed_eps0=flags["eps0"],
        tol=tol,
    )
    for report in reports:
        if isinstance(report, IHSEError):
            raise report  # the first failing case, as a loop over the cases meets it
    summary = {
        "n_samples": len(reports),
        "max_residual": max(r.residual for r in reports),
    }
    return _document(flags, {"reports": reports, "summary": summary}), EXIT_OK


def cmd_scatter_check(flags: dict) -> tuple[dict, int]:
    params = ModelParams(flags["eps0"])
    tol = _tolerances(flags)
    lines = []
    max_ledger = 0.0
    max_det_dev = 0.0
    samples = scattering_measure_samples(_samples(flags), params, flags["dim"], flags["seed"], h=tol.fd_step)
    for sample in samples:
        if isinstance(sample, IHSEError):
            raise sample  # the first failing sample, as a loop over the samples meets it
        v_i, v_j, omega, report = sample
        outcome = scatter(v_i, v_j, omega, params, tol=tol)
        pre_ke = 0.5 * (dot(v_i, v_i) + dot(v_j, v_j))
        post_ke = pre_ke - outcome.energy_loss
        expected = params.epsilon0 if outcome.kind is CollisionKind.INELASTIC else 0.0
        max_ledger = max(max_ledger, abs(outcome.energy_loss - expected))
        max_det_dev = max(max_det_dev, abs(report.fd_det - report.analytic_det))
        lines.append(
            {
                "kind": outcome.kind.value,
                "pre_ke": pre_ke,
                "post_ke": post_ke,
                "loss": outcome.energy_loss,
                "fd_det": report.fd_det,
            }
        )
    summary = {
        "n_samples": len(lines),
        "max_energy_ledger_error": max_ledger,
        "max_abs_det_deviation": max_det_dev,
    }
    return _document(flags, {"samples": lines, "summary": summary}), EXIT_OK


def cmd_tensor_lemma(flags: dict) -> tuple[dict, int]:
    max_abs_diff = 0.0
    max_scaled_diff = 0.0
    for index in range(_samples(flags)):
        gen = sample_generator(flags["seed"], index)
        lam, mu, nu = gen.uniform(-10.0, 10.0, size=3)
        u = gen.uniform(-10.0, 10.0, size=2)
        omega = gen.uniform(-10.0, 10.0, size=2)
        formula, direct, scale = tensor_sum_det(lam, mu, nu, u, omega)
        diff = abs(formula - direct)
        max_abs_diff = max(max_abs_diff, diff)
        max_scaled_diff = max(max_scaled_diff, diff / scale)
    summary = {
        "n_samples": flags["samples"],
        "max_abs_diff": max_abs_diff,
        "max_scaled_diff": max_scaled_diff,
    }
    return _document(flags, {"summary": summary}), EXIT_OK


def cmd_measure(flags: dict) -> tuple[dict, int]:
    spec = PathologicalSetSpec(
        family=flags["family"],
        n_particles=flags["N"],
        k=flags["k"],
        delta=flags["delta"],
        mu=flags["mu"],
        R1=flags["R1"],
        R2=flags["R2"],
        params=ModelParams(flags["eps0"]),
        band=flags["band"],
    )
    threads = _thread_cap()
    estimate = estimate_pathological_measure(spec, _samples(flags), flags["seed"], threads=threads)
    if flags["csv"] is not None:
        jsonio.csv_append(
            flags["csv"],
            ["delta", "mu", "estimate", "ci95"],
            [[spec.delta, spec.mu if spec.mu is not None else "", estimate.volume, estimate.ci95]],
        )
    return _document(flags, {"estimate": _measure_doc(estimate)}), EXIT_OK


def cmd_volume(flags: dict) -> tuple[dict, int]:
    cfg = _load_configuration(flags["config"])
    params = ModelParams(flags["eps0"])
    predicted, measured = ensemble_volume_evolution(cfg, flags["radius"], flags["tau"], params, tol=_tolerances(flags))
    if flags["csv"] is not None:
        jsonio.csv_append(
            flags["csv"],
            ["tau", "radius", "predicted", "measured"],
            [[flags["tau"], flags["radius"], predicted, measured]],
        )
    return _document(flags, {"predicted": predicted, "measured": measured}), EXIT_OK


def _thread_cap() -> int:
    raw = os.environ.get("IHSE_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        threads = int(raw)
    except ValueError as exc:
        raise UsageError(f"IHSE_THREADS must be an integer, got {raw!r}") from exc
    if threads < 1:
        raise UsageError(f"IHSE_THREADS must be at least 1, got {raw!r}")
    return threads


CONFIG_FLAG = Flag("config", str, None, "configuration JSON file", required=True)
TAU_FLAG = Flag("tau", float, None, "time horizon", required=True)
EPS0_FLAG = Flag("eps0", float, None, "energy quantum lost per emitting collision", required=True)
SAMPLING_FLAGS = ("seed", "N", "dim", "R1", "R2")  # simulate's flags for sampled initial conditions

COMMANDS = {
    "classify": Command(cmd_classify, (CONFIG_FLAG, TAU_FLAG, EPS0_FLAG), ENGINE_TOLERANCES),
    "flow": Command(cmd_flow, (CONFIG_FLAG, TAU_FLAG, EPS0_FLAG), ENGINE_TOLERANCES),
    "simulate": Command(
        cmd_simulate,
        (
            Flag("config", str, None, "configuration JSON file (omit to sample)"),
            Flag("T", float, None, "final time", required=True),
            EPS0_FLAG,
            Flag("seed", int, 0, "seed for sampled initial conditions"),
            Flag("N", int, None, "number of particles when sampling"),
            Flag("dim", int, 2, "dimension when sampling"),
            Flag("R1", float, None, "stacked-position ball radius when sampling"),
            Flag("R2", float, None, "stacked-velocity ball radius when sampling"),
            Flag("events_csv", str, None, "append per-event CSV rows to this file"),
        ),
        ENGINE_TOLERANCES + ("max_events",),
    ),
    "jacobian": Command(
        cmd_jacobian,
        (
            Flag("tau", float, 1.0, "time horizon of each one-collision case"),
            Flag("eps0", float, None, "fixed energy quantum (default: drawn per case)"),
            Flag("samples", int, 100, "number of random cases"),
            Flag("seed", int, 0, "stream seed"),
            Flag("dim", int, 2, "dimension"),
            Flag("n_particles", int, 3, "particles per case"),
        ),
        ENGINE_TOLERANCES + ("h",),
    ),
    "scatter-check": Command(
        cmd_scatter_check,
        (
            Flag("samples", int, 100, "number of random scattering inputs"),
            Flag("seed", int, 0, "stream seed"),
            Flag("eps0", float, 0.75, "energy quantum"),
            Flag("dim", int, 2, "dimension"),
        ),
        ("grazing_tol", "crit_tol", "h"),
    ),
    "tensor-lemma": Command(
        cmd_tensor_lemma,
        (
            Flag("samples", int, 10000, "number of random coefficient draws"),
            Flag("seed", int, 1, "stream seed"),
        ),
    ),
    "measure": Command(
        cmd_measure,
        (
            Flag("family", str, None, "pathological set family: E or P", required=True),
            Flag("N", int, None, "number of particles", required=True),
            Flag("k", int, 0, "time-shift index"),
            Flag("delta", float, None, "proximity scale", required=True),
            Flag("mu", float, None, "relative-speed band parameter (family P)"),
            Flag("R1", float, None, "position truncation radius", required=True),
            Flag("R2", float, None, "velocity truncation radius", required=True),
            Flag("eps0", float, None, "energy quantum", required=True),
            Flag("samples", int, 100000, "Monte Carlo samples"),
            Flag("seed", int, 0, "stream seed"),
            Flag("band", str, SPEED_BAND_WIDTH, f"speed band form: {SPEED_BAND_WIDTH} | {SPEED_BAND_CUTOFF}"),
            Flag("csv", str, None, "append a sweep row to this CSV file"),
        ),
    ),
    "volume": Command(
        cmd_volume,
        (
            Flag("config", str, None, "center configuration JSON file", required=True),
            Flag("radius", float, None, "ball radius around the center", required=True),
            TAU_FLAG,
            Flag("eps0", float, None, "energy quantum", required=True),
            Flag("csv", str, None, "append a sweep row to this CSV file"),
        ),
        ENGINE_TOLERANCES + ("max_events",),
    ),
}


def _output_error(command: str, path, exc: OSError) -> int:
    """Report an output file that cannot be written (--output, --events-csv,
    --csv) on one line that names it: a usage error."""
    print(f"ihse {command}: cannot write {path}: {exc.strerror}", file=sys.stderr)
    return EXIT_USAGE


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each negative number joined to the flag before it (--tau
    -1e-3 as --tau=-1e-3): argparse takes a token that starts with "-" for a
    flag unless it is written like -1 or -.5, so -1e-9 or -inf would read
    as a missing value rather than as one out of range."""
    joined: list[str] = []
    for token in argv:
        flag = joined[-1] if joined else ""
        if token.startswith("-") and _is_number(token) and flag.startswith("-") and "=" not in flag:
            joined[-1] = f"{flag}={token}"
        else:
            joined.append(token)
    return joined


def run(argv=None) -> int:
    args = build_parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        flags = resolve_flags(args)
        document, status = COMMANDS[args.command].handler(flags)
    except (UsageError, IHSEError) as exc:
        print(f"ihse {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_PATHOLOGY
    except OSError as exc:  # load_file reports unreadable inputs itself: a CSV output
        return _output_error(args.command, exc.filename, exc)
    text = jsonio.dumps(document) + "\n"
    if args.output is None:
        sys.stdout.write(text)
        return status
    try:
        jsonio.write_atomic(args.output, text)
    except OSError as exc:
        return _output_error(args.command, args.output, exc)
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
