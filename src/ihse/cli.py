"""Command-line frontend: reproducible experiments with structured JSON/CSV
output.  Every document embeds the resolved configuration and a schema tag;
reruns with identical flags are byte-identical.

Exit codes: 0 success, 2 validation/usage error, 3 pathology-dominated run.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import jsonio
from .core import (
    Configuration,
    IHSEError,
    ModelParams,
    Tolerances,
    UsageError,
    all_pairs,
    conserved_quantities,
)
from .collision import predict_pair
from .jacobian_lab import (
    TensorLemmaCase,
    draw_scattering_sample,
    random_tct_case,
    tensor_sum_det,
    verify_flow_jacobian,
    verify_scattering_measure,
)
from .measure_mc import (
    SPEED_BAND_CUTOFF,
    SPEED_BAND_WIDTH,
    MeasureEstimate,
    PathologicalSetSpec,
    ensemble_volume_evolution,
    estimate_pathological_measure,
)
from .rng import sample_generator
from .scattering import CollisionKind, ScatteringOutcome, scatter
from .simulator import SimReport, random_configuration, simulate
from .tct import (
    TCTDomainClass,
    UnsupportedDimensionError,
    analytic_flow_jacobian_det,
    classify_tct_domain,
    tct_flow,
)

SCHEMA = "ihse/1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PATHOLOGY = 3


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values).ravel()]


def _pair_doc(pair) -> list[int]:
    return pair.as_list()


def _prediction_doc(pred) -> dict:
    return {
        "pair": _pair_doc(pred.pair),
        "delta": float(pred.discriminant),
        "tau": None if pred.time is None else float(pred.time),
        "grazing": pred.grazing,
    }


def _classification_doc(cls: TCTDomainClass) -> dict:
    return {
        "variant": cls.variant,
        "pair": None if cls.pair is None else _pair_doc(cls.pair),
        "t_c": None if cls.t_c is None else float(cls.t_c),
        "kind": None if cls.kind is None else cls.kind.value,
        "reason": None if cls.reason is None else cls.reason.value,
    }


def _outcome_doc(outcome: ScatteringOutcome) -> dict:
    return {
        "kind": outcome.kind.value,
        "omega": _floats(outcome.omega),
        "sigma": None if outcome.sigma is None else _floats(outcome.sigma),
        "kappa": None if outcome.kappa is None else float(outcome.kappa),
        "v_i_post": _floats(outcome.v_i_post),
        "v_j_post": _floats(outcome.v_j_post),
        "energy_loss": float(outcome.energy_loss),
    }


def _jacobian_report_doc(report) -> dict:
    return {
        "analytic_det": report.analytic_det,
        "fd_det": report.fd_det,
        "prefactor": report.prefactor,
        "det_N_fd": report.det_N_fd,
        "residual": report.residual,
        "step": report.step,
    }


def _sim_report_doc(report: SimReport) -> dict:
    return {
        "events": [
            {
                "time": e.time,
                "pair": _pair_doc(e.pair),
                "kind": e.kind.value,
                "ke_before": e.ke_before,
                "ke_after": e.ke_after,
                "rel_speed_sq": e.rel_speed_sq,
            }
            for e in report.events
        ],
        "final": report.final.to_json_dict(),
        "n_elastic": report.n_elastic,
        "n_inelastic": report.n_inelastic,
        "min_separation": report.min_separation,
        "halted": None
        if report.halted is None
        else {"reason": report.halted.reason, "time": report.halted.time},
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


# Flag tables: (name, type, default, help).  Defaults live here, not in
# argparse, so values from --run-config can slot in under explicit flags.
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

# The tolerance flags each command's handler reads.
COMMAND_TOLERANCES = {
    "classify": ENGINE_TOLERANCES,
    "flow": ENGINE_TOLERANCES,
    "simulate": ENGINE_TOLERANCES + ("max_events",),
    "jacobian": ENGINE_TOLERANCES + ("h",),
    "scatter-check": ("grazing_tol", "crit_tol", "h"),
    "tensor-lemma": (),
    "measure": (),
    "volume": ENGINE_TOLERANCES + ("max_events",),
}

COMMAND_FLAGS = {
    "classify": [
        ("config", str, None, "configuration JSON file"),
        ("tau", float, None, "time horizon"),
        ("eps0", float, None, "energy quantum lost per emitting collision"),
    ],
    "flow": [
        ("config", str, None, "configuration JSON file"),
        ("tau", float, None, "time horizon"),
        ("eps0", float, None, "energy quantum lost per emitting collision"),
    ],
    "simulate": [
        ("config", str, None, "configuration JSON file (omit to sample)"),
        ("T", float, None, "final time"),
        ("eps0", float, None, "energy quantum lost per emitting collision"),
        ("seed", int, 0, "seed for sampled initial conditions"),
        ("N", int, None, "number of particles when sampling"),
        ("dim", int, 2, "dimension when sampling"),
        ("R1", float, None, "stacked-position ball radius when sampling"),
        ("R2", float, None, "stacked-velocity ball radius when sampling"),
        ("events_csv", str, None, "append per-event CSV rows to this file"),
    ],
    "jacobian": [
        ("tau", float, 1.0, "time horizon of each one-collision case"),
        ("eps0", float, None, "fixed energy quantum (default: drawn per case)"),
        ("samples", int, 100, "number of random cases"),
        ("seed", int, 0, "stream seed"),
        ("dim", int, 2, "dimension"),
        ("n_particles", int, 3, "particles per case"),
    ],
    "scatter-check": [
        ("samples", int, 100, "number of random scattering inputs"),
        ("seed", int, 0, "stream seed"),
        ("eps0", float, 0.75, "energy quantum"),
        ("dim", int, 2, "dimension"),
    ],
    "tensor-lemma": [
        ("samples", int, 10000, "number of random coefficient draws"),
        ("seed", int, 1, "stream seed"),
    ],
    "measure": [
        ("family", str, None, "pathological set family: E or P"),
        ("N", int, None, "number of particles"),
        ("k", int, 0, "time-shift index"),
        ("delta", float, None, "proximity scale"),
        ("mu", float, None, "relative-speed band parameter (family P)"),
        ("R1", float, None, "position truncation radius"),
        ("R2", float, None, "velocity truncation radius"),
        ("eps0", float, None, "energy quantum"),
        ("samples", int, 100000, "Monte Carlo samples"),
        ("seed", int, 0, "stream seed"),
        ("band", str, SPEED_BAND_WIDTH, f"speed band form: {SPEED_BAND_WIDTH} | {SPEED_BAND_CUTOFF}"),
        ("csv", str, None, "append a sweep row to this CSV file"),
    ],
    "volume": [
        ("config", str, None, "center configuration JSON file"),
        ("radius", float, None, "ball radius around the center"),
        ("tau", float, None, "time horizon"),
        ("eps0", float, None, "energy quantum"),
        ("csv", str, None, "append a sweep row to this CSV file"),
    ],
}

REQUIRED = {
    "classify": ("config", "tau", "eps0"),
    "flow": ("config", "tau", "eps0"),
    "simulate": ("T", "eps0"),
    "jacobian": (),
    "scatter-check": (),
    "tensor-lemma": (),
    "measure": ("family", "N", "delta", "R1", "R2", "eps0"),
    "volume": ("config", "radius", "tau", "eps0"),
}


def _command_flags(command: str) -> list[tuple]:
    """The command's own flags followed by the tolerance flags it reads."""
    defaults = Tolerances()
    tolerances = [
        (name, ftype, getattr(defaults, field), help_text)
        for name, (field, ftype, help_text) in TOLERANCE_FIELDS.items()
        if name in COMMAND_TOLERANCES[command]
    ]
    return COMMAND_FLAGS[command] + tolerances


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ihse",
        description="Event-driven dynamics and numerical verification lab for "
        "inelastic hard spheres with emission.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMAND_FLAGS:
        p = sub.add_parser(command)
        for name, ftype, _, help_text in _command_flags(command):
            p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=ftype, default=None, help=help_text)
        p.add_argument("--output", "-o", dest="output", type=str, default=None, help="output file (default: stdout)")
        p.add_argument(
            "--run-config",
            dest="run_config",
            type=str,
            default=None,
            help="JSON file of flag defaults; explicit flags override",
        )
    return parser


def resolve_flags(args: argparse.Namespace) -> dict:
    """Merge explicit flags over --run-config values over builtin defaults."""
    command = args.command
    file_values = {}
    if args.run_config is not None:
        file_values = jsonio.load_file(args.run_config)
        if not isinstance(file_values, dict):
            raise UsageError("--run-config must contain a JSON object")
    resolved = {"command": command}
    for name, ftype, default, _ in _command_flags(command):
        value = getattr(args, name)
        if value is None and name in file_values:
            raw = file_values[name]
            value = raw if raw is None else ftype(raw)
        if value is None:
            value = default
        resolved[name] = value
    for name in REQUIRED[command]:
        if resolved.get(name) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required for '{command}'")
    return resolved


def _load_configuration(path: str) -> Configuration:
    return Configuration.from_json_dict(jsonio.load_file(path))


def _tolerances(flags: dict) -> Tolerances:
    """The one Tolerances block of a command, from its resolved flags."""
    return Tolerances(**{TOLERANCE_FIELDS[name][0]: flags[name] for name in COMMAND_TOLERANCES[flags["command"]]})


def _document(flags: dict, body: dict) -> dict:
    return {"schema": SCHEMA, "config": flags, **body}


def cmd_classify(flags: dict) -> tuple[dict, int]:
    cfg = _load_configuration(flags["config"])
    params = ModelParams(flags["eps0"], cfg.dimension)
    tol = _tolerances(flags)
    cls = classify_tct_domain(cfg, flags["tau"], params, tol=tol)
    predictions = [_prediction_doc(predict_pair(cfg, pair, tol=tol)) for pair in all_pairs(cfg.n_particles)]
    return _document(flags, {"classification": _classification_doc(cls), "predictions": predictions}), EXIT_OK


def cmd_flow(flags: dict) -> tuple[dict, int]:
    cfg = _load_configuration(flags["config"])
    params = ModelParams(flags["eps0"], cfg.dimension)
    tol = _tolerances(flags)
    result = tct_flow(cfg, flags["tau"], params, tol=tol)
    try:
        det, prefactor, det_n = analytic_flow_jacobian_det(cfg, flags["tau"], params, tol=tol)
        jacobian = {"det": det, "prefactor": prefactor, "det_N": det_n}
    except UnsupportedDimensionError:
        jacobian = {"det": None, "prefactor": None, "det_N": None}
    record = None
    if result.collision_record is not None:
        pair, t_c, outcome = result.collision_record
        record = {"pair": _pair_doc(pair), "t_c": t_c, "outcome": _outcome_doc(outcome)}
    body = {
        "classification": _classification_doc(result.classification),
        "final": result.final.to_json_dict(),
        "collision_record": record,
        "jacobian": jacobian,
    }
    return _document(flags, body), EXIT_OK


def cmd_simulate(flags: dict) -> tuple[dict, int]:
    if flags["config"] is not None:
        cfg = _load_configuration(flags["config"])
    else:
        for name in ("N", "R1", "R2"):
            if flags[name] is None:
                raise UsageError("sampled initial conditions need --N, --R1 and --R2")
        cfg = random_configuration(flags["seed"], 0, flags["N"], flags["dim"], flags["R1"], flags["R2"])
    params = ModelParams(flags["eps0"], cfg.dimension)
    report = simulate(cfg, flags["T"], params, tol=_tolerances(flags))
    momentum, ke = conserved_quantities(report.final)
    body = {
        "initial": cfg.to_json_dict(),
        "report": _sim_report_doc(report),
        "final_momentum": _floats(momentum),
        "final_kinetic_energy": ke,
    }
    if flags["events_csv"] is not None:
        for e in report.events:
            jsonio.csv_append(
                flags["events_csv"],
                ["time", "i", "j", "kind", "ke_before", "ke_after"],
                [e.time, e.pair.i, e.pair.j, e.kind.value, e.ke_before, e.ke_after],
            )
    status = EXIT_PATHOLOGY if report.halted is not None else EXIT_OK
    return _document(flags, body), status


def cmd_jacobian(flags: dict) -> tuple[dict, int]:
    tol = _tolerances(flags)
    reports = []
    lines = []
    for index in range(flags["samples"]):
        if flags["eps0"] is None:
            kind = CollisionKind.INELASTIC if index % 2 else CollisionKind.ELASTIC
        else:
            kind = None  # fixed quantum: take the branch the draw lands on
        cfg, params = random_tct_case(
            flags["seed"],
            index,
            flags["n_particles"],
            kind=kind,
            tau=flags["tau"],
            d=flags["dim"],
            fixed_eps0=flags["eps0"],
            tol=tol,
        )
        report = verify_flow_jacobian(cfg, flags["tau"], params, tol=tol)
        reports.append(report)
        lines.append(_jacobian_report_doc(report))
    residuals = [r.residual for r in reports if r.residual is not None]
    summary = {
        "n_samples": len(reports),
        "max_residual": max(residuals) if residuals else None,
    }
    doc = _document(flags, {"reports": lines, "summary": summary})
    return doc, EXIT_OK if reports else EXIT_PATHOLOGY


def cmd_scatter_check(flags: dict) -> tuple[dict, int]:
    params = ModelParams(flags["eps0"], flags["dim"])
    tol = _tolerances(flags)
    reports = verify_scattering_measure(flags["samples"], params, flags["seed"], h=tol.fd_step)
    lines = []
    max_ledger = 0.0
    max_det_dev = 0.0
    for index, report in enumerate(reports):
        # Same per-index stream as verify_scattering_measure, so the outcome
        # below belongs to the sample the report was computed from.
        gen = sample_generator(flags["seed"], index)
        v_i, v_j, omega, _ = draw_scattering_sample(gen, params)
        outcome = scatter(v_i, v_j, omega, params, tol=tol)
        pre_ke = 0.5 * float(v_i @ v_i + v_j @ v_j)
        post_ke = pre_ke - outcome.energy_loss
        expected = params.epsilon0 if outcome.kind is CollisionKind.INELASTIC else 0.0
        max_ledger = max(max_ledger, abs(outcome.energy_loss - expected))
        if flags["dim"] == 2:
            max_det_dev = max(max_det_dev, abs(abs(report.fd_det) - 1.0))
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
        "max_abs_det_deviation": max_det_dev if flags["dim"] == 2 else None,
    }
    return _document(flags, {"samples": lines, "summary": summary}), EXIT_OK if lines else EXIT_PATHOLOGY


def cmd_tensor_lemma(flags: dict) -> tuple[dict, int]:
    max_abs_diff = 0.0
    max_scaled_diff = 0.0
    for index in range(flags["samples"]):
        gen = sample_generator(flags["seed"], index)
        lam, mu, nu = gen.uniform(-10.0, 10.0, size=3)
        u = gen.uniform(-10.0, 10.0, size=2)
        omega = gen.uniform(-10.0, 10.0, size=2)
        formula, direct = tensor_sum_det(TensorLemmaCase(lam, mu, nu, u, omega))
        diff = abs(formula - direct)
        cross = u[0] * omega[1] - u[1] * omega[0]
        scale = max(
            1.0,
            abs(lam) * float(u @ u),
            abs(mu * float(u @ omega)),
            abs(nu) * float(omega @ omega),
            abs(lam * nu) * cross * cross,
        )
        max_abs_diff = max(max_abs_diff, diff)
        max_scaled_diff = max(max_scaled_diff, diff / scale)
    summary = {
        "n_samples": flags["samples"],
        "max_abs_diff": max_abs_diff,
        "max_scaled_diff": max_scaled_diff,
    }
    return _document(flags, {"summary": summary}), EXIT_OK


def cmd_measure(flags: dict) -> tuple[dict, int]:
    if flags["family"] not in ("E", "P"):
        raise UsageError("--family must be E or P")
    spec = PathologicalSetSpec(
        family=flags["family"],
        n_particles=flags["N"],
        k=flags["k"],
        delta=flags["delta"],
        mu=flags["mu"],
        R1=flags["R1"],
        R2=flags["R2"],
        params=ModelParams(flags["eps0"], 2),
        band=flags["band"],
    )
    threads = _thread_cap()
    estimate = estimate_pathological_measure(spec, flags["samples"], flags["seed"], threads=threads)
    if flags["csv"] is not None:
        jsonio.csv_append(
            flags["csv"],
            ["delta", "mu", "estimate", "ci95"],
            [spec.delta, spec.mu if spec.mu is not None else "", estimate.volume, estimate.ci95],
        )
    return _document(flags, {"estimate": _measure_doc(estimate)}), EXIT_OK


def cmd_volume(flags: dict) -> tuple[dict, int]:
    cfg = _load_configuration(flags["config"])
    params = ModelParams(flags["eps0"], cfg.dimension)
    predicted, measured = ensemble_volume_evolution(cfg, flags["radius"], flags["tau"], params, tol=_tolerances(flags))
    if flags["csv"] is not None:
        jsonio.csv_append(
            flags["csv"],
            ["tau", "radius", "predicted", "measured"],
            [flags["tau"], flags["radius"], predicted, measured],
        )
    return _document(flags, {"predicted": predicted, "measured": measured}), EXIT_OK


def _thread_cap() -> int:
    raw = os.environ.get("IHSE_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        return max(1, int(raw))
    except ValueError as exc:
        raise UsageError(f"IHSE_THREADS must be an integer, got {raw!r}") from exc


HANDLERS = {
    "classify": cmd_classify,
    "flow": cmd_flow,
    "simulate": cmd_simulate,
    "jacobian": cmd_jacobian,
    "scatter-check": cmd_scatter_check,
    "tensor-lemma": cmd_tensor_lemma,
    "measure": cmd_measure,
    "volume": cmd_volume,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        flags = resolve_flags(args)
        document, status = HANDLERS[args.command](flags)
    except (UsageError, IHSEError) as exc:
        print(f"ihse {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_PATHOLOGY
    text = jsonio.dumps(document, indent=2) + "\n"
    if args.output is not None:
        jsonio.write_atomic(args.output, text)
    else:
        sys.stdout.write(text)
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
