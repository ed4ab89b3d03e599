"""Checks on the documents the CLI writes, and the work each one reports.

A check returns the list of problems it found; an empty list means the
document is correct.  Every problem makes its invocation count as failed.
"""

from __future__ import annotations

import math

SEPARATION_TOL = 1e-9
DROP_TOL = 1e-10
LEDGER_TOL = 1e-9
RESIDUAL_TOL = 1e-5
EMITTING_VOLUME_TOL = 1e-4
ELASTIC_VOLUME_TOL = 1e-6


def _kinetic_energy(config: dict) -> float:
    return 0.5 * sum(c * c for p in config["particles"] for c in p["v"])


def _momentum(config: dict) -> list[float]:
    return [sum(p["v"][k] for p in config["particles"]) for k in range(config["d"])]


def check_simulate(doc: dict) -> list[str]:
    """Energy ledger, momentum, overlap and collision-count bound of one run."""
    problems = []
    eps0 = doc["config"]["eps0"]
    report = doc["report"]
    events = report["events"]
    if report["halted"] is not None:
        problems.append(f"halted: {report['halted']}")
    if report["min_separation"] < 1.0 - SEPARATION_TOL:
        problems.append(f"min_separation {report['min_separation']!r} < 1 - {SEPARATION_TOL}")
    for n, event in enumerate(events):
        expected = eps0 if event["kind"] == "inelastic" else 0.0
        drop = event["ke_before"] - event["ke_after"]
        if not abs(drop - expected) <= DROP_TOL:
            problems.append(f"event {n} ({event['kind']}) drops {drop!r}, expected {expected!r}")
    n_inelastic = sum(1 for e in events if e["kind"] == "inelastic")
    if (report["n_inelastic"], report["n_elastic"]) != (n_inelastic, len(events) - n_inelastic):
        problems.append("n_inelastic / n_elastic disagree with the event list")
    ke0 = _kinetic_energy(doc["initial"])
    expected_ke = ke0 - n_inelastic * eps0
    if not abs(doc["final_kinetic_energy"] - expected_ke) <= LEDGER_TOL:
        problems.append(f"final KE {doc['final_kinetic_energy']!r}, ledger expects {expected_ke!r}")
    for got, want in zip(doc["final_momentum"], _momentum(doc["initial"])):
        if not abs(got - want) <= LEDGER_TOL:
            problems.append(f"momentum {doc['final_momentum']!r} not conserved")
            break
    if n_inelastic > math.floor(ke0 / eps0):
        problems.append(f"{n_inelastic} emitting collisions exceed floor(KE0/eps0)")
    return problems


def check_jacobian(doc: dict) -> list[str]:
    """Every FD determinant agrees with the analytic one."""
    reports = doc["reports"]
    problems = []
    if len(reports) != doc["config"]["samples"]:
        problems.append(f"{len(reports)} reports for {doc['config']['samples']} samples")
    for n, report in enumerate(reports):
        residual = report["residual"]
        if residual is None or not residual <= RESIDUAL_TOL:
            problems.append(f"case {n}: residual {residual!r} > {RESIDUAL_TOL}")
    return problems


def check_volume(doc: dict) -> list[str]:
    """Emitting chains contract by the product of per-event factors; elastic
    chains preserve volume."""
    measured, predicted = doc["measured"], doc["predicted"]
    if math.isinf(doc["config"]["eps0"]):
        if not abs(measured - 1.0) <= ELASTIC_VOLUME_TOL:
            return [f"elastic chain: measured {measured!r} != 1 +- {ELASTIC_VOLUME_TOL}"]
    elif not abs(measured - predicted) <= EMITTING_VOLUME_TOL:
        return [f"emitting chain: measured {measured!r} vs predicted {predicted!r}"]
    return []


def check_measure(doc: dict) -> list[str]:
    estimate = doc["estimate"]
    problems = []
    if not estimate["hits"] > 0:
        problems.append("no hits")
    if estimate["n_samples"] != doc["config"]["samples"]:
        problems.append(f"{estimate['n_samples']} samples drawn, {doc['config']['samples']} asked")
    return problems


def check_thread_invariance(docs: dict) -> dict:
    """Hits must not depend on the thread count: ``measure/<family>-t<n>``
    documents of one family agree.  Returns problems by invocation key."""
    by_family: dict = {}
    for key, doc in docs.items():
        family = key.split("/")[1].split("-")[0]
        by_family.setdefault(family, []).append((key, doc["estimate"]["hits"]))
    problems = {}
    for runs in by_family.values():
        if len({hits for _, hits in runs}) > 1:
            for key, _ in runs:
                problems[key] = [f"hits differ across thread counts: {runs}"]
    return problems


def simulate_work(doc: dict) -> int:
    """Collision events."""
    return len(doc["report"]["events"])


def jacobian_work(doc: dict) -> int:
    """FD-verified one-collision cases."""
    return len(doc["reports"])


def volume_work(doc: dict) -> int:
    """One FD-verified volume centre."""
    return 1


def measure_work(doc: dict) -> int:
    """Monte Carlo draws."""
    return doc["estimate"]["n_samples"]
