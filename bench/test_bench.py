"""Tests of the benchmark itself (not of ``ihse``).  Run from the
repository root with ``python3 -m pytest bench``."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))
import ihse.cli  # noqa: E402

ROOT = run.ROOT


def test_generators_are_deterministic_in_the_seed(tmp_path):
    assert workloads.dense_cluster(7, 3) == workloads.dense_cluster(7, 3)
    assert workloads.dense_cluster(7, 3) != workloads.dense_cluster(8, 3)
    assert workloads.dense_cluster(7, 3) != workloads.dense_cluster(7, 4)
    assert workloads.c11_chain(7, 1) == workloads.c11_chain(7, 1)
    assert workloads.c11_chain(7, 1) != workloads.c11_chain(8, 1)
    assert workloads.derived_seed(7, 3, 2) == workloads.derived_seed(7, 3, 2)
    assert workloads.derived_seed(7, 3, 2) != workloads.derived_seed(8, 3, 2)
    for name, workload in workloads.WORKLOADS.items():
        first, second = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        first.mkdir()
        second.mkdir()
        plans = [workload.build(5, first), workload.build(5, second)]
        argvs = [[[a.replace(str(d), "") for a in inv.argv] for inv in p.invocations] for p, d in zip(plans, (first, second))]
        assert argvs[0] == argvs[1]
        for path in first.iterdir():
            assert path.read_bytes() == (second / path.name).read_bytes()


def test_generated_clusters_are_interior():
    from ihse.core import Configuration, validate_configuration

    for index in range(workloads.CLUSTER_COUNT):
        cfg = Configuration.from_json_dict(workloads.dense_cluster(3, index))
        assert cfg.n_particles == workloads.CLUSTER_PARTICLES
        assert validate_configuration(cfg).is_interior


def _document(invocation, tmp_path) -> dict:
    outcome = run.call(ihse.cli, invocation, tmp_path)
    assert outcome.problems == []
    return outcome.doc


@pytest.fixture(scope="module")
def documents(tmp_path_factory) -> dict:
    """One real document per command, small enough to keep the tests quick."""
    tmp = tmp_path_factory.mktemp("docs")
    config = workloads._write(tmp / "cluster.json", workloads.dense_cluster(1, 0))
    chain = workloads._write(tmp / "chain.json", workloads.c11_chain(1, 0))
    return {
        "simulate": _document(workloads.simulate_invocation("simulate", config), tmp),
        "jacobian": _document(workloads.jacobian_invocation("jacobian", 3, 2, 11), tmp),
        "volume": _document(workloads.volume_invocation("volume", chain, "0.5"), tmp),
        "volume-elastic": _document(workloads.volume_invocation("volume-elastic", chain, "inf"), tmp),
        "measure": _document(workloads.measure_invocation("measure", "P", 8192, 3, 1), tmp),
    }


def _corrupted(doc: dict, edit) -> dict:
    doc = copy.deepcopy(doc)
    edit(doc)
    return doc


def _event(doc, kind):
    return next(e for e in doc["report"]["events"] if e["kind"] == kind)


SIMULATE_CORRUPTIONS = {
    "overlap": lambda d: d["report"].update(min_separation=0.999),
    "emitting drop": lambda d: _event(d, "inelastic").update(ke_after=_event(d, "inelastic")["ke_after"] + 1e-8),
    "elastic drop": lambda d: _event(d, "elastic").update(ke_after=_event(d, "elastic")["ke_after"] - 1e-8),
    "final energy": lambda d: d.update(final_kinetic_energy=d["final_kinetic_energy"] + 1e-7),
    "momentum": lambda d: d["final_momentum"].__setitem__(0, d["final_momentum"][0] + 1e-7),
    "count": lambda d: d["report"].update(n_inelastic=d["report"]["n_inelastic"] + 1),
    "halted": lambda d: d["report"].update(halted={"reason": "grazing", "time": 1.0}),
    "bound": lambda d: d["config"].update(eps0=1e6),
}


@pytest.mark.parametrize("name", sorted(SIMULATE_CORRUPTIONS))
def test_simulate_check_rejects_corruption(documents, name):
    doc = documents["simulate"]
    assert checks.check_simulate(doc) == []
    assert checks.check_simulate(_corrupted(doc, SIMULATE_CORRUPTIONS[name]))


def test_jacobian_check_rejects_corruption(documents):
    doc = documents["jacobian"]
    assert checks.check_jacobian(doc) == []
    assert checks.check_jacobian(_corrupted(doc, lambda d: d["reports"][1].update(residual=1e-3)))
    assert checks.check_jacobian(_corrupted(doc, lambda d: d["reports"][0].update(residual=None)))
    assert checks.check_jacobian(_corrupted(doc, lambda d: d["reports"].pop()))


def test_volume_check_rejects_corruption(documents):
    emitting, elastic = documents["volume"], documents["volume-elastic"]
    assert checks.check_volume(emitting) == [] and checks.check_volume(elastic) == []
    assert checks.check_volume(_corrupted(emitting, lambda d: d.update(measured=d["measured"] + 1e-3)))
    assert checks.check_volume(_corrupted(elastic, lambda d: d.update(measured=1.0 + 1e-5)))


def test_measure_checks_reject_corruption(documents):
    doc = documents["measure"]
    assert checks.check_measure(doc) == []
    assert checks.check_measure(_corrupted(doc, lambda d: d["estimate"].update(hits=0)))
    docs = {"measure/P-t1": doc, "measure/P-t2": doc}
    assert checks.check_thread_invariance(docs) == {}
    other = _corrupted(doc, lambda d: d["estimate"].update(hits=d["estimate"]["hits"] + 1))
    assert set(checks.check_thread_invariance({**docs, "measure/P-t2": other})) == set(docs)


@pytest.fixture(scope="module")
def small_plan(tmp_path_factory):
    """Every layer but the Monte Carlo kernel, on one thread, in a few seconds."""
    tmp = tmp_path_factory.mktemp("plan")
    config = workloads._write(tmp / "cluster.json", workloads.dense_cluster(2, 0))
    chain = workloads._write(tmp / "chain.json", workloads.c11_chain(2, 0))
    invocations = (
        workloads.simulate_invocation("simulate/c", config),
        workloads.jacobian_invocation("jacobian/n3", 3, 2, 5),
        workloads.volume_invocation("volume/chain", chain, "0.5"),
        workloads.measure_invocation("measure/E-t1", "E", 8192, 9, 1),
    )
    (tmp / "out").mkdir()
    return workloads.Plan(invocations, ()), tmp / "out"


def _traced_pass(plan, out_dir):
    recorder = tracing.Recorder()
    with tracing.instrument(recorder):
        outcomes = run.run_pass(plan, ihse.cli, out_dir, recorder)
    return recorder, outcomes


def test_traced_documents_match_untraced(small_plan):
    plan, out_dir = small_plan
    untraced = run.run_pass(plan, ihse.cli, out_dir)
    _, traced = _traced_pass(plan, out_dir)
    after = run.run_pass(plan, ihse.cli, out_dir)
    for outcomes in (untraced, traced, after):
        assert [o.problems for o in outcomes] == [[]] * len(plan.invocations)
    assert [o.digest for o in traced] == [o.digest for o in untraced] == [o.digest for o in after]


def test_instrument_restores_every_name(small_plan):
    modules = {layer: sys.modules[f"ihse.{layer}"] for layer in tracing.LAYERS}
    before = {layer: dict(vars(m)) for layer, m in modules.items()}
    method = ihse.core.Configuration.min_separation
    with tracing.instrument(tracing.Recorder()):
        assert ihse.simulator.first_collision is not before["simulator"]["first_collision"]
        assert ihse.collision.first_collision is before["collision"]["first_collision"]
    assert {layer: dict(vars(m)) for layer, m in modules.items()} == before
    assert ihse.core.Configuration.min_separation is method


def test_self_times_are_non_negative_and_add_up_to_the_traced_wall(small_plan):
    plan, out_dir = small_plan
    recorder, outcomes = _traced_pass(plan, out_dir)
    spans = recorder.spans
    child = {}
    for span_id, _, start, end, parent, _, _ in spans:
        assert end >= start
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)
    self_times = [(end - start) - child.get(span_id, 0.0) for span_id, _, start, end, _, _, _ in spans]
    assert min(self_times) >= -1e-9
    roots = [end - start for _, name, start, end, parent, _, _ in spans if parent < 0]
    assert len(roots) == len(plan.invocations)  # one thread: every root is a cli.run
    metrics = tracing.layer_metrics(recorder, range(len(plan.invocations)), {o.key: o.doc for o in outcomes})
    total_self = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert total_self == pytest.approx(sum(roots), rel=1e-9)
    wall = sum(o.seconds for o in outcomes)
    assert sum(roots) <= wall and sum(roots) == pytest.approx(wall, rel=0.05, abs=0.01)
    for layer in tracing.LAYERS:
        assert metrics[f"{layer}.self_s"] > 0, layer


def test_traced_counts_repeat_exactly(small_plan):
    plan, out_dir = small_plan
    per_pass = []
    recorder = tracing.Recorder()
    for _ in range(2):
        first = len(recorder.invocations)
        with tracing.instrument(recorder):
            outcomes = run.run_pass(plan, ihse.cli, out_dir, recorder)
        ids = range(first, first + len(outcomes))
        per_pass.append(tracing.layer_metrics(recorder, ids, {o.key: o.doc for o in outcomes}))
    summary, unsteady = run.layer_summary(per_pass)
    assert unsteady == []
    assert summary["simulator.events"] > 0 and summary["jacobian_lab.oracle_calls"] == 3
    assert summary["measure_mc.simulate_calls_per_volume"] >= 96


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "cluster", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
