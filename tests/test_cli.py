import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from ihse import (
    CollisionKind,
    Configuration,
    IHSEError,
    ModelParams,
    Tolerances,
    UsageError,
    collision,
    jacobian_lab,
    measure_mc,
    rng,
    scattering,
    simulator,
    tct,
)
from ihse.cli import COMMANDS, _thread_cap, build_parser, run
from ihse.core import FD_STEP
from ihse.jsonio import dumps

import reference_kernel as ref


@pytest.fixture
def two_body_file(tmp_path):
    path = tmp_path / "two_body.json"
    doc = {
        "d": 2,
        "particles": [
            {"x": [0.0, 0.0], "v": [1.0, 0.0]},
            {"x": [3.0, 0.0], "v": [0.0, 0.0]},
        ],
    }
    path.write_text(dumps(doc))
    return path


def run_to_file(tmp_path, argv):
    out = tmp_path / "out.json"
    status = run(argv + ["--output", str(out)])
    return status, out


def count_calls(monkeypatch, module, name) -> list:
    """Wrap module.name under every ihse module name that holds it; the
    returned list grows by each call's positional arguments."""
    original, calls = getattr(module, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for holder in list(sys.modules.values()):
        if getattr(holder, "__name__", "").startswith("ihse") and getattr(holder, name, None) is original:
            monkeypatch.setattr(holder, name, counting)
    return calls


def run_with_flag(tmp_path, argv, flag, value, via_run_config):
    """run argv with one more flag, given on the command line or as a
    --run-config key."""
    if not via_run_config:
        return run(argv + [flag, value])
    run_config = tmp_path / "run.json"
    run_config.write_text(json.dumps({flag[2:]: value}))
    return run(argv + ["--run-config", str(run_config)])


class TestFlowCommand:
    def test_inelastic_example(self, tmp_path, two_body_file):
        status, out = run_to_file(
            tmp_path, ["flow", "--config", str(two_body_file), "--tau", "3", "--eps0", "0.1875"]
        )
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "ihse/1"
        assert doc["classification"]["variant"] == "single_collision"
        assert doc["classification"]["kind"] == "inelastic"
        assert doc["classification"]["t_c"] == 2
        record = doc["collision_record"]
        assert record["outcome"]["kappa"] == 0.25
        assert record["outcome"]["energy_loss"] == 0.1875
        particles = doc["final"]["particles"]
        assert particles[0]["x"] == [2.25, 0] and particles[0]["v"] == [0.25, 0]
        assert particles[1]["x"] == [3.75, 0] and particles[1]["v"] == [0.75, 0]
        assert doc["jacobian"] == {"det": 0.5, "prefactor": -0.5, "det_N": -1}

    def test_excluded_is_pathology_exit(self, tmp_path):
        grazing = tmp_path / "grazing.json"
        grazing.write_text(
            dumps(
                {
                    "d": 2,
                    "particles": [
                        {"x": [0.0, 0.0], "v": [1.0, 0.0]},
                        {"x": [3.0, 1.0], "v": [0.0, 0.0]},
                    ],
                }
            )
        )
        status = run(["flow", "--config", str(grazing), "--tau", "5", "--eps0", "0.75"])
        assert status == 3

    def test_classifies_once(self, tmp_path, two_body_file, monkeypatch):
        calls = count_calls(monkeypatch, tct, "tct_stack")
        status, _ = run_to_file(tmp_path, ["flow", "--config", str(two_body_file), "--tau", "3", "--eps0", "0.1875"])
        assert status == 0
        assert len(calls) == 1

    def test_collides_once(self, tmp_path, two_body_file, monkeypatch):
        # One stacked collide; scatter once more for the document's outcome
        # record; one pair prediction, in collision_time_gradients.  Both
        # collides go through scattering.collide, so the stacked one is
        # counted as collide_stack.
        names = {simulator: ("collide_stack",), scattering: ("scatter",), collision: ("predict_pair",)}
        calls = {name: count_calls(monkeypatch, module, name) for module, group in names.items() for name in group}
        status, _ = run_to_file(tmp_path, ["flow", "--config", str(two_body_file), "--tau", "3", "--eps0", "0.1875"])
        assert status == 0
        assert {name: len(made) for name, made in calls.items()} == {
            "collide_stack": 1,
            "scatter": 1,
            "predict_pair": 1,
        }


class TestClassifyCommand:
    def test_predictions_listed(self, tmp_path, two_body_file):
        status, out = run_to_file(
            tmp_path, ["classify", "--config", str(two_body_file), "--tau", "3", "--eps0", "0.75"]
        )
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["classification"]["kind"] == "elastic"
        (pred,) = doc["predictions"]
        assert pred["pair"] == [1, 2]
        assert pred["delta"] == 1 and pred["tau"] == 2 and pred["grazing"] is False


class TestSimulateCommand:
    def test_config_run_with_events_csv(self, tmp_path, two_body_file):
        csv_path = tmp_path / "events.csv"
        status, out = run_to_file(
            tmp_path,
            [
                "simulate",
                "--config",
                str(two_body_file),
                "--T",
                "3",
                "--eps0",
                "0.1875",
                "--events-csv",
                str(csv_path),
            ],
        )
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["n_inelastic"] == 1
        assert doc["final_kinetic_energy"] == 0.3125
        header, row = csv_path.read_text().strip().splitlines()
        assert header == "time,i,j,kind,ke_before,ke_after"
        assert row.split(",") == ["2", "1", "2", "inelastic", "0.5", "0.3125"]

    def test_sampled_initial_conditions(self, tmp_path):
        status, out = run_to_file(
            tmp_path,
            ["simulate", "--T", "5", "--eps0", "0.3", "--seed", "4", "--N", "3", "--R1", "4", "--R2", "1.5"],
        )
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["seed"] == 4
        assert len(doc["initial"]["particles"]) == 3

    def test_pathology_exit_code(self, tmp_path):
        grazing = tmp_path / "grazing.json"
        grazing.write_text(
            dumps(
                {
                    "d": 2,
                    "particles": [
                        {"x": [0.0, 0.0], "v": [1.0, 0.0]},
                        {"x": [3.0, 1.0], "v": [0.0, 0.0]},
                    ],
                }
            )
        )
        status, out = run_to_file(tmp_path, ["simulate", "--config", str(grazing), "--T", "5", "--eps0", "0.75"])
        assert status == 3
        doc = json.loads(out.read_text())
        assert doc["report"]["halted"]["reason"] == "grazing"

    def test_missing_sampling_flags_usage_error(self):
        assert run(["simulate", "--T", "5", "--eps0", "0.3"]) == 2

    @pytest.mark.parametrize("via_run_config", [False, True])
    @pytest.mark.parametrize("flag, value", [("--N", "7"), ("--R1", "4"), ("--R2", "1.5"), ("--seed", "9"), ("--dim", "3")])
    def test_sampling_flags_rejected_with_config(self, tmp_path, two_body_file, capsys, flag, value, via_run_config):
        argv = ["simulate", "--config", str(two_body_file), "--T", "3", "--eps0", "0.1875", "--output", str(tmp_path / "out.json")]
        assert run_with_flag(tmp_path, argv, flag, value, via_run_config) == 2
        assert not (tmp_path / "out.json").exists()
        assert f"ihse simulate: {flag} has no effect with --config" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_sampling_no_particles_is_usage_error(self, tmp_path, capsys, monkeypatch, n):
        # checked before any draw: at --N 0 the ball draw would divide by zero
        draws = count_calls(monkeypatch, simulator, "uniform_ball")
        argv = ["simulate", "--N", n, "--R1", "4", "--R2", "1", "--T", "1", "--eps0", "0.5"]
        status, out = run_to_file(tmp_path, argv)
        assert status == 2
        assert not out.exists()
        assert capsys.readouterr().err == "ihse simulate: need at least one particle\n"
        assert draws == []

    @pytest.mark.parametrize("radii", [["--R1", "-4", "--R2", "-1"], ["--R1", "inf"], ["--R1", "nan"], ["--R2", "0"]])
    def test_sampling_radius_not_positive_and_finite_is_usage_error(self, tmp_path, capsys, monkeypatch, radii):
        # a negative pair of radii ran and exited 0, and an infinite one
        # warned before its error
        draws = count_calls(monkeypatch, simulator, "uniform_ball")
        argv = ["simulate", "--N", "2", "--R1", "4", "--R2", "1", "--T", "1", "--eps0", "0.5", *radii]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out = run_to_file(tmp_path, argv)
        assert status == 2
        assert not out.exists()
        assert capsys.readouterr().err == "ihse simulate: R1 and R2 must be positive and finite\n"
        assert draws == []

    @pytest.mark.parametrize("radii", [["--R1", "1e300"], ["--R1", "1.7e308", "--R2", "1.7e308"]])
    def test_sampling_radius_too_large_for_the_contact_roots(self, tmp_path, capsys, radii):
        # the draw's squared gaps overflowed with a warning; near the float
        # limit some draws overflow and are drawn again
        for seed in ("0", "1", "2", "3"):
            argv = ["simulate", "--N", "2", "--R1", "4", "--R2", "1", "--T", "1", "--eps0", "0.5", "--seed", seed]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                status, out = run_to_file(tmp_path, argv + radii)
            assert status == 2
            assert not out.exists()
            expected = "ihse simulate: a coordinate is too large: the contact roots would overflow over [0, T]\n"
            assert capsys.readouterr().err == expected

    def test_default_sampling_flags_accepted_with_config(self, tmp_path, two_body_file):
        argv = ["simulate", "--config", str(two_body_file), "--T", "3", "--eps0", "0.1875", "--seed", "0", "--dim", "2"]
        assert run_to_file(tmp_path, argv)[0] == 0


class TestHorizonAndReach:
    @pytest.mark.parametrize("command, flag", [("simulate", "--T"), ("classify", "--tau"), ("flow", "--tau")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_horizon_is_usage_error(self, tmp_path, capsys, two_body_file, command, flag, value):
        status, out = run_to_file(tmp_path, [command, "--config", str(two_body_file), flag, value, "--eps0", "0.1875"])
        assert status == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"ihse {command}: {flag[2:]} must be positive and finite\n"

    @pytest.mark.parametrize("command, flag", [("simulate", "--T"), ("classify", "--tau"), ("flow", "--tau")])
    def test_overflowing_contact_quadratic_is_usage_error(self, tmp_path, capsys, command, flag):
        # a*c of the head-on pair overflows at speeds of 1e200
        config = tmp_path / "fast.json"
        particles = [{"x": [0.0, 0.0], "v": [1e200, 0.0]}, {"x": [3.0, 0.0], "v": [-1e200, 0.0]}]
        config.write_text(dumps({"d": 2, "particles": particles}))
        status, out = run_to_file(tmp_path, [command, "--config", str(config), flag, "1", "--eps0", "0.1875"])
        assert status == 2
        assert not out.exists()
        assert "too large" in capsys.readouterr().err


    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "-1e-3"])
    def test_jacobian_tau_is_usage_error_before_any_draw(self, tmp_path, capsys, monkeypatch, value):
        draws = count_calls(monkeypatch, jacobian_lab, "_spread_positions")
        status, out = run_to_file(tmp_path, ["jacobian", "--samples", "4", "--tau", value])
        assert status == 2
        assert not out.exists()
        assert capsys.readouterr().err == "ihse jacobian: tau must be positive and finite\n"
        assert draws == []


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--T", "1"], ["classify", "--tau", "1"], ["volume", "--tau", "1", "--radius", "1e-3"]],
)
def test_subnormal_speeds_have_no_contact(tmp_path, argv):
    # c/q overflowed in the scan with a warning, an error under -W error
    config = tmp_path / "subnormal.json"
    speeds = [[1e-310, 0.0], [0.0, 1e-310], [1e-310, 1e-310]]
    particles = [{"x": x, "v": v} for x, v in zip([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]], speeds)]
    config.write_text(dumps({"d": 2, "particles": particles}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status, out = run_to_file(tmp_path, argv + ["--config", str(config), "--eps0", "0.5"])
    assert status == 0
    if argv[0] == "simulate":
        assert json.loads(out.read_text())["report"]["events"] == []


@pytest.mark.parametrize(
    "config, message",
    [
        ('{"d": 2.9, "particles": [{"x": [0, 0], "v": [1, 0]}]}', "declared dimension must be an integer, got 2.9"),
        ('{"d": 2, "particles": [{"x": [0, 0], "v": [true, 0]}]}', "coordinates must be numbers"),
        ('{"d": 2, "particles": [{"x": ["0", 0], "v": [1, 0]}]}', "coordinates must be numbers"),
        (
            '{"d": 2, "particles": [{"x": [0, 0], "v": [1, 0]}, {"x": [3, 0, 1], "v": [0, 0]}]}',
            "positions/velocities must be (N, d) arrays of numbers",
        ),
        ('{"d": 2}', "malformed configuration document: 'particles'"),
        ('{"d": 2, "particles": [{"x": [0, 0]}]}', "malformed configuration document: 'v'"),
        ('{"d": 2, "particles": 5}', "malformed configuration document: 'int' object is not iterable"),
    ],
)
def test_malformed_config_file_is_a_usage_error(tmp_path, capsys, config, message):
    """A config file is read as written: a fractional dimension is not
    truncated, and true or "0" is not taken for a number."""
    path = tmp_path / "bad.json"
    path.write_text(config)
    status, out = run_to_file(tmp_path, ["simulate", "--config", str(path), "--T", "1", "--eps0", "0.5"])
    assert status == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"ihse simulate: {message}\n"


class TestDimensionEntry:
    """The dimension is the state's: every entry of a state, a config file
    or a --dim flag, rejects d < 2 with the same usage error."""

    @pytest.mark.parametrize("command", ["simulate", "classify", "flow", "volume"])
    def test_config_file_of_dimension_one(self, tmp_path, capsys, command):
        config = tmp_path / "line.json"
        config.write_text(dumps({"d": 1, "particles": [{"x": [0.0], "v": [1.0]}, {"x": [3.0], "v": [0.0]}]}))
        horizon = ["--T", "1"] if command == "simulate" else ["--tau", "1"]
        radius = ["--radius", "1e-3"] if command == "volume" else []
        status, out = run_to_file(tmp_path, [command, "--config", str(config), "--eps0", "0.5"] + horizon + radius)
        assert status == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"ihse {command}: dimension must be an integer >= 2\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--N", "3", "--R1", "4", "--R2", "1", "--T", "1", "--eps0", "0.5", "--dim", "1"],
            ["simulate", "--N", "3", "--R1", "4", "--R2", "1", "--T", "1", "--eps0", "0.5", "--dim", "0"],
            ["jacobian", "--samples", "2", "--dim", "1"],
            ["jacobian", "--samples", "2", "--dim", "0"],
            ["scatter-check", "--samples", "2", "--dim", "1"],
            ["scatter-check", "--samples", "2", "--dim", "0"],
        ],
    )
    def test_dim_flag_below_two(self, tmp_path, capsys, argv):
        # checked before any draw: at --dim 0 the ball draw would divide by
        # zero and the spread positions would exhaust their retries
        status, out = run_to_file(tmp_path, argv)
        assert status == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"ihse {argv[0]}: dimension must be an integer >= 2\n"


class TestVerificationCommands:
    def test_tensor_lemma_summary(self, tmp_path):
        status, out = run_to_file(tmp_path, ["tensor-lemma", "--samples", "2000", "--seed", "1"])
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["max_abs_diff"] <= 1e-8

    def test_jacobian_summary(self, tmp_path):
        status, out = run_to_file(
            tmp_path, ["jacobian", "--dim", "2", "--samples", "6", "--seed", "7", "--n-particles", "2"]
        )
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["n_samples"] == 6
        assert doc["summary"]["max_residual"] <= 1e-5
        assert len(doc["reports"]) == 6

    @pytest.mark.parametrize("eps0", ["2.0", "0.05"])
    def test_jacobian_fixed_eps0(self, tmp_path, eps0):
        # A fixed quantum takes the branch each draw lands on: with 4 eps0
        # above every drawn squared relative speed each case is elastic
        # (det 1), and far below it each case emits (det below 1).
        status, out = run_to_file(tmp_path, ["jacobian", "--eps0", eps0, "--samples", "6"])
        assert status == 0
        doc = json.loads(out.read_text())
        dets = [report["analytic_det"] for report in doc["reports"]]
        assert len(dets) == 6
        if eps0 == "2.0":
            assert dets == [1.0] * 6
        else:
            assert all(det < 1.0 for det in dets)
        assert doc["summary"]["max_residual"] <= 1e-5

    @pytest.mark.parametrize(
        "argv, rounds",
        [
            (["--n-particles", "3", "--samples", "2"], [2]),
            (["--n-particles", "3", "--samples", "6"], [6]),
            # a third particle recollides with one candidate: a second round
            (["--n-particles", "4", "--seed", "1", "--tau", "3", "--samples", "10"], [10, 1]),
        ],
    )
    def test_jacobian_classifies_each_centre_once(self, tmp_path, monkeypatch, argv, rounds):
        # one tct_stack call per acceptance round of the lockstep draws: the
        # stencil stack of that round's candidates, each centre a row of it
        # that classifies the candidate and, when it is accepted, is row 0 of
        # its finite-difference stencils (1 + 8 N d rows per case)
        calls = count_calls(monkeypatch, tct, "tct_stack")
        status, _ = run_to_file(tmp_path, ["jacobian"] + argv)
        assert status == 0
        size = 1 + 8 * int(argv[1]) * 2  # N particles in d = 2
        assert [len(positions) for positions, *_ in calls] == [size * cases for cases in rounds]

    def test_jacobian_checks_and_stencils_are_array_passes(self, tmp_path, monkeypatch):
        # the draws' checks run over stacked cases: no one-state scan, and
        # each emitting case's pair is solved once more only for its
        # contact-time gradient (collision_time_gradients; the default kinds
        # alternate, so 3 of 6 cases emit); the stencils are built once,
        # every case's at both steps in one call and every velocity map's in
        # another
        names = ("first_collision", "predict_pair", "collision_time_gradients")
        calls = {name: count_calls(monkeypatch, collision, name) for name in names}
        stencils = count_calls(monkeypatch, jacobian_lab, "_stencil_rows")
        status, _ = run_to_file(tmp_path, ["jacobian", "--samples", "6", "--n-particles", "3"])
        assert status == 0
        made = {name: len(made) for name, made in calls.items()}
        assert made == {"first_collision": 0, "predict_pair": 3, "collision_time_gradients": 3}
        assert len(stencils) == 2

    def test_scatter_check_lines(self, tmp_path):
        status, out = run_to_file(tmp_path, ["scatter-check", "--samples", "20", "--seed", "3", "--eps0", "0.75"])
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["max_energy_ledger_error"] <= 1e-12
        assert doc["summary"]["max_abs_det_deviation"] <= 1e-6
        sample = doc["samples"][0]
        assert set(sample) == {"kind", "pre_ke", "post_ke", "loss", "fd_det"}

    def test_scatter_check_draws_each_sample_once(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, jacobian_lab, "draw_scattering_sample")
        status, out = run_to_file(tmp_path, ["scatter-check", "--samples", "50", "--dim", "3"])
        assert status == 0
        assert len(json.loads(out.read_text())["samples"]) == 50
        assert len(calls) == 50

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["jacobian", "--samples", "2", "--h", "1e-300"], "step 1e-300 does not move coordinate 0 (value "),
            (["scatter-check", "--samples", "2", "--h", "1e-17"], "step 1e-17 does not move coordinate "),
            (
                ["volume", "--radius", "1e-300", "--tau", "1.5", "--eps0", "0.5"],
                "step 1e-301 does not move coordinate 0 (value 3.0)",
            ),
        ],
    )
    def test_step_that_does_not_move_a_coordinate_is_usage_error(self, tmp_path, capsys, argv, message):
        # x + h == x made every stencil column 0: fd_det 0, exit 0
        if argv[0] == "volume":
            chain = tmp_path / "chain.json"
            chain.write_text(dumps({"d": 2, "particles": [{"x": x, "v": v} for x, v in FLAG_CONFIGS["chain"]]}))
            argv = argv + ["--config", str(chain)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out = run_to_file(tmp_path, argv)
        assert status == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"ihse {argv[0]}: finite-difference {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("command, samples", [("jacobian", "-3"), ("scatter-check", "0"), ("tensor-lemma", "-2")])
    def test_non_positive_samples_is_usage_error(self, tmp_path, capsys, command, samples):
        status, out = run_to_file(tmp_path, [command, "--samples", samples])
        assert status == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"ihse {command}: --samples must be positive\n"

    def test_jacobian_rejects_one_particle(self, tmp_path, capsys):
        status, out = run_to_file(tmp_path, ["jacobian", "--samples", "2", "--n-particles", "1"])
        assert status == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("ihse jacobian: ")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--seed", "2", "--n-particles", "2", "--h", "0.3"], "BranchCrossingError"),  # at case 0
            (["--seed", "0", "--n-particles", "2", "--h", "0.3"], "UnreliableStencilError"),  # at case 0
            (["--seed", "3", "--n-particles", "2", "--tau", "5", "excluded"], "ExcludedConfigurationError"),
        ],
    )
    def test_jacobian_reports_the_first_failing_case(self, tmp_path, monkeypatch, capsys, argv, expected):
        # A later case whose draws run out of budget does not pre-empt an
        # earlier case's failure: the run fails as the loop over the cases
        # of reference_kernel, each drawn and verified alone, fails first.
        budget = IHSEError("failed to draw a one-collision configuration within the retry budget")
        substitutes = {2: budget}
        if "excluded" in argv:  # case 1 is drawn as a pair that grazes before t = 5
            argv = argv[:-1]
            grazing = Configuration([[0.0, 0.0], [3.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]])
            substitutes[1] = (grazing, ModelParams(0.75))
        flags = dict(zip(argv[0::2], argv[1::2]))
        tau, tol = float(flags.get("--tau", 1.0)), Tolerances(fd_step=float(flags.get("--h", FD_STEP)))
        loop_error = None
        for index in range(4):
            kind = CollisionKind.INELASTIC if index % 2 else CollisionKind.ELASTIC
            try:
                case = substitutes.get(index) or ref.random_tct_case(
                    int(flags["--seed"]), index, int(flags["--n-particles"]), kind=kind, tau=tau, tol=tol
                )
                if isinstance(case, IHSEError):
                    raise case
                ref.verify_flow_jacobian(case[0], tau, case[1], tol=tol)
            except IHSEError as error:
                loop_error = error
                break
        assert type(loop_error).__name__ == expected

        def given(case):  # draws that give the case as their one candidate
            if isinstance(case, IHSEError):
                raise case
            yield case
            return case

        drawn, original = [], jacobian_lab._case_draws

        def substituted(gen, *args):
            drawn.append(None)
            index = len(drawn) - 1
            return given(substitutes[index]) if index in substitutes else original(gen, *args)

        monkeypatch.setattr(jacobian_lab, "_case_draws", substituted)
        status, out = run_to_file(tmp_path, ["jacobian", "--samples", "4"] + argv)
        assert len(drawn) == 4
        assert (status, capsys.readouterr().err) == (3, f"ihse jacobian: {loop_error}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--seed", "2", "--h", "0.3"], "BranchCrossingError"),  # at sample 0
            (["--seed", "10", "--h", "0.3"], "BranchCrossingError"),  # at sample 1
            (["--seed", "0", "--grazing-tol", "0.5"], "GrazingContactError"),  # scatter at sample 1
            (["--seed", "8", "--h", "0.1"], "IHSEError"),  # sample 2's draw before its own stencil
            (["--seed", "4"], "IHSEError"),  # nothing fails before sample 2's draw
        ],
    )
    def test_scatter_check_reports_the_first_failing_sample(self, tmp_path, monkeypatch, capsys, argv, expected):
        # A later sample whose draw runs out of budget does not pre-empt an
        # earlier sample's failure: the run fails as a loop over the samples,
        # each drawn, differenced and scattered alone, fails first.
        budget = IHSEError("could not draw a valid scattering sample within the retry budget")
        flags = dict(zip(argv[0::2], argv[1::2]))
        params = ModelParams(0.75)
        fields = {"--h": "fd_step", "--grazing-tol": "grazing_tol"}
        tol = Tolerances(**{fields[flag]: float(value) for flag, value in flags.items() if flag in fields})
        draw = jacobian_lab.draw_scattering_sample
        loop_error = None
        for index in range(4):
            try:
                if index == 2:
                    raise budget
                v_i, v_j, omega, _ = draw(rng.sample_generator(int(flags["--seed"]), index), params, 2)
                velocity_map = lambda zz: jacobian_lab._dispatched_velocity_map(zz, omega, params.epsilon0)
                jacobian_lab.fd_jacobian(velocity_map, np.concatenate([v_i, v_j]), tol.fd_step)
                scattering.scatter(v_i, v_j, omega, params, tol=tol)
            except IHSEError as error:
                loop_error = error
                break
        assert type(loop_error).__name__ == expected

        drawn = []

        def substituted(gen, *args, **kwargs):
            drawn.append(None)
            if len(drawn) == 3:
                raise budget
            return draw(gen, *args, **kwargs)

        monkeypatch.setattr(jacobian_lab, "draw_scattering_sample", substituted)
        status, out = run_to_file(tmp_path, ["scatter-check", "--samples", "4"] + argv)
        assert len(drawn) == 4
        assert (status, capsys.readouterr().err) == (3, f"ihse scatter-check: {loop_error}\n")
        assert not out.exists()

    def test_closed_forms_in_3d(self, tmp_path):
        # jacobian and scatter-check certify d=3 as they certify d=2
        status, out = run_to_file(tmp_path, ["jacobian", "--dim", "3", "--samples", "4"])
        assert status == 0
        doc = json.loads(out.read_text())
        assert all(report["analytic_det"] is not None for report in doc["reports"])
        assert doc["summary"]["max_residual"] <= 1e-5
        status, out = run_to_file(tmp_path, ["scatter-check", "--samples", "20", "--seed", "3", "--eps0", "0.75", "--dim", "3"])
        assert status == 0
        assert json.loads(out.read_text())["summary"]["max_abs_det_deviation"] <= 1e-6
        head_on = tmp_path / "head_on3.json"
        head_on.write_text(dumps({"d": 3, "particles": [{"x": [0, 0, 0], "v": [1, 0, 0]}, {"x": [3, 0, 0], "v": [-1, 0, 0]}]}))
        status, out = run_to_file(tmp_path, ["flow", "--config", str(head_on), "--tau", "2", "--eps0", "0.75"])
        assert status == 0
        jacobian = json.loads(out.read_text())["jacobian"]
        assert jacobian["det_N"] == -0.5
        assert jacobian["det"] == pytest.approx(0.25, abs=1e-12)


class TestMeasureAndVolume:
    def test_measure_with_csv(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        status, out = run_to_file(
            tmp_path,
            [
                "measure", "--family", "E", "--N", "3", "--delta", "0.3",
                "--R1", "3", "--R2", "1", "--eps0", "0.01",
                "--samples", "20000", "--seed", "5", "--csv", str(csv_path),
            ],
        )
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["estimate"]["n_samples"] == 20000
        assert doc["estimate"]["hits"] > 0
        assert csv_path.read_text().splitlines()[0] == "delta,mu,estimate,ci95"

    @pytest.mark.parametrize("flag, value", [("--family", "X"), ("--band", "bogus")])
    def test_measure_rejects_bad_spec(self, tmp_path, capsys, flag, value):
        argv = ["measure", "--family", "E", "--N", "3", "--delta", "0.3", "--R1", "3", "--R2", "1", "--eps0", "0.01"]
        status, out = run_to_file(tmp_path, argv + [flag, value])
        assert status == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("ihse measure: ")

    @pytest.mark.parametrize("flag, value", [("--R1", "nan"), ("--R1", "inf"), ("--R2", "nan"), ("--R2", "0")])
    def test_measure_rejects_a_radius_not_positive_and_finite(self, tmp_path, capsys, flag, value):
        # a NaN or infinite radius gave a NaN volume with exit 0, and R2 = 0
        # a ZeroDivisionError from the delta bound
        argv = ["measure", "--family", "E", "--N", "3", "--delta", "0.3", "--R1", "3", "--R2", "1", "--eps0", "0.01"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out = run_to_file(tmp_path, argv + ["--samples", "100", flag, value])
        assert status == 2
        assert not out.exists()
        assert capsys.readouterr().err == "ihse measure: R1 and R2 must be positive and finite\n"

    def test_measure_box_without_finite_volume_is_usage_error_before_any_draw(self, tmp_path, capsys, monkeypatch):
        # radius**dim raised OverflowError after every draw
        draws = count_calls(monkeypatch, measure_mc, "block_generator")
        argv = ["measure", "--family", "E", "--N", "3", "--delta", "0.3", "--R1", "1e60", "--R2", "1", "--eps0", "0.01"]
        status, out = run_to_file(tmp_path, argv + ["--samples", "10"])
        assert status == 2
        assert not out.exists()
        message = "the sampling box |X| <= 1e+60, |V| <= 1.0 in 6 dimensions each has no finite volume"
        assert capsys.readouterr().err == f"ihse measure: {message}\n"
        assert draws == []

    @pytest.mark.parametrize(
        "args",
        [
            ["--N", "100", "--delta", "0.001", "--R1", "100", "--R2", "1"],  # 100**200 overflows, the box is 3.09e183
            ["--N", "2", "--delta", "0.3", "--R1", "1e160", "--R2", "1e-160"],  # the squared gaps overflow
        ],
    )
    def test_measure_box_with_finite_volume_runs(self, tmp_path, args):
        argv = ["measure", "--family", "E", *args, "--eps0", "0.01", "--samples", "10"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out = run_to_file(tmp_path, argv)
        assert status == 0
        assert json.loads(out.read_text())["estimate"]["n_samples"] == 10

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("measure", "--samples", "0", "--samples must be positive"),  # the other commands' message
            ("measure", "--N", "1", "need at least two particles"),
            ("measure", "--k", "-1", "k must be >= 0"),
            ("volume", "--radius", "0", "radius and tau must be positive"),
            ("volume", "--tau", "0", "radius and tau must be positive"),
            ("volume", "--radius", "nan", "radius and tau must be positive"),
        ],
    )
    def test_measure_and_volume_rejections(self, tmp_path, capsys, command, flag, value, message):
        if command == "measure":
            args = ["--family", "E", "--N", "3", "--delta", "0.3", "--R1", "3", "--R2", "1", "--eps0", "0.01"]
        else:
            chain = tmp_path / "chain.json"
            chain.write_text(dumps({"d": 2, "particles": [{"x": x, "v": v} for x, v in FLAG_CONFIGS["chain"]]}))
            args = ["--config", str(chain), "--radius", "1e-3", "--tau", "1.5", "--eps0", "0.5"]
        status, out = run_to_file(tmp_path, [command, *args, flag, value])
        assert status == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"ihse {command}: {message}\n"

    @pytest.mark.parametrize("via_run_config", [False, True])
    @pytest.mark.parametrize("flag, value", [("--mu", "0.4"), ("--band", "jacobian_cutoff")])
    def test_family_e_rejects_p_flags(self, tmp_path, capsys, flag, value, via_run_config):
        argv = ["measure", "--family", "E", "--N", "3", "--delta", "0.3", "--R1", "3", "--R2", "1", "--eps0", "0.01"]
        argv += ["--samples", "100", "--output", str(tmp_path / "out.json")]
        assert run_with_flag(tmp_path, argv, flag, value, via_run_config) == 2
        assert not (tmp_path / "out.json").exists()
        assert capsys.readouterr().err.startswith(f"ihse measure: {flag} ")

    def test_volume_chain(self, tmp_path):
        chain = tmp_path / "chain.json"
        chain.write_text(
            dumps(
                {
                    "d": 2,
                    "particles": [
                        {"x": [3.0, 0.0], "v": [0.0, 0.0]},
                        {"x": [0.0, 0.0], "v": [3.0, 0.0]},
                        {"x": [6.0, 0.0], "v": [-1.0, 0.0]},
                    ],
                }
            )
        )
        status, out = run_to_file(
            tmp_path, ["volume", "--config", str(chain), "--radius", "1e-3", "--tau", "1.5", "--eps0", "0.5"]
        )
        assert status == 0
        doc = json.loads(out.read_text())
        assert abs(doc["predicted"] - doc["measured"]) <= 1e-4

    def test_volume_runs_one_stack(self, tmp_path, monkeypatch):
        # the centre is row 0 of the stencil's one simulate_stack call, and
        # the prediction reads its records: no report is built
        calls = {name: count_calls(monkeypatch, simulator, name) for name in ("simulate", "simulate_stack", "_report")}
        chain = tmp_path / "chain.json"
        chain.write_text(dumps({"d": 2, "particles": [{"x": x, "v": v} for x, v in FLAG_CONFIGS["chain"]]}))
        status, _ = run_to_file(
            tmp_path, ["volume", "--config", str(chain), "--radius", "1e-3", "--tau", "1.5", "--eps0", "0.5"]
        )
        assert status == 0
        assert {name: len(made) for name, made in calls.items()} == {"simulate": 0, "simulate_stack": 1, "_report": 0}

    def test_volume_rejects_overflowing_radius(self, tmp_path, capsys):
        # a stencil step of 1e299 squares to inf: a usage error before any
        # trajectory runs, with no overflow warning from the engine
        chain = tmp_path / "chain.json"
        chain.write_text(dumps({"d": 2, "particles": [{"x": x, "v": v} for x, v in FLAG_CONFIGS["chain"]]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status, out = run_to_file(
                tmp_path, ["volume", "--config", str(chain), "--radius", "1e300", "--tau", "1.5", "--eps0", "0.5"]
            )
        assert status == 2
        assert not out.exists()
        assert "--radius" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("radius", ["1e100", "1e150"])
    def test_volume_rejects_radius_overflowing_the_contact_quadratic(self, tmp_path, capsys, radius):
        # the stencil squares to a finite value, but the contact quadratic's
        # b*b and a*c, fourth degree in the coordinates, would overflow
        chain = tmp_path / "chain.json"
        chain.write_text(dumps({"d": 2, "particles": [{"x": x, "v": v} for x, v in FLAG_CONFIGS["chain"]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out = run_to_file(
                tmp_path, ["volume", "--config", str(chain), "--radius", radius, "--tau", "1.5", "--eps0", "0.5"]
            )
        assert status == 2
        assert not out.exists()
        assert "--radius" in capsys.readouterr().err


class TestFlagResolution:
    def test_run_config_file_defaults(self, tmp_path, two_body_file):
        run_config = tmp_path / "run.json"
        run_config.write_text(dumps({"tau": 3.0, "eps0": 0.1875}))
        status, out = run_to_file(
            tmp_path, ["flow", "--config", str(two_body_file), "--run-config", str(run_config)]
        )
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["tau"] == 3 and doc["config"]["eps0"] == 0.1875

    def test_explicit_flag_overrides_file(self, tmp_path, two_body_file):
        run_config = tmp_path / "run.json"
        run_config.write_text(dumps({"tau": 1.0, "eps0": 0.1875}))
        status, out = run_to_file(
            tmp_path,
            ["flow", "--config", str(two_body_file), "--run-config", str(run_config), "--tau", "3"],
        )
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["tau"] == 3
        assert doc["classification"]["variant"] == "single_collision"

    def test_missing_required_flag(self, two_body_file):
        assert run(["flow", "--config", str(two_body_file), "--tau", "3"]) == 2

    def test_missing_input_file(self, tmp_path):
        assert run(["flow", "--config", str(tmp_path / "absent.json"), "--tau", "3", "--eps0", "1"]) == 2

    def test_run_config_list_is_usage_error(self, tmp_path, two_body_file, capsys):
        run_config = tmp_path / "run.json"
        run_config.write_text(json.dumps([3.0, 0.1875]))
        assert run(["flow", "--config", str(two_body_file), "--run-config", str(run_config)]) == 2
        assert capsys.readouterr().err == "ihse flow: --run-config must contain a JSON object\n"

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text('{"d": 2, "particles": [')
        status, out = run_to_file(tmp_path, ["flow", "--config", str(config), "--tau", "3", "--eps0", "1"])
        assert status == 2 and not out.exists()
        assert capsys.readouterr().err.startswith(f"ihse flow: malformed JSON in {config}: ")

    @pytest.mark.parametrize(
        "command, flag",
        [("flow", "--config"), ("flow", "--run-config"), ("simulate", "--config")],
        ids=["--config", "--run-config", "simulate"],
    )
    def test_input_file_that_is_not_utf8_is_usage_error(self, tmp_path, two_body_file, capsys, command, flag):
        """JSON text is UTF-8: a UTF-16 byte order mark is a usage error that
        names the file, not a decoding traceback."""
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{}")
        horizon = ["--T", "1", "--eps0", "0.5"] if command == "simulate" else ["--tau", "3", "--eps0", "1"]
        argv = [command, *horizon, "--config", str(bad if flag == "--config" else two_body_file)]
        if flag == "--run-config":
            argv += ["--run-config", str(bad)]
        status, out = run_to_file(tmp_path, argv)
        assert status == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"ihse {command}: malformed JSON in {bad}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    def test_stdout_carries_the_output_file_bytes(self, tmp_path, two_body_file, capsys):
        argv = ["flow", "--config", str(two_body_file), "--tau", "3", "--eps0", "0.1875"]
        status, out = run_to_file(tmp_path, argv)
        assert status == 0 and capsys.readouterr().out == ""
        assert run(argv) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_atomic_write_leaves_no_temp(self, tmp_path, two_body_file):
        status, out = run_to_file(
            tmp_path, ["flow", "--config", str(two_body_file), "--tau", "3", "--eps0", "0.1875"]
        )
        assert status == 0
        leftovers = [p for p in os.listdir(tmp_path) if ".tmp" in p]
        assert leftovers == []

    @pytest.mark.parametrize("target", ["dir", "missing/out.json", "."])
    def test_unwritable_output_is_usage_error(self, tmp_path, two_body_file, monkeypatch, capsys, target):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        before = sorted(os.listdir(tmp_path))
        argv = ["simulate", "--config", str(two_body_file), "--T", "5", "--eps0", "0.1", "--output", target]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ihse simulate: cannot write {target}: ") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == before and os.listdir(tmp_path / "dir") == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--config", "two_body.json", "--T", "5", "--eps0", "0.1", "--events-csv"],
            ["volume", "--config", "two_body.json", "--radius", "1e-3", "--tau", "3", "--eps0", "0.1875", "--csv"],
            ["measure", "--family", "E", "--N", "3", "--delta", "0.3", "--R1", "3", "--R2", "1", "--eps0", "0.01",
             "--samples", "100", "--csv"],
        ],
    )
    def test_unwritable_csv_is_usage_error(self, tmp_path, two_body_file, monkeypatch, capsys, argv):
        monkeypatch.chdir(two_body_file.parent)
        (tmp_path / "dir").mkdir()
        status, out = run_to_file(tmp_path, argv + ["dir"])
        assert status == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"ihse {argv[0]}: cannot write dir: ") and err.count("\n") == 1

    def test_unreadable_config_is_usage_error(self, tmp_path, capsys):
        status, out = run_to_file(tmp_path, ["flow", "--config", str(tmp_path), "--tau", "3", "--eps0", "0.1"])
        assert status == 2 and not out.exists()
        assert capsys.readouterr().err == f"ihse flow: cannot read {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize(
        "command,values,key",
        [
            ("flow", {"tau": "abc"}, "tau"),  # not a float
            ("flow", {"typo": 1}, "typo"),  # not a flag
            ("flow", {"grazing-tol": 5}, "grazing-tol"),  # keys use underscores
            ("measure", {"grazing_tol": 5}, "grazing_tol"),  # a tolerance measure does not read
            ("jacobian", {"samples": 2.5}, "samples"),  # not integral
            ("jacobian", {"seed": True}, "seed"),  # not a number
            ("flow", {"config": 1}, "config"),  # not a string
        ],
    )
    def test_bad_run_config_key_is_usage_error(self, tmp_path, two_body_file, capsys, command, values, key):
        run_config = tmp_path / "run.json"
        run_config.write_text(json.dumps(values))
        argv = [command, "--run-config", str(run_config)]
        if command == "flow":
            argv += ["--config", str(two_body_file), "--tau", "3", "--eps0", "0.1875"]
        assert run(argv) == 2
        assert f"'{key}'" in capsys.readouterr().err

    def test_run_config_values_convert_like_flags(self, tmp_path):
        run_config = tmp_path / "run.json"
        run_config.write_text(json.dumps({"samples": 3.0, "seed": "7", "tau": 1, "n_particles": None}))
        status, out = run_to_file(tmp_path, ["jacobian", "--run-config", str(run_config)])
        assert status == 0
        config = json.loads(out.read_text())["config"]
        assert [config[name] for name in ("samples", "seed", "tau", "n_particles")] == [3, 7, 1.0, 3]

    def test_parser_is_built_once(self, tmp_path):
        build_parser.cache_clear()
        for _ in range(2):
            run(["tensor-lemma", "--samples", "1", "--output", str(tmp_path / "out.json")])
        assert (build_parser.cache_info().misses, build_parser.cache_info().hits) == (1, 1)

    def test_seventeen_digit_floats(self, tmp_path, two_body_file):
        status, out = run_to_file(
            tmp_path, ["flow", "--config", str(two_body_file), "--tau", "3", "--eps0", "0.1875"]
        )
        text = out.read_text()
        assert "9.9999999999999998e-13" in text  # grazing tolerance, full precision
        reparsed = json.loads(text)
        assert reparsed["config"]["grazing_tol"] == 1e-12


class CLICase(NamedTuple):
    """One CLI run, made in process in tmp_path with --output: its argv, the
    JSON text of its --config file if any, its exit status, whether a rerun
    writes the same bytes, the IHSE_THREADS of the run and of the rerun, and
    check(doc, again) on its document, where again(*flags) is the document
    of a run with these flags appended."""

    argv: list
    config: str = None
    status: int = 0
    rerun: bool = False
    threads: tuple = (None, None)
    check: object = None


TWO_BODY = '{"d": 2, "particles": [{"x": [0, 0], "v": [1, 0]}, {"x": [3, 0], "v": [0, 0]}]}'
OVERLAP = '{"d": 2, "particles": [{"x": [0, 0], "v": [1, 0]}, {"x": [0.5, 0], "v": [0, 0]}]}'
CHAIN = '{"d": 2, "particles": [{"x": [3, 0], "v": [0, 0]}, {"x": [0, 0], "v": [3, 0]}, {"x": [6, 0], "v": [-1, 0]}]}'
CHAIN_3D = (
    '{"d": 3, "particles": [{"x": [3, 0.1, -0.05], "v": [0, 0.02, 0.01]}, {"x": [0, 0, 0], "v": [3, 0.05, -0.04]},'
    ' {"x": [6, -0.08, 0.06], "v": [-1, -0.03, 0.02]}]}'
)
# 32 particles at spacing 1.6 on a 6 x 6 lattice without its corners, each
# drifting toward the centre with a spread
LATTICE_SITES = [(a, b) for a in range(6) for b in range(6) if (a in (0, 5)) + (b in (0, 5)) < 2]
LATTICE = {
    "d": 2,
    "particles": [
        {"x": [1.6 * a, 1.6 * b], "v": [0.5 * (2.5 - a) + math.sin(7 * k), 0.5 * (2.5 - b) + math.cos(5 * k)]}
        for k, (a, b) in enumerate(LATTICE_SITES)
    ],
}
VOLUME_CHAIN = ["volume", "--radius", "1e-3", "--tau", "1.5"]
MEASURE_P = ["measure", "--family", "P", "--N", "3", "--delta", "0.3", "--R1", "3", "--R2", "1", "--eps0", "0.01"]
MEASURE_E = ["measure", "--family", "E", "--N", "4", "--delta", "0.3", "--R1", "3", "--R2", "1", "--eps0", "0.01"]
SAMPLED = ["simulate", "--R2", "1", "--T", "1", "--eps0", "0.5"]


def volume_agrees(doc, again):
    return abs(doc["measured"] - doc["predicted"]) <= 1e-4


CLI_CASES = {
    "tensor-lemma": CLICase(["tensor-lemma", "--samples", "10"], rerun=True),
    "flow": CLICase(["flow", "--tau", "3", "--eps0", "0.1875"], TWO_BODY, rerun=True),
    "classify": CLICase(["classify", "--tau", "3", "--eps0", "0.75"], TWO_BODY, rerun=True),
    "simulate-sampled": CLICase(
        ["simulate", "--N", "4", "--R1", "4", "--R2", "1.5", "--T", "10", "--eps0", "0.35", "--seed", "7",
         "--events-csv", "ev.csv"],
        rerun=True,
    ),
    "simulate-lone-particle": CLICase(
        ["simulate", "--T", "3", "--eps0", "0.1875"],
        '{"d": 2, "particles": [{"x": [0, 0], "v": [1, -0.5]}]}',
        check=lambda doc, again: doc["report"]["events"] == [],
    ),
    "simulate-head-on": CLICase(
        ["simulate", "--T", "3", "--eps0", "0.1875"],
        '{"d": 2, "particles": [{"x": [0, 0], "v": [1, 0]}, {"x": [3, 0], "v": [-1, 0]}]}',
        rerun=True,
        check=lambda doc, again: len(doc["report"]["events"]) == 1,
    ),
    # the closest approach, 1.25, falls between any fixed probe times
    "simulate-near-miss": CLICase(
        ["simulate", "--T", "10", "--eps0", "0.5"],
        '{"d": 2, "particles": [{"x": [0, 0], "v": [1, 0]}, {"x": [0.15, 1.25], "v": [0, 0]}]}',
        check=lambda doc, again: abs(doc["report"]["min_separation"] - 1.25) <= 1e-12,
    ),
    "simulate-lattice": CLICase(
        ["simulate", "--T", "5", "--eps0", "0.5"],
        json.dumps(LATTICE),
        rerun=True,
        check=lambda doc, again: doc["initial"] == LATTICE and doc["report"]["events"] != [],
    ),
    # no interior state fits: the pairwise gaps force R1 > sqrt((N - 1) / 2)
    "simulate-ball-too-small-2": CLICase([*SAMPLED, "--N", "2", "--R1", "0.5"], status=2),
    "simulate-ball-too-small-3": CLICase([*SAMPLED, "--N", "3", "--R1", "1.0"], status=2),
    "simulate-ball-fits-2": CLICase([*SAMPLED, "--N", "2", "--R1", "0.75"]),
    # 1 - 1e-3 rounds down to 0.999, whose gap is below -1e-3: not interior
    "simulate-overlap-at-contact-tol": CLICase(
        ["simulate", "--T", "1", "--eps0", "0.5", "--contact-tol", "1e-3"],
        '{"d": 2, "particles": [{"x": [0, 0], "v": [0, 0]}, {"x": [0.999, 0], "v": [0, 0]}]}',
        status=2,
    ),
    "flow-overlap": CLICase(["flow", "--tau", "1", "--eps0", "0.5"], OVERLAP, status=2),
    "volume-max-events": CLICase([*VOLUME_CHAIN, "--eps0", "0.5", "--max-events", "1"], CHAIN, status=3),
    "volume-elastic": CLICase([*VOLUME_CHAIN, "--eps0", "inf"], CHAIN, rerun=True, check=volume_agrees),
    "volume-d3": CLICase([*VOLUME_CHAIN, "--eps0", "0.5"], CHAIN_3D, check=volume_agrees),
    "jacobian-d3": CLICase(["jacobian", "--dim", "3", "--samples", "4"], rerun=True),
    # a case's report does not depend on how many cases the run draws
    "jacobian-prefix": CLICase(
        ["jacobian", "--samples", "3", "--seed", "11", "--n-particles", "4"],
        check=lambda doc, again: doc["reports"] == again("--samples", "8")["reports"][:3],
    ),
    "jacobian-prefix-eps0": CLICase(
        ["jacobian", "--samples", "3", "--seed", "11", "--n-particles", "4", "--eps0", "0.3"],
        check=lambda doc, again: doc["reports"] == again("--samples", "8")["reports"][:3],
    ),
    "scatter-check-d3": CLICase(
        ["scatter-check", "--samples", "20", "--dim", "3"],
        check=lambda doc, again: doc["summary"]["max_abs_det_deviation"] <= 1e-6,
    ),
    "scatter-check-prefix": CLICase(
        ["scatter-check", "--samples", "8", "--seed", "5"],
        rerun=True,
        check=lambda doc, again: again("--samples", "3")["samples"] == doc["samples"][:3],
    ),
    # the documents do not depend on the thread count
    "measure-P-threads": CLICase(
        [*MEASURE_P, "--mu", "0.25", "--samples", "100000", "--seed", "3"], rerun=True, threads=("1", "2")
    ),
    "measure-E-threads": CLICase([*MEASURE_E, "--samples", "100000", "--seed", "3"], rerun=True, threads=("1", "2")),
}


@pytest.mark.parametrize("name", list(CLI_CASES))
def test_cli_case(tmp_path, monkeypatch, name):
    case = CLI_CASES[name]
    monkeypatch.chdir(tmp_path)
    argv = list(case.argv)
    if case.config is not None:
        Path("config.json").write_text(case.config)
        argv += ["--config", "config.json"]

    def written(output, *flags, threads=None):
        if threads is not None:
            monkeypatch.setenv("IHSE_THREADS", threads)
        status = run([*argv, *flags, "--output", output])
        return status, Path(output).read_bytes() if Path(output).exists() else None

    status, first = written("out.json", threads=case.threads[0])
    assert status == case.status
    if status == 2:
        assert first is None
    if case.rerun:
        assert written("rerun.json", threads=case.threads[1]) == (status, first)
    if case.check is not None:
        assert case.check(json.loads(first), lambda *flags: json.loads(written("again.json", *flags)[1]))


def test_every_command_has_a_rerun_case():
    assert {case.argv[0] for case in CLI_CASES.values() if case.status == 0 and case.rerun} == set(COMMANDS)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--T", "1", "--eps0", "0.5"],
        ["flow", "--tau", "1", "--eps0", "0.5"],
        ["volume", "--radius", "1e-3", "--tau", "1", "--eps0", "0.5"],
    ],
)
def test_start_that_is_not_interior_is_usage_error(tmp_path, capsys, argv):
    # flow's boundary_start label is the input error simulate and volume raise
    config = tmp_path / "overlap.json"
    config.write_text(OVERLAP)
    status, out = run_to_file(tmp_path, [*argv, "--config", str(config)])
    assert status == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"ihse {argv[0]}: initial configuration must be interior (all gaps > 1)\n"


# Configurations on which each tolerance flag decides the outcome.
FLAG_CONFIGS = {
    # receding pair 5e-10 outside contact: boundary start at the default
    # contact tolerance, free flight at a tighter one
    "near_contact": [([0.0, 0.0], [-1.0, 0.0]), ([1.0 + 5e-10, 0.0], [1.0, 0.0])],
    # discriminant 0.0199: transversal by default, grazing at --grazing-tol 0.05
    "near_graze": [([0.0, 0.0], [1.0, 0.0]), ([3.0, 0.99], [0.0, 0.0])],
    # pair (1,2) meets at t=1 and pair (3,4) 5e-11 later
    "twin_pairs": [
        ([0.0, 0.0], [1.0, 0.0]),
        ([3.0, 0.0], [-1.0, 0.0]),
        ([0.0, 10.0], [1.0, 0.0]),
        ([3.0 + 1e-10, 10.0], [-1.0, 0.0]),
    ],
    # as twin_pairs with pair (3,4) 5e-6 later
    "staggered_pairs": [
        ([0.0, 0.0], [1.0, 0.0]),
        ([3.0, 0.0], [-1.0, 0.0]),
        ([0.0, 10.0], [1.0, 0.0]),
        ([3.0 + 1e-5, 10.0], [-1.0, 0.0]),
    ],
    # |v_i - v_j|^2 = 4 against 4 eps0 = 3.96: outside the default critical
    # band, inside --crit-tol 0.1
    "near_critical": [([0.0, 0.0], [1.0, 0.0]), ([3.0, 0.0], [-1.0, 0.0])],
    # the C11 chain: two emitting collisions
    "chain": [([3.0, 0.0], [0.0, 0.0]), ([0.0, 0.0], [3.0, 0.0]), ([6.0, 0.0], [-1.0, 0.0])],
}

JACOBIAN_ARGS = ["--samples", "2", "--seed", "7", "--n-particles", "4"]
SCATTER_ARGS = ["--samples", "5", "--seed", "3", "--eps0", "0.75"]

# (command, tolerance flag) -> (configuration, other arguments, flag value).
FLAG_CASES = {
    ("classify", "contact_tol"): ("near_contact", ["--tau", "1", "--eps0", "0.5"], "1e-12"),
    ("classify", "grazing_tol"): ("near_graze", ["--tau", "5", "--eps0", "0.1875"], "0.05"),
    ("classify", "simultaneity_tol"): ("twin_pairs", ["--tau", "1.00000000002", "--eps0", "0.5"], "1e-12"),
    ("classify", "crit_tol"): ("near_critical", ["--tau", "2", "--eps0", "0.99"], "0.1"),
    ("flow", "contact_tol"): ("near_contact", ["--tau", "1", "--eps0", "0.5"], "1e-12"),
    ("flow", "grazing_tol"): ("near_graze", ["--tau", "5", "--eps0", "0.1875"], "0.05"),
    ("flow", "simultaneity_tol"): ("twin_pairs", ["--tau", "1.00000000002", "--eps0", "0.5"], "1e-12"),
    ("flow", "crit_tol"): ("near_critical", ["--tau", "2", "--eps0", "0.99"], "0.1"),
    ("simulate", "contact_tol"): ("near_contact", ["--T", "1", "--eps0", "0.5"], "1e-12"),
    ("simulate", "grazing_tol"): ("near_graze", ["--T", "5", "--eps0", "0.1875"], "0.05"),
    ("simulate", "simultaneity_tol"): ("staggered_pairs", ["--T", "3", "--eps0", "0.5"], "1e-5"),
    ("simulate", "crit_tol"): ("near_critical", ["--T", "2", "--eps0", "0.99"], "0.1"),
    ("simulate", "max_events"): ("chain", ["--T", "1.5", "--eps0", "0.5"], "1"),
    ("volume", "contact_tol"): ("near_contact", ["--radius", "1e-9", "--tau", "1", "--eps0", "0.5"], "1e-12"),
    ("volume", "grazing_tol"): ("near_graze", ["--radius", "1e-6", "--tau", "5", "--eps0", "0.1875"], "0.05"),
    ("volume", "simultaneity_tol"): ("staggered_pairs", ["--radius", "1e-6", "--tau", "3", "--eps0", "0.5"], "1e-5"),
    ("volume", "crit_tol"): ("near_critical", ["--radius", "1e-3", "--tau", "2", "--eps0", "0.99"], "0.1"),
    ("volume", "max_events"): ("chain", ["--radius", "1e-3", "--tau", "1.5", "--eps0", "0.5"], "1"),
    ("jacobian", "contact_tol"): (None, JACOBIAN_ARGS, "1"),
    ("jacobian", "grazing_tol"): (None, JACOBIAN_ARGS, "2"),
    ("jacobian", "simultaneity_tol"): (None, JACOBIAN_ARGS, "100"),
    ("jacobian", "crit_tol"): (None, JACOBIAN_ARGS, "2"),
    ("jacobian", "h"): (None, JACOBIAN_ARGS, "1e-5"),
    ("scatter-check", "grazing_tol"): (None, SCATTER_ARGS, "0.5"),
    ("scatter-check", "crit_tol"): (None, SCATTER_ARGS, "100"),
    ("scatter-check", "h"): (None, SCATTER_ARGS, "1e-5"),
}


def _outcome(tmp_path, argv):
    """(exit status, document without its echoed flags)."""
    out = tmp_path / "out.json"
    out.unlink(missing_ok=True)
    status = run(argv + ["--output", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    if doc is not None:
        del doc["config"]
    return status, doc


def test_readme_flag_table_lists_every_command():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 4:
            rows[cells[0]] = [[] if cell == "none" else cell.split() for cell in cells[1:]]

    def spelled(names):
        return [f"--{name.replace('_', '-')}" for name in names]

    assert rows == {
        command: [
            spelled(flag.name for flag in entry.flags),
            spelled(flag.name for flag in entry.flags if flag.required),
            spelled(entry.tolerances),
        ]
        for command, entry in COMMANDS.items()
    }


class TestToleranceFlags:
    def test_every_accepted_flag_has_a_case(self):
        accepted = {(command, flag) for command, entry in COMMANDS.items() for flag in entry.tolerances}
        assert set(FLAG_CASES) == accepted

    @pytest.mark.parametrize("command,flag", sorted(FLAG_CASES))
    def test_flag_changes_the_result(self, tmp_path, command, flag):
        config, args, value = FLAG_CASES[command, flag]
        argv = [command, *args]
        if config is not None:
            path = tmp_path / f"{config}.json"
            particles = [{"x": x, "v": v} for x, v in FLAG_CONFIGS[config]]
            path.write_text(dumps({"d": 2, "particles": particles}))
            argv += ["--config", str(path)]
        default = _outcome(tmp_path, argv)
        flagged = _outcome(tmp_path, argv + [f"--{flag.replace('_', '-')}", value])
        assert default != flagged

    def test_flow_agrees_with_classify_under_simultaneity_tol(self, tmp_path):
        path = tmp_path / "twin.json"
        path.write_text(dumps({"d": 2, "particles": [{"x": x, "v": v} for x, v in FLAG_CONFIGS["twin_pairs"]]}))
        argv = ["--config", str(path), "--tau", "1.00000000002", "--eps0", "0.5", "--simultaneity-tol", "1e-12"]
        classify_status, classify_doc = _outcome(tmp_path, ["classify", *argv])
        flow_status, flow_doc = _outcome(tmp_path, ["flow", *argv])
        assert classify_status == flow_status == 0
        assert flow_doc["classification"] == classify_doc["classification"]
        assert classify_doc["classification"]["variant"] == "single_collision"
        assert flow_doc["jacobian"]["det"] == pytest.approx(math.sqrt(0.5), abs=1e-12)

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("simulate", "--grazing-tol", "0", "grazing_tol must be positive"),
            ("simulate", "--simultaneity-tol", "-1", "simultaneity_tol must be positive"),
            ("simulate", "--crit-tol", "nan", "crit_tol must be positive"),
            ("simulate", "--contact-tol", "-1", "contact_tol must be >= 0"),
            ("simulate", "--max-events", "0", "max_events must be positive"),
            ("jacobian", "--h", "0", "fd_step must be positive"),
            ("jacobian", "--h", "inf", "fd_step must be finite"),
            ("jacobian", "--grazing-tol", "inf", "grazing_tol must be finite"),
            ("jacobian", "--simultaneity-tol", "inf", "simultaneity_tol must be finite"),
            ("jacobian", "--contact-tol", "inf", "contact_tol must be finite"),
            ("scatter-check", "--h", "inf", "fd_step must be finite"),
            ("scatter-check", "--crit-tol", "inf", "crit_tol must be finite"),
            ("simulate", "--contact-tol", "inf", "contact_tol must be finite"),
            ("simulate", "--grazing-tol", "-1e-9", "grazing_tol must be positive"),
            ("scatter-check", "--crit-tol", "-inf", "crit_tol must be positive"),
        ],
    )
    def test_out_of_range_tolerance_is_usage_error(
        self, tmp_path, capsys, two_body_file, command, flag, value, message
    ):
        args = ["--config", str(two_body_file), "--T", "3", "--eps0", "0.1875"] if command == "simulate" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any arithmetic could warn
            status, out = run_to_file(tmp_path, [command, *args, flag, value])
        assert status == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"ihse {command}: {message}\n"

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("measure", "--grazing-tol"),
            ("tensor-lemma", "--crit-tol"),
            ("scatter-check", "--contact-tol"),
            ("scatter-check", "--simultaneity-tol"),
            ("scatter-check", "--max-events"),
            ("classify", "--max-events"),
            ("flow", "--max-events"),
            ("jacobian", "--max-events"),
            ("classify", "--seed"),
            ("flow", "--seed"),
            ("volume", "--seed"),
            ("classify", "--h"),
            ("measure", "--h"),
        ],
    )
    def test_flags_without_effect_are_rejected(self, command, flag):
        with pytest.raises(SystemExit) as exc:
            run([command, flag, "1e-9"])
        assert exc.value.code == 2


@pytest.mark.parametrize("raw", ["0", "-2"])
def test_thread_cap_below_one_is_usage_error(tmp_path, monkeypatch, capsys, raw):
    # Both checks fail before any worker thread starts.
    monkeypatch.setenv("IHSE_THREADS", raw)
    with pytest.raises(UsageError, match=f"IHSE_THREADS must be at least 1, got '{raw}'"):
        _thread_cap()
    argv = ["measure", "--family", "E", "--N", "3", "--delta", "0.3", "--R1", "3", "--R2", "1", "--eps0", "0.01"]
    status, out = run_to_file(tmp_path, argv + ["--samples", "100", "--seed", "5"])
    assert status == 2 and not out.exists()
    assert f"IHSE_THREADS must be at least 1, got '{raw}'" in capsys.readouterr().err


def test_thread_cap_not_an_integer_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("IHSE_THREADS", "abc")
    argv = ["measure", "--family", "E", "--N", "3", "--delta", "0.3", "--R1", "3", "--R2", "1", "--eps0", "0.01"]
    status, out = run_to_file(tmp_path, argv + ["--samples", "100", "--seed", "5"])
    assert status == 2 and not out.exists()
    assert capsys.readouterr().err == "ihse measure: IHSE_THREADS must be an integer, got 'abc'\n"


SEEDED = {
    "measure": ["--family", "E", "--N", "3", "--delta", "0.3", "--R1", "3", "--R2", "1", "--eps0", "0.01"],
    "jacobian": ["--samples", "2"],
    "simulate": ["--T", "1", "--eps0", "0.5", "--N", "3", "--R1", "4", "--R2", "1"],
    "scatter-check": ["--samples", "2"],
    "tensor-lemma": ["--samples", "2"],
}


@pytest.mark.parametrize("command", sorted(SEEDED))
@pytest.mark.parametrize("seed", [-1, 2**64, -(2**64), 2**65 + 7])
@pytest.mark.parametrize("via_run_config", [False, True])
def test_seed_outside_64_bits_is_usage_error(tmp_path, monkeypatch, capsys, command, seed, via_run_config):
    # A stream key is 64 bits: a seed outside [0, 2**64) would alias another
    # seed's stream (2**64 and -2**64 drew what 0 draws), so it is refused
    # before any draw, on the command line and in a --run-config file alike.
    draws = count_calls(monkeypatch, rng, "block_generator")
    out = tmp_path / "out.json"
    status = run_with_flag(tmp_path, [command, *SEEDED[command], "--output", str(out)], "--seed", str(seed), via_run_config)
    assert status == 2 and not out.exists()
    assert capsys.readouterr().err == f"ihse {command}: --seed must be an integer in [0, 2**64), got {seed}\n"
    assert draws == []


def test_seeds_at_the_ends_of_64_bits_run(tmp_path):
    # 0 and 2**64 - 1 are the ends of the key range, and they draw distinct cases
    reports = []
    for seed in (0, 2**64 - 1):
        status, out = run_to_file(tmp_path, ["jacobian", "--samples", "2", "--seed", str(seed)])
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["seed"] == seed
        reports.append(doc["reports"])
    assert reports[0] != reports[1]


def test_block_generator_refuses_a_key_outside_64_bits():
    for seed in (-1, 2**64):
        with pytest.raises(OverflowError):
            rng.block_generator(seed, 0)
    assert rng.block_generator(2**64 - 1, 0).random() != rng.block_generator(0, 0).random()


# Output bytes and exit status of a fixed invocation of every command, a
# --run-config run, and the CSV files they write, captured before the CLI's
# tables were merged into one.  Re-pinned when the engine's inner products
# moved off BLAS (core.dot).  This digest and RECORDS_SHA256 are still bound
# to the BLAS kernel through LAPACK's determinant (np.linalg.det): the
# finite-difference determinants of jacobian, scatter-check and volume, and
# the fields computed from them, move in the last bits under another
# OpenBLAS kernel.
DOCUMENTS_SHA256 = "f93cd25d3f826364f43e47ef4d06b81f4b527b446ff05ff243b325a8dbc34ac5"

DIGEST_CONFIGS = {
    "two_body.json": [([0.0, 0.0], [1.0, 0.0]), ([3.0, 0.0], [0.0, 0.0])],
    "chain.json": FLAG_CONFIGS["chain"],
}

DIGEST_RUNS = [
    ["classify", "--config", "two_body.json", "--tau", "3", "--eps0", "0.75"],
    ["flow", "--config", "two_body.json", "--tau", "3", "--eps0", "0.1875", "--crit-tol", "1e-9"],
    ["simulate", "--config", "chain.json", "--T", "1.5", "--eps0", "0.5", "--events-csv", "events.csv"],
    ["simulate", "--T", "10", "--eps0", "0.35", "--seed", "7", "--N", "4", "--R1", "4", "--R2", "1.5"],
    ["jacobian", "--dim", "2", "--samples", "4", "--seed", "7", "--n-particles", "3"],
    ["scatter-check", "--samples", "10", "--seed", "3", "--eps0", "0.75", "--dim", "2", "--h", "1e-5"],
    ["tensor-lemma", "--samples", "200", "--seed", "1"],
    [
        "measure", "--family", "P", "--N", "3", "--delta", "0.3", "--mu", "0.5", "--R1", "3", "--R2", "1",
        "--eps0", "0.01", "--samples", "20000", "--seed", "5", "--csv", "sweep.csv",
    ],
    ["volume", "--config", "chain.json", "--radius", "1e-3", "--tau", "1.5", "--eps0", "0.5", "--csv", "volume.csv"],
    ["flow", "--config", "two_body.json", "--run-config", "run.json", "--tau", "3"],
]


def test_documents_digest_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("IHSE_THREADS", "2")
    for name, particles in DIGEST_CONFIGS.items():
        (tmp_path / name).write_text(dumps({"d": 2, "particles": [{"x": x, "v": v} for x, v in particles]}))
    (tmp_path / "run.json").write_text(dumps({"tau": 1.0, "eps0": 0.1875, "grazing_tol": 1e-11}))
    digest = hashlib.sha256()
    for argv in DIGEST_RUNS:
        status = run(argv + ["--output", "out.json"])
        digest.update(f"{' '.join(argv)}:{status};".encode())
        digest.update((tmp_path / "out.json").read_bytes())
    for name in ("events.csv", "sweep.csv", "volume.csv"):
        digest.update((tmp_path / name).read_bytes())
    assert digest.hexdigest() == DOCUMENTS_SHA256


# Documents whose records take the less common branches: a halted run, an
# elastic outcome (sigma and kappa null), an excluded classification, d=3
# Jacobian reports (emitting ones with the closed-form analytic determinant)
# and a run without events.  Re-pinned when the d=3 emitting reports gained
# their analytic determinant, prefactor and residual, and when the engine's
# inner products moved off BLAS.
RECORDS_SHA256 = "74ea5fd065aab5eff5feab356f67520d27313c31537dc256a9abe834390e2ab1"

RECORD_CONFIGS = {
    "two_body.json": DIGEST_CONFIGS["two_body.json"],
    "chain.json": FLAG_CONFIGS["chain"],
    "touching.json": [([0.0, 0.0], [1.0, 0.0]), ([1.0, 0.0], [0.0, 0.0])],
}

RECORD_RUNS = [
    ["simulate", "--config", "chain.json", "--T", "1.5", "--eps0", "0.5", "--max-events", "1"],
    ["flow", "--config", "two_body.json", "--tau", "3", "--eps0", "10"],
    ["classify", "--config", "touching.json", "--tau", "1", "--eps0", "0.5"],
    ["jacobian", "--dim", "3", "--samples", "3"],
    ["simulate", "--config", "two_body.json", "--T", "1", "--eps0", "0.5", "--events-csv", "none.csv"],
]


def test_record_documents_digest_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, particles in RECORD_CONFIGS.items():
        (tmp_path / name).write_text(dumps({"d": 2, "particles": [{"x": x, "v": v} for x, v in particles]}))
    digest = hashlib.sha256()
    statuses = []
    for argv in RECORD_RUNS:
        status = run(argv + ["--output", "out.json"])
        statuses.append(status)
        digest.update(f"{' '.join(argv)}:{status};".encode())
        digest.update((tmp_path / "out.json").read_bytes())
    assert statuses[0] == 3
    assert not (tmp_path / "none.csv").exists()
    assert digest.hexdigest() == RECORDS_SHA256


# OpenBLAS picks its kernel by CPU when it loads; OPENBLAS_CORETYPE forces
# one.  Under SkylakeX (AVX-512), Haswell and Prescott a dot product through
# BLAS rounds three ways; the engine takes none, so its documents agree.
KERNELS = (None, "Haswell", "Prescott")
KERNEL_RUNS = [
    ["simulate", "--N", "4", "--R1", "4", "--R2", "1.5", "--T", "10", "--eps0", "0.35", "--seed", "7"],
    ["classify", "--config", "three.json", "--tau", "3", "--eps0", "0.3"],
]


def test_documents_do_not_depend_on_the_blas_kernel(tmp_path):
    three = [([0.1234, -0.3], [1.1, 0.05]), ([2.71828, 0.577], [-0.7, 0.33]), ([-1.9, 2.2], [0.4, -0.9])]
    (tmp_path / "three.json").write_text(dumps({"d": 2, "particles": [{"x": x, "v": v} for x, v in three]}))
    source = str(Path(__file__).resolve().parents[1] / "src")
    documents = {}
    for kernel in KERNELS:
        env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        for argv in KERNEL_RUNS:
            command = [sys.executable, "-m", "ihse.cli", *argv, "--output", "out.json"]
            subprocess.run(command, cwd=tmp_path, env=env, check=True)
            documents.setdefault(argv[0], set()).add((tmp_path / "out.json").read_bytes())
    assert {name: len(texts) for name, texts in documents.items()} == {"simulate": 1, "classify": 1}
