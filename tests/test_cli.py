"""Command-line workflows: exit codes, files, reproducibility."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import loopcert
from loopcert import attack, certify, cli, linsys, neural, policysynth
from loopcert.cli import EXIT_ERROR, EXIT_NEGATIVE, EXIT_OK, main

from conftest import linear_policy, random_relu_net, random_stable_plant, scalar_plant


@pytest.fixture()
def scalar_files(tmp_path):
    plant_path = tmp_path / "plant.json"
    policy_path = tmp_path / "policy.json"
    linsys.save_plant(plant_path, scalar_plant())
    neural.save_policy(policy_path, linear_policy(-0.2))
    return str(plant_path), str(policy_path)


class TestCertify:
    def test_scalar_fixture_success(self, scalar_files, tmp_path):
        plant_path, policy_path = scalar_files
        out = tmp_path / "cert.json"
        code = main(["certify", "--plant", plant_path, "--policy", policy_path,
                     "--out", str(out)])
        assert code == EXIT_OK
        result = json.loads(out.read_text())
        assert result["success"] is True
        assert result["y_bar"][0] == pytest.approx(0.1 / 0.7, rel=1e-5)

    def test_zero_limit_with_positive_attack(self, scalar_files, tmp_path):
        plant_path, policy_path = scalar_files
        out = tmp_path / "cert.json"
        code = main(["certify", "--plant", plant_path, "--policy", policy_path,
                     "--x-lim", "0", "--out", str(out)])
        assert code == EXIT_NEGATIVE
        assert json.loads(out.read_text())["failure_reason"] == "ConstraintViolated"

    def test_overflowing_bounds_exit_negative(self, tmp_path):
        # a policy gain of 1e30 overflows the implied bound within a few passes
        plant_path, policy_path = tmp_path / "plant.json", tmp_path / "policy.json"
        linsys.save_plant(plant_path, linsys.make_plant([[0.5]], [[1.0]], b_w=[[1.0]],
                                                        w_inf=0.1))
        neural.save_policy(policy_path, neural.mlp([([[1e30]], [0.0]), ([[1.0]], [0.0])]))
        out = tmp_path / "cert.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["certify", "--plant", str(plant_path), "--policy", str(policy_path),
                         "--out", str(out)])
        assert caught == []
        assert code == EXIT_NEGATIVE
        result = json.loads(out.read_text())
        assert result["success"] is False
        assert result["failure_reason"] == certify.NON_FINITE_BOUNDS == "NonFiniteBounds"

    def test_slow_search_certifies(self, tmp_path):
        # the seed-77 loop of the random corpus certifies at pass 155
        rng = np.random.default_rng(77)
        plant = random_stable_plant(rng, with_uncertainty=True)
        net = random_relu_net(rng, d_in=plant.r, d_out=plant.m)
        gamma_delta = 0.1 * np.abs(rng.normal(size=(plant.q, plant.s)))
        plant_path, policy_path = tmp_path / "plant.json", tmp_path / "policy.json"
        linsys.save_plant(plant_path, plant, gamma_delta)
        neural.save_policy(policy_path, net)
        out = tmp_path / "cert.json"
        code = main(["certify", "--plant", str(plant_path), "--policy", str(policy_path),
                     "--w-inf", "0.01", "--out", str(out)])
        assert code == EXIT_OK
        result = json.loads(out.read_text())
        assert result["success"] is True and result["failure_reason"] is None
        assert result["iterations"] == 155

    def test_malformed_plant_file(self, tmp_path, scalar_files):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code = main(["certify", "--plant", str(bad), "--policy", scalar_files[1]])
        assert code == EXIT_ERROR

    def test_missing_file(self, scalar_files):
        code = main(["certify", "--plant", "/nonexistent.json",
                     "--policy", scalar_files[1]])
        assert code == EXIT_ERROR

    @pytest.mark.parametrize("flag, key, value", [
        ("--plant", "w_inf", None), ("--plant", "A", [[0.5]]),
        ("--policy", "quantization", 0.1), ("--kd", "Kd", 5),
    ])
    def test_wrong_json_shapes_exit_cleanly(self, scalar_files, tmp_path, capsys,
                                            flag, key, value):
        # JSON that parses but holds a value of the wrong type under ``key``
        files = dict(zip(("--plant", "--policy"), scalar_files))
        files["--kd"] = str(tmp_path / "gain.json")
        (tmp_path / "gain.json").write_text(json.dumps({"Kd": linsys.matrix_to_dict([[-0.2]])}))
        with open(files[flag]) as fh:
            obj = json.load(fh)
        obj[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        files[flag] = str(bad)
        out = tmp_path / "cert.json"
        code = main(["certify", *(v for pair in files.items() for v in pair), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert "cannot parse" in err and "Traceback" not in err
        assert not out.exists()

    def test_gain_file_without_a_gain_exits_cleanly(self, scalar_files, tmp_path, capsys):
        plant_path, policy_path = scalar_files
        gain_path = tmp_path / "gain.json"
        gain_path.write_text(json.dumps({"P": linsys.matrix_to_dict(np.eye(1))}))
        out = tmp_path / "cert.json"
        code = main(["certify", "--plant", plant_path, "--policy", policy_path,
                     "--kd", str(gain_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err == f"cannot parse gain file {gain_path}: it has neither 'Kd' nor 'K'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, extra", [
        ("certify", []), ("baseline", []), ("frontier", ["--x-lim-list", "0.01"]),
        ("attack", ["--target", "2", "--horizon", "50"]),
    ])
    def test_default_gain_of_the_wrong_shape_exits_cleanly(self, tmp_path, capsys, lqr_gain,
                                                           command, extra):
        # the policy's own Jacobian closes the cart-pole loop, so no command
        # would ever close it on the 1x3 gain
        policy_path, gain_path = tmp_path / "policy.json", tmp_path / "gain.json"
        neural.save_policy(policy_path, neural.mlp([(-lqr_gain, np.zeros(1))]))
        gain_path.write_text(json.dumps({"Kd": linsys.matrix_to_dict(-lqr_gain[:, :3])}))
        out = tmp_path / "out"
        code = main([command, "--plant", "cartpole", "--policy", str(policy_path),
                     "--kd", str(gain_path), *extra, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert "k_d has shape (1, 3), expected (1, 4)" in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_layer_size_exits_cleanly(self, scalar_files, tmp_path, capsys):
        # reshape would infer rows = -1 from the weights and load the policy
        plant_path, policy_path = scalar_files
        with open(policy_path) as fh:
            obj = json.load(fh)
        obj["layers"][0]["rows"] = -1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        out = tmp_path / "cert.json"
        code = main(["certify", "--plant", plant_path, "--policy", str(bad), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert "layer 0: rows and cols must be >= 1, got -1 x 1" in err
        assert not out.exists()


class TestBaseline:
    def test_scalar_certified(self, scalar_files, tmp_path):
        plant_path, policy_path = scalar_files
        out = tmp_path / "base.json"
        code = main(["baseline", "--plant", plant_path, "--policy", policy_path,
                     "--out", str(out)])
        assert code == EXIT_OK
        result = json.loads(out.read_text())
        # a linear policy around its own gain has no residual: gain and offset are 0
        assert list(result) == ["beta1", "beta2", "certified", "y_inf_implied", "gamma_pi",
                                "offset", "x_bar"]
        assert (result["gamma_pi"], result["offset"]) == (0.0, 0.0)

    def test_impossible_limit(self, tmp_path, scalar_files):
        plant_path, policy_path = scalar_files
        code = main(["baseline", "--plant", plant_path, "--policy", policy_path,
                     "--x-lim", "1e-6", "--out", str(tmp_path / "b.json")])
        assert code == EXIT_NEGATIVE

    def test_non_finite_numbers_are_written_as_null(self, tmp_path):
        # no gain stabilizes x+ = 1.5 x + u under a zero policy, so beta1,
        # beta2 and the implied bound are infinite and no gain is taken
        plant_path, policy_path = tmp_path / "plant.json", tmp_path / "policy.json"
        linsys.save_plant(plant_path, scalar_plant(a=1.5))
        neural.save_policy(policy_path, linear_policy(0.0))
        out = tmp_path / "base.json"
        code = main(["baseline", "--plant", str(plant_path), "--policy", str(policy_path),
                     "--out", str(out)])
        assert code == EXIT_NEGATIVE

        def refuse(constant):
            raise AssertionError(f"{constant} is not JSON")

        result = json.loads(out.read_text(), parse_constant=refuse)
        assert result["certified"] is False
        assert all(result[key] is None
                   for key in ("beta1", "beta2", "y_inf_implied", "gamma_pi", "offset"))

    def test_u_lim_is_checked_against_the_full_policy_output(self, tmp_path):
        # the residual of -0.2 y is 0, but |u| = 0.2 |y| passes u_lim = 1e-3
        plant_path, policy_path = tmp_path / "plant.json", tmp_path / "policy.json"
        linsys.save_plant(plant_path, scalar_plant(u_lim=[1e-3]))
        neural.save_policy(policy_path, linear_policy(-0.2))
        for command in ("baseline", "certify"):
            code = main([command, "--plant", str(plant_path), "--policy", str(policy_path),
                         "--out", str(tmp_path / f"{command}.json")])
            assert code == EXIT_NEGATIVE, command


class TestFrontier:
    def test_scalar_line(self, scalar_files, tmp_path):
        plant_path, policy_path = scalar_files
        out = tmp_path / "front.csv"
        code = main(["frontier", "--plant", plant_path, "--policy", policy_path,
                     "--x-lim-list", "0.5,1.0", "--target-state", "0",
                     "--tol", "1e-4", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "x_lim,w_certified,w_baseline,w_attack"
        for line, x_lim in zip(lines[2:], (0.5, 1.0)):
            cells = line.split(",")
            assert float(cells[0]) == x_lim
            assert float(cells[1]) == pytest.approx(0.7 * x_lim, rel=1e-3)
            assert cells[2] == "" and cells[3] == ""

    def test_columns_equal_per_limit_library_calls(self, scalar_files, tmp_path):
        plant_path, policy_path = scalar_files
        out = tmp_path / "front.csv"
        code = main(["frontier", "--plant", plant_path, "--policy", policy_path,
                     "--x-lim-list", "0.5,1.0", "--target-state", "0", "--tol", "1e-3",
                     "--with-baseline", "--with-attack", "--horizon", "200",
                     "--out", str(out)])
        assert code == EXIT_OK
        plant, net = scalar_plant(), linear_policy(-0.2)
        lines = ["# angle unit: radians", "x_lim,w_certified,w_baseline,w_attack"]
        for x_lim in (0.5, 1.0):
            sweep = dict(x_lim_values=[x_lim], tol=1e-3, target_state=0)
            limited = certify.with_state_limit(plant, 0, x_lim)
            _, maps = certify.extract_loop(limited, net, None, None)
            levels = (x_lim, certify.frontier(plant, net, **sweep)[0][1],
                      certify.baseline_frontier(plant, net, **sweep)[0][1],
                      attack.violation_level(limited, net, maps, 0, 200, x_lim))
            lines.append(",".join(f"{v:.17g}" for v in levels))
        assert out.read_text() == "\n".join(lines) + "\n"

    def test_horizon_is_checked_before_any_sweep(self, scalar_files, tmp_path, capsys,
                                                 monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(certify, "frontier", no_sweep)
        monkeypatch.setattr(certify, "baseline_frontier", no_sweep)
        plant_path, policy_path = scalar_files
        out = tmp_path / "front.csv"
        code = main(["frontier", "--plant", plant_path, "--policy", policy_path,
                     "--x-lim-list", "0.5", "--target-state", "0", "--with-baseline",
                     "--with-attack", "--horizon", "0", "--out", str(out)])
        assert code == EXIT_ERROR and not out.exists()
        assert "--horizon must be at least 1, got 0" in capsys.readouterr().err

    def test_seed_is_accepted_and_ignored(self, scalar_files, tmp_path):
        plant_path, policy_path = scalar_files
        texts = []
        for seed in ([], ["--seed", "11"]):
            out = tmp_path / "front.csv"
            code = main(["frontier", "--plant", plant_path, "--policy", policy_path,
                         "--x-lim-list", "0.5", "--target-state", "0", "--tol", "1e-2",
                         "--with-baseline", *seed, "--out", str(out)])
            assert code == EXIT_OK
            texts.append(out.read_text())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("limit", ["inf", "1e400"])
    def test_infinite_limit_is_written_as_inf(self, scalar_files, tmp_path, limit):
        # the row names its limit; the levels keep writing non-finite values
        # as empty cells
        plant_path, policy_path = scalar_files
        out = tmp_path / "front.csv"
        code = main(["frontier", "--plant", plant_path, "--policy", policy_path,
                     "--x-lim-list", f"0.5,{limit}", "--target-state", "0", "--tol", "1e-3",
                     "--with-attack", "--horizon", "200", "--out", str(out)])
        assert code == EXIT_OK
        cells = out.read_text().strip().splitlines()[-1].split(",")
        assert cells[0] == "inf" and float(cells[1]) > 0 and cells[2:] == ["", ""]

    @pytest.mark.parametrize("tol", ["0", "1", "2", "inf", "nan"])
    def test_tol_outside_the_unit_interval_is_rejected(self, scalar_files, tmp_path, capsys,
                                                      tol):
        # a relative tolerance of 1 or more held on the first bracket and
        # wrote level 0 with exit 0
        plant_path, policy_path = scalar_files
        out = tmp_path / "front.csv"
        code = main(["frontier", "--plant", plant_path, "--policy", policy_path,
                     "--x-lim-list", "0.5", "--tol", tol, "--out", str(out)])
        assert code == EXIT_ERROR
        assert "tol must be in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_optional_columns(self, scalar_files, tmp_path):
        plant_path, policy_path = scalar_files
        out = tmp_path / "front.csv"
        code = main(["frontier", "--plant", plant_path, "--policy", policy_path,
                     "--x-lim-list", "0.5", "--target-state", "0", "--tol", "1e-3",
                     "--with-baseline", "--with-attack", "--horizon", "200",
                     "--out", str(out)])
        assert code == EXIT_OK
        cells = out.read_text().strip().splitlines()[-1].split(",")
        assert float(cells[2]) > 0  # baseline column filled
        assert float(cells[3]) == pytest.approx(0.35, rel=0.02)  # attack threshold

    def test_tol_reaches_the_attack_column(self, scalar_files, tmp_path):
        # w_attack is bisected to --tol, as w_certified is, not to
        # violation_level's own default of 1e-3
        plant_path, policy_path = scalar_files
        out = tmp_path / "front.csv"
        code = main(["frontier", "--plant", plant_path, "--policy", policy_path,
                     "--x-lim-list", "0.5", "--target-state", "0", "--tol", "1e-2",
                     "--with-attack", "--horizon", "200", "--out", str(out)])
        assert code == EXIT_OK
        plant, net = scalar_plant(), linear_policy(-0.2)
        limited = certify.with_state_limit(plant, 0, 0.5)
        _, maps = certify.extract_loop(limited, net, None, None)
        coarse = attack.violation_level(limited, net, maps, 0, 200, 0.5, tol=1e-2)
        assert coarse != attack.violation_level(limited, net, maps, 0, 200, 0.5)
        assert out.read_text().splitlines()[-1].split(",")[3] == f"{coarse:.17g}"

    def test_bad_limit_list_exits_cleanly(self, scalar_files, tmp_path, capsys):
        plant_path, policy_path = scalar_files
        out = tmp_path / "front.csv"
        code = main(["frontier", "--plant", plant_path, "--policy", policy_path,
                     "--x-lim-list", "0.5,wide", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("bad --x-lim-list: ") and "Traceback" not in err
        assert not out.exists()

    def test_no_stabilizing_gain_in_every_column(self, tmp_path):
        # a = 1.2 under a zero policy and no --kd: no candidate gain closes
        # the loop, so no level certifies and there is no loop to attack
        plant = linsys.make_plant([[1.2]], [[1.0]], b_w=[[1.0]])
        net = linear_policy(0.0)
        plant_path, policy_path = tmp_path / "plant.json", tmp_path / "policy.json"
        linsys.save_plant(plant_path, plant)
        neural.save_policy(policy_path, net)
        out = tmp_path / "front.csv"
        code = main(["frontier", "--plant", str(plant_path), "--policy", str(policy_path),
                     "--x-lim-list", "0.5,1.0", "--target-state", "0", "--tol", "1e-3",
                     "--with-baseline", "--with-attack", "--horizon", "200",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().splitlines()[2:] == ["0.5,0,0,", "1,0,0,"]
        # the failing baseline still bisects, so it still rejects a bad tol
        with pytest.raises(ValueError, match=r"tol must be in \(0, 1\)"):
            certify.baseline_frontier(plant, net, x_lim_values=[0.5], tol=2)

    def test_attack_without_target_state_breaks_any_state(self, tmp_path):
        # w drives state 1 ten times harder than state 0, so with the limit on
        # both states state 1 breaks first, at a tenth of state 0's level
        plant = linsys.make_plant(0.5 * np.eye(2), np.eye(2), b_w=[[0.1], [1.0]], w_inf=0.1)
        net = neural.mlp([(-0.2 * np.eye(2), np.zeros(2))])
        plant_path, policy_path = tmp_path / "plant.json", tmp_path / "policy.json"
        linsys.save_plant(plant_path, plant)
        neural.save_policy(policy_path, net)
        out = tmp_path / "front.csv"
        code = main(["frontier", "--plant", str(plant_path), "--policy", str(policy_path),
                     "--x-lim-list", "0.5", "--tol", "1e-3", "--with-attack",
                     "--horizon", "200", "--out", str(out)])
        assert code == EXIT_OK
        limited = certify.with_state_limit(plant, None, 0.5)
        _, maps = certify.extract_loop(limited, net, None, None)
        levels = [attack.violation_level(limited, net, maps, i, 200, 0.5) for i in range(2)]
        assert levels[1] < levels[0] / 5
        assert out.read_text().splitlines()[-1].split(",")[3] == f"{levels[1]:.17g}"


@pytest.fixture()
def closures(monkeypatch):
    """The memo key of every loop closure, from a cold maps cache; a stack
    of loops closed at once gives a key per loop."""
    calls = []
    real = linsys.close_loops

    def spy(plant, gains):
        calls.extend(certify._loop_keys(plant, list(np.asarray(gains, dtype=float))))
        return real(plant, gains)

    monkeypatch.setattr(linsys, "close_loops", spy)
    monkeypatch.setattr(certify, "close_loops", spy)
    monkeypatch.setattr(certify, "_closures", {})
    return calls


class TestNoStabilizingGain:
    def test_attack_is_a_negative_answer(self, tmp_path, capsys):
        # x+ = 1.2 x + u under a zero policy and no --kd: no loop to attack
        plant_path, policy_path = tmp_path / "plant.json", tmp_path / "policy.json"
        linsys.save_plant(plant_path, linsys.make_plant([[1.2]], [[1.0]], b_w=[[1.0]]))
        neural.save_policy(policy_path, linear_policy(0.0))
        out = tmp_path / "plan.json"
        code = main(["attack", "--plant", str(plant_path), "--policy", str(policy_path),
                     "--target", "0", "--horizon", "40", "--out", str(out)])
        assert code == EXIT_NEGATIVE
        assert capsys.readouterr().err == "no stabilizing gain; cannot build closed-loop maps\n"
        assert not out.exists()


class TestLoopClosures:
    def test_frontier_with_attack_closes_each_loop_once(self, scalar_files, tmp_path,
                                                        closures):
        plant_path, policy_path = scalar_files
        args = ["frontier", "--plant", plant_path, "--policy", policy_path,
                "--x-lim-list", "0.5,1.0", "--target-state", "0", "--tol", "1e-3",
                "--with-attack", "--horizon", "200", "--out", str(tmp_path / "f.csv")]
        assert main(args) == EXIT_OK
        assert closures and len(set(closures)) == len(closures)

    def test_attack_closes_one_loop(self, scalar_files, tmp_path, closures):
        plant_path, policy_path = scalar_files
        args = ["attack", "--plant", plant_path, "--policy", policy_path, "--target", "0",
                "--horizon", "40", "--out", str(tmp_path / "plan.json")]
        assert main(args) == EXIT_OK
        assert len(closures) == 1


class TestAttackSimulateRoundTrip:
    def test_plan_file_round_trip(self, scalar_files, tmp_path):
        plant_path, policy_path = scalar_files
        plan_path = tmp_path / "plan.json"
        code = main(["attack", "--plant", plant_path, "--policy", policy_path,
                     "--target", "0", "--horizon", "40", "--w-inf", "0.1",
                     "--out", str(plan_path)])
        assert code == EXIT_OK
        plan = attack.load_plan(plan_path)
        assert plan.horizon == 40 and plan.w_inf == 0.1

        trace_path = tmp_path / "trace.csv"
        code = main(["simulate", "--plant", plant_path, "--policy", policy_path,
                     "--plan", str(plan_path), "--steps", "41",
                     "--out", str(trace_path)])
        assert code == EXIT_OK
        lines = trace_path.read_text().strip().splitlines()
        assert len(lines) == 43  # note + header + 41 steps

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_attack_horizon_below_one_is_a_usage_error(self, scalar_files, tmp_path, capsys,
                                                       horizon):
        # a plan of no steps would be written, and simulate would refuse it
        plant_path, policy_path = scalar_files
        out = tmp_path / "plan.json"
        code = main(["attack", "--plant", plant_path, "--policy", policy_path,
                     "--target", "0", f"--horizon={horizon}", "--out", str(out)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"--horizon must be at least 1, got {horizon}\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", [[], ["--random", "--w-inf", "0.1"]])
    def test_negative_steps_is_a_usage_error(self, scalar_files, tmp_path, capsys, source):
        plant_path, policy_path = scalar_files
        out = tmp_path / "trace.csv"
        code = main(["simulate", "--plant", plant_path, "--policy", policy_path, *source,
                     "--steps", "-1", "--out", str(out)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "--steps must be at least 0, got -1\n"
        assert not out.exists()

    def test_random_simulation_seeded(self, scalar_files, tmp_path):
        plant_path, policy_path = scalar_files
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code = main(["simulate", "--plant", plant_path, "--policy", policy_path,
                         "--random", "--w-inf", "0.1", "--steps", "100",
                         "--seed", "11", "--out", str(path)])
            assert code == EXIT_OK
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_initial_state(self, scalar_files, tmp_path):
        plant_path, policy_path = scalar_files
        out = tmp_path / "trace.csv"
        code = main(["simulate", "--plant", plant_path, "--policy", policy_path,
                     "--x0", "0.5", "--steps", "3", "--out", str(out)])
        assert code == EXIT_OK
        # t, w_1, x_1, y_1, u_1; x+ = 0.5 x - 0.2 x from x0 = 0.5
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert [float(row[2]) for row in rows] == [0.5, 0.5 * 0.3, 0.5 * 0.3 * 0.3]

    def test_bad_initial_state_exits_cleanly(self, scalar_files, tmp_path, capsys):
        plant_path, policy_path = scalar_files
        out = tmp_path / "trace.csv"
        code = main(["simulate", "--plant", plant_path, "--policy", policy_path,
                     "--x0", "0.5,up", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("bad --x0: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("plant_arg, x0", [
        (None, "nan"), (None, "inf"), (None, "-inf"), (None, "0.5,1"),
        ("cartpole", "1,2"), ("cartpole-nonlinear", "0,0,nan,0"), ("cartpole-nonlinear", "0"),
    ])
    def test_initial_state_must_be_one_finite_entry_per_state(self, scalar_files, tmp_path,
                                                              capsys, kd, plant_arg, x0):
        # a usage error before the loop runs, not a divergence (exit 2) or
        # numpy's broadcast error
        plant_path, policy_path = scalar_files
        if plant_arg is not None:
            plant_path, policy_path = plant_arg, str(tmp_path / "lqr_policy.json")
            neural.save_policy(policy_path, neural.mlp([(kd, np.zeros(1))]))
        out = tmp_path / "trace.csv"
        code = main(["simulate", "--plant", plant_path, "--policy", policy_path,
                     f"--x0={x0}", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("bad --x0: ") and "Traceback" not in err
        assert not out.exists()

    def test_policy_of_other_output_width_exits_cleanly(self, tmp_path, capsys, kd):
        # a plant with two inputs under a one-output policy: a usage error
        # that names both maps, not numpy's matmul error from the first step
        plant_path, policy_path = tmp_path / "plant.json", tmp_path / "policy.json"
        linsys.save_plant(plant_path, linsys.make_plant(0.5 * np.eye(4), np.ones((4, 2))))
        neural.save_policy(policy_path, neural.mlp([(kd, np.zeros(1))]))
        out = tmp_path / "trace.csv"
        code = main(["simulate", "--plant", str(plant_path), "--policy", str(policy_path),
                     "--steps", "10", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err == "error: policy maps 4->1, plant needs 4->2\n"
        assert not out.exists()

    def test_plan_of_other_channel_count_exits_cleanly(self, tmp_path, capsys, kd):
        # a plan designed on a plant with two perturbation channels, run on
        # the cart-pole's one: a usage error that names both shapes, not
        # numpy's matmul error from the first step
        plant_path, policy_path = tmp_path / "plant.json", tmp_path / "policy.json"
        linsys.save_plant(plant_path, linsys.make_plant(0.5 * np.eye(4), np.ones((4, 1)),
                                                        b_w=np.ones((4, 2))))
        neural.save_policy(policy_path, neural.mlp([(kd, np.zeros(1))]))
        plan_path = tmp_path / "plan.json"
        assert main(["attack", "--plant", str(plant_path), "--policy", str(policy_path),
                     "--target", "2", "--horizon", "40", "--w-inf", "0.005",
                     "--out", str(plan_path)]) == EXIT_OK
        out = tmp_path / "trace.csv"
        code = main(["simulate", "--plant", "cartpole", "--policy", str(policy_path),
                     "--plan", str(plan_path), "--steps", "50", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err == "error: w has shape (50, 2), expected (50, 1)\n"
        assert not out.exists()

    def test_diverging_run_writes_the_partial_trace(self, tmp_path, capsys):
        # x+ = 1e100 x under a zero policy overflows on the fourth step
        plant_path, policy_path = tmp_path / "plant.json", tmp_path / "policy.json"
        linsys.save_plant(plant_path, scalar_plant(a=1e100))
        neural.save_policy(policy_path, linear_policy(0.0))
        out = tmp_path / "trace.csv"
        code = main(["simulate", "--plant", str(plant_path), "--policy", str(policy_path),
                     "--x0", "1", "--steps", "50", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_NEGATIVE
        step = int(err.removeprefix("simulation diverged at step "))
        lines = out.read_text().splitlines()
        assert lines[0] == "# diverged; partial trace, radians"
        assert lines[1] == "t,w_1,x_1,y_1,u_1"
        assert len(lines) == 2 + step + 1 < 2 + 50

    def test_nonlinear_cartpole(self, tmp_path, kd):
        # the built-in nonlinear plant under the LQR law, from a tilted pole
        policy_path = tmp_path / "policy.json"
        neural.save_policy(policy_path, neural.mlp([(kd, np.zeros(1))]))
        out = tmp_path / "trace.csv"
        code = main(["simulate", "--plant", "cartpole-nonlinear", "--policy", str(policy_path),
                     "--x0", "0,0,0.05,0", "--steps", "400", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[:2] == ["# units: radians", "t,w_1,x_1,x_2,x_3,x_4,y_1,y_2,y_3,y_4,u_1"]
        assert len(lines) == 2 + 400
        # the pole comes back up
        assert abs(float(lines[-1].split(",")[4])) < 1e-3

    @pytest.mark.parametrize("value", ["inf", "nan", "1e308", "-1"])
    def test_random_amplitude_that_cannot_be_drawn_exits_cleanly(self, scalar_files, tmp_path,
                                                                capsys, value):
        plant_path, policy_path = scalar_files
        out = tmp_path / "trace.csv"
        code = main(["simulate", "--plant", plant_path, "--policy", policy_path, "--random",
                     "--w-inf", value, "--steps", "10", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("--w-inf must be finite") and "Traceback" not in err
        assert not out.exists()


class TestLearn:
    def test_seeded_learned_model_reproducible(self, tmp_path):
        outs = []
        for name in ("m1.json", "m2.json"):
            path = tmp_path / name
            code = main(["learn", "--episodes", "10", "--ep-len", "12",
                         "--seed", "5", "--out", str(path)])
            assert code == EXIT_OK
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        plant, gamma = linsys.load_plant(tmp_path / "m1.json")
        assert gamma is not None and gamma.shape == (4, 5)
        assert plant.q == 4

    def test_episode_csv_export(self, tmp_path):
        episodes_path = tmp_path / "episodes.csv"
        code = main(["learn", "--episodes", "4", "--ep-len", "6", "--seed", "3",
                     "--episodes-out", str(episodes_path),
                     "--out", str(tmp_path / "model.json")])
        assert code == EXIT_OK
        from loopcert import sysid

        episodes = sysid.load_episodes(episodes_path)
        assert len(episodes) == 4
        assert episodes[0].inputs.shape == (6, 1)

    @pytest.mark.parametrize("params", ['{"gravity": 1}', "[1]", "null", '{"g": "x"}'])
    def test_bad_params_exit_cleanly(self, tmp_path, capsys, params):
        out = tmp_path / "model.json"
        code = main(["learn", "--episodes", "4", "--params", params, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("bad --params: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("ep_len", ["0", "-3"])
    def test_empty_episodes_are_a_usage_error(self, tmp_path, capsys, ep_len):
        out = tmp_path / "model.json"
        code = main(["learn", "--episodes", "4", "--ep-len", ep_len, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert "need at least one step per episode" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "1e308", "-1"])
    def test_amplitude_that_cannot_be_drawn_exits_cleanly(self, tmp_path, capsys, value):
        out = tmp_path / "model.json"
        code = main(["learn", "--episodes", "4", "--amplitude", value, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("--amplitude must be finite") and "Traceback" not in err
        assert not out.exists()

    def test_diverging_episode_is_a_negative_answer(self, tmp_path, capsys):
        out, episodes = tmp_path / "model.json", tmp_path / "episodes.csv"
        code = main(["learn", "--episodes", "5", "--amplitude", "1e6", "--out", str(out),
                     "--episodes-out", str(episodes)])
        err = capsys.readouterr().err
        assert code == EXIT_NEGATIVE
        assert err.startswith("identification failed: episode ")
        assert "diverged at step " in err and "Traceback" not in err
        assert not out.exists() and not episodes.exists()


class TestTrainPolicyAndLqr:
    def test_lqr_exports_gains(self, tmp_path):
        out = tmp_path / "lqr.json"
        code = main(["lqr", "--plant", "cartpole", "--out", str(out)])
        assert code == EXIT_OK
        obj = json.loads(out.read_text())
        assert obj["closed_loop_spectral_radius"] < 1.0
        k = linsys.matrix_from_dict(obj["K"])
        kd = linsys.matrix_from_dict(obj["Kd"])
        np.testing.assert_array_equal(kd, -k)

    def test_lqr_weights_every_input(self, tmp_path):
        # R = --r * I on a two-input plant: the gain satisfies the Riccati
        # fixed point for that R, not for r * ones((2, 2))
        a, b = np.array([[1.0, 0.1], [0.0, 1.0]]), np.array([[0.5, 0.0], [0.1, 1.0]])
        linsys.save_plant(tmp_path / "plant.json", linsys.make_plant(a, b))
        out = tmp_path / "lqr.json"
        assert main(["lqr", "--plant", str(tmp_path / "plant.json"), "--r", "2",
                     "--out", str(out)]) == EXIT_OK
        obj = json.loads(out.read_text())
        p, k = linsys.matrix_from_dict(obj["P"]), linsys.matrix_from_dict(obj["K"])
        assert k.shape == (2, 2)
        r = 2.0 * np.eye(2)
        np.testing.assert_allclose(k, np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a),
                                   rtol=0, atol=1e-10)
        residual = p - (np.eye(2) + a.T @ p @ (a - b @ k))
        assert np.max(np.abs(residual)) < 1e-10

    def test_trained_policy_loads_and_quantizes(self, tmp_path):
        out = tmp_path / "pol.json"
        code = main(["train-policy", "--plant", "cartpole", "--hidden", "8",
                     "--steps", "150", "--samples", "300", "--seed", "2",
                     "--radius", "0.5,0.5,0.2,0.5", "--quantize", "0.1",
                     "--out", str(out)])
        assert code == EXIT_OK
        net, quant = neural.load_policy(out)
        assert quant is not None and quant.step == 0.1
        assert net.input_dim == 4 and net.output_dim == 1
        meta = json.loads(out.read_text())["metadata"]
        assert meta["seed"] == 2

    @pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
    def test_bad_quantization_step_exits_before_the_clone_trains(self, tmp_path, capsys,
                                                                  monkeypatch, step):
        # 0 used to write "quantization": null and exit 0; inf trained the
        # whole clone and then failed to write it
        def never(*args, **kwargs):
            raise AssertionError("the clone trained")

        monkeypatch.setattr(policysynth, "behavior_clone", never)
        out = tmp_path / "pol.json"
        code = main(["train-policy", "--plant", "cartpole", "--steps", "1", "--samples", "10",
                     f"--quantize={step}", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error: quantization step must be finite and positive")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("radius", ["nan", "inf", "0", "-1", "1,1,nan,1", "1,1"])
    def test_bad_radius_exits_cleanly(self, tmp_path, capsys, radius):
        out = tmp_path / "pol.json"
        code = main(["train-policy", "--plant", "cartpole", "--steps", "1", "--samples", "10",
                     f"--radius={radius}", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error: box_radius ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, name", [(["--r", "nan"], "r"), (["--r", "inf"], "r"),
                                            (["--q-diag", "1,inf,1,1"], "q"),
                                            (["--q-diag", "1,1,nan,1"], "q")])
    @pytest.mark.parametrize("command", ["lqr", "train-policy"])
    def test_non_finite_lqr_weights_are_a_usage_error(self, tmp_path, capsys, command, argv,
                                                      name):
        # not "Riccati iteration did not converge", which would blame the plant
        out = tmp_path / "out.json"
        code = main([command, "--plant", "cartpole", *argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err == f"error: {name} must be finite\n"
        assert not out.exists()

    def test_lqr_on_an_unstabilizable_plant_is_a_negative_answer(self, tmp_path, capsys):
        # x+ = 1.5 x + 0 u: no input reaches the unstable state
        linsys.save_plant(tmp_path / "plant.json", linsys.make_plant([[1.5]], [[0.0]]))
        out = tmp_path / "lqr.json"
        code = main(["lqr", "--plant", str(tmp_path / "plant.json"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_NEGATIVE
        assert err.startswith("LQR design failed: Riccati iteration did not converge")
        assert not out.exists()


class TestDegrees:
    def test_degrees_converts_only_at_the_boundary(self, tmp_path):
        # certifying theta <= 0.573 degrees equals theta <= 0.01 rad
        pol = tmp_path / "pol.json"
        main(["train-policy", "--plant", "cartpole", "--hidden", "8",
              "--steps", "150", "--samples", "300", "--seed", "2",
              "--radius", "0.5,0.5,0.2,0.5", "--out", str(pol)])
        lqr = tmp_path / "lqr.json"
        main(["lqr", "--plant", "cartpole", "--out", str(lqr)])
        deg = 0.01 * 180.0 / np.pi
        out_deg = tmp_path / "cert_deg.json"
        out_rad = tmp_path / "cert_rad.json"
        args = ["certify", "--plant", "cartpole", "--policy", str(pol),
                "--kd", str(lqr), "--target-state", "2"]
        code1 = main(args + ["--degrees", "--w-inf", str(2e-4 * 180 / np.pi),
                             "--x-lim", str(deg), "--out", str(out_deg)])
        code2 = main(args + ["--w-inf", "2e-4", "--x-lim", "0.01",
                             "--out", str(out_rad)])
        assert code1 == code2
        a = json.loads(out_deg.read_text())
        b = json.loads(out_rad.read_text())
        np.testing.assert_allclose(a["x_bar"], b["x_bar"], rtol=1e-12)

    def test_attack_keeps_the_plant_amplitude(self, scalar_files, tmp_path):
        # the plant file's w_inf is in radians already; only --w-inf is converted
        plant_path, policy_path = scalar_files
        plan_path = tmp_path / "plan.json"
        args = ["attack", "--plant", plant_path, "--policy", policy_path, "--target", "0",
                "--horizon", "40", "--degrees", "--out", str(plan_path)]
        assert main(args) == EXIT_OK
        assert attack.load_plan(plan_path).w_inf == 0.1
        assert main(args + ["--w-inf", "2"]) == EXIT_OK
        assert attack.load_plan(plan_path).w_inf == 2 * np.pi / 180.0


class TestStateIndex:
    @pytest.mark.parametrize("command, flags", [
        ("certify", ["--target-state", "9", "--x-lim", "0.5"]),
        ("baseline", ["--target-state", "9", "--x-lim", "0.5"]),
        ("frontier", ["--target-state", "9", "--x-lim-list", "0.5", "--with-attack"]),
        ("frontier", ["--target-state", "-1", "--x-lim-list", "0.5", "--with-attack"]),
        ("attack", ["--target", "9"]),
        ("attack", ["--target", "-1"]),
        ("certify", ["--target-state", "9"]),
        ("baseline", ["--target-state", "-1"]),
    ])
    def test_out_of_range_index_exits_cleanly(self, scalar_files, tmp_path, capsys,
                                              command, flags):
        # the scalar plant has one state; an index past it raised IndexError,
        # and -1 silently limited the last state
        plant_path, policy_path = scalar_files
        out = tmp_path / "out"
        code = main([command, "--plant", plant_path, "--policy", policy_path, *flags,
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert not out.exists() and captured.out == ""
        assert f"target state {flags[1]} out of range for n=1" in captured.err


def _runnable_argv(command, plant_path, policy_path):
    """Arguments, besides ``--out``, on which ``command`` exits 0 quickly."""
    loop = ["--plant", plant_path, "--policy", policy_path]
    return {
        "certify": loop,
        "baseline": loop,
        "frontier": loop + ["--x-lim-list", "0.5", "--tol", "1e-2"],
        "attack": loop + ["--target", "0", "--horizon", "40"],
        "simulate": loop + ["--steps", "5"],
        "learn": ["--episodes", "4", "--ep-len", "6"],
        "train-policy": ["--plant", "cartpole", "--hidden", "4", "--steps", "5",
                         "--samples", "20"],
        "lqr": ["--plant", "cartpole"],
    }[command]


class TestUsage:
    def test_unknown_command(self):
        assert main(["no-such-command"]) == EXIT_ERROR

    @pytest.mark.parametrize("command,flag", [
        ("certify", ["--seed", "3"]), ("attack", ["--seed", "3"]), ("lqr", ["--seed", "3"]),
        ("simulate", ["--eps-trunc", "1e-6"]), ("learn", ["--eps-trunc", "1e-6"]),
        ("train-policy", ["--eps-trunc", "1e-6"]), ("lqr", ["--eps-trunc", "1e-6"]),
        ("learn", ["--degrees"]), ("train-policy", ["--degrees"]), ("lqr", ["--degrees"]),
        ("certify", ["--eps-trunc", "1e-6"]), ("baseline", ["--eps-trunc", "1e-6"]),
        ("frontier", ["--eps-trunc", "1e-6"]), ("attack", ["--eps-trunc", "1e-6"]),
        ("baseline", ["--seed", "3"]), ("baseline", ["--samples", "64"]),
        ("frontier", ["--samples", "64"]),
    ])
    def test_flags_a_command_does_not_read_are_rejected(self, scalar_files, tmp_path,
                                                         command, flag):
        argv = _runnable_argv(command, *scalar_files)
        out = tmp_path / "out"
        assert main([command, *argv, *flag, "--out", str(out)]) == EXIT_ERROR
        assert not out.exists()
        assert main([command, *argv, "--out", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("command", ["certify", "baseline", "attack", "learn"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_w_inf_is_rejected(self, scalar_files, tmp_path, capsys, command,
                                          value):
        # the level would reach the JSON written as Infinity or NaN
        out = tmp_path / "out"
        code = main([command, *_runnable_argv(command, *scalar_files), f"--w-inf={value}",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("--w-inf must be finite") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("out", [[], ["--out", "-"]])
    def test_simulate_requires_out_before_running(self, scalar_files, monkeypatch, out):
        plant_path, policy_path = scalar_files
        calls = []
        monkeypatch.setattr(attack, "simulate", lambda *args, **kwargs: calls.append(args))
        code = main(["simulate", "--plant", plant_path, "--policy", policy_path,
                     "--steps", "10", *out])
        assert code == EXIT_ERROR
        assert calls == []

    def test_main_builds_the_parser_once(self, scalar_files, tmp_path, monkeypatch, capsys):
        plant_path, policy_path = scalar_files
        built = []
        monkeypatch.setattr(cli, "build_parser",
                            lambda build=cli.build_parser: built.append(1) or build())
        cli._parser.cache_clear()
        errors = []
        try:
            for _ in range(2):
                assert main(["certify", "--plant", plant_path, "--policy", policy_path,
                             "--out", str(tmp_path / "cert.json")]) == EXIT_OK
                assert main(["certify", "--plant", plant_path, "--policy", policy_path,
                             "--seed", "3"]) == EXIT_ERROR
                errors.append(capsys.readouterr().err)
        finally:
            cli._parser.cache_clear()
        assert built == [1]
        assert errors[0] == errors[1] and "unrecognized arguments: --seed 3" in errors[0]

    @pytest.mark.parametrize("command", ["certify", "baseline", "frontier", "learn",
                                         "train-policy", "lqr"])
    def test_stdout_without_out_equals_the_out_file(self, scalar_files, tmp_path, capsys,
                                                    command):
        argv = [command, *_runnable_argv(command, *scalar_files)]
        out = tmp_path / "out"
        code = main(argv + ["--out", str(out)])
        capsys.readouterr()
        assert main(argv) == code
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_attack_requires_out(self, scalar_files):
        plant_path, policy_path = scalar_files
        code = main(["attack", "--plant", plant_path, "--policy", policy_path,
                     "--target", "0"])
        assert code == EXIT_ERROR

    def test_runs_as_a_module(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(loopcert.__file__)))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        out = tmp_path / "lqr.json"
        done = subprocess.run([sys.executable, "-m", "loopcert", "lqr", "--plant", "cartpole",
                               "--out", str(out)], env=env, capture_output=True, timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        assert json.loads(out.read_text())["closed_loop_spectral_radius"] < 1.0
        # the module itself runs too, without runpy's found-in-sys.modules warning
        done = subprocess.run([sys.executable, "-W", "error", "-m", "loopcert.cli", "--help"],
                              env=env, capture_output=True, timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        assert b"usage: loopcert" in done.stdout
