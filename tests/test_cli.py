"""Command-line workflows: exit codes, files, reproducibility."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import loopcert
from loopcert import attack, certify, cli, linsys, neural
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

    def test_stalled_search_exits_negative(self, tmp_path):
        # the seed-77 loop of the random corpus stalls at pass 17
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
        assert code == EXIT_NEGATIVE
        result = json.loads(out.read_text())
        assert result["failure_reason"] == certify.STALLED
        assert result["iterations"] == 17

    def test_malformed_plant_file(self, tmp_path, scalar_files):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code = main(["certify", "--plant", str(bad), "--policy", scalar_files[1]])
        assert code == EXIT_ERROR

    def test_missing_file(self, scalar_files):
        code = main(["certify", "--plant", "/nonexistent.json",
                     "--policy", scalar_files[1]])
        assert code == EXIT_ERROR


class TestBaseline:
    def test_scalar_certified(self, scalar_files, tmp_path):
        plant_path, policy_path = scalar_files
        out = tmp_path / "base.json"
        code = main(["baseline", "--plant", plant_path, "--policy", policy_path,
                     "--out", str(out)])
        assert code == EXIT_OK
        result = json.loads(out.read_text())
        # the sampled gain of a linear policy around its own gain is zero
        assert result["gamma_pi_sampled"] == pytest.approx(0.0, abs=1e-12)
        assert "not a certificate" in result["note"]

    def test_impossible_limit(self, tmp_path, scalar_files):
        plant_path, policy_path = scalar_files
        code = main(["baseline", "--plant", plant_path, "--policy", policy_path,
                     "--x-lim", "1e-6", "--out", str(tmp_path / "b.json")])
        assert code == EXIT_NEGATIVE

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_no_samples_is_an_error(self, scalar_files, tmp_path, samples):
        # no samples cannot certify anything, and used to report certified
        plant_path, policy_path = scalar_files
        out = tmp_path / "b.json"
        code = main(["baseline", "--plant", plant_path, "--policy", policy_path,
                     "--samples", samples, "--out", str(out)])
        assert code == EXIT_ERROR
        assert not out.exists()
        code = main(["frontier", "--plant", plant_path, "--policy", policy_path,
                     "--x-lim-list", "0.5", "--target-state", "0", "--with-baseline",
                     "--samples", samples, "--out", str(tmp_path / "f.csv")])
        assert code == EXIT_ERROR


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
    """(plant, gain, eps_trunc) of every loop closure, from a cold maps cache."""
    calls = []
    real = linsys.close_loop

    def spy(plant, k0, eps_trunc=linsys.DEFAULT_EPS_TRUNC):
        calls.append(certify._loop_key(plant, np.asarray(k0, dtype=float), eps_trunc))
        return real(plant, k0, eps_trunc)

    monkeypatch.setattr(linsys, "close_loop", spy)
    monkeypatch.setattr(certify, "close_loop", spy)
    monkeypatch.setattr(certify, "_closures", {})
    return calls


class TestLoopClosures:
    @pytest.mark.parametrize("eps", [None, 1e-6])
    def test_frontier_with_attack_closes_each_loop_once(self, scalar_files, tmp_path,
                                                        closures, eps):
        plant_path, policy_path = scalar_files
        args = ["frontier", "--plant", plant_path, "--policy", policy_path,
                "--x-lim-list", "0.5,1.0", "--target-state", "0", "--tol", "1e-3",
                "--with-attack", "--horizon", "200", "--out", str(tmp_path / "f.csv")]
        if eps is not None:
            args += ["--eps-trunc", str(eps)]
        assert main(args) == EXIT_OK
        expected = linsys.DEFAULT_EPS_TRUNC if eps is None else eps
        assert closures and all(e == expected for *_, e in closures)
        assert len(set(closures)) == len(closures)

    @pytest.mark.parametrize("eps", [None, 1e-6])
    def test_attack_closes_one_loop(self, scalar_files, tmp_path, closures, eps):
        plant_path, policy_path = scalar_files
        args = ["attack", "--plant", plant_path, "--policy", policy_path, "--target", "0",
                "--horizon", "40", "--out", str(tmp_path / "plan.json")]
        if eps is not None:
            args += ["--eps-trunc", str(eps)]
        assert main(args) == EXIT_OK
        expected = linsys.DEFAULT_EPS_TRUNC if eps is None else eps
        assert [e for *_, e in closures] == [expected]


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


class TestUsage:
    def test_unknown_command(self):
        assert main(["no-such-command"]) == EXIT_ERROR

    @pytest.mark.parametrize("command,flag", [
        ("certify", ["--seed", "3"]), ("attack", ["--seed", "3"]), ("lqr", ["--seed", "3"]),
        ("simulate", ["--eps-trunc", "1e-6"]), ("learn", ["--eps-trunc", "1e-6"]),
        ("train-policy", ["--eps-trunc", "1e-6"]), ("lqr", ["--eps-trunc", "1e-6"]),
        ("learn", ["--degrees"]), ("train-policy", ["--degrees"]), ("lqr", ["--degrees"]),
    ])
    def test_flags_a_command_does_not_read_are_rejected(self, scalar_files, tmp_path,
                                                         command, flag):
        plant_path, policy_path = scalar_files
        loop = ["--plant", plant_path, "--policy", policy_path]
        argv = {
            "certify": loop,
            "attack": loop + ["--target", "0", "--horizon", "40"],
            "simulate": loop + ["--steps", "5"],
            "learn": ["--episodes", "4", "--ep-len", "6"],
            "train-policy": ["--plant", "cartpole", "--hidden", "4", "--steps", "5",
                             "--samples", "20"],
            "lqr": ["--plant", "cartpole"],
        }[command]
        out = tmp_path / "out"
        assert main([command, *argv, *flag, "--out", str(out)]) == EXIT_ERROR
        assert not out.exists()
        assert main([command, *argv, "--out", str(out)]) == EXIT_OK

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
