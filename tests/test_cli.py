import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ohmwalk
from ohmwalk import (
    Disconnected,
    NonPositiveConductance,
    ParseError,
    SelfLoop,
)
from ohmwalk.cli import parse_network_file, run


@pytest.fixture
def tri_file(tmp_path):
    path = tmp_path / "triangle.edges"
    path.write_text("a b 1\nb c 1\nc a 1\n")
    return str(path)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.edges"
    lines = [
        f"{u} {v} 1"
        for i, u in enumerate("abcd")
        for v in "abcd"[i + 1:]
    ]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseNetworkFile:
    def test_basic_path(self):
        net = parse_network_file("a b 1\nb c 2\n")
        assert net.n == 3
        assert net.total_conductance == 6.0

    def test_omitted_conductance_defaults_to_one(self):
        net = parse_network_file("a b\n")
        assert net.edges == (("a", "b", 1.0),)

    def test_comments_and_blanks_skipped(self):
        net = parse_network_file("# header\n\na b 1\n  # indented comment\nb c 1\n")
        assert net.m == 2

    def test_self_loop_reports_line(self):
        with pytest.raises(SelfLoop, match="line 1"):
            parse_network_file("a a 1\n")

    def test_bad_conductance_reports_line(self):
        with pytest.raises(ParseError, match="line 2") as exc:
            parse_network_file("a b 1\nb c zap\n")
        assert exc.value.line == 2

    def test_nonpositive_conductance_reports_line(self):
        with pytest.raises(NonPositiveConductance, match="line 3"):
            parse_network_file("a b 1\nb c 1\nc d -2\n")

    def test_merged_overflow_reports_the_line_that_overflows(self):
        with pytest.raises(NonPositiveConductance, match="line 4") as exc:
            parse_network_file("a b 1e308\nb c 1\n\nb a 1e308\n")
        assert "'a' and 'b'" in str(exc.value)

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_network_file("a b 1 9\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_network_file("# nothing\n")

    def test_disconnected_propagates(self):
        with pytest.raises(Disconnected):
            parse_network_file("a b 1\nc d 1\n")


class TestSolverSubcommands:
    def test_return_time_document(self, capsys, tmp_path):
        path = tmp_path / "k2.edges"
        path.write_text("a b\n")
        code, out, err = invoke(capsys, ["return-time", str(path), "a"])
        assert code == 0
        assert json.loads(out) == {"vertex": "a", "formula": 2.0, "first_step": 2.0}

    def test_resistance(self, capsys, tri_file):
        code, out, _ = invoke(capsys, ["resistance", tri_file, "a", "b"])
        assert code == 0
        doc = json.loads(out)
        assert doc["resistance"] == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_hitting(self, capsys, tri_file):
        code, out, _ = invoke(capsys, ["hitting", tri_file, "a", "c"])
        assert code == 0
        assert json.loads(out)["expected_steps"] == pytest.approx(2.0, rel=1e-12)

    def test_commute(self, capsys, tri_file):
        code, out, _ = invoke(capsys, ["commute", tri_file, "a", "b"])
        assert code == 0
        doc = json.loads(out)
        assert doc["commute_time"] == pytest.approx(4.0, rel=1e-12)
        assert doc["x_to_y"] + doc["y_to_x"] == pytest.approx(doc["commute_time"])

    def test_commute_factors_two_grounded_matrices(self, capsys, k4_file, eliminations):
        code, out, _ = invoke(capsys, ["commute", k4_file, "a", "d"])
        assert code == 0
        assert json.loads(out)["resistance"] == pytest.approx(0.5, rel=1e-12)
        assert eliminations == [4, 4]

    def test_commute_same_vertex_exits_2(self, capsys, tri_file):
        code, out, err = invoke(capsys, ["commute", tri_file, "b", "b"])
        assert code == 2
        assert out == ""
        assert "'b' twice" in err

    def test_stationary(self, capsys, tri_file):
        code, out, _ = invoke(capsys, ["stationary", tri_file])
        assert code == 0
        weights = json.loads(out)["weights"]
        assert list(weights) == ["a", "b", "c"]
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_hitting_same_vertex_is_zero(self, capsys, tri_file):
        code, out, _ = invoke(capsys, ["hitting", tri_file, "b", "b"])
        assert code == 0
        assert json.loads(out)["expected_steps"] == 0.0

    @pytest.mark.parametrize("argv", [
        ["hitting", "zz", "a"],
        ["hitting", "a", "zz"],
        ["commute", "zz", "a"],
        ["commute", "a", "zz"],
    ])
    def test_unknown_vertex_exits_2(self, capsys, tri_file, argv):
        code, out, err = invoke(capsys, [argv[0], tri_file, *argv[1:]])
        assert code == 2
        assert out == ""
        assert "zz" in err

    def test_denormal_conductance_resolves_silently(self, capsys, tmp_path):
        # a wide span needs no warning: the elimination is accurate at any span
        path = tmp_path / "denormal.edges"
        path.write_text("a b 1\nb c 5e-324\n")
        code, out, err = invoke(capsys, ["resistance", str(path), "a", "b"])
        assert (code, err) == (0, "")
        assert json.loads(out)["resistance"] == 1.0

    def test_stdin_input(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("a b 1\n"))
        code, out, _ = invoke(capsys, ["return-time", "-", "b"])
        assert code == 0
        assert json.loads(out)["formula"] == 2.0


class TestSimulateSubcommands:
    def test_return_estimate_document(self, capsys, k4_file):
        code, out, _ = invoke(
            capsys,
            ["simulate", "return", k4_file, "a", "--trials", "2000", "--seed", "7"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "return"
        assert doc["seed"] == 7
        assert doc["trials"] == 2000
        assert doc["mean"] == doc["steps_total"] / doc["trials"]
        assert 2 <= doc["steps_max"] <= doc["steps_total"]
        assert abs(doc["mean"] - 4.0) <= 4.0 * doc["std_error"]

    def test_byte_identical_reruns(self, capsys, k4_file):
        argv = ["simulate", "return", k4_file, "a", "--trials", "1000", "--seed", "9"]
        _, first, _ = invoke(capsys, argv)
        _, second, _ = invoke(capsys, argv)
        assert first == second

    def test_hitting_estimate(self, capsys, tri_file):
        code, out, _ = invoke(
            capsys,
            ["simulate", "hitting", tri_file, "a", "b", "--trials", "500"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "hitting"
        assert doc["from"] == "a"

    def test_excursions_with_counts(self, capsys, tri_file):
        code, out, _ = invoke(
            capsys,
            ["simulate", "excursions", tri_file, "a", "--trials", "500", "--seed", "2"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "excursions"
        assert doc["pendant_conductance"] == 1.0
        assert sum(doc["counts"].values()) == 500

    def test_csv_output_is_flat(self, capsys, k4_file):
        code, out, _ = invoke(
            capsys,
            ["simulate", "return", k4_file, "a", "--trials", "100", "--format", "csv"],
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "kind,vertex,mean,std_error,trials,seed,steps_total,steps_max"
        assert row.startswith("return,a,")

    def test_csv_round_trips_doubles(self, capsys, tri_file):
        argv = [
            "simulate", "excursions", tri_file, "a",
            "--trials", "333", "--seed", "5", "--format", "csv",
        ]
        code, out, _ = invoke(capsys, argv)
        assert code == 0
        header, row = out.strip().split("\n")
        fields = dict(zip(header.split(","), row.split(",")))
        json_code, json_out, _ = invoke(capsys, argv[:-2])
        doc = json.loads(json_out)
        assert float(fields["mean"]) == doc["mean"]
        assert float(fields["std_error"]) == doc["std_error"]

    def test_seed_random_prints_chosen_seed(self, capsys, tri_file):
        code, out, _ = invoke(
            capsys,
            ["simulate", "return", tri_file, "a", "--trials", "50", "--seed", "random"],
        )
        assert code == 0
        assert isinstance(json.loads(out)["seed"], int)

    def test_step_cap_error_exits_2(self, capsys, tri_file):
        code, _, err = invoke(
            capsys,
            ["simulate", "return", tri_file, "a", "--trials", "50", "--step-cap", "1"],
        )
        assert code == 2
        assert "step cap" in err

    def test_bad_trials_exits_2(self, capsys, tri_file):
        code, _, err = invoke(
            capsys, ["simulate", "return", tri_file, "a", "--trials", "0"]
        )
        assert code == 2
        assert "trials" in err


class TestVerifySubcommand:
    def test_triangle_passes_with_trace_per_vertex(self, capsys, tri_file):
        code, out, _ = invoke(capsys, ["verify", tri_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert len(doc["traces"]) == 3
        total_time = [
            s for s in doc["traces"][0]["steps"] if s["name"] == "total-time"
        ][0]
        assert total_time["expected"] == 7.0

    def test_single_vertex(self, capsys, tri_file):
        code, out, _ = invoke(capsys, ["verify", tri_file, "--vertex", "b"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["traces"]) == 1
        assert doc["traces"][0]["anchor"] == "b"

    def test_simulated_verify(self, capsys, tri_file):
        code, out, _ = invoke(
            capsys,
            ["verify", tri_file, "--simulate", "--trials", "1000", "--seed", "4"],
        )
        assert code == 0
        doc = json.loads(out)
        final = doc["traces"][0]["steps"][-1]
        assert final["estimate"]["trials"] == 1000
        assert final["estimate_pass"] is True

    def test_single_vertex_trace_is_the_sweep_trace(self, capsys, monkeypatch, tmp_path):
        # A sweep runs its anchors' leaf systems in batches, one anchor alone;
        # the bits must not depend on the batch. Shrink the band budget to 3
        # anchors (6 leaf systems) a batch.
        from ohmwalk import exact

        rng = np.random.default_rng(7)
        lines = [f"v{i * 4 + j} v{i * 4 + j + d} {10.0 ** rng.uniform(-6.0, 6.0)!r}\n"
                 for i in range(4) for j in range(4) for d in (1, 4)
                 if (d == 1 and j < 3) or (d == 4 and i < 3)]
        path = tmp_path / "grid4.edges"
        path.write_text("".join(lines))
        net = parse_network_file(path.read_text())
        w = int(exact._band(net)[4].max())
        _, first, _, L = exact._leaves(net.n, w)
        assert len(first) == 4 and L < net.n
        monkeypatch.setattr(exact, "_BAND_BYTES", 6 * exact._band_bytes(1, L, w))
        batches = []
        kernel = exact._eliminate
        monkeypatch.setattr(exact, "_eliminate",
                            lambda U, R, w: batches.append(U.shape[:2]) or kernel(U, R, w))
        code, out, _ = invoke(capsys, ["verify", str(path)])
        assert code == 0
        assert batches == [(6, L + w)] * 5 + [(2, L + w)]
        sweep = {t["anchor"]: t for t in json.loads(out)["traces"]}
        for z in net.vertices:
            code, out, _ = invoke(capsys, ["verify", str(path), "--vertex", z])
            assert code == 0
            assert json.dumps(json.loads(out)["traces"][0]) == json.dumps(sweep[z])

    def test_rejects_csv(self, capsys, tri_file):
        code, _, err = invoke(capsys, ["verify", tri_file, "--format", "csv"])
        assert code == 2

    def test_verification_failure_exits_1(self, capsys, tmp_path):
        # rounding in the grounded solves leaves ~1e-16 relative residue,
        # so an absurdly tight tolerance must flip the verdict, not error
        # (conductances 0.1 and 0.3 are inexact in binary, so steps round)
        path = tmp_path / "wpath.edges"
        path.write_text("1 2 0.1\n2 3 0.3\n")
        code, out, _ = invoke(capsys, ["verify", str(path), "--tolerance", "1e-300"])
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_nonpositive_tolerance_exits_2(self, capsys, tri_file):
        # nan used to fail every step (exit 1) and inf to pass without checking
        for tolerance in ("-1", "nan", "inf"):
            code, out, err = invoke(capsys, ["verify", tri_file, "--tolerance", tolerance])
            assert (code, out) == (2, "")
            assert "tolerance" in err

    def test_unknown_vertex_exits_2(self, capsys, tri_file):
        code, _, err = invoke(capsys, ["verify", tri_file, "--vertex", "zz"])
        assert code == 2
        assert "zz" in err

    # one trial has no standard error, so every four-standard-error band is empty
    @pytest.mark.parametrize("flag", [["--trials", "0"], ["--step-cap", "0"], ["--trials", "1"]])
    def test_bad_trial_arguments_exit_2_before_any_solve(self, capsys, tri_file, flag,
                                                          eliminations):
        code, out, err = invoke(capsys, ["verify", tri_file, "--simulate", *flag])
        assert code == 2
        assert out == ""
        assert flag[0].lstrip("-").replace("-", "_") in err
        assert eliminations == []

    def test_one_trial_simulation_is_legal(self, capsys, tri_file):
        code, out, _ = invoke(capsys, ["simulate", "return", tri_file, "a", "--trials", "1"])
        assert code == 0
        assert json.loads(out)["std_error"] == 0.0

    def test_trial_arguments_are_ignored_without_simulate(self, capsys, tri_file):
        code, out, _ = invoke(capsys, ["verify", tri_file, "--trials", "0", "--step-cap", "0"])
        assert code == 0
        assert json.loads(out)["pass"] is True


class TestExitCodes:
    def test_no_arguments(self, capsys):
        assert invoke(capsys, [])[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert invoke(capsys, ["frobnicate"])[0] == 2

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, ["stationary", "/nonexistent/x.edges"])
        assert code == 2
        assert err

    def test_disconnected_file(self, capsys, tmp_path):
        path = tmp_path / "two.edges"
        path.write_text("a b 1\nc d 1\n")
        code, _, err = invoke(capsys, ["stationary", str(path)])
        assert code == 2
        assert "connected" in err

    def test_self_loop_file_reports_line(self, capsys, tmp_path):
        path = tmp_path / "loop.edges"
        path.write_text("a a 1\n")
        code, _, err = invoke(capsys, ["return-time", str(path), "a"])
        assert code == 2
        assert "line 1" in err

    def test_csv_rejected_for_exact_subcommands(self, capsys, tri_file):
        code, _, _ = invoke(capsys, ["resistance", tri_file, "a", "b", "--format", "csv"])
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert invoke(capsys, ["--help"])[0] == 0

    @pytest.mark.parametrize("argv", [["resistance", "{}", "hub", "l1"],
                                      ["verify", "{}", "--vertex", "l1"]])
    def test_out_of_memory_exits_2_naming_the_size(self, capsys, tmp_path, small_memory,
                                                   argv):
        path = tmp_path / "star.edges"
        path.write_text("".join(f"hub l{i} 1\n" for i in range(500)))
        code, out, err = invoke(capsys, [a.format(path) for a in argv])
        assert (code, out) == (2, "")
        assert err.startswith("ohmwalk: error: the solve needs ") and " MiB " in err


@pytest.mark.parametrize("tolerance,code", [("1e-9", 0), ("1e-300", 1)])
def test_closed_stdout_keeps_the_exit_code(tmp_path, tolerance, code):
    # A reader that stops after one line (| head -1) is no input error, and
    # nothing goes to stderr. verify's document for this 10x10 grid (about
    # 150 kB) outgrows the pipe's buffer, so the command is still writing when
    # the reader goes. Conductances like 0.1 are inexact in binary, so an
    # absurd tolerance fails some step.
    path = tmp_path / "grid10.edges"
    path.write_text("".join(f"{i * 10 + j} {i * 10 + j + d} {0.1 * (1 + (i + j) % 3)!r}\n"
                            for i in range(10) for j in range(10) for d in (1, 10)
                            if (d == 1 and j < 9) or (d == 10 and i < 9)))
    env = dict(os.environ, PYTHONPATH=str(Path(ohmwalk.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ohmwalk.cli", "verify", str(path), "--tolerance", tolerance],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == code
    finally:
        proc.kill()
    assert proc.stderr.read() == b""
    proc.stderr.close()


class TestOutputPrecision:
    def test_json_documents_reserialize_identically(self, capsys, tri_file):
        # shortest-roundtrip float formatting: parse + re-dump is lossless
        for argv in (
            ["resistance", tri_file, "a", "b"],
            ["return-time", tri_file, "c"],
            ["stationary", tri_file],
            ["simulate", "excursions", tri_file, "b", "--trials", "777", "--seed", "5"],
        ):
            code, out, _ = invoke(capsys, argv)
            assert code == 0
            assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_commands_that_never_solve_leave_scipy_unloaded(tri_file):
    # scipy is not a runtime dependency; a stray import would add its load
    # time to every command.
    script = (
        "import json, sys\n"
        "import ohmwalk.cli as cli\n"
        "f = sys.argv[1]\n"
        "codes = [cli.run(['stationary', f]),\n"
        "         cli.run(['simulate', 'return', f, 'a', '--trials', '10'])]\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "sys.stderr.write(json.dumps({'codes': codes, 'scipy': loaded}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ohmwalk.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script, tri_file],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr) == {"codes": [0, 0], "scipy": []}


def test_commands_that_solve_leave_scipy_unloaded(tri_file):
    # numpy is the only runtime dependency: no solve and no kernel check loads scipy
    script = (
        "import json, sys\n"
        "import ohmwalk.cli as cli\n"
        "from ohmwalk import chain_to_network\n"
        "f = sys.argv[1]\n"
        "codes = [cli.run(['resistance', f, 'a', 'b']), cli.run(['hitting', f, 'a', 'b']),\n"
        "         cli.run(['return-time', f, 'a']), cli.run(['commute', f, 'a', 'b']),\n"
        "         cli.run(['verify', f]),\n"
        "         cli.run(['verify', f, '--simulate', '--trials', '100'])]\n"
        "chain_to_network([[0.0, 1.0], [1.0, 0.0]])\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "sys.stderr.write(json.dumps({'codes': codes, 'scipy': loaded}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ohmwalk.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script, tri_file],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr) == {"codes": [0] * 6, "scipy": []}
