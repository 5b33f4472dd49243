import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ohmwalk
from ohmwalk import (
    Disconnected,
    Estimate,
    NonPositiveConductance,
    ParseError,
    ProofStep,
    ProofTrace,
    SelfLoop,
)
from ohmwalk.cli import _verify_json, parse_network_file, run

import oracles
from netgen import grid_network
from oracles import outcome


_floats = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e308, 1e16, 1e-7]))
_labels = st.one_of(
    st.text(),
    st.sampled_from(['say "hi"', "back\\slash", "\u00e9t\u00e9 \U0001f600", "\x00\x1f\n\t\x7f"]),
    st.integers(),
    st.floats(),
    st.tuples(st.integers(), st.text(max_size=3)),
)


@st.composite
def _proof_steps(draw):
    estimate = draw(st.none() | st.builds(Estimate, _floats, _floats, st.integers(0, 10**6),
                                           st.integers(0, 2**64), st.integers(0, 10**9),
                                           st.integers(0, 10**7)))
    return ProofStep(draw(st.text()), draw(_floats), draw(_floats), draw(_floats),
                     draw(_floats), draw(st.booleans()), estimate,
                     None if estimate is None else draw(st.booleans()))


@st.composite
def _proof_traces(draw):
    return ProofTrace(draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6)), draw(_floats),
                      draw(_labels), draw(_floats),
                      tuple(draw(st.lists(_proof_steps(), min_size=1, max_size=6))),
                      draw(st.booleans()))


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


def _stdin(text):
    """A standard input that reads text: the CLI reads its bytes."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


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

    @pytest.mark.parametrize("text", [
        "a b\nc d e f\n",  # three tokens a line on average, but line 2 has four
        "a b 1\r\nb c 2\r\n\r\nc a 3\r\n",
        "a b 1\x0cb c 2\x1cc d 3\u2028d e 4\n",  # str.splitlines breaks at all three
        "a b 1\x0cb b 2\n",  # the self-loop is on line 2
        "a b 1\u2028b c x\n",
        "a b 1\r\nc c\r\n",
        "a\tb\t2  \n\t b c \t\n   \n",
        "# header\n  # indented\na b 2\n#a a 1\nb c\n",
        "a b\nb c 2.5\nc d\nd a 1e-3\n",
        "a b 1\nb c",
        "a b 1\nb c 2\nc d 1 2",
        "# only a comment\n\n",
        "a b 1\r\rb c\x85c d\u2029d e 1\x1d\x1ee f 3\x0bf g\n",
        "a\u3000b\xa01\nb\x1fc\n",  # whitespace that is no line break
        "a b 1e308\nb a 1e308\n",
        "a b 1\r\nb a -2\r\n",
        "\ufeff\ufeffa b 1\nb c\n",  # only the first mark is dropped
        "\ufeffa b 1\nb c 2\n\ufeffc a\n",  # a mark after the first line is a label's
        "\ufeff# a b\r\na b 1\r\nb c x\r\n",  # the comment is skipped, lines kept
    ])
    def test_matches_the_line_by_line_reference(self, text):
        assert outcome(parse_network_file, text) == outcome(oracles.parse_network_file, text)

    def test_leading_byte_order_mark_is_dropped(self):
        plain = "a b 1\r\nb c 1\r\nc a 1\r\n"
        marked = parse_network_file("\ufeff" + plain)
        assert oracles.network_bits(marked) == oracles.network_bits(parse_network_file(plain))
        assert marked.vertices == ("a", "b", "c")

    def test_bad_conductance_on_the_last_of_7000_lines(self):
        text = "".join(f"v{i} v{i + 1} 1.5\n" for i in range(6999)) + "v6999 v7000 1.5e\n"
        with pytest.raises(ParseError, match="^line 7000: bad conductance '1.5e'$") as exc:
            parse_network_file(text)
        assert exc.value.line == 7000
        assert outcome(parse_network_file, text) == outcome(oracles.parse_network_file, text)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["a b", "b c", "c a", "a c", "a a", "a", "a b c d", "# a b", "", " "]),
        st.sampled_from(["", " 1", " 2.5", " 1e308", " x", " -1", " 5e-324"]),
        st.sampled_from([" ", "\t", "  ", "\u3000"]),
        st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x1c", "\u2028", "\x85", "\x0b"]),
    ), max_size=12))
    def test_random_text_matches_the_reference(self, lines):
        # the same network, or the same error, line number and message
        text = "".join(pair.replace(" ", gap) + c + gap + end for pair, c, gap, end in lines)
        assert outcome(parse_network_file, text) == outcome(oracles.parse_network_file, text)


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

    def test_subnormal_conductances_are_scaled_before_the_solve(self, capsys, monkeypatch):
        # every conductance and vertex conductance is a multiple of 5e-324, so
        # unscaled Kron updates keep only a few bits (hitting 1.667, return 2.667)
        text = "c b 5e-324\nTrue c 5e-324\nTrue c 5e-324\n"
        monkeypatch.setattr("sys.stdin", _stdin(text))
        code, out, _ = invoke(capsys, ["hitting", "-", "c", "True"])
        assert (code, json.loads(out)["expected_steps"]) == (0, 2.0)
        monkeypatch.setattr("sys.stdin", _stdin(text))
        code, out, _ = invoke(capsys, ["return-time", "-", "True"])
        assert (code, json.loads(out)["first_step"]) == (0, 3.0)
        monkeypatch.setattr("sys.stdin", _stdin(text))
        code, out, err = invoke(capsys, ["verify", "-"])
        assert (code, err) == (0, "")
        assert json.loads(out)["pass"] is True

    def test_return_time_ignores_a_byte_order_mark(self, capsys, monkeypatch, tmp_path):
        # C / C_z = 6 / 2 on the triangle; read as a label, the mark would make a
        # fourth vertex and a first step of 6
        text = "\ufeffa b 1\r\nb c 1\r\nc a 1\r\n"
        path = tmp_path / "marked.edges"
        path.write_bytes(text.encode("utf-8"))
        for source in (str(path), "-"):
            monkeypatch.setattr("sys.stdin", _stdin(text))
            code, out, err = invoke(capsys, ["return-time", source, "a"])
            assert (code, err) == (0, "")
            assert json.loads(out) == {"vertex": "a", "formula": 3.0, "first_step": 3.0}

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", _stdin("a b 1\n"))
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
        monkeypatch.setattr(exact, "_BAND_BYTES", 6 * exact._band_bytes(1, L, w, 2))
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

    def test_single_vertex_traces_match_where_panels_and_stops_disagree(self, capsys, tmp_path):
        # At w = 9 the sweeps stop at places that are not multiples of the
        # kernel's panel, so a sweep that ran only as far as one anchor's leaf
        # must still cut its panels where the full sweep does.
        from ohmwalk import exact

        k, rng = 9, np.random.default_rng(9)
        lines = [f"v{i * k + j} v{i * k + j + d} {10.0 ** rng.uniform(-6.0, 6.0)!r}\n"
                 for i in range(k) for j in range(k) for d in (1, k)
                 if (d == 1 and j < k - 1) or (d == k and i < k - 1)]
        path = tmp_path / "grid9.edges"
        path.write_text("".join(lines))
        net = parse_network_file(path.read_text())
        w = int(exact._band(net)[4].max())
        assert w == 9 and w % exact._PANEL
        assert len(exact._leaves(net.n, w)[1]) == 9
        code, out, _ = invoke(capsys, ["verify", str(path)])
        assert code == 0
        sweep = {t["anchor"]: json.dumps(t) for t in json.loads(out)["traces"]}
        for z in net.vertices:
            code, out, _ = invoke(capsys, ["verify", str(path), "--vertex", z])
            assert code == 0
            assert json.dumps(json.loads(out)["traces"][0]) == sweep[z], z

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

    @pytest.mark.parametrize("argv", [["simulate", "return", "{}", "a"],
                                      ["verify", "{}", "--simulate"]])
    def test_too_many_trials_exit_2_naming_the_size(self, capsys, tri_file, small_memory,
                                                    argv):
        code, out, err = invoke(capsys, [a.format(tri_file) for a in argv]
                                + ["--trials", "1000000"])
        assert (code, out) == (2, "")
        assert err == ("ohmwalk: error: the estimate needs 15.3 MiB of sample storage, "
                       "more than could be allocated\n")


def _grid10(tmp_path) -> Path:
    """A 10x10 grid whose verify document (about 150 kB) outgrows a pipe's
    buffer. Conductances like 0.1 are inexact in binary, so verify with an
    absurd tolerance fails some step."""
    path = tmp_path / "grid10.edges"
    path.write_text("".join(f"{i * 10 + j} {i * 10 + j + d} {0.1 * (1 + (i + j) % 3)!r}\n"
                            for i in range(10) for j in range(10) for d in (1, 10)
                            if (d == 1 and j < 9) or (d == 10 and i < 9)))
    return path


def _cli_env(**env) -> dict:
    return dict(os.environ, PYTHONPATH=str(Path(ohmwalk.__file__).parents[1]), **env)


@pytest.mark.parametrize("tolerance,code", [("1e-9", 0), ("1e-300", 1)])
def test_closed_stdout_keeps_the_exit_code(tmp_path, tolerance, code):
    # A reader that stops after one line (| head -1) is no input error, and
    # nothing goes to stderr. The command is still writing when the reader goes.
    proc = subprocess.Popen(
        [sys.executable, "-m", "ohmwalk.cli", "verify", str(_grid10(tmp_path)), "--tolerance",
         tolerance],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    )
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == code
    finally:
        proc.kill()
    assert proc.stderr.read() == b""
    proc.stderr.close()


def _shell_cli(argv, redirect="", stdin=b"", **env) -> tuple[int, bytes, bytes]:
    """(exit code, stdout, stderr) of ``python -m ohmwalk.cli argv`` started by
    the shell with ``redirect`` (``<&-`` closes its stdin, ``>&-`` its stdout)
    and fed the bytes ``stdin``, under the environment variables ``env``."""
    proc = subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m",
                           "ohmwalk.cli", *argv],
                          input=stdin, capture_output=True, env=_cli_env(**env), timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


class TestStandardStreams:
    # Whatever the locale decodes standard input as, and whatever errors it
    # forgives, `-` reads the bytes a file holds as the file's path does.
    ENCODINGS = ["latin-1", "utf-8:surrogateescape"]

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_stdin_is_decoded_as_utf8_as_a_file_is(self, tmp_path, encoding):
        # Decoded as latin-1, the mark and the e-acute of the first line would
        # make a fourth vertex "\u00ef\u00bb\u00bf\u00c3\u00a9".
        data = "\ufeff\u00e9 b 1\nb c 2\nc \u00e9 1\n".encode("utf-8")
        path = tmp_path / "marked.edges"
        path.write_bytes(data)
        by_path = _shell_cli(["stationary", str(path)])
        assert by_path[0::2] == (0, b"")
        assert json.loads(by_path[1])["weights"] == {"\u00e9": 0.25, "b": 0.375, "c": 0.375}
        assert _shell_cli(["stationary", "-"], stdin=data, PYTHONIOENCODING=encoding) == by_path

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_bytes_that_are_not_utf8_exit_2_from_stdin_as_from_a_file(self, tmp_path, encoding):
        data = b"\xff a 1\na b 1\n"
        path = tmp_path / "latin1.edges"
        path.write_bytes(data)
        error = b"ohmwalk: error: line 1: can't decode byte 0xff as UTF-8: invalid start byte\n"
        assert _shell_cli(["stationary", str(path)]) == (2, b"", error)
        assert _shell_cli(["stationary", "-"], stdin=data, PYTHONIOENCODING=encoding) == (
            2, b"", error)

    # Bad bytes on line 1 are the case above.
    @pytest.mark.parametrize("data,error", [
        (b"a b 1\r\nb \xff 1\n", "line 2: can't decode byte 0xff as UTF-8: invalid start byte"),
        (b"\xef\xbb\xbfa b 1\r\nb \xff 1\n",  # a byte-order mark moves no line
         "line 2: can't decode byte 0xff as UTF-8: invalid start byte"),
        (b"a b 1\n\n\xe2\x82 c 1\n",
         "line 3: can't decode byte 0xe2 as UTF-8: invalid continuation byte"),
    ], ids=["after-crlf", "marked", "after-blank-line"])
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, data, error):
        path = tmp_path / "bad.edges"
        path.write_bytes(data)
        want = (2, b"", f"ohmwalk: error: {error}\n".encode())
        assert _shell_cli(["stationary", str(path)]) == want
        assert _shell_cli(["stationary", "-"], stdin=data) == want

    def test_closed_stdin_exits_2_naming_it(self):
        assert _shell_cli(["stationary", "-"], "<&-") == (
            2, b"", b"ohmwalk: error: standard input is closed\n")

    def test_text_only_stdin_exits_2_in_process(self, capsys, monkeypatch):
        # An io.StringIO holds text, not the bytes the CLI decodes as UTF-8.
        monkeypatch.setattr("sys.stdin", io.StringIO("a b 1\n"))
        assert invoke(capsys, ["stationary", "-"]) == (2, "", (
            "ohmwalk: error: standard input has no bytes to decode (a text stream with no "
            ".buffer)\n"))

    @pytest.mark.parametrize("argv,code", [(["stationary"], 0),
                                           (["verify", "--tolerance", "1e-300"], 1)])
    def test_closed_stdout_writes_nothing_and_keeps_the_exit_code(self, tmp_path, argv, code):
        command, *options = argv
        assert _shell_cli([command, str(_grid10(tmp_path)), *options], ">&-") == (code, b"", b"")

    # 2>&- closes stderr, so sys.stderr is None; 2</dev/null leaves fd 2
    # open but read-only, as a wrapper script that starts python may.
    @pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"])
    def test_an_error_with_no_stderr_exits_2_with_nothing_on_stdout(self, redirect):
        assert _shell_cli(["stationary", "/nonexistent"], redirect) == (2, b"", b"")

    @pytest.mark.parametrize("stderr", [None, "unwritable"])
    def test_an_error_with_no_stderr_exits_2_in_process(self, capsys, monkeypatch, stderr):
        class Unwritable(io.StringIO):
            def write(self, text):
                raise OSError(9, "Bad file descriptor")

        monkeypatch.setattr("sys.stderr", None if stderr is None else Unwritable())
        code = run(["stationary", "/nonexistent"])
        assert (code, capsys.readouterr().out) == (2, "")


class TestOutputPrecision:
    def test_json_documents_reserialize_identically(self, capsys, tri_file):
        # shortest-roundtrip float formatting: parse + re-dump is lossless
        for argv in (
            ["resistance", tri_file, "a", "b"],
            ["return-time", tri_file, "c"],
            ["stationary", tri_file],
            ["simulate", "excursions", tri_file, "b", "--trials", "777", "--seed", "5"],
            ["verify", tri_file],
            ["verify", tri_file, "--vertex", "b"],
            ["verify", tri_file, "--simulate", "--trials", "500", "--seed", "3"],
        ):
            code, out, _ = invoke(capsys, argv)
            assert code == 0
            assert json.dumps(json.loads(out), indent=2) + "\n" == out

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_proof_traces(), min_size=1, max_size=3), _floats, st.booleans())
    def test_verify_encoder_writes_what_json_dumps_writes(self, traces, tolerance, verdict):
        net = SimpleNamespace(n=len(traces), m=2 * len(traces), total_conductance=tolerance)
        doc = {
            "network": {"n": net.n, "m": net.m, "total_conductance": net.total_conductance},
            "tolerance": tolerance,
            "traces": [t.to_json_dict() for t in traces],
            "pass": verdict,
        }
        out = "".join(_verify_json(net, tolerance, traces, verdict))
        assert out == json.dumps(doc, indent=2) + "\n"

    def test_verify_writes_once_whatever_stdout_buffers(self, tmp_path, monkeypatch):
        # An unbuffered stdout makes one system call per write, so the
        # document goes out in one write, not token by token.
        class CountingStdout(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        path = tmp_path / "grid20.edges"
        path.write_text("".join(f"{u} {v} {c!r}\n" for u, v, c in grid_network(20, 20).edges))
        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert run(["verify", str(path)]) == 0
        text = out.getvalue()
        assert len(text) > 4 * 2**16
        assert json.dumps(json.loads(text), indent=2) + "\n" == text
        assert out.writes == 1


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


_BASE = ["ohmwalk", "ohmwalk.cli", "ohmwalk.errors", "ohmwalk.network", "ohmwalk.util"]


@pytest.mark.parametrize("argvs,layers,secrets", [
    ([["resistance", "{}", "a", "b"], ["hitting", "{}", "a", "b"], ["return-time", "{}", "a"],
      ["commute", "{}", "a", "b"], ["stationary", "{}"]], ["exact"], False),
    ([["simulate", "return", "{}", "a", "--trials", "10"],
      ["simulate", "hitting", "{}", "a", "b", "--trials", "10"],
      ["simulate", "excursions", "{}", "a", "--trials", "10", "--format", "csv"]],
     ["simulate"], None),
    ([["verify", "{}"], ["verify", "{}", "--vertex", "a", "--seed", "5"]],
     ["exact", "replay"], False),
    ([["verify", "{}", "--simulate", "--trials", "10"]], ["exact", "replay", "simulate"], None),
    ([["verify", "{}", "--seed", "random"]], ["exact", "replay"], True),
], ids=["solve", "simulate", "verify", "verify-simulate", "seed-random"])
def test_commands_load_only_the_layers_they_run(tri_file, argvs, layers, secrets):
    # Each module a process imports costs it start-up time, so a command
    # loads only the layers it runs, and secrets only for --seed random. A
    # walk loads numpy.random, which imports secrets itself (secrets None).
    # Afterwards every exported name resolves, and ohmwalk.replay is still
    # the function, though its module has loaded.
    script = (
        "import json, sys\n"
        "import ohmwalk.cli as cli\n"
        "codes = [cli.run(argv) for argv in json.loads(sys.argv[1])]\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'ohmwalk')\n"
        "secrets = 'secrets' in sys.modules\n"
        "import ohmwalk\n"
        "names = {}\n"
        "exec('from ohmwalk import *', names)\n"
        "missing = [n for n in ohmwalk.__all__ if names.get(n) is not getattr(ohmwalk, n)]\n"
        "sys.stderr.write(json.dumps({'codes': codes, 'loaded': loaded, 'secrets': secrets,\n"
        "                             'missing': missing,\n"
        "                             'replay': type(ohmwalk.replay).__name__}))\n"
    )
    argvs = [[a.format(tri_file) for a in argv] for argv in argvs]
    env = dict(os.environ, PYTHONPATH=str(Path(ohmwalk.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stderr)
    assert report.pop("secrets") is secrets or secrets is None
    assert report == {"codes": [0] * len(argvs),
                      "loaded": sorted(_BASE + [f"ohmwalk.{m}" for m in layers]),
                      "missing": [], "replay": "function"}


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


_LABELS = ["a", "b", "c", "d", "1", "1.0", "01", "True"]
_CONDUCTANCES = st.one_of(st.floats(min_value=5e-324, max_value=1e308).map(repr),
                          st.integers(-323, 308).map("1e{}".format),
                          st.sampled_from(["5e-324", "1e-308", "1", "1e308"]))
_FAULTS = st.sampled_from(["a b 0", "a b -1", "a b nan", "a b inf", "a b one", "a",
                           "a b 1 2", "a a 1", "1 1.0"])


@st.composite
def _invocations(draw):
    """Edge-list text on at most 8 vertices, and a command that reads it
    from stdin. The text is a path through the labels, so that it is
    connected, then more edges, bare pairs (conductance 1), blank and
    comment lines, perhaps a duplicate edge and perhaps one faulty line."""
    labels = draw(st.lists(st.sampled_from(_LABELS), min_size=2, max_size=8, unique=True))
    vertex = st.sampled_from(labels)
    pair = st.lists(vertex, min_size=2, max_size=2, unique=True).map(" ".join)
    lines = [f"{u} {v} {draw(_CONDUCTANCES)}" for u, v in zip(labels, labels[1:])]
    lines += draw(st.lists(st.one_of(st.builds(lambda p, c: f"{p} {c}", pair, _CONDUCTANCES),
                                     pair, st.sampled_from(["", "# note"])), max_size=6))
    if draw(st.booleans()):
        lines.append(lines[0])
    if draw(st.booleans()):
        lines.append(draw(_FAULTS))
    text = "\n".join(draw(st.permutations(lines))) + "\n"

    x, y = draw(vertex), draw(st.sampled_from([*labels, "zz"]))
    sim = ["--trials", str(draw(st.integers(0, 20))), "--step-cap", str(draw(st.integers(0, 50))),
           "--seed", str(draw(st.integers(0, 2**63 - 1)))]
    argv = draw(st.sampled_from([
        ["resistance", "-", x, y], ["hitting", "-", x, y], ["return-time", "-", y],
        ["commute", "-", x, y], ["stationary", "-"],
        ["simulate", "return", "-", y, *sim], ["simulate", "hitting", "-", x, y, *sim],
        ["simulate", "excursions", "-", y, *sim, "--pendant-conductance", draw(_CONDUCTANCES)],
        ["verify", "-"], ["verify", "-", "--vertex", y],
        ["verify", "-", "--vertex", y, "--simulate", *sim],
    ]))
    return text, argv


def _no_constant(name):
    raise ValueError(f"{name} in the output")


@settings(max_examples=150, deadline=None)
@given(_invocations())
def test_any_input_gets_an_exit_code_and_json(invocation):
    # Every input, however broken or extreme, gets exit 0, 1 (a failed
    # verification) or 2 (bad input), never a traceback, and stdout is JSON
    # without NaN or Infinity. Runs in process: no thread or process starts.
    text, argv = invocation
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = _stdin(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2), (code, err.getvalue())
    assert code != 1 or argv[0] == "verify"
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    else:
        json.loads(out.getvalue(), parse_constant=_no_constant)
