import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import degree_sequences, random_graphs
from test_pinned_outputs import random_graph_degrees
from degseq import constructions, graphs
from degseq.cli import TRACE_BUDGET, main
from degseq.constructions import (
    build_clique_fill,
    build_hub_fill,
    clique_fill_sequence,
    hub_fill_sequence,
    incomplete_star,
)
from degseq.graphs import SimpleGraph, degree_sequence, to_dot, to_edge_list_text
from degseq.maximal import MaximalSetReport, maximal_elements
from degseq.orders import DegreeSequence, majorized
from degseq.realizability import (
    ReductionTrace,
    TraceStep,
    Verdict,
    _reduction,
    _rendered_steps,
    erdos_gallai,
    havel_hakimi_trace,
    is_c_graphical,
    realize,
    realize_connected,
    reduce_to_constant,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_constant_method_trace(self, capsys):
        code, out, _ = run(capsys, "check", "5,4,4,3,3,3", "--method", "constant")
        assert code == 0
        assert "graphical: yes" in out
        assert "3,3,3,3,3,3" in out

    def test_certificate_method(self, capsys):
        code, out, _ = run(capsys, "check", "4,4,3,2,1", "--method", "certificate")
        assert code == 1
        assert "graphical: no" in out
        assert "4,4,2,2,2" in out

    def test_certificate_inconclusive(self, capsys):
        code, out, _ = run(capsys, "check", "4,3,3,3,1", "--method", "certificate")
        assert code == 0
        assert "inconclusive" in out

    def test_connected_negative(self, capsys):
        code, out, _ = run(capsys, "check", "2,1,1,1,1", "--connected")
        assert code == 1
        assert "graphical: yes" in out
        assert "c-graphical: no" in out

    def test_connected_positive(self, capsys):
        code, out, _ = run(capsys, "check", "4,3,3,3,1", "--connected")
        assert code == 0
        assert "c-graphical: yes" in out

    def test_hh_trace(self, capsys):
        code, out, _ = run(capsys, "check", "5,4,4,3,3,3", "--method", "hh")
        assert code == 0
        for step in ("3,3,2,2,2", "2,2,1,1", "1,1,0", "0,0"):
            assert step in out

    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, "check", "5,4,x")
        assert code == 2

    @pytest.mark.parametrize("literal", ["1_0,1_0,+3,٣", "1_0", "+3", "٣,2"])
    def test_non_ascii_digit_literals_are_usage_errors(self, capsys, literal):
        code, out, err = run(capsys, "check", literal)
        assert (code, out) == (2, "")
        assert "cannot parse sequence literal" in err

    def test_negative_entry_message(self, capsys):
        code, _, err = run(capsys, "check", "3,-1")
        assert code == 2
        assert "sequence entries must be non-negative" in err

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "check", "5,4,4,3,3,3", "--method", "hh", "--json")
        assert code == 0
        verdict = Verdict.from_dict(json.loads(out))
        assert verdict.graphical
        assert verdict.sequence == DegreeSequence((5, 4, 4, 3, 3, 3))

    @pytest.mark.parametrize(
        "literal",
        [
            "5,4,4,3,3,3", "3,3,3,1", "4,4,4,1", "2,2,0", "0", "1,1,1", "3,1,1",
            # values that cross 99 -> 100 and 9 -> 10, long tie blocks,
            # trailing zeros, single entries
            pytest.param(",".join(["150"] * 300), id="150-regular-300"),
            pytest.param(
                ",".join(map(str, [120] * 10 + [100] * 40 + [10] * 100 + [9] * 100 + [0] * 50)),
                id="tie-blocks-300",
            ),
            pytest.param(",".join(["7"] * 40 + ["3"] * 60), id="tie-blocks-100"),
            "3,3,3,3,0,0,0", "5,5,1,1,0,0", "1", "4",
        ],
    )
    @pytest.mark.parametrize("connected", [False, True])
    def test_trace_json_equals_json_dumps_of_the_verdict(self, capsys, literal, connected):
        """The trace record is written step by step, and must give exactly
        the bytes of json.dumps(verdict.to_dict(), sort_keys=True)."""
        seq = DegreeSequence(int(v) for v in literal.split(","))
        extra = ["--connected"] if connected else []
        for method in ("hh", "constant"):
            if method == "hh":
                graphical, trace = havel_hakimi_trace(seq)
            else:
                verdict = reduce_to_constant(seq)
                graphical, trace = verdict.graphical, verdict.certificate
            c_graphical = None
            if connected:
                c_graphical = graphical and is_c_graphical(seq)
            if c_graphical:
                continue  # the certificate is a realization, not the trace
            expected = Verdict(seq, graphical, c_graphical, method, trace)
            _, out, _ = run(capsys, "check", literal, "--method", method, "--json", *extra)
            assert out == json.dumps(expected.to_dict(), sort_keys=True) + "\n"

    def test_reorder_note_and_quiet(self, capsys):
        _, _, err = run(capsys, "check", "3,4,3,3,1")
        assert "reordered" in err
        _, _, err = run(capsys, "check", "3,4,3,3,1", "--quiet")
        assert err == ""


class TestRealize:
    def test_connected_realization(self, capsys):
        code, out, _ = run(capsys, "realize", "4,3,3,3,1", "--connected")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "5 7"
        assert len(lines) == 8

    def test_single_edge(self, capsys):
        code, out, _ = run(capsys, "realize", "1,1")
        assert code == 0
        assert out == "2 1\n0 1\n"

    def test_not_graphical_exit(self, capsys):
        code, _, err = run(capsys, "realize", "5,3,3,2,1")
        assert code == 1
        assert "not realizable" in err

    def test_dot_format(self, capsys):
        code, out, _ = run(capsys, "realize", "1,1", "--format", "dot")
        assert code == 0
        assert out.startswith("graph G {")
        assert "0 -- 1;" in out

    def test_builds_no_graph_value(self, capsys, monkeypatch):
        """`realize` and `check --connected` print from the neighbor lists:
        no SimpleGraph is built, and the output stays the same."""
        runs = [
            ["realize", "4,3,3,3,1", *flags]
            for flags in ([], ["--json"], ["--format", "dot"], ["--connected"])
        ]
        runs += [["check", "4,3,3,3,1", "--connected", *flags] for flags in ([], ["--json"])]
        expected = [run(capsys, *argv) for argv in runs]

        def forbidden(graph):
            raise AssertionError("built a SimpleGraph")

        monkeypatch.setattr(SimpleGraph, "__post_init__", forbidden)
        assert [run(capsys, *argv) for argv in runs] == expected
        assert all(code == 0 for code, _, _ in expected)


def graph_json(payload, g):
    """The graph record as json.dumps writes it, one list per sorted edge."""
    record = {**payload, "edges": [list(e) for e in sorted(g.edges)]}
    return json.dumps(record, sort_keys=True) + "\n"


class TestGraphJson:
    """`realize` in every format, and `construct --emit graph|both --json`,
    print what the library graph renders to: JSON the bytes of json.dumps
    with one list per edge from the sorted edge tuples, text and DOT
    to_edge_list_text and to_dot."""

    @staticmethod
    def realize_cli(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["realize", *argv])
        return code, out.getvalue()

    def assert_realize_pinned(self, seq):
        literal = ",".join(map(str, seq))
        record = {"sequence": list(seq), "realized": True, "n": len(seq)}
        realizations = [([], realize(seq))]
        if is_c_graphical(seq):
            realizations.append((["--connected"], realize_connected(seq)))
        else:
            code, out = self.realize_cli(literal, "--connected", "--json")
            assert code == 1 and json.loads(out)["realized"] is False
        for flags, g in realizations:
            assert self.realize_cli(literal, *flags, "--json") == (0, graph_json(record, g))
            assert self.realize_cli(literal, *flags) == (0, to_edge_list_text(g))
            assert self.realize_cli(literal, *flags, "--format", "dot") == (0, to_dot(g))

    @settings(max_examples=40, deadline=None)
    @given(random_graphs().map(degree_sequence))
    def test_realize_random_graphical_sequences(self, seq):
        self.assert_realize_pinned(seq)

    @pytest.mark.parametrize("seq", [[40] * 400, [1, 1], [0]], ids=["40-regular-400", "edge", "n1"])
    def test_realize_fixed_sequences(self, seq):
        self.assert_realize_pinned(DegreeSequence(seq))

    @pytest.mark.parametrize(
        "n,d,prime",
        [(2, 0, False), (5, -2, False), (5, 3, False), (7, 3, True), (40, 500, False),
         (40, 500, True), (70, 1300, False), (6, -4, False)],
    )
    @pytest.mark.parametrize("emit", ["graph", "both"])
    def test_construct(self, capsys, n, d, prime, emit):
        if d < 0:
            seq, g = incomplete_star(n, d)
        elif prime:
            seq, g = clique_fill_sequence(n, d), build_clique_fill(n, d)
        else:
            seq, g = hub_fill_sequence(n, d), build_hub_fill(n, d)
        argv = ["construct", str(n), str(d), "--emit", emit, "--json"] + ["--prime"] * prime
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == graph_json({"n": n, "d": d, "prime": prime, "sequence": list(seq)}, g)


class TestCompare:
    def test_less(self, capsys):
        code, out, _ = run(capsys, "compare", "4,3,3,3,1", "5,3,3,2,1", "--order", "generalized")
        assert code == 0 and out.strip() == "Less"

    def test_incomparable(self, capsys):
        code, out, _ = run(capsys, "compare", "4,3,3,3,1", "4,4,2,2,2")
        assert code == 0 and out.strip() == "Incomparable"

    def test_equal(self, capsys):
        code, out, _ = run(capsys, "compare", "2,2,1", "2,2,1")
        assert code == 0 and out.strip() == "Equal"

    def test_lorenz_order(self, capsys):
        code, out, _ = run(capsys, "compare", "4,4,4,4,4", "4,4,2,1,1", "--order", "lorenz")
        assert code == 0 and out.strip() == "Less"

    def test_length_mismatch_usage_error(self, capsys):
        code, _, err = run(capsys, "compare", "2,1", "2,1,1")
        assert code == 2


class TestConstruct:
    def test_hub_fill(self, capsys):
        code, out, _ = run(capsys, "construct", "5", "3")
        assert code == 0 and out.strip() == "4,4,2,2,2"

    def test_clique_fill(self, capsys):
        code, out, _ = run(capsys, "construct", "7", "3", "--prime")
        assert code == 0 and out.strip() == "6,3,3,3,1,1,1"

    def test_negative_d(self, capsys):
        code, out, _ = run(capsys, "construct", "5", "-2")
        assert code == 0 and out.strip() == "2,1,1,0,0"

    def test_emit_graph(self, capsys):
        code, out, _ = run(capsys, "construct", "5", "0", "--emit", "graph")
        assert code == 0
        assert out.splitlines()[0] == "5 4"

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "construct", "5", "7")
        assert code == 2

    def test_prime_negative_rejected(self, capsys):
        code, _, err = run(capsys, "construct", "5", "-2", "--prime")
        assert code == 2

    @pytest.mark.parametrize(
        "argv", [["300", "20000"], ["70", "1300", "--prime"], ["9", "-3"]], ids=" ".join
    )
    @pytest.mark.parametrize("emit", ["seq", "graph", "both"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_graph_checked_only_when_printed(self, monkeypatch, capsys, argv, emit, json_flag):
        """`--emit seq` builds and checks no graph; `graph` and `both` check
        the printed lists once and freeze no SimpleGraph."""
        calls = Counter()

        def counted(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        for module in (graphs, constructions):
            for name in ("_check_realization", "_freeze"):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        monkeypatch.setattr(
            SimpleGraph, "__post_init__", counted("__post_init__", SimpleGraph.__post_init__)
        )
        code, out, _ = run(capsys, "construct", *argv, "--emit", emit, *json_flag)
        assert code == 0 and out
        assert calls == ({} if emit == "seq" else {"_check_realization": 1})


class TestMaximal:
    def test_two_lines(self, capsys):
        code, out, err = run(capsys, "maximal", "5", "3", "--oracle", "partitions")
        assert code == 0
        assert out.splitlines() == ["4,4,2,2,2", "4,3,3,3,1"]
        assert "n=5 d=3" in err

    def test_tree_level(self, capsys):
        code, out, _ = run(capsys, "maximal", "5", "0", "--oracle", "partitions")
        assert code == 0 and out.splitlines() == ["4,1,1,1,1"]

    def test_five_edges_on_seven(self, capsys):
        code, out, _ = run(capsys, "maximal", "7", "5", "--oracle", "partitions")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) >= 3
        assert "6,5,3,3,2,2,1" in lines

    def test_full_image(self, capsys):
        code, out, _ = run(capsys, "maximal", "5", "0", "--oracle", "partitions", "--full")
        assert code == 0
        assert "# full image" in out
        assert "2,2,2,1,1" in out

    def test_text_matches_report(self, capsys):
        code, out, err = run(capsys, "maximal", "5", "3", "--full")
        assert code == 0
        head, body = maximal_elements(5, 3).format_text(full=True).split("\n", 1)
        assert (out, err) == (body, head + "\n")

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "maximal", "5", "3", "--json")
        assert code == 0
        report = MaximalSetReport.from_dict(json.loads(out))
        assert report.n == 5 and report.d == 3
        assert report.oracle_agreement

    def test_out_of_caps(self, capsys):
        code, _, err = run(capsys, "maximal", "40", "0")
        assert code == 2

    @pytest.mark.parametrize("max_n", ["3", "-4", "8"])
    def test_max_n_below_the_cap_prints_no_note(self, capsys, max_n):
        code, _, err = run(capsys, "maximal", "6", "2", "--max-n", max_n)
        assert code == 0
        assert "cap" not in err

    def test_max_n_note_names_the_cap_of_the_oracle_in_use(self, capsys):
        _, _, err = run(capsys, "maximal", "6", "2", "--oracle", "partitions", "--max-n", "10")
        assert "cap" not in err  # partitions' own cap is 12
        _, _, err = run(capsys, "maximal", "6", "2", "--max-n", "10")
        assert "note: enumeration cap overridden to n <= 10\n" in err

    def test_max_n_override(self, capsys):
        code, _, _ = run(capsys, "maximal", "13", "0", "--oracle", "partitions")
        assert code == 2
        code, out, err = run(
            capsys, "maximal", "13", "0", "--oracle", "partitions", "--max-n", "13"
        )
        assert code == 0
        assert out.splitlines()[0] == "12," + ",".join(["1"] * 12)
        assert "overridden" in err


class TestDecompose:
    def test_single_step(self, capsys):
        code, out, _ = run(capsys, "decompose", "2,2,2", "3,2,1")
        assert code == 0
        assert out.strip() == "(3 → 1)"

    def test_identity_empty(self, capsys):
        code, out, _ = run(capsys, "decompose", "2,2,1", "2,2,1")
        assert code == 0 and out == ""

    def test_wrong_direction(self, capsys):
        code, _, err = run(capsys, "decompose", "3,2,1", "2,2,2")
        assert code == 1
        assert "not decomposable" in err


class TestLorenz:
    def test_points(self, capsys):
        code, out, _ = run(capsys, "lorenz", "4,1,1,1,1")
        assert code == 0
        assert "(1/5, 1/2)" in out
        assert out.strip().splitlines()[-1] == "(1, 1)"

    def test_diagonal(self, capsys):
        code, out, _ = run(capsys, "lorenz", "2,2,2")
        assert code == 0
        assert "(1/3, 1/3)" in out and "(2/3, 2/3)" in out

    def test_nonnormalized(self, capsys):
        code, out, _ = run(capsys, "lorenz", "2,1,1", "--nonnormalized")
        assert code == 0
        assert out.strip().splitlines() == ["(0, 0)", "(1, 2)", "(2, 3)", "(3, 4)"]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "lorenz", "2,1,1", "--csv")
        assert code == 0
        assert out.splitlines()[0] == "x,y"
        assert out.splitlines()[1] == "0/1,0/1"

    def test_nonnormalized_csv(self, capsys):
        code, out, _ = run(capsys, "lorenz", "3,2,1", "--nonnormalized", "--csv")
        assert code == 0
        assert out == "x,y\n0,0\n1,3\n2,5\n3,6\n"

    def test_zero_sum_usage_error(self, capsys):
        code, _, _ = run(capsys, "lorenz", "0,0")
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "5,4,4,3,3,3"],
        ["check", "4,4,3,2,1", "--method", "certificate"],
        ["check", "4,3,3,3,1", "--method", "certificate"],
        ["check", "5,4,4,3,3,3", "--method", "hh"],
        ["check", "5,4,4,3,3,3", "--method", "constant"],
        ["check", "4,3,3,3,1", "--connected"],
        ["check", "2,1,1,1,1", "--connected"],
        ["realize", "4,3,3,3,1"],
        ["realize", "2,2,2,2,2,2", "--connected"],
        ["realize", "3,1,1"],
        ["realize", "2,1,1,1,1", "--connected"],
        ["compare", "4,3,3,3,1", "5,3,3,2,1"],
        ["construct", "5", "3"],
        ["construct", "7", "3", "--prime", "--emit", "both"],
        ["maximal", "5", "2"],
        ["decompose", "2,2,2", "3,2,1"],
        ["decompose", "3,2,1", "2,2,2"],
        ["lorenz", "4,1,1,1,1"],
        ["lorenz", "2,1,1", "--nonnormalized"],
    ],
    ids=" ".join,
)
def test_json_records_are_sorted_json_dumps(capsys, argv):
    """Every --json record, refusals included, is json.dumps(..., sort_keys=True)."""
    _, out, _ = run(capsys, *argv, "--json")
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def _naive_steps(trace: ReductionTrace, sep: str) -> list[tuple[str, str, str]]:
    return [
        (sep.join(map(str, step.before)), step.rule, sep.join(map(str, step.after)))
        for step in trace.steps
    ]


class TestRenderedSteps:
    """`_rendered_steps` renders each sequence from its runs of equal values;
    the text must equal sep.join(map(str, s)) for every sequence of the trace."""

    @staticmethod
    def rendered(trace: ReductionTrace, sep: str) -> list[tuple[str, str, str]]:
        if not trace.steps:
            return []
        seqs = [trace.steps[0].before, *(step.after for step in trace.steps)]
        rules = [step.rule for step in trace.steps]
        states = [(list(c), list(c.values())) for c in map(Counter, seqs)]
        return list(_rendered_steps(states, rules, sep))

    @given(st.lists(degree_sequences(max_len=60, max_value=150), min_size=1, max_size=5))
    def test_random_non_increasing_sequences(self, seqs):
        # a reduction never raises an entry above the first head; neither do these
        seqs.sort(key=lambda s: s[0], reverse=True)
        steps = tuple(TraceStep(a, f"r{i}", b) for i, (a, b) in enumerate(zip(seqs, seqs[1:])))
        trace = ReductionTrace.from_dict(ReductionTrace(steps, "done").to_dict())
        for sep in (",", ", "):
            assert self.rendered(trace, sep) == _naive_steps(trace, sep)

    @given(degree_sequences(max_len=40, max_value=120))
    def test_reduction_traces_rebuilt_from_dict(self, seq):
        traces = [havel_hakimi_trace(seq)[1], reduce_to_constant(seq).certificate]
        for constant, trace in zip((False, True), traces):
            _, _, states, rules, _ = _reduction(seq, constant)
            rebuilt = ReductionTrace.from_dict(trace.to_dict())
            for sep in (",", ", "):
                assert list(_rendered_steps(states, rules, sep)) == _naive_steps(trace, sep)
                assert self.rendered(rebuilt, sep) == _naive_steps(trace, sep)

    def test_chain_without_a_step_reads_no_runs(self):
        """A stepless chain's head may be any input entry, 10^9 say; no
        table of entry texts is built for it."""
        assert list(_rendered_steps([None], [], ",")) == []


class TestStdin:
    def test_check_reads_dash_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("5,4,4,3,3,3\n"))
        code, out, _ = run(capsys, "check", "-", "--json")
        assert code == 0
        assert json.loads(out)["sequence"] == [5, 4, 4, 3, 3, 3]

    def test_sequence_past_the_argument_cap(self):
        # 200 KB, over Linux's 128 KiB limit on one argument, so it can only be piped
        literal = ",".join(["4"] * 100_000)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "degseq", "check", "-", "--method", "eg", "--quiet"],
            input=literal,
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "graphical: yes" in proc.stdout

    def test_second_dash_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("3,2,1"))
        code, _, err = run(capsys, "compare", "-", "-")
        assert code == 2
        assert "cannot parse" in err


class TestVerdictConsistency:
    # CLI must be a thin adapter over the library verdicts
    @pytest.mark.parametrize(
        "literal", ["5,4,4,3,3,3", "4,4,3,2,1", "2,1,1,1,1", "0,0,0", "4,3,3,3,1"]
    )
    def test_check_matches_library(self, capsys, literal):
        code, _, _ = run(capsys, "check", literal)
        expected = erdos_gallai(DegreeSequence(int(v) for v in literal.split(",")))
        assert code == (0 if expected else 1)

    def test_usage_error_on_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_memory_error_exits_3_without_a_traceback(self, capsys, monkeypatch):
        """Exit 1 is a negative verdict, so running out of memory is exit 3."""

        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr("degseq.realizability._built", exhausted)
        for argv in (["realize", "2,2,2"], ["check", "2,2,2", "--connected", "--json"]):
            assert run(capsys, *argv) == (3, "", "error: out of memory\n")


def _all_check_inputs():
    """Every non-increasing sequence with n <= 7 and entries <= n."""
    for n in range(1, 8):
        for combo in itertools.combinations_with_replacement(range(n, -1, -1), n):
            yield DegreeSequence(combo)


class TestOneVerdictPath:
    """`check` takes its verdict from one core under every method; the
    certificate method answers everything and marks a missing witness."""

    @pytest.fixture
    def check(self, capsys):
        return lambda *argv: run(capsys, "check", *argv)

    @pytest.mark.parametrize("connected", [False, True], ids=["plain", "connected"])
    @pytest.mark.parametrize("method", ["eg", "hh", "constant", "certificate"])
    def test_exhaustive_small_sequences(self, check, method, connected):
        flags = ["--method", method, "--json"] + (["--connected"] if connected else [])
        for seq in _all_check_inputs():
            literal = ",".join(map(str, seq))
            code, out, err = check(literal, *flags)
            assert code in (0, 1), (literal, code, err)
            data = json.loads(out)
            graphical = erdos_gallai(seq)
            assert data["graphical"] is graphical, literal
            assert data["c_graphical"] is (is_c_graphical(seq) if connected else None), literal
            conclusive = data.pop("conclusive", True)
            assert Verdict.from_dict(data).to_dict() == data, literal
            cert = data["certificate"]
            if method != "certificate":
                negative = not graphical or (connected and not data["c_graphical"])
                assert conclusive is True and code == (1 if negative else 0), literal
                continue
            assert conclusive is (cert is not None), literal
            witness = cert is not None and cert["kind"] == "witness"
            # a missing witness leaves the c-graphical verdict exact
            negative = not data["c_graphical"] if connected else witness
            assert code == (1 if negative else 0), literal
            if witness:
                w = DegreeSequence(cert["witness"])
                assert w == hub_fill_sequence(len(seq), cert["d"]), literal
                assert sum(w) == sum(seq) and majorized(w, seq) and w != seq, literal

    @pytest.mark.parametrize(
        "literal, graphical",
        [
            # non-graphical, but not above the hub fill of their total
            ("4,4,1,1,1,1", False),
            ("5,5,2,1,1,1,1", False),
            ("4,4,4,1,1,1,1", False),
            ("3,3,3,1,0", False),
            # graphical with a total below 2(n-1): no hub fill to compare with
            ("2,2,2,0,0,0", True),
            # odd total
            ("3,1,1", False),
        ],
    )
    def test_certificate_method_without_witness(self, check, literal, graphical):
        for method in ("eg", "hh", "constant"):
            code, _, _ = check(literal, "--method", method)
            assert code == (0 if graphical else 1)
        code, out, _ = check(literal, "--method", "certificate", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["graphical"] is graphical
        assert data["conclusive"] is False and data["certificate"] is None
        code, out, _ = check(literal, "--method", "certificate")
        assert code == 0
        assert out.splitlines() == [
            f"sequence: {literal}",
            f"graphical: {'yes' if graphical else 'no'} (method: certificate)",
            "inconclusive: no domination witness",
        ]
        code, out, _ = check(literal, "--method", "certificate", "--connected")
        assert code == 1
        assert "c-graphical: no" in out.splitlines()

    @pytest.mark.parametrize("method", ["hh", "constant", "certificate"])
    def test_connected_yes_builds_no_trace_or_witness(self, check, monkeypatch, method):
        """A c-graphical answer prints the realization, so the reduction trace
        and the witness are never built for it."""

        def forbidden(*args):
            raise AssertionError("built a certificate that is not printed")

        for name in ("havel_hakimi_trace", "reduce_to_constant", "non_graphical_certificate"):
            monkeypatch.setattr(f"degseq.realizability.{name}", forbidden)
        code, out, _ = check("5,4,4,3,3,3", "--method", method, "--connected", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["graphical"] is True and data["c_graphical"] is True
        assert data["certificate"]["kind"] == "realization"

    @pytest.mark.parametrize(
        "literal, c_graphical", [("4,3,3,3,1", True), ("2,1,1,1,1", False), ("3,3,1,1", False)]
    )
    def test_connected_runs_one_c_graphical_test(self, check, monkeypatch, literal, c_graphical):
        """`check --connected` runs is_c_graphical once, and builds the
        realization only after it, on a yes, on a graphical no and on a
        non-graphical no."""
        calls = []
        monkeypatch.setattr(
            "degseq.realizability.is_c_graphical", lambda x: calls.append(x) or is_c_graphical(x)
        )
        for extra in ([], ["--json"]):
            calls.clear()
            code, out, _ = check(literal, "--connected", *extra)
            assert code == (0 if c_graphical else 1) and len(calls) == 1
            assert ("c-graphical: yes" in out or '"c_graphical": true' in out) is c_graphical

    def test_connected_no_formats_no_error_message(self, check, monkeypatch):
        """A "no" of `check --connected` raises no NotCGraphicalError, so the
        library never formats the sequence into a message it would discard."""

        def forbidden(seq):
            raise AssertionError("formatted the sequence into an error message")

        monkeypatch.setattr("degseq.realizability.format_sequence", forbidden)
        code, out, _ = check("1,1,1,1", "--connected", "--json")
        assert code == 1 and json.loads(out)["c_graphical"] is False

    @pytest.mark.parametrize("method", ["hh", "constant"])
    def test_trace_builds_no_sequence_per_step(self, check, monkeypatch, method):
        """The trace is printed from runs of equal values: no DegreeSequence
        per step and no library reduction, in text and JSON, with and
        without --connected; the output stays the same. The parser's sorted
        input is the one sequence each run builds."""
        literals = ["5,4,4,3,3,3", "4,4,3,3,2,2,1,1,0,0", "3,3,3,1", "6,6,6,6,6,6,6,2,2,1"]
        literals.append(",".join(map(str, [40] * 10 + [12] * 60 + [3] * 100 + [0] * 30)))
        runs = [
            (literal, ["--method", method, *extra])
            for literal in literals
            for extra in ([], ["--json"], ["--connected"], ["--json", "--connected"])
        ]
        expected = [check(literal, *flags) for literal, flags in runs]

        def forbidden(*args):
            raise AssertionError("built a sequence for a trace step")

        built = []
        from_sorted = DegreeSequence._from_sorted
        monkeypatch.setattr(
            DegreeSequence, "_from_sorted", lambda vals: built.append(vals) or from_sorted(vals)
        )
        for name in ("hh_reduce", "generalized_reduce", "havel_hakimi_trace", "reduce_to_constant"):
            monkeypatch.setattr(f"degseq.realizability.{name}", forbidden)
        assert [check(literal, *flags) for literal, flags in runs] == expected
        assert len(built) == len(runs)
        assert sum("-[" in out for _, out, _ in expected) == 2 * len(literals) - 1


def _printed_integers(out: str) -> int:
    """Integers in the steps of a text trace: two comma-joined sequences per line."""
    count = 0
    for line in out.splitlines():
        before, sep, rest = line.strip().partition(" -[")
        if sep:
            count += before.count(",") + rest.split("]-> ")[1].count(",") + 2
    return count


class TestTraceBudget:
    """`check --method hh|constant` counts the integers its trace would
    print before printing any and refuses a trace over the budget, unless
    --max-trace raises it."""

    LITERALS = ["5,4,4,3,3,3", "4,4,3,3,2,2,1,1,0,0", "4,4,4,1,1", "7,7,7,7,7,7,7,2,2,2"]

    @pytest.mark.parametrize("method", ["hh", "constant"])
    def test_refusal_names_the_count_and_max_trace_prints(self, capsys, monkeypatch, method):
        for literal in self.LITERALS:
            monkeypatch.setattr("degseq.cli.TRACE_BUDGET", TRACE_BUDGET)
            full = run(capsys, "check", literal, "--method", method)
            printed = _printed_integers(full[1])
            assert printed > 0
            monkeypatch.setattr("degseq.cli.TRACE_BUDGET", printed)
            assert run(capsys, "check", literal, "--method", method) == full
            monkeypatch.setattr("degseq.cli.TRACE_BUDGET", printed - 1)
            connected = is_c_graphical(DegreeSequence(map(int, literal.split(","))))
            for extra in ([], ["--json"], [] if connected else ["--connected"]):
                code, out, err = run(capsys, "check", literal, "--method", method, *extra)
                assert (code, out) == (2, ""), (literal, extra)
                assert f"would print {printed} integers" in err
                assert f"--max-trace {printed} prints it" in err
            code, out, err = run(
                capsys, "check", literal, "--method", method, "--max-trace", str(printed)
            )
            assert (code, out, err) == full

    def test_refusal_at_the_default_budget(self, capsys, monkeypatch):
        # hh on 20,000 ones takes 10,000 steps from lengths 20,000 down to
        # 10,001; a step from length m prints 2m - 1 integers, 3 * 10^8 in all
        monkeypatch.setattr(sys, "stdin", io.StringIO(",".join(["1"] * 20_000)))
        code, out, err = run(capsys, "check", "-", "--method", "hh", "--quiet")
        assert (code, out) == (2, "")
        assert "would print 300000000 integers, over the budget of 100000000" in err

    @pytest.mark.parametrize("method", ["hh", "constant"])
    def test_trace_past_the_kept_states_is_built_again(self, capsys, monkeypatch, method):
        """A trace longer than TRACE_KEPT is counted without its states,
        then built once more for printing; the output does not change."""
        keeps = []

        def spy(seq, constant, keep=float("inf")):
            keeps.append(keep)
            return _reduction(seq, constant, keep)

        for literal in self.LITERALS:
            argvs = [["check", literal, "--method", method, *extra] for extra in ([], ["--json"])]
            full = [run(capsys, *argv) for argv in argvs]
            monkeypatch.setattr("degseq.cli.TRACE_KEPT", 1)
            monkeypatch.setattr("degseq.realizability._reduction", spy)
            keeps.clear()
            assert [run(capsys, *argv) for argv in argvs] == full
            assert keeps == [1, float("inf")] * 2
            monkeypatch.undo()

    def test_refusal_holds_no_states(self):
        chain = _reduction(DegreeSequence([3] * 40), False, keep=100)
        assert chain.printed > 100
        assert chain.states == [] and chain.rules == []

    def test_default_budget_leaves_tenfold_headroom(self):
        """The 2,000-entry sequence of the CI workflow's trace step, and a
        1,200-entry one as dense as the benchmark's largest `hh` op, print
        at most a tenth of the budget under either method."""
        rng = random.Random(1)
        n = 2000
        deg = [0] * n
        for u, v in {tuple(sorted(rng.sample(range(n), 2))) for _ in range(4 * n)}:
            deg[u] += 1
            deg[v] += 1
        ci = DegreeSequence(deg)
        bench = random_graph_degrees(random.Random(0), 1200, 0.05)
        for seq in (ci, DegreeSequence(bench)):
            for constant in (False, True):
                assert 10 * _reduction(seq, constant, keep=0)[4] <= TRACE_BUDGET
