import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import digit_limit
from transopt import BalanceError, CyclicBasisError, TransportPlan, cli, hungarian, verify_optimal
from transopt.cli import (
    ParseError,
    format_rational,
    main,
    parse_instance,
    serialize_instance,
)
from transopt.oracle import OracleResult

DATA = Path(__file__).parent / "data"
WORKED = DATA / "worked_example.txt"
TINY = DATA / "tiny.txt"
RATIONAL = DATA / "rational.txt"
HALVES = DATA / "halves.txt"
GOLDEN_TRACE = DATA / "worked_hungarian_trace.txt"
GOLDEN_JSON = DATA / "worked_hungarian.json"

RATIONAL_TOKEN = re.compile(r"^-?[0-9]+(/[0-9]+)?$")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHelp:
    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for command in ("solve", "check-monge", "generate"):
            assert command in out

    def test_solve_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--method", "--trace", "--json", "--certificate"):
            assert flag in out

    def test_missing_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([])
        assert exit_info.value.code == 2


class TestFormatRational:
    def test_integers_have_no_denominator(self):
        assert format_rational(Fraction(47)) == "47"
        assert format_rational(Fraction(-3)) == "-3"

    def test_fractions_render_as_p_over_q(self):
        assert format_rational(Fraction(1, 2)) == "1/2"
        assert format_rational(Fraction(-5, 4)) == "-5/4"


class TestParseInstance:
    def test_worked_example_file(self):
        inst = parse_instance(WORKED.read_text())
        assert (inst.m, inst.n) == (3, 4)
        assert inst.total == 15

    def test_minimal_text(self):
        inst = parse_instance("1 1\n0\n5\n5")
        assert inst.m == inst.n == 1
        assert inst.total == 5

    def test_fractions_and_comments(self):
        inst = parse_instance("# c\n2 2\n1/2 2/3\n3/4 1\n1 2\n# mid comment\n2 1\n")
        assert inst.cost[0][0] == Fraction(1, 2)

    def test_imbalance_reports_totals(self):
        with pytest.raises(BalanceError, match="2 != total demand 3"):
            parse_instance("2 2\n1 2\n3 4\n1 1\n1 2")

    def test_malformed_number_names_line_and_column(self):
        with pytest.raises(ParseError) as err:
            parse_instance("2 2\n1 2\n3 oops\n1 1\n1 1")
        assert err.value.line == 3
        assert err.value.column == 3

    @pytest.mark.parametrize(
        "token",
        ["7", "+5", "-0", "007", "5.0", "1e3", "1_000", "٣", "1/2", "-3/4",
         "5/0", "abc", "0x10"],
    )
    def test_cost_token_parses_as_fraction(self, token):
        text = f"1 2\n 3\t {token}\n1\n0 1\n"
        try:
            expected = Fraction(token)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ParseError) as err:
                parse_instance(text)
            assert (err.value.line, err.value.column) == (2, 5)
            assert str(err.value) == f"line 2, column 5: malformed number {token!r}"
        else:
            inst = parse_instance(text)
            assert inst.cost[0] == (3, expected)
            assert type(inst.cost[0][1]) is Fraction

    def test_tabs_separate_fields(self):
        inst = parse_instance("2\t2\n1\t2\n\t3 \t 4\t\n1\t1\n1 1\n")
        assert inst.cost == ((1, 2), (3, 4))
        with pytest.raises(ParseError) as err:
            parse_instance("2 2\n1\t2\n\t3\t\tx\n1 1\n1 1\n")
        assert (err.value.line, err.value.column) == (3, 5)

    def test_comment_lines_between_cost_rows(self):
        text = "2 2\n1 2\n# between\n   # indented\n\n3 4\n1 1\n1 1\n"
        assert parse_instance(text).cost == ((1, 2), (3, 4))
        with pytest.raises(ParseError) as err:
            parse_instance(text.replace("3 4", "3 z"))
        assert (err.value.line, err.value.column) == (6, 3)

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="cost row 1 has 3 fields, expected 2") as err:
            parse_instance("2 2\n1 2 9\n3 4\n1 1\n1 1")
        assert (err.value.line, err.value.column) == (2, 5)
        with pytest.raises(ParseError, match="cost row 2 has 1 fields, expected 2") as err:
            parse_instance("2 2\n1 2\n  3\n1 1\n1 1")
        assert (err.value.line, err.value.column) == (3, 4)

    def test_missing_lines(self):
        with pytest.raises(ParseError, match="incomplete"):
            parse_instance("2 2\n1 2\n3 4\n1 1")

    def test_extra_lines(self):
        with pytest.raises(ParseError, match="extra data"):
            parse_instance("1 1\n0\n5\n5\n99")

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty"):
            parse_instance("# only a comment\n")

    def test_bad_dimension(self):
        with pytest.raises(ParseError, match="positive integer"):
            parse_instance("0 2\n1 1\n1 1")

    def test_huge_exponent_is_refused_on_its_line(self):
        # Fraction alone would spend seconds computing 10**999999999
        started = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_instance("1 2\n3 1e999999999\n1\n0 1\n")
        assert time.perf_counter() - started < 1
        limit = digit_limit()
        assert str(err.value) == (
            f"line 2, column 3: number '1e999999999' exceeds the limit of {limit} digits"
        )

    @pytest.mark.parametrize(
        "end", ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_line_numbers_follow_str_splitlines(self, end):
        text = end.join(["# comment", "2 2", "", "1 2", "3 4", "1 1", "1 x"]) + end
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == text.splitlines().index("1 x") + 1 == 7

    def test_reading_stops_one_line_after_the_demand_line(self):
        text = "1 1\n" + "7\n" * 200_000
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as err:
                parse_instance(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(err.value) == "line 5, column 1: unexpected extra data after the demand line"
        assert peak < 1 << 20

    def test_over_cap_header_counts_the_lines_without_keeping_them(self):
        text = "1000000 1000000\n" + "7\n" * 200_000
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as err:
                parse_instance(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(err.value) == (
            "line 200001, column 1: incomplete instance: expected 1000000 cost rows, "
            "a supply line and a demand line after the header"
        )
        assert peak < 1 << 20
        # over the cap, too many lines still come before the cap's message
        with pytest.raises(ParseError, match="^line 2004, column 1: unexpected extra data"):
            parse_instance("2000 1000\n" + "7\n" * 2003)
        with pytest.raises(ParseError, match="^line 1, column 1: instance 2000 x 1000 has"):
            parse_instance("2000 1000\n" + "7\n" * 2002)


class TestRoundTrip:
    @pytest.mark.parametrize("fixture", ["worked_example.txt", "tiny.txt", "rational.txt", "halves.txt"])
    def test_parse_serialize_fixed_point(self, fixture):
        text = (DATA / fixture).read_text()
        first = parse_instance(text)
        canonical = serialize_instance(first)
        second = parse_instance(canonical)
        assert second == first
        assert serialize_instance(second) == canonical

    def test_canonical_form_is_plain(self):
        canonical = serialize_instance(parse_instance(WORKED.read_text()))
        assert "#" not in canonical
        assert "  " not in canonical
        assert canonical.endswith("\n")


class TestSolveCommand:
    def test_nw_plan_and_cost(self, capsys):
        code, out, _ = run(capsys, "solve", str(WORKED), "--method", "nw")
        assert code == 0
        assert "total cost = 93" in out
        assert "(1, 1) = 3" in out

    def test_nw_certificate_flags_non_optimality(self, capsys):
        code, out, _ = run(
            capsys, "solve", str(WORKED), "--method", "nw", "--certificate"
        )
        assert code == 0
        assert "verified optimal: no" in out
        assert "first violation: dual at" in out
        assert "note: plan is not certified optimal" in out

    def test_hungarian_certificate_verifies(self, capsys):
        code, out, _ = run(
            capsys, "solve", str(WORKED), "--method", "hungarian", "--certificate"
        )
        assert code == 0
        assert "total cost = 47" in out
        assert "verified optimal: yes" in out

    @pytest.mark.parametrize("method, path", [("hungarian", WORKED), ("nw", WORKED), ("oracle", TINY)])
    def test_certificate_is_checked_once(self, capsys, monkeypatch, method, path):
        calls = []

        def counted(*args):
            calls.append(args)
            return verify_optimal(*args)

        monkeypatch.setattr(hungarian, "verify_optimal", counted)
        monkeypatch.setattr(cli, "verify_optimal", counted)
        code, out, _ = run(capsys, "solve", str(path), "--method", method, "--certificate")
        assert code == 0
        assert "verified optimal: " in out
        assert len(calls) == 1

    def test_hungarian_golden_trace_bytes(self, capsys):
        code, out, _ = run(
            capsys, "solve", str(WORKED), "--method", "hungarian",
            "--trace", "--certificate",
        )
        assert code == 0
        assert out == GOLDEN_TRACE.read_text()

    def test_output_is_stable_across_runs(self, capsys):
        args = ("solve", str(WORKED), "--method", "hungarian", "--trace", "--json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_hungarian_golden_json(self, capsys):
        code, out, _ = run(
            capsys, "solve", str(WORKED), "--method", "hungarian",
            "--trace", "--certificate", "--json",
        )
        assert code == 0
        assert out == GOLDEN_JSON.read_text()

    def test_json_schema_shape(self, capsys):
        code, out, _ = run(
            capsys, "solve", str(TINY), "--method", "oracle", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"method", "instance", "plan", "cost"}
        assert doc["method"] == "oracle"
        assert set(doc["instance"]) == {"m", "n", "total", "cost", "supply", "demand"}
        assert RATIONAL_TOKEN.match(doc["cost"])
        for entry in doc["plan"]:
            assert set(entry) == {"row", "col", "quantity"}
            assert entry["row"] >= 1 and entry["col"] >= 1
            assert RATIONAL_TOKEN.match(entry["quantity"])
        for row in doc["instance"]["cost"]:
            assert all(RATIONAL_TOKEN.match(v) for v in row)

    def test_json_trace_matches_schema_fixture(self, tmp_path, capsys):
        schema = json.loads((Path(__file__).parents[1] / "docs" / "result_schema.json").read_text())
        _, out, _ = run(
            capsys, "solve", str(WORKED), "--method", "hungarian",
            "--trace", "--certificate", "--json",
        )
        doc = json.loads(out)
        for key in schema["required"]:
            assert key in doc
        assert isinstance(doc["trace"], list) and doc["scale"] == 1
        iteration_required = schema["properties"]["trace"]["items"]["required"]
        for iteration in doc["trace"]:
            assert all(k in iteration for k in iteration_required)
        pattern = re.compile(schema["definitions"]["rational"]["pattern"])
        assert pattern.match(doc["cost"])

        jsonschema = pytest.importorskip("jsonschema")
        validator = jsonschema.Draft7Validator(schema)
        instances = [WORKED, TINY, RATIONAL, HALVES, self._zero_total(tmp_path)]
        flag_sets = ((), ("--trace",), ("--certificate",), ("--trace", "--certificate"))
        validated = 0
        for path in instances:
            for method in ("hungarian", "nw", "oracle"):
                for flags in flag_sets:
                    code, out, _ = run(
                        capsys, "solve", str(path), "--method", method, "--json", *flags
                    )
                    if code != 0:
                        continue
                    errors = [e.message for e in validator.iter_errors(json.loads(out))]
                    assert not errors, (path.name, method, flags, errors)
                    validated += 1
        assert validated >= 40

    @staticmethod
    def _zero_total(tmp_path):
        path = tmp_path / "zero_total.txt"
        path.write_text("2 2\n1 2\n3 4\n0 0\n0 0\n")
        return path

    def test_fractional_costs_report_scale(self, capsys):
        code, out, _ = run(
            capsys, "solve", str(RATIONAL), "--method", "hungarian", "--trace"
        )
        assert code == 0
        assert "trace:\n  scale: 12\n  iteration 1:\n" in out
        code, out, _ = run(
            capsys, "solve", str(RATIONAL), "--method", "hungarian", "--trace", "--json"
        )
        assert code == 0
        assert '"scale": 12' in out
        assert json.loads(out)["scale"] == 12

    def test_nw_certificate_on_zero_total_instance(self, tmp_path, capsys):
        path = self._zero_total(tmp_path)
        code, out, _ = run(capsys, "solve", str(path), "--method", "nw", "--certificate")
        assert code == 0
        assert "plan:\n  (empty)\ntotal cost = 0\n" in out
        assert "  basis hints: (1, 1) (1, 2) (2, 1)\n" in out
        assert "  verified optimal: yes\n" in out
        code, out, _ = run(
            capsys, "solve", str(path), "--method", "nw", "--certificate", "--json"
        )
        assert code == 0
        assert '"plan": []' in out
        assert '"basis_hints"' in out
        cert = json.loads(out)["certificate"]
        assert cert["basis_hints"] == [[1, 1], [1, 2], [2, 1]]
        assert cert["verified_optimal"] is True

    def test_nw_json_first_violation(self, capsys):
        code, out, _ = run(
            capsys, "solve", str(WORKED), "--method", "nw", "--certificate", "--json"
        )
        assert code == 0
        cert = json.loads(out)["certificate"]
        assert cert["verified_optimal"] is False
        assert cert["basis_hints"] == [[1, 2]]
        assert cert["first_violation"] == {
            "kind": "dual",
            "row": 1,
            "col": 3,
            "alpha_plus_beta": "9",
            "cost": "3",
        }

    def test_cyclic_plan_is_an_internal_fault(self, tmp_path, monkeypatch, capsys):
        # nw and oracle plans are basic (tests/test_core.py pins it); a stub
        # stands in for one that is not, a fault that ends in a traceback
        path = tmp_path / "flat.txt"
        path.write_text("2 2\n0 0\n0 0\n2 2\n2 2\n")
        cyclic = OracleResult(
            Fraction(0), TransportPlan({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}), 1
        )
        monkeypatch.setattr(cli, "enumerate_optimum", lambda instance: cyclic)
        for json_flag in ([], ["--json"]):
            with pytest.raises(CyclicBasisError, match=r"closed at cell \(1, 1\)"):
                cli.main(["solve", str(path), "--method", "oracle", "--certificate", *json_flag])
            assert capsys.readouterr().out == ""

    def test_oracle_guard_gives_exit_3(self, capsys):
        code, _, err = run(capsys, "solve", str(WORKED), "--method", "oracle")
        assert code == 3
        assert "size guard" in err

    def test_hungarian_fractional_marginals_exit_3(self, capsys):
        code, _, err = run(capsys, "solve", str(HALVES), "--method", "hungarian")
        assert code == 3
        assert "integer supplies and demands" in err

    def test_nw_handles_fractional_marginals(self, capsys):
        code, out, _ = run(capsys, "solve", str(HALVES), "--method", "nw")
        assert code == 0
        assert "total cost = 0" in out

    def test_trace_flag_is_inert_for_non_iterative_methods(self, capsys):
        code, out, _ = run(capsys, "solve", str(WORKED), "--method", "nw", "--trace")
        assert code == 0
        assert "trace:" not in out
        code, out, _ = run(
            capsys, "solve", str(TINY), "--method", "oracle", "--trace", "--json"
        )
        assert code == 0
        assert "trace" not in json.loads(out)

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "solve", "no-such-file.txt", "--method", "nw")
        assert code == 2
        assert "cannot read" in err

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2\n1 zz\n3 4\n1 1\n1 1\n")
        code, _, err = run(capsys, "solve", str(bad), "--method", "nw")
        assert code == 2
        assert "line 2" in err

    def test_number_over_the_digit_limit_exit_2(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text("1 2\n1e5000 0\n1\n1 0\n")
        limit = digit_limit()
        message = f"line 2, column 1: number '1e5000' exceeds the limit of {limit} digits"
        for argv in (("solve", str(path), "--method", "nw"), ("check-monge", str(path))):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("token", ["7" * 2**20, "x" * 2**20], ids=["digits", "letters"])
    def test_over_long_token_is_quoted_by_its_start(self, tmp_path, capsys, monkeypatch, token):
        # a 1 MB token gives a short error line, not a 1 MB one
        monkeypatch.chdir(tmp_path)
        Path("big.txt").write_text(f"1 1\n{token}\n1\n1\n")
        excerpt = f"'{token[:24]}'... ({len(token)} characters)"
        for argv in (("solve", "big.txt", "--method", "nw"), ("check-monge", "big.txt")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: big.txt: line 2, column 1: ")
            assert excerpt in err
            assert len(err.encode()) < 200

    def test_result_over_the_digit_limit_exit_2(self, tmp_path, capsys):
        # every input has at most `limit` digits, but the plan cost and the
        # Monge sum have one more, which str() refuses to print
        limit = digit_limit()
        long_cost = tmp_path / "long_cost.txt"
        long_cost.write_text(f"1 1\n1e{limit - 1}\n10\n10\n")
        long_sum = tmp_path / "long_sum.txt"
        long_sum.write_text(f"2 2\n9e{limit - 1} 0\n0 9e{limit - 1}\n1 1\n1 1\n")
        for argv in (
            ("solve", str(long_cost), "--method", "nw"),
            ("solve", str(long_cost), "--method", "hungarian", "--json"),
            ("check-monge", str(long_sum)),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == (
                f"error: {argv[1]}: a number in the result exceeds the limit of {limit} digits\n"
            )

    def test_trace_over_the_digit_limit_prints_nothing(self, tmp_path, capsys):
        # the plan cost 2/7 prints, but the trace's matrices are in units of
        # 1/7, where 9 * 10**(limit - 1) becomes 63 * 10**(limit - 1): one
        # digit over the limit, so no part of the report may be written
        limit = digit_limit()
        path = tmp_path / "scaled.txt"
        path.write_text(f"2 2\n9e{limit - 1} 1/7\n1/7 9e{limit - 1}\n1 1\n1 1\n")
        code, out, err = run(capsys, "solve", str(path), "--method", "hungarian")
        assert (code, out.splitlines()[-1], err) == (0, "total cost = 2/7", "")
        for flags in (("--trace",), ("--trace", "--json")):
            code, out, err = run(capsys, "solve", str(path), "--method", "hungarian", *flags)
            assert (code, out) == (2, "")
            assert err == (
                f"error: {path}: a number in the result exceeds the limit of {limit} digits\n"
            )

    def test_common_denominator_over_the_digit_limit(self, tmp_path, capsys):
        rng = random.Random(15)
        path = tmp_path / "deep.txt"
        rows = (" ".join(f"1/{rng.randrange(10**19, 10**20)}" for _ in range(80)) for _ in range(80))
        path.write_text("80 80\n" + "\n".join(rows) + "\n" + "1 " * 80 + "\n" + "1 " * 80 + "\n")
        limit = digit_limit()
        message = f"the common denominator of the costs exceeds the limit of {limit} digits"
        code, out, err = run(capsys, "check-monge", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")
        code, out, err = run(capsys, "solve", str(path), "--method", "hungarian")
        assert (code, out, err) == (3, "", f"error: method hungarian: {message}\n")

    def test_invalid_utf8_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin.txt"
        path.write_bytes(b"1 1\n\xff\xfe\n1\n1\n")
        for argv in (("solve", str(path), "--method", "nw"), ("check-monge", str(path))):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")

    def test_leading_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # as Notepad writes UTF-8: the bytes ef bb bf before the first line
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf" + WORKED.read_bytes())
        for argv in (("solve", "--method", "hungarian", "--certificate"), ("check-monge",)):
            expected = run(capsys, argv[0], str(WORKED), *argv[1:])
            assert expected[1] and not expected[2]  # a report, no error
            assert run(capsys, argv[0], str(path), *argv[1:]) == expected

    def test_huge_header_on_short_file_is_incomplete(self, tmp_path, capsys):
        short = tmp_path / "short.txt"
        short.write_text("1000000 1000000\n1 2 3\n")
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "solve", str(short), "--method", "hungarian")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert "line 2, column 1: incomplete instance" in err
        assert peak < 1 << 20

    def test_network_size_guard_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(hungarian, "MAX_NETWORK_LINES", 6)
        code, out, err = run(capsys, "solve", str(WORKED), "--method", "hungarian")
        assert code == 3
        assert out == ""
        assert err == (
            "error: method hungarian: zero network of a 3 x 4 instance has 7 lines, "
            "over the limit of 6\n"
        )
        narrow = tmp_path / "narrow.txt"
        narrow.write_text("2 4\n1 2 3 4\n4 3 2 1\n2 2\n1 1 1 1\n")
        code, out, _ = run(capsys, "solve", str(narrow), "--method", "hungarian")
        assert code == 0
        assert out.endswith("total cost = 6\n")

    def test_parse_size_cap_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_CELLS", 6)
        # the header of the worked example is on line 2
        message = "line 2, column 1: instance 3 x 4 has 12 cells, over the limit of 6"
        for argv in (("solve", str(WORKED), "--method", "nw"), ("check-monge", str(WORKED))):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err == f"error: {WORKED}: {message}\n"
        # the cap is checked before any cost is converted
        bad = "3 4\n1 zz 3 4\n1 2 3 4\n1 2 3 4\n4 4 4\n3 3 3 3\n"
        with pytest.raises(ParseError, match="^line 1, column 1: instance 3 x 4 has 12 cells"):
            parse_instance(bad)
        monkeypatch.setattr(cli, "MAX_CELLS", 12)
        code, out, _ = run(capsys, "solve", str(WORKED), "--method", "hungarian")
        assert code == 0
        assert out.endswith("total cost = 47\n")

    def test_size_cap_refuses_before_splitting_the_rows(self, monkeypatch):
        # one row of 200000 three-digit costs: 1.1 MiB of text, whose tokens
        # would take about 14 MiB
        monkeypatch.setattr(cli, "MAX_CELLS", 1000)
        text = "1 200000\n" + " ".join(["123"] * 200_000) + "\n1\n" + "1 " * 200_000 + "\n"
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as caught:
                parse_instance(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(caught.value) == (
            "line 1, column 1: instance 1 x 200000 has 200000 cells, over the limit of 1000"
        )
        assert peak < 2 << 20


class TestInterpreterLimitOff:
    """With the interpreter's own limit off (PYTHONINTMAXSTRDIGITS=0), inputs
    and results are held to the default bound all the same."""

    LIMIT = sys.int_info.default_max_str_digits

    def test_long_digit_run_exit_2(self, tmp_path, capsys, int_limit_off):
        path = tmp_path / "long_digits.txt"
        path.write_text("1 1\n" + "7" * 5000 + "\n1\n1\n")
        code, out, err = run(capsys, "check-monge", str(path))
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}: line 2, column 1: number '{'7' * 24}'... (5000 characters) "
            f"exceeds the limit of {self.LIMIT} digits\n"
        )
        assert sys.get_int_max_str_digits() == 0  # main restores the interpreter's setting

    def test_result_over_the_bound_exit_2(self, tmp_path, capsys, int_limit_off):
        path = tmp_path / "long_cost.txt"
        path.write_text(f"1 1\n1e{self.LIMIT - 1}\n10\n10\n")
        code, out, err = run(capsys, "solve", str(path), "--method", "nw")
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}: a number in the result exceeds the limit of {self.LIMIT} digits\n"
        )


class TestCheckMongeCommand:
    def test_worked_example_violated_exit_1(self, capsys):
        code, out, _ = run(capsys, "check-monge", str(WORKED))
        assert code == 1
        assert "MONGE: VIOLATED at (1, 1, 2, 2)" in out
        assert "= 16 > 8 =" in out

    def test_constant_costs_hold(self, tmp_path, capsys):
        path = tmp_path / "const.txt"
        path.write_text("2 2\n3 3\n3 3\n1 1\n1 1\n")
        code, out, _ = run(capsys, "check-monge", str(path))
        assert code == 0
        assert out == "MONGE: HOLDS\n"

    def test_adjacent_mode(self, capsys):
        code, _, _ = run(capsys, "check-monge", str(WORKED), "--mode", "adjacent")
        assert code == 1


# argv after `generate <kind>` for a 3 x 3 instance of every kind
SQUARE_3 = {
    "survey": ("3", "3"),
    "sum": ("--x", "1", "2", "3", "--y", "0", "1", "2",
            "--supply", "1", "1", "1", "--demand", "1", "1", "1"),
    "factored": ("--x", "3", "2", "1", "--y", "1", "2", "3",
                 "--supply", "1", "1", "1", "--demand", "1", "1", "1"),
    "convexdiff": ("--f", "abs", "--x", "1", "2", "3", "--y", "0", "2", "4",
                   "--supply", "1", "1", "1", "--demand", "1", "1", "1"),
    "problemp": ("--x", "0", "1", "2", "--y", "0", "1", "2",
                 "--p-row", "1/3", "1/3", "1/3", "--p-col", "1/3", "1/3", "1/3"),
}


class TestGenerateCommand:
    def test_survey_unit_marginals(self, capsys):
        code, out, _ = run(capsys, "generate", "survey", "3", "3")
        assert code == 0
        assert out == "3 3\n0 1 2\n1 0 1\n2 1 0\n1 1 1\n1 1 1\n"

    def test_survey_imbalanced_defaults_exit_2(self, capsys):
        code, _, err = run(capsys, "generate", "survey", "2", "3")
        assert code == 2
        assert "unbalanced" in err

    @pytest.mark.parametrize(
        "sizes, bad",
        [(("a", "3"), "a"), (("3", "2.5"), "2.5"), (("0", "3"), "0"), (("3", "-1"), "-1")],
    )
    def test_survey_malformed_size_exit_2(self, capsys, sizes, bad):
        code, out, err = run(capsys, "generate", "survey", *sizes)
        assert code == 2
        assert out == ""
        assert err == f"error: survey sizes must be positive integers, got {bad!r}\n"

    def test_survey_size_guard_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_CELLS", 6)
        code, out, err = run(capsys, "generate", "survey", "2", "4")
        assert code == 2
        assert out == ""
        assert "8 cells" in err and "limit of 6" in err
        code, out, _ = run(capsys, "generate", "survey", "2", "3", "--demand", "1", "1", "0")
        assert code == 0
        assert out.startswith("2 3\n")

    @pytest.mark.parametrize("kind", SQUARE_3)
    def test_size_cap_refuses_every_kind_before_building(self, capsys, monkeypatch, kind):
        def builder(*args, **kwargs):
            raise AssertionError("a builder ran on over-cap input")

        for name in ("new_instance", "sum_cost", "factored_cost", "convex_diff_cost",
                     "problem_p_instance"):
            monkeypatch.setattr(cli, name, builder)
        monkeypatch.setattr(cli, "MAX_CELLS", 8)
        code, out, err = run(capsys, "generate", kind, *SQUARE_3[kind])
        assert code == 2
        assert out == ""
        assert err == f"error: {kind} 3 x 3 has 9 cells, over the limit of 8\n"

    @pytest.mark.parametrize("kind", SQUARE_3)
    def test_every_kind_at_the_size_cap_writes_a_readable_file(self, capsys, monkeypatch, kind):
        monkeypatch.setattr(cli, "MAX_CELLS", 9)
        code, out, err = run(capsys, "generate", kind, *SQUARE_3[kind])
        assert code == 0
        assert err == ""
        instance = parse_instance(out)
        assert (instance.m, instance.n) == (3, 3)

    def test_sum_kind(self, capsys):
        code, out, _ = run(
            capsys, "generate", "sum", "--x", "1", "2", "--y", "10", "20",
            "--supply", "2", "3", "--demand", "1", "4",
        )
        assert code == 0
        assert out == "2 2\n11 21\n12 22\n2 3\n1 4\n"

    def test_problemp_kind_solves_to_zero(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "generate", "problemp", "--f", "square", "--x", "0", "1",
            "--y", "0", "1", "--p-row", "1/2", "1/2", "--p-col", "1/2", "1/2",
        )
        assert code == 0
        path = tmp_path / "p.txt"
        path.write_text(out)
        code, solved, _ = run(capsys, "solve", str(path), "--method", "nw")
        assert code == 0
        assert "total cost = 0" in solved

    def test_convexdiff_passes_monge(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "generate", "convexdiff", "--f", "abs", "--x", "1", "2", "4",
            "--y", "0", "2", "5", "--supply", "1", "2", "1", "--demand", "2", "1", "1",
        )
        assert code == 0
        path = tmp_path / "cd.txt"
        path.write_text(out)
        code, verdict, _ = run(capsys, "check-monge", str(path))
        assert code == 0
        assert verdict == "MONGE: HOLDS\n"

    def test_generated_files_agree_across_methods(self, tmp_path, capsys):
        recipes = [
            ("generate", "survey", "4", "4"),
            ("generate", "factored", "--x", "3", "2", "1", "--y", "1", "2", "3",
             "--supply", "2", "2", "1", "--demand", "1", "3", "1"),
            ("generate", "sum", "--x", "1", "5", "--y", "2", "0",
             "--supply", "3", "1", "--demand", "2", "2"),
            ("generate", "convexdiff", "--f", "square", "--x", "0", "1", "3",
             "--y", "1", "2", "2", "--supply", "1", "1", "2", "--demand", "2", "1", "1"),
        ]
        for k, recipe in enumerate(recipes):
            code, out, _ = run(capsys, *recipe)
            assert code == 0
            path = tmp_path / f"gen{k}.txt"
            path.write_text(out)
            costs = {}
            for method in ("nw", "hungarian"):
                code, solved, _ = run(capsys, "solve", str(path), "--method", method)
                assert code == 0
                costs[method] = solved.splitlines()[-1]
            assert costs["nw"] == costs["hungarian"]

    def test_missing_required_options_exit_2(self, capsys):
        code, _, err = run(capsys, "generate", "factored", "--x", "1")
        assert code == 2
        assert "requires" in err

    def test_factored_order_warning_is_one_stable_line(self, capsys):
        code, out, err = run(
            capsys, "generate", "factored", "--x", "1", "2", "--y", "1", "2",
            "--supply", "1", "1", "--demand", "1", "1",
        )
        assert code == 0
        assert out == "2 2\n1 2\n2 4\n1 1\n1 1\n"
        assert err == (
            "warning: factored cost without greedy-optimality guarantee: "
            "x and y both rise, or both fall, somewhere\n"
        )
        # one column: every matrix is Monge, whatever the order of x
        code, out, err = run(
            capsys, "generate", "factored", "--x", "1", "2", "--y", "1",
            "--supply", "1", "1", "--demand", "2",
        )
        assert code == 0
        assert out == "2 1\n1\n2\n1 1\n2\n"
        assert err == ""

    @pytest.mark.parametrize(
        "x, y",
        [
            (("3", "2", "1"), ("1", "2", "3")),
            (("1", "2", "3"), ("3", "2", "1")),  # the mirror order
            (("1", "-1"), ("0", "2")),
            (("-0.5", "1/3", "1/3"), ("2", "2", "-5")),
            (("1", "2"), ("1", "2")),
            (("2", "1"), ("-1", "-3")),
            (("2", "1", "3"), ("1", "3", "2")),
        ],
    )
    def test_factored_warns_exactly_when_check_monge_fails(self, tmp_path, capsys, x, y):
        code, out, err = run(
            capsys, "generate", "factored", "--x", *x, "--y", *y,
            "--supply", *["1"] * len(x), "--demand", *["1"] * len(y),
        )
        assert code == 0
        path = tmp_path / "factored.txt"
        path.write_text(out)
        code, _, _ = run(capsys, "check-monge", str(path))
        assert code in (0, 1)
        assert (err != "") == (code == 1)

    def test_malformed_value_exit_2(self, capsys):
        code, _, err = run(
            capsys, "generate", "sum", "--x", "one", "--y", "1",
            "--supply", "1", "--demand", "1",
        )
        assert code == 2
        assert "malformed number" in err

    @pytest.mark.parametrize(
        "value, cost", [("-1/2", "1/2"), ("-1e1", "-9"), ("-1E+1", "-9"), ("-.5", "1/2")]
    )
    def test_a_negative_value_of_any_form_is_a_value(self, capsys, value, cost):
        # argparse alone reads only -5 and -0.5 as values; the --y right
        # after the negative value must still parse as an option
        code, out, err = run(
            capsys, "generate", "sum", "--x", "1", value, "--y", "1",
            "--supply", "1", "1", "--demand", "2",
        )
        assert (code, err) == (0, "")
        assert out == f"2 1\n2\n{cost}\n1 1\n2\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("sum", "--x", "1", "1", "--y", "1", "--supply", "3/2", "-1/2", "--demand", "1"),
             "supply 1 is negative: -1/2"),
            (("sum", "--x", "1", "--y", "-2", "1", "--supply", "1", "--demand", "2", "-1e0"),
             "demand 1 is negative: -1"),
            (("problemp", "--x", "0", "1", "--y", "0", "--p-row", "3/2", "-1/2", "--p-col", "1"),
             "marginal probabilities must be nonnegative"),
            (("problemp", "--x", "0", "--y", "0", "1", "--p-row", "1", "--p-col", "-1e1", "11"),
             "marginal probabilities must be nonnegative"),
        ],
    )
    def test_every_number_option_takes_negative_values(self, capsys, argv, message):
        code, out, err = run(capsys, "generate", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_number_over_the_digit_limit_exit_2(self, capsys):
        code, out, err = run(
            capsys, "generate", "sum", "--x", "1e5000", "--y", "1",
            "--supply", "1", "--demand", "1",
        )
        limit = digit_limit()
        assert (code, out) == (2, "")
        assert err == f"error: number '1e5000' exceeds the limit of {limit} digits in --x\n"

    def test_result_over_the_digit_limit_exit_2(self, capsys):
        limit = digit_limit()
        big = f"9e{limit - 1}"  # limit digits; the sum of two has one more
        code, out, err = run(
            capsys, "generate", "sum", "--x", big, "--y", big, "--supply", "1", "--demand", "1"
        )
        assert (code, out) == (2, "")
        assert err == f"error: a number in the result exceeds the limit of {limit} digits\n"

    def test_generated_output_round_trips(self, capsys):
        code, out, _ = run(capsys, "generate", "survey", "3", "3")
        assert code == 0
        assert serialize_instance(parse_instance(out)) == out


class TestEntryPoint:
    """The CLI as the console script and `python -m` run it: a fresh
    interpreter with the checkout's `src` on the path."""

    ROOT = Path(__file__).resolve().parent.parent

    def python(self, *args, **environ):
        path = os.environ.get("PYTHONPATH")
        src = str(self.ROOT / "src")
        env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src, **environ)
        return subprocess.run(
            [sys.executable, *args], capture_output=True, env=env, cwd=self.ROOT, timeout=60
        )

    def test_import_loads_no_dataclasses_inspect_or_json(self):
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import transopt.cli\n"
            "print(*sorted(set(sys.modules) - before))\n"
        )
        proc = self.python("-c", script)
        assert proc.returncode == 0, proc.stderr
        added = set(proc.stdout.decode().split())
        assert "transopt.cli" in added
        assert not {"dataclasses", "inspect", "json"} & added

    def test_module_entry_prints_the_golden_trace(self):
        proc = self.python(
            "-m", "transopt.cli", "solve", "tests/data/worked_example.txt",
            "--method", "hungarian", "--trace", "--certificate",
        )
        assert proc.returncode == 0
        assert proc.stderr == b""
        assert proc.stdout == GOLDEN_TRACE.read_bytes()

    def test_interpreter_limit_off_by_the_environment(self, tmp_path):
        limit = sys.int_info.default_max_str_digits
        long_digits = tmp_path / "long_digits.txt"
        long_digits.write_text("1 1\n" + "7" * 5000 + "\n1\n1\n")
        long_cost = tmp_path / "long_cost.txt"
        long_cost.write_text(f"1 1\n1e{limit - 1}\n10\n10\n")
        for argv in (
            ("check-monge", str(long_digits)),
            ("solve", str(long_cost), "--method", "nw"),
        ):
            proc = self.python("-m", "transopt.cli", *argv, PYTHONINTMAXSTRDIGITS="0")
            assert (proc.returncode, proc.stdout) == (2, b"")
            assert proc.stderr.startswith(f"error: {argv[1]}: ".encode())
