import argparse
import contextlib
import io
import json
from fractions import Fraction
from itertools import accumulate

import pytest

from trumpkit import catalysis, cli, make_probvec, mlocc, renyi
from trumpkit.cli import main
from trumpkit.specvec import load_vector

from conftest import brute_tensor, brute_tensor_power, corpus_path

X = str(corpus_path("x_0.4_0.4_0.1_0.1.json"))
Y = str(corpus_path("y_0.5_0.25_0.25_0.json"))
Y3 = str(corpus_path("y_0.5_0.25_0.25.json"))
Z = str(corpus_path("z_0.6_0.4.json"))
ZP = str(corpus_path("zprime_0.55_0.45.json"))
# both endpoint tests pass and one copy fails; the order-2 power sum
# refutes every k and every catalyst
MID_X = str(corpus_path("x_0.6_0.3_0.05_0.05.json"))
MID_Y = str(corpus_path("y_0.6_0.25_0.1_0.05.json"))
# x_1 > y_1 excludes every k and every catalyst; no power sum refutes it
HEAD_X = str(corpus_path("x_0.41_0.2_0.2_0.19.json"))
HEAD_Y = str(corpus_path("y_0.4_0.4_0.1_0.1.json"))
FIVE_X = str(corpus_path("x_0.425_0.325_0.125_0.1_0.025.json"))
FIVE_Y = str(corpus_path("y_0.5_0.2_0.2_0.075_0.025.json"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestMajorizeCommand:
    def test_paper_pair_exit_one(self, capsys):
        code, out = run(capsys, "majorize", "--x", X, "--y", Y, "--json")
        assert code == 1
        rep = json.loads(out)
        assert rep["verdict"] == "fails"
        assert rep["first_violation"]["l"] == "2"

    def test_identical_files_exit_zero(self, capsys):
        code, _ = run(capsys, "majorize", "--x", Y, "--y", Y)
        assert code == 0

    def test_malformed_input_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run(capsys, "majorize", "--x", str(bad), "--y", Y)
        assert code == 2

    def test_dimension_mismatch_exit_two(self, capsys):
        code, _ = run(capsys, "majorize", "--x", X, "--y", Y3)
        assert code == 2


class TestMloccCommand:
    def test_first_success_three(self, capsys):
        code, out = run(capsys, "mlocc", "--x", X, "--y", Y, "--k-max", "4",
                        "--json")
        assert code == 0
        scan = json.loads(out)
        assert scan["first_success"] == 3

    def test_kmax_too_small_reports_unknown(self, capsys):
        code, out = run(capsys, "mlocc", "--x", X, "--y", Y, "--k-max", "2",
                        "--json")
        assert code == 1
        assert json.loads(out)["flag"] == "unknown"

    def test_dimension_mismatch_prints_both_dimensions(self, capsys):
        code = main(["mlocc", "--x", X, "--y", Y3])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert ("dimension mismatch: 4 vs 3 (pad explicitly)"
                in captured.err)

    def test_filtered_pair_reports_not_member(self, tmp_path, capsys):
        xf = tmp_path / "x.json"
        xf.write_text('["0.6", "0.2", "0.1", "0.1"]')
        code, out = run(capsys, "mlocc", "--x", str(xf), "--y", Y, "--json")
        assert code == 1
        assert json.loads(out)["flag"] == "not_member"


class TestCatalystCommand:
    def test_build_auto_detects_k(self, capsys):
        code, out = run(capsys, "catalyst", "build", "--x", X, "--y", Y,
                        "--json")
        assert code == 0
        cert = json.loads(out)
        assert cert["verified"]
        assert len(cert["catalyst"]) == 48

    def test_scan_eight_copies(self, capsys):
        code, out = run(capsys, "catalyst", "scan", "--x", X, "--y", Y,
                        "--c", ZP, "--m-max", "8", "--json")
        assert code == 0
        result = json.loads(out)
        assert result["1"] is False
        assert result["8"] is True

    def test_search_dim2(self, capsys):
        code, out = run(capsys, "catalyst", "search", "--x", X, "--y", Y,
                        "--dim-c", "2", "--budget", "10000", "--json")
        assert code == 0
        assert json.loads(out)["verified"]

    def test_lift(self, capsys):
        code, out = run(capsys, "catalyst", "lift", "--x", X, "--y", Y,
                        "--c", Z, "--n-copies", "2", "--json")
        assert code == 0
        assert json.loads(out)["verified"]

    @pytest.mark.parametrize("argv", [("build", "--k", "3"),
                                      ("lift", "--c", Z, "--n-copies", "3")])
    def test_transcript_is_brute_prefix_sums(self, capsys, argv):
        code, out = run(capsys, "catalyst", *argv, "--x", X, "--y", Y,
                        "--transcript", "--json")
        assert code == 0
        cert = json.loads(out)
        c = make_probvec([Fraction(v) for v in cert["catalyst"]])
        ex = list(accumulate(brute_tensor(load_vector(X), c)))
        ey = list(accumulate(brute_tensor(load_vector(Y), c)))
        assert cert["transcript"] == [
            {"l": l, "ex": str(ex[l - 1]), "ey": str(ey[l - 1])}
            for l in range(1, min(len(ex), 64))]

    def test_transcript_reuses_the_lifted_spectrum(self, capsys,
                                                   monkeypatch):
        argv = ("catalyst", "lift", "--x", X, "--y", Y, "--c", Z,
                "--n-copies", "3", "--transcript", "--json")
        want = run(capsys, *argv)
        real = catalysis.lift_catalyst

        def lift_then_refuse(*args):
            cert = real(*args)

            def refuse(*a, **kw):
                raise AssertionError("rebuilt c^(x)n")
            monkeypatch.setattr(catalysis, "tensor_power_spectrum", refuse)
            return cert
        monkeypatch.setattr(catalysis, "lift_catalyst", lift_then_refuse)
        assert run(capsys, *argv) == want
        assert want[0] == 0

    def test_lift_json_is_the_tensor_power(self, capsys):
        _, out = run(capsys, "catalyst", "lift", "--x", X, "--y", Y,
                     "--c", Z, "--n-copies", "3", "--json")
        full = brute_tensor_power(load_vector(Z), 3)
        assert json.loads(out)["catalyst"] == [str(v) for v in full]

    def test_build_sweeps_once(self, capsys, monkeypatch):
        calls = []
        real = mlocc._sweep

        def counting(*args, **kwargs):
            calls.append(args[3])
            return real(*args, **kwargs)
        monkeypatch.setattr(mlocc, "_sweep", counting)
        code, out = run(capsys, "catalyst", "build", "--x", X, "--y", Y,
                        "--k-max", "4", "--json")
        assert code == 0
        assert calls == [4]
        cert = json.loads(out)
        assert cert["verified"]
        assert cert["source"] == "thm1_construction(k=3)"

    def test_build_at_a_non_member_k_exit_two(self, capsys):
        code = main(["catalyst", "build", "--x", X, "--y", Y, "--k", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error: precondition fails: x^(x)2 not "
                                "majorized by y^(x)2\n")

    def test_combine_bad_premise_exit_two(self, capsys):
        code, _ = run(capsys, "catalyst", "combine", "--x", X, "--y", Y,
                      "--c", ZP, "--k", "1")
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (("scan",), "scan requires --c"),
        (("lift", "--n-copies", "2"), "lift requires --c"),
        (("combine", "--c", Z), "combine requires --c and --k"),
        (("combine", "--k", "3"), "combine requires --c and --k")])
    def test_missing_option_exit_two(self, capsys, argv, message):
        code = main(["catalyst", *argv, "--x", X, "--y", Y])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message


class TestPowerSumRefutationCommands:
    def test_mlocc_reports_not_member_with_order(self, capsys):
        code, out = run(capsys, "mlocc", "--x", MID_X, "--y", MID_Y,
                        "--k-max", "30", "--json")
        assert code == 1
        scan = json.loads(out)
        assert scan["flag"] == "not_member"
        assert scan["refuting_order"] == 2
        assert scan["short_circuited"] is False
        assert set(scan["results"].values()) == {"fails"}

    def test_mlocc_plain_text_prints_order(self, capsys):
        code, out = run(capsys, "mlocc", "--x", MID_X, "--y", MID_Y)
        assert code == 1
        assert "refuting_order: 2" in out

    def test_search_reports_none(self, capsys):
        code, out = run(capsys, "catalyst", "search", "--x", MID_X, "--y",
                        MID_Y, "--dim-c", "3", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["result"] == "none"
        assert payload["refuting_order"] == 2
        assert "no catalyst of any dimension" in payload["note"]

    @pytest.mark.parametrize("argv, result", [
        ((MID_X, "--y", MID_Y), "none"),
        ((X, "--y", Y, "--budget", "0"), "absent")])
    def test_search_asks_the_power_sums_once(self, capsys, monkeypatch,
                                             argv, result):
        calls = []
        real = renyi.power_sum_refutation

        def counting(sx, sy):
            calls.append((sx, sy))
            return real(sx, sy)
        monkeypatch.setattr(renyi, "power_sum_refutation", counting)
        code, out = run(capsys, "catalyst", "search", "--x", *argv, "--json")
        assert code == 1
        assert json.loads(out)["result"] == result
        assert len(calls) == 1

    def test_search_absence_stays_heuristic(self, capsys):
        code, out = run(capsys, "catalyst", "search", "--x", X, "--y", Y,
                        "--dim-c", "2", "--budget", "3", "--json")
        assert code == 1
        assert json.loads(out)["result"] == "absent"

    @pytest.mark.parametrize("flag, value", [("--budget", "-5"),
                                             ("--dim-c", "0")])
    def test_search_bad_size_exit_two(self, capsys, flag, value):
        code, out = run(capsys, "catalyst", "search", "--x", X, "--y", Y,
                        flag, value)
        assert code == 2
        assert out == ""

    def test_search_dimension_mismatch_exit_two(self, capsys):
        code, _ = run(capsys, "catalyst", "search", "--x", X, "--y", Y3)
        assert code == 2

    def test_build_auto_k_reports_no_k_exists(self, capsys):
        code, out = run(capsys, "catalyst", "build", "--x", MID_X, "--y",
                        MID_Y, "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["error"].startswith("no k exists")
        assert payload["refuting_order"] == 2


class TestEndpointCommands:
    def test_search_reports_none(self, capsys):
        code, out = run(capsys, "catalyst", "search", "--x", HEAD_X, "--y",
                        HEAD_Y, "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["result"] == "none"
        assert payload["failed_endpoint"] == "x_1 <= y_1"
        assert "endpoint test x_1 <= y_1 fails" in payload["note"]
        assert "refuting_order" not in payload

    def test_search_reports_failed_tail(self, tmp_path, capsys):
        xf = tmp_path / "x.json"
        xf.write_text('["0.3", "0.3", "0.35", "0.05"]')
        code, out = run(capsys, "catalyst", "search", "--x", str(xf),
                        "--y", HEAD_Y, "--json")
        assert code == 1
        assert json.loads(out)["failed_endpoint"] == "x_n >= y_n"

    def test_build_auto_k_reports_no_k_exists(self, capsys):
        code, out = run(capsys, "catalyst", "build", "--x", HEAD_X, "--y",
                        HEAD_Y, "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["error"].startswith(
            "no k exists: the endpoint test fails")
        assert payload["failed_endpoint"] == "x_1 <= y_1"


class TestClassifyCommand:
    def test_three_dim_not_useful(self, capsys):
        code, out = run(capsys, "classify", "--y", Y3, "--json")
        assert code == 0
        assert json.loads(out)["useful"] is False

    def test_padded_is_useful(self, capsys):
        code, out = run(capsys, "classify", "--y", Y, "--json")
        assert code == 0
        verdict = json.loads(out)
        assert verdict["useful"] is True
        assert verdict["witness_x"] == ["3/8", "3/8", "1/8", "1/8"]

    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, oops")
        code, _ = run(capsys, "classify", "--y", str(bad))
        assert code == 2


class TestRFilterCommand:
    def test_forward_no_violation(self, capsys):
        code, out = run(capsys, "rfilter", "--x", X, "--y", Y, "--json")
        assert code == 0
        assert json.loads(out)["status"] == "no_violation_found"

    def test_reversed_violated(self, capsys):
        code, out = run(capsys, "rfilter", "--x", Y, "--y", X, "--json")
        assert code == 1
        assert json.loads(out)["status"] == "violated"

    def test_custom_alpha_grid(self, capsys):
        code, out = run(capsys, "rfilter", "--x", X, "--y", Y,
                        "--alpha-grid", "0,2,4", "--json")
        assert code == 0

    @pytest.mark.parametrize("grid, floats", [("0.5,2", True),
                                              ("0,2,4", False)])
    def test_reports_float_orders(self, capsys, grid, floats):
        _, out = run(capsys, "rfilter", "--x", X, "--y", Y,
                     "--alpha-grid", grid, "--json")
        assert json.loads(out)["float_alphas_used"] is floats

    def test_large_non_integer_orders_give_a_verdict(self, capsys,
                                                     tmp_path):
        # at -200.5 a term of the float power sum overflows on the first
        # pair; at 2000.5 the sum underflows to 0 on the second
        half = tmp_path / "half.json"
        half.write_text('["1/2", "1/2"]')
        for x, y, grid in ((FIVE_X, FIVE_Y, "-200.5"),
                           (half, half, "2000.5")):
            code = main(["rfilter", "--x", str(x), "--y", str(y),
                         "--alpha-grid=" + grid, "--json"])
            out, err = capsys.readouterr()
            assert code in (0, 1) and err == ""
            assert json.loads(out)["grid_used"][-1] == float(grid)


    def test_empty_alpha_grid_exits_two(self, capsys):
        # an empty list of orders is an input error, as in r_filter, not
        # the default grid
        code = main(["rfilter", "--x", X, "--y", Y, "--alpha-grid="])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: empty alpha grid\n"

    def test_nan_order_exits_two_on_a_majorized_pair(self, capsys):
        # the walk settles this pair, but the grid is still read in full
        code = main(["rfilter", "--x", X, "--y", MID_X,
                     "--alpha-grid=nan,2"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


class TestReproducibility:
    def test_rerun_is_byte_identical(self, capsys):
        args = ("catalyst", "search", "--x", X, "--y", Y, "--dim-c", "2",
                "--budget", "2000", "--seed", "5", "--json")
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2

    def test_json_roundtrips(self, capsys):
        for argv in (("majorize", "--x", X, "--y", Y, "--json"),
                     ("mlocc", "--x", X, "--y", Y, "--json"),
                     ("rfilter", "--x", X, "--y", Y, "--json")):
            _, out = run(capsys, *argv)
            assert json.loads(out) is not None


class TestVectorFiles:
    @pytest.mark.parametrize("text", ['[null, "1"]', '["0.5", ["0.5"]]',
                                      '["1/0"]', '[true, false]'])
    def test_malformed_entries_exit_two(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main(["classify", "--y", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")

    def test_json_numbers_match_string_literals(self, tmp_path, capsys):
        xf = tmp_path / "x.json"
        xf.write_text("[0.4, 0.4, 0.1, 0.1]")
        _, from_numbers = run(capsys, "mlocc", "--x", str(xf), "--y", Y,
                              "--json")
        _, from_strings = run(capsys, "mlocc", "--x", X, "--y", Y, "--json")
        assert from_numbers == from_strings

    def test_json_numbers_are_read_as_written(self, tmp_path):
        f = tmp_path / "v.json"
        f.write_text("[0.1, 0.2, 0.7]")
        v = load_vector(f)
        assert v.total_mass() == 1
        assert v.entries == (Fraction(7, 10), Fraction(1, 5),
                             Fraction(1, 10))

    @pytest.mark.parametrize("flag", [["--backend", "float"],
                                      ["--eps", "1e-9"]])
    def test_removed_flags_are_usage_errors(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["majorize", "--x", X, "--y", Y, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


_shipped_parser = cli._build_parser


def _full_parser(argv=None):
    """The reference parser: all five subcommands of cli._SUBCOMMANDS with
    their arguments and no metavar, built without cli._build_parser."""
    parser = argparse.ArgumentParser(
        prog="trumpkit", description=_shipped_parser([]).description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _) in cli._SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestParserSurface:
    """main with the per-call parser answers as the full parser does."""

    FILES = ["--x", X, "--y", Y]

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help"], ["-h", "majorize"],
        *([cmd, "-h"] for cmd in cli._SUBCOMMANDS),
        ["foo"], ["-1"], ["--json"],
        ["--", "majorize", *FILES], ["--bogus", "majorize", *FILES],
        ["majorize", *FILES, "--bogus"], ["majorize", "mlocc", *FILES],
        ["catalyst", "frob", *FILES], ["mlocc", "--k-max", "x", *FILES],
        ["classify", "--x", X, "--y", Y], ["rfilter", "--x", X],
        ["--json", "mlocc", *FILES, "--k-max", "2"],
        ["catalyst", "scan", *FILES, "--c", ZP, "--m-max", "2", "--json"],
        # a leading subcommand is the only one registered: its help, its
        # own errors and the top-level usage line of unrecognized arguments
        ["majorize", *FILES, "--he"], ["majorize"], ["catalyst", *FILES],
        ["mlocc", *FILES, "--k-max"], ["classify", "--y", Y, "stray"],
        ["catalyst", "build", *FILES, "--bogus", "--json"],
        ["rfilter", *FILES, "--alpha-grid=-2"]])
    def test_same_bytes_as_the_full_parser(self, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        shipped = _outcome(argv)
        monkeypatch.setattr(cli, "_build_parser", _full_parser)
        assert _outcome(argv) == shipped

    @pytest.mark.parametrize("argv, built", [
        (["majorize", *FILES], 1), (["mlocc", *FILES, "--k-max", "2"], 1),
        (["catalyst", "build", *FILES, "--k-max", "2"], 1),
        (["classify", "--y", Y], 1), (["rfilter", *FILES], 1),
        ([], 5), (["-h"], 5), (["foo"], 5),
        (["--json", "mlocc", *FILES, "--k-max", "2"], 5)])
    def test_a_leading_subcommand_builds_one_subparser(self, monkeypatch,
                                                       argv, built):
        add_parser = argparse._SubParsersAction.add_parser
        names = []

        def counting(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)
        monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                            counting)
        _outcome(argv)
        assert names == (argv[:1] if built == 1 else list(cli._SUBCOMMANDS))

    def test_only_the_dispatched_subcommand_gets_arguments(self):
        parser = cli._build_parser(["--bogus", "rfilter", "--x", "mlocc"])
        sub = next(a for a in parser._actions if a.dest == "command")
        have = {name: [a.dest for a in sp._actions if a.dest != "help"]
                for name, sp in sub.choices.items()}
        assert have == {"majorize": [], "mlocc": [], "catalyst": [],
                        "classify": [], "rfilter": ["x", "y", "as_json",
                                                    "alpha_grid"]}
