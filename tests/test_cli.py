import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hirzebruch.chern
from hirzebruch.catalog import construct, h_n, parse_spec
from hirzebruch.chern import cpn_chern_numbers
from hirzebruch.cli import build_parser, main
from hirzebruch.gaussian import parse_gaussian
from hirzebruch.localization import cpn_fixed_points


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_todd(capsys):
    code, out, _ = run(capsys, "expand", "--series", "todd", "--order", "4")
    assert code == 0
    assert out.strip() == "1, 1/2, 1/12, 0, -1/720"


def test_expand_json_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "expand", "--series", "dab:a=1,b=1/2", "--order", "8", "--json")
    assert code == 0
    path = tmp_path / "series.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "expand", "--series", f"file:{path}", "--json")
    assert code == 0
    assert json.loads(out) == json.loads(out2)


def test_expand_file_honours_order(capsys, tmp_path):
    code, out, _ = run(capsys, "expand", "--series", "dab:a=1,b=1/2", "--order", "8", "--json")
    assert code == 0
    path = tmp_path / "series.json"
    path.write_text(out)
    code, out4, _ = run(capsys, "expand", "--series", f"file:{path}", "--order", "4")
    assert code == 0
    assert out4.strip() == "1, 1/2, 1/3, 0, -1/45"


def test_classify_file_honours_order(capsys, tmp_path):
    # classify reads every degree H is known to: a file keeps only those asked for
    data = json.loads(run(capsys, "expand", "--series", "todd", "--order", "8", "--json")[1])
    data["coeffs"][8] = {"re": "1", "im": "0"}
    path = tmp_path / "series.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "classify", "--series", f"file:{path}", "--order", "7")
    assert code == 0 and out.startswith("GT series, case D")
    code, out, _ = run(capsys, "classify", "--series", f"file:{path}")
    assert code == 0 and "first mismatch at degree 8" in out


@pytest.mark.parametrize("order, text", [(0, "1"), (1, "1, 1/2")], ids=["order-0", "order-1"])
@pytest.mark.parametrize("source", ["spec", "file"])
def test_expand_below_order_two_prints_the_degrees_asked(capsys, tmp_path, source, order, text):
    # H is built to the order asked, and expand prints its degrees 0..order
    series = "todd"
    if source == "file":
        path = tmp_path / "todd.json"
        path.write_text(run(capsys, "expand", "--series", "todd", "--json")[1])
        series = f"file:{path}"
    argv = ("expand", "--series", series, "--order", str(order))
    assert run(capsys, *argv) == (0, text + "\n", "")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out) == {"valuation": 0, "order": order,
                               "coeffs": [{"re": c, "im": "0"} for c in text.split(", ")]}


SHORT_TODD = {"valuation": 0, "order": 1, "coeffs": [{"re": "1", "im": "0"},
                                                      {"re": "1/2", "im": "0"}]}


@pytest.mark.parametrize("order, text", [(None, "1, 1/2"), ("0", "1"), ("1", "1, 1/2")],
                         ids=["default-order", "order-0", "order-1"])
def test_expand_prints_a_file_known_below_order_two(capsys, tmp_path, order, text):
    path = tmp_path / "short.json"
    path.write_text(json.dumps(SHORT_TODD))
    argv = ("expand", "--series", f"file:{path}") + (("--order", order) if order else ())
    assert run(capsys, *argv) == (0, text + "\n", "")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out) == {"valuation": 0, "order": len(text.split(", ")) - 1,
                               "coeffs": SHORT_TODD["coeffs"][:len(text.split(", "))]}


@pytest.mark.parametrize("argv, need", [
    (["cpn", "--n", "1"], None), (["chern", "--kn", "1"], None),
    (["localize", "--weights", "0,1", "--order", "0"], None),
    (["rigidity", "--max-n", "1", "--order", "2"], "needs H to order 3, have 1"),
    (["classify", "--order", "1"], "classification needs order >= 4"),
], ids=["cpn", "chern", "localize", "rigidity", "classify"])
def test_a_short_file_answers_what_its_degrees_determine(capsys, tmp_path, argv, need):
    # a file known to order 1 answers a verb that reads degrees 0..1 as todd
    # does; any other verb refuses it with the order its computation needs
    path = tmp_path / "short.json"
    path.write_text(json.dumps(SHORT_TODD))
    code, out, err = run(capsys, argv[0], "--series", f"file:{path}", *argv[1:])
    if need is None:
        assert code == 0
        assert (code, out, err) == run(capsys, argv[0], "--series", "todd", *argv[1:])
    else:
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and need in err


def test_expand_keeps_the_constant_term_check_on_a_short_file(capsys, tmp_path):
    data = dict(SHORT_TODD, coeffs=[{"re": "2", "im": "0"}, {"re": "1/2", "im": "0"}])
    path = tmp_path / "short.json"
    path.write_text(json.dumps(data))
    for order in ("0", "1"):
        code, out, err = run(capsys, "expand", "--series", f"file:{path}", "--order", order)
        assert (code, out) == (1, "")
        assert "constant term 1" in err


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["expand", "--help"], ["localize", "-h"]],
                         ids=" ".join)
def test_help_returns_zero_from_main(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: genus")


def test_cpn_closed_form(capsys):
    code, out, _ = run(capsys, "cpn", "--series", "txy:x=2,y=3", "--n", "2", "--closed-form")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "7"
    assert lines[1] == "closed form: 7"


def test_catalog_lists_families(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "todd" in out and "dab:a=<q(i)>,b=<q(i)>" in out


def test_chern_kn_dump(capsys):
    code, out, _ = run(capsys, "chern", "--series", "todd", "--kn", "2")
    assert code == 0
    assert "[1, 1]: 1/12" in out and "[2]: 1/12" in out


@pytest.mark.parametrize("spec", ["euler:a=0", "gab:a=1,b=0", "dab:a=1,b=0", "txy:x=-8/7,y=-8/7"])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_chern_kn_text_lines_pair_to_h_n(capsys, spec, n):
    # Even series have zero odd K_n; the text form must still print one
    # `partition: value` line, which pairs with CP^n to h_n like any other.
    code, out, _ = run(capsys, "chern", "--series", spec, "--kn", str(n))
    assert code == 0
    lines = out.splitlines()
    assert lines
    numbers = cpn_chern_numbers(n).terms
    total = 0
    for line in lines:
        key, sep, value = line.partition(": ")
        partition = tuple(json.loads(key))
        assert sep and sum(partition) == n
        total += parse_gaussian(value) * numbers[partition]
    assert total == h_n(construct(parse_spec(spec), max(n, 2)), n)


def test_chern_data_evaluation(capsys, tmp_path):
    data = {"dimension": 2, "numbers": [
        {"partition": [1, 1], "value": "9"},
        {"partition": [2], "value": "3"},
    ]}
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "chern", "--series", "todd", "--data", str(path))
    assert code == 0
    assert out.strip() == "1"


def test_chern_data_with_json_is_a_usage_error(capsys, monkeypatch, tmp_path):
    # --data prints one plain value; refuse --json before any work
    def no_expansion(*args):
        raise AssertionError("a refused call reached construct")

    monkeypatch.setattr("hirzebruch.cli.construct", no_expansion)
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps({"dimension": 2, "numbers": []}))
    code, out, err = run(capsys, "chern", "--series", "todd", "--data", str(path), "--json")
    assert (code, out) == (1, "") and "--json" in err


class Reached(Exception):
    pass


@pytest.mark.parametrize("dimension", [24, 25])
def test_chern_data_dimension_is_capped_like_kn(capsys, monkeypatch, tmp_path, dimension):
    # K_n is built from the file's dimension, so --data honours the --kn cap
    def reached(*args):
        raise Reached

    monkeypatch.setattr("hirzebruch.cli.construct", reached)
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"dimension": dimension, "numbers": []}))
    argv = ("chern", "--series", "todd", "--data", str(path))
    if dimension == 24:
        with pytest.raises(Reached):
            main(list(argv))
        return
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and "dimension must be at most 24, got 25" in err


def test_chern_data_dimension_is_capped_before_any_partition(capsys, monkeypatch, tmp_path):
    # dimension 100 has 190,569,292 partitions: the cap reads the file's
    # dimension before the reader enumerates them
    partitions = hirzebruch.chern.partitions

    def small_partitions(n):
        if n > 24:
            raise AssertionError(f"partitions({n}) enumerated before the cap")
        return partitions(n)

    monkeypatch.setattr("hirzebruch.chern.partitions", small_partitions)
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"dimension": 100, "numbers": []}))
    code, out, err = run(capsys, "chern", "--series", "todd", "--data", str(path))
    assert (code, out) == (1, "") and "dimension must be at most 24, got 100" in err


def test_localize_weights_shorthand(capsys):
    code, out, _ = run(capsys, "localize", "--series", "todd", "--weights", "1,0",
                       "--order", "6")
    assert code == 0
    assert out.strip() == "1"


def test_localize_input_file(capsys, tmp_path):
    path = tmp_path / "fps.json"
    path.write_text(json.dumps({"points": [{"weights": [1], "sign": -1}]}))
    code, out, _ = run(capsys, "localize", "--series", "euler:a=2", "--input", str(path),
                       "--order", "3", "--json")
    assert code == 0
    series = json.loads(out)
    assert series["valuation"] == -1
    assert series["coeffs"][0] == {"re": "-1", "im": "0"}
    assert series["coeffs"][1] == {"re": "-2", "im": "0"}


def test_rigidity_pass_and_fail(capsys, tmp_path):
    code, out, _ = run(capsys, "rigidity", "--series", "dab:a=1,b=1", "--max-n", "2",
                       "--order", "8", "--trials", "5", "--seed", "7")
    assert code == 0 and out.startswith("PASS")

    bad = {"valuation": 0, "order": 14,
           "coeffs": [{"re": "1", "im": "0"}] * 4 + [{"re": "0", "im": "0"}] * 11}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "rigidity", "--series", f"file:{path}", "--max-n", "2",
                       "--order", "12", "--trials", "20", "--seed", "7")
    assert code == 2
    assert out.startswith("FAIL") and "degree 2" in out


def test_rigidity_rejects_max_n_beyond_the_tuple_pool(capsys):
    code, out, err = run(capsys, "rigidity", "--series", "todd", "--max-n", "7")
    assert code == 1 and out == "" and "max_n must be at most 6" in err


@pytest.mark.parametrize("extra", [["--order", "1"], ["--order", "-1", "--max-n", "3"],
                                   ["--trials", "-4"]])
def test_rigidity_rejects_vacuous_orders_and_negative_trials(capsys, extra):
    code, out, err = run(capsys, "rigidity", "--series", "dab:a=1,b=1/2", *extra)
    assert code == 1 and out == "" and err.startswith("error:")


def test_chern_data_with_a_partition_listed_twice_is_a_usage_error(capsys, tmp_path):
    data = {"dimension": 2, "numbers": [
        {"partition": [1, 1], "value": "9"},
        {"partition": [1, 1], "value": "5"},
        {"partition": [2], "value": "3"},
    ]}
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "chern", "--series", "todd", "--data", str(path))
    assert code == 1 and out == "" and "given twice" in err


def test_classify_text_and_expectation(capsys):
    code, out, _ = run(capsys, "classify", "--series", "todd")
    assert code == 0
    assert "GT series, case D" in out and "dab:a=1/2,b=1/2" in out

    code, out, _ = run(capsys, "classify", "--series", "gab:a=1,b=0", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["is_gt"] and report["d"] == "-1"

    code, _, _ = run(capsys, "classify", "--series", "euler:a=2", "--expect-gt")
    assert code == 0


def test_classify_not_gt_exit_code(capsys, tmp_path):
    bad = {"valuation": 0, "order": 6,
           "coeffs": [{"re": "1", "im": "0"}, {"re": "0", "im": "0"},
                      {"re": "1", "im": "0"}] + [{"re": "0", "im": "0"}] * 4}
    path = tmp_path / "notgt.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "classify", "--series", f"file:{path}")
    assert code == 0 and "not a GT series" in out
    code, _, _ = run(capsys, "classify", "--series", f"file:{path}", "--expect-gt")
    assert code == 2


def test_classify_oriented_rejects_todd(capsys):
    code, out, _ = run(capsys, "classify", "--series", "todd", "--oriented")
    assert code == 0
    assert "not even" in out and "degree 1" in out
    code, _, _ = run(capsys, "classify", "--series", "todd", "--oriented", "--expect-gt")
    assert code == 2
    code, out, _ = run(capsys, "classify", "--series", "dab:a=1,b=0", "--oriented", "--json")
    assert code == 0
    assert json.loads(out)["coth_a"] == "1"


def test_classify_oriented_reads_degree_one_only_when_asked(capsys):
    # H is built to --order: at order 1 todd's r1 = 1/2 shows it is not even,
    # and at order 0 only the library's order check can answer
    code, out, _ = run(capsys, "classify", "--series", "todd", "--oriented", "--order", "1")
    assert (code, out) == (0, "not an oriented genus series: series is not even: "
                              "degree 1 coefficient is 1/2\n")
    code, out, err = run(capsys, "classify", "--series", "todd", "--oriented", "--order", "0")
    assert (code, out, err) == (1, "", "error: classification needs order >= 4\n")


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "expand")[0] == 1                       # missing --series
    assert run(capsys, "expand", "--series", "nope")[0] == 1   # unknown family
    assert run(capsys, "expand", "--series", "todd", "--bogus")[0] == 1
    assert run(capsys, "localize", "--series", "todd")[0] == 1
    assert run(capsys, "chern", "--series", "todd")[0] == 1
    assert run(capsys, "localize", "--series", "todd", "--weights", "0,0")[0] == 1
    assert run(capsys, "expand", "--series", "file:/does/not/exist.json")[0] == 1


def test_a_usage_error_leaves_the_shared_parser_intact(capsys):
    assert build_parser() is build_parser()
    alone = run(capsys, "expand", "--series", "todd")
    assert alone[0] == 0
    assert run(capsys, "expand", "--series", "todd", "--order", "x")[0] == 1
    assert run(capsys, "expand", "--series", "todd") == alone


@pytest.mark.parametrize("argv", [
    ["expand", "--series", "todd", "--order", "513"],
    ["localize", "--series", "todd", "--weights", "0,1", "--order", "513"],
    ["classify", "--series", "todd", "--order", "513"],
    ["rigidity", "--series", "todd", "--order", "513"],
    ["cpn", "--series", "todd", "--n", "513"],
    ["chern", "--series", "todd", "--kn", "25"],
], ids=lambda argv: argv[0])
def test_sizes_beyond_the_caps_are_usage_errors(capsys, monkeypatch, argv):
    def no_expansion(*args):
        raise AssertionError("a capped size reached construct")

    monkeypatch.setattr("hirzebruch.cli.construct", no_expansion)
    code, out, err = run(capsys, *argv)
    flag, cap = argv[-2], int(argv[-1]) - 1
    assert (code, out) == (1, "") and f"{flag} must be at most {cap}" in err


def test_determinism(capsys):
    args = ("rigidity", "--series", "gab:a=1/2,b=1", "--max-n", "2", "--order", "8",
            "--trials", "10", "--seed", "11", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_file_series_keeps_its_usage_errors(capsys, tmp_path):
    # the `--series file:PATH` loader: an empty path, and --closed-form
    # (refused before any work)
    missing = f"file:{tmp_path / 'missing.json'}"
    code, out, err = run(capsys, "expand", "--series", "file:")
    assert (code, out) == (1, "") and "needs a path" in err
    code, out, err = run(capsys, "cpn", "--series", missing, "--n", "3", "--closed-form")
    assert (code, out) == (1, "") and "--closed-form is not available" in err


ONE = {"re": "1", "im": "0"}


@pytest.mark.parametrize("change", [
    {"coeffs": [ONE, ONE, {"re": 0.1, "im": "0"}]},
    {"coeffs": [ONE, ONE, {"re": "1/2", "im": 1.0}]},
    {"coeffs": [ONE, ONE, {"re": True, "im": "0"}]},
    {"coeffs": [ONE, ONE, {"re": "1/0", "im": "0"}]},
    {"valuation": 0.0},
    {"order": 2.9},
], ids=["float-re", "float-im", "bool-re", "zero-denominator", "float-valuation",
        "float-order"])
def test_series_file_values_must_be_exact(capsys, tmp_path, change):
    # a JSON float is not exact (0.1 would be read as 3602879701896397/2^55)
    data = {"valuation": 0, "order": 2, "coeffs": [ONE, ONE, ONE], **change}
    path = tmp_path / "series.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "expand", "--series", f"file:{path}")
    assert (code, out) == (1, "") and err.startswith("error: ")


@pytest.mark.parametrize("point", [
    {"weights": [1.5, 3]}, {"weights": [True, 3]}, {"weights": ["1", 3]},
    {"weights": [1, 3], "sign": 1.9}, {"weights": [1, 3], "sign": True},
    {"weights": [1, 3], "sign": "1"},
], ids=["float-weight", "bool-weight", "string-weight", "float-sign", "bool-sign",
        "string-sign"])
def test_fixed_point_weights_and_signs_must_be_ints(capsys, tmp_path, point):
    path = tmp_path / "fps.json"
    path.write_text(json.dumps({"points": [{"weights": [-1, 2], "sign": 1}, point]}))
    code, out, err = run(capsys, "localize", "--series", "todd", "--input", str(path))
    assert (code, out) == (1, "") and "malformed fixed-point file" in err


@pytest.mark.parametrize("data", [
    {"dimension": 3, "numbers": [{"partition": [1.5, 1.5], "value": "4"}]},
    {"dimension": 2, "numbers": [{"partition": [True, True], "value": "4"}]},
    {"dimension": 2.0, "numbers": [{"partition": [2], "value": "4"}]},
    {"dimension": 2, "numbers": [{"partition": [2], "value": 0.5}]},
    {"dimension": -1, "numbers": []},
], ids=["float-part", "bool-part", "float-dimension", "float-value", "negative-dimension"])
def test_chern_data_values_must_be_exact(capsys, tmp_path, data):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "chern", "--series", "todd", "--data", str(path))
    assert (code, out) == (1, "") and "malformed Chern data file" in err


@pytest.mark.parametrize("spec", ["dab:a=1,a=2,b=0", "euler:a=1/0", "ty:y=1/0i"])
def test_repeated_parameters_and_zero_denominators_are_refused(capsys, spec):
    code, out, err = run(capsys, "expand", "--series", spec)
    assert (code, out) == (1, "") and err.startswith("error: ")


@pytest.mark.parametrize("literal", ["1e3", "0.5", "1e10000000"])
@pytest.mark.parametrize("reader", ["spec", "series-file", "chern-data"])
def test_every_reader_takes_only_digits_over_digits(capsys, tmp_path, reader, literal):
    # Fraction alone reads exponents: "1e10000000" built a 33-million-bit int
    # before any check, so each reader refuses it at once
    path = tmp_path / "input.json"
    argv = {"spec": ["expand", "--series", f"euler:a={literal}"],
            "series-file": ["expand", "--series", f"file:{path}"],
            "chern-data": ["chern", "--series", "todd", "--data", str(path)]}[reader]
    path.write_text(json.dumps(
        {"valuation": 0, "order": 2, "coeffs": [ONE, {"re": literal, "im": "0"}, ONE]}
        if reader == "series-file" else
        {"dimension": 2, "numbers": [{"partition": [2], "value": literal}]}))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1].startswith("error: malformed")


def test_a_space_between_two_digits_is_refused(capsys):
    # a space may stand only beside a sign or at either end: "1 2" is not 12
    code, out, err = run(capsys, "expand", "--series", "euler:a=1 2", "--order", "2")
    assert (code, out) == (1, "")
    assert err.splitlines()[-1].startswith("error: malformed")


def test_a_refused_piece_is_reported_with_the_whole_literal(capsys):
    code, out, err = run(capsys, "expand", "--series", "ty:y=1/2+3 i")
    assert (code, out) == (1, "")
    assert err == "error: malformed rational literal: '+3 ' in '1/2+3 i'\n"


def _reached(*args):
    raise Reached


@pytest.mark.parametrize("weights, order", [
    (range(8), 512),   # both ran for minutes before the cap
    (range(80), 16),
    (range(4), 512),
], ids=["8-weights-order-512", "80-weights", "4-weights-order-512"])
def test_localize_work_is_capped_before_any_work(capsys, monkeypatch, weights, order):
    monkeypatch.setattr("hirzebruch.cli.construct", _reached)
    code, out, err = run(capsys, "localize", "--series", "todd", "--weights",
                         ",".join(map(str, weights)), "--order", str(order))
    assert (code, out) == (1, "") and "localize work" in err and "at most 2000000" in err


@pytest.mark.parametrize("weights", ["0,1,2,3,4", "0,1,2"])
def test_localize_refuses_a_negative_order_before_any_work(capsys, monkeypatch, weights):
    # one refusal for every n, not only where order + n falls below 2
    monkeypatch.setattr("hirzebruch.cli.construct", _reached)
    code, out, err = run(capsys, "localize", "--series", "todd", "--weights", weights,
                         "--order", "-1")
    assert (code, out) == (1, "") and "--order must be nonnegative" in err


def test_localize_order_zero_on_cp1_is_h1(capsys):
    # H is built to max(order + n, 2), as cpn and chern build it
    spec = "dab:a=1/2+i,b=1/3"
    code, out, _ = run(capsys, "localize", "--series", spec, "--weights", "0,1", "--order", "0")
    assert code == 0
    assert parse_gaussian(out.strip()) == h_n(construct(parse_spec(spec), 2), 1)


def test_localize_input_work_is_capped(capsys, monkeypatch, tmp_path):
    # the same bound on a fixed-point file: 8 points of 7 weights at order 512
    monkeypatch.setattr("hirzebruch.cli.construct", _reached)
    path = tmp_path / "fps.json"
    path.write_text(json.dumps({"points": [
        {"weights": [wk - wi for wk in range(8) if wk != wi]} for wi in range(8)]}))
    code, out, err = run(capsys, "localize", "--series", "todd", "--input", str(path),
                         "--order", "512")
    assert (code, out) == (1, "") and "localize work" in err


def test_localize_weights_work_is_capped_before_any_fixed_point(capsys, monkeypatch):
    # 20,000 weights would build 20,000 * 19,999 tangent weights before the cap
    def no_fixed_points(*args):
        raise AssertionError("a refused call built fixed points")

    monkeypatch.setattr("hirzebruch.cli.cpn_fixed_points", no_fixed_points)
    code, out, err = run(capsys, "localize", "--series", "todd", "--weights",
                         ",".join(map(str, range(20000))))
    assert (code, out) == (1, "") and "localize work" in err


@pytest.mark.parametrize("trials", [201, 100000])
def test_rigidity_trials_are_capped(capsys, monkeypatch, trials):
    monkeypatch.setattr("hirzebruch.cli.construct", _reached)
    code, out, err = run(capsys, "rigidity", "--series", "todd", "--trials", str(trials))
    assert (code, out) == (1, "") and f"--trials must be at most 200, got {trials}" in err


BIG = str(10 ** 300)  # 997 bits


@pytest.mark.parametrize("weights, order", [
    (f"0,1,{BIG}", 256),    # took 14.5 s, against 0.23 s for 0,1,2
    ("0,1,32768", 498),     # 16 bits count twice: 2 * 3*2*500^2
    (f"0,1,-{BIG}", 256),   # the largest |w_j - w_i| is max(w) - min(w), not max(w)
], ids=["301-digit-weight", "16-bit-weight", "301-digit-negative-weight"])
def test_localize_work_counts_the_weight_size(capsys, monkeypatch, weights, order):
    monkeypatch.setattr("hirzebruch.cli.construct", _reached)
    code, out, err = run(capsys, "localize", "--series", "todd", "--weights", weights,
                         "--order", str(order))
    assert (code, out) == (1, "") and "localize work" in err and "at most 2000000" in err


def test_localize_input_work_counts_the_weight_size(capsys, monkeypatch, tmp_path):
    # the fixed points of the 301-digit CP^2 action, as a file
    monkeypatch.setattr("hirzebruch.cli.construct", _reached)
    points = cpn_fixed_points([0, 1, int(BIG)]).points
    path = tmp_path / "fps.json"
    path.write_text(json.dumps({"points": [{"weights": list(p.weights)} for p in points]}))
    code, out, err = run(capsys, "localize", "--series", "todd", "--input", str(path),
                         "--order", "256")
    assert (code, out) == (1, "") and "localize work" in err


@pytest.mark.parametrize("extra", [
    ["--max-n", "3", "--order", "512", "--trials", "0"],   # ran for 61 s
    ["--max-n", "2", "--order", "79"],
    ["--max-n", "6", "--order", "12", "--trials", "200"],
], ids=["max-n-3-order-512", "max-n-2-order-79", "max-n-6-trials-200"])
def test_rigidity_sweep_work_is_capped_before_any_work(capsys, monkeypatch, extra):
    monkeypatch.setattr("hirzebruch.cli.construct", _reached)
    code, out, err = run(capsys, "rigidity", "--series", "todd", *extra)
    assert (code, out) == (1, "") and "localize work" in err and "at most 2000000" in err


@pytest.mark.parametrize("argv", [
    ["localize", "--series", "todd", "--weights", "0,1,2", "--order", "512"],
    ["localize", "--series", "todd", "--weights", "0,1,2,3"],
    ["localize", "--series", "todd", "--weights", ",".join(map(str, range(31)))],
    ["rigidity", "--series", "todd", "--trials", "200"],
    ["localize", "--series", "todd", "--weights", "0,1,32767", "--order", "498"],
    ["rigidity", "--series", "todd", "--max-n", "2", "--order", "78"],
    ["rigidity", "--series", "todd", "--max-n", "1", "--order", "6"],
    ["rigidity", "--series", "todd", "--max-n", "1", "--order", "8", "--trials", "3"],
], ids=["3-weights-order-512", "4-weights", "31-weights", "200-trials", "15-bit-weight",
        "max-n-2-order-78", "max-n-1-order-6", "max-n-1-order-8-trials-3"])
def test_sizes_at_the_new_caps_reach_construct(monkeypatch, argv):
    # CP^2 at the --order cap, the benchmark's largest CP^3, and each cap's edge
    monkeypatch.setattr("hirzebruch.cli.construct", _reached)
    with pytest.raises(Reached):
        main(argv)


@pytest.mark.parametrize("argv", [
    ["expand"],
    ["frobnicate"],
    ["expand", "--series", "todd", "--order", "x"],
    ["expand", "--series", "todd", "--order", "513"],
    ["cpn", "--series", "todd", "--n", "513"],
    ["chern", "--series", "todd", "--kn", "25"],
    ["rigidity", "--series", "todd", "--trials", "201"],
    ["chern", "--series", "todd", "--data", "{big}"],
    ["cpn", "--series", "todd", "--n", "-1"],
    ["chern", "--series", "todd", "--kn", "-1"],
    ["localize", "--series", "todd", "--weights", "0,1", "--order", "-1"],
    ["localize", "--series", "todd", "--weights", "0,1,2,3,4,5,6,7", "--order", "512"],
    ["chern", "--series", "todd", "--data", "{small}", "--json"],
    ["cpn", "--series", "file:{series}", "--n", "3", "--closed-form"],
    ["expand", "--series", "file:{missing}"],
    ["expand", "--series", "dab:a=1"],
    ["rigidity", "--series", "todd", "--max-n", "7"],
    ["classify", "--series", "todd", "--order", "3"],
    ["classify", "--series", "todd", "--order", "1"],
], ids=["missing-series", "unknown-verb", "order-not-an-int", "order-cap", "n-cap", "kn-cap",
        "trials-cap", "data-dimension-cap", "negative-n", "negative-kn", "negative-order",
        "localize-work", "chern-data-json", "closed-form-file", "missing-file",
        "malformed-spec", "max-n-7", "classify-order-3", "classify-order-1"])
def test_every_refusal_ends_stderr_with_one_error_line(capsys, tmp_path, argv):
    # exit 1 leaves stdout empty; argparse's usage line may come before the error
    files = {"big": {"dimension": 25, "numbers": []}, "small": {"dimension": 2, "numbers": []},
             "series": {"valuation": 0, "order": 2, "coeffs": [ONE, ONE, ONE]}}
    paths = {"missing": tmp_path / "missing.json"}
    for name, data in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (1, "")
    assert err.splitlines()[-1].startswith("error: ")


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv, code", [
    (["expand", "--series", "todd", "--order", "4"], 0),
    (["cpn", "--series", "todd", "--n", "-1"], 1),
    (["classify", "--series", "todd", "--oriented", "--expect-gt"], 2),
], ids=["exit-0", "exit-1", "exit-2"])
def test_python_m_hirzebruch_exits_with_the_contract_codes(argv, code):
    proc = subprocess.run([sys.executable, "-m", "hirzebruch", *argv], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == code, proc.stderr
