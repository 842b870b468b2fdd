import hashlib
import json
import os
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import wproj.scan
from helpers import run_wproj, run_wproj_closing, run_wproj_without_stdout, written
from wproj.cli import (
    _audit_json_rows,
    _config_record,
    _csv_rows,
    _json_rows,
    _rat,
    _real,
    format_audit_json,
    format_scan_csv,
    format_scan_json,
    main,
)
from wproj.gcdops import Subscheme
from wproj.scan import (
    AuditRow,
    BoxDomain,
    ScanConfig,
    SUnitGrid,
    sing1_audit,
    vojta_scan,
)
from wproj.weights import Weights
from wproj.wpoly import parse_polynomial


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args)
    assert code == 0, err
    return json.loads(out)


def test_height_command(capsys):
    record = run_json(capsys, "height", "[3:4]", "--weights", "(2,3)")
    assert record["wh_pow_m"] == "27"
    assert record["m"] == 6
    assert record["lwh"] == pytest.approx(0.549306144334, abs=1e-12)
    assert ["oo", "27"] in record["per_place"]


def test_wgcd_command(capsys):
    record = run_json(capsys, "wgcd", "[16:64]", "--weights", "(2,3)")
    assert record["wgcd"] == "4"
    assert record["formal"] == [[2, "2"]]


def test_hwgcd_command(capsys):
    record = run_json(
        capsys, "hwgcd", "[1/4:1/8]", "--weights", "(2,3)", "--archimedean", "on"
    )
    assert record["hwgcd"] == "1"
    assert record["formal"] == [[2, "1"]]  # archimedean min is exactly log 2


def test_normalize_command(capsys):
    record = run_json(capsys, "normalize", "[16:64]", "--weights", "(2,3)")
    assert record == {"point": "[1:1]", "wgcd": "4"}
    # [1/2:3/4] * 4 = [4:48], and 48 = 2^3 * 6 holds the weighted gcd 2
    record = run_json(capsys, "normalize", "[1/2:3/4]", "--weights", "(2,3)")
    assert record == {"point": "[2:6]", "wgcd": "2", "denominator_scale": "4"}


def test_veronese_command_symbolic(capsys):
    record = run_json(capsys, "veronese", "[x0:x1:x2:x3]", "--weights", "(2,4,6,10)")
    assert record["reduced_weights"] == "(1,2,3,5)"
    assert record["exponents"] == [30, 15, 10, 6]
    assert "image" not in record


def test_veronese_command_numeric(capsys):
    record = run_json(capsys, "veronese", "[3:4]", "--weights", "(2,3)")
    assert record["image"] == "[27:16]"
    assert record["is_embedding"] is True


@pytest.mark.parametrize("point, message", [
    ("[1/0:1]", "zero denominator in '1/0'"),
    ("[1:2", "cannot parse point from '[1:2'"),
    ("[abc:1]", "bad coordinate 'abc'"),
])
def test_veronese_rejects_a_malformed_numeric_point(capsys, point, message):
    # once exit 0 with the map data only, as for a symbolic point
    assert run_cli(capsys, "veronese", point, "--weights", "(1,2)") == (
        2, "", json.dumps({"error": "parse-error", "message": message}) + "\n"
    )


def test_veronese_rejects_a_symbolic_point_of_the_wrong_arity(capsys):
    # once exit 0 with the map data of the weights
    assert run_cli(capsys, "veronese", "[x0:x1]", "--weights", "(2,3,5)") == (
        3, "", json.dumps({"error": "arity-mismatch", "message": "2 coordinates for 3 weights"})
        + "\n"
    )


@pytest.mark.parametrize("argv", [
    ("height", "[2:3:5]", "--weights", "(1,1009,1013)"),  # wh^m = 2^1022117
    ("veronese", "[2:3:5]", "--weights", "(1,1009,1013)"),  # [2^1022117:3^1013:5^1009]
    ("normalize", "[1/3:1]", "--weights", "(1,10000)"),  # [1:3^10000]
    # m = AB, 5,000 digits, from coprime weights A, B of 2,500 digits each
    ("height", "[1:1]", "--weights", f"({10 ** 2499 + 1},{10 ** 2499 + 3})"),
    ("veronese", "[x0:x1]", "--weights", f"({10 ** 2499 + 1},{10 ** 2499 + 3})"),
])
def test_an_output_past_the_int_to_str_limit_is_a_typed_error(capsys, argv):
    # once a parse-error, though the input parsed
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    record = json.loads(err)
    assert record["error"] == "output-too-large"
    assert "4300 digits" in record["message"]


@pytest.mark.parametrize("command", ["height", "veronese"])
def test_an_input_past_the_int_to_str_limit_stays_a_parse_error(capsys, command):
    code, out, err = run_cli(capsys, command, f"[{'1' * 4400}:1]", "--weights", "(1,1)")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "parse-error"


def test_singular_command(capsys):
    record = run_json(capsys, "singular", "[0:1:0:0]", "--weights", "(1,2,3,5)")
    assert record["singular"] is True
    record = run_json(capsys, "singular", "--weights", "(1,2,3,5)")
    assert {"prime": 2, "indices": [1], "dimension": 0} in record["components"]


def test_zeta_command(capsys):
    record = run_json(
        capsys, "zeta", "[3:4]", "--weights", "(2,3)", "--divisor", "x0",
        "--place", "3",
    )
    assert record["formal"] == [[3, "1/6"]]
    record = run_json(
        capsys, "zeta", "[3:4]", "--weights", "(2,3)", "--divisor", "x0",
        "--place", "inf", "--metric", "alt",
    )
    assert record["zeta"] is not None


def test_global_height_command(capsys):
    record = run_json(
        capsys, "global-height", "[3:4]", "--weights", "(2,3)", "--divisor", "x0"
    )
    assert record["formal"] == [[2, "1"]]
    assert record["value"] == pytest.approx(0.69314718056, abs=1e-11)


def test_vojta_scan_csv(capsys):
    code, out, err = run_cli(
        capsys,
        "vojta-scan",
        "--weights", "(1,1,1)",
        "--generators", "x1-x0;x2-x0",
        "--epsilon", "1",
        "--domain", "box:1..3,1..3,1..3",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "point,lhs,rhs,ratio,exceptional"
    assert any(line.startswith("[1:2:3],1,") for line in lines)


def test_vojta_scan_json(capsys):
    code, out, err = run_cli(
        capsys,
        "vojta-scan",
        "--weights", "(1,2,3)",
        "--generators", "x1-x0;x2-x0",
        "--main2-default",
        "--epsilon", "1",
        "--s-primes", "2,3",
        "--domain", "sunit:2,3:50",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["config"]["gcd_weights"] == "(2,3)"
    assert record["config"]["domain"]["kind"] == "sunit"
    assert record["summary"]["rows"] == len(record["rows"])
    assert "runtime" not in record["summary"]
    assert "metric" not in record["config"]
    assert "warning" in err  # mixed-degree generators


def test_sing1_audit_command(capsys):
    code, out, err = run_cli(
        capsys, "sing1-audit", "--weights", "(2,3,5)", "--bound", "2",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["summary"]["points"] > 0
    points = [c["point"] for c in record["counterexamples"]]
    assert "[1:1:1]" in points


def _audit_row_record(row):
    # a counterexample's record in format_audit_json, as json.dumps(indent=2) would lay it out
    return {
        "point": "[" + ":".join(str(v) for v in row.point) + "]",
        "log_hwgcd_zero": True,
        "singular": False,
        "valuations": [
            {
                "prime": p,
                "floors": [f if f >= 0 else "inf" for f in floors],
                "min": minimum,
            }
            for p, floors, minimum in row.valuations
        ],
    }


def _audit_record(report):
    # the record format_audit_json lays out, as json.dumps(indent=2) would
    return {
        "weights": str(report.weights),
        "bound": report.bound,
        "summary": {
            "points": report.total_points,
            "zero_log_hwgcd": report.total_points,
            "singular": report.singular_points,
            "counterexamples": len(report.counterexamples),
        },
        "counterexamples": [_audit_row_record(row) for row in report.counterexamples],
    }


def test_audit_json_matches_the_json_module():
    for q, bound in (((2, 3, 5), 4), ((1, 4, 6, 9), 2), ((1,), 3), ((2, 3), 6), ((1, 1), 0)):
        report = sing1_audit(Weights.of(*q), bound)
        if q == (1, 1):
            assert report.counterexamples == []
        if q == (2, 3, 5):
            assert any(not row.valuations for row in report.counterexamples)
        expected = json.dumps(_audit_record(report), indent=2) + "\n"
        assert written(format_audit_json, Weights.of(*q), bound) == expected
    # rows the audit does not make at these bounds, rendered as blocks of one:
    # each text is its record as indent=2 lays it out in the counterexamples list
    render = _audit_json_rows()
    for row in [
        AuditRow((-1, 1), ()),  # empty valuations
        AuditRow((0, 97), ((97, (-1, 1), 1),)),  # a zero coordinate: an "inf" floor
        AuditRow((12, -18), ((2, (2, 1), 1), (3, (1, 2), 1))),
    ]:
        expected = json.dumps(_audit_row_record(row), indent=2).replace("\n", "\n    ")
        assert render(row.point[:-1], row.point[-1:], [row.valuations]) == [expected]


def _scan_record(report):
    # the record format_scan_json lays out, as json.dumps(indent=2) would
    return {
        "config": _config_record(report.config),
        "rows": [
            {
                "point": "[" + ":".join(str(v) for v in row.point) + "]",
                "lhs": row.lhs,
                "rhs": _real(row.rhs),
                "ratio": _real(row.ratio),
                "exceptional": row.exceptional,
            }
            for row in report.rows
        ],
        "summary": {
            "rows": len(report.rows),
            "candidates": report.total_candidates,
            "skipped_on_subscheme": report.skipped_on_subscheme,
            "exceptional": report.exceptional_count,
            "max_ratio": _real(report.max_ratio),
        },
    }


def _scan_config(q, generators, gcd_q, epsilon, s_primes, domain, codim=None):
    w = Weights.of(*q)
    gens = tuple(parse_polynomial(g, w) for g in generators)
    return ScanConfig(
        weights=w,
        subscheme=Subscheme(gens, Weights.of(*gcd_q)),
        epsilon=Fraction(epsilon),
        delta=Fraction(0),
        s_primes=frozenset(s_primes),
        domain=domain,
        codim=codim,
    )


@pytest.mark.parametrize("config", [
    # a box with negative coordinates, and the benchmark's box scan
    _scan_config((1, 1, 1), ("x1-x0", "x2-x0"), (1, 1), 1, (), BoxDomain.symmetric(4, 3)),
    _scan_config((1, 1, 2), ("x1-x0", "x2-x0"), (1, 1), "1/2", (2,),
                 BoxDomain.symmetric(14, 3)),
    # the README S-unit preset
    _scan_config((1, 2, 3), ("x1-x0", "x2-x0"), (2, 3), 1, (2, 3),
                 SUnitGrid((2, 3), 1_000_000)),
    # a codimension override
    _scan_config((1, 1, 1), ("x1-x0", "x2-x0"), (1, 1), 1, (3,),
                 BoxDomain(((-3, 5), (1, 4), (-2, 6))), codim=3),
])
def test_scan_json_matches_the_json_module(monkeypatch, config):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # fork a worker on any machine
    expected = json.dumps(_scan_record(vojta_scan(config)), indent=2) + "\n"
    for workers in (1, 2):
        assert written(format_scan_json, config, workers) == expected


SCAN_ARGVS = [
    ("--weights", "(1,1,2)", "--generators", "x1-x0;x2-x0", "--gcd-weights", "(1,1)",
     "--epsilon", "1/2", "--s-primes", "2", "--domain", "box:6"),
    ("--weights", "(1,2,3)", "--generators", "x1-x0;x2-x0", "--main2-default",
     "--s-primes", "2,3", "--domain", "sunit:2,3:2000"),
    ("--weights", "(1,1,1)", "--generators", "x1-x0;x2-x0", "--codim", "3",
     "--domain", "box:-3..5,1..4,-2..6"),
    # the first non-integral value is in slice 0, which a child also fails
    ("--weights", "(1,1,1)", "--generators", "1/2*x1-x0;x2-x0", "--s-primes", "2",
     "--domain", "box:2"),
    # only a child's slices (x0 odd) fail
    ("--weights", "(1,1,1)", "--generators", "1/2*x0-x1;x2-x0", "--s-primes", "2",
     "--domain", "box:2"),
    # a child fails at slice 1 (1/3), this process later, at slice 2 (2/3)
    ("--weights", "(1,1,1)", "--generators", "1/3*x0-x1;x2-x0",
     "--domain", "box:3..5,1..2,1..2"),
    ("--weights", "(1,1,1)", "--generators", "x1-x0;x2-x0", "--domain", "box:0..0,0..0,0..0"),
    ("--weights", "(1,1)", "--generators", "x1-x0", "--delta", "1",
     "--domain", "box:1..1,1..1"),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", SCAN_ARGVS)
def test_scan_output_is_the_same_for_any_worker_count(monkeypatch, capsys, argv, fmt):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)  # two forked children on any machine
    runs = [run_cli(capsys, "vojta-scan", *argv, "--format", fmt, "--workers", str(n))
            for n in (1, 2, 3)]
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_child_side_error_matches_one_worker(monkeypatch, capsys):
    # x0 = -1 is the first slice with a non-integral value, and a child's
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ("vojta-scan", "--weights", "(1,1,1)", "--generators", "1/2*x0-x1;x2-x0",
            "--domain", "box:2")
    code, out, err = run_cli(capsys, *argv, "--workers", "2")
    assert code == 3
    assert out == ""
    assert json.loads(err) == {
        "error": "non-integral-value", "message": "3/2 is not an integer"
    }
    assert run_cli(capsys, *argv, "--workers", "1") == (code, out, err)


@pytest.mark.parametrize("argv, message", [
    # epsilon 1000 puts rhs past the float range: once an uncaught OverflowError
    (("--weights", "(1,1,1)", "--generators", "x1-x0;x2-x0", "--epsilon", "1000",
      "--domain", "box:3"),
     "the row at [-3:-3:-2] leaves the float range (log rhs = 1101.5, lhs has 1 bits)"),
    # an lhs of 10^400 - 9^400 has no float for the ratio
    (("--weights", "(1,1)", "--generators", "x1^400-x0^400", "--gcd-weights", "(1)",
      "--delta", "1", "--domain", "box:10"),
     "the row at [-10:-9] leaves the float range (log rhs = 6.80239, lhs has 1329 bits)"),
    # a delta this small still has a float rhs exponent, 1e300, so it fails per row
    (("--weights", "(1,1)", "--generators", "x1-x0", "--delta", "1e-300", "--domain", "box:3"),
     "the row at [-3:-2] leaves the float range (log rhs = 1.79176e+300, lhs has 1 bits)"),
])
def test_float_overflow_is_an_error_record_for_any_worker_count(
    monkeypatch, capsys, argv, message
):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, err = run_cli(capsys, "vojta-scan", *argv)
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "float-overflow", "message": message}
    assert run_cli(capsys, "vojta-scan", *argv, "--workers", "2") == (code, out, err)


SCAN_HEAD = ("vojta-scan", "--weights", "(1,1,1)", "--generators", "x1-x0;x2-x0")


@pytest.mark.parametrize("argv", [
    ("height", "[1/0:1]", "--weights", "(1,1)"),
    ("zeta", "[1:1]", "--weights", "(1,1)", "--divisor", "1/0*x0", "--place", "2"),
    (*SCAN_HEAD, "--domain", "box:2", "--epsilon", "1/0"),
    (*SCAN_HEAD, "--domain", "box:2", "--delta", "1/0"),
    ("vojta-scan", "--weights", "(1,1)", "--generators", "1/0*x1-x0", "--domain", "box:2",
     "--codim", "2"),
])
def test_zero_denominator_is_a_parse_error(capsys, argv):
    # once a ZeroDivisionError traceback with exit 1; a scan flag's record names the flag
    flag = argv[-2] if argv[-2] in ("--epsilon", "--delta") else None
    message = f"bad rational '1/0' in {flag}" if flag else "zero denominator in '1/0'"
    assert run_cli(capsys, *argv) == (
        2, "", json.dumps({"error": "parse-error", "message": message}) + "\n"
    )


@pytest.mark.parametrize("flag, value", [
    ("--epsilon", "1e400"), ("--delta", "1e400"), ("--codim", "1" + "0" * 400),
])
def test_epsilon_and_delta_past_the_float_range_fail_before_any_slice(
    monkeypatch, capsys, flag, value
):
    # once an OverflowError traceback with exit 1
    def refuse(*args):
        raise AssertionError("a part ran")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(wproj.scan, "_scan_part", refuse)
    monkeypatch.setattr(wproj.scan, "_Child", refuse)
    message = "epsilon, delta and codim must lie in the float range"
    record = f'{{"error": "float-overflow", "message": "{message}"}}\n'
    for workers in ("1", "2"):
        argv = (*SCAN_HEAD, "--domain", "box:2", flag, value, "--workers", workers)
        assert run_cli(capsys, *argv) == (3, "", record)


@pytest.mark.parametrize("domain, message", [
    ("box:-1..1,-1..1", "box needs 3 bounds, got 2"),
    ("sunit:,:100", "sunit domain needs at least one prime"),
])
def test_domain_shape_errors_keep_their_records(capsys, domain, message):
    assert run_cli(capsys, *SCAN_HEAD, "--domain", domain) == (
        2, "", f'{{"error": "parse-error", "message": "{message}"}}\n'
    )


@pytest.mark.parametrize("delta", ["1e-400", "1e-320"])
def test_delta_below_the_float_range_fails_before_any_slice(monkeypatch, capsys, delta):
    # 1e-400 was a ZeroDivisionError traceback with exit 1; 1e-320 printed
    # inf and nan, and bare inf in --format json
    def refuse(*args):
        raise AssertionError("a part ran")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(wproj.scan, "_scan_part", refuse)
    monkeypatch.setattr(wproj.scan, "_Child", refuse)
    message = "epsilon, delta and codim must lie in the float range"
    record = f'{{"error": "float-overflow", "message": "{message}"}}\n'
    for workers in ("1", "2"):
        argv = ("vojta-scan", "--weights", "(1,1)", "--generators", "x1-x0",
                "--delta", delta, "--domain", "box:3", "--workers", workers)
        assert run_cli(capsys, *argv) == (3, "", record)


@pytest.mark.parametrize("argv, message", [
    ((*SCAN_HEAD, "--domain", "sunit:4:100"), "4 in --domain is not prime"),
    ((*SCAN_HEAD, "--domain", "sunit:2:100", "--s-primes", "4"), "4 in --s-primes is not prime"),
    (("sing1-audit", "--weights", "(2,3,5)", "--bound", "-1"),
     "the audit bound must be non-negative, got -1"),
    # both once read "invalid literal for int() with base 10: 'abc'"
    ((*SCAN_HEAD, "--domain", "sunit:2:100", "--s-primes", "abc"),
     "bad prime 'abc' in --s-primes"),
    ((*SCAN_HEAD, "--domain", "sunit:abc:100"), "bad prime 'abc' in --domain"),
    # once "Invalid literal for Fraction: 'abc'" and "zero denominator in '1/0'"
    ((*SCAN_HEAD, "--domain", "box:2", "--epsilon", "abc"), "bad rational 'abc' in --epsilon"),
    ((*SCAN_HEAD, "--domain", "box:2", "--delta", "1/0"), "bad rational '1/0' in --delta"),
])
def test_input_records_name_the_bad_input(capsys, argv, message):
    # sunit:4:100 once named --s-primes; --bound -1 once gave an empty report
    assert run_cli(capsys, *argv) == (
        2, "", json.dumps({"error": "parse-error", "message": message}) + "\n"
    )


def test_audit_bound_zero_is_an_empty_report(capsys):
    record = run_json(capsys, "sing1-audit", "--weights", "(2,3,5)", "--bound", "0")
    assert record["summary"]["points"] == 0 and record["counterexamples"] == []


def _timed_scan(capsys, *argv):
    start = time.perf_counter()
    result = run_cli(capsys, "vojta-scan", *argv, "--format", "csv")
    return result, time.perf_counter() - start


@pytest.mark.parametrize("argv, formal", [
    (("zeta", "[2:3:5]", "--place", "inf"), [[2, "1022116/1022117"]]),
    (("global-height", "[2:3:5]"), [[2, "1"]]),
])
def test_alt_heights_at_large_weights_factor_no_power(capsys, argv, formal):
    # the denominator 2^1022117 was factored by trial division: over 120 s
    start = time.perf_counter()
    record = run_json(capsys, *argv, "--weights", "(1,1009,1013)", "--divisor", "x0",
                      "--metric", "alt")
    assert time.perf_counter() - start < 0.5
    assert record["formal"] == formal


def test_archimedean_hwgcd_at_a_large_weight_ratio_raises_no_power(capsys):
    # |3|^(1/1) > |2|^(1/10^8): deciding it on 3^(10^8), 158M bits, ran on
    start = time.perf_counter()
    record = run_json(capsys, "hwgcd", "[3:2]", "--weights", "(1,100000000)",
                      "--archimedean", "on")
    assert time.perf_counter() - start < 0.5
    assert (record["hwgcd"], record["formal"]) == ("1", [])


@pytest.mark.parametrize("argv", [
    ("height", "[3:2]"),  # wh^m = 3^(10^8)
    ("veronese", "[3:2]"),  # [3^(10^8):2]
    ("normalize", "[1/3:1]"),  # lambda^(q_1) = 3^(10^8)
])
def test_a_power_past_the_budget_is_refused_before_it_is_taken(argv):
    # 3^(10^8) was built, for over 15 s, before output-too-large
    code, out, err = run_wproj(*argv, "--weights", "(1,100000000)", timeout=2)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "output-too-large"


def test_a_large_prime_power_is_factored_by_its_root():
    # rho spent its whole budget, about 1.5 s, on N = (2^61 - 1)^2
    p = 2 ** 61 - 1
    code, out, err = run_wproj("height", f"[{p * p}:1]", "--weights", "(1,1)", timeout=2)
    assert (code, err) == (0, "")
    assert json.loads(out)["per_place"] == [["oo", str(p * p)], [str(p), "1"]]
    code, out, err = run_wproj("wgcd", f"[{p * p}:{p * p}]", "--weights", "(2,2)", timeout=2)
    assert (code, err) == (0, "")
    assert json.loads(out)["wgcd"] == str(p)


BIG = "x0^200000-x1^200000"  # at [2:3], |2^200000 - 3^200000| has 316,780 bits
MERSENNE_9689 = str(2 ** 9689 - 1)


@pytest.mark.parametrize("argv", [
    ("global-height", "[2:3]", "--weights", "(1,1)", "--divisor", BIG),  # relevant_places
    ("zeta", "[2:3]", "--weights", "(1,1)", "--divisor", BIG, "--place", "inf"),  # of_rational
    ("zeta", "[3:4]", "--weights", "(2,3)", "--divisor", "x0", "--place", MERSENNE_9689),
])
def test_primality_past_the_bit_budget_is_refused(argv):
    # each ran past 20 s in Miller-Rabin; the Mersenne prime took 64 s
    code, out, err = run_wproj(*argv, timeout=2)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "factoring-budget"


def test_a_huge_divisor_value_is_refused_without_trial_division():
    # 1.9 s, 1.7 s of it dividing 2^200000 - 3^200000 by every trial candidate
    start = time.perf_counter()
    code, out, err = run_wproj("global-height", "[2:3]", "--weights", "(1,1)", "--divisor", BIG,
                               timeout=5)
    assert time.perf_counter() - start < 0.6
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "factoring-budget", "message":
                               "a 316780-bit number is past the primality budget of 2048 bits"}


@pytest.mark.parametrize("argv, record", [
    (("zeta", "[2:1]", "--weights", "(1,1)", "--divisor", "x0^100000", "--place", "2"),
     {"point": "[2:1]", "place": "2", "metric": "paper", "zeta": 69314.718056,
      "formal": [[2, "100000"]]}),
    (("global-height", "[2:1]", "--weights", "(1,1)", "--divisor", "x0^100000"),
     {"point": "[2:1]", "metric": "paper", "value": 0.69314718056, "formal": [[2, "1"]]}),
    (("global-height", "[6:1]", "--weights", "(1,1)", "--divisor", "x0^60000"),
     {"point": "[6:1]", "metric": "paper", "value": 1.79175946923,
      "formal": [[2, "1"], [3, "1"]]}),
])
def test_a_huge_prime_power_value_is_factored_in_log_steps(argv, record):
    # 5, 7.6 and 14 s when each power of 2 or 3 was divided out one at a time
    code, out, err = run_wproj(*argv, timeout=2)
    assert (code, err) == (0, "")
    assert json.loads(out) == record


@pytest.mark.parametrize("argv", [
    ("zeta", "[3:1]", "--weights", "(1,1)", "--divisor", "x0^2000000", "--place", "inf"),
    ("global-height", "[3:1]", "--weights", "(1,1)", "--divisor", "x0^2000000"),
])
def test_a_generator_power_past_the_budget_is_refused_before_it_is_taken(argv):
    # 3^2000000 has 3.2M bits; the zeta command spent 19.7 s taking its valuations
    assert run_wproj(*argv, timeout=2) == (3, "", json.dumps({
        "error": "output-too-large", "message": "an exact power would have over 1048576 bits",
    }) + "\n")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_column_power_past_the_budget_is_refused_before_it_is_taken(workers):
    # the scan printed its rows after 41.9 s, spent on the 2M-bit values of the last column
    argv = ("vojta-scan", "--weights", "(1,1)", "--generators", "x1^2000000-x0*x1^1999999",
            "--domain", "box:2", "--delta", "1", "--workers", workers)
    assert run_wproj(*argv, timeout=2) == (3, "", json.dumps({
        "error": "output-too-large", "message": "an exact power would have over 1048576 bits",
    }) + "\n")


def test_scan_primality_past_the_bit_budget_is_the_same_error_for_any_worker_count():
    # the lhs gcd factors x1^100000 - x0^100000, reached through _wgcd_value
    argv = ("vojta-scan", "--weights", "(1,1,1)", "--generators", "x1^100000-x0^100000;x2-x0",
            "--domain", "box:2")
    errors = set()
    for workers in ("1", "2"):
        code, out, err = run_wproj(*argv, "--workers", workers, timeout=5)
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "factoring-budget"
        errors.add(err)
    assert len(errors) == 1


def test_exact_tie_is_decided_without_powering(capsys):
    # lhs = rhs = 3 with epsilon = 1/(N+1) and delta = 1/N: raising both
    # sides to the power D = N + 1 took 9.9 s at N = 10^7
    N = 10 ** 7
    (code, out, err), elapsed = _timed_scan(
        capsys, "--weights", "(1,1,1)", "--generators", "x2;3*x0",
        "--domain", "box:1..1,1..1,3..3", "--delta", f"1/{N}", "--epsilon", f"1/{N + 1}",
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "[1:1:3],3,3,1,false"
    assert elapsed < 0.5


def test_near_tie_past_the_comparison_budget_exits_3(capsys):
    # 2^epsilon against lhs = 3 at [1:1:2] (S = {2} strips x2), with
    # epsilon = 16785921/10590737, a convergent of log_2 3: no tie, and
    # deciding it on integers takes 3^10590737 against 2^16785921
    (code, out, err), elapsed = _timed_scan(
        capsys, "--weights", "(1,1,1)", "--generators", "3*x0;3*x1", "--s-primes", "2",
        "--epsilon", "16785921/10590737", "--domain", "box:1..1,1..1,2..2",
    )
    assert (code, out) == (3, "")
    record = json.loads(err)
    assert record["error"] == "comparison-budget"
    assert "above the budget of 1048576 bits" in record["message"]
    assert elapsed < 0.5


@pytest.mark.parametrize("x01, ratio", [
    # x_0 = 1 makes the tuple primitive before the walk reaches N
    (1, "1.42724769271e+45,7.00649232162e-46"),
    # gcd(2, 2) = 2 makes the walk read N's table entry, which holds N
    (2, "2.85449538541e+45,3.50324616081e-46"),
])
def test_huge_coordinate_is_not_factored_for_the_walk(capsys, x01, ratio):
    # N has two prime factors above 2^60, past the rho budget
    N = (2 ** 61 - 1) * (2 ** 89 - 1)
    (code, out, err), elapsed = _timed_scan(
        capsys, "--weights", "(1,1,2)", "--generators", "x2;3*x0",
        "--domain", f"box:{x01}..{x01},{x01}..{x01},{N}..{N}",
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"[{x01}:{x01}:{N}],1,{ratio},false"
    assert elapsed < 0.5


def test_parse_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "height", "[3:4]", "--weights", "bogus")
    assert code == 2
    assert json.loads(err)["error"] == "parse-error"


def test_domain_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "wgcd", "[0:0]", "--weights", "(2,3)")
    assert code == 3
    assert json.loads(err)["error"] == "all-zero"
    code, out, err = run_cli(
        capsys, "zeta", "[0:1]", "--weights", "(2,3)", "--divisor", "x0",
        "--place", "2",
    )
    assert code == 3
    assert json.loads(err)["error"] == "point-on-subscheme"


def test_scan_rejects_mixed_generators_without_gcd_weights(capsys):
    code, out, err = run_cli(
        capsys,
        "vojta-scan",
        "--weights", "(1,2,3)",
        "--generators", "x1-x0;x2-x0",
        "--epsilon", "1",
        "--domain", "sunit:2,3:10",
    )
    assert code == 3
    assert json.loads(err)["error"] == "mixed-degree"


def test_scan_non_integral_generator_value(capsys):
    # the first non-integral value in box order: 1/2*x1 - x0 at (-2,-1,-2)
    code, out, err = run_cli(
        capsys,
        "vojta-scan",
        "--weights", "(1,1,1)",
        "--generators", "1/2*x1-x0;x2-x0",
        "--epsilon", "1",
        "--s-primes", "2",
        "--domain", "box:2",
    )
    assert code == 3
    assert out == ""
    assert json.loads(err) == {
        "error": "non-integral-value", "message": "3/2 is not an integer"
    }


def test_bad_place_is_parse_error(capsys):
    code, out, err = run_cli(
        capsys, "zeta", "[3:4]", "--weights", "(2,3)", "--divisor", "x0",
        "--place", "6",
    )
    assert code == 2


@pytest.mark.parametrize("command", [("zeta", "--place", "2"), ("global-height",)])
@pytest.mark.parametrize("point", ["[-1:1]", "[-4:8]"])
def test_local_heights_reject_mixed_generators_for_every_representative(
    capsys, command, point
):
    # [-4:8] is 2 * [-1:1]; x0+x1 is mixed in weights (2,3) and vanishes
    # only at the first representative, so a lazy check would accept it
    code, out, err = run_cli(
        capsys, command[0], point, "--weights", "(2,3)",
        "--generators", "x0+x1;x1", *command[1:],
    )
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "mixed-degree"
    assert "warning" not in err


@pytest.mark.parametrize("argv", [
    ("zeta", "[1:1]", "--weights", "(2,3)", "--divisor", "x0+x1", "--place", "2"),
    ("global-height", "[1:1]", "--weights", "(2,3)", "--divisor", "x0+x1"),
])
def test_local_heights_mixed_message_names_no_missing_option(capsys, argv):
    # these commands take no gcd weights, so the error must not ask for them
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert json.loads(err) == {
        "error": "mixed-degree",
        "message": "local heights need weighted homogeneous generators",
    }


@pytest.mark.parametrize("argv", [
    ("zeta", "[3:4]", "--weights", "(2,3)", "--divisor", "x0", "--place", "3",
     "--kind", "hyperplane"),
    ("vojta-scan", "--weights", "(1,1,1)", "--generators", "x1-x0;x2-x0",
     "--domain", "box:2", "--metric", "alt"),
    ("zeta", "[3:4]", "--weights", "(2,3)", "--generators", "x0;x1", "--place", "3",
     "--gcd-weights", "(2,3)"),
    ("global-height", "[3:4]", "--weights", "(2,3)", "--generators", "x0;x1",
     "--gcd-weights", "(2,3)"),
])
def test_removed_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, digest", [
    (("vojta-scan", "--weights", "(1,2,3)", "--generators", "x1-x0;x2-x0",
      "--main2-default", "--epsilon", "1", "--s-primes", "2,3",
      "--domain", "sunit:2,3:1000000", "--format", "csv"),
     "6ab2acd36f645dc8b3c003cb82ca985a5db0033b91d4ce247a658e7cae58db56"),
    (("vojta-scan", "--weights", "(1,1,2)", "--generators", "x1-x0;x2-x0",
      "--gcd-weights", "(1,1)", "--epsilon", "1/2", "--s-primes", "2",
      "--domain", "box:14", "--format", "csv"),
     "a55d365fa75862270ef63900744a62925652a626152ce983ff9e11ff1ba683a7"),
    (("sing1-audit", "--weights", "(2,3,5)", "--bound", "11", "--format", "json"),
     "ac431e4d80b837544cd3f63d535aebdb95802bcd1285f78c554285ef91472a5c"),
])
def test_benchmark_commands_keep_their_bytes(capsys, argv, digest):
    # the stdout of the benchmark's seed-0 scans and audit, byte for byte
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class _Writes:
    """A stdout that records each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("argv, digest", [
    (("sing1-audit", "--weights", "(2,3,5)", "--bound", "11", "--format", "json"),
     "ac431e4d80b837544cd3f63d535aebdb95802bcd1285f78c554285ef91472a5c"),
    (("vojta-scan", "--weights", "(1,1,2)", "--generators", "x1-x0;x2-x0",
      "--gcd-weights", "(1,1)", "--epsilon", "1/2", "--s-primes", "2",
      "--domain", "box:14", "--format", "csv"),
     "a55d365fa75862270ef63900744a62925652a626152ce983ff9e11ff1ba683a7"),
])
def test_writers_never_hold_the_whole_output(monkeypatch, argv, digest):
    # the writers stream their rows in bounded chunks: no write is the output
    stdout = _Writes()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(list(argv)) == 0
    text = "".join(stdout.writes)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert max(map(len, stdout.writes)) <= len(text) / 8


class _Count:
    """A stdout that counts the characters written and keeps none."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


@pytest.mark.parametrize("write, most", [(format_scan_csv, 2.0), (format_scan_json, 1.3)])
def test_a_scan_holds_little_more_than_its_output(write, most):
    # a string per row held the output over again in string headers and list
    # slots: a traced peak of 2.68 (CSV) and 1.50 (JSON) times the characters
    # written at box:14; a text per block holds little more than the output
    config = _scan_config((1, 1, 2), ("x1-x0", "x2-x0"), (1, 1), "1/2", (2,),
                          BoxDomain.symmetric(14, 3))
    out = _Count()
    tracemalloc.start()
    try:
        write(config, 1, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= most * out.chars, (peak, out.chars)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_reader_that_closes_stdout_early_ends_the_run_quietly(unbuffered):
    # `wproj sing1-audit ... | head -c 10` printed a BrokenPipeError traceback
    # and exited 1, or under PYTHONUNBUFFERED=1 exited 0 as if all was written
    argv = ("sing1-audit", "--weights", "(2,3,5)", "--bound", "11")
    code, head, err = run_wproj_closing(10, *argv, unbuffered=unbuffered, timeout=60)
    assert head == b'{\n  "weigh'
    assert (code, err) == (1, b"")


def test_a_run_started_without_stdout_ends_as_a_scalar_command_does():
    # with fd 1 closed (`wproj ... >&-`) sys.stdout is None: the scan and the
    # audit died of an AttributeError and exited 1, while `height` exited 0
    for argv in [
        ("vojta-scan", "--weights", "(1,1,1)", "--generators", "x1-x0;x2-x0", "--domain", "box:2"),
        ("sing1-audit", "--weights", "(2,3,5)", "--bound", "2"),
        ("height", "[3:4]", "--weights", "(1,1)"),
    ]:
        assert run_wproj_without_stdout(*argv, timeout=60) == (0, ""), argv
    # errors keep their codes and their records on stderr
    code, err = run_wproj_without_stdout("height", "[a:4]", "--weights", "(1,1)", timeout=60)
    assert (code, json.loads(err)["error"]) == (2, "parse-error")
    code, err = run_wproj_without_stdout("sing1-audit", "--weights", "(2,4)", "--bound", "2",
                                         timeout=60)
    assert (code, json.loads(err)["error"]) == (3, "ill-formed-weights")


SUNIT_SEED_1 = ("vojta-scan", "--weights", "(1,2,3)", "--generators", "x1-2*x0;x2-5*x0",
                "--main2-default", "--epsilon", "1", "--s-primes", "2,3",
                "--domain", "sunit:2,3:1000000")
BOX_SEED_1 = ("vojta-scan", "--weights", "(1,1,2)", "--generators", "x1-x0;x2-x0",
              "--gcd-weights", "(1,1)", "--epsilon", "1/2", "--s-primes", "2",
              "--domain", "box:-15..13,-12..16,-16..12")


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("argv, digest", [
    # the benchmark's seed-0 scans: sunit-preset and box-scan, in CSV and JSON
    (("vojta-scan", "--weights", "(1,2,3)", "--generators", "x1-x0;x2-x0",
      "--main2-default", "--epsilon", "1", "--s-primes", "2,3",
      "--domain", "sunit:2,3:1000000", "--format", "csv"),
     "6ab2acd36f645dc8b3c003cb82ca985a5db0033b91d4ce247a658e7cae58db56"),
    (("vojta-scan", "--weights", "(1,1,2)", "--generators", "x1-x0;x2-x0",
      "--gcd-weights", "(1,1)", "--epsilon", "1/2", "--s-primes", "2",
      "--domain", "box:14", "--format", "csv"),
     "a55d365fa75862270ef63900744a62925652a626152ce983ff9e11ff1ba683a7"),
    (("vojta-scan", "--weights", "(1,2,3)", "--generators", "x1-x0;x2-x0",
      "--main2-default", "--epsilon", "1", "--s-primes", "2,3",
      "--domain", "sunit:2,3:1000000", "--format", "json"),
     "92e43690012cb7110f32e84e19c083ddbcaeae623b9543d15c7660ae89d68d24"),
    (("vojta-scan", "--weights", "(1,1,2)", "--generators", "x1-x0;x2-x0",
      "--gcd-weights", "(1,1)", "--epsilon", "1/2", "--s-primes", "2",
      "--domain", "box:14", "--format", "json"),
     "6870cf835231a76ad98029dfc665c8afbdf87ab3b6da57379a79ed6ff2546b8d"),
    # their seed-1 inputs (perfbench/workloads.py): shifted generators, a translated box
    ((*SUNIT_SEED_1, "--format", "csv"),
     "5266dde1860d4c73a67e4cb3a118b96e0f2914dc8ab85033c158be567a87931f"),
    ((*SUNIT_SEED_1, "--format", "json"),
     "abd5949bfe84eaf2fb3e83108787b77b5e3b9c346ccdfed8bea02ef1487c8984"),
    ((*BOX_SEED_1, "--format", "csv"),
     "3e4dfe0a09cb63b05ad522413952c1fc7a1010a74864fa1b274e36b7ffde80e0"),
    ((*BOX_SEED_1, "--format", "json"),
     "0282cc27f132cb9299c5a8b20b6ef5c8d34a52f41b1af7948b99de70db4929a2"),
])
def test_benchmark_scans_keep_their_bytes_at_any_worker_count(monkeypatch, capsys, argv,
                                                             digest, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # fork a worker on any machine
    code, out, err = run_cli(capsys, *argv, "--workers", workers)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


floats = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.lists(st.tuples(floats.filter(lambda r: r >= 1), floats.filter(lambda q: q > 0),
                                    st.booleans()), max_size=8), max_size=6))
def test_cached_renderers_write_each_floats_own_text(blocks):
    # one renderer per scan, over its blocks: a float's text as each row wrote it
    # before, in one text per block, its rows joined as the writer joins them
    csv, json_rows = _csv_rows(), _json_rows()
    for k, block in enumerate(blocks):
        prefix, values, lhs = (k, -k), list(range(len(block))), [k + 1] * len(block)
        rhs, ratio, exceptional = (list(column) for column in zip(*block)) if block else ([],) * 3
        columns = (prefix, values, lhs, rhs, ratio, exceptional)
        assert csv(*columns) == ["\n".join(
            f"[{k}:{-k}:{v}],{a},{r:.12g},{q:.12g},{'true' if e else 'false'}"
            for v, a, r, q, e in zip(values, lhs, rhs, ratio, exceptional))]
        assert json_rows(*columns) == [",\n    ".join(
            f'{{\n      "point": "[{k}:{-k}:{v}]",\n      "lhs": {a},\n      "rhs": '
            f'{_real(r)!r},\n      "ratio": {_real(q)!r},\n      "exceptional": '
            f'{"true" if e else "false"}\n    }}'
            for v, a, r, q, e in zip(values, lhs, rhs, ratio, exceptional))]


# sing1-audit --bound 11 at each permutation of (2,3,5): (CSV, JSON) sha256 of stdout
AUDIT_DIGESTS = {
    "(2,3,5)": ("110f27ca9e939fe5ece3a99adc9093fb25d67024672e2249814e194ffeaa1af6",
                "ac431e4d80b837544cd3f63d535aebdb95802bcd1285f78c554285ef91472a5c"),
    "(2,5,3)": ("d161af08aa9212a316d0a4e0fa7dc6fd4c719a19dc014887d91950dd732a79dc",
                "c4845597270c7c4410e29023519205b79cf1bd7249dd638f9de7b75cff664e2f"),
    "(3,2,5)": ("dfc8959d09f0837f3fd91d5b83e5e0e4a890962a786ab3d5a835b29db48f12c9",
                "c6e3f1ac43e515457cf22d4fa16e36289b15745f2565d547308443e2b8f3c1a6"),
    "(3,5,2)": ("5e859b5918014dfc0de4f9f9b9f460f35170993337dca31603ca54301d902dcc",
                "7b32593ab231422ec236259a46cf0c456f2d62e5920c8318e16aa44a29fe50df"),
    "(5,2,3)": ("3156e8e60cb3e2909a15713156b00dde6f1f521d4deb80fa964446418720f676",
                "6a0fca46258beeea1d699c2ad0aa14ac58e9acac40b07cf907104e381743c2e2"),
    "(5,3,2)": ("1daccd029525a7e85d15d3c148ad4ff7afdc5443d43e8b81373d4069cdf9e447",
                "380156607fa4ff53ed1f2926507f51127a781ebc5d3deae193822b7cc29a76b8"),
}


def _audit_digest(capsys, weights, fmt):
    code, out, err = run_cli(capsys, "sing1-audit", "--weights", weights, "--bound", "11",
                             "--format", fmt)
    assert code == 0, err
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("seed, weights", [(1, "(2,5,3)"), (2, "(2,3,5)")])
def test_benchmark_audits_at_other_seeds_keep_their_bytes(capsys, seed, weights):
    # the benchmark's audit draws its weights by seed (perfbench/workloads.py)
    assert _audit_digest(capsys, weights, "json") == AUDIT_DIGESTS[weights][1]


def test_audits_in_one_process_keep_their_bytes(capsys):
    # each audit renders from caches of its own: one that outlived its audit
    # would show here, at the next weights
    for weights, digests in [*AUDIT_DIGESTS.items(), *AUDIT_DIGESTS.items()]:
        assert (_audit_digest(capsys, weights, "csv"),
                _audit_digest(capsys, weights, "json")) == digests, weights


@pytest.mark.parametrize("argv, line", [
    (("height", "[3/2:-5/9]", "--weights", "(2,3)"),
     '{"point": "[3/2:-5/9]", "weights": "(2,3)", "m": 6, "wh_pow_m": "2187", '
     '"lwh": 1.28171433678, "per_place": [["oo", "27/8"], ["2", "8"], ["3", "81"], '
     '["5", "1"]]}'),
    (("height", "[1/3:5/7:-11]", "--weights", "(1,2,3)"),
     '{"point": "[1/3:5/7:-11]", "weights": "(1,2,3)", "m": 6, "wh_pow_m": "30255687", '
     '"lwh": 2.87086578746, "per_place": [["oo", "121"], ["3", "729"], ["5", "1"], '
     '["7", "343"], ["11", "1"]]}'),
    (("normalize", "[1/2:-3/4:5]", "--weights", "(1,2,3)"),
     '{"point": "[1:-3:40]", "wgcd": "2", "denominator_scale": "4"}'),
    (("normalize", "[-7/2:9/8]", "--weights", "(2,3)"),
     '{"point": "[-14:9]", "wgcd": "4", "denominator_scale": "8"}'),
    (("veronese", "[1/2:3/4:-5/6]", "--weights", "(1,2,3)"),
     '{"weights": "(1,2,3)", "reduced_weights": "(1,2,3)", "reduction_exponents": '
     '[1, 1, 1], "m": 6, "exponents": [6, 3, 2], "is_embedding": true, '
     '"image": "[9:243:400]"}'),
    (("veronese", "[-3:4:-5:2]", "--weights", "(2,4,6,10)"),
     '{"weights": "(2,4,6,10)", "reduced_weights": "(1,2,3,5)", "reduction_exponents": '
     '[2, 2, 2, 2], "m": 60, "exponents": [30, 15, 10, 6], "is_embedding": true, '
     '"image": "[205891132094649:1073741824:9765625:64]"}'),
    (("zeta", "[1/3:5/7]", "--weights", "(2,3)", "--place", "inf", "--divisor", "x0"),
     '{"point": "[1/3:5/7]", "place": "oo", "metric": "paper", "zeta": 0.0148659298007, '
     '"formal": [[3, "1/6"], [5, "1/2"], [7, "-1/2"]]}'),
    (("zeta", "[1/3:5/7]", "--weights", "(2,3)", "--place", "7",
      "--divisor", "2/3*x0^3+x1^2"),
     '{"point": "[1/3:5/7]", "place": "7", "metric": "paper", "zeta": 0.324318358176, '
     '"formal": [[7, "1/6"]]}'),
    (("zeta", "[-9/4:27/8]", "--weights", "(2,3)", "--place", "2",
      "--generators", "x0^3-x1^2;x0^3"),
     '{"point": "[-9/4:27/8]", "place": "2", "metric": "paper", "zeta": 0.34657359028, '
     '"formal": [[2, "1/2"]]}'),
    (("global-height", "[1/3:5/7:2]", "--weights", "(1,2,3)",
      "--divisor", "x0^6-1/2*x2^2"),
     '{"point": "[1/3:5/7:2]", "metric": "paper", "value": 1.17831235474, '
     '"formal": [[2, "1/2"], [3, "1/6"], [7, "1/3"]]}'),
    (("global-height", "[-4/9:8/27]", "--weights", "(2,3)", "--divisor", "x1",
      "--metric", "alt"),
     '{"point": "[-4/9:8/27]", "metric": "alt", "value": 0.0, "formal": []}'),
])
def test_scalar_commands_keep_their_bytes(capsys, argv, line):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out == line + "\n"


def test_rat_is_the_numerator_slash_denominator_text():
    rng = random.Random(8)
    for _ in range(2000):
        r = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.choice((1, 1, rng.randint(1, 10 ** 6))))
        n, d = r.numerator, r.denominator
        assert _rat(r) == (str(n) if d == 1 else f"{n}/{d}")
        if d == 1:
            assert _rat(n) == str(n)
