import hashlib
import json
import os
import random
from fractions import Fraction

import pytest


from wproj.cli import (
    _config_record,
    _json_row,
    _rat,
    _real,
    format_audit_json,
    format_scan_json,
    main,
)
from wproj.gcdops import Subscheme
from wproj.scan import (
    AuditReport,
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
        "counterexamples": [
            {
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
            for row in report.counterexamples
        ],
    }


def test_audit_json_matches_the_json_module():
    reports = [sing1_audit(Weights.of(*q), bound) for q, bound in (
        ((2, 3, 5), 4), ((1, 4, 6, 9), 2), ((1,), 3), ((2, 3), 6), ((1, 1), 0),
    )]
    reports.append(AuditReport(Weights.of(1, 1), 9, 5, 2, [
        AuditRow((-1, 1), ()),  # empty valuations
        AuditRow((0, 97), ((97, (-1, 1), 1),)),
        AuditRow((12, -18), ((2, (2, 1), 1), (3, (1, 2), 1))),
    ]))
    assert reports[-2].counterexamples == []
    assert any(not row.valuations for row in reports[0].counterexamples)
    for report in reports:
        expected = json.dumps(_audit_record(report), indent=2) + "\n"
        assert format_audit_json(report) == expected


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
    rows = vojta_scan(config)
    expected = json.dumps(_scan_record(rows), indent=2) + "\n"
    assert format_scan_json(rows) == expected
    for workers in (1, 2):
        rendered = vojta_scan(config, workers=workers, render=_json_row)
        assert format_scan_json(rendered) == expected


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
