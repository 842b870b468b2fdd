"""Command-line surface.

Subcommands: height, wgcd, hwgcd, normalize, veronese, singular, zeta,
global-height, vojta-scan, sing1-audit.  Scalar commands emit one JSON
record; the scan and the audit emit CSV or JSON per --format.

Conventions: exact rationals print as "p/q" strings (integers without
the "/1"), reals as numbers rounded to 12 significant digits, formal
log sums as arrays of [prime, exponent] pairs.  Exit codes: 0 success,
2 parse errors, 3 domain errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .arith import ARCHIMEDEAN, LogValue, Place, is_prime
from .errors import MixedDegree, ParseError, WProjError
from .gcdops import Subscheme, hwgcd, log_hwgcd, log_wgcd, wgcd
from .heights import wheight
from .localheights import (
    global_sum,
    zeta_hyperplane,  # unused here; perfbench/tracing.py rebinds this name
    zeta_principal,  # unused here; perfbench/tracing.py rebinds this name
    zeta_subscheme,
)
from .points import format_point, normalization, parse_coords, parse_point, veronese
from .scan import (
    AuditReport,
    BoxDomain,
    ScanConfig,
    ScanReport,
    ScanRow,
    SUnitGrid,
    sing1_audit,
    vojta_scan,
)
from .singular import is_singular, singular_components
from .weights import Weights, parse_weights, reduce, veronese_data
from .wpoly import parse_polynomial


def _rat(value) -> str:
    return str(Fraction(value))


def _real(value: float) -> float:
    return float(f"{value:.12g}")


def _formal(value: LogValue) -> list[list]:
    return [[p, _rat(c)] for p, c in value.coefficients()]


def _parse_place(text: str) -> Place:
    if text in ("inf", "oo", "infinity"):
        return ARCHIMEDEAN
    try:
        p = int(text)
    except ValueError:
        raise ParseError(f"bad place {text!r}: expected a prime or 'inf'")
    if p < 2 or not is_prime(p):
        raise ParseError(f"bad place {text!r}: {p} is not prime")
    return Place(p)


def _parse_generators(text: str, weights: Weights):
    parts = [part for part in text.split(";") if part.strip()]
    if not parts:
        raise ParseError("no generators given")
    return tuple(parse_polynomial(part, weights) for part in parts)


def _parse_s_primes(text: str) -> frozenset[int]:
    if not text.strip():
        return frozenset()
    out = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        p = int(part)
        if not is_prime(p):
            raise ParseError(f"{p} in --s-primes is not prime")
        out.add(p)
    return frozenset(out)


def _parse_domain(text: str, n_coords: int):
    kind, _, rest = text.partition(":")
    if kind == "box":
        if ".." in rest:
            bounds = []
            for part in rest.split(","):
                lo, _, hi = part.partition("..")
                try:
                    bounds.append((int(lo), int(hi)))
                except ValueError:
                    raise ParseError(f"bad box bound {part!r}")
            if len(bounds) != n_coords:
                raise ParseError(
                    f"box needs {n_coords} bounds, got {len(bounds)}"
                )
            return BoxDomain(tuple(bounds))
        try:
            radius = int(rest)
        except ValueError:
            raise ParseError(f"bad box radius {rest!r}")
        return BoxDomain.symmetric(radius, n_coords)
    if kind == "sunit":
        primes_text, _, max_text = rest.rpartition(":")
        if not primes_text:
            raise ParseError("sunit domain needs 'sunit:p1,p2,...:MAX'")
        primes = tuple(sorted(_parse_s_primes(primes_text)))
        if not primes:
            raise ParseError("sunit domain needs at least one prime")
        try:
            max_value = int(max_text)
        except ValueError:
            raise ParseError(f"bad sunit max {max_text!r}")
        return SUnitGrid(primes, max_value)
    raise ParseError(f"unknown domain {text!r}: use box:... or sunit:...")


def _emit(record: dict) -> None:
    print(json.dumps(record))


# ---------------------------------------------------------------------------
# scalar commands
# ---------------------------------------------------------------------------

def cmd_height(args) -> int:
    w = parse_weights(args.weights)
    x = parse_point(args.point, w)
    value = wheight(x)
    _emit({
        "point": str(x),
        "weights": str(w),
        "m": value.m,
        "wh_pow_m": _rat(value.wh_pow_m),
        "lwh": _real(value.lwh),
        "per_place": [[str(place), _rat(factor)] for place, factor in value.per_place],
    })
    return 0


def cmd_wgcd(args) -> int:
    w = parse_weights(args.weights)
    coords = parse_coords(args.point)
    g = wgcd(coords, w)
    formal = log_wgcd(coords, w)
    _emit({
        "weights": str(w),
        "wgcd": _rat(g),
        "log_wgcd": _real(float(formal)),
        "formal": _formal(formal),
    })
    return 0


def cmd_hwgcd(args) -> int:
    w = parse_weights(args.weights)
    coords = parse_coords(args.point)
    include_arch = args.archimedean == "on"
    g = hwgcd(coords, w)
    formal = log_hwgcd(coords, w, include_archimedean=include_arch)
    _emit({
        "weights": str(w),
        "hwgcd": _rat(g),
        "log_hwgcd": _real(float(formal)),
        "formal": _formal(formal),
        "archimedean": include_arch,
    })
    return 0


def cmd_normalize(args) -> int:
    w = parse_weights(args.weights)
    point, lam, g = normalization(parse_point(args.point, w))
    record = {"point": str(point), "wgcd": _rat(g)}
    if lam != 1:
        record["denominator_scale"] = _rat(lam)
    _emit(record)
    return 0


def cmd_veronese(args) -> int:
    w = parse_weights(args.weights)
    reduction = reduce(w)
    data = veronese_data(w)
    record = {
        "weights": str(w),
        "reduced_weights": str(reduction.target),
        "reduction_exponents": list(reduction.coord_exponents),
        "m": data.m,
        "exponents": list(data.exps),
        "is_embedding": data.is_embedding,
    }
    try:
        x = parse_point(args.point, w)
    except ParseError:
        x = None  # symbolic point: report the map data only
    if x is not None:
        record["image"] = format_point(veronese(x))
    _emit(record)
    return 0


def cmd_singular(args) -> int:
    w = parse_weights(args.weights)
    record = {
        "weights": str(w),
        "components": [
            {"prime": c.prime, "indices": list(c.indices), "dimension": c.dimension}
            for c in singular_components(w)
        ],
    }
    if args.point is not None:
        x = parse_point(args.point, w)
        record["point"] = str(x)
        record["singular"] = is_singular(x)
    _emit(record)
    return 0


def _divisor(args, w: Weights) -> Subscheme:
    """--generators f1;f2;... or --divisor f, as one subscheme."""
    if args.generators:
        gens = _parse_generators(args.generators, w)
    elif args.divisor:
        gens = (parse_polynomial(args.divisor, w),)
    else:
        raise ParseError("need --divisor or --generators")
    try:
        return Subscheme(gens)
    except MixedDegree:
        # these commands take no gcd weights, so name none
        raise MixedDegree("local heights need weighted homogeneous generators") from None


def cmd_zeta(args) -> int:
    w = parse_weights(args.weights)
    x = parse_point(args.point, w)
    place = _parse_place(args.place)
    value = zeta_subscheme(x, _divisor(args, w), place, args.metric)
    _emit({
        "point": str(x),
        "place": str(place),
        "metric": args.metric,
        "zeta": _real(float(value)),
        "formal": _formal(value),
    })
    return 0


def cmd_global_height(args) -> int:
    w = parse_weights(args.weights)
    x = parse_point(args.point, w)
    value = global_sum(x, _divisor(args, w), args.metric)
    _emit({
        "point": str(x),
        "metric": args.metric,
        "value": _real(float(value)),
        "formal": _formal(value),
    })
    return 0


# ---------------------------------------------------------------------------
# scan and audit
# ---------------------------------------------------------------------------

def _config_record(config: ScanConfig) -> dict:
    if isinstance(config.domain, BoxDomain):
        domain = {"kind": "box", "bounds": [list(b) for b in config.domain.bounds]}
    else:
        domain = {
            "kind": "sunit",
            "primes": list(config.domain.primes),
            "max_value": config.domain.max_value,
        }
    return {
        "weights": str(config.weights),
        "generators": [str(g) for g in config.subscheme.generators],
        "gcd_weights": str(config.subscheme.gcd_weights),
        "epsilon": _rat(config.epsilon),
        "delta": _rat(config.delta),
        "s_primes": sorted(config.s_primes),
        "domain": domain,
        "codim": config.r,
    }


def _csv_row(row: ScanRow) -> str:
    return (
        f"{format_point(row.point)},{row.lhs},{row.rhs:.12g},"
        f"{row.ratio:.12g},{str(row.exceptional).lower()}"
    )


def _json_row(row: ScanRow) -> str:
    """A row as ``json.dumps(..., indent=2)`` lays it out in the rows
    list: the point text needs no escaping, and a finite float's JSON
    text is its ``repr``."""
    return (
        f'{{\n      "point": "{format_point(row.point)}",\n      "lhs": {row.lhs},\n'
        f'      "rhs": {_real(row.rhs)!r},\n      "ratio": {_real(row.ratio)!r},\n'
        f'      "exceptional": {"true" if row.exceptional else "false"}\n    }}'
    )


def _row_texts(report: ScanReport, render) -> list[str]:
    """The report's rows as text.  ``cmd_vojta_scan`` has the scan's
    workers render them; a library caller's report holds ScanRows."""
    rows = report.rows
    if rows and not isinstance(rows[0], str):
        return [render(row) for row in rows]
    return rows


def format_scan_csv(report: ScanReport) -> str:
    lines = ["point,lhs,rhs,ratio,exceptional", *_row_texts(report, _csv_row)]
    return "\n".join(lines) + "\n"


def format_scan_json(report: ScanReport) -> str:
    """The scan record, byte for byte as ``json.dumps(record, indent=2)``,
    whose pure-Python encoder writes only the config head and the
    summary here; the rows come from the ``_json_row`` template."""
    head = json.dumps({"config": _config_record(report.config)}, indent=2)
    summary = json.dumps({
        "rows": len(report.rows),
        "candidates": report.total_candidates,
        "skipped_on_subscheme": report.skipped_on_subscheme,
        "exceptional": report.exceptional_count,
        "max_ratio": _real(report.max_ratio),
    }, indent=2).replace("\n", "\n  ")
    rows = _json_list(_row_texts(report, _json_row), 1)
    return f'{head[:-2]},\n  "rows": {rows},\n  "summary": {summary}\n}}\n'


def cmd_vojta_scan(args) -> int:
    w = parse_weights(args.weights)
    gens = _parse_generators(args.generators, w)
    gcd_weights = parse_weights(args.gcd_weights) if args.gcd_weights else None
    if gcd_weights is None and args.main2_default:
        gcd_weights = Weights(w.q[1:])
    sub = Subscheme(gens, gcd_weights)
    if sub.has_mixed_generator():
        print(
            "warning: mixed-degree generator(s); supply --gcd-weights deliberately",
            file=sys.stderr,
        )
    config = ScanConfig(
        weights=w,
        subscheme=sub,
        epsilon=Fraction(args.epsilon),
        delta=Fraction(args.delta),
        s_primes=_parse_s_primes(args.s_primes),
        domain=_parse_domain(args.domain, len(w)),
        codim=args.codim,
    )
    if args.format == "csv":
        render, write = _csv_row, format_scan_csv
    else:
        render, write = _json_row, format_scan_json
    report = vojta_scan(config, workers=args.workers, render=render)
    sys.stdout.write(write(report))
    return 0


def format_audit_csv(report: AuditReport) -> str:
    lines = ["point,log_hwgcd_zero,singular,counterexample"]
    for row in report.counterexamples:
        lines.append(f"{format_point(row.point)},true,false,true")
    return "\n".join(lines) + "\n"


def _json_list(items: list[str], depth: int) -> str:
    """Rendered JSON values as a list at this depth, laid out as indent=2 does."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def format_audit_json(report: AuditReport) -> str:
    """The audit record, byte for byte as ``json.dumps(record, indent=2)``,
    whose pure-Python encoder writes only the fixed-size head here; the
    counterexamples hold ints, constants, "inf" and point strings, so a
    template needs no escaping."""
    head = json.dumps({
        "weights": str(report.weights),
        "bound": report.bound,
        "summary": {
            "points": report.total_points,
            "zero_log_hwgcd": report.total_points,  # all of them: see sing1_audit
            "singular": report.singular_points,
            "counterexamples": len(report.counterexamples),
        },
    }, indent=2)
    rows = []
    for row in report.counterexamples:
        valuations = [
            f'{{\n          "prime": {p},\n          "floors": '
            + _json_list([str(f) if f >= 0 else '"inf"' for f in floors], 5)
            + f',\n          "min": {minimum}\n        }}'
            for p, floors, minimum in row.valuations
        ]
        rows.append(
            f'{{\n      "point": "{format_point(row.point)}",\n'
            '      "log_hwgcd_zero": true,\n      "singular": false,\n'
            f'      "valuations": {_json_list(valuations, 3)}\n    }}'
        )
    return f'{head[:-2]},\n  "counterexamples": {_json_list(rows, 1)}\n}}\n'


def cmd_sing1_audit(args) -> int:
    w = parse_weights(args.weights)
    report = sing1_audit(w, args.bound)
    text = (
        format_audit_csv(report) if args.format == "csv" else format_audit_json(report)
    )
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wproj",
        description="Exact weighted-projective arithmetic over Q",
    )
    parser.add_argument("--version", action="version", version=f"wproj {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_weights(p):
        p.add_argument("--weights", required=True, help='weight tuple, e.g. "(2,3)"')

    p = sub.add_parser("height", help="weighted height of a point")
    p.add_argument("point")
    add_weights(p)
    p.set_defaults(func=cmd_height)

    p = sub.add_parser("wgcd", help="weighted gcd of an integer tuple")
    p.add_argument("point")
    add_weights(p)
    p.set_defaults(func=cmd_wgcd)

    p = sub.add_parser("hwgcd", help="generalized weighted gcd of a rational tuple")
    p.add_argument("point")
    add_weights(p)
    p.add_argument("--archimedean", choices=("on", "off"), default="off")
    p.set_defaults(func=cmd_hwgcd)

    p = sub.add_parser("normalize", help="canonical integral representative")
    p.add_argument("point")
    add_weights(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("veronese", help="power map data and point image")
    p.add_argument("point", help="numeric point, or symbolic like [x0:x1] for map data only")
    add_weights(p)
    p.set_defaults(func=cmd_veronese)

    p = sub.add_parser("singular", help="singular locus data / point test")
    p.add_argument("point", nargs="?", default=None)
    add_weights(p)
    p.set_defaults(func=cmd_singular)

    def add_divisor_flags(p):
        p.add_argument("--divisor", help="a single form, e.g. 'x0'")
        p.add_argument("--generators", help="semicolon-separated forms")
        p.add_argument("--metric", choices=("paper", "alt"), default="paper")

    p = sub.add_parser("zeta", help="local height at one place")
    p.add_argument("point")
    add_weights(p)
    p.add_argument("--place", required=True, help="a prime, or 'inf'")
    add_divisor_flags(p)
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("global-height", help="sum of local heights over places")
    p.add_argument("point")
    add_weights(p)
    add_divisor_flags(p)
    p.set_defaults(func=cmd_global_height)

    p = sub.add_parser("vojta-scan", help="tabulate the weighted-gcd inequality")
    add_weights(p)
    p.add_argument("--generators", required=True, help="semicolon-separated forms")
    p.add_argument("--gcd-weights", dest="gcd_weights")
    p.add_argument(
        "--main2-default",
        action="store_true",
        help="default gcd weights to (q1,...,qn) when none are given",
    )
    p.add_argument("--epsilon", default="1", help="rational, e.g. 1 or 1/2")
    p.add_argument("--delta", default="0", help="rational, >= 0")
    p.add_argument("--s-primes", dest="s_primes", default="", help="e.g. 2,3")
    p.add_argument("--domain", required=True, help="box:RADIUS | box:a..b,... | sunit:p1,p2:MAX")
    p.add_argument("--codim", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_vojta_scan)

    p = sub.add_parser("sing1-audit", help="log-hwgcd vs singularity audit")
    add_weights(p)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(func=cmd_sing1_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WProjError as exc:
        record = {"error": exc.code, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(json.dumps({"error": "parse-error", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
