"""Command-line front end.

Exit codes: 0 success / check passed, 1 usage or validation error,
2 a mathematical check ran and failed. All numeric output is exact.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import List, Optional, Sequence

from .catalog import (
    DEFAULT_ORDER,
    FAMILIES,
    CharacteristicSeries,
    closed_form_cpn,
    construct,
    format_spec,
    h_n,
    parse_spec,
)
from .chern import (
    chern_data_from_json,
    evaluate_genus,
    graded_poly_to_json,
    multiplicative_sequence,
)
from .gaussian import format_gaussian
from .localization import (
    cpn_fixed_points,
    equivariant_genus,
    fixed_points_from_json,
)
from .rigidity import NotEvenSeriesError, ar_check, classify, classify_oriented, sweep_plan
from .series import series_from_json, series_to_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
# largest --order, cpn --n, chern --kn and rigidity --trials
CAPS = {"order": 512, "n": 512, "kn": 24, "trials": 200}
# largest localization work, of one `localize` run or summed over the shapes
# of a `rigidity` sweep's plan: see _localize_work
LOCALIZE_WORK = 2_000_000
_WORK = "localize work points*n*(order+n)^2*(1 + bits//16)"


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the contract reserves 2 for
    # failed mathematical checks, so remap usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The `genus` parser, built on first use and shared by later calls."""
    parser = _Parser(prog="genus", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    sub.add_parser("catalog", help="list series families and parameters").set_defaults(
        run=_cmd_catalog)

    def verb(name, help, run, order=None, json=True):
        """A verb that `run` answers, reading --series, with --order if given its default."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--series", required=True)
        if order is not None:
            p.add_argument("--order", type=int, default=order)
        if json:
            p.add_argument("--json", action="store_true")
        return p

    verb("expand", "print the coefficients of a series", _cmd_expand, DEFAULT_ORDER)
    p = verb("cpn", "genus of complex projective n-space", _cmd_cpn, json=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--closed-form", action="store_true",
                   help="cross-check against the closed form (exit 2 on mismatch)")

    p = verb("chern", "evaluate a genus on Chern numbers, or dump K_n", _cmd_chern)
    p.add_argument("--data", help="Chern-number JSON file")
    p.add_argument("--kn", type=int, help="dump the degree-n sequence polynomial")

    p = verb("localize", "equivariant genus of fixed-point data", _cmd_localize, DEFAULT_ORDER)
    p.add_argument("--input", help="fixed-point JSON file")
    p.add_argument("--weights", help="comma-separated CP^n weights, e.g. 0,1,3")

    p = verb("rigidity", "algebraic rigidity sampling check", _cmd_rigidity, 12)
    p.add_argument("--max-n", type=int, default=2)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = verb("classify", "generalized-Todd classification", _cmd_classify, DEFAULT_ORDER)
    p.add_argument("--oriented", action="store_true")
    p.add_argument("--expect-gt", action="store_true")
    return parser


def _admit(name: str, value: int, cap: int) -> None:
    """The one size refusal, made before any work: `value` lies in 0..cap."""
    if not 0 <= value <= cap:
        raise ValueError(f"{name} must be nonnegative, got {value}" if value < 0
                         else f"{name} must be at most {cap}, got {value}")


def _read_json(path: str):
    """Every input file (a `file:` series, --data, --input) is read here."""
    with open(path) as fh:
        return json.load(fh)


def _series(text: str, order: int) -> CharacteristicSeries:
    """`--series` to `order`, the degrees the verb reads: a catalog spec, or
    file:PATH, a JSON series file that keeps at most that many of its stored
    degrees. Each computation's own `truncate` refuses a file too short."""
    kind, _, path = text.partition(":")
    if kind != "file":
        return construct(parse_spec(text), order)
    if not path:
        raise ValueError("file spec needs a path, e.g. file:series.json")
    series = series_from_json(_read_json(path)).power_part()
    return CharacteristicSeries(series.truncate(min(order, series.order)))


def _localize_work(points: int, n: int, order: int, weight: int) -> int:
    """points * n * (order + n)^2 * (1 + b // 16), for points of n weights whose
    largest |weight| has b bits: the growth of the localization sum's integer
    products, whose coefficients gain about order * b bits once b outgrows
    the heights of H's own coefficients."""
    return points * n * (order + n) ** 2 * (1 + weight.bit_length() // 16)


def _cpn_work(weights: Sequence[int], order: int) -> int:
    """_localize_work of the CP^n action with these weights, read off the
    weights alone: k points of k - 1 tangent weights w_j - w_i each, the
    largest |w_j - w_i| being max(w) - min(w)."""
    return _localize_work(len(weights), len(weights) - 1, order, max(weights) - min(weights))


def _cmd_catalog(args) -> int:
    for name, family in FAMILIES.items():
        sig = ",".join(f"{p}=<q(i)>" for p in family.params)
        print(f"{name}:{sig}" if sig else name)
    print("file:PATH  (JSON series file)")
    return EXIT_OK


def _cmd_expand(args) -> int:
    series = _series(args.series, args.order).series
    if args.json:
        print(json.dumps(series_to_json(series)))
    else:
        print(", ".join(format_gaussian(c) for c in series.coeffs))
    return EXIT_OK


def _cmd_cpn(args) -> int:
    if args.closed_form and args.series.partition(":")[0] == "file":
        raise ValueError("--closed-form is not available for file series")
    H = _series(args.series, args.n)
    value = h_n(H, args.n)
    print(format_gaussian(value))
    if args.closed_form:
        expected = closed_form_cpn(H.spec, args.n)
        print(f"closed form: {format_gaussian(expected)}")
        if expected != value:
            print("MISMATCH between series expansion and closed form", file=sys.stderr)
            return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_chern(args) -> int:
    if (args.data is None) == (args.kn is None):
        raise ValueError("chern needs exactly one of --data or --kn")
    if args.json and args.data is not None:
        raise ValueError("chern --json is available with --kn only")
    if args.kn is not None:
        H = _series(args.series, args.kn)
        K = multiplicative_sequence(H, args.kn)
        if args.json:
            print(json.dumps(graded_poly_to_json(K)))
        elif not K.terms:
            print(f"[{args.kn}]: 0")
        else:
            for lam, value in K.terms.items():
                print(f"{list(lam)}: {format_gaussian(value)}")
        return EXIT_OK
    data = _read_json(args.data)
    dimension = data.get("dimension") if isinstance(data, dict) else None
    if type(dimension) is int and dimension > 0:  # the reader refuses the rest
        _admit("chern --data dimension", dimension, CAPS["kn"])
    X = chern_data_from_json(data)
    H = _series(args.series, X.degree)
    K = multiplicative_sequence(H, X.degree)
    print(format_gaussian(evaluate_genus(K, X)))
    return EXIT_OK


def _cmd_localize(args) -> int:
    if (args.input is None) == (args.weights is None):
        raise ValueError("localize needs exactly one of --input or --weights")
    if args.weights is not None:
        try:
            weights = [int(w) for w in args.weights.split(",")]
        except ValueError:
            raise ValueError(f"--weights must be comma-separated integers, got {args.weights!r}")
        _admit(_WORK, _cpn_work(weights, args.order), LOCALIZE_WORK)
        fps = cpn_fixed_points(weights)
    else:
        fps = fixed_points_from_json(_read_json(args.input))
        weight = max(abs(w) for p in fps.points for w in p.weights)
        _admit(_WORK, _localize_work(len(fps.points), fps.n, args.order, weight), LOCALIZE_WORK)
    H = _series(args.series, args.order + fps.n)
    s = equivariant_genus(H, fps, args.order)
    if args.json:
        print(json.dumps(series_to_json(s)))
    else:
        print(s)
    return EXIT_OK


def _cmd_rigidity(args) -> int:
    shapes = {shape for _, shape, _ in sweep_plan(args.max_n, args.order, args.trials, args.seed)}
    _admit(_WORK, sum(_cpn_work(s, args.order) for s in shapes), LOCALIZE_WORK)
    H = _series(args.series, args.order + args.max_n)
    report = ar_check(H, args.max_n, args.order, args.trials, args.seed)
    if args.json:
        print(json.dumps(report.to_json()))
    elif report.passed:
        print(f"PASS: constant on {len(report.tuples_checked)} weight tuples "
              f"up to order {report.order}")
    else:
        weights, degree, coeff = report.witness
        print(f"FAIL: weights {list(weights)} give a nonconstant sum: "
              f"degree {degree} coefficient {format_gaussian(coeff)}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_classify(args) -> int:
    H = _series(args.series, args.order)
    try:
        report = classify_oriented(H) if args.oriented else classify(H)
    except NotEvenSeriesError as exc:
        if args.json:
            print(json.dumps({"is_gt": False, "case": "NotEven",
                              "witness_degree": exc.degree,
                              "coefficient": format_gaussian(exc.coefficient)}))
        else:
            print(f"not an oriented genus series: {exc}")
        return EXIT_CHECK_FAILED if args.expect_gt else EXIT_OK
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        if report.is_gt:
            print(f"GT series, case {report.case}: r1={format_gaussian(report.r1)}, "
                  f"h2={format_gaussian(report.h2)}, d={format_gaussian(report.d)}")
            if report.closed_form is not None:
                print(f"closed form: {format_spec(report.closed_form)}")
            if report.gab_form is not None:
                print(f"cot form: {format_spec(report.gab_form)}")
        else:
            print(f"not a GT series: first mismatch at degree {report.witness} "
                  f"(r1={format_gaussian(report.r1)}, h2={format_gaussian(report.h2)})")
    if args.expect_gt and not report.is_gt:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name, value in vars(args).items():
            if name in CAPS and value is not None:  # chern --kn is None with --data
                _admit(f"--{name}", value, CAPS[name])
        return args.run(args)
    except SystemExit as exc:  # -h/--help; argparse's usage errors raise ValueError (_Parser)
        return exc.code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
