"""The four seeded workloads, each an endless stream of fixed-size sessions.

A session's inputs come only from the workload's random generator, which
the seed starts. Specs are drawn fresh for every session, so a long run
behaves like a long user session: the library's caches warm up on
whatever repeats by chance, not on a replayed batch.

Each spec is labelled real or complex from its expanded coefficients,
never from its family name: gab with real a, or dab with imaginary a,
has real coefficients and runs on the real localization path.
"""
from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import hirzebruch as hz
from hirzebruch import chern as hz_chern
from hirzebruch import cli as hz_cli

import oracle
from harness import Job
from oracle import Q

# Sizes per job; the README explains the choice.
TOWER_ORDER = 40
TOWER_HN = (10, 20, 30, 40)
TOWER_NOVIKOV = 24
TOWER_KN = 12
TOWER_ROUNDTRIP = 16
REAL_AR = dict(max_n=3, order=20, trials=20)
REAL_QUERIES = 8
COMPLEX_AR = dict(max_n=2, order=12, trials=5)
COMPLEX_QUERIES = 12
QUERY_ORDER = 16
# CP^3 queries only: mixing CP^2 (3x cheaper) would split the latency
# distribution in two and put job_p50_ms on the gap between the halves.
QUERY_WEIGHTS = 4
# The CLI's default order. Series files are stored at exactly this order,
# so "expand --series file:X" expects the same output whether or not
# construct honours `order` for file specs (ROADMAP item 4).
CLI_ORDER = 16
LABEL_ORDER = 8

BERNOULLI = oracle.bernoulli(TOWER_ORDER)

FAMILY_PARAMS = {
    "todd": (),
    "ty": ("y",),
    "txy": ("x", "y"),
    "dab": ("a", "b"),
    "gab": ("a", "b"),
    "euler": ("a",),
}


@dataclass(frozen=True)
class Spec:
    family: str
    text: str
    x: Q
    y: Q
    real: bool

    def coeffs(self, order: int) -> List[Q]:
        return oracle.characteristic_coeffs(self.x, self.y, order, BERNOULLI)

    def cpn(self, n: int) -> Q:
        return oracle.cpn_value(self.x, self.y, n)


def _rational(rng: random.Random) -> Fraction:
    """A nonzero rational p/q with coprime p, q in 5..9: every parameter
    has about three bits of height, because cost grows with height and a
    run should differ from another only by noise, not by luck of the draw."""
    while True:
        p, q = rng.randint(5, 9), rng.randint(5, 9)
        if math.gcd(p, q) == 1:
            return Fraction(rng.choice((-p, p)), q)


def _param(rng: random.Random, real: bool) -> Q:
    """A real or purely imaginary parameter for a real slot (gab with
    imaginary a has real coefficients), a full complex one otherwise."""
    if not real:
        return (_rational(rng), _rational(rng))
    if rng.random() < 0.5:
        return (_rational(rng), Fraction(0))
    return (Fraction(0), _rational(rng))


def make_spec(family: str, params: Dict[str, Q]) -> Spec:
    text = family
    if params:
        text += ":" + ",".join(f"{k}={oracle.format_q(v)}" for k, v in sorted(params.items()))
    x, y = oracle.family_xy(family, params)
    # Degrees 1 and 2 decide it: (x - y)/2 and B_2 s^2/2 real make every
    # later coefficient, a real multiple of an even power of s, real too.
    real = oracle.is_real(oracle.characteristic_coeffs(x, y, LABEL_ORDER, BERNOULLI))
    return Spec(family, text, x, y, real)


def draw_spec(rng: random.Random, real: bool, family: Optional[str] = None) -> Spec:
    """A catalog spec, of `family` if given, whose expanded coefficients
    are real, or not."""
    while True:
        name = family or rng.choice(tuple(FAMILY_PARAMS))
        spec = make_spec(name, {p: _param(rng, real) for p in FAMILY_PARAMS[name]})
        if spec.real == real:
            return spec


def catalog_draw(rng: random.Random, real: bool, skip: Sequence[str] = ()) -> List[Spec]:
    """One spec of every family that can be real (or complex), except
    those in `skip`, in random order. Families differ in cost by up to
    10x, so a session holds each once and runs differ only in the drawn
    parameters."""
    families = [f for f in FAMILY_PARAMS if (real or FAMILY_PARAMS[f]) and f not in skip]
    rng.shuffle(families)
    return [draw_spec(rng, real, family) for family in families]


def gaussian(z: Q) -> hz.GaussianRational:
    return hz.GaussianRational(z[0], z[1])


def same(value: hz.GaussianRational, expected: Q) -> bool:
    return value.re == expected[0] and value.im == expected[1]


def coeffs_match(coeffs: Sequence[hz.GaussianRational], expected: Sequence[Q]) -> bool:
    """Coefficient by coefficient over the full expected length."""
    return len(coeffs) == len(expected) and all(map(same, coeffs, expected))


def constant_series(s: hz.LaurentSeries, order: int, value: Q) -> bool:
    """`s` is known exactly to `order` and equals the constant `value`."""
    if s.order != order:
        return False
    return all(same(s.coefficient(k), value if k == 0 else oracle.ZERO)
               for k in range(min(s.valuation, 0), order + 1))


def distinct_weights(rng: random.Random, count: int, bound: int) -> List[int]:
    return rng.sample(range(-bound, bound + 1), count)


# -- cpn_tower ----------------------------------------------------------------


def tower_jobs(spec: Spec) -> List[Job]:
    """The jobs on one spec. Expected values are computed in the checks,
    after the session, so set-up does not pay for the oracle."""
    state = {}

    def construct():
        state["H"] = hz.construct(hz.parse_spec(spec.text), TOWER_ORDER)
        return state["H"]

    def genus(n):
        H = state["H"]
        return hz.h_n(H, n), hz.closed_form_cpn(H.spec, n)

    def novikov():
        return hz.verify_novikov(state["H"], TOWER_NOVIKOV)

    def k_polys():
        ks = hz_chern.k_polynomials(state["H"], TOWER_KN)
        return ks, [hz.evaluate_genus(ks[m], hz.cpn_chern_numbers(m))
                    for m in range(1, TOWER_KN + 1)]

    def roundtrip():
        head = state["H"].series.truncate(TOWER_ROUNDTRIP)
        back = hz.exp_series(hz.log_series(head))
        f = hz.PowerSeries((0,) + head.inverse().coeffs[:TOWER_ROUNDTRIP])
        return back, f.compose(f.reversion())

    def genus_ok(r, n):
        want = spec.cpn(n)
        return same(r[0], want) and same(r[1], want)

    identity = [oracle.ZERO, oracle.ONE] + [oracle.ZERO] * (TOWER_ROUNDTRIP - 1)
    jobs = [Job("cpn_tower.construct", construct,
                lambda H: coeffs_match(H.series.coeffs, spec.coeffs(TOWER_ORDER)))]
    for n in TOWER_HN:
        jobs.append(Job("cpn_tower.h_n", lambda n=n: genus(n), lambda r, n=n: genus_ok(r, n)))
    jobs.append(Job("cpn_tower.verify_novikov", novikov,
                    lambda r: r.ok is True and r.witness_degree is None))
    jobs.append(Job("cpn_tower.k_polynomials", k_polys,
                    lambda r: len(r[0]) == TOWER_KN + 1
                    and coeffs_match(r[1], [spec.cpn(m) for m in range(1, TOWER_KN + 1)])))
    jobs.append(Job("cpn_tower.roundtrip", roundtrip,
                    lambda r: coeffs_match(r[0].coeffs, spec.coeffs(TOWER_ROUNDTRIP))
                    and coeffs_match(r[1].coeffs, identity)))
    return jobs


def tower_session(rng: random.Random, workdir: Path) -> List[Job]:
    specs = catalog_draw(rng, real=True) + catalog_draw(rng, real=False)
    return [job for spec in specs for job in tower_jobs(spec)]


# -- rigidity_real / rigidity_complex --------------------------------------------


def rigidity_jobs(rng: random.Random, spec: Spec, ar: dict, queries: int,
                  sweep: bool = True) -> List[Job]:
    """classify, an ar_check sweep if `sweep`, and single localization
    queries on a GT series, then both checks on a copy with one
    coefficient bumped."""
    need = max(ar["order"] + ar["max_n"], QUERY_ORDER + 3)
    H = hz.construct(hz.parse_spec(spec.text), need)
    d = oracle.gt_discriminant(spec.x, spec.y)
    count = oracle.ar_tuple_count(ar["max_n"], ar["trials"])
    x, y = gaussian(spec.x), gaussian(spec.y)
    jobs = [
        Job("rigidity.classify", lambda: hz.classify(H),
            lambda r: r.is_gt and r.case == ("D" if d != oracle.ZERO else "E")
            and same(r.d, d)),
    ]
    if sweep:
        jobs.append(Job("rigidity.ar_check",
                        lambda seed=rng.randrange(1 << 30): hz.ar_check(H, seed=seed, **ar),
                        lambda r: r.passed and len(r.tuples_checked) == count
                        and (r.max_n, r.order) == (ar["max_n"], ar["order"])))
    for _ in range(queries):
        weights = distinct_weights(rng, QUERY_WEIGHTS, 12)
        want = spec.cpn(len(weights) - 1)

        def query(weights=weights):
            fps = hz.cpn_fixed_points(weights)
            return hz.equivariant_genus(H, fps, QUERY_ORDER), fps

        jobs.append(Job("localization.equivariant_genus", query,
                        lambda r, want=want: constant_series(r[0], QUERY_ORDER, want)
                        and same(hz.ahbr_value(x, y, r[1]), want)))
    coeffs = list(H.series.coeffs)
    # An even degree from 4 on: degrees 1 and 2 fix a GT series, so a bump
    # there leaves the copy GT, and a bump at an odd degree is caught by
    # the first CP^1 tuple. An even bump passes every CP^1 tuple and fails
    # on CP^2, so the sweep runs; a random parity made this job cost 1 ms or
    # 55 ms by coin flip and put job_tail_ms on the boundary between them.
    degree = 2 * rng.randint(2, ar["order"] // 2)
    bump = (_rational(rng), Fraction(0) if spec.real else _rational(rng))
    coeffs[degree] = coeffs[degree] + gaussian(bump)
    bad = hz.CharacteristicSeries(hz.PowerSeries(coeffs))
    jobs += [
        Job("rigidity.classify_perturbed", lambda: hz.classify(bad),
            lambda r: not r.is_gt and r.witness == degree),
        Job("rigidity.ar_check_perturbed",
            lambda seed=rng.randrange(1 << 30): hz.ar_check(bad, seed=seed, **ar),
            lambda r: not r.passed),
    ]
    return jobs


def real_session(rng: random.Random, workdir: Path) -> List[Job]:
    return [job for spec in catalog_draw(rng, real=True)
            for job in rigidity_jobs(rng, spec, REAL_AR, REAL_QUERIES)]


def complex_session(rng: random.Random, workdir: Path) -> List[Job]:
    """A passing complex sweep costs as much as all the session's other
    jobs together, so only the dab spec, the family ROADMAP item 2 names,
    gets one; sweeping a random family would make sessions differ by 4x.

    euler is left out: with complex a its series is the polynomial 1 + a t,
    whose queries cost a sixth of the others and never reach the Q(i)
    work this workload is for. Its cheap jobs put job_p50_ms at the lower
    edge of the other queries' latencies, where it swung by 0.18
    IQR/median between runs of the same code; the real euler spec (case
    E) stays in rigidity_real."""
    return [job for spec in catalog_draw(rng, real=False, skip=("euler",))
            for job in rigidity_jobs(rng, spec, COMPLEX_AR, COMPLEX_QUERIES,
                                     sweep=spec.family == "dab")]


# -- cli_session ----------------------------------------------------------------

CATALOG_TEXT = (
    "euler:a=<q(i)>\ntodd\nty:y=<q(i)>\ntxy:x=<q(i)>,y=<q(i)>\n"
    "dab:a=<q(i)>,b=<q(i)>\ngab:a=<q(i)>,b=<q(i)>\nfile:PATH  (JSON series file)\n"
)


def invoke(argv: List[str]):
    """One in-process `genus` invocation: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = hz_cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_job(kind: str, argv: List[str], code: int,
            stdout_ok: Optional[Callable[[str], bool]] = None) -> Job:
    def check(r):
        if r[0] != code:
            return False
        if stdout_ok is None:  # usage errors: a reason on stderr
            return r[2] != ""
        return stdout_ok(r[1])

    return Job(kind, lambda: invoke(argv), check)


def _values(text: str) -> List[Q]:
    return [oracle.parse_q(v) for v in text.strip().split(", ")]


def _json_coeffs(text: str, valuation: int, order: int) -> List[Q]:
    data = json.loads(text)
    if (data["valuation"], data["order"]) != (valuation, order):
        raise ValueError("unexpected known range")
    return [(Fraction(c["re"]), Fraction(c["im"])) for c in data["coeffs"]]


def _lines_are(text: str, values: Sequence[Q]) -> bool:
    lines = text.splitlines()
    return len(lines) == len(values) and all(
        oracle.parse_q(line.rpartition(": ")[2]) == v for line, v in zip(lines, values))


def _kn_pairing(terms, n: int) -> Q:
    """Pair printed K_n terms with the Chern numbers of CP^n."""
    numbers = oracle.product_chern_numbers([n])
    total = oracle.ZERO
    for partition, value in terms:
        if sum(partition) != n:
            raise ValueError("term of the wrong degree")
        total = oracle.add(total, oracle.scale(value, numbers[tuple(partition)]))
    return total


def _kn_text(text: str, n: int) -> Q:
    terms = []
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        terms.append((json.loads(key), oracle.parse_q(value)))
    return _kn_pairing(terms, n)


def _kn_json(text: str, n: int) -> Q:
    data = json.loads(text)
    terms = [(t["partition"], oracle.parse_q(t["value"])) for t in data["terms"]]
    return _kn_pairing(terms, n) if data["degree"] == n else None


def _constant_json(text: str, order: int) -> Q:
    data = json.loads(text)
    if data["order"] != order:
        raise ValueError("unexpected order")
    coeffs = [(Fraction(c["re"]), Fraction(c["im"])) for c in data["coeffs"]]
    degrees = range(data["valuation"], order + 1)
    if len(coeffs) != len(degrees):
        raise ValueError("coefficient count does not match the known range")
    if any(c != oracle.ZERO for k, c in zip(degrees, coeffs) if k != 0):
        raise ValueError("not constant")
    return dict(zip(degrees, coeffs)).get(0, oracle.ZERO)


def _classify_text(text: str):
    head = text.splitlines()[0]
    prefix, _, rest = head.partition(": ")
    fields = dict(item.split("=", 1) for item in rest.split(", "))
    return prefix, {k: oracle.parse_q(v) for k, v in fields.items()}


def _classify_ok(spec: Spec, as_json: bool) -> Callable[[str], bool]:
    d = oracle.gt_discriminant(spec.x, spec.y)
    case = "D" if d != oracle.ZERO else "E"
    want = {"r1": oracle.scale(oracle.sub(spec.x, spec.y), Fraction(1, 2)),
            "h2": spec.cpn(2), "d": d}

    def ok(out: str) -> bool:
        if as_json:
            data = json.loads(out)
            got = {k: oracle.parse_q(data[k]) for k in want}
            return data["is_gt"] is True and data["case"] == case and got == want
        prefix, got = _classify_text(out)
        return prefix == f"GT series, case {case}" and got == want

    return ok


def _series_file(coeffs: Sequence[Q]) -> dict:
    return {"valuation": 0, "order": len(coeffs) - 1,
            "coeffs": [{"re": str(c[0]), "im": str(c[1])} for c in coeffs]}


def _write(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def spec_cli_jobs(rng: random.Random, spec: Spec, chern_file: str, dims, fps_file: str,
                  fps_n: int) -> List[Job]:
    s = spec.text
    k = rng.randint(4, 20)
    n_cpn = rng.randint(1, 12)
    n_kn = rng.randint(2, 6)
    weights = distinct_weights(rng, rng.randint(2, 4), 9)
    n_loc = len(weights) - 1
    product = oracle.mul(spec.cpn(dims[0]), spec.cpn(dims[1]))
    kn_json, loc_json, ar_json, cls_json = (rng.random() < 0.5 for _ in range(4))
    expect_gt = rng.random() < 0.5
    ar_count = oracle.ar_tuple_count(1, 3)
    ar_text = f"PASS: constant on {ar_count} weight tuples up to order 8\n"
    ar_dict = {"max_n": 1, "order": 8, "tuples_checked": ar_count, "passed": True}
    jobs = [
        cli_job("cli.expand", ["expand", "--series", s], 0,
                lambda out: _values(out) == spec.coeffs(CLI_ORDER)),
        cli_job("cli.expand", ["expand", "--series", s, "--order", str(k), "--json"], 0,
                lambda out: _json_coeffs(out, 0, k) == spec.coeffs(k)),
        cli_job("cli.cpn", ["cpn", "--series", s, "--n", str(n_cpn), "--closed-form"], 0,
                lambda out: _lines_are(out, [spec.cpn(n_cpn)] * 2)),
        cli_job("cli.chern", ["chern", "--series", s, "--kn", str(n_kn)]
                + (["--json"] if kn_json else []), 0,
                lambda out: (_kn_json if kn_json else _kn_text)(out, n_kn) == spec.cpn(n_kn)),
        cli_job("cli.chern", ["chern", "--series", s, "--data", chern_file], 0,
                lambda out: _lines_are(out, [product])),
        cli_job("cli.localize", ["localize", "--series", s,
                                 "--weights=" + ",".join(map(str, weights))]
                + (["--json"] if loc_json else []), 0,
                lambda out: (_constant_json(out, CLI_ORDER) if loc_json else oracle.parse_q(out))
                == spec.cpn(n_loc)),
        cli_job("cli.localize", ["localize", "--series", s, "--input", fps_file], 0,
                lambda out: oracle.parse_q(out) == spec.cpn(fps_n)),
        cli_job("cli.rigidity", ["rigidity", "--series", s, "--max-n", "1", "--order", "8",
                                 "--trials", "3", "--seed", str(rng.randrange(1000))]
                + (["--json"] if ar_json else []), 0,
                lambda out: json.loads(out) == ar_dict if ar_json else out == ar_text),
        cli_job("cli.classify", ["classify", "--series", s]
                + (["--json"] if cls_json else []) + (["--expect-gt"] if expect_gt else []), 0,
                _classify_ok(spec, cls_json)),
    ]
    return jobs


def cli_session(rng: random.Random, workdir: Path) -> List[Job]:
    specs = [draw_spec(rng, real=True), draw_spec(rng, real=False),
             draw_spec(rng, real=rng.random() < 0.5)]
    file_spec = draw_spec(rng, real=rng.random() < 0.5)
    good = file_spec.coeffs(CLI_ORDER)
    bad_coeffs = list(good)
    bad_degree = rng.randint(3, 12)
    bad_coeffs[bad_degree] = oracle.add(bad_coeffs[bad_degree], (_rational(rng), Fraction(0)))
    good_file = _write(workdir / "good.json", _series_file(good))
    bad_file = _write(workdir / "bad.json", _series_file(bad_coeffs))
    dims = (rng.randint(1, 3), rng.randint(1, 3))
    chern_file = _write(workdir / "chern.json", {
        "dimension": sum(dims),
        "numbers": [{"partition": list(lam), "value": str(v)}
                    for lam, v in oracle.product_chern_numbers(dims).items()]})
    fps_weights = distinct_weights(rng, rng.randint(2, 4), 9)
    fps_file = _write(workdir / "points.json", {"points": [
        {"weights": [wk - wi for k, wk in enumerate(fps_weights) if k != i], "sign": 1}
        for i, wi in enumerate(fps_weights)]})
    fps_n = len(fps_weights) - 1
    jobs = []
    for spec in specs:
        jobs += spec_cli_jobs(rng, spec, chern_file, dims, fps_file, fps_n)
    even = make_spec(rng.choice(("dab", "gab")), {"a": (_rational(rng), Fraction(0)),
                                                   "b": oracle.ZERO})
    short = rng.randint(4, CLI_ORDER - 1)
    n_file = rng.randint(1, 8)
    jobs += [
        cli_job("cli.catalog", ["catalog"], 0, lambda out: out == CATALOG_TEXT),
        cli_job("cli.expand_file", ["expand", "--series", f"file:{good_file}"], 0,
                lambda out: _values(out) == good),
        cli_job("cli.expand_file_order", ["expand", "--series", f"file:{good_file}",
                                          "--order", str(short)], 0,
                lambda out: _values(out) == good[: short + 1]),
        cli_job("cli.cpn_file", ["cpn", "--series", f"file:{good_file}", "--n", str(n_file)], 0,
                lambda out: _lines_are(out, [file_spec.cpn(n_file)])),
        cli_job("cli.classify_file", ["classify", "--series", f"file:{bad_file}",
                                      "--expect-gt"], 2,
                lambda out: out.startswith(f"not a GT series: first mismatch at degree "
                                           f"{bad_degree} ")),
        cli_job("cli.rigidity_file", ["rigidity", "--series", f"file:{bad_file}",
                                      "--max-n", "2"], 2,
                lambda out: out.startswith("FAIL: weights ")),
        cli_job("cli.classify_oriented", ["classify", "--series", even.text, "--oriented",
                                          "--expect-gt"], 0, _classify_ok(even, False)),
        cli_job("cli.classify_oriented", ["classify", "--series", "todd", "--oriented",
                                          "--expect-gt"], 2,
                lambda out: out.startswith("not an oriented genus series: ")),
        cli_job("cli.usage", ["cpn", "--series", "todd", "--n", "-1"], 1),
        cli_job("cli.usage", ["expand", "--series", "nosuch:a=1"], 1),
        cli_job("cli.usage", ["chern", "--series", "todd"], 1),
        cli_job("cli.usage", ["localize", "--series", "todd", "--weights", "0,0"], 1),
        cli_job("cli.usage", ["classify", "--series", "dab:a=1"], 1),
        cli_job("cli.usage", ["expand", "--series", f"file:{workdir / 'missing.json'}"], 1),
        cli_job("cli.usage", ["cpn", "--series", f"file:{good_file}", "--n", "3",
                              "--closed-form"], 1),
        cli_job("cli.usage", ["frobnicate"], 1),
    ]
    rng.shuffle(jobs)
    return jobs


# job_tail_ms percentile per workload: the highest ladder percentile that
# keeps ten jobs beyond it at the baseline job count of a 20-second run,
# with margin. It is fixed so that a faster commit, which completes more
# jobs, is compared at the same percentile; a run always lasts until it
# has enough jobs for it.
TAIL_PCT = {
    "cpn_tower": 95.0,
    "rigidity_real": 99.0,
    "rigidity_complex": 95.0,
    "cli_session": 99.0,
}

SESSIONS = {
    "cpn_tower": tower_session,
    "rigidity_real": real_session,
    "rigidity_complex": complex_session,
    "cli_session": cli_session,
}


WORKLOADS = tuple(SESSIONS)


def sessions(workload: str, seed: int, workdir: Path) -> Iterator[List[Job]]:
    """The workload's endless session stream for `seed`."""
    make = SESSIONS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield make(rng, workdir)
