"""Time the single-call rows of the ROADMAP item 1 baseline table.

    python3 perfbench/roadmap_table.py

Prints a markdown table: each row's median over a few calls (one call
for the multi-second rows) next to the ROADMAP figure. The series is
dab:a=3/5,b=-2/7 (real) or dab:a=1/2+3i,b=1/3 (complex) where the table
does not name one. Localization rows use fresh weights on every call,
so the real path's tuple cache stays cold.
"""
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hirzebruch as hz  # noqa: E402
from hirzebruch.chern import k_polynomials  # noqa: E402

REAL = "dab:a=3/5,b=-2/7"
COMPLEX = "dab:a=1/2+3i,b=1/3"


def series(text, order):
    return hz.construct(hz.parse_spec(text), order)


def timed(fn, reps):
    walls = []
    for rep in range(reps):
        t0 = time.perf_counter()
        fn(rep)
        walls.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(walls)


def main():
    real64, real24 = series(REAL, 64), series(REAL, 24)
    complex24 = series(COMPLEX, 24)
    weights = [(0, 1, 5 + r, -3 - r) for r in range(5)]
    rows = [
        ("`construct` dab, order 64", "27", lambda r: series(REAL, 64), 5),
        ("`construct` gab, order 64", "48", lambda r: series("gab:a=2/3,b=1/5", 64), 5),
        ("`h_n` n=64", "183–200", lambda r: hz.h_n(real64, 64), 3),
        ("`novikov_g(64)`", "4200", lambda r: hz.novikov_g(real64, 64), 1),
        ("`verify_novikov(64)`", "4900", lambda r: hz.verify_novikov(real64, 64), 1),
        ("`classify` order 64", "10", lambda r: hz.classify(real64), 5),
        ("`k_polynomials` n=14", "228", lambda r: k_polynomials(real64, 14), 3),
        ("localization n=3, order 20, real (cold cache)", "0.82",
         lambda r: hz.equivariant_genus(real24, hz.cpn_fixed_points(weights[r]), 20), 5),
        ("localization n=3, order 20, complex", "38",
         lambda r: hz.equivariant_genus(complex24, hz.cpn_fixed_points(weights[r]), 20), 5),
        ("`ar_check(max_n=3, order=20, trials=100)`, real", "170",
         lambda r: hz.ar_check(real24, 3, 20, 100, seed=r), 3),
        ("`ar_check(max_n=3, order=20, trials=100)`, complex", "7000",
         lambda r: hz.ar_check(complex24, 3, 20, 100, seed=r), 1),
    ]
    print("| Layer | ROADMAP (ms) | measured (ms) |")
    print("| --- | --- | --- |")
    for label, roadmap, fn, reps in rows:
        print(f"| {label} | {roadmap} | {timed(fn, reps):.3g} |", flush=True)


if __name__ == "__main__":
    main()
