"""Job timing, answer checking and the statistics the benchmark reports.

A workload is a stream of sessions; a session is a fixed-size batch of
jobs drawn from the seed. Each session runs its jobs back to back in one
timed stretch, with no checking in between, and only then checks every
answer, so the timed part is the library's work alone.

Every time is the process's CPU time (user + system, all threads), not
wall time. The library is single-threaded and computes without waiting,
so on a dedicated machine the two agree; on a shared virtual machine the
wall time also counts the stretches the hypervisor gives the CPU to other
guests, which made a fixed loop's wall time vary by 0.16-0.67
IQR/median where its CPU time varied by 0.04-0.06.

CPU time still follows the host's speed, and a shared host switches
between speeds about 1.4x apart for seconds to minutes at a time, which
moved whole runs of the same code by 30%. So a fixed pure-Python loop,
the reference, runs before the first job of a session and after every
job, and each job's CPU time is scaled by REF_NOMINAL_S over the mean
of the two reference times around it: job times are CPU times at the
speed where the reference takes REF_NOMINAL_S. The loop slows and
speeds up with the library: over the same sessions, repeated for two
minutes, session CPU time varied by 0.17-0.25 IQR/median and the scaled
time by 0.05-0.08. The raw CPU times are printed too.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Percentiles tried for job_tail_ms, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

# The clock of every job and session time: process CPU seconds.
CLOCK = time.process_time

# The reference loop's length, and its CPU time at the nominal speed to
# which job times are scaled (about its time on a 2.1 GHz Xeon VM).
REF_LOOPS = 10_000
REF_NOMINAL_S = 1e-3

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("session_cpu_s", "s"),
    ("jobs_per_cpu_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("pass_frac", "ratio"),
    ("peak_rss_mib", "MiB"),
)


@dataclass
class Job:
    """One user-level request: `run` calls the library, `check` judges
    its return value against an independent expectation."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Tally:
    """Outcomes and timings accumulated over a run."""

    latencies: List[float] = field(default_factory=list)
    session_times: List[float] = field(default_factory=list)
    raw_latencies: List[float] = field(default_factory=list)
    references: List[float] = field(default_factory=list)
    attempted: int = 0
    passed: int = 0
    known_failed: Dict[str, int] = field(default_factory=dict)
    known_passed: Dict[str, int] = field(default_factory=dict)
    unexpected: List[str] = field(default_factory=list)


def reference_time() -> float:
    """CPU time of the fixed reference loop: the host's current speed."""
    start = CLOCK()
    x = 0
    for k in range(REF_LOOPS):
        x += k * k % 7
    return CLOCK() - start


def scaled(raw: Sequence[float], references: Sequence[float]) -> List[float]:
    """Job CPU times at the nominal speed. `references` has one more entry
    than `raw`: the reference times before the first job and after each."""
    return [t * 2 * REF_NOMINAL_S / (before + after)
            for t, before, after in zip(raw, references, references[1:])]


def run_session(jobs: Sequence[Job], tally: Tally, known: Dict[str, str],
                tracer=None) -> None:
    """Time `jobs` back to back in CPU time, then check each answer into `tally`.

    The reference loop runs before the first job and after each one; it
    is not part of any job's time. A job fails when it raises or when
    its check rejects the answer. Failures of a kind listed in `known`
    are counted separately from unexpected ones; a listed kind that
    passes is recorded too.
    """
    results: List[Tuple[object, Optional[BaseException]]] = []
    raw: List[float] = []
    references = [reference_time()]
    clock = CLOCK
    for job in jobs:
        if tracer is not None:
            tracer.begin_job()
        t0 = clock()
        try:
            value, error = job.run(), None
        except Exception as exc:  # a raising job is a failed job, not a crash
            value, error = None, exc
        raw.append(clock() - t0)
        if tracer is not None:
            tracer.end_job()
        references.append(reference_time())
        results.append((value, error))
    latencies = scaled(raw, references)
    tally.session_times.append(sum(latencies))
    tally.latencies.extend(latencies)
    tally.raw_latencies.extend(raw)
    tally.references.extend(references)
    for job, (value, error) in zip(jobs, results):
        tally.attempted += 1
        ok = error is None and _judge(job, value)
        if job.kind in known:
            bucket = tally.known_passed if ok else tally.known_failed
            bucket[job.kind] = bucket.get(job.kind, 0) + 1
        if ok:
            tally.passed += 1
        elif job.kind not in known:
            why = f"raised {error!r}" if error is not None else "wrong answer"
            tally.unexpected.append(f"{job.kind}: {why}")


def _judge(job: Job, value: object) -> bool:
    try:
        return bool(job.check(value))
    except Exception:  # a malformed answer the check cannot read is wrong
        return False


def load_known_defects(path: Path) -> Dict[str, str]:
    """Job kinds that fail today, mapped to the ROADMAP item that fixes them."""
    entries = json.loads(path.read_text())
    return {e["job"]: f"ROADMAP item {e['roadmap_item']}: {e['defect']}" for e in entries}


def _rank(count: int, pct: float) -> int:
    # exact arithmetic: 99.9/100 * 10000 is 9990.000000000002 in floats
    return max(1, math.ceil(Fraction(str(pct)) * count / 100))


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """The nearest-rank percentile of already sorted values."""
    return sorted_values[_rank(len(sorted_values), pct) - 1]


def beyond(count: int, pct: float) -> int:
    """Samples strictly above the nearest-rank `pct` percentile of `count`."""
    return count - _rank(count, pct)


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if beyond(count, pct) >= TAIL_MIN_BEYOND:
            return pct
    return None


def min_jobs(pct: float) -> int:
    """The fewest samples that leave ten beyond the `pct` percentile."""
    count = TAIL_MIN_BEYOND
    while beyond(count, pct) < TAIL_MIN_BEYOND:
        count += 1
    return count


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def latency_summary(latencies: Sequence[float], pct: float) -> Tuple[float, float]:
    """(p50 ms, `pct` percentile ms) of job latencies given in seconds."""
    ordered = sorted(latencies)
    if beyond(len(ordered), pct) < TAIL_MIN_BEYOND:
        raise ValueError(f"{len(ordered)} jobs leave fewer than {TAIL_MIN_BEYOND} "
                         f"beyond the p{pct:g}")
    return median(ordered) * 1e3, nearest_rank(ordered, pct) * 1e3


def metrics(values: Dict[str, float], names: Sequence[Tuple[str, str]]) -> Dict[str, dict]:
    """The result's "metrics" object: every named metric with its unit."""
    return {name: {"value": values[name], "unit": unit} for name, unit in names}
