"""Benchmark of the hirzebruch library, driven through its public API.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. W is one of cpn_tower, rigidity_real,
rigidity_complex, cli_session (see README.md). The run draws its inputs
from the seed, runs sessions of jobs for S seconds in this single
process, checks every answer against an independent oracle, and prints
as its last stdout line one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. Every time it reports is CPU
time scaled to a nominal host speed by an interleaved reference loop
(harness.py says why). It exits 1 without that line when
the library cannot be imported, and 1 after it when a job failed in a
way perfbench/known_defects.json does not list.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
OUT_DIR = ROOT / ".perfbench-out"


def import_library() -> None:
    """Import hirzebruch from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hirzebruch
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import hirzebruch from {src}: {exc}")
    if Path(hirzebruch.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: imported hirzebruch from {hirzebruch.__file__}, "
                         f"not from {src}")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="cpn_tower, rigidity_real, rigidity_complex or cli_session")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a set-up probe only sets up and exits; --sessions runs a
    # fixed number of sessions (the untraced reference of a traced run)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--sessions", type=int, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_argv(args, *extra: str):
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def setup_seconds(args) -> float:
    """Median CPU time of fresh interpreters that only set up: start,
    import hirzebruch, draw the first session's inputs, write its files.
    Each is scaled to the nominal speed by the reference loop, run in
    this process before the first probe and after each."""
    from harness import median, reference_time, scaled

    times, references = [], [reference_time()]
    for _ in range(SETUP_PROBES):
        before = children_cpu()
        code = subprocess.Popen(child_argv(args, "--setup-probe"),
                                stdout=subprocess.DEVNULL).wait()
        times.append(children_cpu() - before)
        references.append(reference_time())
        if code:
            raise SystemExit(f"perfbench: set-up probe exited with {code}")
    return median(scaled(times, references))


def children_cpu() -> float:
    """CPU seconds of all waited-for child processes so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def untraced_session_cpu(args, sessions: int) -> float:
    """Mean session CPU time of an untraced fresh run over the same sessions."""
    done = subprocess.run(child_argv(args, "--trace", "0", "--sessions", str(sessions)),
                          check=True, capture_output=True, text=True)
    last = done.stdout.strip().splitlines()[-1]
    return json.loads(last)["metrics"]["session_cpu_s"]["value"]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    os.environ.pop("GENUS_DEFAULT_ORDER", None)
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        stream = workloads.sessions(args.workload, args.seed, workdir)
        if args.setup_probe:
            next(stream)
            return 0
        return measure(args, stream, harness, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, stream, harness, workloads) -> int:
    if args.sessions is None and not args.trace:
        setup_s = setup_seconds(args)
    else:
        setup_s = time.process_time()  # CPU time since this interpreter started
    known = harness.load_known_defects(HERE / "known_defects.json")
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    tally = harness.Tally()
    pct = workloads.TAIL_PCT[args.workload]
    enough = harness.min_jobs(pct)
    deadline = time.perf_counter() + args.seconds
    while (len(tally.session_times) < args.sessions if args.sessions is not None
           else time.perf_counter() < deadline or tally.attempted < enough):
        harness.run_session(next(stream), tally, known, tracer)
    if tracer is not None:
        tracer.uninstall()

    lines = [f"# {args.workload} seed {args.seed}: {tally.attempted} jobs in "
             f"{len(tally.session_times)} sessions"]
    for kind, count in sorted(tally.known_failed.items()):
        lines.append(f"# known defect, still failing: {kind} x{count} ({known[kind]})")
    for kind, count in sorted(tally.known_passed.items()):
        lines.append(f"# known defect now passes: {kind} x{count}; "
                     f"remove it from perfbench/known_defects.json")
    for failure in tally.unexpected[:20]:
        lines.append(f"# UNEXPECTED FAILURE {failure}")

    if tracer is None:
        p50_ms, tail_ms = harness.latency_summary(tally.latencies, pct)
        count = len(tally.latencies)
        lines.append(f"# job_tail_ms is the p{pct:g} of {count} job latencies, "
                     f"{harness.beyond(count, pct)} beyond it; this run could support "
                     f"the p{harness.tail_percentile(count):g}")
        raw = tally.raw_latencies
        lines.append(f"# unscaled CPU time: {sum(raw) / len(tally.session_times):.6g} s per "
                     f"session, job p50 {harness.median(raw) * 1e3:.6g} ms; reference loop "
                     f"median {harness.median(tally.references) * 1e3:.6g} ms "
                     f"(nominal {harness.REF_NOMINAL_S * 1e3:g} ms)")
        times = tally.session_times
        metrics = harness.metrics({
            "setup_s": setup_s,
            "session_cpu_s": sum(times) / len(times),
            "jobs_per_cpu_s": tally.attempted / sum(times),
            "job_p50_ms": p50_ms,
            "job_tail_ms": tail_ms,
            "pass_frac": tally.passed / tally.attempted,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }, harness.END_TO_END)
    else:
        missing = tracer.missing(args.workload)
        if missing:
            print(f"perfbench: spans or counters recorded nothing on {args.workload}: "
                  f"{', '.join(missing)}", file=sys.stderr)
            return 1
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        traced = sum(tally.session_times) / len(tally.session_times)
        reference = untraced_session_cpu(args, len(tally.session_times))
        values = tracer.metrics(len(tally.session_times), traced / reference - 1)
        metrics = harness.metrics(values, spans.per_layer_metrics())

    for name, m in metrics.items():
        lines.append(f"# {name} = {m['value']:.6g} {m['unit']}")
    print("\n".join(lines))
    correct = not tally.unexpected
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": len(tally.unexpected), "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
