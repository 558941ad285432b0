"""Layered benchmark for the hopes pipeline.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Runs one workload (corpus, grounding, evaluation or search) as a closed
loop from the root of a checkout: one process, one job at a time, each
job an in-process call of ``hopes.cli.main`` on a program file the
benchmark wrote, with ``--out`` in a scratch directory under
``.perfbench/``.  It repeats passes over the workload's jobs for the
given number of seconds (longer if needed to pool 100 job latencies and
three passes), checks every output against the reference checks in
``reference.py``, prints each metric by name with its unit, and ends
with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with tracing
off.  With ``--trace 1`` untraced and traced passes alternate; the
metrics are the per-module ones from the traced passes (see
``tracing.py``), plus the tracing overhead, and the spans are written
to ``.perfbench/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import calibrate
import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_SAMPLES = 100  # pooled job latencies: ten lie beyond p90
MIN_PASSES = 3
MAX_SECONDS = 150  # stop measuring here even if the minimums are not met
SETUP_SAMPLES = 15

END_TO_END = {
    "wall_s": "s",
    "job_ms.p50": "ms",
    "job_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "herbrand.ground_instantiate.s": "s",
    "herbrand.atoms": "count",
    "herbrand.clauses": "count",
    "herbrand.us_per_clause": "us",
    "engine.minimum_model.s": "s",
    "engine.stages": "count",
    "classical.wf_oracle.s": "s",
    "classical.stable_models.s": "s",
    "classical.models": "count",
    "classical.ms_per_model": "ms",
    "analysis.check_locally_stratified_bounded.s": "s",
    "analysis.check_stratified.s": "s",
    "analysis.strata": "count",
    "analysis.check_extensional.s": "s",
    "parser.parse_program.s": "s",
    "parser.bytes": "count",
    "typecheck.typecheck.s": "s",
    "typecheck.clauses": "count",
    "cli.overhead.s": "s",
    "trace.overhead.s": "s",
    "failed_ops": "%",
}

# A fresh interpreter times its import of hopes.cli between two speed probes.
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import calibrate; "
    "c = calibrate.probe(); t = time.perf_counter(); import hopes.cli; "
    "t = time.perf_counter() - t; print(t, c, calibrate.probe())"
)
PROBE_EVERY = 0.1  # seconds of job time between two speed probes


def load_cli():
    """Import hopes.cli from this checkout's src/, and from nowhere else."""
    cli_path = SRC / "hopes" / "cli.py"
    if not cli_path.is_file():
        sys.exit(f"error: {cli_path} not found; run from a checkout of the hopes repository")
    sys.path.insert(0, str(SRC))
    import hopes.cli

    if Path(hopes.cli.__file__).resolve() != cli_path:
        sys.exit(f"error: imported {hopes.cli.__file__}, not {cli_path}")
    return hopes.cli


def measure_setup() -> float:
    """Median time for a fresh interpreter to import hopes.cli, scaled
    to the reference speed (see calibrate.py)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        seconds, before, after = map(float, proc.stdout.split())
        samples.append(seconds * calibrate.REFERENCE_S * 2 / (before + after))
    return statistics.median(samples)


def run_pass(cli, jobs, workdir: Path, tracer: tracing.Tracer | None, first_job: int):
    """Run the jobs one after another.

    Returns the job latencies scaled to the reference speed, the scale
    factor of each job, and (exit code or exception, output text) per
    job.  A speed probe runs before the first job, after the last, and
    between jobs whenever PROBE_EVERY seconds of job time have passed;
    a job's factor comes from the probes on either side of it.
    """
    argvs = []
    for i, job in enumerate(jobs):
        program = workdir / f"j{i}.hop"
        program.write_text(job.text, encoding="utf-8")
        argvs.append(job.argv(str(program), str(workdir / f"j{i}.out")))
    # The benchmark's own objects (expected answers, earlier results)
    # should not make the program's garbage collections slower.
    gc.collect()
    gc.freeze()
    raw, codes = [], []
    probes = [(0, calibrate.probe())]  # (index of the next job, probe time)
    since_probe = 0.0
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for i, argv in enumerate(argvs):
            if since_probe >= PROBE_EVERY:
                probes.append((i, calibrate.probe()))
                since_probe = 0.0
            start = perf_counter()
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    tracer.job = first_job + i
                    code = tracer.call("cli.main", cli.main, (argv,))
            except (Exception, SystemExit) as exc:  # a failed job, not a failed run
                code = exc
            raw.append(perf_counter() - start)
            since_probe += raw[-1]
            codes.append(code)
    probes.append((len(argvs), calibrate.probe()))
    gc.unfreeze()
    factors = []
    for (begin, before), (end, after) in zip(probes, probes[1:]):
        factors += [calibrate.REFERENCE_S * 2 / (before + after)] * (end - begin)
    results = []
    for i, code in enumerate(codes):
        out = workdir / f"j{i}.out"
        results.append((code, out.read_text(encoding="utf-8") if out.exists() else None))
    for path in workdir.iterdir():
        path.unlink()
    return [t * f for t, f in zip(raw, factors)], factors, results


def measure(cli, workload: str, seed: int, seconds: float, traced: bool, workdir: Path):
    """The measurement loop.  With tracing, untraced and traced passes
    alternate, so both see the same machine conditions."""
    rng = random.Random(seed)
    tagger = workloads.Tagger(rng)
    make_pass = workloads.WORKLOADS[workload]
    tracer = tracing.Tracer() if traced else None
    walls = {False: [], True: []}
    layers: list[dict[str, float]] = []
    latencies: list[float] = []
    attempted, failures = 0, []
    begin = perf_counter()
    while True:
        trace_this = traced and len(walls[False]) > len(walls[True])
        jobs = make_pass(rng, tagger)
        first_span = len(tracer.spans) if tracer else 0
        with tracer.installed() if trace_this else contextlib.nullcontext():
            lat, factors, results = run_pass(
                cli, jobs, workdir, tracer if trace_this else None, attempted
            )
        walls[trace_this].append(sum(lat))
        if trace_this:
            weights = {attempted + i: f for i, f in enumerate(factors)}
            layers.append(layer_metrics(*tracer.summary(first_span, weights)))
        else:
            latencies += lat
        for i, msgs in sorted(reference.check_pass(jobs, results).items()):
            failures.append((jobs[i], msgs))
        attempted += len(jobs)
        elapsed = perf_counter() - begin
        enough = len(walls[traced]) >= MIN_PASSES and (traced or len(latencies) >= MIN_SAMPLES)
        if (elapsed >= seconds and enough) or elapsed >= MAX_SECONDS:
            break
    return walls, latencies, layers, attempted, failures, tracer


def layer_metrics(self_time: dict[str, float], counts: dict[str, int]) -> dict[str, float]:
    """Per-module metrics of one traced pass."""
    m = {f"{name}.s": t for name, t in self_time.items() if name != "cli.main"}
    m["cli.overhead.s"] = self_time["cli.main"]
    for key in ("herbrand.atoms", "herbrand.clauses", "engine.stages", "classical.models",
                "analysis.strata", "parser.bytes", "typecheck.clauses"):
        m[key] = counts.get(key, 0)
    ground_s = self_time["herbrand.ground_instantiate"]
    m["herbrand.us_per_clause"] = ground_s * 1e6 / m["herbrand.clauses"] if m["herbrand.clauses"] else 0.0
    stable_s = self_time["classical.stable_models"]
    m["classical.ms_per_model"] = stable_s * 1e3 / m["classical.models"] if m["classical.models"] else 0.0
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    setup_s = None if args.trace else measure_setup()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        walls, latencies, layers, attempted, failures, tracer = measure(
            cli, args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(failures)
    for job, msgs in failures[:20]:
        print(f"FAILED {job.instance.family} {job.command} --depth {job.depth} "
              f"--format {job.fmt}: {'; '.join(msgs)}", file=sys.stderr)
    passes = len(walls[bool(args.trace)])
    print(f"workload {args.workload}, seed {args.seed}: {passes} measured passes, "
          f"{attempted} jobs attempted, {failed} failed")
    if args.trace:
        metrics = {
            name: statistics.median(pass_metrics[name] for pass_metrics in layers)
            for name in PER_LAYER
            if name not in ("trace.overhead.s", "failed_ops")
        }
        metrics["trace.overhead.s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        metrics["failed_ops"] = 100.0 * failed / attempted
        units = PER_LAYER
        spans = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans)
        print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    else:
        deciles = statistics.quantiles(latencies, n=10)
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "job_ms.p50": deciles[4] * 1e3,
            "job_ms.p90": deciles[8] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        units = END_TO_END
        print(f"job latencies: {len(latencies)} samples, "
              f"{sum(1 for x in latencies if x > deciles[8])} beyond p90")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:14.6f} {units[name]}")
    print(f"  failed jobs: {failed} of {attempted} attempted")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
