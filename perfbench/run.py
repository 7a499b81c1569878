"""Pipeline benchmark: drives the real CLI on seeded synthetic lectures.

    python3 perfbench/run.py --workload short-lectures --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports ``rdkg`` from its
``src`` directory (never from an installed copy); without it the run
stops with exit code 2 before printing a result. One invocation runs
one workload: it repeats whole rounds of the workload's command
sequence until the next round would overrun ``--seconds``, checks the
outputs, and prints one JSON object as the last line of standard
output. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer table. Times are host-adjusted (see hostspeed.py and
README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"

# One BLAS thread, set before anything imports numpy. The products here are
# small: on a 2-vCPU host, rounds with the default thread count and with one
# thread were indistinguishable, and one thread keeps the times independent
# of how many cores other processes leave free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SETUP_SAMPLES = 7  # at least
COURSE_SIZE = 4
LONG_ITERATIONS = 3
SWEEP_ITERATIONS = 6
SWEEP_BETAS = (10.0, 100.0, 1000.0)
DEFAULT_BETA = 100.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "ingest_s": "s",
    "refine_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "objective_L": "L",
    "fgw_solves": "count",
}


@dataclass
class Op:
    """One CLI call of a round; ``key`` ties it to the checks of its outputs."""

    kind: str
    argv: list[str]
    key: str


@dataclass
class Workload:
    lectures: list[gen.Lecture]
    ops: list[Op]
    # (refine call, its output directory, its beta)
    refines: list[tuple[Op, Path, float]] = field(default_factory=list)


def build_workload(name: str, seed: int, work: Path) -> Workload:
    if name == "short-lectures":
        wl = Workload([gen.make_lecture(seed, f"short-{i}", gen.short_shape(i))
                       for i in range(COURSE_SIZE)], [])
        if len({lec.markdown for lec in wl.lectures}) != COURSE_SIZE:
            raise RuntimeError("course lectures are not distinct")
        for lec in wl.lectures:
            _full_pipeline(wl, lec, work, [])
    elif name == "long-lecture":
        wl = Workload([gen.make_lecture(seed, "long", gen.long_shape())], [])
        _full_pipeline(wl, wl.lectures[0], work, ["--max-iterations", str(LONG_ITERATIONS)])
    else:
        wl = Workload([gen.make_lecture(seed, "sweep", gen.sweep_shape())], [])
        space, kg = _ingest_and_bootstrap(wl, wl.lectures[0], work)
        for beta in SWEEP_BETAS:
            _refine_and_report(wl, space, kg, work / f"sweep.beta{beta:g}", beta,
                               ["--beta", str(beta), "--max-iterations", str(SWEEP_ITERATIONS)])
    for lec in wl.lectures:
        _paths(work, lec)[0].write_text(lec.markdown, encoding="utf-8")
    return wl


def _paths(work: Path, lec: gen.Lecture) -> tuple[Path, Path, Path]:
    return (work / f"{lec.name}.md", work / f"{lec.name}.space.json",
            work / f"{lec.name}.kg.json")


def _ingest_and_bootstrap(wl: Workload, lec: gen.Lecture, work: Path) -> tuple[Path, Path]:
    md, space, kg = _paths(work, lec)
    wl.ops += [
        Op("ingest", ["ingest", str(md), "--out", str(work)], f"ingest:{lec.name}"),
        Op("bootstrap", ["bootstrap", str(md), "--out", str(work)], f"bootstrap:{lec.name}"),
    ]
    return space, kg


def _full_pipeline(wl: Workload, lec: gen.Lecture, work: Path, refine_args: list[str]) -> None:
    space, kg = _ingest_and_bootstrap(wl, lec, work)
    wl.ops.append(Op("align", ["align", str(space), str(kg)], f"align:{lec.name}"))
    _refine_and_report(wl, space, kg, work / f"{lec.name}.refined", DEFAULT_BETA, refine_args)


def _refine_and_report(wl, space, kg, out: Path, beta: float, extra: list[str]) -> None:
    refine = Op("refine", ["refine", str(space), str(kg), "--out", str(out), *extra],
                f"refine:{out}")
    wl.ops += [
        refine,
        Op("report", ["report", str(out / "trace.jsonl"), "--out", str(out / "regen")],
           f"report:{out}"),
    ]
    wl.refines.append((refine, out, beta))


# --- running the CLI ------------------------------------------------------------


def call_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run one CLI command in this process: (exit code, output, seconds).

    An exception that escapes ``main`` is what ``rdkg`` reports as a
    traceback and exit code 1, so it counts as exit code 1 here.
    """
    from rdkg.cli import main

    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = main(argv)
        except Exception:  # noqa: BLE001 - one failed call must not end the run
            traceback.print_exc(file=buf)
            code = 1
    return code, buf.getvalue(), time.perf_counter() - start


@dataclass
class Round:
    times: list[float]
    codes: list[int]
    fgw_solves: int
    artifact_bytes: int
    objective_l: float
    digests: dict[str, str]
    outputs: dict[str, str]
    # per call: mean of the host probes just before and just after it
    factors: list[float]


def run_round(wl: Workload, work: Path, counts: Counter) -> Round:
    from hostspeed import probe

    inputs = {_paths(work, lec)[0] for lec in wl.lectures}
    solves_before = counts["fgw"]
    times, codes, outputs, factors = [], [], {}, []
    host_before = probe()
    for op in wl.ops:
        code, output, seconds = call_cli(op.argv)
        host_after = probe()
        if code != 0:
            print(f"{op.kind} exited {code}: {output.strip()}", file=sys.stderr)
        times.append(seconds)
        codes.append(code)
        outputs[op.key] = output
        factors.append((host_before + host_after) / 2)
        host_before = host_after
    digests, size = {}, 0
    for path in sorted(work.rglob("*")):
        if path.is_file() and path not in inputs:
            data = path.read_bytes()
            size += len(data)
            digests[str(path.relative_to(work))] = hashlib.sha256(data).hexdigest()
    objectives = []
    for _, out, _ in wl.refines:
        rows = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        objectives.append(min(r["objective"] for r in rows))
    return Round(times, codes, counts["fgw"] - solves_before, size,
                 statistics.fmean(objectives), digests, outputs, factors)


def op_median_sum(rounds: list[Round], ops: list[Op], kinds: set[str] | None = None,
                  adjusted: bool = True) -> float:
    """Sum over the round's operations of each operation's median time,
    host-adjusted unless ``adjusted`` is off."""
    return sum(
        statistics.median(r.times[i] / (r.factors[i] if adjusted else 1.0) for r in rounds)
        for i, op in enumerate(ops)
        if kinds is None or op.kind in kinds
    )


# --- set-up ---------------------------------------------------------------------

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import rdkg.cli; print(time.perf_counter() - t)"
)


def import_time() -> float:
    """Host-adjusted import time of the program in a fresh interpreter."""
    from hostspeed import probe

    before = probe()
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE.format(src=str(SRC))],
        capture_output=True, text=True, timeout=60, check=True,
    )
    seconds = float(done.stdout.strip().splitlines()[-1])
    return seconds / ((before + probe()) / 2)


# --- checks ---------------------------------------------------------------------


def run_checks(
    wl: Workload, work: Path, workload: str, last: Round
) -> tuple[dict[str, list[str]], int, int]:
    """Check the last round's outputs; returns (failures by op key, check
    calls attempted, check calls failed)."""
    import checks
    from rdkg.embeddings import HashEmbedder

    fails: dict[str, list[str]] = {}
    attempted = failed = 0

    def note(key: str, messages: list[str]) -> None:
        if messages:
            fails.setdefault(key, []).extend(messages)

    def check_call(argv: list[str]) -> str | None:
        nonlocal attempted, failed
        attempted += 1
        code, output, _ = call_cli(argv)
        if code != 0:
            failed += 1
            print(f"check call {argv[0]} exited {code}: {output.strip()}", file=sys.stderr)
            return None
        return output

    for lec in wl.lectures:
        _, space, kg = _paths(work, lec)
        note(f"ingest:{lec.name}", checks.check_ingest(space, lec))
        note(f"bootstrap:{lec.name}", checks.check_bootstrap(kg, lec))
        if workload == "short-lectures":
            dump_dir = work / "checks" / lec.name
            output = check_call(["align", str(space), str(kg), "--debug", "--out", str(dump_dir)])
            if output is not None:
                note(f"align:{lec.name}", checks.check_coupling(
                    dump_dir / "coupling.json", space, kg, HashEmbedder().embed, output))
    for op, out, beta in wl.refines:
        note(op.key, checks.check_refine(out, beta, last.outputs[op.key]))
        rows = checks.read_trace(out / "trace.jsonl")
        output = check_call(["align", op.argv[1], str(out / "refined.kg.json")])
        if output is not None:
            note(op.key, checks.check_aligned_d(output, checks.incumbent(rows)["distortion"]))
        regen = checks.check_report(out / "regen" / "report.json", len(rows), with_coverage=False)
        note(f"report:{out}", regen)
    return fails, attempted, failed


# --- main -----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["short-lectures", "long-lecture", "rd-sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rdkg" / "__init__.py").is_file():
        print(f"no program source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import rdkg.cli  # noqa: F401  (timed: the program's set-up)
    first_import = time.perf_counter() - start

    import tracing

    RUNS_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR))
    try:
        return _run(args, work, first_import, tracing)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path, first_import: float, tracing) -> int:
    from hostspeed import probe

    # set-up samples: this process's import (adjusted by the probe right
    # after it), then one fresh interpreter after every round, so they
    # spread over the run like the round times do
    setup = [first_import / probe()]
    wl = build_workload(args.workload, args.seed, work)
    counts: Counter = Counter()
    counter = tracing.install_fgw_counter(counts)
    tracer = tracing.Tracer() if args.trace else None

    plain: list[Round] = []
    traced: list[Round] = []
    start = time.perf_counter()
    while True:
        # A traced run starts with an untraced warm-up round, then alternates
        # traced and untraced rounds, so both kinds see the same host
        # conditions and their difference is the tracing overhead.
        use_trace = tracer is not None and len(plain) > len(traced)
        if use_trace:
            tracer.install()
        try:
            rnd = run_round(wl, work, counts)
        finally:
            if use_trace:
                tracer.uninstall()
        (traced if use_trace else plain).append(rnd)
        if tracer is None:
            setup.append(import_time())
        # stop when one more round of the mean length so far would overrun
        elapsed = time.perf_counter() - start
        done = len(plain) + len(traced)
        if done >= (1 if tracer is None else 3) and elapsed + elapsed / done > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counter.restore()
    while tracer is None and len(setup) < SETUP_SAMPLES:
        setup.append(import_time())

    rounds = plain + traced
    correct = True
    reference = rounds[0]
    for rnd in rounds[1:]:
        same = (rnd.digests, rnd.fgw_solves, rnd.objective_l) == (
            reference.digests, reference.fgw_solves, reference.objective_l)
        if not same:
            print("outputs differ between rounds of identical inputs", file=sys.stderr)
            correct = False

    fails, check_attempted, check_failed = run_checks(wl, work, args.workload, rounds[-1])
    for key, messages in fails.items():
        for message in messages:
            print(f"check failed [{key}]: {message}", file=sys.stderr)
    attempted = len(wl.ops) * len(rounds) + check_attempted
    failed = check_failed + sum(
        1 for rnd in rounds for op, code in zip(wl.ops, rnd.codes)
        if code != 0 or op.key in fails
    )
    correct = correct and failed == 0

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup),
            "pipeline_s": op_median_sum(plain, wl.ops),
            "ingest_s": op_median_sum(plain, wl.ops, {"ingest"}),
            "refine_s": op_median_sum(plain, wl.ops, {"refine"}),
            "peak_rss_mb": peak_rss_mb,
            "artifact_mb": reference.artifact_bytes / 1e6,
            "objective_L": reference.objective_l,
            "fgw_solves": reference.fgw_solves,
        }
        units = END_TO_END_UNITS
    else:
        # per-layer times are adjusted by the traced calls' median factor
        values = tracer.metrics(len(traced), statistics.median(
            f for r in traced for f in r.factors))
        traced_s = op_median_sum(traced, wl.ops)
        plain_s = op_median_sum(plain[1:], wl.ops)
        values["trace.overhead_s"] = traced_s - plain_s
        units = tracing.PER_LAYER_UNITS
        spans_path = RUNS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path)
        print(f"per-layer table, {args.workload}, seed {args.seed}: "
              f"{len(traced)} traced and {len(plain) - 1} untraced rounds "
              f"after a warm-up round; pipeline_s {traced_s:.3f} traced, "
              f"{plain_s:.3f} untraced; spans -> {spans_path.relative_to(ROOT)}")
        for name in units:
            print(f"  {name:32s} {values[name]:14.6f} {units[name]}")
    print(f"{args.workload}: {len(rounds)} rounds of {len(wl.ops)} commands, "
          f"{attempted} calls, {failed} failed; host factor median "
          f"{statistics.median(f for r in rounds for f in r.factors):.3f}, unadjusted pipeline_s "
          f"{op_median_sum(plain, wl.ops, adjusted=False):.3f}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
