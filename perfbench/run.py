"""Benchmark of the repro simulator: one workload, one closed-loop client.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-scale --seed 1 --seconds 32 --trace 0

The workload's inputs are built from ``--seed``; then passes over the
workload's fixed list of executions run back to back in this process,
each execution starting when the previous one returns, until
``--seconds`` have elapsed.  Every execution is verified and every
fault-free one compared with ``reference.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  The lines
before it are the same numbers as a table, with sample counts, and every
failed execution by name.

``--workload all`` runs every workload in turn, one process each.
``--record-reference`` re-records ``reference.json`` from the current
tree (every input variant of every pinned workload).
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter as clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench-out"

#: Fresh processes timed for ``setup_s``.
SETUP_SAMPLES = 9


def _import_repro() -> None:
    """Import the checkout's own ``repro`` (never an installed copy)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise ImportError(f"repro imported from {repro.__file__}, not from {src}")


def _setup_only(workload: str, seed: int) -> None:
    """Child-process body: time ``import repro`` plus the workload's set-up."""
    t0 = clock()
    _import_repro()
    from workloads import WORKLOADS

    WORKLOADS[workload](seed).setup()
    print(repr(clock() - t0))


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up seconds of ``SETUP_SAMPLES`` fresh processes, one after another."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_passes(workload, rec, seconds: float, instrumentation=None):
    """Timed passes until ``seconds`` elapse.

    Without instrumentation: untraced passes only.  With it, untraced
    and traced passes alternate; each traced pass's per-layer values are
    aggregated and its spans dropped, except those of the first traced
    pass, whose tracer is returned for writing out.
    Returns the walls and outcomes of the untraced and of the traced
    passes, the per-layer values of each traced pass and that tracer.
    """
    from layers import Tracer, layer_values

    walls, traced_walls, outcomes, traced_outcomes, layer_rows = [], [], [], [], []
    first = None
    deadline = clock() + seconds
    while True:
        gc.collect()
        rec.outcomes = []
        t0 = clock()
        workload.run_pass(rec)
        walls.append(clock() - t0)
        outcomes.append(rec.outcomes)
        if instrumentation is not None:
            gc.collect()
            rec.outcomes = []
            tracer = instrumentation.tracer = Tracer()
            rec.tracer = tracer
            instrumentation.install()
            try:
                t0 = clock()
                workload.run_pass(rec)
                traced_walls.append(clock() - t0)
            finally:
                instrumentation.uninstall()
                rec.tracer = None
            traced_outcomes.append(rec.outcomes)
            layer_rows.append(layer_values(tracer))
            if first is None:
                first = tracer
        if clock() >= deadline:
            break
    return walls, traced_walls, outcomes, traced_outcomes, layer_rows, first


def end_to_end(setup_samples, walls, outcomes, finish_outcomes, traced_outcomes=()):
    """The end-to-end metrics as ``{name: (value, sample count)}``.

    Host interference on a shared machine only ever adds time, and comes
    and goes within milliseconds: a short execution timed many times
    has a fastest repetition that is steady from run to run, a whole
    pass does not.  So times are best-of-repetitions per execution:
    ``wall_s`` is the sum over the distinct executions of a pass of each
    one's fastest repetition, and the execution percentiles are taken
    over those same fastest repetitions.
    """
    from summary import nearest_rank, samples_beyond

    best: dict[str, float] = {}
    for pass_ in outcomes:
        for o in pass_:
            best[o.name] = min(best.get(o.name, o.seconds), o.seconds)
    samples = [s * 1e3 for s in best.values()]
    sims = [o for o in outcomes[0] if o.sim is not None]
    ops = sum(o.ops for o in sims)
    everything = [o for pass_ in [*outcomes, *traced_outcomes] for o in pass_]
    everything += finish_outcomes
    attempted = sum(o.attempts for o in everything)
    failed = sum(o.failures for o in everything)
    reps = f"{len(samples)} executions, each best of {len(walls)}"
    values = {
        "setup_s": (statistics.median(setup_samples), f"{len(setup_samples)} processes"),
        "wall_s": (sum(best.values()), reps),
        "exec_p50_ms": (nearest_rank(samples, 0.5), reps),
        "exec_p90_ms": (nearest_rank(samples, 0.9), reps),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "1 process"),
        "ok_frac": (1 - failed / attempted if attempted else 0.0, f"{attempted} attempts"),
        "sim_msgs_per_op": (sum(o.sim[1] for o in sims) / ops if ops else 0.0,
                            f"{len(sims)} executions, {ops} ops"),
        "sim_delay_per_op": (sum(o.sim[3] for o in sims) / ops if ops else 0.0,
                             f"{len(sims)} executions, {ops} ops"),
    }
    beyond = samples_beyond(len(samples), 0.9)
    if beyond < 10:
        values["exec_p90_ms"] = (values["exec_p90_ms"][0],
                                 f"{reps} (only {beyond} beyond p90)")
    return values, attempted, failed, everything


def per_layer(setup_row, finish_row, walls, traced_walls, layer_rows):
    """Per-layer metrics: each raw value at its smallest over the traced passes.

    Counts are identical in every pass; times take the best repetition,
    as the end-to-end times do.  The suite layers come from the traced
    run of the workload's once-per-run checks (``finish_row``).
    """
    from summary import PER_LAYER, SUITE_LAYERS, SUITE_MOVES

    keys = set().union(*layer_rows)
    best = {k: min(r.get(k, 0) for r in layer_rows) for k in keys}
    best.update((k, v) for k, v in finish_row.items() if k.startswith(SUITE_LAYERS))
    # Builders mostly run during set-up: count one set-up plus one pass.
    best["self:topology.build"] = (best.get("self:topology.build", 0.0)
                                   + setup_row.get("self:topology.build", 0.0))
    best["trace.overhead_frac"] = min(traced_walls) / min(walls) - 1
    out = {}
    for name, (unit, _, moves, value_of) in PER_LAYER.items():
        value = value_of(best)
        out[name] = (round(value) if unit == "count" else value,
                     "1 traced suite check" if moves == SUITE_MOVES
                     else f"best of {len(layer_rows)} traced passes")
    return out


def write_spans(path: Path, tracer) -> None:
    """One traced pass's spans and phases as gzipped JSON lines."""
    OUT_DIR.mkdir(exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(json.dumps({"fields": ["id", "parent", "name", "tag", "t0", "t1"]}) + "\n")
        tracer.write(fh)


def report(values, units):
    lines = [f"{'metric':<28} {'value':>16} {'unit':<10} samples"]
    for name, (value, n) in values.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        lines.append(f"{name:<28} {shown} {units[name]:<10} {n}")
    return "\n".join(lines)


def record_reference() -> int:
    from workloads import VARIANTS, WORKLOADS, Recorder, check_suite

    pins: dict[str, list[list[int]]] = {}
    for name in ("paper-scale", "adversary-search"):
        for variant in range(VARIANTS):
            workload = WORKLOADS[name](variant)
            workload.setup()
            rec = Recorder(None)
            workload.run_pass(rec)
            bad = [o for o in rec.outcomes if o.failures]
            if bad:
                print(f"{name} v{variant}: {bad[0].name} failed: {bad[0].error}",
                      file=sys.stderr)
                return 1
            pins.update(rec.record)
    rec = Recorder(None)
    check_suite(rec)
    pins.update(rec.record)
    lines = [f"{json.dumps(group)}: {json.dumps(rows, separators=(',', ':'))}"
             for group, rows in sorted(pins.items())]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {sum(map(len, pins.values()))} reference tuples in {len(pins)} "
          f"groups to {REFERENCE}")
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in a fresh process printing its own result."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, check=False,
        )
        status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if args.setup_only:
        _setup_only(args.workload, args.seed)
        return 0
    try:
        _import_repro()
    except ImportError as exc:
        print(f"cannot import repro from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from layers import Instrumentation, Tracer, layer_values
    from summary import END_TO_END, PER_LAYER
    from workloads import WORKLOADS, Recorder

    if args.record_reference:
        return record_reference()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not REFERENCE.exists():
        print(f"missing {REFERENCE}", file=sys.stderr)
        return 2

    setup_samples = measure_setup(args.workload, args.seed)
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    rec = Recorder(json.loads(REFERENCE.read_text()))

    instrumentation = None
    setup_row: dict = {}
    if args.trace:
        instrumentation = Instrumentation(Tracer())
        instrumentation.install()
        try:
            WORKLOADS[args.workload](args.seed).setup()
        finally:
            instrumentation.uninstall()
        setup_row = layer_values(instrumentation.tracer)

    walls, traced_walls, outcomes, traced_outcomes, layer_rows, first = run_passes(
        workload, rec, args.seconds, instrumentation)
    rec.outcomes = []
    finish_row: dict = {}
    if args.trace:
        instrumentation.tracer = Tracer()
        instrumentation.install()
        try:
            workload.finish(rec)
        finally:
            instrumentation.uninstall()
        finish_row = layer_values(instrumentation.tracer)
    else:
        workload.finish(rec)
    finish_outcomes = rec.outcomes

    values, attempted, failed, everything = end_to_end(
        setup_samples, walls, outcomes, finish_outcomes, traced_outcomes)
    print(f"workload {args.workload}  seed {args.seed} (input variant {workload.variant})  "
          f"passes {len(walls)} untraced, {len(traced_walls)} traced")
    if args.trace:
        metrics = per_layer(setup_row, finish_row, walls, traced_walls, layer_rows)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
        print(report(metrics, units))
        spans_path = OUT_DIR / f"spans-{args.workload}.jsonl.gz"
        write_spans(spans_path, first)
        print(f"spans of the first traced pass: {spans_path.relative_to(ROOT)}")
    else:
        metrics = values
        units = {name: spec[0] for name, spec in END_TO_END.items()}
        print(report(metrics, units))

    failures: dict[str, list] = {}
    for o in everything:
        if o.failures:
            failures.setdefault(o.name, [0, o.error])[0] += 1
    for name, (count, error) in sorted(failures.items()):
        print(f"FAILED {name} x{count}: {error}")

    result = {
        "correct": not any(o.wrong for o in everything),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
