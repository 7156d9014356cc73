#!/usr/bin/env python3
"""buildctl benchmark: one workload, closed loop, one operation at a time.

    python3 perfbench/run.py --workload dim1|links|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; buildctl is imported from ``src/``.  The
run repeats the workload's whole ladder until ``--seconds`` have passed (and
at least ``MIN_PASSES`` times), checks every result against the answer known
from the input's construction, and prints human-readable lines followed by
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics; the spans of
the last traced pass are written to ``.perfbench-out/spans-<workload>.csv.gz``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibration as C  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

# An op's latency is the median of its passes; with one pass a host slow
# spell during one long op (S0*S0*Heawood is half of a links pass) moves the
# run.  Two passes fit in the time budget of every workload, three for cli.
MIN_PASSES = {"dim1": 2, "links": 2, "cli": 3}
SETUP_PROBES = 4        # fresh-process set-ups, besides the run's own
IMPORT_PROBES = 5       # fresh-process `import buildctl.cli` timings (traced run)
SPAN_DIR = ROOT / ".perfbench-out"


@dataclass
class Row:
    op: W.Op
    seconds: float          # wall time
    scaled: float           # wall time in reference-host seconds (calibration.py)
    outcome: W.Outcome
    rss_mb: float | None = None
    t0: float = 0.0
    t1: float = 0.0


def percentile(xs, q: float) -> float:
    """Nearest-rank percentile: always one of the samples, never an interpolation."""
    xs = sorted(xs)
    return xs[max(math.ceil(q / 100.0 * len(xs)) - 1, 0)]


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of ``n`` samples beyond it
    (50 at least)."""
    return max(math.floor(100 * (1 - 10 / n)), 50)


def run_pass(ops, tracer: Tracer | None = None) -> list[Row]:
    """Run the ladder once; the host-speed kernel runs before and after every op."""
    ctx: dict = {}
    rows = []
    kernel = C.kernel_seconds()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            result = op.run(ctx)
            error = None
        except Exception:
            result, error = None, traceback.format_exc(limit=4)
        t1 = time.perf_counter()
        kernel_after = C.kernel_seconds()
        scaled = C.scale(t1 - t0, (kernel + kernel_after) / 2)
        kernel = kernel_after
        if error is not None:
            outcome = W.Outcome(False, False, "-", "raised " + error.strip().splitlines()[-1])
        else:
            try:
                outcome = op.check(result)
            except Exception:
                outcome = W.Outcome(False, False, "-", "check raised " +
                                    traceback.format_exc(limit=2).strip().splitlines()[-1])
        rows.append(Row(op, t1 - t0, scaled, outcome, getattr(result, "rss_mb", None), t0, t1))
    return rows


def probe(argv, cwd) -> str:
    """Last stdout line of a fresh Python process that imports from ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=cwd,
                         timeout=120, check=True)
    return out.stdout.strip().splitlines()[-1]


def setup_probes(workload: str, seed: int, work: Path) -> list[float]:
    times = []
    for k in range(SETUP_PROBES):
        d = work / f"setup-probe-{k}"
        d.mkdir()
        code = ("import sys; sys.path.insert(0, %r); import workloads; "
                "print(workloads.timed_setup(%r, %d, %r, %r))"
                % (str(HERE), workload, seed, str(SRC), str(d)))
        times.append(float(probe([sys.executable, "-c", code], cwd=d)))
    return times


def import_probes(work: Path) -> list[float]:
    code = ("import time; t = time.perf_counter(); import buildctl.cli; "
            "print(time.perf_counter() - t)")
    return [float(probe([sys.executable, "-c", code], cwd=work))
            for _ in range(IMPORT_PROBES)]


# -- reporting ---------------------------------------------------------------------


def summarize_rows(passes: list[list[Row]], baseline: dict) -> dict:
    """Print one line per op and return the counts behind the JSON line."""
    rows = [r for p in passes for r in p]
    by_op: dict[str, list[Row]] = {}
    for r in rows:
        by_op.setdefault(r.op.name, []).append(r)
    changed, new, unstable = [], [], []
    for name, rs in by_op.items():
        first = rs[0]
        digests = {r.outcome.digest for r in rs}
        if len(digests) > 1:
            unstable.append(name)
        base = baseline.get(name)
        state = "new" if base is None else ("same" if base == first.outcome.digest
                                            else "changed")
        if state == "changed":
            changed.append((name, base, first.outcome.digest))
        elif state == "new":
            new.append(name)
        bad = [r for r in rs if not r.outcome.ok]
        print(f"op {name} median_ms={statistics.median(r.scaled for r in rs) * 1e3:.3f} "
              f"wall_ms={statistics.median(r.seconds for r in rs) * 1e3:.3f} "
              f"ok={len(rs) - len(bad)}/{len(rs)} decided={int(first.outcome.decided)} "
              f"digest={first.outcome.digest} ({state})"
              + (f" FAILED: {bad[0].outcome.detail}" if bad else ""))
    for name, old, cur in changed:
        print(f"digest-changed {name} {old} -> {cur}")
    for name in unstable:
        print(f"digest-unstable {name}: reports differ between passes")
    print(f"digests: {len(by_op)} ops, {len(changed)} changed, {len(new)} not in "
          f"perfbench/digests.json, {len(unstable)} unstable")
    failed = [r for r in rows if not r.outcome.ok]
    unexpected = [r for r in failed if r.op.known_defect is None]
    for name in sorted({r.op.name for r in failed if r.op.known_defect}):
        op = by_op[name][0].op
        print(f"known-defect {name}: {op.known_defect} "
              f"({by_op[name][0].outcome.detail or 'fails'})")
    verdicts = [r for r in rows if r.op.verdict]
    return {"attempted": len(rows), "failed": len(failed),
            "unexpected": len(unexpected),
            "decided": sum(r.outcome.decided for r in verdicts),
            "verdicts": len(verdicts)}


def metric(out: dict, name: str, value: float, unit: str, note: str = "") -> None:
    out[name] = {"value": value, "unit": unit}
    print(f"metric {name} {value:.6g} {unit}" + (f" ({note})" if note else ""))


def op_latencies(passes) -> list[float]:
    """Each op's latency: the median of its scaled times over the passes."""
    return [statistics.median(p[i].scaled for p in passes) for i in range(len(passes[0]))]


def end_to_end(workload, passes, setups, counts) -> dict:
    out: dict = {}
    ladders = [sum(r.scaled for r in p) for p in passes]
    walls = [sum(r.seconds for r in p) for p in passes]
    lat = [x * 1e3 for x in op_latencies(passes)]
    q = tail_percentile(len(lat))
    note = f"n={len(lat)} ops, each the median of {len(passes)} passes"
    metric(out, "ladder_s", statistics.median(ladders), "s",
           f"median of {len(ladders)} passes of {len(passes[0])} ops; "
           f"wall {statistics.median(walls):.4g} s")
    metric(out, "verdict_ms.p50", percentile(lat, 50), "ms", note)
    metric(out, "verdict_ms.tail", percentile(lat, q), "ms", f"p{q}, {note}")
    metric(out, "decided_share", counts["decided"] / counts["verdicts"], "ratio",
           f"{counts['decided']}/{counts['verdicts']}")
    print(f"metric error_share {counts['failed'] / counts['attempted']:.6g} ratio "
          f"({counts['failed']}/{counts['attempted']}; in the JSON line as failed/attempted)")
    metric(out, "setup_s", statistics.median(setups), "s",
           f"median of {len(setups)} set-ups")
    if workload == "cli":
        rss = max(r.rss_mb for p in passes for r in p if r.rss_mb is not None)
        metric(out, "peak_rss_mb", rss, "MB", "largest buildctl child process")
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metric(out, "peak_rss_mb", rss, "MB", "this process")
    return out


LAYER_METRICS = [
    # (metric, unit): ".calls" and ".self_s" come from spans, the rest below
    ("angles.rationalize.calls", "count"), ("angles.rationalize.self_s", "s"),
    ("angles.rationalize.promoted_share", "ratio"),
    ("complexes.vertex_link.calls", "count"), ("complexes.vertex_link.self_s", "s"),
    ("complexes.cell_link.calls", "count"), ("complexes.cell_link.self_s", "s"),
    ("complexes.link_repeat_share", "ratio"),
    ("complexes.loads.calls", "count"), ("complexes.loads.self_s", "s"),
    ("metric_graph.diameter.calls", "count"), ("metric_graph.diameter.self_s", "s"),
    ("metric_graph.cat1.self_s", "s"), ("metric_graph.suppress_degree2.self_s", "s"),
    ("metric_graph.antipode_set.calls", "count"), ("metric_graph.antipode_set.self_s", "s"),
    ("metric_graph.from_complex.calls", "count"),
    ("recognizer.recognize_dim1.calls", "count"), ("recognizer.recognize_dim1.self_s", "s"),
    ("recognizer.enumerate_apartments_dim1.calls", "count"),
    ("recognizer.enumerate_apartments_dim1.self_s", "s"),
    ("recognizer.apartments_out", "count"),
    ("recognizer.check_spherical.calls", "count"), ("recognizer.check_spherical.self_s", "s"),
    ("recognizer.check_euclidean.self_s", "s"),
    ("geodesics.propagate_all.calls", "count"), ("geodesics.propagate_all.self_s", "s"),
    ("geodesics.surfaces_out", "count"), ("geodesics.surface_keep_share", "ratio"),
    ("coxeter.coxeter_complex.calls", "count"), ("coxeter.coxeter_complex.self_s", "s"),
    ("coxeter.classify.calls", "count"), ("coxeter.classify.self_s", "s"),
    ("homotopy.simple_connectivity.calls", "count"),
    ("homotopy.simple_connectivity.self_s", "s"),
    ("decompose.find_suspension_poles.calls", "count"),
    ("decompose.find_suspension_poles.self_s", "s"),
    ("decompose.join_decompose.self_s", "s"),
    ("cli.import_s", "s"), ("cli.main.self_s", "s"),
    ("op.self_s", "s"), ("trace.overhead_share", "ratio"),
]


def share(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_values(tracer: Tracer, rows: list[Row]) -> tuple[dict, list[str]]:
    """Per-layer values of one traced pass, and any span-tree inconsistencies."""
    by_name: dict[str, float] = defaultdict(float)
    op_spans: dict[int, float] = defaultdict(float)    # self times of an op's spans
    covered: dict[int, float] = defaultdict(float)     # an op's top-level span time
    problems = []
    for i, self_t in enumerate(tracer.span_self_times()):
        name, op_id = tracer.name[i], tracer.op[i]
        by_name[name] += self_t
        op_spans[op_id] += self_t
        if tracer.parent[i] < 0:
            covered[op_id] += tracer.end[i] - tracer.start[i]
        if self_t < -1e-9:
            problems.append(f"span {name} has negative self time")
        if tracer.start[i] < rows[op_id].t0 or tracer.end[i] > rows[op_id].t1:
            problems.append(f"span {name} lies outside op {rows[op_id].op.name}")
    op_self = [r.seconds - covered[i] for i, r in enumerate(rows)]
    for i, r in enumerate(rows):
        if abs(op_spans[i] + op_self[i] - r.seconds) > 1e-6 * max(1.0, r.seconds):
            problems.append(f"op {r.op.name}: self times sum to "
                            f"{op_spans[i] + op_self[i]}, wall {r.seconds}")
    c = tracer.counts
    vals = {k: float(v) for k, v in c.items()}
    vals.update({f"{k}.self_s": v for k, v in by_name.items()})
    vals["angles.rationalize.promoted_share"] = share(
        c["angles.rationalize.promoted"], c["angles.rationalize.calls"])
    vals["complexes.link_repeat_share"] = share(c["complexes.link.repeats"],
                                                c["complexes.link.calls"])
    vals["geodesics.surface_keep_share"] = share(c["geodesics.surfaces_kept"],
                                                 c["geodesics.surfaces_out"])
    vals["op.self_s"] = sum(op_self)
    return vals, problems


def per_layer(untraced, traced, layer_runs, import_times) -> tuple[dict, list[str]]:
    out: dict = {}
    problems = [p for _, probs in layer_runs for p in probs]
    counts_differ = []
    for name, unit in LAYER_METRICS:
        series = [vals.get(name, 0.0) for vals, _ in layer_runs]
        if unit == "count" and len(set(series)) > 1:
            counts_differ.append(name)
        out[name] = {"value": statistics.median(series), "unit": unit}
    out["cli.import_s"]["value"] = statistics.median(import_times)
    ladder_u = statistics.median(sum(r.scaled for r in p) for p in untraced)
    ladder_t = statistics.median(sum(r.scaled for r in p) for p in traced)
    out["trace.overhead_share"]["value"] = ladder_t / ladder_u - 1.0
    extra = sorted(k for k in layer_runs[-1][0] if k not in out)
    for name, unit in LAYER_METRICS:
        print(f"layer {name} {out[name]['value']:.6g} {unit}")
    for k in extra:
        print(f"layer-extra {k} {layer_runs[-1][0][k]:.6g}")
    print(f"trace: {len(traced)} traced and {len(untraced)} untraced passes, "
          f"ladder {ladder_t:.4f} s traced vs {ladder_u:.4f} s untraced; "
          f"self times sum to each op's wall time: "
          f"{'yes' if not problems else 'NO (' + problems[0] + ')'}")
    for name in counts_differ:
        print(f"count-unstable {name}: differs between traced passes")
    return out, problems


# -- runs ------------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in a process of its own, then one table of all metrics."""
    results = {}
    for w in W.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[w] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"error_share {w} {results[w]['failed'] / results[w]['attempted']:.6g} "
              f"({results[w]['failed']}/{results[w]['attempted']})")
    print("summary " + " ".join(f"{w:>14}" for w in results))
    for name in results[W.WORKLOADS[0]]["metrics"]:
        cells = [results[w]["metrics"][name] for w in results]
        print(f"{name} ({cells[0]['unit']}) " + " ".join(f"{c['value']:14.6g}" for c in cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()}}))
    return 0


def timed_passes(seconds: float, min_passes: int, one_pass):
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(one_pass())
    return passes


def traced_run(args, ops, work: Path, baseline: dict):
    untraced, traced, layer_runs = [], [], []
    last = None

    def both():
        nonlocal last
        untraced.append(run_pass(ops))
        tracer = Tracer()
        tracer.install()
        try:
            rows = run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        traced.append(rows)
        layer_runs.append(layer_values(tracer, rows))
        last = tracer
        return rows

    timed_passes(args.seconds, 1, both)
    counts = summarize_rows(untraced + traced, baseline)
    metrics, problems = per_layer(untraced, traced, layer_runs, import_probes(work))
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{args.workload}.csv.gz"
    last.dump(path)
    print(f"spans: {len(last.name)} written to {path.relative_to(ROOT)}")
    return metrics, counts, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",),
                    help="'all' runs each workload in its own process, then sums up")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "buildctl" / "__init__.py").is_file():
        print(f"perfbench: no buildctl sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    baseline_path = HERE / "digests.json"
    baseline = json.loads(baseline_path.read_text()).get(args.workload, {}) \
        if baseline_path.is_file() else {}
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        t0 = time.perf_counter()
        api = W.load_api(SRC)
        ops = W.build(args.workload, args.seed, api, work, in_process=bool(args.trace))
        setup_wall = time.perf_counter() - t0
        if args.trace:
            metrics, counts, problems = traced_run(args, ops, work, baseline)
        else:
            setups = [C.scale(setup_wall, C.kernel_seconds())]
            setups += setup_probes(args.workload, args.seed, work)
            passes = timed_passes(args.seconds, MIN_PASSES[args.workload],
                                  lambda: run_pass(ops))
            counts = summarize_rows(passes, baseline)
            metrics, problems = end_to_end(args.workload, passes, setups, counts), []
    correct = counts["unexpected"] == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
