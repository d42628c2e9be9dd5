"""Benchmark of the idag package.

Run one workload from the repository root:

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics untraced; --trace 1 makes the
separate traced run that gives the per-layer metrics. Times are scaled to a
reference machine speed by a calibration loop timed before every op (see
`speed_factor`), so that the machine's own drift cancels. `--workload all` runs
every workload in turn, each in its own process. The report goes to stdout;
its last line is one JSON object with the keys correct, attempted, failed and
metrics. See perfbench/README.md for the workloads and metrics.
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
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("roundtrip", "equality", "matrix", "cli")

MIN_OPS = 100  # so that ten latency samples lie beyond p90
LOOP_CAP_S = 140.0  # stop timing here whatever --seconds says, to exit within 180 s
SETUP_REPEATS = 3
CLI_PROBES = 5
# median time of calibration_work() run in a tight loop on the reference
# machine (Intel Xeon, 2 vCPUs, Python 3.11) at a quiet moment
REFERENCE_CALIBRATION_S = 0.00091

END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("ok_rate", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# spans whose self time is reported as "<name>.s"
SPANS = (
    "terms.parse",
    "terms.print_expression",
    "decomposition.default_sorting",
    "decomposition.decompose",
    "decomposition.interpret",
    "models.evaluate_free",
    "models.evaluate_matrix",
    "core.canonical_form",
    "core.is_isomorphic",
    "core.transitive_closure",
    "core.prune_dangling",
    "equivalence.normalize",
    "equivalence.equal_mod_theory",
    "jsonio.idag_to_json",
)
# counters kept by the tracer and the counting model, with their units
COUNTERS = (
    ("terms.atoms", "count"),
    ("decomposition.sym11_atoms", "count"),
    ("models.compose.calls", "count"),
    ("models.compose.s", "s"),
    ("models.tensor.calls", "count"),
    ("models.tensor.s", "s"),
    ("models.relation.calls", "count"),
    ("models.relation.s", "s"),
    ("models.identity.width", "count"),
    ("core.canonical_form.calls", "count"),
    ("core.quotient_rounds", "count"),
)
# spans timed per node-count stratum, with a fitted scaling exponent
SCALED = ("decomposition.decompose", "models.evaluate_free", "models.evaluate_matrix")
STRATA = (8, 16, 32, 64)  # the node counts of workloads.STRATA

PER_LAYER = (
    tuple((f"{name}.s", "s", "lower") for name in SPANS)
    + tuple((name, unit, "lower") for name, unit in COUNTERS)
    + (
        ("terms.atoms_per_node", "count", "lower"),
        ("core.canonical_form.budget_exceeded", "count", "lower"),
    )
    + tuple((f"{name}.s.n{n}", "s", "lower") for name in SCALED for n in STRATA)
    + tuple((f"{name}.exp", "exp", "lower") for name in SCALED)
    + (
        ("cli.interpreter_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
        ("cli.command_ms", "ms", "lower"),
        ("trace.untraced_ops_per_s", "1/s", "higher"),
        ("trace.ops_per_s", "1/s", "higher"),
        ("trace.overhead", "ratio", "lower"),
    )
)


def calibration_work() -> int:
    """A fixed piece of pure-Python work like the library's: tuple keys,
    dict inserts and a keyed sort."""
    table = {}
    for i in range(3000):
        table[(i % 97, i)] = (i * 7919) % 1009
    return len(sorted(table, key=table.__getitem__))


def calibration_seconds() -> float:
    t0 = perf_counter()
    calibration_work()
    return perf_counter() - t0


def speed_factor(calibrations) -> float:
    """Reference seconds over the median of calibration timings: below 1
    while the machine runs slower than the reference. A shared machine's
    speed drifts by a quarter and more over minutes; multiplying a measured
    time by this factor cancels most of that drift."""
    return REFERENCE_CALIBRATION_S / statistics.median(calibrations)


@dataclass
class Tally:
    """What a pass over cases measured: per op its latency, its outcome and
    a calibration_work() timing taken just before it; per round its first
    op."""

    latencies: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)
    rounds: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    unexpected: int = 0

    @property
    def ok(self) -> int:
        return sum(self.outcomes)

    def factor(self) -> float:
        """The run's speed factor. The timings are spread over the whole
        run, one per op, so their median follows the run's average speed
        rather than one moment's."""
        return speed_factor(self.calibrations)

    def scaled(self) -> list:
        f = self.factor()
        return [t * f for t in self.latencies]

    def ops_per_s(self, scaled: bool = True) -> float:
        """Ops answered correctly per second spent in all attempted ops, the
        median over rounds: every round holds the same mix of inputs, so the
        median drops rounds that a burst of load on the machine slowed."""
        times = self.scaled() if scaled else self.latencies
        rates = []
        for lo, hi in zip(self.rounds, self.rounds[1:] + [len(times)]):
            rates.append(sum(self.outcomes[lo:hi]) / sum(times[lo:hi]))
        return statistics.median(rates)


def run_case(case, tracer, tally: Tally, is_known_error) -> None:
    error = None
    t0 = perf_counter()
    try:
        result = case.op(tracer)
    except Exception as exc:  # every failure of the program counts against the op
        error = exc
    tally.latencies.append(perf_counter() - t0)
    ok = False
    if error is None:
        try:
            ok = bool(case.check(result))
        except Exception:  # a result the oracle cannot read is a wrong one
            ok = False
    tally.outcomes.append(ok)
    if ok:
        return
    tally.failures[f"{case.kind}: {type(error).__name__ if error else 'wrong answer'}"] += 1
    if not (case.known_defect or (error is not None and is_known_error(error))):
        tally.unexpected += 1
        if error is not None and tally.unexpected <= 3:
            traceback.print_exception(error, file=sys.stderr)


def run_rounds(rounds, tracer, is_known_error, seconds: float, min_ops: int, t_process: float) -> Tally:
    """Whole rounds, closed loop, until `seconds` have passed and `min_ops`
    ops are done (a run that would pass LOOP_CAP_S stops early). Each op is
    preceded by one timing of calibration_work()."""
    tally = Tally()
    t_start = perf_counter()
    r = 0
    while True:
        tally.rounds.append(len(tally.latencies))
        for case in rounds[r % len(rounds)]:
            tally.calibrations.append(calibration_seconds())
            if tracer.enabled:
                tracer.op_id = len(tally.latencies)
            run_case(case, tracer, tally, is_known_error)
            if perf_counter() - t_process > LOOP_CAP_S:
                return tally
        r += 1
        if perf_counter() - t_start >= seconds and len(tally.latencies) >= min_ops:
            return tally


def percentile_ms(latencies: list, q: int) -> float:
    """The Harrell-Davis estimate of the q-th percentile, in ms: a weighted
    mean of all order statistics with Beta(q(n+1), (100-q)(n+1)) weights.
    A run mixes ops of very different sizes; where the percentile falls
    between two sizes, a single order statistic jumps between them from run
    to run, while this estimate moves smoothly."""
    xs = sorted(latencies)
    n = len(xs)
    a = q / 100 * (n + 1)
    b = (1 - q / 100) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights) * 1e3


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def fitted_exponent(by_stratum: dict) -> float:
    """Least-squares slope of log(time) against log(N)."""
    pts = [(math.log(n), math.log(t)) for n, t in by_stratum.items() if t > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def environment(seed: int) -> dict:
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup(wl_module, name: str, seed: int, repeats: int):
    """Build the seeded inputs and warm up, `repeats` times; returns the last
    workload and the median set-up seconds."""
    from tracing import NULL

    times = []
    for _ in range(repeats):
        factor = speed_factor([calibration_seconds() for _ in range(9)])
        t0 = perf_counter()
        wl = wl_module.BUILDERS[name](seed)
        for case in wl.warmup:
            try:
                case.op(NULL)
            except Exception:  # warm-up outcomes are not measured; the timed loop counts them
                pass
        times.append((perf_counter() - t0) * factor)
    return wl, statistics.median(times)


def untraced_metrics(wl, wl_module, seconds: float, import_s: float, setup_s: float, t_process: float):
    from tracing import NULL

    tally = run_rounds(wl.rounds, NULL, wl_module.is_known_error, seconds, MIN_OPS, t_process)
    n = len(tally.latencies)
    scaled = tally.scaled()
    values = {
        "ops_per_s": tally.ops_per_s(),
        "op_ms_p50": percentile_ms(scaled, 50),
        "op_ms_p90": percentile_ms(scaled, 90),
        "ok_rate": tally.ok / n,
        "peak_rss_mb": peak_rss_mb(wl.in_children),
        "setup_s": import_s + setup_s,
    }
    notes = {
        "ops_per_s": f"median of {len(tally.rounds)} rounds; unscaled "
        f"{tally.ops_per_s(scaled=False):.4f} 1/s, speed factor {tally.factor():.3f}",
        "op_ms_p50": f"n={n}; unscaled {percentile_ms(tally.latencies, 50):.3f} ms",
        "op_ms_p90": f"n={n}, {sum(1 for x in scaled if x * 1e3 > values['op_ms_p90'])} above; "
        f"unscaled {percentile_ms(tally.latencies, 90):.3f} ms",
        "ok_rate": f"n={n}; {n - tally.ok} failed",
        "peak_rss_mb": "children" if wl.in_children else "this process",
        "setup_s": f"import {import_s:.4f} s + median of {SETUP_REPEATS} builds with warm-up (scaled)",
    }
    return tally, values, notes, END_TO_END


def traced_metrics(wl, wl_module, t_process: float):
    from tracing import NULL, Tracer

    trace_set = wl.rounds[: wl.trace_rounds]
    n_ops = sum(len(r) for r in trace_set)
    plain = run_rounds(trace_set, NULL, wl_module.is_known_error, 0.0, n_ops, t_process)
    tracer = Tracer()
    traced = run_rounds(trace_set, tracer, wl_module.is_known_error, 0.0, n_ops, t_process)
    # the traced replays must reach the verdicts of the plain calls
    mismatches = sum(1 for a, b in zip(plain.outcomes, traced.outcomes) if a != b)
    traced.unexpected += mismatches

    # per-layer seconds are scaled by the traced pass's speed factor
    factor = traced.factor()
    self_s = tracer.self_times()
    counts = tracer.counts
    values = {f"{name}.s": self_s.get(name, 0.0) * factor for name in SPANS}
    values.update({name: counts.get(name, 0) * (factor if unit == "s" else 1) for name, unit in COUNTERS})
    values["terms.atoms_per_node"] = counts["terms.atoms"] / max(1, counts["decomposed_nodes"])
    values["core.canonical_form.budget_exceeded"] = tracer.errors("core.canonical_form", "SearchBudgetExceeded")
    strata = [case.stratum for rnd in trace_set for case in rnd]
    for name in SCALED:
        per_op: dict = {n: [] for n in STRATA}
        for op, seconds in tracer.by_op(name).items():
            if strata[op] in per_op:
                per_op[strata[op]].append(seconds * factor)
        mean = {n: sum(xs) / len(xs) if xs else 0.0 for n, xs in per_op.items()}
        for n, seconds in mean.items():
            values[f"{name}.s.n{n}"] = seconds
        values[f"{name}.exp"] = fitted_exponent(mean)
    values.update(cli_split(wl, wl_module, traced))
    values["trace.untraced_ops_per_s"] = plain.ops_per_s()
    values["trace.ops_per_s"] = traced.ops_per_s()
    values["trace.overhead"] = sum(traced.scaled()) / sum(plain.scaled()) - 1
    notes = {
        "trace.overhead": f"{n_ops} ops, traced seconds / untraced seconds - 1",
        "trace.ops_per_s": f"{mismatches} verdicts differ from the untraced pass",
    }
    write_spans(wl.name, tracer)
    merged = Tally(plain.latencies + traced.latencies, plain.outcomes + traced.outcomes,
                   failures=plain.failures + traced.failures,
                   unexpected=plain.unexpected + traced.unexpected)
    return merged, values, notes, PER_LAYER


def cli_split(wl, wl_module, traced: Tally) -> dict:
    """Interpreter start, `import idag` and the command itself, from
    separate `python -c pass` and `python -c "import idag"` processes."""
    if not wl.in_children:
        return {"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0, "cli.command_ms": 0.0}
    factor = traced.factor()
    bare = factor * statistics.median(_timed_python(wl_module, ["-c", "pass"]) for _ in range(CLI_PROBES))
    imp = factor * statistics.median(_timed_python(wl_module, ["-c", "import idag"]) for _ in range(CLI_PROBES))
    command = statistics.median(traced.scaled())
    return {
        "cli.interpreter_ms": bare * 1e3,
        "cli.import_ms": (imp - bare) * 1e3,
        "cli.command_ms": (command - imp) * 1e3,
    }


def _timed_python(wl_module, args: list) -> float:
    t0 = perf_counter()
    code, _out, err = wl_module.run_python(args)
    if code != 0:
        raise RuntimeError(f"python {' '.join(args)} exited {code}: {err.decode(errors='replace')}")
    return perf_counter() - t0


def write_spans(workload: str, tracer) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    doc = {
        "fields": ["name", "start", "end", "parent", "op", "error"],
        "spans": tracer.spans,
        "self_seconds": tracer.self_times(),
        "counts": dict(tracer.counts),
    }
    (out / f"spans-{workload}.json").write_text(json.dumps(doc))


def run_one(args) -> int:
    t_process = perf_counter()
    if not (SRC / "idag" / "__init__.py").is_file():
        print(f"error: no idag sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import idag

    import_s = (perf_counter() - t0) * speed_factor([calibration_seconds() for _ in range(9)])
    if Path(idag.__file__).resolve().parent != (SRC / "idag").resolve():
        print(f"error: imported idag from {idag.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl, setup_s = setup(workloads, args.workload, args.seed, 1 if args.trace else SETUP_REPEATS)
    if args.trace:
        tally, values, notes, spec = traced_metrics(wl, workloads, t_process)
    else:
        tally, values, notes, spec = untraced_metrics(
            wl, workloads, args.seconds, import_s, setup_s, t_process
        )

    env = environment(args.seed)
    env.update(workload=args.workload, trace=args.trace, seconds=args.seconds, ops=len(tally.latencies))
    print("env " + json.dumps(env))
    for name, unit, _better in spec:
        note = notes.get(name, "")
        print(f"{name:40s} {values[name]:>16.6f} {unit:6s} {note}")
    n = len(tally.latencies)
    print(f"{'error_rate':40s} {(n - tally.ok) / n:>16.6f} {'ratio':6s} {n - tally.ok} of {n} ops failed")
    for kind, count in sorted(tally.failures.items()):
        print(f"failed  {count:5d}  {kind}")
    result = {
        "correct": tally.unexpected == 0,
        "attempted": len(tally.latencies),
        "failed": len(tally.latencies) - tally.ok,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in spec},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
