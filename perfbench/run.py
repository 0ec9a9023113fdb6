"""Benchmark of topograph: end-to-end times per workload, or per-layer
counts from a traced run.

    python3 perfbench/run.py --workload walks-long --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the human-readable report (family times, per-family operation counts,
failing inputs).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Times are scaled to a fixed reference speed (see refspeed.py): on this
# shared host the raw speed of the same code swings by up to 2x within
# seconds, its ratio to a reference timed beside it by a few percent.
# wall_s is the median over at least MIN_ROUNDS rounds.  A run also goes on past --seconds
# until it has timed MIN_SAMPLES operations, so that the 90th percentile
# printed has at least ten samples beyond it.
MIN_ROUNDS = 5
MIN_SAMPLES = 100
TAIL_PERCENTILE = 90
# seconds between two timings of the reference
REF_EVERY_S = 0.1
# stop starting rounds after this long, whatever the counts
HARD_STOP_S = 140.0
# set-up is timed SETUPS_PER_ROUND times before each of the first MIN_ROUNDS
# rounds, in fresh interpreters
SETUPS_PER_ROUND = 2
# processes timed for each of the traced run's cli.python_ms and cli.import_ms
PROCESS_REPEATS = 5

FAMILIES = {
    "walks-long": ("reduce", "river", "pell", "diform"),
    "tables": ("classgroup", "reduce", "river"),
    "geometry": ("render", "diform", "hermitian"),
    "cli": ("cli",),
}

# one small first call per family, timed in a fresh interpreter after import
SETUP_CODE = {
    "walks-long": (
        "import topograph.reduction as R, topograph.diform as D\n"
        "from topograph.bqf import BQF\n"
        "R.gauss_reduced(BQF(5, 7, 3)); R.pell_solve(61)\n"
        "R.minimum_nonzero(BQF(1, 0, -3)); R.riverbends(BQF(1, 0, -3))\n"
        "D.diform_well(D.BQD(2, 1, 0, 1)); D.diform_river(D.BQD(3, 1, 0, -2))\n"),
    "tables": (
        "import topograph.classgroup as C, topograph.reduction as R\n"
        "from topograph.bqf import BQF\n"
        "C.enumerate_classes(-20).build_table(); C.verify_red_blue(2, 1, 1, 3)\n"
        "R.gauss_reduced(BQF(5, 7, 3)); R.riverbends(BQF(1, 0, -3))\n"
        "R.minimum_nonzero(BQF(1, 0, -3))\n"),
    "geometry": (
        "import topograph.render as N, topograph.diform as D, topograph.hermitian as H\n"
        "from topograph.rings import GAUSS, QRE\n"
        "N.emit_svg(N.layout('3inf', 2, (1, 0, -3))); N.emit_svg(N.layout('4inf', 2))\n"
        "D.diform_well(D.BQD(2, 1, 0, 1)); D.diform_river(D.BQD(3, 1, 0, -2))\n"
        "H.empirical_minimum(H.BHF(GAUSS, 1, QRE(GAUSS, 1, 0), -2), 1)\n"),
    "cli": "import topograph.cli\n",
}

PER_LAYER_COUNTS = (
    ("reduction.river_edges", "count", "lower"),
    ("classgroup.h_sum", "count", "higher"),
    ("diform.river_steps", "count", "lower"),
    ("render.vertices", "count", "higher"),
    ("render.edges", "count", "higher"),
    ("render.faces", "count", "higher"),
    ("render.svg_bytes", "count", "lower"),
    ("render.vertices_3inf", "count", "higher"),
    ("render.vertices_dilinear", "count", "higher"),
    ("hermitian.box_points", "count", "higher"),
    ("hermitian.searches", "count", "higher"),
    ("cli.river_calls", "count", "higher"),
    ("cli.hermitian_calls", "count", "higher"),
    ("render.superbases_per_vertex", "per_vertex", "lower"),
    ("render.pinwheels_per_vertex", "per_vertex", "lower"),
    ("hermitian.evals_per_box_point", "per_point", "lower"),
    ("hermitian.superbase_tests_per_search", "per_search", "lower"),
    ("cli.trace_river_per_river", "per_call", "lower"),
    ("cli.cubasis_searches_per_hermitian", "per_call", "lower"),
    ("cli.python_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
) + tuple((f"cli.{sub}_ms", "ms", "lower") for sub in (
    "reduce", "river", "pell", "classgroup", "diform", "hermitian_g", "hermitian_e",
    "render", "dump")) + (
    ("trace.plain_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def fail(msg: str) -> None:
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def child_seconds(code: str) -> float:
    """Seconds a fresh interpreter spends running code, timed inside it and
    scaled by the reference chunk timed right after it."""
    probe = ("import time\n_t0 = time.perf_counter()\n" + code +
             "_t1 = time.perf_counter()\nimport refspeed\n"
             "print(_t1 - _t0, refspeed.chunk_seconds())\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"set-up failed: {proc.stderr.strip()[-400:]}")
    took, chunk = (float(t) for t in proc.stdout.split()[-2:])
    return took * refspeed.REF_S / chunk


def process_ms(argv: list) -> float:
    """Median wall time of a whole interpreter process, in ms."""
    times = []
    for _ in range(PROCESS_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                       capture_output=True, timeout=120, check=True)
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def bare_python_seconds() -> float:
    """Wall time of a bare interpreter start, the reference for CLI runs."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(), cwd=ROOT,
                   capture_output=True, timeout=120, check=True)
    return time.perf_counter() - t0


CHUNK_REFERENCE = (refspeed.chunk_seconds, refspeed.REF_S)
PROCESS_REFERENCE = (bare_python_seconds, refspeed.PROCESS_REF_S)


def reference(workload: str):
    return PROCESS_REFERENCE if workload == "cli" else CHUNK_REFERENCE


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


class Tally:
    """Times, attempts, failures and wrong answers of the operations run.

    Before an operation, when REF_EVERY_S has passed since the last one, a
    reference (see ``refspeed``) is timed; each operation's time is then
    scaled by the reference's nominal time over the mean of the references
    on either side of it.
    """

    def __init__(self):
        self.durations = array.array("d")  # scaled seconds per operation
        self.rounds = []  # per round: {family: scaled seconds}
        self.raw_walls = []
        self.attempted = {}
        self.failed = {}
        self.wrong = []
        self.errors = []

    def run_round(self, ops, reference, tracer=None) -> float:
        """Run and check one round; returns its scaled time.  reference is
        (function timing the reference once, its nominal seconds)."""
        ref, nominal = reference
        chunks = [ref()]
        last_chunk = time.perf_counter()
        timed = []  # (family, seconds, index of the reference before)
        for op in ops:
            if time.perf_counter() - last_chunk >= REF_EVERY_S:
                chunks.append(ref())
                last_chunk = time.perf_counter()
            self.attempted[op.family] = self.attempted.get(op.family, 0) + 1
            result, error = None, None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = op.call()
                else:
                    result = tracer.run(op.family, op.kind, op.label, op.call)
            except Exception as exc:  # a failed operation is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            timed.append((op.family, time.perf_counter() - t0, len(chunks) - 1))
            if error is None:
                try:
                    op.check(result)
                except Exception as exc:  # a checker crash is a wrong answer too
                    error = f"wrong answer: {type(exc).__name__}: {exc}"
                    self.wrong.append(f"{op.label}: {error}")
            if error is not None:
                self.failed[op.family] = self.failed.get(op.family, 0) + 1
                if len(self.errors) < 20:
                    self.errors.append(f"{op.label}: {error}")
        chunks.append(ref())
        per_family = {}
        for family, dt, i in timed:
            scaled = dt * 2 * nominal / (chunks[i] + chunks[i + 1])
            self.durations.append(scaled)
            per_family[family] = per_family.get(family, 0.0) + scaled
        self.rounds.append(per_family)
        self.raw_walls.append(sum(dt for _, dt, _ in timed))
        return sum(per_family.values())


def make_round(workload: str, seed: int, index: int, run_cli=None):
    import workloads as W

    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "cli":
        return W.cli_ops(rng, run_cli, str(OUT / "cli-render.svg"))
    return {"walks-long": W.walks_long, "tables": W.tables,
            "geometry": W.geometry}[workload](rng)


def subprocess_cli(argv):
    import workloads as W

    return W.run_subprocess(argv, child_env(), str(ROOT), sys.executable)


def inprocess_cli(argv):
    import topograph.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = topograph.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def peak_rss_mib(workload: str) -> float:
    """Peak resident memory of this process, or of its largest child for cli."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def report(tally: Tally, workload: str) -> None:
    for line in tally.errors:
        print("failed:", line)
    for fam in FAMILIES[workload]:
        vals = [r.get(fam, 0.0) for r in tally.rounds]
        name = "cli_wall_s" if fam == "cli" else f"{fam}_s"
        print(f"{name} {statistics.median(vals):.6f} s  (median of {len(vals)} rounds; "
              f"attempted {tally.attempted.get(fam, 0)}, failed {tally.failed.get(fam, 0)})")
    print(f"raw wall per round {statistics.median(tally.raw_walls):.6f} s unscaled "
          f"(fastest {min(tally.raw_walls):.6f} s)")


def plain_run(args) -> tuple[dict, Tally]:
    setup = SETUP_CODE[args.workload]
    child_seconds(setup)  # may compile the byte-code cache; not counted
    setups = []
    tally = Tally()
    walls = []
    rss = None
    start = time.perf_counter()
    while True:
        # set-up samples are spread over the first rounds, so that their
        # median does not rest on one moment of the host's speed
        if len(walls) < MIN_ROUNDS:
            setups += [child_seconds(setup) for _ in range(SETUPS_PER_ROUND)]
        ops = make_round(args.workload, args.seed, len(walls), subprocess_cli)
        walls.append(tally.run_round(ops, reference(args.workload)))
        # read after a fixed number of rounds, so that the run's length (and
        # the bookkeeping that grows with it) does not move the figure
        if len(walls) == MIN_ROUNDS:
            rss = peak_rss_mib(args.workload)
        elapsed = time.perf_counter() - start
        if (elapsed >= args.seconds and len(walls) >= MIN_ROUNDS
                and len(tally.durations) >= MIN_SAMPLES) or elapsed >= HARD_STOP_S:
            break
    ms = [1000 * d for d in tally.durations]
    p50, tail = statistics.median(ms), percentile(ms, TAIL_PERCENTILE)
    report(tally, args.workload)
    prefix = "cli_" if args.workload == "cli" else "op_"
    print(f"{prefix}p50_ms {p50:.3f} ms; {prefix}tail_ms {tail:.3f} ms "
          f"(p{TAIL_PERCENTILE} of {len(ms)} operations in {len(walls)} rounds)")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mib": (peak_rss_mib(args.workload) if rss is None else rss, "MiB"),
    }
    return metrics, tally


def trace_run(args) -> tuple[dict, Tally]:
    import tracing as T

    tally = Tally()
    tracer = T.Tracer()
    with contextlib.suppress(ImportError):
        import topograph.cli  # noqa: F401  (wrap cli.main before its first use)
    run_cli = inprocess_cli if args.workload == "cli" else None
    tracer.install()
    try:
        traced = tally.run_round(make_round(args.workload, args.seed, 0, run_cli),
                                 CHUNK_REFERENCE, tracer)
    finally:
        tracer.uninstall()
    plain = tally.run_round(make_round(args.workload, args.seed, 0, run_cli),
                            CHUNK_REFERENCE)
    dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(str(dump))
    report(tally, args.workload)
    print(f"trace written to {dump.relative_to(ROOT)}")
    if tracer.absent:
        print("absent (reported as 0):", " ".join(tracer.absent))
    print(f"tracing overhead {traced - plain:.4f} s on a {plain:.4f} s round")

    metrics = {}
    for name in T.TRACED:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name], "s")
    counts = layer_counts(tracer)
    if args.workload == "cli":
        counts.update(cli_process_times(args, tally))
    counts["trace.plain_wall_s"] = plain
    counts["trace.traced_wall_s"] = traced
    counts["trace.overhead_s"] = traced - plain
    for name, unit, _ in PER_LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), unit)
    return metrics, tally


def layer_counts(tracer) -> dict:
    """Counts read off returned values, and the ratios with their bases."""
    counts = dict(tracer.counts)
    searches = ("find_cubasis", "find_tetrabasis")
    render = ("layout", "emit_svg")
    cli_herm = ("cli.hermitian_g", "cli.hermitian_e")
    kinds = [span[2] for span in tracer.spans]
    counts["hermitian.searches"] = sum(tracer.kind_calls(searches, "hermitian." + s)
                                       for s in searches)
    counts["cli.river_calls"] = kinds.count("cli.river")
    counts["cli.hermitian_calls"] = sum(kinds.count(k) for k in cli_herm)

    def ratio(num, base_name):
        base = counts.get(base_name, 0)
        return num / base if base else 0.0

    counts["render.superbases_per_vertex"] = ratio(
        tracer.kind_calls(render, "lax.normalize_superbase"), "render.vertices_3inf")
    counts["render.pinwheels_per_vertex"] = ratio(
        tracer.kind_calls(render, "diform.pinwheel_complete"), "render.vertices_dilinear")
    counts["hermitian.evals_per_box_point"] = ratio(
        tracer.kind_calls(("empirical_minimum",), "hermitian.bhf_evaluate"),
        "hermitian.box_points")
    counts["hermitian.superbase_tests_per_search"] = ratio(
        tracer.kind_calls(searches, "hermitian.is_ring_superbase"), "hermitian.searches")
    counts["cli.trace_river_per_river"] = ratio(
        tracer.kind_calls(("cli.river",), "reduction.trace_river"), "cli.river_calls")
    counts["cli.cubasis_searches_per_hermitian"] = ratio(
        sum(tracer.kind_calls(cli_herm, "hermitian." + s) for s in searches),
        "cli.hermitian_calls")
    return counts


def cli_process_times(args, tally: Tally) -> dict:
    """Bare interpreter start, the import of topograph.cli above it, and the
    median process time of each subcommand over three cycles."""
    python_ms = process_ms(["-c", "pass"])
    out = {"cli.python_ms": python_ms,
           "cli.import_ms": process_ms(["-c", "import topograph.cli"]) - python_ms}
    per_sub = {}
    for index in range(3):
        ops = make_round("cli", args.seed, index, subprocess_cli)
        first = len(tally.durations)
        tally.run_round(ops, PROCESS_REFERENCE)
        for op, dt in zip(ops, tally.durations[first:]):
            per_sub.setdefault(op.kind, []).append(1000 * dt)
    for kind, times in per_sub.items():
        out[f"{kind}_ms"] = statistics.median(times)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(FAMILIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "topograph" / "__init__.py").is_file():
        fail(f"no topograph sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import topograph

    if Path(topograph.__file__).resolve().parent != SRC / "topograph":
        fail(f"imported topograph from {topograph.__file__}, not from {SRC}")
    import selftest

    OUT.mkdir(exist_ok=True)
    broken = selftest.run()
    for line in broken:
        print("selftest failed:", line)
    metrics, tally = (trace_run if args.trace else plain_run)(args)
    for line in tally.wrong:
        print("wrong answer:", line)
    print(json.dumps({
        "correct": not broken and not tally.wrong,
        "attempted": sum(tally.attempted.values()),
        "failed": sum(tally.failed.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
