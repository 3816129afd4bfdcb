"""Run one benchmark workload against this checkout's ``hfi`` and print metrics.

    python3 perfbench/run.py --workload sigma_sweep --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop with one caller: each op starts when
the previous one returns.  The seeded round of ops (see workloads.py) runs in
whole rounds until ``--seconds`` have passed, so every run covers the same
mix of inputs.  A round takes 10 to 20 s, so a run has two rounds, or one
where the machine is slow enough that one round takes ``--seconds``.  An
op's latency is the median over the rounds of its time calibrated for the
machine's speed (see Speedometer).

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median
calibrated wall time of fresh interpreters that import ``hfi`` and build the
round, started one at a time after one unmeasured start.

``--trace 1`` runs each op twice, untraced and traced, alternating which
goes first, so the difference of the two is the tracing overhead.  It prints
the per-layer metrics of the traced calls (per op) and writes the spans to
``perfbench/out/``.

Every op's output is checked.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when any op failed or ``hfi`` cannot be imported from this
checkout's ``src``; then no result line is printed for the import failure.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 5
HARD_STOP_S = 150  # stop starting ops here, so a run always ends within 180 s
TAIL_BEYOND = 10   # op_tail_ms: the highest rank with this many samples above
CAL_NOMINAL_S = 0.00055  # calibration_loop() on an idle machine, see NOTES.md
SAMPLE_PERIOD_S = 0.05   # how often the speed is sampled during timed ops
SAMPLE_WINDOW_S = 0.2    # samples this close to a timed span count for it


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python loop: how fast the machine runs now."""
    t0 = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 200):
        acc += Fraction(i % 97, i % 13 + 1)
        seen[(i, i % 7)] = frozenset((i, i + 1, i * i))
    return time.perf_counter() - t0


class Speedometer:
    """Samples calibration_loop() every SAMPLE_PERIOD_S from a SIGALRM handler.

    On a shared machine this process's speed drifts by up to 2x within
    seconds, in CPU time as much as in wall time.  A timed span is therefore
    scaled by CAL_NOMINAL_S / (mean sample near the span), which reports it
    at the speed of an idle machine.  The handler runs between bytecodes, so
    long ops are sampled while they run; ``stolen`` is the time it took.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.stolen = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        calibration_loop()  # warm the loop's data, so the op's cache use is not measured
        self.took.append(calibration_loop())
        self.at.append(t0)
        self.stolen += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.at, start - SAMPLE_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + SAMPLE_WINDOW_S)
        took = self.took[lo:hi]
        return CAL_NOMINAL_S * len(took) / sum(took) if took else 1.0  # not sampled


def import_hfi() -> float:
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import hfi
    except ImportError as e:
        sys.exit(f"cannot import hfi from {SRC}: {e}")  # exit code 1
    dt = time.perf_counter() - t0
    if Path(hfi.__file__).resolve().parent != SRC / "hfi":
        sys.exit(f"hfi was imported from {hfi.__file__}, not from {SRC}")
    return dt


def setup_seconds(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=60)
    # the first start above compiles bytecode; users pay that once
    times = []
    for _ in range(SETUP_REPEATS):
        before = sum(calibration_loop() for _ in range(10))
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=60)
        raw = time.perf_counter() - t0
        after = sum(calibration_loop() for _ in range(10))
        times.append(raw * 20 * CAL_NOMINAL_S / (before + after))
    return statistics.median(times)


class Phase:
    """Whole rounds of ops until ``seconds`` have passed.

    Op latencies are calibrated by ``speed`` (a sampler that was never
    started leaves them raw); ``raw_s`` sums the measured op times.
    """

    def __init__(self, ops, seconds: float, started: float, run_op,
                 speed: Speedometer):
        spans = [[] for _ in ops]   # (start, end, raw seconds) per repeat
        self.errors: list[tuple[str, str, str]] = []  # (op, exception, message)
        self.attempted = 0
        t0 = time.perf_counter()
        while True:
            for i, op in enumerate(ops):
                if time.perf_counter() - started > HARD_STOP_S:
                    break
                stolen, start = speed.stolen, time.perf_counter()
                try:
                    run_op(i, op)
                except Exception as e:  # every failure is counted and reported
                    self.errors.append((op.label, type(e).__name__, str(e)[:300]))
                end = time.perf_counter()
                spans[i].append((start, end, end - start - (speed.stolen - stolen)))
                self.attempted += 1
            else:
                if time.perf_counter() - t0 < seconds:
                    continue
            break
        self.elapsed = time.perf_counter() - t0
        self.raw_s = sum(raw for reps in spans for _, _, raw in reps)
        self.latency = [[raw * speed.scale(start, end) for start, end, raw in reps]
                        for reps in spans]

    def per_op(self) -> list[float]:
        return [statistics.median(ts) for ts in self.latency if ts]


def end_to_end(ops, args, started) -> tuple[Phase, dict]:
    setup = setup_seconds(args.workload, args.seed)
    with Speedometer() as speed:
        phase = Phase(ops, args.seconds, started, lambda i, op: op.run(), speed)
    lat = sorted(phase.per_op())
    rank = max(0, len(lat) - TAIL_BEYOND - 1)
    completed = phase.attempted - len(phase.errors)
    busy = sum(map(sum, phase.latency))
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (completed / busy, "1/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    tail_ms = 1000 * lat[rank]  # printed only: too unsteady to gate, see NOTES.md
    rounds = phase.attempted / len(ops)
    print(f"workload {args.workload}  seed {args.seed}  ops/round {len(ops)}  "
          f"rounds {rounds:g}  timed {phase.elapsed:.2f} s")
    print(f"  setup_s      {setup:.4f} s   (median of {SETUP_REPEATS} fresh interpreters)")
    print(f"  ops_per_s    {metrics['ops_per_s'][0]:.4f} 1/s  ({completed} ops; "
          f"uncalibrated {completed / phase.raw_s:.4f} 1/s)")
    print(f"  op_p50_ms    {metrics['op_p50_ms'][0]:.3f} ms  (n={len(lat)} ops)")
    print(f"  op_tail_ms   {tail_ms:.3f} ms  "
          f"(p{100 * (rank + 1) / len(lat):.1f}, n={len(lat)}, "
          f"{len(lat) - rank - 1} above)")
    print(f"  fail_frac    {len(phase.errors) / phase.attempted:.4f}  "
          f"({len(phase.errors)}/{phase.attempted})")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb'][0]:.2f} MB")
    return phase, metrics


# share of untraced op time on the inputs a later optimisation targets
GROUPS = {
    "sigma.anchor_time_frac": ("sigma_sweep", ("anchor",)),
    "sigma.vertex_heavy_time_frac": ("sigma_sweep", ("V",)),
    "sigma.leaf_heavy_time_frac": ("sigma_sweep", ("L",)),
    "oracle.g729_time_frac": ("oracle_cross_check", ("g729",)),
    "oracle.g243_time_frac": ("oracle_cross_check", ("g243",)),
    "oracle.g81_time_frac": ("oracle_cross_check", ("g81",)),
    "oracle.g27_time_frac": ("oracle_cross_check", ("g27",)),
    "local.true_pair_time_frac": ("local_equivalence", ("T",)),
    "local.false_pair_time_frac": ("local_equivalence", ("F",)),
    "local.g165_time_frac": ("local_equivalence", ("T8x6",)),
}
# per-layer seconds: (metric, span name, inclusive or self)
LAYER_TIMES = [
    ("expr.parse_s", "expr.parse", "incl"),
    ("report.evaluate_self_s", "report.evaluate", "self"),
    ("report.class_complex_s", "report.class_complex", "incl"),
    ("cterms.correction_terms_s", "cterms.correction_terms", "incl"),
    ("roots.standard_complex_s", "roots.standard_complex", "incl"),
    ("brieskorn.seifert_plumbing_s", "brieskorn.seifert_plumbing", "incl"),
    ("brieskorn.tau_sequence_s", "brieskorn.tau_sequence", "incl"),
    ("brieskorn.compress_s", "brieskorn._compress_to_profile", "incl"),
    ("brieskorn.root_self_s", "brieskorn.brieskorn_root", "self"),
    ("plumbing.k_squared_s", "plumbing.k_squared", "incl"),
    ("monotone.monotone_subroot_s", "monotone.monotone_subroot", "incl"),
    ("monotone.decompose_s", "monotone.decompose", "incl"),
    ("complexes.tensor_s", "complexes.tensor", "incl"),
    ("complexes.dual_s", "complexes.dual", "incl"),
    ("complexes.mapping_cone_s", "complexes.mapping_cone", "incl"),
    ("complexes.expanded_build_s", "complexes.Expanded.__init__", "incl"),
    ("complexes.boundary_matrix_s", "complexes.Expanded.boundary_matrix", "incl"),
    ("complexes.umap_s", "complexes.Expanded.umap", "incl"),
    ("complexes.correction_terms_self_s", "complexes.correction_terms", "self"),
    ("complexes.d_scan_self_s", "complexes._d_scan", "self"),
    ("complexes.cone_scans_self_s", "complexes._cone_scans", "self"),
    ("complexes.find_local_map_self_s", "complexes.find_local_map", "self"),
    ("complexes.tower_rep_s", "complexes.Expanded.tower_rep", "incl"),
    ("complexes.validate_self_s", "complexes.validate", "self"),
    ("complexes.mat_mul_s", "complexes.mat_mul", "incl"),
    ("complexes.solve_homotopy_self_s", "complexes.solve_homotopy", "self"),
    ("gf2.rref_s", "gf2.rref", "incl"),
    ("gf2.kernel_self_s", "gf2.kernel", "self"),
    ("gf2.solve_affine_self_s", "gf2.solve_affine", "self"),
]
LAYER_COUNTS = ["brieskorn.tau_steps", "brieskorn.leaves", "plumbing.vertices",
                "monotone.profile_leaves", "complexes.generators",
                "complexes.expanded_builds", "complexes.expanded_dim",
                "gf2.rref_calls", "gf2.rref_cells", "gf2.solve_cells"]


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(ops, args, started, import_s) -> tuple[Phase, dict]:
    from tracer import Tracer

    tracer = Tracer()
    plain = [[] for _ in ops]
    traced = [[] for _ in ops]

    def paired(i, op):
        """Run the op untraced and traced, alternating which goes first."""
        for trace in ((False, True) if i % 2 else (True, False)):
            if trace:
                tracer.install()
                tracer.op_id = i
            s = time.perf_counter()
            try:
                tracer.call("op", op.run) if trace else op.run()
            finally:
                (traced if trace else plain)[i].append(time.perf_counter() - s)
                tracer.uninstall()

    phase = Phase(ops, args.seconds, started, paired, Speedometer())
    n = sum(map(len, traced))
    incl, own = tracer.totals()
    c = tracer.counters
    metrics = {"setup.import_hfi_s": (import_s, "s")}
    for name, span, kind in LAYER_TIMES:
        metrics[name] = (((incl if kind == "incl" else own).get(span, 0.0)) / n, "s/op")
    for name in LAYER_COUNTS:
        metrics[name] = (c[name] / n, "count/op")
    for name, num, den in [
            ("brieskorn.leaves_per_tau_step", "brieskorn.leaves", "brieskorn.tau_steps"),
            ("complexes.expanded_builds_per_terms", "complexes.expanded_builds",
             "complexes.correction_terms_calls"),
            ("gf2.rref_calls_per_terms", "gf2.rref_calls", "complexes.correction_terms_calls"),
            ("complexes.localmap_feasible_frac", "complexes.localmap_feasible",
             "complexes.find_local_map_calls")]:
        metrics[name] = (ratio(c[num], c[den]), "ratio")
    plain_s = sum(map(sum, plain))
    traced_s = sum(map(sum, traced))
    metrics["trace.overhead_ms"] = (1000 * (traced_s - plain_s) / n, "ms/op")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    metrics["trace.uncovered_frac"] = (ratio(own.get("op", 0.0), incl.get("op", 0.0)), "ratio")
    lat = [statistics.median(ts) if ts else 0.0 for ts in plain]
    for name, (workload, prefixes) in GROUPS.items():
        share = sum(t for t, op in zip(lat, ops) if op.stratum.startswith(prefixes))
        metrics[name] = (ratio(share, sum(lat)) if workload == args.workload else 0.0, "ratio")

    out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(out, [op.label for op in ops])
    print(f"workload {args.workload}  seed {args.seed}  traced ops {n}  "
          f"spans {len(tracer.spans)} -> {out.relative_to(HERE.parent)}")
    print(f"  untraced {plain_s:.2f} s, traced {traced_s:.2f} s, over {n} ops")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    return phase, metrics


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import hfi, build the round and exit (times setup_s)")
    args = ap.parse_args(argv)

    import_s = import_hfi()
    ops = workloads.build_round(args.workload, args.seed)
    if args.setup_only:
        return 0
    if args.trace:
        phase, metrics = per_layer(ops, args, started, import_s)
    else:
        phase, metrics = end_to_end(ops, args, started)
    errors = phase.errors
    for label, exc, msg in errors:
        print(f"  FAILED {label}: {exc}: {msg}")
    if errors:
        kinds = Counter(exc for _, exc, _ in errors)
        print("  failures by exception: "
              + ", ".join(f"{k} {n}" for k, n in kinds.most_common()))
    print(json.dumps({"correct": not errors, "attempted": phase.attempted,
                      "failed": len(errors),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
