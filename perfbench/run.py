"""Two-clock benchmark of the FaaS pipeline reproduction.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 35 --trace 0

Runs one workload (``table1``, ``shuffle-scaling`` or
``shuffle-streaming``; see ``perfbench/rationale.json`` for why each was
chosen) as a closed loop: one client in one process, no threads, each op
starting when the previous one has finished.  Ops run in whole cycles
of the workload's cells, while one more cycle of average length fits in
``--seconds`` of host time (table1 always completes its first four
cycles, over which its simulated medians are taken).  Every op's output is checked; an op that
raises, stalls (see ``stallwatch.py``) or returns a wrong output counts
as failed and ranks as +inf in every percentile.

``--trace 0`` reports the end-to-end metrics on both clocks: host
seconds per op and set-up time (scaled to a reference machine speed,
see ``yardstick.py``), simulated seconds and dollars per op, the share
of ops that succeeded, and peak memory.  ``--trace 1`` alternates
untraced and traced cycles and reports the per-layer metrics of the
traced ops (``layers.py``); its spans are written to
``.perfbench/spans-<workload>-seed<seed>.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts before any import
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from stallwatch import StallWatchdog, Stalled  # noqa: E402
from yardstick import Yardstick  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORKLOADS = ("table1", "shuffle-scaling", "shuffle-streaming")
#: Set-ups per run, each in a fresh process; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Yardstick samples taken right after each set-up to scale it.
SETUP_SAMPLES = 9


@dataclasses.dataclass
class OpRecord:
    label: str
    host_s: float
    sim_s: float
    usd: float
    traced: bool
    cycle: int
    error: str | None = None
    #: ``host_s`` at the reference machine speed (see yardstick.py).
    scaled_s: float = math.nan
    wrong: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.inf


def run_op(workload, cell, cycle, watchdog, tracer=None) -> tuple[OpRecord, object]:
    """One op: prepare off the clock, execute on it, check off it."""
    cloud = workload.prepare(cell)
    before = None
    if tracer is not None:
        before = tracer.cloud_counts_of(cloud)
        tracer.install()
        tracer.begin_op()
    outcome = error = None
    watchdog.watch(cloud.sim)
    started = time.perf_counter()
    try:
        outcome = workload.execute(cell, cloud)
    except Stalled as stall:
        error = f"stalled: {stall}"
    except Exception as exc:  # a failed op is reported; the run goes on
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    finally:
        host_s = time.perf_counter() - started
        watchdog.unwatch()
        if watchdog.tripped and error is None:
            # A process body caught the Stalled and the simulation went on.
            error, outcome = "stalled: a simulated process caught the watchdog's abort", None
        if tracer is not None:
            tracer.end_op(before, cloud, completed=outcome is not None)
            tracer.uninstall()
    record = OpRecord(workload.label(cell), host_s, math.nan, math.nan,
                      traced=tracer is not None, cycle=cycle, error=error)
    if outcome is not None:
        record.sim_s, record.usd = outcome.sim_s, outcome.usd
        wrong = workload.check(cell, cloud, outcome)
        if wrong is not None:
            record.error, record.wrong = f"wrong output: {wrong}", True
    return record, outcome


def set_up(workload, watchdog) -> float:
    """Build the inputs and warm every code path up on a small twin.

    Returns the seconds from process start to here, scaled to the
    reference machine speed by yardstick samples taken right after.
    """
    workload.build_inputs()
    twin = workload.small()
    twin.build_inputs()
    for cell in twin.cycle(0):
        record, _outcome = run_op(twin, cell, 0, watchdog)
        if not record.ok:
            print(f"warm-up op {record.label} failed: {record.error}", file=sys.stderr)
    setup_s = time.perf_counter() - PROCESS_START
    yardstick = Yardstick()
    for _ in range(SETUP_SAMPLES):
        yardstick.sample()
    return setup_s * yardstick.scale()


def closed_loop(workload, seconds: float, watchdog, yardstick, tracer=None) -> list[OpRecord]:
    """Whole cycles within ``seconds``, and at least the workload's
    ``sim_cycles`` (or one, or two with a tracer); with a tracer, odd
    cycles are traced and even ones are not."""
    records: list[OpRecord] = []
    reference: dict[str, tuple[float, float]] = {}
    started = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        for cell in workload.cycle(index):
            record, outcome = run_op(workload, cell, index, watchdog,
                                     tracer if traced else None)
            yardstick.follow(record.host_s)
            if record.ok:
                # A repeated cell must reproduce its simulated result
                # exactly: the simulator is deterministic per seed, and
                # tracing must not perturb it.
                first = reference.setdefault(repr(cell), (record.sim_s, record.usd))
                if first != (record.sim_s, record.usd):
                    record.error, record.wrong = (
                        f"simulated result {record.sim_s!r} s / ${record.usd!r} "
                        f"differs from an earlier {first[0]!r} s / ${first[1]!r}"
                    ), True
            if traced and record.ok and outcome.compression_ratio is not None:
                tracer.ratios.append(outcome.compression_ratio)
            records.append(record)
        index += 1
        # Start another cycle only if one more of average length fits.
        elapsed = time.perf_counter() - started
        if (elapsed + elapsed / index > seconds
                and index >= max(workload.sim_cycles or 1, 2 if tracer else 1)):
            for record, scale in zip(records, yardstick.op_scales()):
                record.scaled_s = record.host_s * scale
            return records


def cell_p50(records: list[OpRecord], field: str) -> float:
    """Median over cells of each cell's median; a failed op counts as +inf.

    Cells of one workload differ in cost by up to 6x, so a median pooled
    over all ops would sit between two clusters and move with their
    extremes; the median of per-cell medians does not.
    """
    cells: dict[str, list[float]] = {}
    for record in records:
        value = getattr(record, field) if record.ok else math.inf
        cells.setdefault(record.label, []).append(value)
    return median([median(values) for values in cells.values()])


def end_to_end(records, sim_cycles: int | None, setup_s: float) -> dict:
    """Host-clock metrics are scaled to the reference machine speed; the
    simulated ones cover the first ``sim_cycles`` cycles (all if None)."""
    ok = [record for record in records if record.ok]
    leading = [r for r in records if sim_cycles is None or r.cycle < sim_cycles]
    return {
        "op_s_p50": (cell_p50(records, "scaled_s"), "s"),
        "sim_s_p50": (cell_p50(leading, "sim_s"), "sim_s"),
        "sim_usd_p50": (cell_p50(leading, "usd"), "USD"),
        "ok_ratio": (len(ok) / len(records), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def report(args, records, metrics: dict) -> None:
    """Human-readable lines, then the JSON result as the last line."""
    cells: dict[str, list[OpRecord]] = {}
    for record in records:
        cells.setdefault(record.label, []).append(record)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} ops in {len(cells)} cells")
    print(f"{'cell':<32} {'ops':>4} {'failed':>6} {'host s p50':>11} "
          f"{'sim s':>10} {'USD':>10}")
    for label, group in cells.items():
        ok = [r for r in group if r.ok]
        print(f"{label:<32} {len(group):>4} {len(group) - len(ok):>6} "
              f"{median([r.host_s for r in ok]):>11.4f} "
              f"{median([r.sim_s for r in ok]):>10.3f} "
              f"{median([r.usd for r in ok]):>10.5f}")
    for record in (r for r in records if not r.ok):
        print(f"failed op: workload={args.workload} cell={record.label} "
              f"seed={args.seed}: {record.error}")
    failed = sum(1 for r in records if not r.ok)
    print(f"fail_ratio {failed / len(records):.6g} ratio")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": not any(r.wrong for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))


def finite(value: float) -> float:
    """JSON has no infinity; a metric whose median op failed reads as the
    largest float."""
    return value if math.isfinite(value) else sys.float_info.max


def fresh_set_up(args) -> float:
    """Scaled set-up time of a fresh process."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used to "
                             "time set-up in fresh processes)")
    args = parser.parse_args(argv)

    source = CHECKOUT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {source}; run the benchmark "
              "from the root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from workloads import make_workload

    watchdog = StallWatchdog()
    workload = make_workload(args.workload, args.seed, traced=bool(args.trace))
    setup_s = set_up(workload, watchdog)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()
    else:
        # Repeated set-ups run in fresh processes: repeated in this one,
        # they would find caches that the first set-up filled, and a
        # median over them would hide work moved into such caches.
        setup_times = [setup_s] + [fresh_set_up(args) for _ in range(SETUP_REPEATS - 1)]
    yardstick = Yardstick()
    records = closed_loop(workload, args.seconds, watchdog, yardstick, tracer)

    if tracer is None:
        print(f"host clock: yardstick median {median(yardstick.samples):.5f} s; "
              f"unscaled op_s_p50 "
              f"{cell_p50(records, 'host_s'):.6g} s; scaled set-ups "
              + " ".join(f"{value:.6g}" for value in setup_times) + " s")
        values = end_to_end(records, workload.sim_cycles, median(setup_times))
    else:
        overhead = (cell_p50([r for r in records if r.traced], "scaled_s")
                    / cell_p50([r for r in records if not r.traced], "scaled_s"))
        values = tracer.metrics(overhead)
        spans = CHECKOUT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.recorder.write(spans, PROCESS_START)
        print(f"spans: {len(tracer.recorder.spans)} written to {spans.relative_to(CHECKOUT)}")
    metrics = {name: {"value": finite(value), "unit": unit}
               for name, (value, unit) in values.items()}
    report(args, records, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
