"""The benchmark's three closed-loop workloads.

Each workload builds its inputs from the run's seed, then hands the
runner one *cycle* of cells at a time.  A cell is one op.  The runner
calls, per op:

* ``prepare(cell)``: off the op clock; a fresh simulated region with the
  op's input staged in object storage where the workload stages it
  before the clock;
* ``execute(cell, cloud)``: on the op clock; returns the simulated
  seconds and dollars of the op (dollars read after the provisioned
  substrates are terminated and billing is finalized);
* ``check(cell, cloud, outcome)``: off the op clock; an error message
  when the op's output is wrong.

The checks are stronger than the pipeline's own: ``methcomp_verify``
compares record counts only, whereas these compare the output with the
input record for record and check key order.
"""

from __future__ import annotations

import dataclasses
import operator
import typing as t

from repro.cas import output_digest
from repro.cloud import Cloud
from repro.core import (
    PURE_SERVERLESS,
    VERIFY_STAGE,
    VM_SUPPORTED,
    ExperimentConfig,
    run_pipeline,
)
from repro.core.experiment import dataset_payload
from repro.executor.executor import FunctionExecutor
from repro.experiments import sweeps
from repro.methcomp.bed import bed_sort_key
from repro.shuffle.streaming import StreamConfig
from repro.sim import Simulator

#: Logical-to-real byte divisor: 3.5 GB logical is ~3.4 MB of real records.
LOGICAL_SCALE = 1024.0
#: Logical size of the warm-up inputs (tens of kB real).
WARM_UP_GB = 0.05
#: Where ``run_pipeline`` stages its input; the shuffle ops use the same.
BUCKET = "pipeline"
INPUT_KEY = "input/methylome.bed"
SUBSTRATES = ("objectstore", "cache", "relay", "sharded-relay")


@dataclasses.dataclass
class Outcome:
    """What one op returns on the op clock."""

    sim_s: float
    usd: float
    result: t.Any
    compression_ratio: float | None = None


def _lines(payload: bytes) -> list[bytes]:
    if payload and not payload.endswith(b"\n"):
        raise ValueError("payload does not end with a newline")
    return payload.split(b"\n")[:-1]


def sorted_copy_error(output: bytes, reference: list[bytes]) -> str | None:
    """Why ``output`` is not the records of ``reference`` in key order.

    ``reference`` is the input's lines sorted as bytes, so the record
    multisets compare without assuming an order among equal keys.
    """
    try:
        lines = _lines(output)
    except ValueError as exc:
        return str(exc)
    keys = [bed_sort_key(line) for line in lines]
    if any(map(operator.gt, keys, keys[1:])):
        first = next(i for i in range(1, len(keys)) if keys[i] < keys[i - 1])
        return f"record {first} of {len(keys)} is out of key order"
    if sorted(lines) != reference:
        return (f"output holds {len(lines)} records that are not the "
                f"input's {len(reference)}")
    return None


class Table1:
    """The paper's Table 1: both pipeline variants on the same dataset.

    Ops alternate purely-serverless and vm-supported; the two ops of a
    cycle share the cycle's seed, so each dataset serves two ops.  The
    dataset is generated on the op clock, as ``run_pipeline`` does.
    """

    #: The simulated medians cover the first cycles only, and every run
    #: completes them, so they depend on the seed alone and not on how
    #: many cycles the host fits into the run.
    sim_cycles = 4

    def __init__(self, seed: int, repeat_pairs: bool = False, size_gb: float = 3.5):
        self.name = "table1"
        self.seed = seed
        # With repeat_pairs, cycles 2k and 2k+1 run the same seeds, so a
        # traced cycle can be compared with the untraced one before it.
        self.repeat_pairs = repeat_pairs
        self.size_gb = size_gb

    def build_inputs(self) -> None:
        """Nothing to build off the clock: each op generates its dataset."""

    def small(self) -> "Table1":
        """A twin on a warm-up-sized dataset."""
        return Table1(self.seed, size_gb=WARM_UP_GB)

    def cycle(self, index: int) -> list[tuple[str, int]]:
        pair = index // 2 if self.repeat_pairs else index
        seed = self.seed * 1000 + pair
        return [(PURE_SERVERLESS, seed), (VM_SUPPORTED, seed)]

    @staticmethod
    def label(cell: tuple[str, int]) -> str:
        return cell[0]

    def _config(self, cell: tuple[str, int]) -> ExperimentConfig:
        return ExperimentConfig(
            seed=cell[1], logical_scale=LOGICAL_SCALE, size_gb=self.size_gb
        )

    def prepare(self, cell: tuple[str, int]) -> Cloud:
        config = self._config(cell)
        return Cloud(Simulator(seed=config.seed), config.make_profile())

    def execute(self, cell: tuple[str, int], cloud: Cloud) -> Outcome:
        run = run_pipeline(self._config(cell), cell[0], verify=True, cloud=cloud)
        return Outcome(run.latency_s, run.cost_usd, run, run.compression_ratio)

    def check(self, cell, cloud: Cloud, outcome: Outcome) -> str | None:
        """The restored BED holds the input's records, in key order."""

        def list_restored() -> t.Generator:
            return (yield cloud.store.list_keys(BUCKET, f"{VERIFY_STAGE}/"))

        keys = cloud.sim.run_process(list_restored())
        restored = b"".join(cloud.store.peek(BUCKET, key) for key in keys)
        reference = sorted(_lines(cloud.store.peek(BUCKET, INPUT_KEY)))
        return sorted_copy_error(restored, reference)


class ShuffleWorkload:
    """One sort per op on a fresh region, cycling substrates × workers.

    The dataset is generated once per seed and PUT into each op's region
    before the op clock starts.  Every substrate must produce the same
    output bytes as the others at the same worker count.
    """

    #: Every cycle repeats the same cells, so the simulated medians cover
    #: all of them.
    sim_cycles = None

    def __init__(
        self,
        name: str,
        seed: int,
        workers: tuple[int, ...],
        key_distribution: str,
        stream: StreamConfig | None,
        size_gb: float = 3.5,
    ):
        self.name = name
        self.seed = seed
        self.workers = workers
        self.stream = stream
        self.config = ExperimentConfig(
            seed=seed,
            logical_scale=LOGICAL_SCALE,
            size_gb=size_gb,
            key_distribution=key_distribution,
        )
        self.payload = b""
        self.reference: list[bytes] = []
        self._verified: set[str] = set()
        self._digest_by_workers: dict[int, str] = {}

    def build_inputs(self) -> None:
        """Generate the dataset."""
        self.payload = dataset_payload(self.config)
        self.reference = sorted(_lines(self.payload))

    def small(self) -> "ShuffleWorkload":
        """A twin on a warm-up-sized dataset, at the smallest worker count."""
        return ShuffleWorkload(
            self.name, self.seed, self.workers[:1],
            self.config.key_distribution, self.stream, size_gb=WARM_UP_GB,
        )

    def cycle(self, _index: int) -> list[tuple[str, int]]:
        return [(substrate, w) for w in self.workers for substrate in SUBSTRATES]

    @staticmethod
    def label(cell: tuple[str, int]) -> str:
        return f"{cell[0]}/W={cell[1]}"

    def prepare(self, _cell) -> Cloud:
        cloud = Cloud(Simulator(seed=self.config.seed), self.config.make_profile())
        cloud.store.ensure_bucket(BUCKET)

        def upload() -> t.Generator:
            yield cloud.store.put(BUCKET, INPUT_KEY, self.payload)

        cloud.sim.run_process(upload())
        return cloud

    def execute(self, cell: tuple[str, int], cloud: Cloud) -> Outcome:
        substrate, workers = cell
        marker = cloud.meter.snapshot()
        executor = FunctionExecutor(
            cloud, runtime_memory_mb=self.config.function_memory_mb, bucket=BUCKET
        )
        sorter, provisioned = sweeps._make_exchange_operator(
            cloud, self.config, substrate, executor, self.stream
        )

        def sort_process() -> t.Generator:
            return (yield sorter.sort(BUCKET, INPUT_KEY, workers=workers))

        result = cloud.sim.run_process(sort_process())
        if provisioned is not None:
            provisioned.terminate()
        cloud.finalize()
        return Outcome(result.duration_s, cloud.meter.since(marker).total_usd, result)

    def check(self, cell, cloud: Cloud, outcome: Outcome) -> str | None:
        """Key order, record conservation, and byte parity across substrates."""
        digest = output_digest(cloud, outcome.result, full=True)
        if digest not in self._verified:
            output = b"".join(cloud.store.peek(run.bucket, run.key)
                              for run in outcome.result.runs)
            error = sorted_copy_error(output, self.reference)
            if error is not None:
                return error
            self._verified.add(digest)
        expected = self._digest_by_workers.setdefault(cell[1], digest)
        if digest != expected:
            return f"output bytes differ from another substrate's at W={cell[1]}"
        return None


def make_workload(name: str, seed: int, traced: bool):
    """The named workload (one of ``run.WORKLOADS``)."""
    if name == "table1":
        return Table1(seed, repeat_pairs=traced)
    if name == "shuffle-scaling":
        return ShuffleWorkload(name, seed, (8, 64), "zipf", None)
    if name == "shuffle-streaming":
        return ShuffleWorkload(name, seed, (8, 32), "uniform", StreamConfig())
    raise ValueError(f"unknown workload {name!r}")
