"""The benchmark's layer tracer patches engine callables by name.

``perfbench/tracer.py`` wraps public methods of the stores, the handlers,
the parse and kernel functions and the scheduler pump.  A rename or
deletion of any of them under ``src/`` makes the traced benchmark run
crash; this test makes it fail here instead.
"""

import importlib.util
from pathlib import Path

from microreduce import data, kernels, pipeline, sim, storage, workflow
from microreduce.data import GenSpec, generate_dataset
from microreduce.scenarios import preset
from microreduce.storage import ObjectStore

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

PATCHED_OWNERS = (
    storage.MessageQueue, storage.ObjectStore, storage.KvStore,
    workflow, data, pipeline, kernels, sim.Simulator,
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_runs_a_job_and_restores_every_callable():
    tracer_mod = load_tracer()
    raw = ObjectStore()
    ledger = generate_dataset(GenSpec(files=1, rows_per_file=300, seed=9), raw)
    before = {owner: dict(vars(owner)) for owner in PATCHED_OWNERS}
    original_scan = kernels.scan_rows

    tracer = tracer_mod.Tracer()
    with tracer.installed():
        assert kernels.scan_rows is not original_scan
        result = workflow.run_job(preset(1, seed=9), raw)

    assert {owner: dict(vars(owner)) for owner in PATCHED_OWNERS} == before
    assert result.status == "completed", result.reason
    assert result.ranking.entries == ledger.expected_ranking(10).entries
    metrics = tracer.layer_metrics()
    assert metrics["sim.wakeups"] > 0
    assert tracer.counts["kernels.scan_rows"] == 1
    assert tracer.counts["kernels.group_rows"] > 0


def test_kernel_backend_name_is_exported():
    assert kernels.BACKEND == "python"
