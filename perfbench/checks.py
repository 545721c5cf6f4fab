"""Output checks and the Table 3 fidelity figures (run in the parent).

Every check returns a list of failure messages; an empty list passes.
They import repro from the checkout's ``src/`` (``run.py`` puts it on
``sys.path``) and only read the fixtures under ``tests/data``.
"""

from __future__ import annotations

import json
import math
import os
import random
from typing import Dict, List, Tuple

#: A Table 3 cell counts as out of band outside this simulated/paper range.
BAND = (0.8, 1.25)


def sample_key(sample: dict) -> str:
    """A job's identity inside an export sample or telemetry entry."""
    return json.dumps({key: sample.get(key) for key in
                       ("kind", "tool", "platform", "processors", "params", "seed", "noise")},
                      sort_keys=True)


def samples_by_job(export: dict) -> Dict[str, object]:
    return {sample_key(sample): sample["seconds"] for sample in export["samples"]}


def compare_samples(reference: Dict[str, object], export: dict, label: str) -> List[str]:
    """Failures where ``export`` disagrees with ``reference`` (bit for bit)."""
    current = samples_by_job(export)
    if current.keys() != reference.keys():
        return ["%s: job set differs (%d vs %d jobs)" % (label, len(current), len(reference))]
    wrong = [key for key, value in current.items() if value != reference[key]]
    return ["%s: %d sample(s) differ, e.g. %s" % (label, len(wrong), wrong[0])] if wrong else []


def golden(root: str) -> List[str]:
    """``tests/data/golden_spec.json`` must reproduce ``golden_report.json``."""
    from repro.core.scheduler import Scheduler
    from repro.core.spec import EvaluationSpec

    data_dir = os.path.join(root, "tests", "data")
    with open(os.path.join(data_dir, "golden_spec.json")) as handle:
        spec = EvaluationSpec.from_json(handle.read())
    with open(os.path.join(data_dir, "golden_report.json")) as handle:
        expected = json.load(handle)
    with Scheduler() as scheduler:
        actual = scheduler.run(spec).to_dict()
    actual.pop("telemetry", None)
    actual = json.loads(json.dumps(actual, sort_keys=True))
    return [] if actual == expected else ["golden spec no longer reproduces golden_report.json"]


def analytic_recheck(export: dict, seed: int, count: int) -> Tuple[int, List[str]]:
    """Re-run a seeded sample of analytic answers on the event kernel.

    Returns how many were checked and the failures; every re-run value
    must equal the analytic one bit for bit.
    """
    from repro.core.jobs import MeasurementJob, execute_job

    analytic = sorted(sample_key(entry) for entry in export["telemetry"]["jobs"]
                      if entry.get("engine") == "analytic" and not entry.get("cache_hit"))
    chosen = random.Random(seed).sample(analytic, min(count, len(analytic)))
    values = samples_by_job(export)
    failures = []
    for key in chosen:
        fields = json.loads(key)
        fields["params"] = sorted(fields["params"].items())
        fields["noise"] = fields["noise"] or 0.0
        value = execute_job(MeasurementJob.from_dict(fields))
        if value != values[key]:
            failures.append("analytic %s: %r, event kernel %r" % (key, values[key], value))
    if not analytic:
        failures.append("the sweep answered no job analytically")
    return len(chosen), failures


def table3_cells(export: dict = None) -> Dict[Tuple[str, str, int], float]:
    """Simulated Table 3 round trips (ms) for every printed cell.

    Cells the ``export`` holds (the TPL sweep's sendrecv samples) are
    read from it; the rest, always including the 0 KB row that specs
    reject, come from ``measure_sendrecv`` directly.
    """
    from repro.bench.paper_data import TABLE3_RTT_MS
    from repro.core.measurements import measure_sendrecv

    swept = {}
    if export is not None:
        for sample in export["samples"]:
            if sample["kind"] == "sendrecv" and sample["seed"] == export["spec"]["seeds"][0]:
                swept[(sample["tool"], sample["platform"], sample["params"]["nbytes"])] = \
                    sample["seconds"]
    cells = {}
    for (tool, platform), row in sorted(TABLE3_RTT_MS.items()):
        for kib in sorted(row):
            seconds = swept.get((tool, platform, kib * 1024))
            if seconds is None:
                seconds = measure_sendrecv(tool, platform, kib * 1024)
            cells[(tool, platform, kib)] = seconds * 1e3
    return cells


def table3_fidelity(cells: Dict[Tuple[str, str, int], float]) -> Tuple[float, int, list]:
    """(mean |ln(simulated/paper)|, cells outside BAND, per-cell rows)."""
    from repro.bench.paper_data import TABLE3_RTT_MS

    rows, logs, outside = [], [], 0
    for (tool, platform, kib), simulated in sorted(cells.items()):
        paper = TABLE3_RTT_MS[(tool, platform)][kib]
        ratio = simulated / paper
        logs.append(abs(math.log(ratio)))
        out = not BAND[0] <= ratio <= BAND[1]
        outside += out
        rows.append({"tool": tool, "platform": platform, "kib": kib, "paper_ms": paper,
                     "simulated_ms": simulated, "ratio": ratio, "out_of_band": out})
    return sum(logs) / len(logs), outside, rows
