"""The benchmark's own tests: metric names and units, failure counting, tracing."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads
from tracer import Tracer

import twosheet
from twosheet import causality, cli
from twosheet.schemas import OUTPUT_SCHEMAS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EW_DOC = twosheet.triple_to_dict(twosheet.electroweak_triple(0.511))


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] != 0 for m in wanted)


def test_without_sources_exits_nonzero_without_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-cold",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _warm(req):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(req.argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def streams(tmp_path_factory):
    base = tmp_path_factory.mktemp("streams")
    out = {}
    for name, length in (("cli-cold", 27), ("warm-distance", 20), ("warm-causal", 20)):
        reqs = workloads.build(name, 5, base / name, EW_DOC, length)
        run.add_lower_bounds(twosheet, reqs)
        out[name] = reqs
    return out


def _outcome(req):
    if req.command == "curve-oracle":
        a, b = req.expect["event_a"], req.expect["event_b"]
        ev = causality.Event
        return 0, causality.proper_time_curve_oracle(ev(a["t"], a["x"]), ev(b["t"], b["x"]))
    return _warm(req)


def test_seed_outputs_pass(streams):
    checker = checks.Checker(OUTPUT_SCHEMAS)
    for reqs in streams.values():
        for req in reqs:
            if req.kind.startswith(("distance.n5", "distance.n8")):
                continue  # slow solves; covered by the metric test
            code, out = _outcome(req)
            assert checker.check(req, code, out) is None, req.kind


def test_known_defects_are_probed_outside_the_timed_streams(streams, tmp_path):
    kinds = {r.kind for reqs in streams.values() for r in reqs}
    assert kinds & set(workloads.MALFORMED_KINDS)
    assert not kinds & set(workloads.KNOWN_DEFECTS)
    reqs = workloads.known_defect_requests(5, tmp_path)
    checker = checks.Checker(OUTPUT_SCHEMAS)
    found = run.known_defects(run.WarmExecutor(cli, causality), checker, reqs)
    assert list(found) == list(workloads.KNOWN_DEFECTS)
    for req in reqs:
        assert checker.check(req, 0, "NaN\n") is not None
        assert checker.check(req, 2, '{"error": "domain", "message": "m is NaN"}\n') is None


def _corrupt_json(out: str, key: str, value) -> str:
    doc = json.loads(out)
    doc[key] = value
    return json.dumps(doc, sort_keys=True) + "\n"


CORRUPTIONS = {
    "causal.pure": lambda out: _corrupt_json(out, "related", not json.loads(out)["related"]),
    "causal.mixed": lambda out: out.replace("}", ', "extra": 1}'),
    "cone.affine": lambda out: _corrupt_json(out, "worst_eigenvalue",
                                             json.loads(out)["worst_eigenvalue"] + 1e-6),
    "cone.box3": lambda out: _corrupt_json(out, "worst_eigenvalue",
                                           json.loads(out)["worst_eigenvalue"] * 0.999),
    "scan.30": lambda out: out.replace(",1\n", ",0\n", 1) if ",1\n" in out
    else out.replace(",0\n", ",1\n", 1),
    "distance.n2.pure": lambda out: _corrupt_json(out, "value", json.loads(out)["value"] * 1.01),
    "distance.n2.massless": lambda out: _corrupt_json(out, "value", 1.0),
    "distance.n3.mixed": lambda out: _corrupt_json(out, "value", json.loads(out)["value"] * 0.5),
    "validate.two-point": lambda out: _corrupt_json(out, "all_passed", False),
    "classify": lambda out: _corrupt_json(out, "class", "Causal" if "Harmonic" in out
                                          else "Harmonic"),
    "fluctuate": lambda out: out.replace("}", "", 1),
    "ew-dispersion": lambda out: _corrupt_json(out, "residual", 1.0),
    "bad.schema": lambda out: '{"value": 1}\n',
}


def test_corrupted_outputs_are_failures(streams):
    checker = checks.Checker(OUTPUT_SCHEMAS)
    seen = set()
    for req in [r for reqs in streams.values() for r in reqs]:
        if req.kind not in CORRUPTIONS or req.kind in seen:
            continue
        seen.add(req.kind)
        code, out = _outcome(req)
        assert checker.check(req, code, out) is None, req.kind
        assert checker.check(req, code, CORRUPTIONS[req.kind](out)) is not None, req.kind
        assert checker.check(req, 3, out) is not None
    assert seen == set(CORRUPTIONS)
    oracle = next(r for r in streams["warm-causal"] if r.command == "curve-oracle")
    code, value = _outcome(oracle)
    assert checker.check(oracle, code, value + 1e-6) is not None
    assert checker.check(req, 0, "NaN\n") is not None


def test_measure_counts_a_corrupted_output_as_failed(streams):
    reqs = [r for r in streams["warm-causal"] if r.kind == "causal.pure"]

    def corrupted(req, index):
        code, out = _warm(req)
        return run.Outcome(code, _corrupt_json(out, "related", not json.loads(out)["related"]),
                           1_000_000, 1_000_000)

    phase = run.measure(corrupted, reqs, 0.0025, checks.Checker(OUTPUT_SCHEMAS))
    assert phase.n == 3
    metrics, notes = run.end_to_end(phase, 1.0, cold=False)
    assert metrics["ok_fraction"][0] == 0.0
    assert notes["failed"] == notes["attempted"] == 3


def test_tracer_self_times_partition_request_time(streams, tmp_path):
    tracer = Tracer()
    tracer.install()
    executor = run.WarmExecutor(cli, causality)
    executor.tracer = tracer
    kinds = ("distance.n2.pure", "distance.n3.oracle", "cone.box3", "curve-oracle")
    reqs = [r for reqs in streams.values() for r in reqs if r.kind in kinds]
    for i, req in enumerate(reqs):
        executor(req, i)
    summary = tracer.summary()
    assert summary["requests"] == len(reqs)
    assert sum(summary["self_ns"].values()) == summary["root_ns"]
    assert summary["linalg"]["distance.svd"] > 0
    assert summary["linalg"]["cli.eigvalsh"] == 3 ** 4 * sum(r.kind == "cone.box3" for r in reqs)
    calls = summary["functions"]
    assert calls["cli.main"][0] == len(reqs) - sum(r.command == "curve-oracle" for r in reqs)
    assert calls["schemas.validate"][0] >= 1
    assert calls["distance.connes_distance_oracle"][0] >= 1
    tracer.save(tmp_path / "trace.npz")
    saved = np.load(tmp_path / "trace.npz")
    assert saved["start"].size == summary["spans"]
    assert set(np.unique(saved["request"])) == set(range(len(reqs)))


def test_import_times_subtract_nested_dependencies():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       500 |        600 |   numpy",
        "import time:        50 |         50 |     jsonschema._x",
        "import time:       250 |        300 |   jsonschema",
        "import time:        40 |        940 | twosheet",
        "import time:        20 |         20 | json",
        "import time:        60 |         60 | twosheet.cli",
    ])
    assert run.import_times(stderr) == {"numpy_ms": 0.6, "jsonschema_ms": 0.3,
                                        "twosheet_ms": 0.1}


def test_tail_has_ten_samples_beyond():
    walls = [i * 1_000_000 for i in range(1, 101)]
    value, percentile, beyond = run.tail(walls)
    assert (value, percentile, beyond) == (90.0, 90.0, 10)
    assert run.tail([5_000_000])[0] == 5.0
