"""twosheet benchmark: end-to-end and per-layer metrics of the JSON CLI.

Usage (from the repository root):

    python3 bench/run.py --workload {cli-cold,warm-distance,warm-causal,all}
                         --seed N --seconds S --trace {0,1}

Runs one workload against src/ of this checkout as a closed loop with one
client, checks every output (bench/checks.py) and prints one JSON object
as the last line of stdout.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it measures S/2 seconds untraced, then S/2 seconds
with the layers wrapped (bench/tracer.py), and reports the per-layer
metrics.  bench/README.md defines every metric.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("cli-cold", "warm-distance", "warm-causal")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 60
TAIL_BEYOND = 10
LAYERS = ("bench", "process", "cli", "cli.json", "schemas", "finite_triple", "distance",
          "causality", "dispersion", "fluctuation", "clifford")


# The host is a shared 2-core VM whose speed drifts by up to 1.8x within
# minutes, in CPU time as much as in wall time.  A fixed calibration loop
# runs before every request, and each request's times are multiplied by
# (PROBE_REF_NS / loop time) ** PROBE_EXPONENT, with the loop time taken as
# the median of the loops within PROBE_WINDOW requests.  Request time moves
# with less than the whole loop time: per request, the slope of log request
# time on log loop time was 0.30-0.44; over whole 30 s runs, cli-cold
# followed the loop fully and warm-causal with about 0.75.  The loop does
# not touch the program, so the scaling treats every commit alike.
PROBE_REF_NS = 1_200_000
PROBE_EXPONENT = 0.75
PROBE_WINDOW = 2
_PROBE_MATRIX = np.arange(64, dtype=float).reshape(8, 8) / 64 + np.eye(8)
_PROBE_DOC = {"k": [i / 7 for i in range(64)], "name": "probe", "nested": {"a": [1, 2, 3]}}


def probe_ns(svd=np.linalg.svd) -> int:
    """Wall time of a fixed loop of interpreted Python, small SVDs and JSON.

    The fastest of three runs: the first often runs with cold caches after
    a request, and any run can be interrupted.
    """
    best = None
    for _ in range(3):
        t0 = time.perf_counter_ns()
        x = 0
        for i in range(5000):
            x += i * i % 7
        for _ in range(20):
            svd(_PROBE_MATRIX)
        for _ in range(10):
            json.loads(json.dumps(_PROBE_DOC))
        elapsed = time.perf_counter_ns() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def slowdown(probe: float) -> float:
    """Factor by which a time measured next to this loop time exceeds the reference."""
    return (probe / PROBE_REF_NS) ** PROBE_EXPONENT


def slowdowns(probes: list) -> list:
    """slowdown() of each request, from the median loop time around it."""
    w = PROBE_WINDOW
    return [slowdown(statistics.median(probes[max(0, i - w):i + w + 1]))
            for i in range(len(probes))]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# --- running one request -----------------------------------------------------

@dataclass
class Outcome:
    code: object
    out: object
    wall_ns: int
    cpu_ns: int
    rss_kb: int = 0
    trace: dict | None = None


def spawn(argv: list, out_path: Path, err_path: Path, stdin_path: Path):
    """Run argv to completion; returns (exit code, wall ns, cpu ns, max RSS KiB, start ns)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, str(stdin_path), os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.monotonic_ns()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], child_env(),
                         file_actions=actions)
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [], CHILD_TIMEOUT_S)
        if not ready:
            signal.pidfd_send_signal(fd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(fd)
    wall = time.monotonic_ns() - t0
    cpu = int((usage.ru_utime + usage.ru_stime) * 1e9)
    return os.waitstatus_to_exitcode(status), wall, cpu, usage.ru_maxrss, t0


class ColdExecutor:
    """Each request is a fresh `python -m twosheet.cli` process."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.stdin = run_dir / "stdin"
        self.stdin.write_text("")
        self.traced = False

    def __call__(self, req, index: int) -> Outcome:
        out_path, err_path = self.run_dir / "stdout", self.run_dir / "stderr"
        if self.traced:
            trace_path = self.run_dir / "child-trace.json"
            argv = ["-X", "importtime", str(BENCH / "trace_child.py"), str(trace_path),
                    *req.argv]
        else:
            argv = ["-m", "twosheet.cli", *req.argv]
        code, wall, cpu, rss, t0 = spawn(argv, out_path, err_path, self.stdin)
        out = out_path.read_text(encoding="utf-8", errors="replace")
        trace = None
        if self.traced:
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
            trace["spawned_ns"] = t0
            trace["wall_ns"] = wall
            trace["imports"] = import_times(err_path.read_text(encoding="utf-8"))
            trace_path.unlink()
        return Outcome(code, out, wall, cpu, rss, trace)


class WarmExecutor:
    """Each request is one `cli.main(argv)` call in this interpreter."""

    def __init__(self, cli, causality):
        self.cli = cli
        self.causality = causality
        self.tracer = None

    def _call(self, req):
        if req.command == "curve-oracle":
            a, b = req.expect["event_a"], req.expect["event_b"]
            ev = self.causality.Event
            return 0, self.causality.proper_time_curve_oracle(ev(a["t"], a["x"]),
                                                              ev(b["t"], b["x"]))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(req.argv)
        return code, buf.getvalue()

    def __call__(self, req, index: int) -> Outcome:
        tracer = self.tracer
        t0, c0 = time.perf_counter_ns(), time.process_time_ns()
        if tracer:
            tracer.begin(index)
        try:
            code, out = self._call(req)
        except SystemExit as exc:
            code, out = exc.code, ""
        except Exception as exc:  # a crash is an outcome to check, not a benchmark error
            code, out = f"raised {type(exc).__name__}", str(exc)
        finally:
            if tracer:
                tracer.finish()
        return Outcome(code, out, time.perf_counter_ns() - t0, time.process_time_ns() - c0)


# --- import timing -----------------------------------------------------------

def import_times(stderr: str) -> dict:
    """numpy, jsonschema and twosheet-own import ms from `-X importtime` output."""
    pending = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        parts = line[len("import time:"):].split("|")
        raw = parts[2]
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        node = {"name": raw.strip(), "cum": int(parts[1]), "children": pending.pop(depth + 1, [])}
        pending.setdefault(depth, []).append(node)

    def topmost(nodes, pred):
        found = []
        for node in nodes:
            if pred(node["name"]):
                found.append(node)
            else:
                found.extend(topmost(node["children"], pred))
        return found

    roots = pending.get(0, [])
    deps = ("numpy", "jsonschema")
    result = {f"{d}_ms": sum(n["cum"] for n in topmost(roots, lambda s, d=d: s == d)) / 1e3
              for d in deps}
    own = 0
    for node in topmost(roots, lambda s: s == "twosheet" or s.startswith("twosheet.")):
        own += node["cum"] - sum(n["cum"] for n in topmost(node["children"],
                                                             lambda s: s in deps))
    result["twosheet_ms"] = own / 1e3
    return result


PROBE = ("import time, sys; t = time.monotonic_ns(); import twosheet.cli; "
         "sys.stdout.write(repr(t) + ' ' + twosheet.cli.__file__)")


def import_probe(run_dir: Path, traced: bool) -> dict:
    """Import twosheet.cli in a fresh interpreter; checks the import path."""
    out_path, err_path = run_dir / "probe.out", run_dir / "probe.err"
    argv = (["-X", "importtime"] if traced else []) + ["-c", PROBE]
    stdin = run_dir / "stdin"
    stdin.write_text("")
    code, wall, _, _, t0 = spawn(argv, out_path, err_path, stdin)
    if code != 0:
        raise SystemExit(f"import probe failed: {err_path.read_text()[-2000:]}")
    started, path = out_path.read_text().split(" ", 1)
    if not Path(path).resolve().is_relative_to(SRC):
        raise SystemExit(f"twosheet imported from {path}, not from {SRC}")
    probe = {"wall_ms": wall / 1e6, "interpreter_ms": (int(started) - t0) / 1e6}
    if traced:
        probe.update(import_times(err_path.read_text()))
    return probe


# --- environment -------------------------------------------------------------

def environment(seed: int, twosheet_file: str) -> dict:
    """Commit, seed, versions, cores, BLAS threads and the import path in use."""

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit or None,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jsonschema": metadata.version("jsonschema"),
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "import_path": str(Path(twosheet_file).parent),
        "machine": platform.machine(),
    }


# --- measurement -------------------------------------------------------------

class SetupClock:
    """Set-up time at the reference speed.

    Each step is scaled like a request, by the median of the calibration
    loops just before it, after it and before the step ahead of it.  Loops
    around the whole set-up track the host's speed too loosely: cli-cold
    set-up time then spread by 0.2-0.3 of its median between runs, and by
    0.05 when scaled step by step.
    """

    def __init__(self):
        self.elapsed = []
        self.probes = [probe_ns()]

    @contextlib.contextmanager
    def step(self):
        t0 = time.perf_counter_ns()
        yield
        self.elapsed.append(time.perf_counter_ns() - t0)
        self.probes.append(probe_ns())

    def seconds(self) -> float:
        return sum(el / slowdown(statistics.median(self.probes[max(0, i - 1):i + 2]))
                   for i, el in enumerate(self.elapsed)) / 1e9


@dataclass
class Phase:
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    rss_kb: int = 0
    output_bytes: int = 0
    failures: list = field(default_factory=list)
    traces: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.walls)

    @property
    def busy_s(self) -> float:
        return sum(self.walls) / 1e9

    def scaled(self) -> tuple:
        """Request walls and total CPU in ns at the reference speed, and the
        median slowdown."""
        speed = slowdowns(self.probes)
        walls = [w / s for w, s in zip(self.walls, speed)]
        cpu = sum(c / s for c, s in zip(self.cpus, speed))
        return walls, cpu, statistics.median(speed)


def measure(execute, requests, seconds: float, checker) -> Phase:
    """Closed loop, one client: the next request starts when the last one ends.

    The loop stops once the requests themselves have taken `seconds`; checks
    run between requests and are not timed.
    """
    phase = Phase()
    index = 0
    while phase.busy_s < seconds:
        req = requests[index % len(requests)]
        phase.probes.append(probe_ns())
        res = execute(req, index)
        phase.walls.append(res.wall_ns)
        phase.cpus.append(res.cpu_ns)
        phase.rss_kb = max(phase.rss_kb, res.rss_kb)
        if isinstance(res.out, str):
            phase.output_bytes += len(res.out.encode("utf-8"))
        if res.trace is not None:
            phase.traces.append(res.trace)
        reason = checker.check(req, res.code, res.out)
        if reason is not None:
            phase.failures.append({"index": index, "kind": req.kind, "reason": reason})
        index += 1
    return phase


def tail(walls: list) -> tuple:
    """The highest percentile with TAIL_BEYOND samples beyond it, in ms."""
    ordered = sorted(walls)
    n = len(ordered)
    rank = max(0, n - TAIL_BEYOND - 1)
    return ordered[rank] / 1e6, 100.0 * (rank + 1) / n, n - rank - 1


def end_to_end(phase: Phase, setup_s: float, cold: bool) -> tuple:
    walls, cpu, median_slowdown = phase.scaled()
    tail_ms, percentile, beyond = tail(walls)
    rss_kb = phase.rss_kb if cold else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (phase.n / (sum(walls) / 1e9), "1/s"),
        "request_p50_ms": (statistics.median(walls) / 1e6, "ms"),
        "request_tail_ms": (tail_ms, "ms"),
        "cpu_ms_per_request": (cpu / phase.n / 1e6, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "ok_fraction": (1.0 - len(phase.failures) / phase.n, "fraction"),
    }
    notes = {"tail_percentile": percentile, "tail_samples_beyond": beyond,
             "samples": phase.n, "failed": len(phase.failures), "attempted": phase.n,
             "failed_fraction": len(phase.failures) / phase.n,
             "median_slowdown": median_slowdown,
             "unscaled_requests_per_s": phase.n / phase.busy_s,
             "unscaled_request_p50_ms": statistics.median(phase.walls) / 1e6,
             "unscaled_cpu_ms_per_request": sum(phase.cpus) / phase.n / 1e6}
    return metrics, notes


def _merge_cold_traces(traces: list) -> dict:
    """Sum the summaries of traced children; the time outside cli.main is `process`."""
    total = {"requests": 0, "root_ns": 0, "self_ns": {}, "incl_ns": {}, "functions": {},
             "linalg": {}, "spans": 0}
    for tr in traces:
        s = tr["summary"]
        total["requests"] += 1
        total["root_ns"] += tr["wall_ns"]
        outside = tr["wall_ns"] - s["root_ns"]
        for key in ("self_ns", "incl_ns"):
            for layer, ns in s[key].items():
                total[key][layer] = total[key].get(layer, 0) + ns
            total[key]["process"] = total[key].get("process", 0) + outside
        for name, (calls, ns) in s["functions"].items():
            c, t = total["functions"].get(name, (0, 0))
            total["functions"][name] = (c + calls, t + ns)
        for key, count in s["linalg"].items():
            total["linalg"][key] = total["linalg"].get(key, 0) + count
        total["spans"] += s["spans"]
    return total


def per_layer(summary: dict, n: int, imports: dict, output_bytes: int, overhead: float,
              scale: float) -> dict:
    """Layer metrics; times are multiplied by scale, the reference over the
    measured speed of the traced phase."""
    funcs, linalg = summary["functions"], summary["linalg"]

    def calls(*names):
        return sum(funcs.get(f, (0, 0))[0] for f in names)

    def ms(*names):
        return sum(funcs.get(f, (0, 0))[1] for f in names) / 1e6 / n

    solves = calls("distance.connes_distance")
    cone = ("causality.two_sheet_cone_matrix", "causality.affine_cone_matrix",
            "causality.is_causal_affine_function", "causality.is_causal_element_two_sheet")
    m = {f"import.{k}": (imports.get(k, 0.0), "ms") for k in
         ("interpreter_ms", "numpy_ms", "jsonschema_ms", "twosheet_ms")}
    m.update({
        "schemas.validate_calls": (calls("schemas.validate") / n, "calls/req"),
        "schemas.validate_ms": (ms("schemas.validate"), "ms/req"),
        "cli.main_calls": (calls("cli.main"), "count"),
        "cli.json_load_ms": (ms("cli.json.load", "cli.json.loads"), "ms/req"),
        "cli.json_dump_ms": (ms("cli.json.dumps"), "ms/req"),
        "cli.output_bytes": (output_bytes / n, "B/req"),
        "cli.eigvalsh_calls": (linalg.get("cli.eigvalsh", 0) / n, "calls/req"),
        "finite_triple.triple_from_dict_ms": (ms("finite_triple.triple_from_dict"), "ms/req"),
        "finite_triple.validate_axioms_ms": (ms("finite_triple.validate_axioms"), "ms/req"),
        "distance.connes_distance_calls": (solves / n, "calls/req"),
        "distance.connes_distance_ms": (ms("distance.connes_distance"), "ms/req"),
        "distance.svd_calls": (linalg.get("distance.svd", 0) / n, "calls/req"),
        "distance.svd_calls_per_solve": (linalg.get("distance.svd", 0) / solves if solves
                                         else 0.0, "calls/solve"),
        "distance.oracle_calls": (calls("distance.connes_distance_oracle") / n, "calls/req"),
        "distance.oracle_ms": (ms("distance.connes_distance_oracle"), "ms/req"),
        "causality.related_pure_calls": (calls("causality.causally_related_pure") / n,
                                         "calls/req"),
        "causality.related_ms": (ms("causality.causally_related_pure",
                                    "causality.causally_related_mixed"), "ms/req"),
        "causality.cone_matrix_calls": (calls(*cone[:2]) / n, "calls/req"),
        "causality.eigvalsh_calls": (linalg.get("causality.eigvalsh", 0) / n, "calls/req"),
        "causality.cone_ms": (ms(*cone), "ms/req"),
        "causality.curve_oracle_ms": (ms("causality.proper_time_curve_oracle"), "ms/req"),
        "dispersion.classify_ms": (ms("dispersion.classify_spinor"), "ms/req"),
        "fluctuation.ms": (summary["incl_ns"].get("fluctuation", 0) / 1e6 / n, "ms/req"),
        "clifford.ms": (summary["incl_ns"].get("clifford", 0) / 1e6 / n, "ms/req"),
    })
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (summary["self_ns"].get(layer, 0) / 1e6 / n, "ms/req")
    m["trace.request_ms"] = (summary["root_ns"] / 1e6 / n, "ms/req")
    m = {k: (v * scale if u.startswith("ms") else v, u) for k, (v, u) in m.items()}
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


# --- one workload ------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import checks
    import workloads

    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        t_import = time.perf_counter()
        import twosheet
        from twosheet import causality, cli, schemas
        import_s = time.perf_counter() - t_import
        if not Path(twosheet.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"twosheet imported from {twosheet.__file__}, not {SRC}")
        env = environment(seed, twosheet.__file__)
        env["in_process_import_s"] = import_s
        checker = checks.Checker(schemas.OUTPUT_SCHEMAS)
        cold = name == "cli-cold"
        execute = ColdExecutor(run_dir) if cold else WarmExecutor(cli, causality)
        ew_doc = twosheet.triple_to_dict(twosheet.electroweak_triple(0.511))

        setup_times, import_probes = [], []
        for rep in range(SETUP_REPEATS):
            clock = SetupClock()
            with clock.step():
                import_probes.append(import_probe(run_dir, trace))
            with clock.step():
                requests = workloads.build(name, seed, run_dir / f"rep{rep}", ew_doc)
                add_lower_bounds(twosheet, requests)
            for req in workloads.warmup_requests(run_dir / f"warmup{rep}", ew_doc):
                if req.argv is None and cold:
                    continue  # a library call; cli-cold only runs the CLI
                with clock.step():
                    execute(req, -1)
            setup_times.append(clock.seconds())
        setup_s = statistics.median(setup_times)
        defects = known_defects(execute, checker, workloads.known_defect_requests(
            seed, run_dir / "defects")) if cold else {}

        if not trace:
            phase = measure(execute, requests, seconds, checker)
            metrics, notes = end_to_end(phase, setup_s, cold)
            failures = phase.failures
        else:
            plain = measure(execute, requests, seconds / 2, checker)
            from tracer import Tracer
            if cold:
                execute.traced = True
            else:
                execute.tracer = Tracer()
                execute.tracer.install()
            traced = measure(execute, requests, seconds / 2, checker)
            overhead = sum(plain.scaled()[0]) / plain.n / (sum(traced.scaled()[0]) / traced.n)
            if cold:
                summary = _merge_cold_traces(traced.traces)
                imports = _median_imports([
                    {**t["imports"], "interpreter_ms": (t["started_ns"] - t["spawned_ns"]) / 1e6}
                    for t in traced.traces])
                save_cold_trace(name, traced.traces)
            else:
                summary = execute.tracer.summary()
                imports = _median_imports(import_probes)
                execute.tracer.save(WORK / f"trace-{name}.npz")
            metrics = per_layer(summary, traced.n, imports, traced.output_bytes, overhead,
                                1.0 / traced.scaled()[2])
            failures = plain.failures + traced.failures
            notes = {"attempted": plain.n + traced.n, "failed": len(failures),
                     "untraced_requests": plain.n, "traced_requests": traced.n,
                     "spans": summary["spans"]}
        report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "environment": env, "setup_times_s": setup_times, "notes": notes,
                  "failures": failures[:50], "known_defects": defects,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        results = WORK / "results"
        results.mkdir(exist_ok=True)
        (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(report, indent=1, default=str))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    for kind, reason in defects.items():
        print(f"known defect {kind}: " + (reason or "fixed, the input now gets its JSON error"))
    for f in failures[:20]:
        print(f"FAILED: request {f['index']} ({f['kind']}): {f['reason']}")
    print(f"{name} seed={seed} trace={int(trace)}: " +
          ", ".join(f"{k}={v}" for k, v in notes.items()))
    for key, (value, unit) in metrics.items():
        print(f"  {key:40s} {value:14.6g} {unit}")
    if not trace:
        print(f"  {'failed_fraction':40s} {notes['failed_fraction']:14.6g} "
              f"({notes['failed']}/{notes['attempted']})")
    print(json.dumps({"correct": not failures, "attempted": notes["attempted"],
                      "failed": notes["failed"],
                      "metrics": report["metrics"]}))
    return 0


def known_defects(execute, checker, requests) -> dict:
    """Untimed probe of the inputs in workloads.KNOWN_DEFECTS.

    Maps each kind to the check's reason while the defect is there, or to
    None once the CLI answers with its documented error.  The probe counts
    neither as attempted nor as failed: a timed stream must not fail.
    """
    found = {}
    for req in requests:
        res = execute(req, -1)
        found[req.kind] = checker.check(req, res.code, res.out)
    return found


def _median_imports(samples: list) -> dict:
    keys = ("interpreter_ms", "numpy_ms", "jsonschema_ms", "twosheet_ms")
    return {k: statistics.median(s.get(k, 0.0) for s in samples) for k in keys if samples}


def add_lower_bounds(twosheet, requests):
    """Grid-oracle lower bounds for finite 3-point distances (set-up work)."""
    import numpy as np
    for req in requests:
        exp = req.expect
        if req.command != "distance" or "d_f" not in exp or exp["inf"] \
                or exp["d_f"].shape[0] != 3:
            continue
        d_f = exp["d_f"]
        gens = tuple(np.diag(row).astype(complex) for row in np.eye(3))
        # The oracle gauge-fixes the last generator; at most 101 points per axis.
        nus = [np.linalg.svd(d_f @ g - g @ d_f, compute_uv=False)[0] for g in gens[:2]]
        step = 2.1 / min(nus) / 100
        triple = twosheet.FiniteTriple(dim_H=3, algebra_generators=gens, D_F=d_f)
        exp["lower_bound"] = twosheet.connes_distance_oracle(
            triple, twosheet.AlgebraState(exp["a"]), twosheet.AlgebraState(exp["b"]),
            twosheet.GridSpec(step=step))


def save_cold_trace(name: str, traces: list):
    """All children's spans in one file, request ids renumbered in run order."""
    doc = {"requests": []}
    for i, tr in enumerate(traces):
        doc["requests"].append({"request": i, "wall_ns": tr["wall_ns"],
                                "interpreter_ns": tr["started_ns"] - tr["spawned_ns"],
                                "imports": tr["imports"], "layers": tr["layers"],
                                "functions": tr["functions"], "spans": tr["spans"],
                                "function_layer": tr["function_layer"]})
    (WORK / f"trace-{name}.json").write_text(json.dumps(doc))


# --- all workloads -----------------------------------------------------------

def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own interpreter, then one table of every metric."""
    rows, combined, ok, attempted, failed = {}, {}, True, 0, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows[name] = result
        ok &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, val in result["metrics"].items():
            combined[f"{name}.{key}"] = val
    keys = list(next(iter(rows.values()))["metrics"])
    print(f"\n{'metric':40s}" + "".join(f"{n:>16s}" for n in rows) + "  unit")
    for key in keys:
        unit = rows[WORKLOAD_NAMES[0]]["metrics"][key]["unit"]
        print(f"{key:40s}" + "".join(f"{r['metrics'][key]['value']:16.6g}"
                                     for r in rows.values()) + f"  {unit}")
    if not trace:
        print(f"{'failed_fraction (failed/attempted)':40s}" +
              "".join(f"{r['failed']:>9d}/{r['attempted']:<6d}" for r in rows.values()))
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "twosheet" / "cli.py").is_file():
        print(f"error: no twosheet sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
