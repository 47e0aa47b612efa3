"""specgraph benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository. Each operation of the workload runs
in a fresh interpreter (bench/child.py), one at a time: a closed loop with
one client, so every operation starts with cold caches as a CLI user's does.
A warm-up pass of import-only children is run and discarded: it fills the
page cache and writes the bytecode caches, the only state a cold process
inherits. Then passes over the operations repeat until S seconds have been
measured, at least two. With --trace 0 every pass is untraced and the
end-to-end metrics are printed; with --trace 1 untraced and traced passes
alternate and the per-layer metrics are printed, with the tracing overhead.

Times are given in reference seconds. The speed of a shared machine drifts
by up to 1.7x within a minute, and the program's times drift with it. A
thread of this process (SpeedMeter) times a fixed pure-Python loop of about
a millisecond, pinned to each CPU in turn, 66 times a second in all; each
operation's times are scaled by REF_LOOP_S over the median loop time on the
CPU the child was running on during that operation. That keeps the drift
out of the comparison between two commits. Raw seconds and scale factors
are kept in the details.

Every report is checked against expectations in bench/workloads.py; a
failed check, a wrong exit code, a crash or a timeout fails the operation.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Details (per-operation times, report
digests, environment, source size) go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import SETUP_PROBE, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OP_TIMEOUT_S = 60.0
MIN_PASSES = 2
SETUP_SAMPLES = 3  # import-only children top up each pass to this many set-ups

# The speed meter's loop: fixed pure-Python work of about a millisecond.
# REF_LOOP_S is about its median time on the machine the baseline in
# bench/README.md was taken on (2 vCPUs of a shared 2.1 GHz Xeon).
REF_LOOP_S = 0.0008
METER_PERIOD_S = 0.03
METER_MIN_SAMPLES = 3


def _meter_loop() -> int:
    x = 0
    for i in range(10000):
        x = (x * 31 + i) % 1000003
    return x


END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "graph_core.beta_s": "s", "graph_core.beta_subsets": "count",
    "graph_core.chi_s": "s", "graph_core.iota_s": "s", "graph_core.omega_s": "s",
    "graph_core.omega_calls": "count", "graph_core.metric_s": "s",
    "graph_core.cap_refusals": "ratio", "graph_core.iso_s": "s", "graph_core.aut_s": "s",
    "finite_field.construct_s": "s", "finite_field.elem_ops": "count",
    "characters.busy_s": "s", "characters.sums": "count", "characters.eisenstein_s": "s",
    "graph_families.build_s": "s", "graph_families.builds": "count",
    "graph_families.edges_built": "count",
    "spectra.eig_s": "s", "spectra.eig_calls": "count", "spectra.eig_n3": "count",
    "spectra.matrix_s": "s", "spectra.closed_form_s": "s", "spectra.first_eig_s": "s",
    "bounds.audit_s": "s", "bounds.records": "count", "bounds.skip_ratio": "ratio",
    "cli.emit_s": "s", "cli.report_bytes": "bytes", "cli.self_s": "s",
    "trace.overhead_s": "s", "error_rate": "ratio",
}


class Sample:
    """One operation run: its timings, memory, report digest and failures.
    `setup` and `work` are raw seconds; `scale` turns them into reference
    seconds."""

    def __init__(self, op):
        self.op = op.name
        self.kind = op.kind
        self.setup = self.work = self.rss_mb = 0.0
        self.scale = 1.0
        self.digest = None
        self.report_bytes = 0
        self.layers = None
        self.env = None
        self.errors: list[str] = []


def child_env(workdir: str) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    threads = str(len(os.sched_getaffinity(0)))
    env.update(PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               TMPDIR=str(ROOT / workdir))
    return env


class SpeedMeter:
    """Times _meter_loop on a background thread for as long as it is open,
    pinned to each CPU in turn. Each sample notes whether the running child
    was last seen on that CPU, so that an operation is scaled by the speed
    of the CPU it ran on."""

    def __init__(self):
        self.samples: list[tuple[float, float, bool]] = []  # (end, loop s, on child's CPU)
        self.child: int | None = None
        self._cpus = sorted(os.sched_getaffinity(0))
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _child_cpu(self) -> int | None:
        child = self.child
        if child is None:
            return None
        try:
            with open(f"/proc/{child}/stat") as fh:
                return int(fh.read().rsplit(")", 1)[1].split()[36])
        except (OSError, ValueError, IndexError):
            return None

    def _run(self) -> None:
        k = 0
        while not self._stop.is_set():
            cpu = self._cpus[k % len(self._cpus)]
            k += 1
            os.sched_setaffinity(0, {cpu})  # this thread only
            start = time.perf_counter()
            _meter_loop()
            end = time.perf_counter()
            self.samples.append((end, end - start, self._child_cpu() == cpu))
            self._stop.wait(METER_PERIOD_S / len(self._cpus))

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per second over [t0, t1]: from the samples taken
        there on the child's CPU, else from all samples taken there, else
        from the nearest ones."""
        samples = list(self.samples)
        inside = [(dt, same) for end, dt, same in samples if t0 <= end <= t1]
        chosen = [dt for dt, same in inside if same]
        if len(chosen) < METER_MIN_SAMPLES:
            chosen = [dt for dt, _ in inside]
        if len(chosen) < METER_MIN_SAMPLES:
            mid = (t0 + t1) / 2
            nearest = sorted(samples, key=lambda s: abs(s[0] - mid))[:METER_MIN_SAMPLES]
            chosen = [dt for _, dt, _ in nearest]
        return REF_LOOP_S / statistics.median(chosen)


def run_op(op, seed: int, trace: bool, workdir: str, env: dict, meter: SpeedMeter,
           want_env=False) -> Sample:
    s = Sample(op)
    report = os.path.join(workdir, f"{op.name}.report.json")
    result = os.path.join(workdir, f"{op.name}.result.json")
    for path in (report, result):
        if os.path.exists(path):
            os.remove(path)
    spec = {"src": str(SRC), "kind": op.kind, "trace": trace, "report": report,
            "result": result, "env": want_env}
    if op.kind == "cli":
        spec["argv"] = [*op.argv, "--seed", str(seed), "--path", report]
    elif op.kind == "aut":
        spec.update(graph=op.graph, name=os.path.basename(op.graph))
    killed = []

    with open(os.path.join(workdir, f"{op.name}.log"), "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(OP_TIMEOUT_S, lambda: (killed.append(1), proc.kill()))
        timer.start()
        meter.child = proc.pid
        _, status, usage = os.wait4(proc.pid, 0)
        meter.child = None
        t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    s.scale = meter.scale(t0, t1)
    s.rss_mb = usage.ru_maxrss / 1024
    if killed:
        s.errors.append(f"timeout after {OP_TIMEOUT_S} s")
    if proc.returncode != 0:
        s.errors.append(f"child exit code {proc.returncode}")
    try:
        with open(result) as fh:
            res = json.load(fh)
    except (OSError, ValueError):
        s.errors.append("no result from child")
        return s
    s.setup, s.work = res["ready"] - t0, t1 - res["ready"]
    s.layers, s.env = res["layers"], res.get("env")
    if res["error"]:
        s.errors.append(f"crash: {res['error']}")
    if res["rc"] != 0:
        s.errors.append(f"specgraph exit code {res['rc']}")
    if op.kind == "setup":
        return s
    try:
        with open(report, "rb") as fh:
            data = fh.read()
        s.report_bytes = len(data)
        s.digest = hashlib.sha256(data).hexdigest()
        s.errors += op.check(json.loads(data))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        s.errors.append(f"report unreadable or malformed: {exc!r}")
    return s


def run_pass(ops, seed, trace, workdir, env, meter, want_env=False) -> list[Sample]:
    return [run_op(op, seed, trace, workdir, env, meter, want_env) for op in ops]


def wall(passes: list[list[Sample]]) -> float:
    """Work time of one pass, in reference seconds, as the sum over operations
    of each one's median over passes: a stall in one process moves it only if
    it recurs."""
    return sum(statistics.median(p[i].work * p[i].scale for p in passes)
               for i in range(len(passes[0])) if passes[0][i].kind != "setup")


def pass_layers(samples: list[Sample]) -> dict:
    """Per-layer metrics of one traced pass: sums over its operations, with
    times in reference seconds."""
    tot: dict[str, float] = {}
    for s in samples:
        for k, v in (s.layers or {}).items():
            tot[k] = tot.get(k, 0) + (v * s.scale if PER_LAYER.get(k) == "s" else v)
    out = {k: tot.get(k, 0) for k in PER_LAYER if k in tot}
    out["graph_core.cap_refusals"] = (tot.get("graph_core.cap_refusals_n", 0)
                                      / max(1, tot.get("graph_core.cap_attempts", 0)))
    out["bounds.skip_ratio"] = tot.get("bounds.skipped", 0) / max(1, tot.get("bounds.records", 0))
    out["cli.report_bytes"] = sum(s.report_bytes for s in samples)
    return out


def source_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "specgraph").glob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "specgraph" / "cli.py").is_file():
        print(f"error: no specgraph sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    workdir = os.path.join(".bench_run", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = child_env(workdir)
    try:
        with SpeedMeter() as meter:
            t_setup = time.perf_counter()
            ops = WORKLOADS[args.workload](args.seed, workdir)
            setup_probes = [SETUP_PROBE] * max(0, SETUP_SAMPLES - len(ops))
            warmup = run_pass([SETUP_PROBE] * SETUP_SAMPLES, args.seed, False, workdir, env,
                              meter, want_env=True)
            t_start = time.perf_counter()
            passes: list[tuple[bool, list[Sample]]] = []
            while len(passes) < MIN_PASSES or time.perf_counter() - t_start < args.seconds:
                traced = bool(args.trace) and len(passes) % 2 == 1
                passes.append((traced, run_pass(setup_probes + ops, args.seed, traced,
                                                workdir, env, meter)))
            t_end = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = warmup + [s for _, p in passes for s in p]
    failures = [f"{s.op}: {e}" for s in samples for e in s.errors]
    failed = sum(1 for s in samples if s.errors)
    digests: dict[str, list[str]] = {}
    for s in samples:
        if s.digest and s.digest not in digests.setdefault(s.op, []):
            digests[s.op].append(s.digest)

    plain = [p for traced, p in passes if not traced]
    metrics = {
        "setup_s": statistics.median(s.setup * s.scale for p in plain for s in p),
        "wall_s": wall(plain),
        "peak_rss_mb": statistics.median(max(s.rss_mb for s in p) for p in plain),
    }
    units = END_TO_END
    if args.trace:
        traced_passes = [p for traced, p in passes if traced]
        layer_runs = [pass_layers(p) for p in traced_passes]
        # median_low keeps counts whole when two traced passes are paired
        layers = {k: statistics.median_low(r[k] for r in layer_runs) for k in layer_runs[0]}
        layers["trace.overhead_s"] = wall(traced_passes) - metrics["wall_s"]
        layers["error_rate"] = failed / len(samples)
        metrics, units = layers, PER_LAYER

    env_info = dict(warmup[0].env or {}, blas_threads=env["OPENBLAS_NUM_THREADS"],
                    pythonhashseed=env["PYTHONHASHSEED"])
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "inputs_and_warmup_s": t_start - t_setup,
        "measured_s": t_end - t_start, "env": env_info, "source_loc": source_loc(),
        "ref_loop_s": REF_LOOP_S, "meter_samples": len(meter.samples),
        "passes": [{"traced": traced,
                    "raw_wall_s": sum(s.work for s in p if s.kind != "setup"),
                    "ops": [{"op": s.op, "setup_s": s.setup, "work_s": s.work,
                             "scale": s.scale, "rss_mb": s.rss_mb} for s in p]}
                   for traced, p in passes],
        "digests": digests,
        "digests_stable": all(len(d) == 1 for d in digests.values()),
        "failures": failures, "metrics": metrics,
    }
    os.makedirs(".bench_out", exist_ok=True)
    out_path = os.path.join(".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print(f"{args.workload}: {len(passes)} passes, digests stable {detail['digests_stable']}, "
          f"details in {out_path}")
    for f in failures:
        print(f"FAILED {f}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(samples), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
