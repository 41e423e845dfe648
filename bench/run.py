"""Seeded, stdlib-only benchmark of the blowupcones package.

One run measures one workload as a closed loop with one client: each request
is sent only after the previous one returned, from one process and one
thread.  Run it from the repository root:

    python3 bench/run.py --workload classify --seed 20250810 --seconds 20 --trace 0
    python3 bench/run.py --all --out bench/out/results.json   # every workload
    python3 bench/run.py --compare OLD.json NEW.json          # verdicts under the bounds
    python3 bench/run.py --self-test

The last line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SPEC = ROOT / "BENCHMARK.json"
MODULES = ("lattice", "weyl", "cones", "oracle", "cli")

#: Fresh imports plus warm-ups per run; setup_s is their median.
SETUPS = 5
#: So that at least ten latency samples lie beyond p90.
MIN_REQUESTS = 100
#: Failure messages echoed to stderr per run.
SHOWN_FAILURES = 5


def fresh_import() -> SimpleNamespace:
    """Import the package anew, so every lazy cache starts empty."""
    for name in [n for n in sys.modules if n == "blowupcones" or n.startswith("blowupcones.")]:
        del sys.modules[name]
    importlib.import_module("blowupcones")
    return SimpleNamespace(
        **{name: importlib.import_module(f"blowupcones.{name}") for name in MODULES}
    )


def probe() -> float:
    """Seconds of a fixed piece of stdlib ``Fraction`` arithmetic, median of 3.

    The package's time goes to the same kind of arithmetic, and on a shared
    machine both slow down together: over a minute the probe and the request
    latencies swing by up to 1.7x in step (see README).  Timings are scaled
    by REFERENCE_PROBE_S / probe(), taken right before and after each timed
    piece.  The probe uses no package code, so no change to the package can
    move it.
    """
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        x = Fraction(1, 3)
        for i in range(1, 25):
            x = (x * Fraction(i, 7) + 1) / 3
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


#: The probe time all timings are scaled to (a typical state of a shared 2-vCPU VM).
REFERENCE_PROBE_S = 200e-6


def set_up(workload_class, seed: int, tmp: Path, count: int):
    """Import and warm up ``count`` times; keep the last package and workload.

    Returns the raw and the probe-scaled seconds of each set-up.
    """
    raw, scaled = [], []
    for _ in range(count):
        mods = workload = None
        gc.collect()
        before = probe()
        start = time.perf_counter()
        mods = fresh_import()
        workload = workload_class(seed, tmp)
        workload.warm_up(mods)
        elapsed = time.perf_counter() - start
        raw.append(elapsed)
        scaled.append(elapsed * 2 * REFERENCE_PROBE_S / (before + probe()))
    return mods, workload, raw, scaled


class Loop:
    """Closed-loop client: times each request, checks each output untimed."""

    def __init__(self, workload, mods):
        self.workload = workload
        self.mods = mods
        self.rounds: list[list] = []
        self.raw: list[float] = []
        self.latencies: list[float] = []  # probe-scaled
        self.attempted = self.failed = self.classes = 0
        self.failures: list[str] = []
        self._probe = probe()

    def judge(self, request, output) -> bool:
        """Run the workload's correctness check; count and note a failure."""
        try:
            self.workload.check(self.mods, request, output)
            return True
        except Exception as exc:  # a wrong or malformed output of any kind
            self._fail(f"{type(exc).__name__}: {exc}")
            return False

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < SHOWN_FAILURES:
            self.failures.append(message)

    def serve(self, request, call) -> None:
        self.workload.prepare(request)
        self.attempted += 1
        output = error = None
        start = time.perf_counter()
        try:
            output = call(self.mods, request)
        except Exception:
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        before, self._probe = self._probe, probe()
        self.raw.append(elapsed)
        self.latencies.append(elapsed * 2 * REFERENCE_PROBE_S / (before + self._probe))
        if error is not None:
            self._fail(error)
        elif self.judge(request, output):
            self.classes += request.classes

    def run(self, seconds: float, min_requests: int) -> None:
        while sum(self.raw) < seconds or self.attempted < min_requests:
            batch = self.workload.next_round(self.mods)
            self.rounds.append(batch)
            for request in batch:
                self.serve(request, self.workload.run)

    def replay(self, rounds, tracer) -> None:
        for batch in rounds:
            for request in batch:
                self.serve(
                    request,
                    lambda mods, req: tracer.run_request(
                        self.attempted, self.workload.run, mods, req),
                )

    @staticmethod
    def _timings(latencies: list[float], classes: int, setups: list[float]) -> dict:
        lat_ms = [x * 1000 for x in latencies]
        p90 = statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0]
        return {
            "setup_s": (statistics.median(setups), "s"),
            "throughput_qps": (classes / sum(latencies), "1/s"),
            "latency_p50_ms": (statistics.median(lat_ms), "ms"),
            "latency_p90_ms": (p90, "ms"),
        }

    def metrics(self, setups: list[float]) -> dict:
        return {
            **self._timings(self.latencies, self.classes, setups),
            "fail_ratio": (self.failed / self.attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def raw_metrics(self, setups: list[float]) -> dict:
        return {k: v for k, (v, _) in self._timings(self.raw, self.classes, setups).items()}


def measure(name: str, seed: int, seconds: float, trace: bool, *,
            setups: int = SETUPS, min_requests: int = MIN_REQUESTS) -> dict:
    """One run of one workload; returns the run record of a result file."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    mods, workload, raw_setups, setups = set_up(WORKLOADS[name], seed, tmp, setups)
    loop = Loop(workload, mods)
    started = time.perf_counter()
    loop.run(seconds, min_requests)
    wall = time.perf_counter() - started
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "requests": loop.attempted,
        "attempted": loop.attempted,
        "classes": loop.classes,
        "failed": loop.failed,
        "failures": loop.failures,
        "wall_s": wall,
        "setup_samples_s": setups,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in loop.metrics(setups).items()},
        "unscaled": loop.raw_metrics(raw_setups),
    }
    if trace:
        tracer = Tracer()
        traced = Loop(workload, mods)
        tracer.install()
        try:
            traced.replay(loop.rounds, tracer)
        finally:
            tracer.uninstall()
        layers = tracer.metrics()
        # Both sums are probe-scaled request time over the same requests.
        layers["trace.overhead_s"] = sum(traced.latencies) - sum(loop.latencies)
        record["per_layer"] = layers
        record["attempted"] += traced.attempted
        record["failed"] += traced.failed
        record["failures"] += traced.failures
        spans = OUT / f"spans-{name}-{seed}.jsonl"
        tracer.write_spans(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
        record["spans_dropped"] = tracer.dropped
    return record


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
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
    return "unknown"


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def print_run(record: dict) -> None:
    print(f"workload={record['workload']} seed={record['seed']} requests={record['requests']}"
          f" classes={record['classes']} failed={record['failed']}")
    for key, metric in record["metrics"].items():
        unscaled = record["unscaled"].get(key)
        note = f"  (unscaled {unscaled:.6g})" if unscaled is not None else ""
        print(f"  {key:<16} {metric['value']:>14.6g} {metric['unit']}{note}")
    for key, value in record.get("per_layer", {}).items():
        print(f"  {key:<40} {value:>14.6g}")
    for message in record["failures"]:
        print(f"failure: {message}", file=sys.stderr)


def result_line(record: dict, spec: dict, trace: bool) -> str:
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = record["per_layer"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {k: v["value"] for k, v in record["metrics"].items()}
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    })


def write_result(path: Path, runs: list[dict]) -> None:
    workloads: dict = {}
    for run in runs:
        workloads.setdefault(run["workload"], []).append(run)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"machine": machine(), "workloads": workloads}, indent=1) + "\n")


# -- modes -----------------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own process, one after another, at default seeds."""
    runs = []
    child_out = OUT / "child.json"
    for name, workload in WORKLOADS.items():
        for repeat in range(args.repeat):
            seed = workload.default_seed + repeat
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", str(child_out)]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
            if done.returncode:
                print(f"error: {name} seed {seed} exited {done.returncode}", file=sys.stderr)
                return done.returncode
            runs.extend(json.loads(child_out.read_text())["workloads"][name])
    child_out.unlink()
    write_result(Path(args.out), runs)
    print(f"wrote {args.out}")
    return 0 if all(run["failed"] == 0 for run in runs) else 1


def _side(runs: list[dict], metric: str):
    values = []
    for run in runs:
        if metric in run["metrics"]:
            values.append(run["metrics"][metric]["value"])
        elif metric in run.get("per_layer", {}):
            values.append(run["per_layer"][metric])
    return values


def verdict(old: list[float], new: list[float], bound: float | None, better: str) -> str:
    """better / worse / unchanged / unresolved for one (workload, metric) pair.

    The change counts when the medians differ by more than the bound.  When
    either side's quartile spread (a share of its median) exceeds the bound,
    or either side has a single run, the pair is unresolved, unless every new
    run beats (or loses to) every old run.
    """
    a, b = statistics.median(old), statistics.median(new)
    if bound is None:
        return "unchanged" if a == b else "unresolved"
    sign = 1 if better == "lower" else -1

    def spread(values):
        if len(values) < 2:
            return float("inf")
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        return (q3 - q1) / abs(med) if med else (0.0 if q1 == q3 else float("inf"))

    if max(spread(old), spread(new)) > bound:
        if len(old) > 1 and len(new) > 1:
            if all(sign * (y - x) < 0 for x in old for y in new):
                return "better"
            if all(sign * (y - x) > 0 for x in old for y in new):
                return "worse"
        return "unresolved"
    if a == 0:
        return "unchanged" if b == 0 else ("worse" if sign * b > 0 else "better")
    change = sign * (b - a) / abs(a)
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def compare(args) -> int:
    spec = load_spec()
    old, new = (json.loads(Path(p).read_text())["workloads"] for p in args.compare)
    rules = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    rules["fail_ratio"] = (0.0, "lower")
    names = list(rules) + [m["name"] for m in spec["per_layer"]]
    print(f"{'workload':<14} {'metric':<36} {'old':>12} {'new':>12} {'ratio':>8}  verdict")
    for workload in old:
        if workload not in new:
            print(f"{workload:<14} missing from {args.compare[1]}")
            continue
        for name in names:
            a, b = _side(old[workload], name), _side(new[workload], name)
            if not a or not b:
                continue
            bound, better = rules.get(name, (None, "lower"))
            ma, mb = statistics.median(a), statistics.median(b)
            ratio = f"{mb / ma:.3f}" if ma else "-"
            print(f"{workload:<14} {name:<36} {ma:>12.6g} {mb:>12.6g} {ratio:>8}  "
                  f"{verdict(a, b, bound, better)}")
    return 0


def self_test(args) -> int:
    """Tiny runs of every workload, a corrupted certificate, metric names."""
    spec = load_spec()
    problems = []
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    names = {m["name"] for m in spec["workloads"]}
    if names != set(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {sorted(names)} != {sorted(WORKLOADS)}")
    for name in WORKLOADS:
        record = measure(name, WORKLOADS[name].default_seed, 0, True, setups=1, min_requests=1)
        printed = set(record["metrics"]) - {"fail_ratio"}
        line = json.loads(result_line(record, spec, True))
        if record["failed"]:
            problems.append(f"{name}: {record['failed']} failed: {record['failures']}")
        if printed != end_to_end:
            problems.append(f"{name}: end-to-end metrics {sorted(printed ^ end_to_end)} differ")
        layers = set(record["per_layer"])
        if layers != per_layer or set(line["metrics"]) != per_layer:
            problems.append(f"{name}: per-layer metrics {sorted(layers ^ per_layer)} differ")
        print(f"self-test: {name} ran {record['requests']} requests")
    # The wrappers must reach every namespace that holds a traced name, and
    # uninstall must put back exactly what was there.
    mods = fresh_import()
    owners = [*vars(mods).values(), mods.lattice.DivisorClass, mods.cones.Certificate]
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    tracer.install()
    reached = [mods.weyl.reflect, mods.cones.reflect, mods.cones.to_standard_form,
               mods.cli.to_standard_form, mods.lattice.DivisorClass.parse]
    if not all(hasattr(fn, "__wrapped__") for fn in reached):
        problems.append("a traced name was left unwrapped in some namespace")
    tracer.uninstall()
    if [dict(vars(owner)) for owner in owners] != before:
        problems.append("uninstall did not restore the original functions")
    # A corrupted certificate in a classify record must count as a failure.
    workload = WORKLOADS["classify"](1, OUT / "tmp")
    loop = Loop(workload, mods)
    request = workload.next_round(mods)[0]
    workload.prepare(request)
    code, out, err = workload.run(mods, request)
    records = [json.loads(line) for line in out.splitlines()]
    if not loop.judge(request, (code, out, err)):
        problems.append(f"clean classify output rejected: {loop.failures}")
    corrupted = next(r for r in records if r["certificates"].get("eff", {}).get("terms"))
    terms = corrupted["certificates"]["eff"]["terms"]
    terms[0]["coeff"] = str(int(terms[0]["coeff"].split("/")[0]) + 1)
    bad = "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    if loop.judge(request, (code, bad, err)) or loop.failed != 1:
        problems.append("a corrupted certificate was not counted as a failure")
    for problem in problems:
        print(f"self-test FAILED: {problem}", file=sys.stderr)
    print("self-test ok" if not problems else f"self-test: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload to run")
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed request seconds per run (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: replay the run's requests traced and print per-layer metrics")
    parser.add_argument("--out", help="write a result file here")
    parser.add_argument("--all", action="store_true",
                        help="run every workload at its default seed")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload with --all")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two result files under the bounds of BENCHMARK.json")
    parser.add_argument("--self-test", action="store_true", help="run the benchmark's self-test")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(args)
    if not (SRC / "blowupcones" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test(args)
    if args.all:
        args.out = args.out or str(OUT / "results.json")
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    record = measure(args.workload, seed, args.seconds, bool(args.trace))
    if args.out:
        write_result(Path(args.out), [record])
    print_run(record)
    print(result_line(record, load_spec(), bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
