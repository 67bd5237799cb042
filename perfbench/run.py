#!/usr/bin/env python3
"""The repository benchmark: simulator host speed, end to end and per layer.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload fft-hw-p4 --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a separate
run that traces every layer (see ``layers.py``) and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Every
iteration's simulated outputs are checked against ``expected.json``;
any mismatch or exception fails the iteration and the exit code is 1.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"
sys.path.insert(0, str(HERE))

from layers import LayerTracer  # noqa: E402  (the benchmark's own module)

N_CPUS = 4
#: Warm (cache-served) replays in one iteration.
WARM_REPEATS = 3
HOOK_SLOTS = ("active", "topo", "txn", "perf")
FASTPATH_ENV = "REPRO_FASTPATH"

#: name -> (unit, better); printed with ``--trace 0``.
END_TO_END = {
    "sim_ips": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sweep_cold_s": ("s", "lower"),
}

#: name -> (unit, better); printed with ``--trace 1``.
PER_LAYER = {
    "engine.self_s": ("s", "lower"),
    "engine.events": ("count", "lower"),
    "engine.ns_per_event": ("ns", "lower"),
    "engine.processes": ("count", "lower"),
    "engine.resumes": ("count", "lower"),
    "engine.resource_uses": ("count", "lower"),
    "engine.uncontended_frac": ("ratio", "higher"),
    "cpu.self_s": ("s", "lower"),
    "cpu.classify_calls": ("count", "lower"),
    "cpu.miss_issues": ("count", "lower"),
    "mem.self_s": ("s", "lower"),
    "mem.cache_lookups": ("count", "lower"),
    "mem.cache_fills": ("count", "lower"),
    "mem.l1_hit_ratio": ("ratio", "higher"),
    "memsys.self_s": ("s", "lower"),
    "memsys.txns": ("count", "lower"),
    "memsys.events_per_txn": ("count", "lower"),
    "memsys.resumes_per_txn": ("count", "lower"),
    "proto.self_s": ("s", "lower"),
    "proto.dir_ops": ("count", "lower"),
    "proto.pp_calls": ("count", "lower"),
    "network.self_s": ("s", "lower"),
    "network.sends": ("count", "lower"),
    "stats.self_s": ("s", "lower"),
    "stats.adds": ("count", "lower"),
    "workloads.build_s": ("s", "lower"),
    "sim.machine_s": ("s", "lower"),
    "harness.cache_get_s": ("s", "lower"),
    "harness.cache_put_s": ("s", "lower"),
    "harness.executed": ("count", "lower"),
    "harness.cache_hit_ratio_cold": ("ratio", "higher"),
    "harness.cache_hit_ratio_warm": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.residual_frac": ("ratio", "lower"),
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


@dataclass
class Sample:
    """One iteration: host timings, simulated outputs, per-layer facts."""

    setup_s: float        # workload, Machine and begin
    run_s: float          # host seconds that simulated ``instructions``
    instructions: float
    cold_s: float         # producing the results on an empty cache
    warm_s: List[float]   # each warm replay from the cache
    outputs: dict         # simulated outputs; must match expected.json
    facts: dict           # simulated statistics feeding per-layer ratios
    wall_s: float = 0.0
    import_s: float = 0.0  # ``import repro`` in a fresh interpreter


def _l1_facts(stats_list) -> dict:
    hits = misses = 0.0
    for stats in stats_list:
        for key, value in stats.items():
            if key.startswith("l1d") and key.endswith(".hits"):
                hits += value
            elif key.startswith("l1d") and key.endswith(".misses"):
                misses += value
    return {"l1_hits": hits, "l1_misses": misses}


class Kernel:
    """One paper kernel on ``hardware`` at P=4, plus its farm round trip.

    The cold phase is what ``Farm.map`` does on a miss -- content key,
    cache lookup, simulation, cache store -- with the simulation split
    into ``Machine.begin`` / ``advance`` / ``finish`` so set-up and
    simulation are timed apart.  The warm phase is ``Farm.map`` itself
    served from the now-full cache: a one-request sweep.
    """

    def __init__(self, app: str, seed: int, scale: str = "repro"):
        self.app = app
        self.seed = seed
        self.scale = scale
        #: Whether the seed changes the simulated inputs.
        self.seeded = app == "radix"

    def make_workload(self):
        from repro import get_scale, make_app

        kwargs = {"seed": self.seed} if self.seeded else {}
        return make_app(self.app, get_scale(self.scale), **kwargs)

    def iteration(self, cache_dir: Path) -> Sample:
        import numpy as np

        from repro import (Farm, Machine, ResultCache, RunRequest,
                           hardware_config)

        clock = time.perf_counter
        cache = ResultCache(cache_dir)
        t0 = clock()
        workload = self.make_workload()
        t1 = clock()
        request = RunRequest(hardware_config(), workload, N_CPUS,
                             seed=self.seed)
        key = request.cache_key()
        cold_hit = cache.get(key) is not None
        # Seed the global RNGs exactly as RunRequest.execute does.
        rng_seed = request.request_seed()
        random.seed(rng_seed)
        np.random.seed(rng_seed % 2**32)
        t2 = clock()
        machine = Machine(request.config, N_CPUS, workload.scale)
        machine.begin(workload)
        t3 = clock()
        machine.advance()
        result = machine.finish()
        t4 = clock()
        cache.put(key, result, request)
        t5 = clock()
        warm_s, same, served = [], True, True
        for _ in range(WARM_REPEATS):
            farm = Farm(jobs=1, cache=cache)
            t = clock()
            (replay,) = farm.map([request])
            warm_s.append(clock() - t)
            same = same and replay == result
            served = served and farm.hits == 1
        outputs = {
            "total_ps": result.total_ps,
            "instructions": result.instructions,
            "events": machine.env.events_processed,
            "stats_sha256": digest(sorted(result.stats.items())),
            "warm_equals_cold": same,
            "warm_from_cache": served,
        }
        facts = dict(_l1_facts([result.stats]), executed=1,
                     cold_hit_ratio=float(cold_hit),
                     warm_hit_ratio=float(served))
        return Sample(setup_s=(t1 - t0) + (t3 - t2), run_s=t4 - t3,
                      instructions=result.instructions, cold_s=t5 - t0,
                      warm_s=warm_s, outputs=outputs,
                      facts=facts)


def _experiment_view(result) -> dict:
    """What an ExperimentResult computed (its host wall time excluded)."""
    return {"rendered": result.rendered,
            "findings": [f.to_dict() for f in result.findings]}


class Fig6Sweep:
    """``run_experiment("fig6")`` at tiny scale, cold then warm.

    The experiment fixes its own inputs, so the seed does not change them.
    """

    seeded = False

    def __init__(self, scale: str = "tiny"):
        self.scale = scale

    def iteration(self, cache_dir: Path) -> Sample:
        from repro import Farm, ResultCache, get_scale, run_experiment

        clock = time.perf_counter
        scale = get_scale(self.scale)
        t0 = clock()
        farm = Farm(jobs=1, cache=ResultCache(cache_dir))
        t1 = clock()
        with farm.activate():
            cold = run_experiment("fig6", scale)
        t2 = clock()
        warm_s, same, served = [], True, True
        for _ in range(WARM_REPEATS):
            t = clock()
            with farm.activate():
                warm = run_experiment("fig6", scale)
            warm_s.append(clock() - t)
            same = same and _experiment_view(warm) == _experiment_view(cold)
            served = served and warm.farm_runs == 0 and (
                warm.farm_hits == cold.farm_runs + cold.farm_hits)
        # ResultCache layout: <root>/<key[:2]>/<key>.json, one per request.
        results = [json.loads(path.read_text())["result"]
                   for path in sorted(cache_dir.glob("*/*.json"))]
        instructions = sum(r["instructions"] for r in results)
        view = _experiment_view(cold)
        outputs = {
            "verdicts": [[f.name, f.ok] for f in cold.findings],
            "findings_sha256": digest(view["findings"]),
            "rendered_sha256": digest(view["rendered"]),
            "executed": cold.farm_runs,
            "cold_hits": cold.farm_hits,
            "instructions": instructions,
            "warm_equals_cold": same,
            "warm_from_cache": served,
        }
        requests = cold.farm_runs + cold.farm_hits
        facts = dict(_l1_facts([r["stats"] for r in results]),
                     executed=cold.farm_runs,
                     cold_hit_ratio=cold.farm_hits / requests,
                     warm_hit_ratio=float(served))
        return Sample(setup_s=t1 - t0, run_s=t2 - t1,
                      instructions=instructions, cold_s=t2 - t1,
                      warm_s=warm_s, outputs=outputs,
                      facts=facts)


#: workload name -> factory(seed, scale or None for the default).
WORKLOADS: Dict[str, Callable] = {
    "fft-hw-p4": lambda seed, scale=None: Kernel("fft", seed,
                                                 scale or "repro"),
    "radix-hw-p4": lambda seed, scale=None: Kernel("radix", seed,
                                                   scale or "repro"),
    "fig6-sweep": lambda seed, scale=None: Fig6Sweep(scale or "tiny"),
}


# -- environment ------------------------------------------------------------

def check_environment() -> None:
    """Refuse to measure anything but the default code path."""
    if FASTPATH_ENV in os.environ:
        raise BenchmarkError(
            f"{FASTPATH_ENV} is set; the benchmark measures the default path")
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to measure: {SRC / 'repro'} missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.common import batch
    from repro.obs import hooks

    installed = [f"repro.obs.hooks.{slot}" for slot in HOOK_SLOTS
                 if getattr(hooks, slot) is not None]
    if batch.active is not None:
        installed.append("repro.common.batch.active")
    if installed:
        raise BenchmarkError(f"hook slots installed: {installed}")


def import_seconds() -> float:
    """Seconds a fresh interpreter spends in ``import repro``."""
    code = ("import time; t = time.perf_counter(); import repro; "
            "print(time.perf_counter() - t)")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([path] if path else [])))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise BenchmarkError(f"import repro failed:\n{out.stderr}")
    return float(out.stdout)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_facts() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": git_commit()}


def load_expected(name: str, seed: int, scale: Optional[str]) -> Optional[dict]:
    """The recorded outputs that apply to this run, if any."""
    if scale is not None or not EXPECTED_PATH.is_file():
        return None
    entry = json.loads(EXPECTED_PATH.read_text()).get(name)
    if entry is None or (entry["seed"] is not None and entry["seed"] != seed):
        return None
    return entry["outputs"]


# -- metrics ----------------------------------------------------------------

def end_to_end(samples: List[Sample]) -> Tuple[dict, str]:
    """Medians over the run's iterations, and the printed-only lines."""
    median = statistics.median
    metrics = {
        "sim_ips": median(s.instructions / s.run_s for s in samples),
        "setup_s": median(s.import_s + s.setup_s for s in samples),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sweep_cold_s": median(s.cold_s for s in samples),
    }
    # Printed, not gated: a warm request is short and memory-bound, so its
    # host time follows other tenants' load more than the program's.
    warm = [w for s in samples for w in s.warm_s]
    report = (f"  {'sweep_warm_s':<30} {median(warm):>16.6g} s "
              f"(median of {len(warm)} warm requests; not gated)")
    return metrics, report


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: LayerTracer, sample: Sample,
              untraced_wall_s: float) -> dict:
    self_s = tracer.self_times()
    calls = tracer.calls
    events = tracer.events
    txns = calls("DsmMemorySystem", "request")
    uses = calls("Resource", "use")
    facts = sample.facts
    return {
        "engine.self_s": self_s.get("engine", 0.0),
        "engine.events": events,
        "engine.ns_per_event": _ratio(self_s.get("engine", 0.0) * 1e9, events),
        "engine.processes": calls("Engine", "process"),
        "engine.resumes": tracer.resumes(),
        "engine.resource_uses": uses,
        "engine.uncontended_frac": _ratio(tracer.uncontended, uses),
        "cpu.self_s": self_s.get("cpu", 0.0),
        "cpu.classify_calls": calls("CpuMemInterface", "classify"),
        "cpu.miss_issues": calls("CpuMemInterface", "issue_miss"),
        "mem.self_s": self_s.get("mem", 0.0),
        "mem.cache_lookups": calls("SetAssocCache", "lookup"),
        "mem.cache_fills": calls("SetAssocCache", "fill"),
        "mem.l1_hit_ratio": _ratio(facts["l1_hits"],
                                   facts["l1_hits"] + facts["l1_misses"]),
        "memsys.self_s": self_s.get("memsys", 0.0),
        "memsys.txns": txns,
        "memsys.events_per_txn": _ratio(events, txns),
        "memsys.resumes_per_txn": _ratio(tracer.resumes("memsys"), txns),
        "proto.self_s": self_s.get("proto", 0.0),
        "proto.dir_ops": calls("Directory", "entry", "peek", "add_sharer",
                               "set_dirty", "clear", "drop_sharer"),
        "proto.pp_calls": calls("MagicController", "pp_busy"),
        "network.self_s": self_s.get("network", 0.0),
        "network.sends": calls("Network", "send"),
        "stats.self_s": self_s.get("stats", 0.0),
        "stats.adds": calls("CounterSet", "add"),
        "workloads.build_s": tracer.inclusive_s("Workload", "build"),
        "sim.machine_s": tracer.inclusive_s("Machine", "__init__"),
        "harness.cache_get_s": tracer.inclusive_s("ResultCache", "get"),
        "harness.cache_put_s": tracer.inclusive_s("ResultCache", "put"),
        "harness.executed": facts["executed"],
        "harness.cache_hit_ratio_cold": facts["cold_hit_ratio"],
        "harness.cache_hit_ratio_warm": facts["warm_hit_ratio"],
        "trace.overhead_frac": tracer.wall_s / untraced_wall_s - 1.0,
        "trace.residual_frac": self_s["residual"] / (
            tracer.wall_s - tracer.overhead_s()),
    }


def layer_table(tracer: LayerTracer) -> str:
    """Self time per layer plus overhead and residual rows = traced wall."""
    self_s = tracer.self_times()
    wall = tracer.wall_s
    rows = sorted(((v, k) for k, v in self_s.items() if k != "residual"),
                  reverse=True)
    rows += [(tracer.overhead_s(), "(tracing overhead)"),
             (self_s["residual"], "(residual)")]
    lines = [f"  {'layer':<20} {'self_s':>10} {'share':>7}"]
    lines += [f"  {name:<20} {value:>10.4f} {value / wall:>7.1%}"
              for value, name in rows]
    lines.append(f"  {'traced wall':<20} {wall:>10.4f} "
                 f"{sum(v for v, _ in rows) / wall:>7.1%}")
    return "\n".join(lines)


# -- the run ------------------------------------------------------------------

def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  scale: Optional[str] = None,
                  expected: Optional[dict] = None,
                  log: Callable[[str], None] = print) -> Tuple[dict, str]:
    """Measure one workload.

    Returns the result object printed last and the lines printed before
    it: the layer self-time table of the last traced iteration, or the
    end-to-end numbers that are printed but not gated.

    *scale* overrides the workload's default scale (the self-tests run
    tiny); recorded outputs apply only at the default scale, otherwise
    every iteration must equal the first.  *expected* overrides them.
    """
    check_environment()
    if name not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {name!r}; "
                             f"known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[name](seed, scale)
    if expected is None:
        expected = load_expected(name, seed, scale)
    calibration = LayerTracer()
    if trace:
        calibration.calibrate()
        log(f"tracing cost: {sum(calibration.c_call) * 1e9:.0f} ns per call, "
            f"{sum(calibration.c_resume) * 1e9:.0f} ns per resume")

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
    attempted = failed = 0
    samples: List[Sample] = []
    layer_rows: List[dict] = []
    report = ""
    reference = expected

    def one(tracer: Optional[LayerTracer]) -> Optional[Sample]:
        nonlocal attempted, failed, reference
        attempted += 1
        cache_dir = Path(tempfile.mkdtemp(dir=tmp))
        try:
            t0 = time.perf_counter()
            if tracer is None:
                sample = workload.iteration(cache_dir)
            else:
                with tracer.tracing():
                    sample = workload.iteration(cache_dir)
            sample.wall_s = time.perf_counter() - t0
        except Exception:
            failed += 1
            log(f"iteration {attempted} raised:\n{traceback.format_exc()}")
            return None
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if reference is None:
            reference = sample.outputs
        problems = [k for k in sorted(set(reference) | set(sample.outputs))
                    if reference.get(k) != sample.outputs.get(k)]
        if tracer is not None:
            engines = sum(e.events_processed for e in tracer.engines.values())
            if tracer.events != engines:
                problems.append(f"engine.events {tracer.events} != "
                                f"Engine.events_processed {engines}")
        if problems:
            failed += 1
            log(f"iteration {attempted}: outputs differ from the "
                f"{'recorded' if expected is not None else 'first'} "
                f"outputs: {problems}")
            return None
        return sample

    try:
        deadline = time.perf_counter() + seconds
        while not samples or time.perf_counter() < deadline:
            sample = one(None)
            if sample is None:
                if time.perf_counter() >= deadline:
                    break
                continue
            samples.append(sample)
            if not trace:
                sample.import_s = import_seconds()
            else:
                tracer = LayerTracer()
                tracer.c_call = calibration.c_call
                tracer.c_resume = calibration.c_resume
                traced = one(tracer)
                if traced is not None:
                    layer_rows.append(per_layer(tracer, traced,
                                                sample.wall_s))
                    report = ("layer self time, last traced iteration:\n"
                              + layer_table(tracer))
            log(f"iteration {len(samples)}: import {sample.import_s:.4f} s, "
                f"setup {sample.setup_s:.4f} s, "
                f"run {sample.run_s:.4f} s, cold {sample.cold_s:.4f} s, "
                f"warm {statistics.mean(sample.warm_s):.4f} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    if trace:
        metrics = {k: statistics.median(row[k] for row in layer_rows)
                   for k in PER_LAYER} if layer_rows else {}
        units = PER_LAYER
    else:
        metrics, report = end_to_end(samples) if samples else ({}, "")
        units = END_TO_END
    return {"correct": failed == 0 and bool(metrics),
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k][0]}
                        for k, v in metrics.items()}}, report


def record(name: str, seed: int) -> dict:
    """Run one iteration and store its outputs as the expected ones."""
    check_environment()
    workload = WORKLOADS[name](seed)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        outputs = workload.iteration(Path(tmp)).outputs
    data = (json.loads(EXPECTED_PATH.read_text())
            if EXPECTED_PATH.is_file() else {})
    data[name] = {"seed": seed if workload.seeded else None,
                  "outputs": outputs}
    EXPECTED_PATH.write_text(json.dumps(data, indent=2, sort_keys=True)
                             + "\n")
    return outputs


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's outputs in expected.json")
    args = parser.parse_args(argv)
    try:
        if args.record:
            print(json.dumps(record(args.workload, args.seed), indent=2))
            return 0
        result, report = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace),
                               log=lambda msg: print(msg, file=sys.stderr))
        facts = host_facts()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("host " + json.dumps(facts, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, metric in result["metrics"].items():
        print(f"  {key:<30} {metric['value']:>16.6g} {metric['unit']}")
    error_rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<30} {error_rate:>16.6g} ratio "
          f"({result['failed']}/{result['attempted']} iterations failed)")
    if report:
        print(report)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
