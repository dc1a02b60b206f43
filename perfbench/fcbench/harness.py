"""One benchmark run: set-up, the timed rounds, the checks, the metrics.

The loop is closed: one item at a time, in one process, no worker threads.
Each item's call is timed alone; generating a round's inputs and checking
its answers happen outside the timed calls.  A run always ends on a whole
round, so every run attempts whole rounds of the same make-up.

Times are reported at a reference speed.  The machine this was built on
shares its cores, and its speed drifts by up to 1.6x for minutes at a time
(see README.md), far more than the bounds.  Between items, every
``REF_EVERY`` seconds and at least once a round, and after set-up, the
run times a fixed loop of the kind of work the program does (for the
``cli`` workload, the start of an empty interpreter), and scales the
durations it measured by ``REF_S`` over the mean of those times.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

from .trace import Recorder


REF_S = 0.004  # reference_s() at this machine's usual speed (Python 3.11.7)
START_S = 0.12  # an empty interpreter's start at the same speed, from a parent like this one
WINDOW = 5  # rounds whose reference times scale a round's durations; reference times after set-up
REF_EVERY = 0.05  # seconds between reference times within a round
SETUPS = 5  # set-ups per run: the run's own and four in fresh interpreters
STARTS = 5  # timings of each interpreter start in a traced run


def reference_s() -> float:
    """Wall time of a fixed loop of exact-rational and container work.  The
    garbage collector is off meanwhile: its passes cost in proportion to
    the objects the run holds, which is not the machine's speed."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 600):
            total += Fraction(1, i % 97 + 1)
        table = {(i, i % 7): [i] * 3 for i in range(1500)}
        del total, table
        return time.perf_counter() - t0
    finally:
        gc.enable()


def start_reference_s() -> float:
    """Wall time of starting an empty interpreter, in units of
    ``reference_s()``.  The reference of workloads whose items start
    interpreters: those spend their time in process start, imports and
    page faults, which the in-process loop does not follow."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return (time.perf_counter() - t0) * REF_S / START_S


def at_reference_speed(rounds: list[list[float]], refs: list[list[float]]) -> list[float]:
    """Each round's durations times REF_S over the mean of the reference
    times taken during the WINDOW rounds around it.  Loops spread over the
    rounds follow the machine's speed as the work met it; a single 4 ms
    loop catches only a moment of it."""
    out = []
    for r, measured in enumerate(rounds):
        ref = statistics.fmean(t for ts in refs[max(0, r - WINDOW // 2): r + WINDOW // 2 + 1] for t in ts)
        out += [dt * REF_S / ref for dt in measured]
    return out


def out_dir(root: Path) -> Path:
    path = root / "perfbench" / "out"
    path.mkdir(parents=True, exist_ok=True)
    return path


def set_up(name: str, seed: int, root: Path, workdir: Path):
    """Import the package, generate the inputs, warm up on inputs disjoint
    from the timed ones.  Returns (workload, seconds taken at the reference
    speed, by the mean of WINDOW reference times taken right after)."""
    t0 = time.perf_counter()
    fc = importlib.import_module("fanocone")
    from .workloads import WORKLOADS, Context

    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](fc, seed, Context(src=root / "src", workdir=workdir))
    for item in wl.warmup():
        item.call()
    seconds = time.perf_counter() - t0
    reference = start_reference_s if wl.subprocesses else reference_s
    return wl, seconds * REF_S / statistics.fmean(reference() for _ in range(WINDOW))


def setup_only(name: str, seed: int, root: Path) -> float:
    workdir = out_dir(root) / f"work-{os.getpid()}"
    try:
        return set_up(name, seed, root, workdir)[1]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def child_setup_s(name: str, seed: int, root: Path) -> float:
    """Set-up time measured in a fresh interpreter, import included."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=root, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def cli_start_ms(root: Path) -> dict[str, float]:
    """Median wall time of an empty interpreter and of importing the CLI."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def median_ms(code: str) -> float:
        times = []
        for _ in range(STARTS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)

    interp = median_ms("pass")
    return {"cli.interpreter_ms": interp, "cli.import_ms": median_ms("import fanocone.cli") - interp}


def dispatch_ms(wl, seed: int, root: Path, workdir: Path) -> float:
    """Median in-process time of ``fanocone.cli.dispatch``, untraced, on
    every argv the ``cli`` workload ran; the other workloads replay the
    argvs of the first ``cli`` round."""
    from .workloads import Cli, Context

    if not isinstance(wl, Cli):
        wl = Cli(None, seed, Context(src=root / "src", workdir=workdir))
        wl.round(0)
    return statistics.median(wl.dispatch_ms())


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Rounds run until the timed calls add up to ``seconds`` at the
    reference speed, at least one round.  Each round's answers are checked right after it, with tracing
    paused, and then dropped, so the memory the run holds does not grow with
    its length."""
    workdir = out_dir(root) / f"work-{os.getpid()}"
    rec = None
    try:
        wl, setup_s = set_up(name, seed, root, workdir)
        reference = start_reference_s if wl.subprocesses else reference_s
        rec = Recorder() if trace else None
        if rec:
            rec.install()
        rounds: list[list[float]] = []  # the measured durations, round by round
        refs: list[list[float]] = []  # the reference times taken during each round
        last_ref = time.perf_counter()
        budget = 0.0
        failed = unexpected = known = 0
        r = 0
        while r == 0 or budget < seconds:
            done, measured, samples = [], [], []
            for item in wl.round(r):
                with rec.span("item." + item.kind) if rec else nullcontext():
                    t0 = time.perf_counter()
                    try:
                        out, err = item.call(), None
                    except Exception as exc:  # a failed operation is counted, not fatal
                        out, err = None, exc
                    measured.append(time.perf_counter() - t0)
                done.append((item, out, err))
                if time.perf_counter() - last_ref >= REF_EVERY:
                    samples.append(reference())
                    last_ref = time.perf_counter()
            if not samples:
                samples.append(reference())
                last_ref = time.perf_counter()
            refs.append(samples)
            rounds.append(measured)
            budget += sum(measured) * REF_S / statistics.fmean(samples)
            if rec:
                rec.active = False
            for item, out, err in done:
                known += item.known_fault
                try:
                    reason = f"{type(err).__name__}: {err}" if err else item.check(out)
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
                if reason:
                    failed += 1
                    if not item.known_fault:
                        unexpected += 1
                        if unexpected <= 5:
                            print(f"FAILED {item.kind}: {reason}", file=sys.stderr)
            if rec:
                rec.active = True
            r += 1
        who = resource.RUSAGE_CHILDREN if wl.subprocesses else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        if known:
            print(f"{known} items ask about a known fault; {failed - unexpected} of them failed", file=sys.stderr)
        ref = statistics.fmean(t for ts in refs for t in ts)
        print(f"{r} rounds; reference loop mean {ref * 1e3:.3f} ms "
              f"against REF_S = {REF_S * 1e3:g} ms", file=sys.stderr)

        if rec:
            rec.uninstall()
            extra = {key: ms * REF_S / ref for key, ms in cli_start_ms(root).items()}
            extra["cli.dispatch_ms"] = dispatch_ms(wl, seed, root, workdir) * REF_S / ref
            rec.write(out_dir(root) / f"trace-{name}-{seed}.jsonl")
    finally:
        if rec:
            rec.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    times = at_reference_speed(rounds, refs)
    result = {"correct": unexpected == 0, "attempted": len(times), "failed": failed}
    if rec:
        extra.update({"bench.items": len(times), "bench.reference_ms": ref * 1e3})
        per_layer = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
        result["metrics"] = rec.metrics(per_layer, extra, REF_S / ref)
    else:
        setups = [setup_s] + [child_setup_s(name, seed, root) for _ in range(SETUPS - 1)]
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "items_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "item_ms_p50": {"value": statistics.median(times) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return result
