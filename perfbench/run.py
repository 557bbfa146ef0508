"""Benchmark of lvmut: run one workload, check its outputs, print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

`--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
alternates untraced and traced passes: the per-layer metrics come from the
traced ones (median over traced passes), and `trace.overhead_s` is the
traced minus the untraced median pass time. Whole passes repeat while
another one would still end within `--seconds` (at least 3; a traced run
makes at least 2 of each kind). Every op's output is checked against its
oracle after its pass, outside the timed region. After each pass one fresh
interpreter times set-up, so set-up is sampled across the whole run.

The host's speed drifts in phases from a tenth of a second to minutes
long, by up to a factor of two, so raw times of the same code differ more
between runs than any bound worth having. Untraced passes therefore run a
fixed calibration loop (speed.py) before, during and after every op and
every step that is not an op of its own (an ensemble model's solve), and
rescale the item's time by it to a reference machine speed. The gated pass
time is `scaled_pass_s`: each op and step at its median rescaled time over
the untraced passes, summed. The gated `setup_s` is rescaled the same way,
by loops run just before and after each set-up sample. The raw median
pass (`pass_s`), raw set-up and raw op latency are printed too. Times
exclude the calibration loops.

The human-readable report comes first; the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`. The
exit code is 1 when an oracle check that is expected to pass fails, and 2
when lvmut's source is not in the checkout.

`--workload all` runs every workload, each in its own process, one after
another, and prints their reports and one combined JSON line.

Spans (traced runs) and a result record with run metadata, every pass time
and every op latency are written under perfbench/out/.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("verify", "ensemble", "ladder", "cli")
SETUP_REPEATS = 5
SETUP_LOOPS = 4         # calibration loops on each side of a set-up sample
MIN_PASSES = 3          # untraced; a traced run makes at least 2 of each kind
# Load comes from this one process; BLAS gets one thread (<= nproc).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import lvmut, build the inputs and exit (times set-up)")
    return p.parse_args(argv)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _commit() -> str:
    head = CHECKOUT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (CHECKOUT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _metadata(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "commit": _commit(),
    }


def _setup_once(args) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to lvmut imported and the
    inputs built, as the child stamps it (process exit is not included):
    raw, and rescaled by calibration loops run just before and after."""
    import speed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    loops = [speed.calibration_loop() for _ in range(SETUP_LOOPS)]
    spawned = time.time()
    proc = subprocess.run(cmd, check=True, cwd=CHECKOUT, timeout=120,
                          capture_output=True, text=True)
    raw = float(proc.stdout.split()[-1]) - spawned
    loops += [speed.calibration_loop() for _ in range(SETUP_LOOPS)]
    return raw, speed.rescale(raw, loops)


def _run_workload(args) -> int:
    setup = [_setup_once(args)]

    import speed
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed, OUT)
    expected_ops = wl.op_ids(inputs)

    untraced: list[float] = []
    traced: list[float] = []
    op_ms: list[float] = []
    rescaled: dict[str, list[float]] = {}
    layer_passes: list[dict] = []
    tracer = tracing.Tracer() if args.trace else None
    attempted = failed = 0
    problems: list[str] = []
    known: set[str] = set()

    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        use_tracer = tracer is not None and len(untraced) > len(traced)
        if hasattr(wl, "reset"):
            wl.reset(inputs)
        rec = (workloads.Recorder(tracer) if use_tracer
               else workloads.Recorder(gauge=speed.Gauge()))
        first_span = len(tracer.spans) if tracer else 0
        if use_tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            wl.run_pass(inputs, rec)
        finally:
            elapsed = time.perf_counter() - t0
            if use_tracer:
                tracer.uninstall()
        if use_tracer:
            traced.append(elapsed)
            layer_passes.append(tracing.pass_metrics(tracer.spans[first_span:]))
        else:
            untraced.append(elapsed - rec.gauge.loop_s)
            op_ms += [1e3 * op.seconds for op in rec.ops]
            for item in rec.ops + rec.steps:
                rescaled.setdefault(item.op_id, []).append(item.rescaled)

        # oracle, outside the timed region
        got = [op.op_id for op in rec.ops]
        if got != expected_ops:
            problems.append(f"pass ran ops {got}, expected {expected_ops}")
        for op in rec.ops:
            attempted += 1
            mismatches = wl.check(inputs, op)
            if mismatches:
                failed += 1
            for m in mismatches:
                if m.known:
                    known.add(f"{op.op_id}: {m.reason}")
                else:
                    problems.append(f"{op.op_id}: {m.reason}")
        del rec
        # Op outputs hold reference cycles (an exception and its frames);
        # freeing them here keeps peak RSS that of one pass, whatever the
        # number of passes.
        gc.collect()
        # set-up samples are spread over the run, so they meet the same
        # machine phases as the passes
        setup.append(_setup_once(args))

        if tracer:
            done = min(len(untraced), len(traced)) >= 2
        else:
            done = len(untraced) >= MIN_PASSES
        # stop when another cycle of the same length would overrun --seconds
        now = time.perf_counter()
        if done and now - start + (now - cycle_start) > args.seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(_setup_once(args))
    if hasattr(wl, "cleanup"):
        wl.cleanup(inputs)
    scaled_pass = sum(statistics.median(v) for v in rescaled.values())
    raw_setup = [raw for raw, _ in setup]
    scaled_setup = [scaled for _, scaled in setup]

    counters = tracing.exact_counters(layer_passes[0]) if layer_passes else {}
    if any(tracing.exact_counters(p) != counters for p in layer_passes):
        problems.append("work counters differ between passes of one seed")

    meta = _metadata(args.seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines = [f"# workload {args.workload}, trace {args.trace}", "# meta " + json.dumps(meta),
             f"{'scaled_pass_s':<13} {scaled_pass:.6g} s  (each op and step at its median"
             f" rescaled time over {len(untraced)} passes, summed)"]
    for name, unit, values in (("pass_s", "s", untraced), ("setup_s", "s", scaled_setup),
                               ("raw_setup_s", "s", raw_setup), ("op_ms_p50", "ms", op_ms)):
        q1, med, q3 = quartiles(values)
        lines.append(f"{name:<13} median {med:.6g} {unit}  [q1 {q1:.6g}, q3 {q3:.6g}]"
                     f"  n={len(values)}")
    p90 = _p90(op_ms)
    lines.append(f"{'op_ms_p90':<13} " + (
        f"{p90:.6g} ms  n={len(op_ms)}" if p90 is not None
        else f"not reported: {len(op_ms)} samples leave fewer than 10 beyond p90"))
    lines.append(f"{'fail_ratio':<13} {failed / attempted:.6g}  ({failed} of {attempted} ops)")
    lines.append(f"{'peak_rss_mb':<13} {peak_rss_mb:.6g} MB")
    lines += [f"# known failure  {item}" for item in sorted(known)]
    lines += [f"# ORACLE MISMATCH  {item}" for item in problems[:20]]

    if args.trace:
        layers = {k: statistics.median([p.get(k, 0.0) for p in layer_passes])
                  for k in tracing.per_layer_names()}
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        lines += [f"# counter {k} = {v:g}" for k, v in counters.items()]
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {
            "scaled_pass_s": {"value": scaled_pass, "unit": "s"},
            "setup_s": {"value": statistics.median(scaled_setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        (OUT / f"spans-{stem}.json").write_text(
            json.dumps([s.as_dict() for s in tracer.spans]))
    (OUT / f"result-{stem}.json").write_text(json.dumps({
        "workload": args.workload, "meta": meta, "pass_s": untraced,
        "traced_pass_s": traced, "setup_s": scaled_setup, "raw_setup_s": raw_setup,
        "op_ms": op_ms, "scaled_op_s": rescaled,
        "attempted": attempted, "failed": failed, "problems": problems,
        "known_failures": sorted(known), "counters": counters, "metrics": metrics,
    }))

    correct = not problems
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _p90(values: list[float]) -> float | None:
    """The 90th percentile, only when at least 10 samples lie beyond it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[-1]


def _layer_unit(name: str) -> str:
    quantity = name.split(".")[2] if name.count(".") >= 2 else name.split(".")[-1]
    if quantity.endswith("_s"):
        return "s"
    if quantity.startswith("us_per"):
        return "us"
    return "bytes" if quantity == "bytes" else "count"


def _run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=CHECKOUT, capture_output=True, text=True,
                              timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = 1
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "lvmut" / "__init__.py").is_file():
        sys.stderr.write(f"lvmut source not found under {SRC}; run from a full checkout\n")
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return _run_all(args)
    if args.setup_only:
        import workloads

        workloads.WORKLOADS[args.workload].make_inputs(args.seed, OUT)
        print(repr(time.time()))
        return 0
    return _run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
