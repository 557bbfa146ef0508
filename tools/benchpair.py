"""Paired benchmark runs of two commits: does the change beat its parent?

Each pair runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`
once on the parent commit and once on the change, each in a fresh
directory that `git archive` extracts from the commit, with the same seed
and run length on both sides. Pair i uses seed `--seed + i`, and which side
runs first alternates from pair to pair. A run that exits non-zero or
prints no metrics is reported and its pair left out of the statistics.

    python3 tools/benchpair.py PARENT CHANGE --workload ladder --pairs 10 \\
        --seed 6001 --seconds 8

It prints every pair, then for each end-to-end metric that BENCHMARK.json
declares, each side's median and quartiles, how many pairs the change won
(ties count for neither side) and the median change against the metric's
bound. For the claimed metric (`--metric`, scaled_pass_s by default) it
says whether a gain can be claimed: the change wins at least nine tenths of
the pairs and the medians differ by more than the parent's interquartile
range. The standard library alone; run from anywhere inside the repository.
"""
from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", help="commit of the parent side")
    p.add_argument("change", help="commit of the change side")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    p.add_argument("--seconds", type=float, default=8.0, help="run length of each run")
    p.add_argument("--metric", default="scaled_pass_s", help="the metric a gain is claimed on")
    p.add_argument("--workdir", default=None, help="where the copies go (a temporary directory)")
    return p.parse_args(argv)


def _extract(commit: str, dest: Path) -> None:
    """The files of commit, as git archive gives them, under dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _run(commit: str, args, seed: int, workdir: Path) -> dict | None:
    """The JSON summary of one benchmark run on a fresh copy of commit, or
    None when the run failed (its exit code and last line are printed)."""
    copy = Path(tempfile.mkdtemp(prefix="copy-", dir=workdir))
    try:
        _extract(commit, copy)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=copy, capture_output=True, text=True)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = lines[-1] if lines else proc.stderr.strip()[-300:]
        print(f"  {commit} seed {seed}: exit {proc.returncode}: {tail}")
        return None
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _end_to_end() -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def main(argv=None) -> int:
    args = _parse(argv)
    metrics = _end_to_end()
    workdir = Path(tempfile.mkdtemp(prefix="benchpair-", dir=args.workdir))
    pairs = []
    try:
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            commits = {"parent": args.parent, "change": args.change}
            runs = {side: _run(commits[side], args, seed, workdir) for side in order}
            if None in runs.values():
                print(f"pair {i + 1} (seed {seed}): left out")
                continue
            pairs.append(runs)
            cells = "  ".join(
                f"{m['name']} {runs['parent']['metrics'][m['name']]['value']:.4f} -> "
                f"{runs['change']['metrics'][m['name']]['value']:.4f}" for m in metrics)
            fails = "  ".join(f"failed {runs[side]['failed']}/{runs[side]['attempted']}"
                              for side in ("parent", "change"))
            print(f"pair {i + 1} (seed {seed}, {order[0]} first): {cells}  {fails}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not pairs:
        print("no pair completed")
        return 1

    verdict = None
    print(f"\n{args.workload}: {len(pairs)} pairs, median [q1, q3]")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        (pq1, pmed, pq3), (cq1, cmed, cq3) = _quartiles(parent), _quartiles(change)
        rel = (cmed - pmed) / pmed if pmed else 0.0
        worse = rel if lower else -rel
        print(f"  {name}: {pmed:.4f} [{pq1:.4f}, {pq3:.4f}] -> {cmed:.4f} [{cq1:.4f}, {cq3:.4f}] "
              f"{m['unit']}, {rel:+.1%}, change better in {wins}/{len(pairs)}, "
              f"{'beyond' if worse > m['bound'] else 'within'} the bound {m['bound']:.0%}")
        if name == args.metric:
            gap = (pmed - cmed) if lower else (cmed - pmed)
            verdict = (wins >= 0.9 * len(pairs) and len(pairs) >= 10 and gap > pq3 - pq1,
                       wins, gap, pq3 - pq1)
    if verdict is not None:
        holds, wins, gap, iqr = verdict
        print(f"\ngain on {args.metric}: {'holds' if holds else 'does not hold'} "
              f"(wins {wins}/{len(pairs)}, at least 9/10 of at least 10 pairs; "
              f"median gap {gap:.4f} against the parent's IQR {iqr:.4f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
