#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload in alternating pairs.

Run from anywhere inside the repository:

    python3 scripts/perf_pairs.py --base HEAD~1 --workload faulted_trace \\
        --pairs 10 --seconds 15
    python3 scripts/perf_pairs.py --base-dir ../parent --workload paper_leader
    python3 scripts/perf_pairs.py --base-dir . --pairs 1 --seconds 1   # smoke

The "parent" side is either a git ref, checked out into a temporary
`git worktree` next to the working tree and removed afterwards, or an
existing checkout given with --base-dir.  The "change" side is the working
tree this script belongs to.  Each side's perfbench is built from its own
sources by its own perfbench/run.py build step, in its own build directory
(<side>/.bench_build/perfbench), and checks its records against its own
perfbench/reference/.  Both sides' binaries run with ONE shared temporary
--work-dir: peak_rss_mb follows the work directory's path, so per-side work
directories made identical code read 3-5% apart.

Pair i runs both sides with seed --seed-base + i; even pairs run the parent
first, odd pairs the change first, so slow drift of the machine's speed
hits both sides alike.  Delta-path timings are sensitive to code layout and
machine noise, so single runs mislead; use ten or more pairs for a claim.

The report gives, per metric, the parent and change medians with their
quartiles, the change/parent ratio of the medians, how many pairs the change
won (in the direction BENCHMARK.json declares for the metric), and whether
the medians differ by more than the parent's interquartile range.  The exit
code is 1 when any run failed a check or did not finish, 2 on bad
arguments, a failed checkout or a failed build.
"""

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def git(args, cwd):
    return subprocess.run(["git"] + args, cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def directions(bench_json):
    """metric name -> True when higher is better, from BENCHMARK.json."""
    better = {}
    if os.path.isfile(bench_json):
        with open(bench_json) as f:
            spec = json.load(f)
        for key in ("end_to_end", "per_layer"):
            for metric in spec.get(key, []):
                better[metric["name"]] = metric.get("better") == "higher"
    return better


def build_side(side_dir):
    """Builds one checkout's perfbench with that checkout's own
    perfbench/run.py build step; returns the binary path or None."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(side_dir, "perfbench", "run.py"))
    run_py = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_py)
    build_dir = os.path.join(side_dir, ".bench_build", "perfbench")
    return os.path.join(build_dir, "perfbench") if run_py.build(build_dir) \
        else None


def run_side(side_dir, binary, work_dir, args, seed):
    """One perfbench run of one checkout; returns (ok, metrics dict)."""
    command = [binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--reference-dir",
               os.path.join(side_dir, "perfbench", "reference"),
               "--work-dir", work_dir]
    proc = subprocess.run(command, cwd=side_dir, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"perf_pairs: {side_dir}: no result (exit {proc.returncode})",
              file=sys.stderr)
        return False, {}
    ok = proc.returncode == 0 and result.get("failed", 1) == 0
    if not ok:
        print(f"perf_pairs: {side_dir} seed {seed}: {result.get('failed')} "
              f"of {result.get('attempted')} trials failed", file=sys.stderr)
    metrics = {name: entry["value"]
               for name, entry in result.get("metrics", {}).items()}
    return ok, metrics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(names, parent, change, better):
    print(f"{'metric':34} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'ratio':>7} {'won':>6} "
          f"{'>IQR':>5}")
    pairs = min(len(parent), len(change))
    for name in names:
        p = [run[name] for run in parent[:pairs] if name in run]
        c = [run[name] for run in change[:pairs] if name in run]
        if len(p) != pairs or len(c) != pairs or pairs == 0:
            continue
        p1, pm, p3 = quartiles(p)
        c1, cm, c3 = quartiles(c)
        higher = better.get(name, False)
        won = sum(1 for x, y in zip(p, c) if (y > x if higher else y < x))
        ratio = cm / pm if pm != 0 else float("nan")
        gap = "yes" if abs(cm - pm) > (p3 - p1) and cm != pm else "no"
        parent_cell = f"{pm:.4g} [{p1:.4g}, {p3:.4g}]"
        change_cell = f"{cm:.4g} [{c1:.4g}, {c3:.4g}]"
        print(f"{name:34} {parent_cell:>34} {change_cell:>34} {ratio:7.3f} "
              f"{won:3d}/{pairs:<2d} {gap:>5}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--base", help="git ref of the parent side")
    side.add_argument("--base-dir", help="existing checkout of the parent")
    parser.add_argument("--workload", default="faulted_trace",
                        choices=("tree_flood", "paper_leader", "duplex_diam",
                                 "faulted_trace"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--seed-base", type=int, default=41)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json-out", help="write every run's metrics here")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    here = os.path.dirname(os.path.abspath(__file__))
    try:
        top = git(["rev-parse", "--show-toplevel"], here)
    except subprocess.CalledProcessError as e:
        print(f"perf_pairs: not in a git checkout: {e.stderr}",
              file=sys.stderr)
        return 2
    change_dir = top

    worktree = None
    if args.base is not None:
        try:
            sha = git(["rev-parse", "--verify", args.base + "^{commit}"], top)
        except subprocess.CalledProcessError as e:
            print(f"perf_pairs: bad ref {args.base}: {e.stderr}",
                  file=sys.stderr)
            return 2
        worktree = tempfile.mkdtemp(
            prefix=f"{os.path.basename(top)}-perf-{sha[:12]}-",
            dir=os.path.dirname(top))
        os.rmdir(worktree)
        git(["worktree", "add", "--detach", worktree, sha], top)
        base_dir = worktree
        print(f"perf_pairs: parent {sha[:12]} checked out in {worktree}",
              file=sys.stderr)
    else:
        base_dir = os.path.abspath(args.base_dir)

    parent, change, ok = [], [], True
    work_dir = tempfile.mkdtemp(prefix="perf_pairs-work-")
    try:
        binaries = {base_dir: build_side(base_dir)}
        binaries[change_dir] = (binaries[base_dir] if change_dir == base_dir
                                else build_side(change_dir))
        if None in binaries.values():
            return 2
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = [("parent", base_dir), ("change", change_dir)]
            if i % 2 == 1:
                order.reverse()
            for label, directory in order:
                run_ok, metrics = run_side(directory, binaries[directory],
                                           work_dir, args, seed)
                ok = ok and run_ok
                (parent if label == "parent" else change).append(metrics)
            print(f"perf_pairs: pair {i + 1}/{args.pairs} (seed {seed}) "
                  "done", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if worktree is not None:
            git(["worktree", "remove", "--force", worktree], top)

    better = directions(os.path.join(change_dir, "BENCHMARK.json"))
    names = list(change[0].keys()) if change and change[0] else []
    print(f"workload {args.workload}, {args.pairs} pairs x {args.seconds:g} s,"
          f" trace {args.trace}, seeds {args.seed_base}.."
          f"{args.seed_base + args.pairs - 1}")
    report(names, parent, change, better)
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "seed_base": args.seed_base,
                       "parent": parent, "change": change}, f, indent=1)
    return 0 if ok and len(parent) == len(change) == args.pairs else 1


if __name__ == "__main__":
    sys.exit(main())
