#!/usr/bin/env python3
"""Benchmark entry point for the simulated Grayskull stencil stack.

Builds the workload runner from source (the simulator libraries under
src/ plus perfbench/src) on first use, then runs one workload in its own
process and forwards its one-line JSON result as the last line of stdout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck       # sensitivity + repeatability checks
    python3 perfbench/run.py --report [--seed <n>]   # figures quoted in the README

Workloads: table8_fullcard, gallery_mix, table8_4card, serve_mix.
The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
relative to the current directory.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"
WORKLOADS = ["table8_fullcard", "gallery_mix", "table8_4card", "serve_mix"]
# Simulated metrics: deterministic for a given seed, compared exactly.
SIMULATED = ["sim_gpts", "sim_kernel_gpts", "sim_j_per_gpt", "op_p50_ms",
             "op_p95_ms", "goodput_ops_per_s"]
HELD_OUT_SEED = 2027
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    return target / "perfbench"


def build():
    """Configure (once) and build the runner; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: simulator sources not found under {ROOT / 'src'}")
        return None
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    try:
        if not (out / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(PACKAGE), "-B", str(out)]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True,
                       stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return None
    return out / "perfbench_workload"


def child_env():
    env = dict(os.environ)
    # One simulation thread; the CPU references stay single-threaded too.
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_workload(exe, workload, seed, seconds, trace):
    """Run one workload process; returns (result dict or None, stderr text)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        p = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return None, ""
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        log(p.stderr)
        log(f"perfbench: {workload} exited with code {p.returncode}")
        return None, p.stderr
    return json.loads(lines[-1]), p.stderr


def digest(stderr):
    m = re.search(r"digest ([0-9a-f]+)", stderr)
    return m.group(1) if m else None


def selfcheck(exe):
    ok = subprocess.run([str(exe), "--selfcheck"], env=child_env()).returncode == 0
    log("repeatability and held-out seed")
    for w in WORKLOADS:
        a, ea = run_workload(exe, w, 1, 1, 0)
        b, eb = run_workload(exe, w, 1, 1, 0)
        c, _ = run_workload(exe, w, HELD_OUT_SEED, 1, 0)
        if not (a and b and c):
            ok = False
            continue
        same = all(a["metrics"][m]["value"] == b["metrics"][m]["value"] for m in SIMULATED)
        same = same and digest(ea) is not None and digest(ea) == digest(eb)
        held = c["correct"] and c["failed"] == 0
        log(f"  {'PASS' if same else 'FAIL'}  {w}: same seed, identical simulated "
            f"metrics and solution digest")
        log(f"  {'PASS' if held else 'FAIL'}  {w}: seed {HELD_OUT_SEED} passes every check")
        ok = ok and same and held
    log("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


def report(exe, seed):
    """Every metric of every workload, untraced then traced, as markdown."""
    for w in WORKLOADS:
        print(f"\n### {w} (seed {seed})\n\n| metric | value | unit |\n|---|---|---|")
        for trace in (0, 1):
            res, _ = run_workload(exe, w, seed, 20, trace)
            if not res:
                return 1
            for name, m in res["metrics"].items():
                print(f"| {name} | {m['value']:.6g} | {m['unit']} |")
            print(f"| (trace {trace}) attempted / failed | {res['attempted']} / "
                  f"{res['failed']} | ops |")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--report", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.selfcheck or args.report):
        ap.error("one of --workload, --selfcheck or --report is required")

    exe = build()
    if exe is None:
        return 1
    if args.selfcheck:
        return selfcheck(exe)
    if args.report:
        return report(exe, args.seed)
    res, err = run_workload(exe, args.workload, args.seed, args.seconds, args.trace)
    if res is None:
        return 1
    log(err.rstrip())
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
