#!/usr/bin/env python3
"""Traced run: where does a client op's CPU go, layer by layer?

Builds the benchmark driver with -pg (.bench_build/perfbench-gprof), runs one
workload with profiling switched on only inside the measured windows, and
rolls gprof's flat profile (self time and call counts per function) up by
layer. A layer is a `scatter::<module>::` namespace, named after the modules
in scripts/layers.json; functions directly in `scatter::` live in
src/common. Lambda bodies are charged to the module of the function that
wrote them, even when the compiler placed them inside a std::function or
EventFn invoker. Everything else (libstdc++ templates, libc, the profiler's
own mcount, the driver) is `unattributed`.

It also runs the plain build for the same seed, so that
trace.overhead_ratio = traced CPU per op / untraced CPU per op.

Usage (from the repository root):
  python3 perfbench/trace_layers.py --workload kv-write --seed 1 [--seconds 10]
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402

LAYERS = ("sim", "wire", "rpc", "ring", "storage", "paxos", "store",
          "membership", "txn", "core", "churn", "obs", "verify", "workload",
          "common")
UNATTRIBUTED = "unattributed"

_FLAT_LINE = re.compile(
    r"^\s*(\d+\.\d+)\s+(\d+\.\d+)\s+(\d+\.\d+)\s+"
    r"(?:(\d+)\s+(\d+\.\d+)\s+(\d+\.\d+)\s+)?(\S.*)$")
_TRAILING_NAME = re.compile(r"([A-Za-z_~][\w:~]*)$")


def _strip_trailing_group(text, open_ch, close_ch):
    """Removes one balanced trailing (...) or <...> group, if present."""
    text = text.rstrip()
    if not text.endswith(close_ch):
        return text
    depth = 0
    for i in range(len(text) - 1, -1, -1):
        if text[i] == close_ch:
            depth += 1
        elif text[i] == open_ch:
            depth -= 1
            if depth == 0:
                return text[:i]
    return text


def _strip_nested(text):
    """Drops every <...> and (...) group, leaving the qualified names."""
    out = []
    depth = 0
    for ch in text:
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            depth = max(depth - 1, 0)
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def _qualified_name(symbol):
    """The function's own qualified name, without return type, template
    arguments or parameters."""
    cut = symbol.find("{lambda")
    if cut >= 0:
        # "...Enclosing::Function(params)::{lambda..." -> Enclosing::Function
        head = symbol[:cut].rstrip(":")
        head = _strip_trailing_group(head, "(", ")")
        head = _strip_trailing_group(head, "<", ">")
        m = _TRAILING_NAME.search(head)
        return m.group(1) if m else ""
    # "operator()" and friends would otherwise lose their parentheses.
    flat = _strip_nested(symbol.replace("operator()", "operator"))
    names = [tok for tok in flat.split() if "::" in tok]
    return names[-1] if names else flat.strip()


def layer_of(symbol):
    name = _qualified_name(symbol)
    if not name.startswith("scatter::"):
        return UNATTRIBUTED
    module = name.split("::")[1]
    return module if module in LAYERS else "common"


def parse_flat_profile(text):
    """[(self_seconds, calls, symbol)] from `gprof -b -p` output."""
    rows = []
    for line in text.splitlines():
        m = _FLAT_LINE.match(line)
        if m:
            calls = int(m.group(4)) if m.group(4) else 0
            rows.append((float(m.group(3)), calls, m.group(7).strip()))
    return rows


def rollup(rows):
    """Per-layer self seconds and call counts, plus the named hot spots."""
    layers = {name: {"self_s": 0.0, "calls": 0}
              for name in LAYERS + (UNATTRIBUTED,)}
    log_at_calls = 0
    for self_s, calls, symbol in rows:
        layer = layers[layer_of(symbol)]
        layer["self_s"] += self_s
        layer["calls"] += calls
        if _qualified_name(symbol) == "scatter::paxos::Log::At":
            log_at_calls += calls
    return layers, log_at_calls


def profile(workload, seed, seconds, deadline=None):
    """Runs the -pg driver and returns (driver result, layer rollup,
    Log::At calls, sampled seconds)."""
    binary = harness.build("gprof")
    run_dir = os.path.join(harness.BUILD_ROOT, "gprof-run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        result = harness.run_driver(binary, workload, seed, seconds,
                                    extra=["--phases"], cwd=run_dir,
                                    deadline=deadline)
        gmon = os.path.join(run_dir, "gmon.out")
        if not os.path.isfile(gmon):
            raise harness.BenchError("the -pg driver wrote no gmon.out")
        try:
            flat = subprocess.run(
                ["gprof", "-b", "-p", "--demangle", binary, gmon],
                capture_output=True, text=True,
                timeout=harness.remaining(deadline))
        except subprocess.TimeoutExpired:
            raise harness.BenchError("gprof timed out")
        if flat.returncode != 0:
            raise harness.BenchError("gprof failed: " + flat.stderr[-2000:])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    rows = parse_flat_profile(flat.stdout)
    layers, log_at_calls = rollup(rows)
    return result, layers, log_at_calls, sum(r[0] for r in rows)


def traced_run(workload, seed, seconds, deadline=None):
    """Plain run + -pg run of one seed. Returns a dict with both driver
    results and the per-layer attribution (all per completed op)."""
    plain = harness.run_driver(harness.build("plain"), workload, seed, seconds,
                               deadline=deadline)
    traced, layers, log_at_calls, sampled_s = profile(workload, seed, seconds,
                                                      deadline)
    ops = max(traced["completed"], 1)
    traced_cpu_us = traced["cpu_us_per_op_pooled"]
    per_layer = {name: {"self_us_per_op": v["self_s"] * 1e6 / ops,
                        "calls_per_op": v["calls"] / ops}
                 for name, v in layers.items()}
    attributed = sum(v["self_us_per_op"] for k, v in per_layer.items()
                     if k != UNATTRIBUTED)
    return {
        "plain": plain,
        "traced": traced,
        "layers": per_layer,
        "log_at_calls_per_op": log_at_calls / ops,
        "sampled_s": sampled_s,
        "traced_cpu_us_per_op": traced_cpu_us,
        # Traced CPU outside every scatter:: symbol, the profiler included.
        "unattributed_us_per_op": max(traced_cpu_us - attributed, 0.0),
        "overhead_ratio": (traced["cpu_us_per_op_raw"] /
                           plain["cpu_us_per_op_raw"]),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=harness.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    try:
        t = traced_run(args.workload, args.seed, args.seconds)
    except harness.BenchError as e:
        sys.stderr.write("trace_layers: %s\n" % e)
        return 1
    total = t["traced_cpu_us_per_op"]
    print("%s seed %d: traced %.2f us/op, untraced %.2f us/op, "
          "overhead x%.2f, %.2f s sampled"
          % (args.workload, args.seed, total, t["plain"]["cpu_us_per_op_raw"],
             t["overhead_ratio"], t["sampled_s"]))
    print("%-13s %12s %8s %14s" % ("layer", "self us/op", "share", "calls/op"))
    rows = [(k, v) for k, v in t["layers"].items() if k != UNATTRIBUTED]
    rows.sort(key=lambda kv: -kv[1]["self_us_per_op"])
    rows.append((UNATTRIBUTED, {"self_us_per_op": t["unattributed_us_per_op"],
                                "calls_per_op":
                                    t["layers"][UNATTRIBUTED]["calls_per_op"]}))
    for name, v in rows:
        print("%-13s %12.3f %7.1f%% %14.1f"
              % (name, v["self_us_per_op"],
                 100.0 * v["self_us_per_op"] / total if total else 0.0,
                 v["calls_per_op"]))
    print("paxos::Log::At calls/op: %.1f" % t["log_at_calls_per_op"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
