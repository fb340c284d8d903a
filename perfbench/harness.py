"""Builds and runs the scatter_perfbench driver (shared by run.py and
trace_layers.py).

Both variants build from the sources in the checkout into .bench_build/:
`plain` (optimised, the end-to-end numbers) and `gprof` (the same flags plus
-pg, the per-layer numbers). A build that is up to date costs one ninja no-op.
"""

import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("kv-write", "chirpchat", "churn")
BUILD_JOBS = "4"


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, failed build
    or crashed driver)."""


def require_sources():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("Scatter sources not found under %s/src" % ROOT)


def build(variant):
    """Configures (once) and builds one variant; returns the binary path."""
    require_sources()
    build_dir = os.path.join(BUILD_ROOT, "perfbench-" + variant)
    log_path = os.path.join(BUILD_ROOT, "perfbench-%s.log" % variant)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gprof = "ON" if variant == "gprof" else "OFF"
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release", "-DPERFBENCH_GPROF=" + gprof]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "-j", BUILD_JOBS,
                  "--target", "scatter_perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build of %s variant failed (log: %s)"
                                 % (variant, log_path))
    return os.path.join(build_dir, "scatter_perfbench")


def remaining(deadline):
    """Seconds left before `deadline` (a time.monotonic() value), for a
    subprocess timeout; None when there is no deadline."""
    if deadline is None:
        return None
    return max(deadline - time.monotonic(), 1.0)


def run_driver(binary, workload, seed, seconds, extra=(), cwd=None,
               deadline=None):
    """Runs the driver once and returns its JSON result."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)] + list(extra)
    try:
        proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                              timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError("driver timed out: %s" % " ".join(cmd))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError("driver exited with %d: %s"
                         % (proc.returncode, " ".join(cmd)))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("driver printed nothing: %s" % " ".join(cmd))
    return json.loads(lines[-1])
