#!/usr/bin/env python3
"""Scatter end-to-end benchmark: CPU per completed client op on three
workloads, with per-layer counters and a gprof-traced run.

  python3 perfbench/run.py --workload kv-write|chirpchat|churn --seed N
                           --seconds S --trace 0|1

Builds the driver from the checkout's sources on first use, runs it, checks
the outputs (linearizability, staleness, ring cover, replica agreement,
determinism across repetitions) and prints the metrics, each with its unit,
ending with one JSON line:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Definitions are in perfbench/README.md.
"""

import argparse
import json
import os
import sys
import time

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402
import trace_layers  # noqa: E402

# Wall-clock budget of one run after the build; a run that would overstay
# it is stopped and reports no result.
RUN_BUDGET_S = 170


def end_to_end(r):
    """(name, value, unit, note) rows of the untraced run."""
    ops_per_s = r["completed"] / r["measure_sim_s"]
    return [
        ("cpu_us_per_op", r["cpu_us_per_op"], "us",
         "at reference speed; as run: median %.2f of %d repetitions "
         "(%.1f-%.1f), reference kernel %.1f ms"
         % (r["cpu_us_per_op_raw"], r["reps"], min(r["cpu_us_per_op_reps"]),
            max(r["cpu_us_per_op_reps"]), r["reference_s"] * 1e3)),
        ("setup_s", r["setup_s"], "s",
         "at reference speed; as run: median %.4f of %d set-ups"
         % (r["setup_s_raw"], r["setup_samples"])),
        ("peak_rss_mb", r["peak_rss_mb"], "MiB",
         "ru_maxrss after the first measured window"),
        ("sim_ops_per_s", ops_per_s, "ops/s",
         "%d ops in %g simulated s" % (r["completed"], r["measure_sim_s"])),
    ] + [("%s_%s_ms" % (kind, q), r[kind][q + "_ms"], "ms",
          "n=%d %ss" % (r[kind]["count"], kind))
         for kind in ("read", "write") for q in ("p50", "p999")]


def ratio(num, den, empty):
    return num / den if den else empty


def per_layer(t):
    """(name, value, unit, note) rows of the traced run. Counts are pooled
    over the -pg run's repetitions; they repeat exactly per seed."""
    r = t["traced"]
    c = r["counters"]
    ops = max(r["completed"], 1)

    def per_op(key):
        return c.get(key, 0.0) / ops

    phases = r["phases"]
    rows = [
        ("sim.events_per_op", per_op("events"), "count", ""),
        ("sim.msgs_per_op", per_op("msgs"), "count", ""),
        ("wire.frames_per_op", per_op("wire.frames_serialized"), "count", ""),
        ("wire.bytes_per_op", per_op("wire.bytes_serialized"), "B", ""),
        ("wire.pool_hit_ratio",
         ratio(c["wire.pool.hit"], c["wire.pool.hit"] + c["wire.pool.miss"],
               0.0), "ratio", ""),
        ("storage.wal_appends_per_op", per_op("wal.appends"), "count", ""),
        ("storage.fsyncs_per_op", per_op("wal.fsyncs"), "count", ""),
        ("storage.wal_bytes_per_op", per_op("wal.bytes"), "B", ""),
        ("storage.group_commit_batch",
         ratio(c["wal.appends"], c["wal.fsyncs"], 0.0), "count",
         "WAL appends per fsync"),
        ("paxos.log_at_calls_per_op", t["log_at_calls_per_op"], "count", ""),
        ("paxos.accepts_per_op", per_op("paxos.accepts_sent"), "count", ""),
        ("paxos.entries_per_accept",
         ratio(c["paxos.accept_entries_sent"], c["paxos.accepts_sent"], 0.0),
         "count", "empty commit-notify Accepts included"),
        ("paxos.acks_per_op", per_op("paxos.acks_sent"), "count", ""),
        ("paxos.lease_read_ratio",
         ratio(c["paxos.lease_reads"],
               c["paxos.lease_reads"] + c["paxos.barrier_reads"], 0.0),
         "ratio", ""),
        ("paxos.elections", c["paxos.elections_started"], "count", ""),
        ("paxos.proposals_failed_per_op", per_op("paxos.proposals_failed"),
         "count", ""),
        ("paxos.snapshots_installed", c["paxos.snapshots_installed"], "count",
         ""),
        ("membership.joins_ok_ratio",
         ratio(c["joins_succeeded"], c["joins_attempted"], 1.0), "ratio",
         "%d joins" % c["joins_attempted"]),
        ("membership.structural_ops", c["structural_ops"], "count",
         "splits+merges+repartitions+migrations initiated"),
        ("txn.started", c["txn.txns_started"], "count", ""),
        ("txn.commit_ratio",
         ratio(c["txn.txns_committed"], c["txn.txns_started"], 1.0), "ratio",
         ""),
        ("ring.lookups_per_op", per_op("ring.lookups"), "count", ""),
        ("ring.miss_ratio",
         ratio(c["ring.lookup_misses"], c["ring.lookups"], 0.0), "ratio", ""),
        ("core.attempts_per_op", per_op("client.attempts"), "count", ""),
        ("core.redirects_per_op", per_op("client.redirects"), "count", ""),
        ("alloc.count_per_op", r["alloc_count"] / ops, "count", ""),
        ("alloc.bytes_per_op", r["alloc_bytes"] / ops, "B", ""),
        ("failed_frac",
         ratio(r["attempted"] - r["completed"], r["attempted"], 0.0), "ratio",
         "%d of %d" % (r["attempted"] - r["completed"], r["attempted"])),
        ("verify.check_s", r["check_cpu_s"], "s",
         "checker CPU, outside the timed window"),
    ]
    for layer in trace_layers.LAYERS:
        v = t["layers"][layer]
        rows.append((layer + ".self_us_per_op", v["self_us_per_op"], "us", ""))
        rows.append((layer + ".calls_per_op", v["calls_per_op"], "count", ""))
    rows += [
        ("unattributed.us_per_op", t["unattributed_us_per_op"], "us",
         "traced CPU outside scatter:: symbols"),
        ("trace.overhead_ratio", t["overhead_ratio"], "ratio",
         "%.2f / %.2f us per op as run" % (r["cpu_us_per_op_raw"],
                                           t["plain"]["cpu_us_per_op_raw"])),
    ]
    for phase in ("batch_wait", "quorum_commit", "apply", "txn_coordinate"):
        rows.append(("phase.%s_p50_ms" % phase, phases[phase]["p50_ms"], "ms",
                     "n=%d" % phases[phase]["count"]))
    return rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=harness.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        # Both variants are built on the first run, whichever is asked for,
        # so no later run pays for a build.
        plain_bin = harness.build("plain")
        harness.build("gprof")
        deadline = time.monotonic() + RUN_BUDGET_S
        problems = []
        if args.trace:
            t = trace_layers.traced_run(args.workload, args.seed, args.seconds,
                                        deadline)
            result = t["traced"]
            rows = per_layer(t)
            if t["plain"]["digest"] != result["digest"]:
                problems.append("traced and plain builds diverged")
            problems += t["plain"]["problems"]
        else:
            result = harness.run_driver(plain_bin, args.workload, args.seed,
                                        args.seconds, deadline=deadline)
            rows = end_to_end(result)
    except harness.BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    problems += result["problems"]
    print("perfbench %s seed %d: %d repetitions, %d ops attempted, "
          "%d completed, %d node deaths"
          % (args.workload, args.seed, result["reps"], result["attempted"],
             result["completed"], result["deaths"]))
    for name, value, unit, note in rows:
        print("  %-32s %16.6g %-6s %s" % (name, value, unit, note))
    checked = "ring cover and replica agreement after every repetition"
    if result["lin_keys"]:
        checked = ("linearizability of %d ops on %d keys (%d inconclusive); "
                   % (result["lin_ops"], result["lin_keys"],
                      result["lin_inconclusive"])) + checked
    print("  checked: " + checked)
    for p in problems:
        print("  CHECK FAILED: %s" % p)
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["attempted"] - result["completed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
