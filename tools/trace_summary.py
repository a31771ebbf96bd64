#!/usr/bin/env python3
"""Summarise a riskan chrome://tracing export.

Reads the JSON array written by RISKAN_TRACE=<file> / ObsConfig::trace_path
and prints:

  * the top spans by self-time (duration minus time covered by nested spans
    on the same pid/tid), aggregated per span name;
  * per-lane utilisation: for every pid (0 = engine, 1+k = dist worker k),
    the fraction of the trace's wall-clock covered by at least one span,
    plus the lane's instant-event counts (lease grants, expiries, ...);
  * which stage-2 kernel ran: the host executors mark every execution with
    an exec.simd.isa.<scalar|avx2|neon> instant, tallied on one line.

Usage:  python3 tools/trace_summary.py trace.json [--top N]
"""

import argparse
import json
import sys
from collections import defaultdict


def load_events(path):
    with open(path, "r", encoding="utf-8") as f:
        events = json.load(f)
    if not isinstance(events, list):
        raise SystemExit(f"{path}: expected a chrome-trace JSON array")
    return events


def lane_label(pid, names):
    if pid in names:
        return names[pid]
    return "engine" if pid == 0 else f"worker {pid - 1}"


def self_times(spans):
    """Per-name total duration and self-time.

    Spans are grouped per (pid, tid); within a group, a span's self-time is
    its duration minus the union of enclosed child spans (the trace comes
    from RAII scopes, so spans on one thread nest rather than overlap).
    """
    totals = defaultdict(float)  # name -> summed duration (us)
    selfs = defaultdict(float)   # name -> summed self-time (us)
    counts = defaultdict(int)

    by_thread = defaultdict(list)
    for s in spans:
        by_thread[(s["pid"], s["tid"])].append(s)

    for group in by_thread.values():
        group.sort(key=lambda s: (s["ts"], -s["dur"]))
        stack = []  # enclosing spans; child time accrues to the direct parent
        child_time = {}  # id(span) -> us covered by children
        for s in group:
            end = s["ts"] + s["dur"]
            while stack and s["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]:
                stack.pop()
            if stack and end <= stack[-1]["ts"] + stack[-1]["dur"]:
                child_time[id(stack[-1])] = child_time.get(id(stack[-1]), 0.0) + s["dur"]
            stack.append(s)
        for s in group:
            totals[s["name"]] += s["dur"]
            selfs[s["name"]] += s["dur"] - child_time.get(id(s), 0.0)
            counts[s["name"]] += 1
    return totals, selfs, counts


def lane_utilisation(spans, instants):
    """Per-pid covered-time fraction and instant counts."""
    if not spans and not instants:
        return {}, 0.0
    t0 = min(
        [s["ts"] for s in spans] + [i["ts"] for i in instants], default=0.0
    )
    t1 = max(
        [s["ts"] + s["dur"] for s in spans] + [i["ts"] for i in instants],
        default=0.0,
    )
    wall = max(t1 - t0, 1e-9)

    lanes = {}
    by_lane = defaultdict(list)
    for s in spans:
        by_lane[s["pid"]].append((s["ts"], s["ts"] + s["dur"]))
    for pid, intervals in by_lane.items():
        intervals.sort()
        covered = 0.0
        cur_lo, cur_hi = intervals[0]
        for lo, hi in intervals[1:]:
            if lo > cur_hi:
                covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        covered += cur_hi - cur_lo
        lanes[pid] = {"covered_us": covered, "busy": covered / wall, "instants": {}}

    for i in instants:
        lane = lanes.setdefault(
            i["pid"], {"covered_us": 0.0, "busy": 0.0, "instants": {}}
        )
        lane["instants"][i["name"]] = lane["instants"].get(i["name"], 0) + 1
    return lanes, wall


KERNEL_PREFIX = "exec.simd.isa."


def kernel_tally(instants):
    """Executions per stage-2 kernel, from the executors' ISA instants."""
    tally = defaultdict(int)
    for i in instants:
        if i["name"].startswith(KERNEL_PREFIX):
            tally[i["name"][len(KERNEL_PREFIX):]] += 1
    return tally


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="chrome-trace JSON file")
    parser.add_argument("--top", type=int, default=15, help="rows in the span table")
    args = parser.parse_args()

    events = load_events(args.trace)
    spans = [e for e in events if e.get("ph") == "X"]
    instants = [e for e in events if e.get("ph") == "i"]
    process_names = {
        e["pid"]: e["args"]["name"]
        for e in events
        if e.get("ph") == "M" and e.get("name") == "process_name"
    }

    totals, selfs, counts = self_times(spans)
    lanes, wall = lane_utilisation(spans, instants)

    print(f"{args.trace}: {len(spans)} spans, {len(instants)} instants, "
          f"{len(lanes)} lanes, wall {wall / 1e3:.3f} ms")
    kernels = kernel_tally(instants)
    if kernels:
        print("stage-2 kernel: " +
              ", ".join(f"{k}×{c}" for k, c in sorted(kernels.items())))
    print()
    print(f"{'span':<34} {'count':>7} {'total ms':>10} {'self ms':>10} {'self %':>7}")
    total_self = sum(selfs.values()) or 1.0
    ranked = sorted(selfs.items(), key=lambda kv: kv[1], reverse=True)
    for name, self_us in ranked[: args.top]:
        print(f"{name:<34} {counts[name]:>7} {totals[name] / 1e3:>10.3f} "
              f"{self_us / 1e3:>10.3f} {100.0 * self_us / total_self:>6.1f}%")
    if len(ranked) > args.top:
        print(f"... {len(ranked) - args.top} more span names")
    print()
    print(f"{'lane':<12} {'busy ms':>10} {'util %':>7}  instants")
    for pid in sorted(lanes):
        lane = lanes[pid]
        marks = ", ".join(
            f"{n}×{c}" for n, c in sorted(lane["instants"].items())
        ) or "-"
        print(f"{lane_label(pid, process_names):<12} {lane['covered_us'] / 1e3:>10.3f} "
              f"{100.0 * lane['busy']:>6.1f}%  {marks}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
