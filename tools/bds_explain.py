#!/usr/bin/env python3
"""Explain why a transfer was slow, from a flight-recorder JSONL.

Usage:
    tools/bds_explain.py RUN.jsonl TRANSFER_ID    # full lifecycle + diagnosis
    tools/bds_explain.py RUN.jsonl --list [-n N]  # slowest N retained transfers
    tools/bds_explain.py --self-test

RUN.jsonl is the bds-flight-v1 file written by `quickstart --flight-recorder`
(or any caller of FlightRecorder::WriteJsonl). The recorder retains a bounded
set of journals biased toward the interesting tail — slowest completions,
rejected and fault-touched transfers — so the id you want is usually in
`--list` even after a multi-day soak.

The explanation reconstructs the full lifecycle (arrival, admission verdict
with its reason, every per-cycle schedule with its degradation rung, sampled
rate changepoints, fault hits, cancellations, completion) and then names the
dominant bottleneck: admission wait, a degraded scheduling rung, fault-driven
re-plans, rate starvation, or plain transfer volume.
"""

import argparse
import json
import sys


def fail(msg):
    print(f"bds_explain: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    meta = None
    transfers = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            for i, line in enumerate(f):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    fail(f"{path}:{i + 1}: not JSON: {e}")
                kind = rec.get("kind")
                if kind == "meta":
                    if rec.get("schema") != "bds-flight-v1":
                        fail(f"{path}: unsupported schema {rec.get('schema')!r}")
                    meta = rec
                elif kind == "transfer":
                    transfers[int(rec["job"])] = rec
                else:
                    fail(f"{path}:{i + 1}: unknown kind {kind!r}")
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    if meta is None:
        fail(f"{path}: missing bds-flight-v1 meta line")
    return meta, transfers


def fmt_t(t):
    if t >= 3600:
        return f"{t / 3600:.2f}h"
    if t >= 60:
        return f"{t / 60:.2f}m"
    return f"{t:.2f}s"


def describe(ev):
    e = ev["e"]
    if e == "arrival":
        return (f"arrived: src_dc={ev.get('src_dc')} dests={ev.get('dests')} "
                f"blocks={ev.get('blocks')} bytes={ev.get('bytes'):.3g}")
    if e == "admission":
        return (f"admission: {ev.get('verdict')} ({ev.get('reason')}), "
                f"backlog={ev.get('backlog')} deliveries")
    if e == "schedule":
        return (f"scheduled: cycle={ev.get('cycle')} rung={ev.get('rung')} "
                f"{ev.get('src')}->{ev.get('dst')} "
                f"rate={ev.get('rate', 0.0):.3g} B/s blocks={ev.get('blocks')}")
    if e == "rate_change":
        return (f"rate change: {ev.get('old_rate', 0.0):.3g} -> "
                f"{ev.get('new_rate', 0.0):.3g} B/s")
    if e == "fault":
        return f"fault hit: {ev.get('fault')} (subject {ev.get('subject')})"
    if e == "cancel":
        return (f"cancelled: {ev.get('reason')} "
                f"(credited {ev.get('credited')} full blocks)")
    if e == "completion":
        return f"completed in {fmt_t(ev.get('duration_s', 0.0))}"
    if e == "retire":
        return "retired (bounded-memory cleanup)"
    return f"{e}: {ev}"


def diagnose(journal):
    """Returns (bottleneck, detail_lines). Heuristic, but grounded: every
    claim points at events visible in the timeline above it."""
    events = journal.get("events", [])
    by_kind = {}
    for ev in events:
        by_kind.setdefault(ev["e"], []).append(ev)

    notes = []
    candidates = []  # (weight_seconds_or_priority, name, explanation)

    if journal.get("rejected"):
        verdicts = [e for e in by_kind.get("admission", [])
                    if e.get("verdict") == "reject"]
        reason = verdicts[-1].get("reason") if verdicts else "unknown"
        return ("rejected by admission control",
                [f"the job was rejected ({reason}); it never transferred"])

    arrival_t = by_kind["arrival"][0]["t"] if "arrival" in by_kind else None
    schedules = by_kind.get("schedule", [])
    first_sched_t = schedules[0]["t"] if schedules else None

    # Admission / scheduling wait: arrival -> first schedule.
    if arrival_t is not None and first_sched_t is not None:
        wait = first_sched_t - arrival_t
        defers = [e for e in by_kind.get("admission", [])
                  if e.get("verdict") == "defer"]
        if defers:
            notes.append(f"deferred {len(defers)}x by admission "
                         f"({defers[0].get('reason')}) before acceptance")
        if wait > 0:
            what = "admission deferral" if defers else "scheduling backlog"
            candidates.append((wait, f"waiting before first schedule ({what})",
                               f"{fmt_t(wait)} from arrival to the first "
                               f"scheduled transfer"))

    # Degraded rungs: scheduled while the controller was shedding load.
    degraded = [e for e in schedules if e.get("rung") not in (None, "normal")]
    if degraded:
        rungs = sorted({e["rung"] for e in degraded})
        span = degraded[-1]["t"] - degraded[0]["t"]
        candidates.append((max(span, 1.0),
                           "controller overload (degraded scheduling)",
                           f"{len(degraded)}/{len(schedules)} schedule events "
                           f"ran at degraded rung(s) {', '.join(rungs)}"))

    # Faults and the re-plans they forced.
    faults = by_kind.get("fault", [])
    cancels = by_kind.get("cancel", [])
    if faults or cancels:
        kinds = {}
        for e in faults:
            kinds[e.get("fault")] = kinds.get(e.get("fault"), 0) + 1
        for e in cancels:
            kinds[e.get("reason")] = kinds.get(e.get("reason"), 0) + 1
        desc = ", ".join(f"{k} x{v}" for k, v in sorted(kinds.items()))
        # A cancel forces the remaining blocks back through a later cycle:
        # weight by observed time between first fault/cancel and completion.
        t0 = min(e["t"] for e in faults + cancels)
        t1 = events[-1]["t"]
        candidates.append((max(t1 - t0, 1.0), "faults forcing re-plans",
                           f"{len(faults)} fault hit(s), {len(cancels)} "
                           f"cancellation(s): {desc}"))

    # Rate starvation: the sampled changepoints trended low.
    rates = [e.get("new_rate", 0.0) for e in by_kind.get("rate_change", [])]
    rates += [e.get("rate", 0.0) for e in schedules]
    positive = [r for r in rates if r > 0.0]
    if positive:
        peak, low = max(positive), min(positive)
        if low < 0.25 * peak:
            candidates.append((1.0, "rate starvation",
                               f"allocated rate swung {low:.3g} .. {peak:.3g} "
                               f"B/s (changepoints sampled at >=25% moves)"))

    if not candidates:
        candidates.append((0.0, "transfer volume",
                           "no waits, faults, or degradation recorded; the "
                           "duration is the data moving at the offered rate"))
    candidates.sort(key=lambda c: -c[0])
    bottleneck = candidates[0][1]
    detail = [f"{name}: {expl}" for _, name, expl in candidates]
    return bottleneck, notes + detail


def explain(meta, transfers, job):
    if job not in transfers:
        retained = ", ".join(str(j) for j in sorted(transfers)[:16])
        fail(f"transfer {job} is not in the retained set "
             f"({meta.get('transfers')} retained, "
             f"{meta.get('dropped_transfers', 0)} dropped, "
             f"{meta.get('evicted_transfers', 0)} evicted); "
             f"some retained ids: {retained}")
    j = transfers[job]
    status = "completed" if j.get("completed") else \
        ("rejected" if j.get("rejected") else "incomplete at run end")
    print(f"transfer {job}: {status}", end="")
    if j.get("completed"):
        print(f" in {fmt_t(j.get('duration_s', 0.0))}", end="")
    if j.get("fault_touched"):
        print("  [fault-touched]", end="")
    print()
    if j.get("dropped_events", 0) > 0:
        print(f"  (journal truncated: {j['dropped_events']} events dropped)")
    print("\ntimeline:")
    for ev in j.get("events", []):
        print(f"  {fmt_t(ev['t']):>9}  {describe(ev)}")
    bottleneck, detail = diagnose(j)
    print(f"\nbottleneck: {bottleneck}")
    for line in detail:
        print(f"  - {line}")
    return 0


def list_transfers(meta, transfers, n):
    print(f"{meta.get('transfers')} retained journals "
          f"({meta.get('dropped_transfers', 0)} dropped, "
          f"{meta.get('evicted_transfers', 0)} evicted, "
          f"{meta.get('rate_events_dropped', 0)} rate changepoints dropped)")
    rows = sorted(transfers.values(),
                  key=lambda t: -t.get("duration_s", 0.0))[:n]
    print(f"{'job':>10} {'status':>10} {'duration':>10} {'events':>7} flags")
    for t in rows:
        status = ("done" if t.get("completed")
                  else "rejected" if t.get("rejected") else "open")
        flags = "fault" if t.get("fault_touched") else ""
        print(f"{t['job']:>10} {status:>10} "
              f"{fmt_t(t.get('duration_s', 0.0)):>10} "
              f"{len(t.get('events', [])):>7} {flags}")
    return 0


def self_test():
    import tempfile
    lines = [
        {"kind": "meta", "schema": "bds-flight-v1", "transfers": 2,
         "events": 9, "dropped_events": 0, "dropped_transfers": 0,
         "evicted_transfers": 0, "rate_events_dropped": 0},
        {"kind": "transfer", "job": 7, "rejected": False,
         "fault_touched": True, "completed": True, "duration_s": 900.0,
         "dropped_events": 0, "events": [
             {"e": "arrival", "t": 0.0, "src_dc": 0, "dests": 2,
              "blocks": 10, "bytes": 1e8},
             {"e": "admission", "t": 0.0, "verdict": "defer",
              "reason": "max_backlog_cycles", "backlog": 900},
             {"e": "admission", "t": 300.0, "verdict": "accept",
              "reason": "under_budget", "backlog": 10},
             {"e": "schedule", "t": 300.0, "cycle": 100, "rung": "first_route_only",
              "src": 0, "dst": 4, "rate": 1e6, "blocks": 10},
             {"e": "fault", "t": 500.0, "fault": "link_down", "subject": 3},
             {"e": "cancel", "t": 500.0, "reason": "link_down", "credited": 4},
             {"e": "schedule", "t": 503.0, "cycle": 168, "rung": "normal",
              "src": 1, "dst": 4, "rate": 8e5, "blocks": 6},
             {"e": "completion", "t": 900.0, "duration_s": 900.0}]},
        {"kind": "transfer", "job": 8, "rejected": True,
         "fault_touched": False, "completed": False, "duration_s": 0.0,
         "dropped_events": 0, "events": [
             {"e": "admission", "t": 10.0, "verdict": "reject",
              "reason": "defer_overflow", "backlog": 5000}]},
    ]
    with tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False) as f:
        for line in lines:
            f.write(json.dumps(line) + "\n")
        path = f.name

    meta, transfers = load(path)
    assert set(transfers) == {7, 8}, transfers

    import io
    out, sys.stdout = sys.stdout, io.StringIO()
    try:
        explain(meta, transfers, 7)
        text = sys.stdout.getvalue()
    finally:
        sys.stdout = out
    for needle in ("completed in 15.00m", "fault-touched", "link_down",
                   "deferred 1x", "bottleneck:", "max_backlog_cycles",
                   "first_route_only"):
        assert needle in text, f"missing {needle!r} in:\n{text}"

    out, sys.stdout = sys.stdout, io.StringIO()
    try:
        explain(meta, transfers, 8)
        text = sys.stdout.getvalue()
    finally:
        sys.stdout = out
    assert "rejected by admission control" in text, text
    assert "defer_overflow" in text, text

    out, sys.stdout = sys.stdout, io.StringIO()
    try:
        list_transfers(meta, transfers, 10)
        text = sys.stdout.getvalue()
    finally:
        sys.stdout = out
    assert "2 retained journals" in text, text

    print("bds_explain self-test: OK")
    return 0


def main():
    if "--self-test" in sys.argv[1:]:
        return self_test()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("run", help="bds-flight-v1 JSONL file")
    parser.add_argument("transfer", nargs="?", type=int,
                        help="transfer (job) id to explain")
    parser.add_argument("--list", action="store_true",
                        help="list retained transfers, slowest first")
    parser.add_argument("-n", type=int, default=20,
                        help="rows for --list (default 20)")
    opts = parser.parse_args()
    meta, transfers = load(opts.run)
    if opts.list or opts.transfer is None:
        return list_transfers(meta, transfers, opts.n)
    return explain(meta, transfers, opts.transfer)


if __name__ == "__main__":
    sys.exit(main())
