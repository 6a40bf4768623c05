#!/usr/bin/env python3
"""Validate a BDS Chrome trace_event JSON file and print a per-phase summary.

Usage:
    tools/trace_summary.py TRACE.json [--quiet] [--max-dropped N]
    tools/trace_summary.py --self-test

A run that dropped trace events (ring overflow) still validates, but a
WARNING goes to stderr: totals in the tables are undercounts. Pass
--max-dropped 0 to turn the warning into a failure.

Checks (exit 1 on the first violation):
  * top-level object with a `traceEvents` list and `otherData.dropped_events`
  * every event has name/cat/ph/pid/tid/ts with the right types
  * `ph` is "X" (complete span, requires numeric `dur` >= 0) or "i" (instant)
  * timestamps are non-negative and spans are monotone-sane (ts + dur finite)
  * dropped_events <= --max-dropped (default: unlimited, only reported)

Then prints one table row per (category, name): event count, total time and
mean of "X" spans, so `fptas.solve` vs `scheduler.schedule` time is readable
straight from a quickstart/CI artifact. Instant events that carry numeric
args get a third table summing each arg across the run.
"""

import argparse
import collections
import json
import math
import sys

REQUIRED_EVENT_KEYS = ("name", "cat", "ph", "pid", "tid", "ts")


def fail(msg: str) -> "None":
    print(f"trace_summary: INVALID: {msg}", file=sys.stderr)
    sys.exit(1)


def validate_event(i: int, ev) -> None:
    if not isinstance(ev, dict):
        fail(f"traceEvents[{i}] is not an object")
    for key in REQUIRED_EVENT_KEYS:
        if key not in ev:
            fail(f"traceEvents[{i}] missing key {key!r}")
    if not isinstance(ev["name"], str) or not ev["name"]:
        fail(f"traceEvents[{i}] has a non-string or empty name")
    if not isinstance(ev["cat"], str):
        fail(f"traceEvents[{i}] has a non-string cat")
    if not isinstance(ev["pid"], int) or not isinstance(ev["tid"], int):
        fail(f"traceEvents[{i}] pid/tid must be integers")
    ts = ev["ts"]
    if not isinstance(ts, (int, float)) or not math.isfinite(ts) or ts < 0:
        fail(f"traceEvents[{i}] has bad ts {ts!r}")
    ph = ev["ph"]
    if ph == "X":
        dur = ev.get("dur")
        if not isinstance(dur, (int, float)) or not math.isfinite(dur) or dur < 0:
            fail(f"traceEvents[{i}] ph=X requires finite dur >= 0, got {dur!r}")
        if not math.isfinite(ts + dur):
            fail(f"traceEvents[{i}] span end overflows")
    elif ph == "i":
        pass
    else:
        fail(f"traceEvents[{i}] has unsupported ph {ph!r}")
    args = ev.get("args")
    if args is not None and not isinstance(args, dict):
        fail(f"traceEvents[{i}] args must be an object")


def self_test() -> int:
    """Round-trips a synthetic trace through the validator: a clean file must
    pass quietly, a dropped-events file must warn, and a malformed event must
    fail. Exercised under ctest so the tool can't rot silently."""
    import io
    import tempfile

    def run(doc, argv_extra=()):
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            json.dump(doc, f)
            path = f.name
        old_err, sys.stderr = sys.stderr, io.StringIO()
        old_out, sys.stdout = sys.stdout, io.StringIO()
        code = 0
        try:
            code = check(path, quiet=True, max_dropped=None)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        finally:
            err = sys.stderr.getvalue()
            sys.stderr = old_err
            sys.stdout = old_out
        return code, err

    span = {"name": "solve", "cat": "fptas", "ph": "X",
            "pid": 1, "tid": 1, "ts": 0, "dur": 5}
    clean = {"traceEvents": [span], "otherData": {"dropped_events": 0}}
    code, err = run(clean)
    assert code == 0 and "WARNING" not in err, (code, err)

    dropped = {"traceEvents": [span], "otherData": {"dropped_events": 7}}
    code, err = run(dropped)
    assert code == 0 and "WARNING" in err and "7" in err, (code, err)

    bad = {"traceEvents": [{"name": "x", "cat": "c", "ph": "?",
                            "pid": 1, "tid": 1, "ts": 0}],
           "otherData": {"dropped_events": 0}}
    code, err = run(bad)
    assert code == 1 and "INVALID" in err, (code, err)

    print("trace_summary self-test: OK")
    return 0


def main() -> int:
    if "--self-test" in sys.argv[1:]:
        return self_test()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace_event JSON file")
    parser.add_argument("--quiet", action="store_true", help="validate only, no table")
    parser.add_argument(
        "--max-dropped",
        type=int,
        default=None,
        help="fail if more than this many events were dropped",
    )
    opts = parser.parse_args()
    return check(opts.trace, quiet=opts.quiet, max_dropped=opts.max_dropped)


def check(trace: str, quiet: bool, max_dropped) -> int:
    class Opts:
        pass
    opts = Opts()
    opts.trace = trace
    opts.quiet = quiet
    opts.max_dropped = max_dropped

    try:
        with open(opts.trace, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {opts.trace}: {e}")

    if not isinstance(doc, dict):
        fail("top level is not an object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("missing traceEvents list")
    other = doc.get("otherData", {})
    if not isinstance(other, dict):
        fail("otherData is not an object")
    dropped = other.get("dropped_events", 0)
    if not isinstance(dropped, int) or dropped < 0:
        fail(f"bad dropped_events {dropped!r}")
    if opts.max_dropped is not None and dropped > opts.max_dropped:
        fail(f"{dropped} events dropped (max allowed {opts.max_dropped})")
    if dropped > 0:
        # The ring overflowed: the file is valid but incomplete, so every
        # count/total below is an undercount. Loud, on stderr, every time.
        print(f"trace_summary: WARNING: {dropped} trace events were dropped "
              f"(ring overflow) — span/instant totals are undercounts",
              file=sys.stderr)

    spans = collections.defaultdict(lambda: {"count": 0, "total_us": 0.0})
    instants = collections.Counter()
    instant_args = collections.defaultdict(float)
    tids = set()
    for i, ev in enumerate(events):
        validate_event(i, ev)
        tids.add(ev["tid"])
        key = (ev["cat"], ev["name"])
        if ev["ph"] == "X":
            spans[key]["count"] += 1
            spans[key]["total_us"] += float(ev["dur"])
        else:
            instants[key] += 1
            for arg, value in (ev.get("args") or {}).items():
                if isinstance(value, (int, float)) and math.isfinite(value):
                    instant_args[key + (arg,)] += value

    print(
        f"{opts.trace}: OK — {len(events)} events "
        f"({sum(s['count'] for s in spans.values())} spans, "
        f"{sum(instants.values())} instants) on {len(tids)} thread(s), "
        f"{dropped} dropped"
    )
    if opts.quiet:
        return 0

    if spans:
        print(f"\n{'category':<12} {'phase':<26} {'count':>7} {'total ms':>10} {'mean ms':>9}")
        for (cat, name), s in sorted(
            spans.items(), key=lambda kv: -kv[1]["total_us"]
        ):
            total_ms = s["total_us"] / 1e3
            mean_ms = total_ms / s["count"]
            print(f"{cat:<12} {name:<26} {s['count']:>7} {total_ms:>10.3f} {mean_ms:>9.4f}")
    if instants:
        print(f"\n{'category':<12} {'instant':<26} {'count':>7}")
        for (cat, name), n in sorted(instants.items(), key=lambda kv: -kv[1]):
            print(f"{cat:<12} {name:<26} {n:>7}")
    if instant_args:
        print(f"\n{'category':<12} {'instant arg':<40} {'sum':>14}")
        for (cat, name, arg), total in sorted(instant_args.items()):
            print(f"{cat:<12} {name + '.' + arg:<40} {total:>14.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
