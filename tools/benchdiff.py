#!/usr/bin/env python3
"""Compare two dsrun stats dumps (dsrun --stats-json output,
docs/OBSERVABILITY.md):

    build/tools/dsrun --system=datascalar --stats-json=a.json ...
    tools/benchdiff.py a.json b.json [--tolerance=0.01]

Every stat field is flattened to group.stat.field and compared
numerically; simulated counters are deterministic, so the default
tolerance is exact. --tolerance accepts a relative bound for
intentionally-perturbed comparisons (e.g. across fault seeds).

Wall-clock stats are the exception: the `profile` group (dsrun
--profile), the server's `latency`/`phases` groups (dsserve op =
stats snapshots), and any stat named *_us measure wall time, which
never repeats exactly. Those keys get their own generous bound,
--wall-tolerance (default 1.0 = a factor of two, with a 1000 us
absolute floor so microsecond-scale phases don't trip it), while the
deterministic counters in the same documents stay exact. This lets
one invocation diff a full --profile dump or two dsserve stats
snapshots without hand-filtering the timing keys.

Exit status: 0 = all stats within tolerance,
1 = at least one difference beyond the bound, 2 = usage/input error.
"""

import argparse
import json
import sys


def input_error(message):
    """Exit 2, the status for a usage or input error."""
    print(f"benchdiff: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        input_error(f"cannot read {path}: {e}")


# Stats groups whose values are wall-clock measurements rather than
# deterministic simulation counters.
_WALL_GROUPS = {"profile", "latency", "phases"}

# Absolute slack (in the stat's own unit, microseconds for every
# wall-clock stat we emit) under which a wall-clock delta is noise
# regardless of its relative size.
_WALL_ABS_FLOOR = 1000.0


def is_wall_clock(key):
    """True for keys measuring wall time: the profile group, the
    server latency/phase groups, and any *_us stat."""
    parts = key.split(".")
    if parts and parts[0] in _WALL_GROUPS:
        return True
    return len(parts) >= 2 and parts[1].endswith("_us")


def flatten_stats(data):
    """group.stat.field -> numeric value for a dsrun stats dump."""
    flat = {}
    for group, stats in data.get("groups", {}).items():
        for stat, fields in stats.items():
            for field, value in fields.items():
                key = f"{group}.{stat}.{field}"
                if isinstance(value, list):
                    for i, v in enumerate(value):
                        flat[f"{key}[{i}]"] = float(v)
                else:
                    flat[key] = float(value)
    return flat


def diff_stats(base_data, cur_data, tolerance, wall_tolerance):
    base = flatten_stats(base_data)
    cur = flatten_stats(cur_data)
    if not base or not cur:
        input_error("no stats in one of the inputs")

    diffs = []
    print(f"{'stat':<52} {'baseline':>14} {'current':>14} "
          f"{'delta':>12}")
    for key in sorted(base):
        if key not in cur:
            print(f"{key:<52} {'(missing in current)':>42}")
            diffs.append((key, None))
            continue
        b, c = base[key], cur[key]
        delta = c - b
        rel = abs(delta) / abs(b) if b != 0 else float("inf")
        if is_wall_clock(key):
            within = (rel <= wall_tolerance or
                      abs(delta) <= _WALL_ABS_FLOOR)
        else:
            within = delta == 0 or rel <= tolerance
        if not within:
            diffs.append((key, delta))
        if delta != 0:
            mark = "" if within else "  DIFF"
            print(f"{key:<52} {b:>14.6g} {c:>14.6g} "
                  f"{delta:>+12.6g}{mark}")
    for key in sorted(set(cur) - set(base)):
        print(f"{key:<52} {'(new, no baseline)':>42}")

    if diffs:
        print(f"\n{len(diffs)} stat(s) beyond tolerance "
              f"{tolerance:g} (wall-clock: {wall_tolerance:g}):",
              file=sys.stderr)
        for key, delta in diffs:
            what = "missing" if delta is None else f"{delta:+g}"
            print(f"  {key}: {what}", file=sys.stderr)
        return 1
    print(f"\nall stats within tolerance {tolerance:g}")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="diff two dsrun stats JSON dumps")
    ap.add_argument("baseline", help="reference JSON dump")
    ap.add_argument("current", help="candidate JSON dump")
    ap.add_argument("--tolerance", type=float, default=0.0,
                    help="relative per-stat bound (default: exact)")
    ap.add_argument("--wall-tolerance", type=float, default=1.0,
                    help="relative bound for wall-clock stats "
                         "(profile/latency/phases groups, *_us "
                         "stats; 1000 us absolute floor applies, "
                         "default: %(default)s)")
    args = ap.parse_args()
    if args.tolerance < 0:
        ap.error("--tolerance must be >= 0")
    if args.wall_tolerance < 0:
        ap.error("--wall-tolerance must be >= 0")

    return diff_stats(load_json(args.baseline), load_json(args.current),
                      args.tolerance, args.wall_tolerance)


if __name__ == "__main__":
    sys.exit(main())
