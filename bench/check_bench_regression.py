#!/usr/bin/env python3
"""Diff a BENCH_*.json run against its checked-in baseline.

Usage: check_bench_regression.py CURRENT... BASELINE
           [--tolerance 0.25] [--min-delta-us 5.0] [--require SUBSTR]

The last positional argument is the baseline; every preceding one is a
current run. With several current runs the per-measurement best is
compared (best-of-N), which strips scheduler noise the way a single
timing sample cannot — CI runs each quick bench three times.

Every measurement carries a direction, "better": "lower" (per-op
timings, call counts) or "higher" (rates, speedups, reductions). The
direction is read from the current runs; a measurement without one, as
in baselines written before the field existed, is a lower-is-better
timing. Best-of-N takes the minimum of a lower-is-better value and the
maximum of a higher-is-better one.

Compares every (config, measurement) mean_us present in both sides. Raw
wall-clock comparisons across different machines would gate on hardware, so
the check normalizes by the run's overall speed shift first:

    ratio(m)  = current / baseline   for "lower"
              = baseline / current   for "higher"
    scale     = median ratio across all shared measurements
    fail when ratio(m) > (1 + tolerance) * scale
         and the value got worse by more than min_delta

so ratio(m) > 1 always means m got worse, a halved MB/s fails like a
doubled latency, and a doubled MB/s passes. On identical hardware
scale ~= 1 and this is a plain >25%-regression gate; on a slower CI
runner every timing and rate shifts together and only an op that
regressed *relative to the rest of the suite* trips the gate. Speedups
and reductions compare two measurements of the same run, so a
machine-wide slowdown mostly cancels out of them and a genuine drop
still sticks out. One that divides a modeled-latency path by a
pure-software one (coldopen's delegated re-open) still moves with CPU
speed, so its software side must be timed over enough iterations.
min_delta (--min-delta-us, in each value's own unit) exists because
quick mode runs ~100x fewer iterations: microsecond-scale ops routinely
swing 2x run to run, so for them the gate only catches
order-of-magnitude blowups; the 25% relative gate bites on values that
dwarf the floor (e.g. seqio's per-page network reads, stripe's MB/s).
The benches' own exit codes check their speedups and reductions against
absolute floors.

--require SUBSTR fails the check (exit 2) unless at least one shared
measurement key contains SUBSTR. A renamed or silently dropped config
otherwise just shrinks the shared set and the diff passes vacuously; the
flag pins configs that must keep being measured, and may be repeated —
every SUBSTR must match, and every unmatched one is reported before the
check exits, saying which side (current run or baseline) lacks the metric
(CI requires seqio's pipeline/depth sweep, coldopen's compound +
delegated_reopen configs, and bench_stripe's width sweep and degraded
config this way).

Exit codes: 0 clean, 1 regression found, 2 usage/shape error.
"""

import json
import statistics
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot load {path}: {e}", file=sys.stderr)
        sys.exit(2)


def flatten(doc, path):
    """Maps "config::op" to (mean_us, better) for every positive mean_us."""
    out = {}
    for config in doc.get("configs", []):
        for op, m in config.get("measurements", {}).items():
            mean = m.get("mean_us", 0.0)
            better = m.get("better", "lower")
            if better not in ("lower", "higher"):
                print(f"error: {path}: {config['name']}::{op} has "
                      f"better={better!r}, want 'lower' or 'higher'",
                      file=sys.stderr)
                sys.exit(2)
            if mean > 0:
                out[f"{config['name']}::{op}"] = (mean, better)
    return out


def main(argv):
    args, flags, requires = [], {}, []
    it = iter(argv[1:])
    for a in it:
        if a.startswith("--"):
            name, _, value = a.partition("=")
            value = value if value else next(it, "")
            if name == "--require":
                requires.append(value)
            else:
                flags[name] = value
        else:
            args.append(a)
    tolerance = float(flags.get("--tolerance", 0.25))
    min_delta_us = float(flags.get("--min-delta-us", 5.0))
    if len(args) < 2:
        print(__doc__, file=sys.stderr)
        return 2

    current, better = {}, {}
    for path in args[:-1]:
        for key, (mean, direction) in flatten(load(path), path).items():
            best = max if direction == "higher" else min
            current[key] = best(mean, current.get(key, mean))
            better[key] = direction
    baseline = {key: mean for key, (mean, _) in
                flatten(load(args[-1]), args[-1]).items()}
    shared = sorted(set(current) & set(baseline))
    if not shared:
        print(f"error: no shared measurements between {args[:-1]} and "
              f"{args[-1]}", file=sys.stderr)
        return 2
    unmatched = [required for required in requires
                 if not any(required in key for key in shared)]
    if unmatched:
        # Report every missing key, not just the first: a CI invocation
        # pins several configs at once, and fixing them one failure per
        # push is miserable. Say WHICH side is missing the metric — "not
        # shared" alone sends people hunting in the wrong file when the
        # actual fix is regenerating a stale baseline.
        for required in unmatched:
            in_current = any(required in key for key in current)
            in_baseline = any(required in key for key in baseline)
            if in_current and not in_baseline:
                print(f"error: --require '{required}' is measured by the "
                      f"current run but missing from the baseline "
                      f"{args[-1]} — regenerate the baseline to pick up "
                      f"the new config", file=sys.stderr)
            elif in_baseline and not in_current:
                print(f"error: --require '{required}' is in the baseline "
                      f"but missing from the current run (config dropped "
                      f"or renamed?)", file=sys.stderr)
            else:
                print(f"error: no measurement on either side matches "
                      f"--require '{required}' (configs dropped or "
                      f"renamed?)", file=sys.stderr)
        return 2

    def worse_by(key):
        """How far key got worse: (ratio, delta), > 1 and > 0 when worse."""
        cur, base = current[key], baseline[key]
        if better[key] == "higher":
            return base / cur, base - cur
        return cur / base, cur - base

    ratios = {k: worse_by(k)[0] for k in shared}
    scale = statistics.median(ratios.values())
    limit = (1.0 + tolerance) * scale
    print(f"best of {len(args) - 1} run(s) vs {args[-1]}: "
          f"{len(shared)} measurements, speed scale {scale:.2f}x, "
          f"regression limit {limit:.2f}x")

    failed = False
    for key in shared:
        r, delta = worse_by(key)
        regressed = r > limit and delta > min_delta_us
        if regressed:
            failed = True
        flag = "REGRESSION" if regressed else "ok"
        print(f"  {flag:>10}  {key:<45} {baseline[key]:10.3f} -> "
              f"{current[key]:10.3f}  ({r:5.2f}x, {better[key]} is better)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
