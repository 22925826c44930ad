#!/usr/bin/env python3
"""Gate on benchmark regressions against a checked-in baseline.

Usage: check_bench_regression.py CURRENT.json BASELINE.json [--threshold 0.15]
                                 [--summary FILE] [--exact]

Both files follow the remon-bench-v1 schema (docs/BENCH_SCHEMA.md): a flat list
of named metrics, each marked higher_is_better or not. The gate fails (exit 1)
when any metric present in both files moved more than the threshold in its bad
direction, and when any baseline metric is missing from the suite output: a
diverged or aborted bench run drops its metrics silently, which would otherwise
read as a pass. A nonpositive current value against a positive baseline fails
too, in either direction: benches report a diverged cell as -1, and on a
lower-is-better metric that ratio would otherwise read as an improvement.
Metrics only present in the current output never fail the gate — adding a
sweep point must not require touching the baseline in the same commit.
Removing a sweep point on purpose is recorded the same way as a perf movement:
regenerate the committed baseline in the same PR.

The simulation is deterministic (pinned seeds, virtual time), so identical code
produces identical numbers — the threshold only absorbs intended perf-relevant
changes, not machine noise. A legitimate change that moves a metric is recorded
by regenerating the committed BENCH_*.json baselines in the same PR.

--exact additionally fails when any baseline metric differs from the current
run at the JSON's printed precision (six decimals), in either direction, and
reports it as "stale: regenerate". Since the suites are deterministic, a
committed baseline that no longer matches a fresh run of the same code is stale:
a change moved it within the threshold and did not regenerate it. Metrics only
present in the current output still pass.

--summary FILE appends a per-metric markdown delta table to FILE (append, not
truncate: the CI gate loop runs once per suite and they all land in the same
$GITHUB_STEP_SUMMARY). The table is written whether the gate passes or fails.
"""

import argparse
import json
import sys


def load_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "remon-bench-v1":
        sys.exit(f"{path}: unknown schema {doc.get('schema')!r}")
    out = {}
    for m in doc.get("metrics", []):
        out[m["name"]] = (float(m["value"]), bool(m.get("higher_is_better", False)))
    return doc.get("bench", "?"), out


def printed(value):
    """The value as the bench JSON writer prints it (%.6f)."""
    return f"{value:.6f}"


def write_summary(path, bench, threshold, rows, regressed_count, missing_count,
                  stale_count):
    """Appends one suite's markdown delta table. rows: (name, base, cur, status)
    where base/cur may be None for one-sided metrics."""
    problems = []
    if regressed_count:
        problems.append(f"{regressed_count} regression(s) beyond {threshold:.0%}")
    if missing_count:
        problems.append(f"{missing_count} baseline metric(s) missing from output")
    if stale_count:
        problems.append(f"{stale_count} stale baseline metric(s)")
    verdict = "; ".join(problems) if problems else f"all deltas within {threshold:.0%}"
    with open(path, "a") as f:
        f.write(f"### bench gate: `{bench}` — {verdict}\n\n")
        f.write("| metric | baseline | current | delta | status |\n")
        f.write("|---|---|---|---|---|\n")
        for name, base, cur, status in rows:
            base_s = f"{base:.4f}" if base is not None else "—"
            cur_s = f"{cur:.4f}" if cur is not None else "—"
            delta_s = (f"{cur / base - 1:+.2%}"
                       if base is not None and cur is not None and base > 0 else "—")
            f.write(f"| `{name}` | {base_s} | {cur_s} | {delta_s} | {status} |\n")
        f.write("\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("current")
    ap.add_argument("baseline")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="allowed fractional move in the bad direction (default 0.15)")
    ap.add_argument("--summary", metavar="FILE",
                    help="append a markdown per-metric delta table to FILE "
                         "(for $GITHUB_STEP_SUMMARY)")
    ap.add_argument("--exact", action="store_true",
                    help="also fail when any baseline metric differs from the "
                         "current run at the printed precision (stale baseline)")
    args = ap.parse_args()

    bench, current = load_metrics(args.current)
    _, baseline = load_metrics(args.baseline)

    regressions = []
    improvements = []
    stale = []
    rows = []
    for name, (cur, higher_better) in sorted(current.items()):
        if name not in baseline:
            print(f"  [new]      {name} = {cur:.4f} (no baseline)")
            rows.append((name, None, cur, "new"))
            continue
        base, _ = baseline[name]
        is_stale = args.exact and printed(cur) != printed(base)
        if is_stale:
            stale.append((name, base, cur))
        if base <= 0:
            rows.append((name, base, cur, "skipped (baseline <= 0)"))
            continue
        ratio = cur / base
        moved_worse = cur <= 0 or (ratio > 1 + args.threshold if not higher_better
                                   else ratio < 1 - args.threshold)
        moved_better = ratio < 1 - args.threshold if not higher_better \
            else ratio > 1 + args.threshold
        if moved_worse:
            regressions.append((name, base, cur, ratio))
            rows.append((name, base, cur, "**REGRESSED**"))
        elif moved_better:
            improvements.append((name, base, cur, ratio))
            rows.append((name, base, cur, "improved"))
        elif is_stale:
            rows.append((name, base, cur, "**STALE**"))
        else:
            rows.append((name, base, cur, "ok"))
    missing = sorted(set(baseline) - set(current))
    for name in missing:
        print(f"  [MISSING]  {name} (baseline {baseline[name][0]:.4f}, "
              "absent from suite output)")
        rows.append((name, baseline[name][0], None, "**MISSING**"))

    if args.summary:
        write_summary(args.summary, bench, args.threshold, rows, len(regressions),
                      len(missing), len(stale))

    for name, base, cur, ratio in improvements:
        print(f"  [better]   {name}: {base:.4f} -> {cur:.4f} ({ratio:.2%} of baseline)")
    if regressions or missing or stale:
        print(f"\nFAIL: {len(regressions)} metric(s) regressed more than "
              f"{args.threshold:.0%}, {len(missing)} baseline metric(s) missing, "
              f"{len(stale)} stale vs {args.baseline}:")
        for name, base, cur, ratio in regressions:
            print(f"  [REGRESSED] {name}: {base:.4f} -> {cur:.4f} "
                  f"({ratio:.2%} of baseline)")
        for name in missing:
            print(f"  [MISSING]   {name}: the suite no longer reports it — a "
                  "diverged or aborted run drops its metrics silently")
        for name, base, cur in stale:
            print(f"  [STALE]     {name}: {printed(base)} -> {printed(cur)} "
                  "(stale: regenerate)")
        print("\nIf this movement (or removal) is intended, regenerate the "
              "committed baseline in this PR:\n"
              "  ./build/bench_<suite> --json=BENCH_<suite>.json\n"
              "(the tracked suite list lives in .github/workflows/ci.yml)")
        return 1
    print(f"\nOK: {len(current)} metrics within {args.threshold:.0%} of baseline "
          f"({len(improvements)} improved)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
