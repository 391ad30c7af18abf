#!/usr/bin/env python3
"""Forensics over a campaign fault-provenance ledger (campaign --lineage).

The ledger is JSON lines with two record shapes per trial:
  * fault records ("fault" key): one per injected fault, carrying the
    fault's identity (kind, phys, bit), its hardware resolution, the
    sealed terminal outcome, and its inlined stage-event chain; and
  * trial records ("faults" key, no "fault"): the trial-scope summary
    (terminal label, fault count, OS log drops, recovery-tier events).

Event "cycle" fields are simulated-cycle stamps. Like every other field
they are deterministic for a fixed campaign seed, whatever the thread or
shard count, so every subcommand's output is reproducible and `canon`
output of two runs of the same seed byte-compares (the CI determinism
gate).

Subcommands:
  timeline   per-fault stage timelines (--trial/--fault to filter)
  funnel     stage-transition counts (Sankey-style table)
  slowest    longest inject -> last-stage chains by cycle span
  orphans    fault records without a hardware resolution (exit 1 if any)
  reconcile  cross-check ledger terminal tallies against a campaign
             --json report (exit 1 on any mismatch)
  canon      canonical (key-sorted, merged) ledger lines on stdout
  rates      bin fault injections (and per-terminal tallies) over the
             simulated-cycle axis into timeseries-v1 JSON -- the same
             shape the live TelemetrySampler emits, so downstream
             consumers read post-hoc lineage rates and live telemetry
             alike

Every subcommand accepts one or more ledger files and merges them --
the shard-per-file layout campaignd's workers stream -- after checking
that the shards partition the trial space: a (kernel, trial, fault)
fault key or (kernel, trial) trial key appearing in two files is a
hard error. Merged records are re-sorted by key so the output is
independent of the order the shard files are listed in.

Exit status: 0 on success, 1 when the subcommand found a violation
(orphans present, reconciliation mismatch), 2 on usage errors or
overlapping shard ledgers.
"""
import argparse
import json
import struct
import sys
from collections import Counter, defaultdict

KERNEL_SLUGS = {
    "FT-DGEMM": "dgemm",
    "FT-Cholesky": "cholesky",
    "FT-CG": "cg",
    "FT-HPL": "hpl",
}

OUTCOMES = [
    "corrected",
    "detected_uncorrected",
    "silent_data_corruption",
    "benign_masked",
    "recovered_by_recompute",
    "recovered_by_rollback",
    "unrecoverable",
]


def die(msg):
    print(msg, file=sys.stderr)
    sys.exit(2)


def load(path):
    """Parse the ledger into (fault_records, trial_records)."""
    faults, trials = [], []
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    die(f"error: {path}:{lineno}: bad JSON: {e}")
                (faults if "fault" in rec else trials).append(rec)
    except OSError as e:
        die(f"error: cannot read ledger: {e}")
    return faults, trials


def slug_of(kernel):
    return KERNEL_SLUGS.get(kernel, kernel.lower())


def fault_key(rec):
    return (rec["kernel"], rec["trial"], rec["fault"])


def load_many(paths):
    """Merge shard ledgers into one (fault_records, trial_records).

    Shards must partition the trial space: the same fault or trial key
    in two files means double-counted trials, so it is rejected rather
    than silently merged. Records are re-sorted by key so the merge is
    independent of the file listing order.
    """
    faults, trials = [], []
    fault_seen, trial_seen = {}, {}
    for path in paths:
        f, t = load(path)
        for rec in f:
            key = fault_key(rec)
            if key in fault_seen:
                die(f"error: {path}: fault record {key} already present in "
                    f"{fault_seen[key]} -- shard ledgers must partition the "
                    "trial space")
            fault_seen[key] = path
        for rec in t:
            key = (rec["kernel"], rec["trial"])
            if key in trial_seen:
                die(f"error: {path}: trial record {key} already present in "
                    f"{trial_seen[key]} -- shard ledgers must partition the "
                    "trial space")
            trial_seen[key] = path
        faults += f
        trials += t
    faults.sort(key=fault_key)
    trials.sort(key=lambda rec: (rec["kernel"], rec["trial"]))
    return faults, trials


def stage_chain(rec):
    return [e["stage"] for e in rec.get("events", [])]


def residual_of(event):
    """abft_corrected events carry the checksum residual as IEEE bits."""
    return struct.unpack("<d", struct.pack("<Q", event.get("a0", 0)))[0]


def cmd_timeline(args):
    faults, trials = load_many(args.ledgers)
    shown = 0
    by_trial = defaultdict(list)
    for t in trials:
        by_trial[(t["kernel"], t["trial"])] = t.get("events", [])
    for rec in faults:
        if args.trial is not None and rec["trial"] != args.trial:
            continue
        if args.fault is not None and rec["fault"] != args.fault:
            continue
        if shown >= args.limit:
            print(f"... (limit {args.limit}; narrow with --trial/--fault)")
            break
        shown += 1
        print(f"{rec['kernel']} trial {rec['trial']} fault #{rec['fault']}: "
              f"{rec['kind']} at phys {rec['phys']} bit {rec['bit']} -> "
              f"resolution {rec['resolution']}, terminal {rec['terminal']}")
        events = list(rec.get("events", []))
        # Trial-scope events (recovery tiers, seal) give chain context.
        events += by_trial.get((rec["kernel"], rec["trial"]), [])
        for e in events:
            cyc = "-" if args.no_cycles else str(e.get("cycle", 0))
            extra = ""
            if e["stage"] == "abft_located":
                extra = f"  structure={e['a0']} element={e['a1']}"
            elif e["stage"] == "abft_corrected":
                extra = f"  residual={residual_of(e):.6g}"
            elif e["stage"] in ("recovery_recompute", "recovery_rollback"):
                extra = f"  a0={e['a0']}"
            tag = f"  [{e['tag']}]" if e.get("tag") else ""
            print(f"    {cyc:>12}  {e['stage']:<28}{extra}{tag}")
    if shown == 0:
        print("no matching fault records")
    return 0


def cmd_funnel(args):
    faults, _ = load_many(args.ledgers)
    transitions = Counter()
    for rec in faults:
        chain = stage_chain(rec) + [f"terminal:{rec['terminal']}"]
        for a, b in zip(chain, chain[1:]):
            transitions[(a, b)] += 1
    if not transitions:
        print("empty ledger")
        return 0
    width = max(len(a) for a, _ in transitions) + 2
    print(f"{'from':<{width}} {'to':<34} {'faults':>8}")
    for (a, b), n in sorted(transitions.items(),
                            key=lambda kv: (-kv[1], kv[0])):
        print(f"{a:<{width}} {b:<34} {n:>8}")
    total = len(faults)
    print(f"\n{total} fault record(s), "
          f"{sum(transitions.values())} stage transition(s)")
    return 0


def cmd_slowest(args):
    faults, _ = load_many(args.ledgers)
    spans = []
    for rec in faults:
        cycles = [e.get("cycle", 0) for e in rec.get("events", [])]
        if len(cycles) < 2:
            continue
        spans.append((max(cycles) - min(cycles), rec))
    spans.sort(key=lambda s: (-s[0], fault_key(s[1])))
    if not spans:
        print("no multi-stage chains in ledger")
        return 0
    print(f"{'cycles':>12}  {'kernel':<12} {'trial':>5} {'fault':>5}  chain")
    for span, rec in spans[:args.limit]:
        chain = " -> ".join(stage_chain(rec))
        print(f"{span:>12}  {rec['kernel']:<12} {rec['trial']:>5} "
              f"{rec['fault']:>5}  {chain} => {rec['terminal']}")
    return 0


def cmd_orphans(args):
    faults, trials = load_many(args.ledgers)
    dropped_by_trial = {(t["kernel"], t["trial"]): t.get("exposed_dropped", 0)
                        for t in trials}
    bad = 0
    for rec in faults:
        problems = []
        if rec["resolution"] == "none" or rec["resolution_count"] == 0:
            problems.append("no hardware resolution (orphan)")
        elif rec["resolution_count"] > 1:
            problems.append(f"resolved {rec['resolution_count']} times "
                            "(double-count)")
        if not rec.get("terminal"):
            problems.append("no terminal outcome (trial not sealed)")
        if not problems:
            continue
        bad += 1
        note = ""
        if dropped_by_trial.get((rec["kernel"], rec["trial"]), 0) > 0:
            note = ("  [trial had OS log drops: likely dropped under "
                    "storm, not lost]")
        print(f"{rec['kernel']} trial {rec['trial']} fault #{rec['fault']} "
              f"({rec['kind']} at phys {rec['phys']}): "
              f"{'; '.join(problems)}{note}")
    if bad:
        print(f"\n{bad} problematic fault record(s)")
        return 1
    print(f"no orphans: {len(faults)} fault record(s) all resolved exactly "
          "once and sealed")
    return 0


def cmd_reconcile(args):
    faults, trials = load_many(args.ledgers)
    try:
        with open(args.report) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"error: cannot read report: {e}")
    scalars = report.get("scalars", {})
    mismatches = 0

    def check(label, ledger_count, report_count):
        nonlocal mismatches
        ok = ledger_count == report_count
        if not ok or args.verbose:
            state = "OK" if ok else "MISMATCH"
            print(f"  {label:<44} ledger {ledger_count:>7}  "
                  f"report {report_count:>7}  {state}")
        if not ok:
            mismatches += 1

    terminals = Counter()
    for t in trials:
        terminals[(slug_of(t["kernel"]), t["terminal"])] += 1
    trial_totals = Counter(slug_of(t["kernel"]) for t in trials)
    fault_totals = Counter(slug_of(f["kernel"]) for f in faults)

    for slug in sorted(trial_totals):
        print(f"{slug}:")
        n = scalars.get(f"{slug}.trials")
        if n is None:
            die(f"error: report has no '{slug}.trials' scalar "
                "(not a campaign --json report?)")
        check("trials", trial_totals[slug], int(round(n)))
        for outcome in OUTCOMES:
            frac = scalars.get(f"{slug}.{outcome}_fraction")
            if frac is None:
                continue
            check(f"terminal '{outcome}'", terminals[(slug, outcome)],
                  int(round(frac * n)))
        # Cross-check the report's own lineage summary when present.
        lineage = report.get("lineage", {}).get(slug)
        if lineage is not None:
            check("fault records", fault_totals[slug], lineage["faults"])
            check("orphans",
                  sum(1 for f in faults
                      if slug_of(f["kernel"]) == slug
                      and f["resolution_count"] == 0),
                  lineage["orphans"])
    if mismatches:
        print(f"\nreconcile: FAILED -- {mismatches} mismatch(es) between "
              "ledger and report")
        return 1
    print(f"\nreconcile: OK -- {len(faults)} fault record(s) across "
          f"{len(trials)} trial(s) partition exactly into the report's "
          "outcome taxonomy")
    return 0


def cmd_canon(args):
    """Determinism surface: every ledger record, merged and key-sorted."""
    faults, trials = load_many(args.ledgers)
    out = sys.stdout
    for rec in faults + trials:
        json.dump(rec, out, sort_keys=True, separators=(",", ":"))
        out.write("\n")
    return 0


def cmd_rates(args):
    """Per-interval fault/outcome rates in the TelemetrySampler's
    timeseries-v1 JSON shape: the cycle axis [0, max] is split into
    --bins equal intervals; each series point is [interval_start_cycle,
    events_in_interval] -- counter semantics (per-sample deltas), like
    the live rings."""
    faults, _ = load_many(args.ledgers)
    stamps = []  # (first_event_cycle, terminal)
    for rec in faults:
        cycles = [e.get("cycle", 0) for e in rec.get("events", [])]
        if not cycles:
            continue
        stamps.append((min(cycles), rec.get("terminal", "")))
    bins = max(1, args.bins)
    hi = max((c for c, _ in stamps), default=0)
    width = max(1, -(-(hi + 1) // bins))  # ceil so the max stamp fits

    def binned(predicate):
        counts = [0] * bins
        for cycle, terminal in stamps:
            if predicate(terminal):
                counts[min(cycle // width, bins - 1)] += 1
        return counts

    series = [("fault.injected", binned(lambda t: True))]
    for outcome in OUTCOMES:
        counts = binned(lambda t, o=outcome: t == o)
        if any(counts):
            series.append((f"fault.terminal.{outcome}", counts))

    doc = {
        "schema": "timeseries-v1",
        "samples": bins,
        "series": [
            {
                "name": name,
                "kind": "counter",
                "dropped": 0,
                "points": [[float(i * width), float(c)]
                           for i, c in enumerate(counts)],
            }
            for name, counts in series
        ],
    }
    json.dump(doc, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")
    if not stamps:
        print("rates: ledger has no stamped fault events", file=sys.stderr)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("timeline", help="per-fault stage timelines")
    p.add_argument("ledgers", nargs="+", metavar="ledger")
    p.add_argument("--trial", type=int)
    p.add_argument("--fault", type=int)
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--no-cycles", action="store_true",
                   help="suppress cycle stamps")
    p.set_defaults(fn=cmd_timeline)

    p = sub.add_parser("funnel", help="stage-transition counts")
    p.add_argument("ledgers", nargs="+", metavar="ledger")
    p.set_defaults(fn=cmd_funnel)

    p = sub.add_parser("slowest", help="longest chains by cycle span")
    p.add_argument("ledgers", nargs="+", metavar="ledger")
    p.add_argument("-n", "--limit", type=int, default=10)
    p.set_defaults(fn=cmd_slowest)

    p = sub.add_parser("orphans", help="unresolved/double-counted records")
    p.add_argument("ledgers", nargs="+", metavar="ledger")
    p.set_defaults(fn=cmd_orphans)

    p = sub.add_parser("reconcile",
                       help="cross-check ledger vs campaign --json report")
    p.add_argument("ledgers", nargs="+", metavar="ledger")
    p.add_argument("--report", required=True)
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print every check, not just mismatches")
    p.set_defaults(fn=cmd_reconcile)

    p = sub.add_parser("canon", help="canonical merged, key-sorted lines")
    p.add_argument("ledgers", nargs="+", metavar="ledger")
    p.set_defaults(fn=cmd_canon)

    p = sub.add_parser("rates",
                       help="per-interval rates as timeseries-v1 JSON")
    p.add_argument("ledgers", nargs="+", metavar="ledger")
    p.add_argument("--bins", type=int, default=20,
                   help="intervals over the cycle axis (default 20)")
    p.set_defaults(fn=cmd_rates)

    args = ap.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    # Die quietly when piped into `head` and the reader goes away.
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.stderr.close()
        sys.exit(0)
