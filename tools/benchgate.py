#!/usr/bin/env python3
"""Perf-regression gate over the schema-v1 bench reports.

Runs a fixed suite of fast, deterministic bench binaries with --json,
distills each report to its stable performance surface (simulated cycles,
IPC, simulated seconds, energy, FT counters, derived scalars -- never host
wall-clock timers), and compares the result against the checked-in
baseline `BENCH_pr5.json` at the repo root exactly.

Simulated outputs depend only on config and seed, so any change -- in
either direction -- fails the gate and the baseline is only ever moved
intentionally.

Usage:
    python3 tools/benchgate.py [--build-dir build]
    python3 tools/benchgate.py --update       # rewrite the baseline

The fresh snapshot is always written to <build-dir>/BENCH_pr5.json (CI
uploads it as an artifact); --update additionally installs it as the
repo-root baseline instead of comparing.

Exit status: 0 on success (or after --update), 1 if any metric moved
or a metric appeared/disappeared, 2 on usage/run errors.
"""
import argparse
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO_ROOT, "BENCH_pr5.json")

# The gated suite: every entry must finish in seconds and produce a
# schema_version-1 --json report. fig3 exercises the phase profiler's
# attribution (and exits nonzero if the residual check fails), table4 the
# full four-kernel simulated platform, fault_model_thresholds the
# analytical fault model.
BENCHES = [
    "fig3_overhead_breakdown",
    "table4_access_classification",
    "fault_model_thresholds",
]

# The native gates: ftgemm_native measures the fused FT-DGEMM against the
# unprotected native GEMM, and that GEMM against one core's FMA peak, in
# wall-clock, so its numbers never enter the baseline snapshot (they move
# with the host). Instead two medians over interleaved reps are gated
# against absolute limits: the fused overhead at n=2048 (ceiling) and the
# plain GEMM's fraction of FMA peak at n=1024 (floor). Hosts whose dispatch
# falls back to the scalar kernel skip both with a note (neither is a
# meaningful SIMD claim there).
NATIVE_BENCH = "ftgemm_native"
NATIVE_SIMD_KERNEL = "avx2-fma"
FUSED_OVERHEAD_LIMIT = 0.10
FUSED_OVERHEAD_SCALAR = "overhead_ratio_2048"
PEAK_FRAC_FLOOR = 0.5
PEAK_FRAC_SCALAR = "peak_frac_1024"

RUN_FIELDS = [
    ("cycles", lambda r: r["cycles"]),
    ("instructions", lambda r: r["instructions"]),
    ("ipc", lambda r: r["ipc"]),
    ("seconds", lambda r: r["seconds"]),
    ("memory_pj", lambda r: r["energy"]["memory_pj"]),
    ("system_pj", lambda r: r["energy"]["system_pj"]),
    ("errors_detected", lambda r: r["ft"]["errors_detected"]),
    ("errors_corrected", lambda r: r["ft"]["errors_corrected"]),
]


def die(msg):
    print(msg, file=sys.stderr)
    sys.exit(2)


def run_bench(build_dir, name, workdir):
    exe = os.path.join(build_dir, "bench", name)
    if not os.path.exists(exe):
        die(f"error: bench binary not found: {exe} (build the repo first)")
    out = os.path.join(workdir, f"benchgate_{name}.json")
    proc = subprocess.run([exe, "--json", out], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        die(f"error: {name} exited with status {proc.returncode}")
    try:
        with open(out) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"error: {name}: cannot read report: {e}")
    if doc.get("schema_version") != 1:
        die(f"error: {name}: unsupported schema_version "
            f"{doc.get('schema_version')!r}")
    return doc


def distill(doc):
    """Reduce a bench report to its deterministic performance surface."""
    runs = {}
    for r in doc.get("runs", []):
        row = {}
        for field, get in RUN_FIELDS:
            try:
                row[field] = get(r)
            except KeyError:
                pass
        runs[r["label"]] = row
    return {
        "experiment": doc.get("experiment"),
        "config": doc.get("config"),
        "runs": runs,
        "scalars": doc.get("scalars", {}),
    }


def metric_rows(bench):
    """Flatten one distilled bench into (metric_path, value) pairs."""
    for label, row in sorted(bench["runs"].items()):
        for field, v in sorted(row.items()):
            yield f"runs[{label}].{field}", v
    for name, v in sorted(bench["scalars"].items()):
        yield f"scalars.{name}", v


def compare(baseline, candidate):
    flagged = []
    names = sorted(set(baseline["benches"]) | set(candidate["benches"]))
    for name in names:
        if name not in baseline["benches"]:
            flagged.append((name, "<bench>", None, None, "only in candidate"))
            continue
        if name not in candidate["benches"]:
            flagged.append((name, "<bench>", None, None, "only in baseline"))
            continue
        base = dict(metric_rows(baseline["benches"][name]))
        cand = dict(metric_rows(candidate["benches"][name]))
        for path in sorted(set(base) | set(cand)):
            if path not in cand:
                flagged.append((name, path, base[path], None,
                                "missing from candidate"))
                continue
            if path not in base:
                flagged.append((name, path, None, cand[path],
                                "not in baseline"))
                continue
            vb, vc = base[path], cand[path]
            if vc != vb:
                rel = (vc - vb) / abs(vb) if vb else float("inf")
                flagged.append((name, path, vb, vc, f"{rel:+.3g} rel"))
    return flagged


def gate_native(build_dir):
    """Run ftgemm_native and enforce the fused-FT overhead ceiling and the
    peak-fraction floor.

    Returns True on pass (or graceful skip), False on failure.
    """
    doc = run_bench(build_dir, NATIVE_BENCH, build_dir)
    simd = doc.get("notes", {}).get("simd_kernel")
    scalars = doc.get("scalars", {})
    ratio = scalars.get(FUSED_OVERHEAD_SCALAR)
    frac = scalars.get(PEAK_FRAC_SCALAR)
    if simd != NATIVE_SIMD_KERNEL:
        print(f"benchgate: native gates SKIPPED -- host dispatches "
              f"'{simd}', not '{NATIVE_SIMD_KERNEL}' "
              f"(measured {FUSED_OVERHEAD_SCALAR}="
              f"{ratio if ratio is not None else 'n/a'}, "
              f"{PEAK_FRAC_SCALAR}={frac if frac is not None else 'n/a'})")
        return True
    ok = True
    for name, value in ((FUSED_OVERHEAD_SCALAR, ratio),
                        (PEAK_FRAC_SCALAR, frac)):
        if not isinstance(value, (int, float)):
            print(f"benchgate: FAIL -- {NATIVE_BENCH} report carries no "
                  f"numeric {name}", file=sys.stderr)
            ok = False
    if not ok:
        return False
    iqr = scalars.get("overhead_ratio_iqr_2048", float("nan"))
    verdict = ratio < FUSED_OVERHEAD_LIMIT
    print(f"benchgate: native fused-FT overhead at 2048 (linalg/abft, "
          f"{FUSED_OVERHEAD_SCALAR}, median): {ratio:+.2%} (IQR {iqr:.2%}, "
          f"limit {FUSED_OVERHEAD_LIMIT:.0%}, margin "
          f"{FUSED_OVERHEAD_LIMIT - ratio:+.2%}) -- "
          f"{'OK' if verdict else 'FAIL'}")
    peak = scalars.get("fma_peak_gflops", float("nan"))
    gflops = scalars.get("plain_gflops_1024", float("nan"))
    floor_ok = frac >= PEAK_FRAC_FLOOR
    print(f"benchgate: native GEMM share of FMA peak at 1024 (linalg, "
          f"{PEAK_FRAC_SCALAR}, median): {frac:.1%} ({gflops:.2f} of "
          f"{peak:.2f} GF/s, floor {PEAK_FRAC_FLOOR:.0%}, margin "
          f"{frac - PEAK_FRAC_FLOOR:+.1%}) -- {'OK' if floor_ok else 'FAIL'}")
    return verdict and floor_ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=os.path.join(REPO_ROOT, "build"))
    ap.add_argument("--baseline", default=BASELINE,
                    help="checked-in snapshot to gate against")
    ap.add_argument("--update", action="store_true",
                    help="write the fresh snapshot to the baseline path "
                         "instead of comparing")
    ap.add_argument("--skip-native", action="store_true",
                    help="skip the wall-clock ftgemm_native gates")
    args = ap.parse_args()

    snapshot = {
        "schema_version": 1,
        "suite": "pr5-perf-gate",
        "benches": {name: distill(run_bench(args.build_dir, name,
                                            args.build_dir))
                    for name in BENCHES},
    }
    fresh_path = os.path.join(args.build_dir, "BENCH_pr5.json")
    with open(fresh_path, "w") as f:
        json.dump(snapshot, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"benchgate: wrote snapshot {fresh_path} "
          f"({len(BENCHES)} bench reports)")

    native_ok = True if args.skip_native else gate_native(args.build_dir)

    if args.update:
        with open(args.baseline, "w") as f:
            json.dump(snapshot, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"benchgate: baseline updated: {args.baseline}")
        return 0 if native_ok else 1

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"error: cannot read baseline {args.baseline}: {e} "
            f"(seed it with --update)")
    if baseline.get("schema_version") != 1:
        die(f"error: {args.baseline}: unsupported schema_version")

    flagged = compare(baseline, snapshot)
    if not native_ok:
        print("benchgate: native gates FAILED")
    if flagged:
        print(f"\n{'bench':<28} {'metric':<44} {'baseline':>14} "
              f"{'candidate':>14}  delta")
        for name, path, vb, vc, why in flagged:
            fb = f"{vb:.6g}" if isinstance(vb, (int, float)) else "-"
            fc = f"{vc:.6g}" if isinstance(vc, (int, float)) else "-"
            print(f"{name:<28} {path:<44} {fb:>14} {fc:>14}  {why}")
        print(f"\nbenchgate: {len(flagged)} metric(s) differ from "
              f"{args.baseline}")
        print("benchgate: if the change is intentional, refresh the "
              "baseline with: python3 tools/benchgate.py --update")
        return 1
    if not native_ok:
        return 1
    total = sum(len(list(metric_rows(b)))
                for b in snapshot["benches"].values())
    print(f"benchgate: OK -- {total} metrics equal to {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
