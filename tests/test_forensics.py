#!/usr/bin/env python3
"""Unit tests for tools/forensics.py (stdlib only, run via ctest).

Exercises the ledger parser, the funnel/orphan logic, reconciliation
against a campaign report (including deliberate mismatches), and the
canon subcommand's canonical form -- on a synthetic two-trial ledger, so
the tests do not need the simulator built. The CI smoke job runs the same
subcommands against a real campaign ledger.
"""
import importlib.util
import io
import json
import os
import struct
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = importlib.util.spec_from_file_location(
    "forensics", os.path.join(REPO, "tools", "forensics.py"))
forensics = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(forensics)


def fault(trial, fid, stages, terminal, resolution, count=1, phys=0x1000):
    return {
        "trial": trial, "kernel": "FT-DGEMM", "fault": fid,
        "kind": "bit_flip", "phys": phys, "bit": 3,
        "resolution": resolution, "resolution_count": count,
        "exposed": "os_exposed" in stages, "located": False,
        "terminal": terminal,
        "events": [{"fault": fid, "stage": s, "cycle": 100 + i,
                    "addr": phys, "a0": 0, "a1": 0} for i, s in
                   enumerate(stages)],
    }


def trial(tid, terminal, faults, dropped=0):
    return {"trial": tid, "kernel": "FT-DGEMM", "terminal": terminal,
            "faults": faults, "exposed_dropped": dropped,
            "events": [{"fault": 0, "stage": "terminal", "cycle": 900,
                        "addr": 0, "a0": 0, "a1": 0, "tag": terminal}]}


LEDGER = [
    fault(0, 1, ["inject", "ecc_corrected"], "corrected", "ecc_corrected"),
    fault(1, 1, ["inject", "ecc_detected_uncorrectable", "os_interrupt",
                 "os_exposed"], "recovered_by_rollback",
          "ecc_detected_uncorrectable"),
    trial(0, "corrected", 1),
    trial(1, "recovered_by_rollback", 1),
]

REPORT = {
    "schema_version": 1,
    "scalars": {
        "dgemm.trials": 2.0,
        "dgemm.corrected_fraction": 0.5,
        "dgemm.recovered_by_rollback_fraction": 0.5,
        "dgemm.silent_data_corruption_fraction": 0.0,
    },
    "lineage": {"dgemm": {"ok": True, "faults": 2, "orphans": 0}},
}


class ForensicsTest(unittest.TestCase):
    def write(self, d, name, doc_lines):
        p = os.path.join(d, name)
        with open(p, "w") as f:
            if isinstance(doc_lines, list):
                for rec in doc_lines:
                    f.write(json.dumps(rec) + "\n")
            else:
                json.dump(doc_lines, f)
        return p

    def run_cli(self, *argv):
        old = sys.argv
        sys.argv = ["forensics.py", *argv]
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                status = forensics.main()
        finally:
            sys.argv = old
        return status, out.getvalue()

    def test_load_splits_fault_and_trial_records(self):
        with tempfile.TemporaryDirectory() as d:
            faults, trials = forensics.load(self.write(d, "l.jsonl", LEDGER))
        self.assertEqual(len(faults), 2)
        self.assertEqual(len(trials), 2)

    def test_funnel_counts_transitions_into_terminal(self):
        with tempfile.TemporaryDirectory() as d:
            status, out = self.run_cli(
                "funnel", self.write(d, "l.jsonl", LEDGER))
        self.assertEqual(status, 0)
        self.assertIn("inject", out)
        self.assertIn("terminal:recovered_by_rollback", out)
        self.assertIn("2 fault record(s)", out)

    def test_orphans_clean_ledger_exits_zero(self):
        with tempfile.TemporaryDirectory() as d:
            status, out = self.run_cli(
                "orphans", self.write(d, "l.jsonl", LEDGER))
        self.assertEqual(status, 0)
        self.assertIn("no orphans", out)

    def test_orphans_flags_unresolved_and_double_counted(self):
        bad = [fault(0, 1, ["inject"], "corrected", "none", count=0),
               fault(0, 2, ["inject", "ecc_corrected"], "corrected",
                     "ecc_corrected", count=2),
               trial(0, "corrected", 2, dropped=1)]
        with tempfile.TemporaryDirectory() as d:
            status, out = self.run_cli(
                "orphans", self.write(d, "l.jsonl", bad))
        self.assertEqual(status, 1)
        self.assertIn("orphan", out)
        self.assertIn("double-count", out)
        # Storm context: drops are called out so orphan-chasing starts at
        # the right place.
        self.assertIn("OS log drops", out)

    def test_reconcile_matches_report(self):
        with tempfile.TemporaryDirectory() as d:
            status, out = self.run_cli(
                "reconcile", self.write(d, "l.jsonl", LEDGER),
                "--report", self.write(d, "r.json", REPORT))
        self.assertEqual(status, 0)
        self.assertIn("reconcile: OK", out)

    def test_reconcile_detects_terminal_mismatch(self):
        report = json.loads(json.dumps(REPORT))
        report["scalars"]["dgemm.corrected_fraction"] = 1.0
        report["scalars"]["dgemm.recovered_by_rollback_fraction"] = 0.0
        with tempfile.TemporaryDirectory() as d:
            status, out = self.run_cli(
                "reconcile", self.write(d, "l.jsonl", LEDGER),
                "--report", self.write(d, "r.json", report))
        self.assertEqual(status, 1)
        self.assertIn("MISMATCH", out)

    def test_reconcile_detects_missing_fault_records(self):
        report = json.loads(json.dumps(REPORT))
        report["lineage"]["dgemm"]["faults"] = 3
        with tempfile.TemporaryDirectory() as d:
            status, out = self.run_cli(
                "reconcile", self.write(d, "l.jsonl", LEDGER),
                "--report", self.write(d, "r.json", report))
        self.assertEqual(status, 1)
        self.assertIn("fault records", out)

    def test_canon_keeps_cycles_and_is_order_independent(self):
        with tempfile.TemporaryDirectory() as d:
            status, out = self.run_cli(
                "canon", self.write(d, "l.jsonl", LEDGER))
            _, out_rev = self.run_cli(
                "canon", self.write(d, "r.jsonl", LEDGER[::-1]))
        self.assertEqual(status, 0)
        self.assertEqual(out, out_rev)
        # One canonical line per ledger record, stages and cycle stamps
        # intact.
        self.assertEqual(len(out.strip().splitlines()), len(LEDGER))
        self.assertIn("ecc_detected_uncorrectable", out)
        self.assertIn('"cycle":900', out)

    def test_timeline_decodes_abft_residual_bits(self):
        residual = 0.03125
        bits = struct.unpack("<Q", struct.pack("<d", residual))[0]
        rec = fault(0, 1, ["inject", "ecc_detected_uncorrectable"],
                    "corrected", "ecc_detected_uncorrectable")
        rec["events"].append({"fault": 1, "stage": "abft_corrected",
                              "cycle": 500, "addr": 0x1000,
                              "a0": bits, "a1": 0})
        with tempfile.TemporaryDirectory() as d:
            status, out = self.run_cli(
                "timeline", self.write(d, "l.jsonl", [rec]), "--no-cycles")
        self.assertEqual(status, 0)
        self.assertIn("residual=0.03125", out)

    def test_merge_shard_ledgers_is_order_independent(self):
        shard0 = [LEDGER[0], LEDGER[2]]  # trial 0's fault + trial record
        shard1 = [LEDGER[1], LEDGER[3]]
        with tempfile.TemporaryDirectory() as d:
            whole = self.write(d, "all.jsonl", LEDGER)
            p0 = self.write(d, "s0.jsonl", shard0)
            p1 = self.write(d, "s1.jsonl", shard1)
            _, out_whole = self.run_cli("canon", whole)
            status, out_fwd = self.run_cli("canon", p0, p1)
            _, out_rev = self.run_cli("canon", p1, p0)
        self.assertEqual(status, 0)
        self.assertEqual(out_fwd, out_rev)
        self.assertEqual(out_fwd, out_whole)

    def test_merge_reconciles_split_shards_against_report(self):
        with tempfile.TemporaryDirectory() as d:
            p0 = self.write(d, "s0.jsonl", [LEDGER[0], LEDGER[2]])
            p1 = self.write(d, "s1.jsonl", [LEDGER[1], LEDGER[3]])
            status, out = self.run_cli(
                "reconcile", p0, p1, "--report",
                self.write(d, "r.json", REPORT))
        self.assertEqual(status, 0)
        self.assertIn("reconcile: OK", out)

    def test_merge_rejects_duplicate_fault_keys(self):
        with tempfile.TemporaryDirectory() as d:
            whole = self.write(d, "all.jsonl", LEDGER)
            overlap = self.write(d, "dup.jsonl", [LEDGER[0]])
            with self.assertRaises(SystemExit) as ctx:
                self.run_cli("canon", whole, overlap)
        self.assertEqual(ctx.exception.code, 2)

    def test_merge_rejects_duplicate_trial_keys(self):
        with tempfile.TemporaryDirectory() as d:
            p0 = self.write(d, "s0.jsonl", [LEDGER[2]])
            p1 = self.write(d, "s1.jsonl", [LEDGER[3], LEDGER[2]])
            with self.assertRaises(SystemExit) as ctx:
                self.run_cli("orphans", p0, p1)
        self.assertEqual(ctx.exception.code, 2)

    def test_kernel_slugs_cover_all_four_kernels(self):
        self.assertEqual(forensics.slug_of("FT-DGEMM"), "dgemm")
        self.assertEqual(forensics.slug_of("FT-Cholesky"), "cholesky")
        self.assertEqual(forensics.slug_of("FT-CG"), "cg")
        self.assertEqual(forensics.slug_of("FT-HPL"), "hpl")


if __name__ == "__main__":
    unittest.main()
