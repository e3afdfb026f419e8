#!/usr/bin/env python3
"""Ablation bench gate: structural hard checks + warn-only accuracy drift.

Validates a JSON document written by bench_ablation (bench/bench_ablation.cc)
and compares it against the committed reference (BENCH_ablation.json).

Hard checks — any failure exits 1:

  * the document parses and carries the honesty fields (bench ==
    "ablation", repeat >= 1, warmup, hardware_concurrency, scenario_seed)
    so numbers can never be quoted without their context
  * every family carries the full threshold sweep and one leave-one-out
    entry per registered rule, and threshold coverage is non-increasing
    as the threshold rises (retaining MORE links at a HIGHER confidence
    floor means the sweep is broken)

Warn-only checks — printed as "WARN:" but never fail the gate, because
accuracy floors are scenario-generator properties, not code contracts
(see EXPERIMENTS.md; note leave-one-out deltas can legitimately be
POSITIVE, e.g. disabling counting helps on spoofed_source):

  * per family present in both documents: full-ladder link accuracy
    within --tolerance of the reference
  * per (family, rule): leave-one-out link accuracy within --tolerance
  * per (family, threshold): sweep accuracy and coverage within
    --tolerance

Usage: tools/check_ablation.py EXPORT.json [--reference PATH]
                                           [--tolerance F]
Exit status: 0 clean (warnings allowed), 1 hard findings, 2 usage error.
Used by tools/check.sh --ablation and CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

RULES = [
    "vp_network", "firewall", "unrouted", "onenet",
    "relationships", "counting", "analytic_alias", "uncooperative",
]


def hard_check(doc) -> list[str]:
    findings: list[str] = []
    if doc.get("bench") != "ablation":
        findings.append("bench field is not 'ablation'")
    repeat = doc.get("repeat")
    if not isinstance(repeat, int) or repeat < 1:
        findings.append("repeat missing or < 1 (timing honesty field)")
    if doc.get("warmup") is not True:
        findings.append("warmup missing or false (timing honesty field)")
    hw = doc.get("hardware_concurrency")
    if not isinstance(hw, int) or hw < 1:
        findings.append("hardware_concurrency missing (honesty field)")
    if "scenario_seed" not in doc:
        findings.append("scenario_seed missing (reproducibility field)")
    families = doc.get("families")
    if not isinstance(families, list) or not families:
        findings.append("families missing or empty")
        return findings
    for fam in families:
        name = fam.get("family", "<unnamed>")
        loo = {row.get("rule") for row in fam.get("leave_one_out", [])}
        missing = [r for r in RULES if r not in loo]
        if missing:
            findings.append(
                f"{name}: leave_one_out missing rules {missing}")
        sweep = fam.get("thresholds", [])
        if not sweep:
            findings.append(f"{name}: threshold sweep missing")
        prev_threshold, prev_coverage = -1.0, 2.0
        for row in sweep:
            t, cov = row.get("threshold"), row.get("coverage")
            if t is None or cov is None:
                findings.append(f"{name}: malformed threshold row {row}")
                break
            if t <= prev_threshold:
                findings.append(
                    f"{name}: threshold sweep not strictly increasing "
                    f"at {t}")
            if cov > prev_coverage + 1e-9:
                findings.append(
                    f"{name}: coverage rose ({prev_coverage:.4f} -> "
                    f"{cov:.4f}) at threshold {t} — sweep is broken")
            prev_threshold, prev_coverage = t, cov
    return findings


def drift_warnings(doc, ref, tolerance: float) -> list[str]:
    warnings: list[str] = []
    ref_families = {f["family"]: f for f in ref.get("families", [])}

    def compare(label: str, got: float, want: float) -> None:
        if abs(got - want) > tolerance:
            warnings.append(
                f"{label}: {got:.4f} vs reference {want:.4f} "
                f"(|delta| {abs(got - want):.4f} > {tolerance})")

    for fam in doc.get("families", []):
        name = fam["family"]
        ref_fam = ref_families.get(name)
        if ref_fam is None:
            continue  # smoke runs only a subset; absence is expected
        compare(f"{name}: link_accuracy",
                fam.get("link_accuracy", 0.0),
                ref_fam.get("link_accuracy", 0.0))
        ref_loo = {r["rule"]: r for r in ref_fam.get("leave_one_out", [])}
        for row in fam.get("leave_one_out", []):
            ref_row = ref_loo.get(row["rule"])
            if ref_row is not None:
                compare(f"{name}: -{row['rule']} link_accuracy",
                        row.get("link_accuracy", 0.0),
                        ref_row.get("link_accuracy", 0.0))
        ref_sweep = {r["threshold"]: r for r in ref_fam.get("thresholds", [])}
        for row in fam.get("thresholds", []):
            ref_row = ref_sweep.get(row["threshold"])
            if ref_row is not None:
                compare(f"{name}: threshold {row['threshold']} accuracy",
                        row.get("accuracy", 0.0),
                        ref_row.get("accuracy", 0.0))
                compare(f"{name}: threshold {row['threshold']} coverage",
                        row.get("coverage", 0.0),
                        ref_row.get("coverage", 0.0))
    return warnings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("export", help="JSON written by bench_ablation")
    parser.add_argument(
        "--reference", default=str(REPO / "BENCH_ablation.json"),
        help="committed reference document (default: BENCH_ablation.json)")
    parser.add_argument(
        "--tolerance", type=float, default=0.02,
        help="warn when an accuracy/coverage drifts more than this")
    args = parser.parse_args(argv)

    try:
        doc = json.loads(Path(args.export).read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_ablation: {e}", file=sys.stderr)
        return 1

    findings = hard_check(doc)
    if findings:
        for f in findings:
            print(f"check_ablation: {args.export}: {f}", file=sys.stderr)
        return 1

    try:
        ref = json.loads(Path(args.reference).read_text())
    except (OSError, json.JSONDecodeError) as e:
        # Reference drift is warn-only, so a missing/broken reference is
        # noisy but not fatal — the structural gate above already ran.
        print(f"check_ablation: WARN: reference unreadable: {e}")
        ref = {}

    warnings = drift_warnings(doc, ref, args.tolerance)
    for w in warnings:
        print(f"check_ablation: WARN: {w}")

    n_fam = len(doc.get("families", []))
    print(f"check_ablation: {args.export}: ok "
          f"({n_fam} families, {len(warnings)} warnings, warn-only)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
