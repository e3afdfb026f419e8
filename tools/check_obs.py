#!/usr/bin/env python3
"""Observability export gate: schema, run-completeness and inventory checks.

Validates a JSON document written by ``--obs-json`` (bdrmap_sim,
bdrmapd, bench_table1) against docs/obs_schema.json. It is the project's
only validator of that schema and implements this JSON-Schema subset:

  type (string), properties, required, items, enum, minimum, minItems,
  additionalProperties (boolean form)

Beyond the shape, a full run must actually have been instrumented, so by
default the gate also requires:

  * run.enabled is true
  * every pipeline stage span fired at least once
    (bdrmap.run, stage.schedule, stage.trace, stage.alias, stage.merge,
    stage.heuristics)
  * at least one rule fire counter (core.heuristic.<rule>.fires) is
    nonzero — a run whose every rule was skipped placed nothing
  * every span is closed and parent ids point at earlier spans
  * alias evidence accounting: core.alias_pairs_reused +
    core.alias_pairs_probed == core.alias_pair_tests
  * heuristic confidence accounting (DESIGN.md §15): publish_result
    observes one core.confidence.<tag> sample per neighbor router and one
    per §5.4.8 link, so the histogram counts over the router tags (all
    but silent and other_icmp) sum to core.neighbor_routers, and those of
    silent + other_icmp sum to at most core.heuristic.uncooperative.fires

--schema-only skips the run-completeness checks (for exports from partial
or disabled runs). --serve switches the completeness profile to the one
bdrmapd produces (docs/serving.md): the serve.* spans and churn counters
are required instead of the batch pipeline stages.

Every counter, gauge, histogram and span name in the export must also
match the name column of the inventory tables in docs/observability.md;
a <placeholder> there matches one dotted segment. In reverse, every
inventory name without a placeholder must appear as a string literal in
the C++ sources under src/ or tools/, so a deleted metric or span cannot
leave a stale row behind.

Usage: tools/check_obs.py EXPORT.json [--schema PATH] [--schema-only]
                                      [--serve]
Exit status: 0 clean, 1 findings, 2 usage error. Used by ctest (the
ObsSchema* entries in tests/CMakeLists.txt), tools/check.sh --obs / --serve
and CI.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

REQUIRED_SPANS = [
    "bdrmap.run",
    "stage.schedule",
    "stage.trace",
    "stage.alias",
    "stage.merge",
    "stage.heuristics",
]

# What a bdrmapd run must have emitted (docs/serving.md): one full build,
# at least one churn epoch with its collect/infer/compile chain.
SERVE_REQUIRED_SPANS = [
    "serve.rebuild",
    "serve.apply",
    "serve.collect",
    "serve.infer",
    "serve.compile",
]
SERVE_REQUIRED_COUNTERS = [
    "serve.churn.events",
    "serve.snapshot.compiles",
]

# §5.4.8 placement tags: they have no router of their own, so their
# confidences are observed per emitted link, not per neighbor router.
LINK_TAGS = ("silent", "other_icmp")


def is_integer(doc) -> bool:
    # Booleans are ints in Python; JSON distinguishes them.
    return isinstance(doc, int) and not isinstance(doc, bool)


def type_matches(name: str, doc) -> bool:
    if name == "object":
        return isinstance(doc, dict)
    if name == "array":
        return isinstance(doc, list)
    if name == "string":
        return isinstance(doc, str)
    if name == "number":
        return is_integer(doc) or isinstance(doc, float)
    if name == "integer":
        return is_integer(doc)
    if name == "boolean":
        return isinstance(doc, bool)
    if name == "null":
        return doc is None
    return False  # unknown type name never matches (schema bug surfaces)


def validate(schema, doc, path: str = "") -> str | None:
    """Returns the path of the first violation, or None when valid."""
    where = path or "/"
    if not isinstance(schema, dict):
        return f"{where}: schema node must be an object"
    if "type" in schema and not type_matches(schema["type"], doc):
        return f"{where}: expected type '{schema['type']}'"
    if "enum" in schema:
        # Exact-kind match: True must not satisfy an enum of [1].
        hits = [
            o for o in schema["enum"]
            if type(o) is type(doc) and o == doc
        ]
        if not hits:
            return f"{where}: value not in enum"
    if "minimum" in schema and isinstance(doc, (int, float)) \
            and not isinstance(doc, bool) and doc < schema["minimum"]:
        return f"{where}: below minimum"
    if "minItems" in schema and isinstance(doc, list) \
            and len(doc) < schema["minItems"]:
        return f"{where}: fewer than minItems entries"
    if isinstance(doc, dict):
        for key in schema.get("required", []):
            if key not in doc:
                return f"{where}: missing required member '{key}'"
        props = schema.get("properties", {})
        for key, sub in props.items():
            if key in doc:
                err = validate(sub, doc[key], f"{path}/{key}")
                if err:
                    return err
        if schema.get("additionalProperties", True) is False:
            for key in doc:
                if key not in props:
                    return f"{where}: unexpected member '{key}'"
    if isinstance(doc, list) and "items" in schema:
        for i, item in enumerate(doc):
            err = validate(schema["items"], item, f"{path}/{i}")
            if err:
                return err
    return None


def check_run(doc, serve: bool = False) -> list[str]:
    """Run-completeness findings for a full instrumented run."""
    findings = []
    if not doc["run"]["enabled"]:
        findings.append("run.enabled is false: export is from a disabled run")
    span_names = [s["name"] for s in doc["spans"]]
    required = SERVE_REQUIRED_SPANS if serve else REQUIRED_SPANS
    kind = "serve" if serve else "pipeline stage"
    for name in required:
        if name not in span_names:
            findings.append(f"missing {kind} span '{name}'")
    for i, span in enumerate(doc["spans"]):
        if not span["closed"]:
            findings.append(f"span {i} ('{span['name']}') never closed")
        if span["id"] != i:
            findings.append(f"span {i} has id {span['id']} (must be its index)")
        if span["parent"] >= i:
            findings.append(
                f"span {i} ('{span['name']}') parent {span['parent']} "
                "is not an earlier span"
            )
    counters = {c["name"]: c["value"] for c in doc["metrics"]["counters"]}
    if serve:
        for name in SERVE_REQUIRED_COUNTERS:
            if counters.get(name, 0) <= 0:
                findings.append(f"serve counter '{name}' never fired")
        touched = (counters.get("serve.churn.dirty_slices", 0)
                   + counters.get("serve.churn.clean_slices", 0))
        if touched <= 0:
            findings.append("no slice was classified dirty or clean "
                            "(churn never reached the engine)")
    fired = [
        name for name, value in counters.items()
        if name.startswith("core.heuristic.") and name.endswith(".fires")
        and value > 0
    ]
    if not fired:
        findings.append("no core.heuristic.<rule>.fires counter is nonzero")

    # Alias evidence accounting: every pair a tail consulted was either
    # reused from stored evidence or probed (docs/serving.md §4).
    alias = ("core.alias_pair_tests", "core.alias_pairs_reused",
             "core.alias_pairs_probed")
    if all(name in counters for name in alias):
        tests, reused, probed = (counters[name] for name in alias)
        if reused + probed != tests:
            findings.append(
                f"core.alias_pairs_reused ({reused}) + "
                f"core.alias_pairs_probed ({probed}) != "
                f"core.alias_pair_tests ({tests})")

    # Heuristic confidence accounting (DESIGN.md §15). Conditional: serve
    # runs publish different families, and an export without
    # core.neighbor_routers published no inference result.
    hists = {h["name"]: h for h in doc["metrics"]["histograms"]}
    if "core.neighbor_routers" in counters:
        router_count = link_count = 0
        for name, hist in hists.items():
            if not name.startswith("core.confidence."):
                continue
            if name[len("core.confidence."):] in LINK_TAGS:
                link_count += hist["count"]
            else:
                router_count += hist["count"]
        neighbors = counters["core.neighbor_routers"]
        if router_count != neighbors:
            findings.append(
                f"router-tag core.confidence.* counts sum to {router_count} "
                f"!= core.neighbor_routers ({neighbors}): a placed router "
                "was scored zero or twice")
        uncooperative = counters.get("core.heuristic.uncooperative.fires", 0)
        if link_count > uncooperative:
            findings.append(
                f"silent/other_icmp core.confidence.* counts sum to "
                f"{link_count} > core.heuristic.uncooperative.fires "
                f"({uncooperative}): more §5.4.8 links than placements")
    return findings


def inventory_names(doc_path: Path) -> list[str]:
    """Every backticked name in the first column of every table in DOC."""
    names = []
    for line in doc_path.read_text().splitlines():
        if not line.startswith("|"):
            continue
        first_cell = line.split("|")[1]
        names += re.findall(r"`([^`]+)`", first_cell)
    return names


def inventory_patterns(names: list[str]) -> list[re.Pattern]:
    """One pattern per inventory name; a <placeholder> matches exactly one
    dotted segment."""
    patterns = []
    for name in names:
        parts = re.split(r"<[^>]+>", name)
        patterns.append(re.compile(
            "[^.]+".join(re.escape(p) for p in parts) + r"\Z"))
    return patterns


def check_stale_rows(names: list[str]) -> list[str]:
    """Every placeholder-free inventory name must be a string literal in
    the C++ sources under src/ or tools/."""
    sources = "".join(
        path.read_text()
        for root in ("src", "tools")
        for path in sorted((REPO / root).rglob("*"))
        if path.suffix in (".cc", ".h"))
    return [
        f"inventory row '{name}' names no string literal under src/ or "
        f"tools/"
        for name in names
        if "<" not in name and f'"{name}"' not in sources
    ]


def check_inventory(doc, patterns: list[re.Pattern]) -> list[str]:
    """Every exported metric and span name must match an inventory row."""
    names = {("span", s["name"]) for s in doc["spans"]}
    for kind in ("counters", "gauges", "histograms"):
        names |= {(kind[:-1], m["name"]) for m in doc["metrics"][kind]}
    return [
        f"{kind} '{name}' has no row in the inventory"
        for kind, name in sorted(names)
        if not any(p.match(name) for p in patterns)
    ]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("export", help="JSON document written by --obs-json")
    parser.add_argument(
        "--schema", default=str(REPO / "docs" / "obs_schema.json"))
    parser.add_argument(
        "--schema-only", action="store_true",
        help="skip the run-completeness checks")
    parser.add_argument(
        "--serve", action="store_true",
        help="require the bdrmapd serve.* profile instead of the "
             "batch pipeline stages")
    args = parser.parse_args(argv)

    try:
        schema = json.loads(Path(args.schema).read_text())
        doc = json.loads(Path(args.export).read_text())
        inventory = inventory_names(REPO / "docs" / "observability.md")
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_obs: {e}", file=sys.stderr)
        return 1

    err = validate(schema, doc)
    if err:
        print(f"check_obs: {args.export}: schema violation: {err}",
              file=sys.stderr)
        return 1

    findings = [] if args.schema_only else check_run(doc, serve=args.serve)
    findings += check_inventory(doc, inventory_patterns(inventory))
    findings += check_stale_rows(inventory)
    if findings:
        for f in findings:
            print(f"check_obs: {args.export}: {f}", file=sys.stderr)
        return 1

    n_spans = len(doc["spans"])
    n_metrics = sum(len(v) for v in doc["metrics"].values())
    print(f"check_obs: {args.export}: ok "
          f"({n_metrics} metrics, {n_spans} spans)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
