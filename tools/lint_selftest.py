#!/usr/bin/env python3
"""Self-test for the bdrmap-analyze lint passes (tools/lint.py).

Fixture-based: every rule in the catalog has a deliberately-bad file under
tests/lint_fixtures/ (excluded from default lint walks) plus good fixtures
that must stay silent. The test asserts, per fixture, the EXACT set of
rule ids that fire — so a rule that stops firing (deleted, broken regex,
disabled by default) fails the suite, as does a rule that starts
misfiring on the good fixtures. It also validates the --json document
shape, the --disable mechanism, the exit-code contract (0 clean /
1 findings / 2 usage error), and that the repository itself is clean
under every pass.

Registered in ctest as LintSelfTest; also run by tools/check.sh --analyze.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LINT = REPO / "tools" / "lint.py"
FIXTURES = REPO / "tests" / "lint_fixtures"

# fixture path (relative to tests/lint_fixtures) -> exact rule ids expected
EXPECT: dict[str, set[str]] = {
    "clean.h": set(),
    "clean.cc": set(),
    "bad_include_relative.cc": {"BDR001"},
    "bad_include_build.cc": {"BDR002"},
    "bad_own_header.h": set(),
    "bad_own_header.cc": {"BDR003"},
    "bad_assert.cc": {"BDR004"},
    "bad_using_namespace.h": {"BDR005"},
    "bad_implicit_ctor.h": {"BDR006"},
    "bad_endl.cc": {"BDR007"},
    "bad_null.cc": {"BDR008"},
    "src/core/good_core.cc": set(),
    "src/core/bad_layer.cc": {"BDR101"},
    "src/core/bad_determinism.cc": {"BDR102"},
    "src/route/bad_rawlock.h": {"BDR103"},
    "src/route/bad_hotpath.cc": {"BDR104"},
    "src/route/bad_hot_lock.cc": {"BDR104"},
    "src/core/bad_hot_function.cc": {"BDR104"},
    "src/serve/bad_layer.cc": {"BDR101"},
}

failures: list[str] = []


def check(cond: bool, what: str) -> None:
    status = "ok" if cond else "FAIL"
    print(f"  [{status}] {what}")
    if not cond:
        failures.append(what)


def run_lint(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINT), *args],
        capture_output=True, text=True, cwd=REPO, check=False)


def run_json(*args: str) -> tuple[int, dict]:
    proc = run_lint("--json", *args)
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        check(False, f"--json output parses as JSON (args: {args})")
        return proc.returncode, {}
    return proc.returncode, doc


def rules_by_file(doc: dict) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for f in doc.get("findings", []):
        out.setdefault(f["path"], set()).add(f["rule"])
    return out


def main() -> int:
    fixture_paths = [str(FIXTURES / rel) for rel in EXPECT]
    for p in fixture_paths:
        if not Path(p).exists():
            print(f"missing fixture: {p}", file=sys.stderr)
            return 1

    print("== fixture pass: every rule fires on its bad fixture only ==")
    rc, doc = run_json(*fixture_paths)
    check(rc == 1, "fixture run exits 1 (findings present)")
    fired = rules_by_file(doc)
    for rel, want in EXPECT.items():
        relpath = str(Path("tests/lint_fixtures") / rel)
        got = fired.get(relpath, set())
        label = f"{rel}: expect {sorted(want) or 'clean'}"
        check(got == want, f"{label}, got {sorted(got) or 'clean'}")

    print("== BDR104 flags each lock and std::function inside a hot region, "
          "none outside ==")
    for rel in ("src/route/bad_hot_lock.cc", "src/core/bad_hot_function.cc"):
        marked = {n for n, line in enumerate(
            (FIXTURES / rel).read_text().splitlines(), start=1)
            if line.rstrip().endswith("// BDR104")}
        flagged = {f["line"] for f in doc.get("findings", [])
                   if f["path"] == f"tests/lint_fixtures/{rel}"}
        check(bool(marked) and flagged == marked,
              f"{rel}: expect lines {sorted(marked)}, got {sorted(flagged)}")

    print("== json schema ==")
    for key, typ in [("tool", str), ("schema_version", int),
                     ("files_checked", int), ("disabled_rules", list),
                     ("findings", list), ("counts", dict)]:
        check(isinstance(doc.get(key), typ), f"top-level {key!r} is {typ.__name__}")
    check(doc.get("tool") == "bdrmap-analyze", "tool name stamped")
    check(doc.get("files_checked") == len(EXPECT),
          "files_checked matches fixture count")
    for f in doc.get("findings", []):
        ok = (isinstance(f.get("rule"), str) and isinstance(f.get("name"), str)
              and isinstance(f.get("path"), str)
              and isinstance(f.get("line"), int)
              and isinstance(f.get("message"), str))
        if not ok:
            check(False, f"finding shape valid: {f}")
            break
    else:
        check(True, "every finding has rule/name/path/line/message")
    total = sum(doc.get("counts", {}).values())
    check(total == len(doc.get("findings", [])),
          "counts sum equals findings length")

    print("== --disable silences exactly the named rule ==")
    exercised = sorted({r for want in EXPECT.values() for r in want})
    for rule in exercised:
        rc_d, doc_d = run_json("--disable", rule, *fixture_paths)
        fired_d = {r for rules in rules_by_file(doc_d).values()
                   for r in rules}
        check(rule not in fired_d, f"--disable {rule} removes its findings")
        others = {r for r in exercised if r != rule}
        check(others <= fired_d,
              f"--disable {rule} leaves the other rules firing")
        check(rule in doc_d.get("disabled_rules", []),
              f"--disable {rule} recorded in the document")
    rc_all = run_lint("--disable", "nonexistent-rule").returncode
    check(rc_all == 2, "--disable with an unknown rule is a usage error (2)")

    print("== exit-code contract ==")
    rc_clean, doc_clean = run_json(str(FIXTURES / "clean.h"),
                                   str(FIXTURES / "clean.cc"))
    check(rc_clean == 0 and doc_clean.get("findings") == [],
          "clean fixtures exit 0 with no findings")
    proc = run_lint(str(FIXTURES / "does_not_exist.cc"))
    check(proc.returncode == 2, "missing explicit path exits 2")
    check("does_not_exist.cc" in proc.stderr,
          "missing path is named on stderr")
    proc = run_lint(str(REPO / "README.md"))
    check(proc.returncode == 2, "non-C++ suffix exits 2")
    check("README.md" in proc.stderr, "non-C++ path is named on stderr")

    print("== repository is clean under every pass ==")
    proc = run_lint()
    check(proc.returncode == 0,
          f"repo-wide lint exits 0 (stdout: {proc.stdout[:400]!r})")

    if failures:
        print(f"\nlint_selftest: {len(failures)} FAILURES", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nlint_selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
