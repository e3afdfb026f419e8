#!/usr/bin/env python3
"""bdrmap-analyze: multi-pass repository static analyzer.

Runs every C++ source under src/, tools/, bench/, examples/ and tests/
through three analysis passes (docs/static_analysis.md §3):

  hygiene     — per-line include hygiene and banned patterns (the original
                lint gate): quoted project-relative includes, own-header
                first, no raw assert() outside tests, no file-scope
                `using namespace` in headers, explicit single-argument
                constructors, no std::endl, no NULL.

  layering    — the module DAG: each src/<module> may include only the
                modules beneath it (netbase at the bottom, eval at the
                top); any back-edge is an error. The allowed edges are the
                table MODULE_DEPS below, diagrammed in
                docs/static_analysis.md §3.

  concurrency+determinism —
      determinism: src/core, src/route, src/probe, src/topo must stay
        bit-reproducible, so ambient entropy and wall clocks are banned
        there (rand/srand, std::random_device, system_clock, time()):
        use netbase/rng.h seeded RNGs or an injected clock.
      raw locks: std::mutex / std::shared_mutex / std::condition_variable
        anywhere in src/ outside netbase/sync.h are banned — use the
        TSA-annotated net::Mutex / net::SharedMutex / net::CondVar
        capabilities so Clang thread-safety analysis sees every lock site.

  hot-region   — between `// BDRMAP_HOT_BEGIN(name)` and
                `// BDRMAP_HOT_END(name)` markers (the data-oriented inner
                loops, DESIGN.md §14) node-based containers and naked
                `new` are banned; allocations there belong in flat
                vectors.

Each finding carries a stable rule id (catalog in RULES; `--list-rules`).
`--json` emits a machine-readable document instead of text lines.
`--disable RULE` (repeatable) suppresses a rule by id or name.

Exit status: 0 clean, 1 findings, 2 usage error (unknown flag, a named
path that does not exist, or a named path that is not a C++ source).
Used by tools/check.sh --lint / --analyze and CI. Pass file paths to lint
a subset (e.g. changed files only). The fixture suite under
tests/lint_fixtures/ (excluded from default walks) exercises every rule;
tools/lint_selftest.py asserts each one fires and is registered in ctest.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC_DIRS = ["src", "tools", "bench", "examples", "tests"]
CPP_SUFFIXES = {".cc", ".cpp", ".h", ".hpp"}
# Directories never linted by the default walk: fixture files are
# deliberately bad and are only linted when named explicitly (the
# self-test does exactly that).
EXCLUDED_DIRS = {"lint_fixtures", "build"}

# --------------------------------------------------------------------------
# Rule catalog. Ids are stable; messages may evolve.
# --------------------------------------------------------------------------

RULES = {
    "BDR001": ("include-relative",
               "project includes must use project-root paths, not ../ or ./"),
    "BDR002": ("include-build-artifact",
               "never include files out of a build directory"),
    "BDR003": ("include-own-header-first",
               "a .cc file's first include is its own header"),
    "BDR004": ("raw-assert",
               "use BDRMAP_EXPECTS/ENSURES/ASSERT (netbase/contract.h) "
               "outside tests"),
    "BDR005": ("using-namespace-header",
               "no file-scope `using namespace` in headers"),
    "BDR006": ("implicit-ctor",
               "single-argument constructors must be explicit "
               "(or marked /*implicit*/)"),
    "BDR007": ("std-endl", "std::endl flushes; use '\\n'"),
    "BDR008": ("null-literal", "use nullptr, not NULL"),
    "BDR009": ("unreadable-file", "source file could not be read"),
    "BDR101": ("layer-back-edge",
               "include violates the module DAG (docs/static_analysis.md §3)"),
    "BDR102": ("determinism",
               "ambient entropy / wall clock banned in the inference core; "
               "use netbase/rng.h or an injected clock"),
    "BDR103": ("raw-lock",
               "raw std lock primitive in src/; use the TSA-annotated "
               "capabilities from netbase/sync.h"),
    "BDR104": ("hot-region-alloc",
               "node-based container / naked new / std::function / lock "
               "inside a BDRMAP_HOT_BEGIN/END region (DESIGN.md §14)"),
}
RULE_BY_NAME = {name: rid for rid, (name, _) in RULES.items()}


@dataclass
class Finding:
    rule: str
    path: str  # repo-relative when possible
    line: int  # 0 for whole-file findings
    message: str

    def text(self) -> str:
        loc = f"{self.path}:{self.line}" if self.line else self.path
        return f"{loc}: [{self.rule}] {self.message}"

    def as_json(self) -> dict:
        return {
            "rule": self.rule,
            "name": RULES[self.rule][0],
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


class UsageError(Exception):
    pass


# --------------------------------------------------------------------------
# Layering pass configuration: module -> modules it may include. This is
# the DAG (bottom-up: netbase, then obs/asdata, topo, route, probe, the
# core ring, then the top-level consumers); every edge not listed is a
# back-edge and an error.
# --------------------------------------------------------------------------

_BASE = {"netbase"}
_MID = _BASE | {"obs", "asdata", "topo", "route", "probe"}
_WITH_CORE = _MID | {"core"}
MODULE_DEPS = {
    "netbase": set(),
    "obs": _BASE,
    "asdata": _BASE,
    "topo": _BASE | {"asdata"},
    "route": _BASE | {"obs", "asdata", "topo"},
    "probe": _MID - {"probe"},
    "core": _MID,
    "remote": _MID,
    "runtime": _WITH_CORE,
    "congestion": _WITH_CORE,
    "check": _WITH_CORE,
    "warts": _WITH_CORE,
    "eval": _WITH_CORE | {"runtime", "remote", "check", "congestion", "warts"},
    # The serving layer sits above the pipeline but below the harnesses:
    # it may consume the inference core, the routing substrate and the
    # executor, and NOTHING in src/ may depend on it (only tools/ and
    # bench/ link it) — its absence from every other allow-set is the
    # enforcement.
    "serve": _BASE | {"obs", "core", "route", "runtime"},
}

# Modules whose inference output must be bit-reproducible (BDR102).
DETERMINISTIC_MODULES = {"core", "route", "probe", "topo", "serve"}

DETERMINISM_BANS = [
    (re.compile(r"(?<![\w.:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bsystem_clock\b"), "system_clock"),
    (re.compile(r"(?<![\w.])time\s*\("), "time()"),
]

RAW_LOCK_RE = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?)\b")
# The one place allowed to touch the std primitives: the capability layer.
RAW_LOCK_EXEMPT = ("netbase", "sync.h")

# --------------------------------------------------------------------------
# Shared per-file helpers
# --------------------------------------------------------------------------

CTOR_RE = re.compile(
    r"^\s*(?:constexpr\s+)?([A-Z]\w+)\s*\(\s*((?:const\s+)?[\w:<>,\s&*]+?)\s*"
    r"(?:\bconst\b\s*)?\)\s*(?::|{|;)"
)
ASSERT_RE = re.compile(r"(?<!\w)assert\s*\(")
STATIC_ASSERT_RE = re.compile(r"static_assert\s*\(")
CLASS_NAME_RE = re.compile(r"\b(?:class|struct)\s+(\w+)\b")


def is_header(path: Path) -> bool:
    return path.suffix in {".h", ".hpp"}


def module_of(rel: Path) -> str | None:
    """The src/<module> a file belongs to, or None outside src/.

    The LAST `src` path component wins so fixture trees shaped like
    tests/lint_fixtures/src/<module>/x.cc exercise the path-scoped passes.
    """
    parts = rel.parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "src" and parts[i + 1] in MODULE_DEPS:
            return parts[i + 1]
    return None


def strip_comments_and_strings(line: str) -> str:
    """Crude single-line scrub of string literals and // comments."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    line = re.sub(r"'(?:[^'\\]|\\.)*'", "''", line)
    return line.split("//", 1)[0]


@dataclass
class FileContext:
    """Everything the passes need, computed once per file."""
    path: Path
    rel: Path
    relstr: str
    module: str | None
    in_tests: bool
    raw_lines: list[str]
    code_lines: list[str]  # block comments, // comments, strings scrubbed
    class_names: set[str]  # every `class X` / `struct X` in the file


def build_context(path: Path) -> FileContext | Finding:
    try:
        rel = path.relative_to(REPO)
    except ValueError:
        rel = path
    relstr = str(rel)
    try:
        text = path.read_text(errors="replace")
    except OSError as e:
        return Finding("BDR009", relstr, 0, f"unreadable: {e}")
    raw_lines = text.splitlines()

    code_lines: list[str] = []
    in_block_comment = False
    for raw in raw_lines:
        line = raw
        if in_block_comment:
            if "*/" in line:
                line = line.split("*/", 1)[1]
                in_block_comment = False
            else:
                code_lines.append("")
                continue
        if "/*" in line and "*/" not in line:
            in_block_comment = True
            line = line.split("/*", 1)[0]
        code_lines.append(strip_comments_and_strings(line))

    # Fixture trees under tests/lint_fixtures model non-test sources, so
    # they do NOT get the tests/ exemptions.
    in_tests = "tests" in rel.parts and "lint_fixtures" not in rel.parts
    return FileContext(
        path=path,
        rel=rel,
        relstr=relstr,
        module=module_of(rel),
        in_tests=in_tests,
        raw_lines=raw_lines,
        code_lines=code_lines,
        class_names=set(CLASS_NAME_RE.findall("\n".join(code_lines))),
    )


def ctor_finding(ctx: FileContext, code: str) -> bool:
    """True when `code` declares a non-explicit single-arg constructor."""
    m = CTOR_RE.match(code)
    if m is None:
        return False
    name, args = m.group(1), m.group(2)
    if "explicit" in code or "/*implicit*/" in code or "= delete" in code:
        return False
    if args in ("", "void"):
        return False
    if "," in args:  # multi-argument (default args still convert, but rare)
        return False
    # Copy/move constructors are implicitly fine.
    if re.search(rf"\b{re.escape(name)}\s*(?:&&?|&)", args):
        return False
    # The declaring class must match the ctor name — checked against the
    # class/struct names collected once per file (no re-reads from disk).
    return name in ctx.class_names


# --------------------------------------------------------------------------
# Pass 1: include hygiene + banned patterns (per line)
# --------------------------------------------------------------------------

def pass_hygiene(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []
    rel, relstr = ctx.rel, ctx.relstr

    own_header = None
    if ctx.path.suffix in (".cc", ".cpp"):
        candidate = ctx.path.with_suffix(".h")
        if candidate.exists():
            own_header = candidate.name

    first_include = None
    for n, raw in enumerate(ctx.raw_lines, start=1):
        code = ctx.code_lines[n - 1]

        # Parse includes from the unstripped line: the path is itself a
        # string literal.
        inc = re.match(r'\s*#\s*include\s+"([^"]+)"', raw)
        if inc:
            target = inc.group(1)
            if first_include is None:
                first_include = target
            if target.startswith(("..", "./")):
                findings.append(Finding(
                    "BDR001", relstr, n,
                    f'relative include "{target}" — use a project-root path'))
            if target.startswith(("build/", "build-")):
                findings.append(Finding(
                    "BDR002", relstr, n,
                    f'include of a build artifact "{target}"'))

        if ASSERT_RE.search(code) and not STATIC_ASSERT_RE.search(code):
            if not ctx.in_tests:
                findings.append(Finding(
                    "BDR004", relstr, n,
                    "raw assert() — use BDRMAP_EXPECTS/BDRMAP_ENSURES/"
                    "BDRMAP_ASSERT (netbase/contract.h)"))

        if is_header(ctx.path) and re.match(r"\s*using\s+namespace\s+\w",
                                            code):
            indent = len(raw) - len(raw.lstrip())
            if indent == 0:
                findings.append(Finding(
                    "BDR005", relstr, n,
                    "file-scope `using namespace` in a header"))

        if "std::endl" in code:
            findings.append(Finding("BDR007", relstr, n,
                                    "std::endl — use '\\n'"))

        if re.search(r"(?<!\w)NULL(?!\w)", code):
            findings.append(Finding("BDR008", relstr, n,
                                    "NULL literal — use nullptr"))

        if is_header(ctx.path) and not ctx.in_tests and \
                ctor_finding(ctx, code):
            findings.append(Finding(
                "BDR006", relstr, n,
                "single-argument constructor without `explicit` "
                "(mark /*implicit*/ if conversion is intended)"))

    if own_header is not None and first_include is not None:
        if Path(first_include).name != own_header:
            findings.append(Finding(
                "BDR003", relstr, 0,
                f'first include should be its own header "{own_header}" '
                f'(got "{first_include}")'))

    return findings


# --------------------------------------------------------------------------
# Pass 2: module layering (src/ only)
# --------------------------------------------------------------------------

def pass_layering(ctx: FileContext) -> list[Finding]:
    if ctx.module is None:
        return []
    allowed = MODULE_DEPS[ctx.module]
    findings: list[Finding] = []
    for n, raw in enumerate(ctx.raw_lines, start=1):
        inc = re.match(r'\s*#\s*include\s+"([^"]+)"', raw)
        if not inc:
            continue
        target_module = inc.group(1).split("/", 1)[0]
        if target_module not in MODULE_DEPS:
            continue  # not a module path (e.g. a sibling header)
        if target_module == ctx.module or target_module in allowed:
            continue
        findings.append(Finding(
            "BDR101", ctx.relstr, n,
            f'module "{ctx.module}" may not include "{target_module}" '
            f'(allowed: {", ".join(sorted(allowed)) or "none"}) — '
            "back-edge in the module DAG"))
    return findings


# --------------------------------------------------------------------------
# Pass 3: concurrency + determinism (src/ only)
# --------------------------------------------------------------------------

def pass_concurrency_determinism(ctx: FileContext) -> list[Finding]:
    if ctx.module is None:
        return []
    findings: list[Finding] = []
    deterministic = ctx.module in DETERMINISTIC_MODULES
    exempt_raw_lock = ctx.rel.parts[-2:] == RAW_LOCK_EXEMPT
    for n, code in enumerate(ctx.code_lines, start=1):
        if deterministic:
            for ban_re, what in DETERMINISM_BANS:
                if ban_re.search(code):
                    findings.append(Finding(
                        "BDR102", ctx.relstr, n,
                        f"{what} in src/{ctx.module} breaks bit-"
                        "reproducibility — use netbase/rng.h seeded RNGs "
                        "or an injected clock"))
        if not exempt_raw_lock:
            m = RAW_LOCK_RE.search(code)
            if m:
                findings.append(Finding(
                    "BDR103", ctx.relstr, n,
                    f"raw {m.group(0)} — use the annotated net::Mutex/"
                    "net::SharedMutex/net::CondVar capabilities "
                    "(netbase/sync.h) so thread-safety analysis covers "
                    "this lock"))
    return findings


# --------------------------------------------------------------------------
# Pass 4: hot-region allocation discipline (BDR104)
#
# `// BDRMAP_HOT_BEGIN(name)` ... `// BDRMAP_HOT_END(name)` comment markers
# designate the per-trace inner loops of the data-oriented core
# (DESIGN.md §14). Inside a region, node-based containers
# (std::unordered_map / std::unordered_set / std::map / std::set and their
# multi- forms / std::list) and naked `new` are banned: every per-element
# allocation there belongs in a flat vector. So is std::function, which
# may allocate whenever one is built or copied: a hot loop takes a
# non-owning callable (probe::StopFn) or a template parameter. So are
# net::MutexLock and net::SharedLock: the walk runs on every pool worker at
# once, so a memo hit there is a published-pointer acquire load or a flat
# byte, and only the cold fill outside the region may lock.
# Unbalanced markers are findings too, so a region cannot silently stop
# being checked.
# --------------------------------------------------------------------------

HOT_MARKER_RE = re.compile(r"BDRMAP_HOT_(BEGIN|END)\((\w+)\)")
FLAT = "use a flat vector"
LOCK_FREE = "publish with an atomic pointer and lock only in the cold fill"
NON_OWNING = "take a non-owning callable or a template parameter"
HOT_BANS = [
    (re.compile(r"\bstd::unordered_map\b"), "std::unordered_map", FLAT),
    (re.compile(r"\bstd::unordered_set\b"), "std::unordered_set", FLAT),
    (re.compile(r"\bstd::(multi)?map\b"), "std::map", FLAT),
    (re.compile(r"\bstd::(multi)?set\b"), "std::set", FLAT),
    (re.compile(r"\bstd::list\b"), "std::list", FLAT),
    (re.compile(r"(?<![\w.:])new\b"), "naked new", FLAT),
    (re.compile(r"\bstd::function\b"), "std::function", NON_OWNING),
    (re.compile(r"\b(?:net::)?MutexLock\b"), "net::MutexLock", LOCK_FREE),
    (re.compile(r"\b(?:net::)?SharedLock\b"), "net::SharedLock", LOCK_FREE),
]


def pass_hot_region(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []
    open_regions: dict[str, int] = {}  # name -> BEGIN line
    for n, raw in enumerate(ctx.raw_lines, start=1):
        # Markers live in comments, so match the raw line; bans are
        # checked against the comment/string-scrubbed code line.
        for kind, name in HOT_MARKER_RE.findall(raw):
            if kind == "BEGIN":
                if name in open_regions:
                    findings.append(Finding(
                        "BDR104", ctx.relstr, n,
                        f"BDRMAP_HOT_BEGIN({name}) opened twice (first at "
                        f"line {open_regions[name]})"))
                open_regions[name] = n
            else:
                if name not in open_regions:
                    findings.append(Finding(
                        "BDR104", ctx.relstr, n,
                        f"BDRMAP_HOT_END({name}) without a matching BEGIN"))
                open_regions.pop(name, None)
        if not open_regions:
            continue
        code = ctx.code_lines[n - 1]
        for ban_re, what, remedy in HOT_BANS:
            if ban_re.search(code):
                region = ", ".join(sorted(open_regions))
                findings.append(Finding(
                    "BDR104", ctx.relstr, n,
                    f"{what} inside hot region '{region}' — {remedy} "
                    "(DESIGN.md §14)"))
    for name, line in sorted(open_regions.items()):
        findings.append(Finding(
            "BDR104", ctx.relstr, line,
            f"BDRMAP_HOT_BEGIN({name}) is never closed"))
    return findings


PASSES = [pass_hygiene, pass_layering, pass_concurrency_determinism,
          pass_hot_region]


def lint_file(path: Path) -> list[Finding]:
    ctx = build_context(path)
    if isinstance(ctx, Finding):
        return [ctx]
    findings: list[Finding] = []
    for p in PASSES:
        findings.extend(p(ctx))
    return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def gather(args: list[str]) -> list[Path]:
    if args:
        out: list[Path] = []
        bad: list[str] = []
        for a in args:
            p = Path(a)
            if not p.is_absolute():
                p = REPO / p
            if not p.exists():
                bad.append(f"{a}: no such file")
            elif p.suffix not in CPP_SUFFIXES:
                bad.append(
                    f"{a}: not a C++ source "
                    f"(suffix {p.suffix or '<none>'}; "
                    f"expected one of {', '.join(sorted(CPP_SUFFIXES))})")
            else:
                out.append(p.resolve())
        if bad:
            raise UsageError("\n".join(f"lint.py: {b}" for b in bad))
        return out
    files = []
    for d in SRC_DIRS:
        root = REPO / d
        if not root.is_dir():
            continue
        for p in sorted(root.rglob("*")):
            if p.suffix in CPP_SUFFIXES and \
                    not EXCLUDED_DIRS.intersection(p.parts):
                files.append(p)
    return files


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="lint.py", add_help=True,
        description="bdrmap-analyze: multi-pass repository static analyzer")
    parser.add_argument("paths", nargs="*",
                        help="files to lint (default: repo-wide walk)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON document on stdout")
    parser.add_argument("--disable", action="append", default=[],
                        metavar="RULE",
                        help="suppress a rule by id (BDR102) or name "
                             "(determinism); repeatable")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    try:
        return parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad flags already; normalize --help to 0.
        raise SystemExit(0 if e.code == 0 else 2) from e


def main(argv: list[str]) -> int:
    opts = parse_args(argv[1:])

    if opts.list_rules:
        for rid, (name, summary) in sorted(RULES.items()):
            print(f"{rid}  {name:. <28} {summary}")
        return 0

    disabled: set[str] = set()
    for d in opts.disable:
        rid = d if d in RULES else RULE_BY_NAME.get(d)
        if rid is None:
            print(f"lint.py: unknown rule {d!r} in --disable "
                  f"(see --list-rules)", file=sys.stderr)
            return 2
        disabled.add(rid)

    try:
        files = gather(opts.paths)
    except UsageError as e:
        print(e, file=sys.stderr)
        return 2

    if not files:
        print("lint.py: nothing to lint", file=sys.stderr)
        return 0

    findings: list[Finding] = []
    for path in files:
        findings.extend(f for f in lint_file(path)
                        if f.rule not in disabled)

    if opts.json:
        counts: dict[str, int] = {}
        for f in findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        print(json.dumps({
            "tool": "bdrmap-analyze",
            "schema_version": 1,
            "files_checked": len(files),
            "disabled_rules": sorted(disabled),
            "findings": [f.as_json() for f in findings],
            "counts": counts,
        }, indent=2))
    else:
        for f in findings:
            print(f.text())
        print(
            f"lint.py: {len(files)} files checked, "
            f"{len(findings)} findings",
            file=sys.stderr,
        )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
