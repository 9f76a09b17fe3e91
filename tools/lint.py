#!/usr/bin/env python3
"""Repo-local lint gate (run in CI; no third-party deps).

Checks, each motivated by a concurrency-correctness contract:

1. No ``std::rand`` / ``rand(`` / ``time(`` in ``src/``: the serving
   stack promises bit-identical replays (engine.h, ISSUE PR 6), and
   hidden global-state entropy sources break that silently -- and
   ``std::rand`` is allowed to be non-thread-safe besides.  Tests
   derive churn from loop counters instead.

2. Every public header under ``src/serve/``, ``src/server/``,
   ``src/quant/`` and ``src/support/`` must carry an explicit
   ``Thread-safety:`` contract block, so the capability annotations
   (support/thread_annotations.h) are always paired with prose
   stating *which* of the three repo contracts the class follows:
   immutable, internally synchronized, or externally serialized.

3. Every ``MUGI_FAULT_POINT("site")`` literal in ``src/`` must be
   documented in DESIGN.md's fault-site table (the site name in
   backticks).  An undocumented site is chaos coverage nobody can
   reason about -- the chaos gates assert invariants per site, so
   the contract each site simulates has to be written down.

4. No ``#ifdef NDEBUG`` / ``#ifndef NDEBUG`` / ``#if defined(NDEBUG)``
   / ``#if !defined(NDEBUG)`` under ``tests/``: a preprocessor-guarded
   test body compiles in only one build type, so a type error in it
   breaks the other build unseen.  Tests skip at runtime with
   ``GTEST_SKIP()`` keyed on ``support::kAssertsOn`` instead.

Exit status 0 when clean; 1 with one ``file:line: message`` per
violation otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
TESTS = REPO / "tests"

# Global-state entropy/time calls banned from src/ (deterministic
# replay + thread-safety).  Word-boundary so e.g. `runtime(` or
# `strand(` never match.
BANNED_CALLS = [
    (re.compile(r"\bstd::rand\b"), "std::rand is banned in src/"),
    (re.compile(r"(?<![\w:])rand\s*\("), "rand( is banned in src/"),
    (re.compile(r"(?<![\w:_])time\s*\("), "time( is banned in src/"),
]

THREAD_SAFETY_DIRS = ("serve", "server", "quant", "support")
THREAD_SAFETY_RE = re.compile(r"Thread-safety\s*:")

FAULT_POINT_RE = re.compile(r'MUGI_FAULT_POINT\(\s*"([^"]+)"\s*\)')

NDEBUG_GUARD_RE = re.compile(
    r"^\s*#\s*(?:ifn?def\s+NDEBUG\b|(?:el)?if\s+!?\s*defined\s*\(?\s*NDEBUG\b)"
)


def check_banned_calls(path: Path) -> list[str]:
    problems = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        for pattern, message in BANNED_CALLS:
            if pattern.search(line):
                rel = path.relative_to(REPO)
                problems.append(f"{rel}:{lineno}: {message}")
    return problems


def check_thread_safety_contract(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    if THREAD_SAFETY_RE.search(text):
        return []
    rel = path.relative_to(REPO)
    return [
        f"{rel}:1: public header lacks a 'Thread-safety:' contract "
        "block (state whether the class is immutable, internally "
        "synchronized, or externally serialized)"
    ]


def check_ndebug_guards(path: Path) -> list[str]:
    problems = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if NDEBUG_GUARD_RE.search(line):
            rel = path.relative_to(REPO)
            problems.append(
                f"{rel}:{lineno}: NDEBUG-guarded test code compiles in "
                "one build type only; skip at runtime with GTEST_SKIP() "
                "on support::kAssertsOn instead"
            )
    return problems


def check_fault_sites_documented() -> list[str]:
    """Every MUGI_FAULT_POINT site literal appears in DESIGN.md."""
    design_path = REPO / "DESIGN.md"
    design = (
        design_path.read_text(encoding="utf-8")
        if design_path.exists()
        else ""
    )
    problems = []
    for path in sorted(SRC.rglob("*")):
        if path.suffix not in {".h", ".cc"}:
            continue
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for site in FAULT_POINT_RE.findall(line):
                if f"`{site}`" not in design:
                    rel = path.relative_to(REPO)
                    problems.append(
                        f"{rel}:{lineno}: fault site \"{site}\" is "
                        "not documented in DESIGN.md's fault-site "
                        "table (add it in backticks)"
                    )
    return problems


def main() -> int:
    problems: list[str] = []

    for path in sorted(SRC.rglob("*")):
        if path.suffix not in {".h", ".cc"}:
            continue
        problems += check_banned_calls(path)

    for subdir in THREAD_SAFETY_DIRS:
        for header in sorted((SRC / subdir).glob("*.h")):
            problems += check_thread_safety_contract(header)

    problems += check_fault_sites_documented()

    for path in sorted(TESTS.rglob("*")):
        if path.suffix in {".h", ".cc"}:
            problems += check_ndebug_guards(path)

    if problems:
        print(f"tools/lint.py: {len(problems)} problem(s):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("tools/lint.py: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
