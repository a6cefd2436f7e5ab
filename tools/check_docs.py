#!/usr/bin/env python3
"""Docs drift gate.

Three checks, all cheap enough to run in the clang-format CI job:

1. Table completeness: every field of ``EngineOptions``
   (src/serve/serving_engine.h) must be mentioned in the "Policy
   knobs" section of docs/SERVING.md, every field of ``RouterOptions``
   (src/serve/router.h) in its "Router knobs" section, and every field
   of ``EngineStats`` (src/serve/serving_engine.h) in its "Engine
   statistics" section. Adding a knob or a statistic without
   documenting it fails CI — the tables are the user-facing contract,
   and silent drift there is how option docs rot.

2. Intra-repo markdown links: every relative link in the maintained
   documents (README.md, ROADMAP.md, docs/*.md) must point at a file
   that exists, and a ``#fragment`` on a markdown target must match a
   heading in that file (GitHub-style slugs). External http(s) links
   are not touched — this is a hermetic check, no network.

3. Environment variables, both ways: every ``getenv("MXPLUS_...")``
   in src/, bench/, tests/ and examples/ must be named in README.md or
   docs/*.md, and every ``MXPLUS_...`` name those documents mention
   must be read by that code or be a CMake ``option()`` — so a new
   variable cannot ship undocumented and a removed one cannot linger
   in the docs.

Exit code 0 when clean; 1 with one line per violation otherwise.

Usage: python3 tools/check_docs.py [--repo PATH]
"""

import argparse
import re
import sys
from pathlib import Path

KNOB_DOC = "docs/SERVING.md"
# (header, struct name, SERVING.md section) per documented struct.
KNOB_SPECS = (
    ("src/serve/serving_engine.h", "EngineOptions", "### Policy knobs"),
    ("src/serve/router.h", "RouterOptions", "### Router knobs"),
    ("src/serve/serving_engine.h", "EngineStats", "### Engine statistics"),
)
DOC_FILES = ("README.md", "ROADMAP.md")
DOC_GLOBS = ("docs/*.md",)
# Where environment variables are read, and the documents that name them.
ENV_CODE_DIRS = ("src", "bench", "tests", "examples")
ENV_CODE_SUFFIXES = (".h", ".cpp")
ENV_DOC_FILES = ("README.md",)
ENV_READ_RE = re.compile(r'getenv\("(MXPLUS_[A-Z0-9_]+)"\)')
ENV_NAME_RE = re.compile(r"\bMXPLUS_[A-Z0-9_]+\b")
CMAKE_OPTION_RE = re.compile(r"^\s*option\((MXPLUS_[A-Z0-9_]+)", re.M)

# Lines like `size_t max_batch = 8;` / `FaultInjector *fault = nullptr;`
# inside the struct body. The type may be multi-token; the field name is
# the last identifier before `=` (every EngineOptions field has an
# in-class default, which the style here treats as mandatory).
FIELD_RE = re.compile(r"^\s*[A-Za-z_][\w:<>, ]*[\s*&]([a-z_][a-z0-9_]*)\s*=")

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")


def option_fields(repo, header, struct):
    """Field names of the given options struct, in declaration order."""
    text = (repo / header).read_text()
    m = re.search(r"struct %s\s*\{(.*?)\n\};" % struct, text, re.S)
    if not m:
        sys.exit("check_docs: cannot find struct %s in %s"
                 % (struct, header))
    fields = []
    in_comment = False
    for line in m.group(1).splitlines():
        stripped = line.strip()
        if in_comment:
            if "*/" in stripped:
                in_comment = False
            continue
        if stripped.startswith("/*"):
            in_comment = "*/" not in stripped
            continue
        if stripped.startswith("//") or stripped.startswith("*"):
            continue
        fm = FIELD_RE.match(line)
        if fm:
            fields.append(fm.group(1))
    if not fields:
        sys.exit("check_docs: parsed zero %s fields — "
                 "the parser drifted from the header style" % struct)
    return fields


def knob_section(repo, section):
    """The given knobs section of SERVING.md (header to next heading)."""
    lines = (repo / KNOB_DOC).read_text().splitlines()
    start = None
    for i, line in enumerate(lines):
        if line.strip().startswith(section):
            start = i
            break
    if start is None:
        sys.exit("check_docs: %s has no '%s' section" %
                 (KNOB_DOC, section))
    end = len(lines)
    for i in range(start + 1, len(lines)):
        if lines[i].startswith("#"):
            end = i
            break
    return "\n".join(lines[start:end])


def github_slug(heading):
    """GitHub's anchor slug for a markdown heading."""
    s = re.sub(r"`([^`]*)`", r"\1", heading)  # code spans keep contents
    s = s.strip().lower()
    s = re.sub(r"[^\w\- ]", "", s)
    return s.replace(" ", "-")


def heading_slugs(path):
    slugs = set()
    in_fence = False
    for line in path.read_text().splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = HEADING_RE.match(line)
        if m:
            slugs.add(github_slug(m.group(1)))
    return slugs


def check_knobs(repo, errors):
    for header, struct, section_name in KNOB_SPECS:
        section = knob_section(repo, section_name)
        for field in option_fields(repo, header, struct):
            if "`%s`" % field not in section:
                errors.append(
                    "%s: %s::%s is not mentioned in the '%s' "
                    "section — document the field (or its interaction "
                    "with an existing row)" %
                    (KNOB_DOC, struct, field, section_name))


def check_links(repo, errors):
    docs = [repo / f for f in DOC_FILES]
    for pattern in DOC_GLOBS:
        docs.extend(sorted(repo.glob(pattern)))
    slug_cache = {}
    for doc in docs:
        if not doc.exists():
            errors.append("%s: maintained document is missing" %
                          doc.relative_to(repo))
            continue
        in_fence = False
        for lineno, line in enumerate(doc.read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for target in LINK_RE.findall(line):
                if re.match(r"^[a-z][a-z0-9+.-]*:", target):
                    continue  # http:, https:, mailto:, ...
                base, _, frag = target.partition("#")
                dest = doc if not base else (doc.parent / base).resolve()
                rel = "%s:%d" % (doc.relative_to(repo), lineno)
                if base and not dest.exists():
                    errors.append("%s: broken link '%s' (no such file)" %
                                  (rel, target))
                    continue
                if frag and dest.suffix == ".md":
                    if dest not in slug_cache:
                        slug_cache[dest] = heading_slugs(dest)
                    if frag not in slug_cache[dest]:
                        errors.append(
                            "%s: link '%s' — no heading with anchor "
                            "'#%s' in %s" %
                            (rel, target, frag,
                             dest.relative_to(repo)))


def check_env(repo, errors):
    reads = {}  # variable -> first "file:line" that reads it
    for top in ENV_CODE_DIRS:
        for path in sorted((repo / top).rglob("*")):
            if path.suffix not in ENV_CODE_SUFFIXES:
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for name in ENV_READ_RE.findall(line):
                    reads.setdefault(
                        name, "%s:%d" % (path.relative_to(repo), lineno))
    options = set(CMAKE_OPTION_RE.findall(
        (repo / "CMakeLists.txt").read_text()))
    docs = [repo / f for f in ENV_DOC_FILES]
    docs.extend(sorted(repo.glob("docs/*.md")))
    mentions = {}  # name -> first "doc:line" that names it
    for doc in docs:
        if not doc.exists():
            continue  # check_links reports missing documents
        for lineno, line in enumerate(doc.read_text().splitlines(), 1):
            for name in ENV_NAME_RE.findall(line):
                mentions.setdefault(
                    name, "%s:%d" % (doc.relative_to(repo), lineno))
    for name, where in sorted(reads.items()):
        if name not in mentions:
            errors.append(
                "%s: reads environment variable %s, which neither "
                "README.md nor docs/*.md names — document it" %
                (where, name))
    for name, where in sorted(mentions.items()):
        if name not in reads and name not in options:
            errors.append(
                "%s: names %s, which no code reads and no CMake option "
                "defines — drop the stale mention" % (where, name))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repo", default=Path(__file__).resolve().parent.parent,
                    type=Path, help="repository root")
    args = ap.parse_args()
    repo = args.repo.resolve()

    errors = []
    check_knobs(repo, errors)
    check_links(repo, errors)
    check_env(repo, errors)

    if errors:
        for e in errors:
            print("check_docs: FAIL  %s" % e)
        print("check_docs: %d violation(s)" % len(errors))
        return 1
    print("check_docs: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
