#!/usr/bin/env python3
"""Documentation gate: dead links, dead anchors and stale CLI flag refs.

Checks, all tuned to fail loudly in CI rather than guess:

1. Relative markdown links.  Every ``[text](target)`` in a tracked ``*.md``
   file whose target is not an absolute URL must resolve to an existing
   file (relative to the markdown file's directory).

2. Anchors.  A ``#section`` fragment — pure (``(#section)``) or trailing a
   markdown target (``(DESIGN.md#section)``) — must match a heading slug
   (GitHub style) or an explicit ``<a name=...>``/``<a id=...>`` anchor in
   the target file.

3. Reference-style links.  ``[text][label]`` (and the ``[text][]``
   shortcut) must have a matching ``[label]: target`` definition in the
   same file, and the definition's target is validated like an inline one.
   Fenced code blocks and inline code spans are ignored throughout.

4. CLI flag reference.  The source of truth is ``parse_args`` in
   ``examples/yoso_cli.cpp`` (the ``key == "..."`` comparisons).  The flag
   list in the file's header comment and the region of ``README.md`` fenced
   by ``<!-- cli-flags:begin -->`` / ``<!-- cli-flags:end -->`` must both
   mention exactly that flag set — no missing flags, no stale ones (a flag
   documented in README but absent from parse_args fails, and vice versa).

5. Artifact-section registry.  The id table fenced by
   ``<!-- artifact-sections:begin -->`` / ``<!-- artifact-sections:end -->``
   in ``docs/ARTIFACTS.md`` must list exactly the ``ArtifactSection``
   enumerators of ``src/core/artifact.h`` — names *and* hex ids.  Skipped
   when either file is absent.

Usage: tools/yoso_docs_check.py [repo_root]   (exit 0 clean, 1 otherwise)
       tools/yoso_docs_check.py --self-test   (fixture cases under
                                               tools/docs_fixtures/)
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
REF_USE_RE = re.compile(r"\[([^\]]+)\]\[([^\]]*)\]")
REF_DEF_RE = re.compile(r"^\s*\[([^\]]+)\]:\s*(\S+)")
FENCE_RE = re.compile(r"^\s*(?:```|~~~)")
CODE_SPAN_RE = re.compile(r"`[^`]*`")
HEADING_RE = re.compile(r"^#{1,6}\s+(.+?)\s*$")
HTML_ANCHOR_RE = re.compile(r"<a\s+(?:name|id)\s*=\s*[\"']([^\"']+)[\"']")
CLI_KEY_RE = re.compile(r'key == "([a-z][a-z0-9-]*)"')
HEADER_FLAG_RE = re.compile(r"^//\s+--([a-z][a-z0-9-]*)\b")
FLAG_TOKEN_RE = re.compile(r"--([a-z][a-z0-9-]*)")
ENUM_SECTION_RE = re.compile(r"^\s*k(\w+)\s*=\s*(0x[0-9a-fA-F]+)\s*,")
DOC_SECTION_ROW_RE = re.compile(
    r"^\|\s*`(0x[0-9a-fA-F]+)`\s*\|\s*`k(\w+)`\s*\|")


def markdown_files(root: Path) -> list[Path]:
    skipped = {"build", ".git", "third_party", "docs_fixtures"}
    files = []
    for path in sorted(root.rglob("*.md")):
        if not any(part in skipped or part.startswith("build")
                   for part in path.relative_to(root).parts):
            files.append(path)
    return files


def prose_lines(text: str):
    """(line_no, line) pairs with fenced code blocks skipped and inline
    code spans blanked — link syntax inside code is not a link."""
    in_fence = False
    for line_no, line in enumerate(text.splitlines(), 1):
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield line_no, CODE_SPAN_RE.sub("``", line)


def slugify(heading: str) -> str:
    """GitHub-style heading slug: strip emphasis markers and punctuation,
    lower-case, spaces to hyphens."""
    text = re.sub(r"[`*_~]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(md: Path, cache: dict) -> set[str]:
    if md not in cache:
        anchors = set()
        for _, line in prose_lines(md.read_text()):
            m = HEADING_RE.match(line)
            if m:
                anchors.add(slugify(m.group(1)))
            anchors.update(HTML_ANCHOR_RE.findall(line))
        cache[md] = anchors
    return cache[md]


def check_target(md: Path, line_no: int, target: str, root: Path,
                 anchor_cache: dict, errors: list[str]) -> None:
    if target.startswith(("http://", "https://", "mailto:")):
        return
    rel = md.relative_to(root)
    if target.startswith("#"):
        if target[1:] not in anchors_of(md, anchor_cache):
            errors.append(f"{rel}:{line_no}: dead anchor '{target}' — no "
                          "matching heading or <a name=...> in this file")
        return
    path_part, _, fragment = target.partition("#")
    resolved = (md.parent / path_part).resolve()
    if not resolved.exists():
        errors.append(f"{rel}:{line_no}: dead link '{target}'")
        return
    if fragment and resolved.suffix == ".md":
        if fragment not in anchors_of(resolved, anchor_cache):
            errors.append(f"{rel}:{line_no}: dead anchor '#{fragment}' — "
                          f"no matching heading in {path_part}")


def check_links(root: Path) -> list[str]:
    errors: list[str] = []
    anchor_cache: dict = {}
    for md in markdown_files(root):
        text = md.read_text()
        rel = md.relative_to(root)
        # Reference definitions first: `[label]: target` (case-insensitive
        # labels, per the markdown spec).
        defs: dict[str, tuple[int, str]] = {}
        for line_no, line in prose_lines(text):
            m = REF_DEF_RE.match(line)
            if m:
                defs[m.group(1).lower()] = (line_no, m.group(2))
        for line_no, line in prose_lines(text):
            if REF_DEF_RE.match(line):
                continue
            for target in LINK_RE.findall(line):
                check_target(md, line_no, target, root, anchor_cache, errors)
            for text_part, label in REF_USE_RE.findall(line):
                label = (label or text_part).lower()
                if label not in defs:
                    errors.append(f"{rel}:{line_no}: reference-style link "
                                  f"'[{label}]' has no '[{label}]: target' "
                                  "definition in this file")
        for label, (line_no, target) in sorted(defs.items()):
            check_target(md, line_no, target, root, anchor_cache, errors)
    return errors


def implemented_flags(cli: Path) -> set[str]:
    return set(CLI_KEY_RE.findall(cli.read_text()))


def header_comment_flags(cli: Path) -> set[str]:
    flags = set()
    for line in cli.read_text().splitlines():
        if not line.startswith("//"):
            break  # the header comment ends at the first non-comment line
        match = HEADER_FLAG_RE.match(line)
        if match:
            flags.add(match.group(1))
    return flags


def readme_region_flags(readme: Path) -> set[str] | None:
    text = readme.read_text()
    begin = text.find("<!-- cli-flags:begin -->")
    end = text.find("<!-- cli-flags:end -->")
    if begin < 0 or end < 0 or end < begin:
        return None
    return set(FLAG_TOKEN_RE.findall(text[begin:end]))


def check_flags(root: Path) -> list[str]:
    cli = root / "examples" / "yoso_cli.cpp"
    readme = root / "README.md"
    implemented = implemented_flags(cli)
    if not implemented:
        return [f"{cli.relative_to(root)}: found no parsed flags — "
                "has parse_args been restructured?"]
    errors = []

    in_header = header_comment_flags(cli)
    for flag in sorted(implemented - in_header):
        errors.append(f"{cli.relative_to(root)}: --{flag} is parsed but "
                      "missing from the header comment flag list")
    for flag in sorted(in_header - implemented):
        errors.append(f"{cli.relative_to(root)}: header comment documents "
                      f"--{flag}, which parse_args does not accept")

    in_readme = readme_region_flags(readme)
    if in_readme is None:
        errors.append("README.md: missing <!-- cli-flags:begin/end --> "
                      "markers around the yoso_cli flag reference")
    else:
        for flag in sorted(implemented - in_readme):
            errors.append(f"README.md: flag reference is missing --{flag}")
        for flag in sorted(in_readme - implemented):
            errors.append(f"README.md: flag reference lists --{flag}, "
                          "which yoso_cli does not accept")
    return errors


def marker_region(text: str, name: str) -> str | None:
    begin = text.find(f"<!-- {name}:begin -->")
    end = text.find(f"<!-- {name}:end -->")
    if begin < 0 or end < 0 or end < begin:
        return None
    return text[begin:end]


def check_artifact_sections(root: Path) -> list[str]:
    """docs/ARTIFACTS.md's section-id registry vs the ArtifactSection enum
    — both the names and the hex ids must agree.  Skips when either side
    is absent (fixture trees)."""
    header = root / "src" / "core" / "artifact.h"
    doc = root / "docs" / "ARTIFACTS.md"
    if not header.exists() or not doc.exists():
        return []
    in_enum = False
    declared: dict[str, int] = {}
    for line in header.read_text().splitlines():
        if "enum class ArtifactSection" in line:
            in_enum = True
            continue
        if in_enum:
            if line.strip().startswith("};"):
                break
            m = ENUM_SECTION_RE.match(line)
            if m:
                declared[m.group(1)] = int(m.group(2), 16)
    if not declared:
        return [f"{header.relative_to(root)}: could not parse the "
                "ArtifactSection enum — has it been restructured?"]
    region = marker_region(doc.read_text(), "artifact-sections")
    if region is None:
        return ["docs/ARTIFACTS.md: missing <!-- artifact-sections:"
                "begin/end --> markers around the section-id table"]
    documented: dict[str, int] = {}
    for line in region.splitlines():
        m = DOC_SECTION_ROW_RE.match(line)
        if m:
            documented[m.group(2)] = int(m.group(1), 16)
    errors = []
    for name in sorted(set(declared) - set(documented)):
        errors.append(f"docs/ARTIFACTS.md: section table is missing "
                      f"`k{name}` (declared in src/core/artifact.h)")
    for name in sorted(set(documented) - set(declared)):
        errors.append(f"docs/ARTIFACTS.md: section table lists `k{name}`, "
                      "which src/core/artifact.h does not declare")
    for name in sorted(set(declared) & set(documented)):
        if declared[name] != documented[name]:
            errors.append(
                f"docs/ARTIFACTS.md: `k{name}` documented as "
                f"0x{documented[name]:02x} but declared as "
                f"0x{declared[name]:02x} in src/core/artifact.h")
    return errors


def check_tree(root: Path) -> list[str]:
    return (check_links(root) + check_flags(root) +
            check_artifact_sections(root))


def run_self_test(script_dir: Path) -> int:
    """Fixture cases: docs_fixtures/good must be clean; every seeded defect
    in docs_fixtures/bad must be reported (and nothing else)."""
    fixtures = script_dir / "docs_fixtures"
    good, bad = fixtures / "good", fixtures / "bad"
    failures = 0

    good_errors = check_tree(good)
    for e in good_errors:
        print(f"SELF-TEST FAIL good/: unexpected error: {e}")
        failures += 1

    expected = [
        # anchor links
        "dead anchor '#missing-section'",
        "dead anchor '#nowhere'",
        # reference-style links
        "reference-style link '[undefined-ref]'",
        "dead link 'missing_target.md'",
        # README flag documented but absent from parse_args (the reverse
        # direction of the missing-from-README check)
        "flag reference lists --bogus",
        # ...and the existing direction still holds
        "flag reference is missing --seed",
    ]
    bad_errors = check_tree(bad)
    for needle in expected:
        if not any(needle in e for e in bad_errors):
            print(f"SELF-TEST FAIL bad/: seeded defect not reported: "
                  f"{needle}")
            failures += 1
    if len(bad_errors) != len(expected):
        print(f"SELF-TEST FAIL bad/: expected exactly {len(expected)} "
              f"errors, got {len(bad_errors)}:")
        for e in bad_errors:
            print(f"  - {e}")
        failures += 1

    print(f"yoso-docs-check --self-test: {failures} failure(s)")
    return 1 if failures else 0


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--self-test":
        return run_self_test(Path(__file__).resolve().parent)
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path.cwd()
    errors = check_tree(root)
    for error in errors:
        print(f"yoso-docs-check: {error}")
    print(f"yoso-docs-check: {'FAIL' if errors else 'OK'} "
          f"({len(markdown_files(root))} markdown files checked)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
