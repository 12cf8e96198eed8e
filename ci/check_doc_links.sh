#!/usr/bin/env sh
# Docs-link check: every `.md` file referenced from the README, the
# handbook, rustdoc, code comments, and examples must exist, so
# documentation pointers cannot rot. Offline by design — only local
# file references are checked, never URLs.
set -eu
cd "$(dirname "$0")/.."

# An optional leading dot keeps dot-directory paths (`.github/...`) whole.
refs=$(grep -rhoE '\.?[A-Za-z0-9_][A-Za-z0-9_./-]*\.md' \
    README.md ROADMAP.md CHANGES.md docs src examples \
    $(find crates -name '*.rs' -path '*/src/*') \
    | sort -u)

fail=0
for ref in $refs; do
    base=$(basename "$ref")
    # A reference resolves at its literal path (relative to the repo
    # root), at the root itself, or inside docs/.
    if [ -f "$ref" ] || [ -f "$base" ] || [ -f "docs/$base" ]; then
        continue
    fi
    echo "dangling doc reference: $ref" >&2
    fail=1
done

if [ "$fail" -ne 0 ]; then
    echo "docs-link check FAILED" >&2
    exit 1
fi
echo "docs-link check OK ($(printf '%s\n' "$refs" | wc -l) references)"
