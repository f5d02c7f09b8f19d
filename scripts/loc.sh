#!/usr/bin/env bash
# Library non-test line counts per crate: every `.rs` file under
# `crates/*/src` except binaries (`src/bin/`), counted up to its unit-test
# module (a column-0 `#[cfg(test)]` followed by a column-0 `mod` line).
# Blank and comment lines count; tests/, benches/ and examples/ do not.
#
#   scripts/loc.sh          # the working tree
#   scripts/loc.sh REV      # the working tree beside REV, plus the net change
#
# This is the "net LoC" CHANGES.md reports.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints `crate lines` for every crate under the tree rooted at $1.
count_tree() {
    local root="$1" dir crate
    for dir in "$root"/crates/*/src; do
        crate="$(basename "$(dirname "$dir")")"
        find "$dir" -name '*.rs' -not -path '*/src/bin/*' -print0 \
            | xargs -0 -r awk '
                FNR == 1 { n += held; done = 0; held = 0 }
                done { next }
                held && /^mod / { done = 1; held = 0; next }
                held { n++; held = 0 }
                /^#\[cfg\(test\)\]/ { held = 1; next }
                { n++ }
                END { print n + held }' \
            | awk -v crate="$crate" '{ s += $1 } END { print crate, s + 0 }'
    done
}

if [ $# -gt 1 ]; then
    echo "usage: scripts/loc.sh [REV]" >&2
    exit 2
fi

tree="$(count_tree .)"
if [ $# -eq 0 ]; then
    printf '%-8s %8s\n' crate lines
    echo "$tree" | awk '{ printf "%-8s %8d\n", $1, $2; t += $2 } END { printf "%-8s %8d\n", "total", t }'
    exit 0
fi

rev="$1"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
git archive "$rev" crates | tar -x -C "$tmp"
base="$(count_tree "$tmp")"
printf '%-8s %8s %8s %8s\n' crate "$rev" tree net
join -a 1 -a 2 -e 0 -o 0,1.2,2.2 <(echo "$base" | sort) <(echo "$tree" | sort) \
    | awk '{ printf "%-8s %8d %8d %+8d\n", $1, $2, $3, $3 - $2; b += $2; t += $3 }
           END { printf "%-8s %8d %8d %+8d\n", "total", b, t, t - b }'
