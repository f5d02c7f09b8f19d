#!/usr/bin/env bash
# Output-identity check against another revision: runs every experiment
# of `repro --list` at `--fast` scale with `--csv` on the working tree and
# on REV, then compares every CSV byte for byte.
#
#   scripts/repro_diff.sh <rev>      # e.g. scripts/repro_diff.sh HEAD~1
#
# REV is checked out as a detached `git worktree` under
# target/repro_diff/base and built there (its own target directory, so
# the working tree's build is untouched); the CSVs land in
# target/repro_diff/{base,change}-csv. Exits non-zero when either side
# fails to build or run, when the two sides write different sets of CSV
# files, or when any CSV differs; prints every differing file. A change
# that claims "outputs unchanged" (a refactor, a kernel rewrite) should
# pass this against its parent.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: scripts/repro_diff.sh <rev>" >&2
    exit 2
fi
REV="$1"
git rev-parse --verify --quiet "$REV^{commit}" >/dev/null \
    || { echo "not a commit: $REV" >&2; exit 2; }

ROOT="$(pwd)"
WORK="$ROOT/target/repro_diff"
BASE="$WORK/base"
mkdir -p "$WORK"
if [ -d "$BASE" ]; then
    git worktree remove --force "$BASE" 2>/dev/null || rm -rf "$BASE"
fi
git worktree prune
git worktree add --detach --quiet "$BASE" "$REV"
trap 'git -C "$ROOT" worktree remove --force "$BASE" 2>/dev/null || true' EXIT

# Runs every experiment id of the tree at $1 into the CSV directory $2.
run_all() {
    local tree="$1" csv="$2"
    rm -rf "$csv"
    mkdir -p "$csv"
    (cd "$tree" && cargo build --offline --release -q -p hyperear-bench --bin repro)
    local repro="$tree/target/release/repro"
    local ids
    ids="$("$repro" --list)"
    for id in $ids; do
        echo "  $id"
        "$repro" --fast --csv "$csv" "$id" >/dev/null
    done
}

echo "== repro --fast --csv at $REV =="
run_all "$BASE" "$WORK/base-csv"
echo "== repro --fast --csv at the working tree =="
run_all "$ROOT" "$WORK/change-csv"

echo "== comparing CSVs =="
status=0
base_files="$(cd "$WORK/base-csv" && find . -type f | sort)"
change_files="$(cd "$WORK/change-csv" && find . -type f | sort)"
if [ "$base_files" != "$change_files" ]; then
    echo "the two revisions wrote different CSV files:" >&2
    diff <(echo "$base_files") <(echo "$change_files") >&2 || true
    status=1
fi
count=0
while IFS= read -r f; do
    [ -n "$f" ] || continue
    [ -f "$WORK/change-csv/$f" ] || continue
    count=$((count + 1))
    if ! cmp -s "$WORK/base-csv/$f" "$WORK/change-csv/$f"; then
        echo "DIFFERS: $f" >&2
        status=1
    fi
done <<<"$base_files"
if [ "$status" -eq 0 ]; then
    echo "repro-diff: all $count CSVs byte-identical to $REV"
else
    echo "repro-diff: outputs differ from $REV" >&2
fi
exit "$status"
