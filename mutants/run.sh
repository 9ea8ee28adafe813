#!/usr/bin/env bash
# The mutation table: every `mutants/*.patch` is one deliberate bug, a
# unified diff whose header line `# must fail: <command>` names the
# command that must catch it. This runner copies the working tree (not
# HEAD) to a temporary directory, checks that every row's command passes
# on the unmutated copy, then for each row applies the diff, builds,
# runs the command and reverts. A `fuzz` command must exit exactly 1 (a
# caught divergence, not a crash); any other command must exit non-zero.
#
# A row whose diff no longer applies, or whose mutant does not compile,
# is BROKEN, not killed. The runner exits non-zero if the baseline
# fails, or if any row survived or broke.
#
# Usage: bash mutants/run.sh [row ...]   (row = file name without .patch)
#
# All builds share one target directory (CARGO_TARGET_DIR if set, else
# one inside the temporary copy), so each row's rebuild is incremental.
set -u

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
tree=$work/tree
logs=$work/logs
mkdir -p "$tree" "$logs"
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$work/target}
# `git apply` must treat the copy as a plain directory tree, never as
# part of a repository above it.
export GIT_CEILING_DIRECTORIES=$work
row_timeout=900

# Tracked and untracked-but-not-ignored files, as they are on disk.
(cd "$root" && git ls-files -z -co --exclude-standard |
    while IFS= read -r -d '' f; do
        if [ -e "$f" ]; then cp --parents -- "$f" "$tree/"; fi
    done)

if [ "$#" -gt 0 ]; then
    rows=()
    for name in "$@"; do rows+=("$root/mutants/$name.patch"); done
else
    rows=("$root"/mutants/*.patch)
fi
[ -e "${rows[0]}" ] || { echo "no mutation rows under mutants/"; exit 1; }

must_fail() { sed -n 's/^# must fail: //p' "$1" | head -n 1; }

# The build half of a row's command: everything before the program's own
# arguments and before any shell operator, with `cargo run` built and
# `cargo test` compiled but not run.
build_of() {
    local c=${1%% -- *}
    c=${c%%|*}
    c=${c%%&*}
    c=${c%%;*}
    case $c in
        "cargo run "*) echo "cargo build ${c#cargo run }" ;;
        "cargo test "*) echo "cargo test --no-run ${c#cargo test }" ;;
        *) return 1 ;;
    esac
}

# Run a row's command in the copy; print its exit status.
run_cmd() {
    (cd "$tree" && timeout "$row_timeout" bash -c "$1") >"$2" 2>&1
    echo $?
}

# Whether exit status $2 of command $1 counts as catching the mutant.
caught() {
    case $1 in
        *"--bin fuzz "*) [ "$2" -eq 1 ] ;;
        *) [ "$2" -ne 0 ] ;;
    esac
}

status=0

# Baseline: each distinct command passes on the unmutated tree.
declare -A seen=()
i=0
for row in "${rows[@]}"; do
    cmd=$(must_fail "$row")
    [ -n "$cmd" ] || continue
    [ -n "${seen[$cmd]:-}" ] && continue
    seen[$cmd]=1
    i=$((i + 1))
    code=$(run_cmd "$cmd" "$logs/baseline-$i.log")
    if [ "$code" -ne 0 ]; then
        echo "BASELINE FAILS (exit $code): $cmd"
        tail -n 20 "$logs/baseline-$i.log"
        status=1
    fi
done
[ "$status" -eq 0 ] || exit 1
echo "baseline: ${#seen[@]} command(s) pass on the unmutated tree"

killed=0
for row in "${rows[@]}"; do
    name=$(basename "$row" .patch)
    log=$logs/$name.log
    cmd=$(must_fail "$row")
    if [ -z "$cmd" ]; then
        echo "BROKEN   $name: no '# must fail:' line"
        status=1
        continue
    fi
    if ! build=$(build_of "$cmd"); then
        echo "BROKEN   $name: not a cargo run/test command: $cmd"
        status=1
        continue
    fi
    if ! (cd "$tree" && git apply --check "$row") >"$log" 2>&1; then
        echo "BROKEN   $name: does not apply"
        sed -n '1,5p' "$log"
        status=1
        continue
    fi
    (cd "$tree" && git apply "$row")
    if ! (cd "$tree" && bash -c "$build") >>"$log" 2>&1; then
        echo "BROKEN   $name: the mutant does not compile"
        grep -m 5 -A 5 '^error' "$log"
        status=1
    else
        code=$(run_cmd "$cmd" "$log")
        if caught "$cmd" "$code"; then
            echo "killed   $name (exit $code)"
            killed=$((killed + 1))
        else
            echo "SURVIVED $name (exit $code): $cmd"
            tail -n 5 "$log"
            status=1
        fi
    fi
    (cd "$tree" && git apply -R "$row")
done

echo "$killed of ${#rows[@]} row(s) killed"
exit "$status"
