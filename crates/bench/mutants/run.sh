#!/usr/bin/env bash
# Sees every committed mutant turn its gate red.
#
#   crates/bench/mutants/run.sh [PATCH...]      default: every *.patch here
#
# Each patch opens with a `Must turn red: <command>` line. For each one
# the runner checks out HEAD into a fresh `git worktree`, applies the
# patch there, builds every test target (`cargo test --no-run
# --workspace`), runs the command from the worktree's root, and removes
# the worktree. A mutant whose command exits zero got past the gate it
# was written for; a patch that no longer applies, or whose tree does
# not compile, tests nothing. Any of the three makes the runner exit
# non-zero once every patch has run.
#
# Worktrees go under $TMPDIR; the builds share $CARGO_TARGET_DIR
# (default target/mutants at the repo root), so only what a patch
# touches is rebuilt from one mutant to the next. Each mutant's build
# and gate output stays in target/mutants/logs/<name>.log.
set -uo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(git -C "$here" rev-parse --show-toplevel)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/mutants}"

if [ $# -eq 0 ]; then
    set -- "$here"/*.patch
fi

logs="$root/target/mutants/logs"
mkdir -p "$logs"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"; git -C "$root" worktree prune' EXIT
failed=0
for patch in "$@"; do
    patch="$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")"
    name="$(basename "$patch" .patch)"
    command="$(sed -n 's/^Must turn red: //p' "$patch" | head -n 1)"
    if [ -z "$command" ]; then
        echo "$name: no 'Must turn red:' line"
        failed=1
        continue
    fi
    tree="$scratch/$name"
    log="$logs/$name.log"
    git -C "$root" worktree add --quiet --detach "$tree" HEAD
    if ! git -C "$tree" apply "$patch"; then
        echo "$name: does not apply to HEAD"
        failed=1
    elif ! (cd "$tree" && cargo test --no-run --workspace -q) >"$log" 2>&1; then
        echo "$name: does not compile (log: $log)"
        failed=1
    else
        (cd "$tree" && bash -c "$command") >>"$log" 2>&1
        code=$?
        if [ "$code" -eq 0 ]; then
            echo "$name: SURVIVED (exit 0): $command (log: $log)"
            tail -n 20 "$log"
            failed=1
        else
            echo "$name: red (exit $code): $command (log: $log)"
        fi
    fi
    git -C "$root" worktree remove --force "$tree"
done
exit "$failed"
