#!/usr/bin/env sh
# LoC budget guard: the solver-clone duplication that PR 4 deleted and the
# kernel-engine twin that PR 15 deleted must not silently grow back.
#
# PR 3 carried four hand-cloned path-tracking solvers in
# crates/core/src/tracked.rs (745 lines). PR 4 collapsed them into the
# generic path-algebra engine (crates/core/src/engine.rs), so tracked.rs
# must stay deleted — or, if it is ever legitimately reintroduced, stay
# under a budget far below the old clone stack.
#
# Run from anywhere inside the repo: scripts/loc_budget.sh

set -eu

cd "$(dirname "$0")/.."

status=0

check_budget() {
    file="$1"
    budget="$2"
    reason="$3"
    if [ -f "$file" ]; then
        lines=$(wc -l < "$file")
        if [ "$lines" -gt "$budget" ]; then
            echo "LOC BUDGET VIOLATION: $file has $lines lines (budget: $budget)"
            echo "  $reason"
            status=1
        else
            echo "ok: $file exists with $lines lines (budget: $budget)"
        fi
    else
        echo "ok: $file stays deleted"
    fi
}

# The tracked solver clones: deleted in PR 4. Anything reappearing here
# beyond a trivial shim means the per-algebra solver duplication is
# coming back — extend the generic engine instead.
check_budget crates/core/src/tracked.rs 100 \
    "tracked solvers are the TrackedTropical instantiation of crates/core/src/engine.rs; do not re-clone them"

# The kernel engine: PR 15 folded the (max, min) copy of the tropical
# engine and the Tiled/Parallel tiers into one engine generic over
# `Semiring` (1,818 -> under 1,400 lines). A second per-algebra copy of
# the row loop / packed micro-kernel / closure would push it back over.
check_budget crates/blockmat/src/kernels.rs 1400 \
    "the f64 kernels are one engine generic over S: Semiring<Elem = f64>; monomorphise it for a new algebra instead of copying it"

exit "$status"
