#!/usr/bin/env sh
# LoC budget guard: the solver-clone duplication that PR 4 deleted, the
# kernel-engine twin that PR 15 deleted, the full-grid directed loops
# that PR 22 deleted and the hand-copied run-and-collect wrappers that
# the engine seam replaced must not silently grow back.
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

# The directed solvers: PR 22 made directedness a storage axis
# (`Grid::{UpperTriangle, Full}`) of the generic Blocked-CB and FW-2D
# loops and deleted directed.rs's hand-cloned copies of them (542 -> 320
# lines: two thin front-ends plus the directed oracle tests; 307 once each
# front-end became one call of the engine seam). A round
# loop reappearing in directed.rs, or a per-grid copy of a loop in
# engine.rs, would push one of them back over.
check_budget crates/core/src/directed.rs 307 \
    "directed is \`Grid::Full\` of the generic loops; do not re-clone them"
check_budget crates/core/src/engine.rs 911 \
    "directed is \`Grid::Full\` of the generic loops; do not re-clone them"

# The run-and-collect wrapper: `engine::solve` (chosen by a `(Loop, Grid)`
# pair) is the one place that checks, validates, runs, collects and
# accounts an engine solve. The four paper solvers are data (`EngineSolver`:
# name, purity, loop) whose `ApspSolver` and `AlgebraSolver` impls are
# blanket impls over the seam; `solver.rs` holds the dense adapter
# (`solve_apsp`) and the one `with_paths` switch (`solve_paths`), and the
# planner runs every workload's engine arm through one generic helper.
# These files are pinned at their sizes after that collapse: a
# per-front-end wrapper, a per-workload execute path or a second
# `SolverId` dispatch growing back would push one of them over.
WRAPPER_REASON="engine solves go through engine::solve; do not hand-copy the run-and-collect wrapper"
check_budget crates/core/src/blocked_cb.rs 335 "$WRAPPER_REASON"
check_budget crates/core/src/blocked_im.rs 133 "$WRAPPER_REASON"
check_budget crates/core/src/fw2d.rs 97 "$WRAPPER_REASON"
check_budget crates/core/src/repeated_squaring.rs 109 "$WRAPPER_REASON"
check_budget crates/core/src/algebra.rs 347 "$WRAPPER_REASON"
check_budget crates/core/src/plan.rs 1949 "$WRAPPER_REASON"
check_budget crates/core/src/solver.rs 520 "$WRAPPER_REASON"

exit "$status"
