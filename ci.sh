#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
#
#   ./ci.sh            # everything (fmt + clippy + tests)
#   ./ci.sh quick      # fmt + clippy only
#
# The workspace builds fully offline; all third-party deps resolve to the
# stubs in compat/.
set -euo pipefail
cd "$(dirname "$0")"

# No gate may write to a tracked file: the tree's tracked-file status is
# compared before and after.
tracked_before=$(git status --porcelain --untracked-files=no)

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== every stand-in under compat/ is a dependency of something"
for dir in compat/*/; do
    name=$(basename "$dir")
    grep -qE "^$name = \{ workspace = true" Cargo.toml crates/*/Cargo.toml compat/*/Cargo.toml ||
        { echo "compat/$name: no manifest depends on it"; exit 1; }
done

echo "== no file under crates/an2/src over 1200 lines"
# ROADMAP item 1's bar. The cure for a file that trips it is a part with its
# own state behind private fields (crates/an2/src/fabric/), not a second
# `impl` block moved to a new file.
find crates/an2/src -name '*.rs' -exec wc -l {} + |
    awk '$2 != "total" && $1 > 1200 { print; over = 1 } END { exit over }'

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "${1:-}" != "quick" ]]; then
    echo "== cargo test"
    cargo test -q --workspace

    echo "== fabric determinism (slab vs reference oracle)"
    cargo test -q -p an2 --test reference_equiv
    cargo test -q -p an2-bench --release fabric_exp

    echo "== shard equivalence (parallel data plane is byte-identical) + fabric pins (absolute behaviour, captured before the split)"
    cargo test -q -p an2 --test shard_equiv
    # In release, the build the benchmark measures (`cargo test --workspace`
    # above ran it in debug).
    cargo test -q --release -p an2 --test fabric_pins

    echo "== fault soak (N3 asserts its claims in-process)"
    cargo run -q -p an2-bench --release --bin experiments -- n3

    echo "== embedded control plane (N4 asserts its claims in-process)"
    cargo run -q -p an2-bench --release --bin experiments -- n4

    echo "== flight recorder + observatory (determinism digests, golden trace, counter tracks)"
    cargo test -q --test trace_determinism --test golden_trace

    echo "== tracing overhead (N5: asserts traced/untraced <= 1.5x, equal event counts) + traced N4 export (asserts span < 200 ms)"
    cargo run -q -p an2-bench --release --bin experiments -- n5
    cargo run -q -p an2-bench --release --bin experiments -- n4 --trace

    echo "== sharded data plane on the clock (N6 asserts digest equality at every shard count + 2 shards beating 1 on >= 2 cores; nproc = $(nproc))"
    cargo run -q -p an2-bench --release --bin experiments -- n6

    echo "== watermark + wide-radix + port-width equivalence (batched engine is byte-identical, under a fault layer too; a switch does not depend on ports it never sees)"
    cargo test -q -p an2 --test watermark_equiv --test wide_fabric_equiv
    cargo test -q -p an2-xbar --test wide_equiv
    # Again in release, the build the benchmark measures (`cargo test
    # --workspace` above ran them in debug, where `Switch::advance_to`
    # asserts the watermark under every jump): the port-width suite, and
    # the fault legs — a jump bounded by the fault layer against
    # `set_batching(false)` stepping every slot.
    cargo test -q --release -p an2-switch --test width_equiv
    cargo test -q --release -p an2 --test watermark_equiv

    echo "== batched data plane scaling (N7 asserts digest equality + monotone curve)"
    cargo run -q -p an2-bench --release --bin experiments -- n7

    echo "== chaos smoke (bounded fixed-seed campaign grid + shrinker pipeline)"
    cargo test -q --release -p an2-chaos --test smoke

    echo "== chaos corpus replay (every pinned repro: zero violations, identical digests)"
    cargo test -q --release --test chaos_corpus

    echo "== skeptic liveness (healed links always readmitted, levels decay)"
    cargo test -q --release -p an2-reconfig --test skeptic_liveness

    echo "== chaos campaigns + skeptic damping (N8 asserts its claims in-process)"
    cargo run -q -p an2-bench --release --bin experiments -- n8

    echo "== protocol-trait equivalence (up*/down* byte-identical behind ControlProtocol)"
    cargo test -q -p an2 --test protocol_equiv

    echo "== rival convergence (spanning tree + path vector reach their own quiescence)"
    cargo test -q --release -p an2 --test rival_convergence

    echo "== protocol arena (N9 races all three control planes, asserts its claims in-process)"
    cargo run -q -p an2-bench --release --bin experiments -- n9

    echo "== telemetry observatory (N10 scores detection vs ground-truth labels in-process)"
    cargo run -q -p an2-bench --release --bin experiments -- n10

    echo "== a mistyped experiment id or a retired flag fails its gate"
    # (`set -e` ignores a bare `! cmd`, hence the explicit branch.)
    for probe in "nope" "n3 --json"; do
        # Unquoted on purpose: the probe is a word list.
        if cargo run -q -p an2-bench --release --bin experiments -- $probe >/dev/null 2>&1; then
            echo "experiments accepted '$probe'"
            exit 1
        fi
    done

    echo "== benchmark of record: its own tests (six small-scale workloads' digest equalities, seed-7 goldens)"
    # benchmark/ is a workspace of its own, so `cargo test --workspace` never
    # builds it. Building it rewrites its tracked lockfile; put that back.
    CARGO_TARGET_DIR=.bench_build cargo test --offline -q --manifest-path benchmark/Cargo.toml
    git checkout -- benchmark/Cargo.lock

    echo "== cargo doc (deny warnings)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
fi

echo "== tracked files untouched"
tracked_after=$(git status --porcelain --untracked-files=no)
if [[ "$tracked_before" != "$tracked_after" ]]; then
    echo "a gate wrote to a tracked file:"
    diff <(echo "$tracked_before") <(echo "$tracked_after") || true
    exit 1
fi

echo "== ci.sh: all green"
