#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
#
#   ./ci.sh            # everything (fmt + clippy + tests)
#   ./ci.sh quick      # fmt + clippy only
#
# The workspace builds fully offline: it has no third-party dependency.
set -euo pipefail
cd "$(dirname "$0")"

# No gate may write to a tracked file: the tree's tracked-file status is
# compared before and after.
tracked_before=$(git status --porcelain --untracked-files=no)

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== no stand-ins: no compat/, no proptest in any manifest or test"
# Properties walk explicit grids, smallest first, and minimise failing
# sequences with an2_sim::ddmin; a stand-in crate would be a seeded loop in
# a costume.
if [[ -e compat ]]; then
    echo "compat/ exists: the workspace carries no stand-in crates"
    exit 1
fi
if grep -rn --include=Cargo.toml proptest . --exclude-dir=target --exclude-dir=.bench_build; then
    echo "a manifest names proptest"
    exit 1
fi
if grep -rnE 'proptest!|prop_assert|prop_assume|ProptestConfig' crates tests src examples; then
    echo "proptest syntax: walk an explicit grid instead"
    exit 1
fi

echo "== no preserved copies: no crates/*/src/reference.rs, and nothing names the retired oracles"
# The slab fabric, switch and bitmask schedulers are checked against pins of
# what the pre-rewrite copies answered (reference_equiv, wide_fabric_equiv,
# wide_equiv, tests/proptests.rs), not against a second copy of the data
# plane kept beside the first.
if compgen -G 'crates/*/src/reference.rs' >/dev/null; then
    echo "a preserved reference implementation: pin its answers instead"
    exit 1
fi
if grep -rnE 'Reference(Pim|Greedy|Islip|Switch)|an2(_switch|_xbar)?::reference' crates tests src examples; then
    echo "code names a retired oracle: compare against a pin"
    exit 1
fi

echo "== one hasher: the FNV prime appears in no .rs file under crates/ or tests/ outside crates/sim/src/"
# A digest two suites compute two ways is not a contract. Everything that
# hashes goes through an2_sim::Fnv; what "byte-identical" covers is
# Network::digest / Fabric::digest in crates/an2/src.
if grep -rn --include='*.rs' '01b3' crates tests | grep -v '^crates/sim/src/'; then
    echo "a second FNV loop: use an2_sim::Fnv"
    exit 1
fi
# Fnv::replay() is the multiplier benchmark/goldens.json was captured
# under, kept for the library walk alone until those are recaptured.
if grep -rn --include='*.rs' 'Fnv::replay' crates tests | grep -v '^crates/sim/src/\|^crates/an2/src/'; then
    echo "Fnv::replay() is for Network::digest / Fabric::digest only: use Fnv::new()"
    exit 1
fi

echo "== one index of metric series: no map keyed by (&'static str, Entity) in crates/*/src outside crates/trace/src/registry.rs"
# What the observatory's last scrape saw is each registry series' mark; a
# second (name, entity)-keyed table beside the registry's index is a shadow
# copy of series state that can drift from it.
if grep -rnE --include='*.rs' "(BTreeMap|HashMap)<\(&'static str, *Entity\)" crates/*/src |
    grep -v '^crates/trace/src/registry.rs:'; then
    echo "a second index of metric series: keep per-series state in MetricsRegistry"
    exit 1
fi

echo "== one JSON value: JVal and its parser only in crates/sim/src/json.rs, no event fields written into a String"
# How a key or string is escaped and how a number prints is decided once, in
# an2_sim::json; every exporter streams through its ObjWriter/ArrWriter. A
# second value type, parser, or event writer building a String by hand is a
# second format that can drift from it.
if grep -rnE --include='*.rs' 'pub enum JVal|fn parse_value|fn write_fields\(&self, out: &mut String' crates |
    grep -v '^crates/sim/src/json.rs:'; then
    echo "a second JSON writer or parser: use an2_sim::json"
    exit 1
fi

echo "== one scheduling index: no per-input active list or per-step dequeue cache in crates/*/src"
# What PIM reads — which circuits request which (input, output) pair — is
# the switch's per-pair request index (crates/switch/src/index.rs). A second
# structure that rebuilds or caches it per step is a second copy of the
# oldest-head order that can drift from it.
if grep -rnE --include='*.rs' 'take_oldest|OldestCand|set_batched|be_active' crates/*/src; then
    echo "a second scheduling index: read requests from the switch's PairIndex"
    exit 1
fi

echo "== one credit balance per hop: no shadow sender/receiver in crates/an2/src, no check_invariants knob"
# A gated hop's balance is its upstream gate (Circuit::host_credits or the
# upstream switch's credit_balance) and its occupancy the downstream
# switch's buffered cells; the fault layer's ledger keeps only the sent
# count and epochs the hardware lacks. A sender/receiver pair beside the
# gates is a second copy that can drift from them; with none there is no
# divergence for an off switch on the invariant checker to hide.
if grep -rnE 'CreditSender|CreditReceiver|HopFlow' crates/an2/src; then
    echo "a shadow credit ledger: read the hardware gates and buffers"
    exit 1
fi
if grep -rn 'check_invariants' crates tests src examples; then
    echo "an invariant-check knob: a fault layer always checks"
    exit 1
fi

echo "== one model of a credit link: CreditSender and CreditReceiver are built only in crates/flow/src"
# F4 and E10 measure the fabric's credit gates and switch buffers
# (crates/bench/src/flow_exp.rs). A sender/receiver pair built in another
# crate's source is a second model of the link, with a timing of its own
# that drifts from the fabric's (the retired LinkSim reached full rate at
# 2L credits, the fabric at 2L + 3). The property tests and the
# benchmark's credit replay build them outside crates/*/src.
if grep -rnE --include='*.rs' '(CreditSender|CreditReceiver)::new' crates/*/src |
    grep -v '^crates/flow/src/'; then
    echo "a second credit-link model: measure the fabric's gates and buffers"
    exit 1
fi

echo "== one cell arena, per switch: no CellPool or CellQueue in crates/an2/src"
# Queued cells live in each switch's pool; a host outbox adopts the buffers
# its cells were handed over in (crates/an2/src/fabric/host.rs). A second
# arena in the fabric would copy every cell a host sends once more.
if grep -rnE 'CellPool|CellQueue' crates/an2/src; then
    echo "a fabric-side cell arena: outboxes adopt the caller's batches"
    exit 1
fi

echo "== one stepping engine: no batching toggle in crates, tests, src or examples"
# Every switch is stepped only when its next-event watermark is due, and the
# whole fabric jumps what no switch, wire or fault deadline needs. The
# slot-by-slot engine that once ran beside it is pinned in watermark_equiv;
# a switch to bring it back would be a second engine the pins do not cover.
if grep -rnE 'set_batching|batching: bool|\.batching' crates tests src examples; then
    echo "a batching toggle: the fabric has one stepping engine"
    exit 1
fi

echo "== one grid: the an2 pin suites build their shapes only in crates/an2/tests/grid/"
# Every pin suite under crates/an2/tests takes its shapes, circuit mix,
# link cut, digest, engine walk and pin assertion from grid/mod.rs. A
# private topology builder beside it is a second copy of a shape whose
# pins can drift from the grid's.
if grep -nE 'fn topology|fn grid_topology|generators::line\(3\)|generators::ring\(5\)' crates/an2/tests/*.rs; then
    echo "a private shape builder in a pin suite: build it in crates/an2/tests/grid/mod.rs"
    exit 1
fi

echo "== one driver for the control agents: only UpDownProtocol calls a SwitchAgent, and agent::Msg holds no local event"
# UpDownProtocol (crates/reconfig/src/protocol.rs) owns the agents, and
# the ideal-transport harness and the embedded control plane both drive it
# through the ControlProtocol trait. Another caller of SwitchAgent::handle
# or ::on_event would be a second driver with a delivery order of its own;
# agent.rs's unit tests may poke one agent. SwitchAgent's constructor and
# both methods are pub(crate), so only crates/reconfig/src can call them.
# Local link events are protocol::LinkEvent: a Boot, LinkUp or LinkDown in
# agent::Msg spells them twice.
agent_tests=$(grep -m1 -n '^#\[cfg(test)\]' crates/reconfig/src/agent.rs | cut -d: -f1)
if grep -rnE --include='*.rs' '\.(handle|on_event)\(' crates/reconfig/src |
    grep -v '^crates/reconfig/src/protocol.rs:' |
    awk -F: -v tests="${agent_tests:-0}" '!($1 == "crates/reconfig/src/agent.rs" && tests > 0 && $2 > tests)' |
    grep .; then
    echo "a second driver for the switch agents: go through UpDownProtocol"
    exit 1
fi
if sed -n '/^pub enum Msg {/,/^}/p' crates/reconfig/src/agent.rs | grep -E '^\s*(Boot|LinkUp|LinkDown)'; then
    echo "a local event in agent::Msg: local events are protocol::LinkEvent"
    exit 1
fi

echo "== one oracle: crates/chaos/src checks every control protocol alike"
# Each protocol is checked against its own run on the ideal transport,
# with the schedule's own delivery floor. A test of which protocol is
# running, or a scaled floor, forks the oracle: the rivals' crash defect
# (a circuit left on a crashed switch) once hid behind skipped checks
# and a 0.9 derate. Up*/down*'s own routing rule is reached through
# ControlProtocol::as_updown, not a comparison of kinds.
if grep -rnE 'kind (==|!=)|full_oracle|delivery_floor \*' crates/chaos/src; then
    echo "a protocol fork in the chaos oracle: check every protocol against its own reference"
    exit 1
fi

echo "== no file under crates/an2/src over 1200 lines"
# A file a reader can hold whole. The cure for a file that trips it is a
# part with its own state behind private fields (crates/an2/src/fabric/),
# not a second `impl` block moved to a new file.
find crates/an2/src -name '*.rs' -exec wc -l {} + |
    awk '$2 != "total" && $1 > 1200 { print; over = 1 } END { exit over }'

echo "== every pub fn in a library crate is named outside its crate's src/"
# A pub fn no other crate, integration test, example or benchmark names is
# surface nothing needs: make it pub(crate), where rustc's dead_code lint
# sees whether anything calls it at all. A crate's own integration tests
# count as callers; crates/bench is exempt, its binary being its library's
# only caller. One grep pass over the tree matches the names as words, so
# a name shared with an item elsewhere counts as a caller.
pub_fns=$(grep -rnoE --include='*.rs' '^\s*pub fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src |
    grep -v '^crates/bench/')
uncalled=$(awk -F: '
    NR == FNR { seen[$2] = seen[$2] " " $1; next }
    {
        name = $3; sub(/.*pub fn /, "", name)
        split($1, p, "/"); own = p[1] "/" p[2] "/src/"
        n = split(seen[name], files, " "); called = 0
        for (i = 1; i <= n; i++) if (index(files[i], own) != 1) called = 1
        if (!called) print $1 ":" $2 ": " name
    }' <(sed -E 's/.*pub fn //' <<<"$pub_fns" | sort -u |
        grep -rowF --include='*.rs' -f - crates tests src examples benchmark/src) \
    <(printf '%s\n' "$pub_fns"))
if [[ -n "$uncalled" ]]; then
    echo "$uncalled"
    echo "$(wc -l <<<"$uncalled") pub fn(s) named nowhere outside their crate: make them pub(crate)"
    exit 1
fi

echo "== docs and code cite a rule, test or measurement, never a roadmap item number"
# Each re-anchor of ROADMAP.md renumbers its items, so a citation by number
# soon points at the wrong item. The bracketed space keeps this gate from
# matching itself. Of the top-level Markdown files only the project's own
# documentation is searched; the roadmap, the change records and the
# planning notes beside them may cite items by number. benchmark/ is
# excluded until the next change to it: its README.md (three citations)
# and Cargo.toml (one) are still to be rewritten there.
if git grep -nE 'ROADMAP[ ]item' -- . ':(exclude,glob)*.md' ':!benchmark' ||
    git grep -nE 'ROADMAP[ ]item' -- README.md DESIGN.md EXPERIMENTS.md; then
    echo "a roadmap item cited by number: name the rule, test or measurement it means"
    exit 1
fi

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "${1:-}" != "quick" ]]; then
    echo "== cargo test"
    cargo test -q --workspace

    # `cargo test --workspace` has just run every suite in debug, where
    # `Switch::advance_to` asserts the watermark under every jump, every
    # switch step and route change asserts the request index against its
    # queues, and each injection asserts the ready set. What follows
    # re-runs in release, the build the benchmark measures, the suites that
    # pin or compare the data plane, the fault layer and the control
    # protocols.
    echo "== release: fabric, pre-slab-fabric and shared-pair pins (absolute behaviour), port-width and watermark equivalence (the slot-by-slot engine's pins at every shard count, tracing and chunking)"
    cargo test -q --release -p an2 --test fabric_pins
    cargo test -q --release -p an2 --test reference_equiv
    cargo test -q --release -p an2-switch --test shared_pair_pins
    cargo test -q --release -p an2-switch --test width_equiv
    cargo test -q --release -p an2 --test watermark_equiv

    echo "== release: chaos smoke, corpus replay, skeptic liveness, rival convergence"
    cargo test -q --release -p an2-chaos --test smoke
    cargo test -q --release --test chaos_corpus
    cargo test -q --release -p an2-reconfig --test skeptic_liveness
    cargo test -q --release -p an2 --test rival_convergence

    echo "== every figure and claim: experiments all against its golden (each experiment also asserts its claims in-process)"
    # No experiment reads a clock or the environment, so the 23 reports are
    # one text. The gate reads the golden and never writes it; a change that
    # means to move a report regenerates it:
    #   cargo run -q -p an2-bench --release --bin experiments -- all > crates/bench/goldens/experiments.txt
    cargo run -q -p an2-bench --release --bin experiments -- all |
        diff -u crates/bench/goldens/experiments.txt -

    echo "== traced N4 export (asserts span < 200 ms, run byte-identical to untraced)"
    cargo run -q -p an2-bench --release --bin experiments -- n4 --trace

    echo "== a mistyped or retired experiment id, a retired flag, or --trace without n4 fails its gate"
    # (`set -e` ignores a bare `! cmd`, hence the explicit branch.)
    for probe in "nope" "n6" "n3 --json" "e3 --trace"; do
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
