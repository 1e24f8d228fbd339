#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, and the full test suite.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace, all targets, deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== figures command list (every ALL_COMMANDS entry must reach a dispatch arm) =="
figures_src=crates/bench/src/bin/figures.rs
command_gate_failed=0
commands=$(sed -n '/ALL_COMMANDS:/,/^];$/p' "$figures_src" | grep -o '"[a-z0-9]*"' | tr -d '"' | tr '\n' ' ')
[ -n "$commands" ] || { echo "could not extract ALL_COMMANDS from $figures_src"; exit 1; }
for cmd in $commands; do
    grep -q "\"$cmd\" =>" "$figures_src" || {
        echo "command \"$cmd\" is listed in ALL_COMMANDS but has no dispatch arm in $figures_src"
        command_gate_failed=1
    }
done
# And the reverse: every dispatch arm (other than the synthetic all/bench
# drivers and the catch-all) must be listed, so `all` really runs everything.
for cmd in $(grep -o '^        "[a-z0-9]*" =>' "$figures_src" | grep -o '"[a-z0-9]*"' | tr -d '"'); do
    case " all bench $commands " in
        *" $cmd "*) ;;
        *)
            echo "dispatch arm \"$cmd\" in $figures_src is missing from ALL_COMMANDS"
            command_gate_failed=1
            ;;
    esac
done
if [ "$command_gate_failed" != 0 ]; then
    echo "figures command list and dispatch table drifted apart; update ALL_COMMANDS and usage() together"
    exit 1
fi

echo "== panic-site gate (non-test unwrap/expect in controller + fleet + telemetry vs ci/panic_allowlist.txt) =="
panic_gate_failed=0
for f in $(find crates/controller/src crates/fleet/src crates/telemetry/src -name '*.rs' | sort); do
    count=$(awk '/^#\[cfg\(test\)\]/{exit} { line=$0; sub(/\/\/.*/, "", line); if (line ~ /\.unwrap\(\)|\.expect\(/) c++ } END{print c+0}' "$f")
    allowed=$(awk -v f="$f" '$1 == f {print $2}' ci/panic_allowlist.txt)
    allowed=${allowed:-0}
    if [ "$count" -ne "$allowed" ]; then
        echo "$f has $count non-test unwrap/expect sites; the allowlist budgets $allowed"
        panic_gate_failed=1
    fi
done
if [ "$panic_gate_failed" != 0 ]; then
    echo "panic-site budget mismatch: audit the sites and update ci/panic_allowlist.txt in the same commit"
    exit 1
fi

echo "== cargo test (facade + workspace) =="
cargo test -q
cargo test -q --workspace

echo "== thread-count invariance (experiment results at 1/2/8 threads) =="
cargo test -q -p nfv-core --test thread_invariance

echo "== node-failure domains (total-loss, overlap, stale accounting, outage interleavings) =="
cargo test -q -p nfv-controller --test node_failure
cargo test -q -p nfv-controller --test properties outage_interleavings

echo "== queueing formula guards (rho >= 1 stays an error, never a number) =="
cargo test -q -p nfv-queueing rho_

echo "== ledger equivalence (incremental balanced-W bit-identical to the from-scratch oracle) =="
cargo test -q -p nfv-controller --test properties interleaved_mutations_undo_to_identity
cargo test -q -p nfv-controller cached_balanced_latency

echo "== replay engine (streamed == materialized trace, batched path preserves decisions) =="
cargo test -q -p nfv-workload stream
cargo test -q -p nfv-core --lib replay

echo "== anytime search (GA/PSO determinism, repair, refiner hand-off) =="
cargo test -q -p nfv-search
cargo test -q -p nfv-controller refiner
cargo test -q -p nfv-core --lib anytime
cargo test -q -p nfv-core --test thread_invariance search

echo "== retry timer wheel (pop order bit-identical to the BTreeMap oracle) =="
cargo test -q -p nfv-controller wheel

echo "== fleet (sharded tenants: conservation, two-phase handoff, merged journals) =="
cargo test -q -p nfv-fleet
cargo test -q -p nfv-core --lib fleet
cargo test -q -p nfv-core --test thread_invariance fleet

echo "== chaos harness (seeded fault plans, checkpoint/restore, byte-identical recovery) =="
cargo test -q -p nfv-chaos
cargo test -q -p nfv-controller --test snapshot_roundtrip
cargo test -q -p nfv-fleet --test chaos_recovery
cargo test -q -p nfv-core --lib chaos
cargo test -q -p nfv-core --test thread_invariance chaos

echo "== observability plane (span trees, registry byte-identity, flight recorder) =="
cargo test -q -p nfv-fleet --test observability
cargo test -q -p nfv-core --test thread_invariance observability

echo "== cargo build --release =="
cargo build --release

echo "== anytime figure (searchers must reach the greedy placers and the exact oracle) =="
cargo run -q --release -p nfv-bench --bin figures -- anytime --reps 2

echo "== churn figure (joint re-placement must beat scheduling-only when saturated) =="
cargo run -q --release -p nfv-bench --bin figures -- churn

echo "== resilience figure (emergency re-placement + retries must beat tick-only recovery) =="
cargo run -q --release -p nfv-bench --bin figures -- resilience

echo "== chaos figure (every recovered run byte-identical to the undisturbed baseline) =="
cargo run -q --release -p nfv-bench --bin figures -- chaos

echo "== telemetry layer (strict observer, journal round-trip, merge order) =="
cargo test -q -p nfv-telemetry
cargo test -q -p nfv-controller telemetry
cargo test -q -p nfv-core --test thread_invariance telemetry

echo "== telemetry exposure (JSONL journal + outage episode + hot-phase profile) =="
mkdir -p results
cargo run -q --release -p nfv-bench --bin figures -- trace --csv results
test -s results/trace_resilience.jsonl
test -s results/trace_series.csv
cargo run -q --release -p nfv-bench --bin figures -- profile
# Two drain workers even where the host default is one, so the concurrent
# drain lanes of the fleet span tree are checked too.
cargo run -q --release -p nfv-bench --bin figures -- profile --threads 2
cargo run -q --release -p nfv-bench --bin figures -- obs --csv results
test -s results/registry.txt
test -s results/registry.prom
test -s results/registry.json

# Extracts one scalar field from one top-level object ("replay", "telemetry")
# of a BENCH_pipeline.json document fed on stdin. The fleet section repeats
# field names like "events", so the grep must be scoped to the object.
bench_field() { # <object> <field>
    sed -n "/\"$1\": {/,/}/p" | grep -o "\"$2\": *-\{0,1\}[0-9.]*" | grep -o '\-\{0,1\}[0-9.]*$'
}
# Extracts one scalar field from the largest fleet point (256 tenants).
fleet_field() { # <field>
    grep -o '{"tenants": 256,[^}]*}' | grep -o "\"$1\": *[0-9.]*" | grep -o '[0-9.]*$'
}

echo "== telemetry overhead gate (disabled path within 2% of the plain replay) =="
# Capture the committed throughput figures before the bench overwrites them.
committed=$(git show HEAD:BENCH_pipeline.json 2>/dev/null || true)
committed_eps=$(printf '%s' "$committed" | bench_field replay events_per_second || true)
committed_fleet_eps=$(printf '%s' "$committed" | fleet_field events_per_second || true)
committed_recovery_eps=$(printf '%s' "$committed" | bench_field recovery faulted_events_per_second || true)
cargo run --release -p nfv-bench --bin figures -- bench --reps 2
overhead=$(bench_field telemetry disabled_overhead_pct < BENCH_pipeline.json)
echo "telemetry disabled-path overhead: ${overhead}%"
awk -v o="$overhead" 'BEGIN { exit (o <= 2.0) ? 0 : 1 }' || {
    echo "telemetry disabled-path overhead ${overhead}% exceeds the 2% budget"
    exit 1
}

echo "== replay throughput gate (1M-event floor, >= 80% of the committed events/s) =="
# The wall-clock measurement gets one retry: a loaded CI host can produce a
# single bad sample, and failing the gate on it is noise, not signal.
for attempt in 1 2; do
    events=$(bench_field replay events < BENCH_pipeline.json)
    eps=$(bench_field replay events_per_second < BENCH_pipeline.json)
    echo "replay: ${events} events at ${eps} events/s (committed: ${committed_eps:-none})"
    # Hard: the streamed trace itself is deterministic, so a short event
    # count is a workload regression, not host noise.
    awk -v n="$events" 'BEGIN { exit (n >= 1000000) ? 0 : 1 }' || {
        echo "replay trace streamed ${events} events, below the 1M floor"
        exit 1
    }
    # Advisory: absolute throughput depends on the host, so a miss only
    # warns (slow/loaded CI machines false-failed this as a hard gate).
    awk -v e="$eps" 'BEGIN { exit (e >= 1000000) ? 0 : 1 }' \
        || echo "warning: replay throughput ${eps} events/s is below the 1M ev/s reference (host-dependent; not failing)"
    # Hard (with one retry): relative regression against the committed run.
    if [ -z "${committed_eps}" ]; then
        echo "no committed replay figure yet; regression gate skipped"
        break
    fi
    if awk -v e="$eps" -v c="$committed_eps" 'BEGIN { exit (e >= 0.8 * c) ? 0 : 1 }'; then
        break
    fi
    if [ "$attempt" = 2 ]; then
        echo "replay throughput ${eps} events/s regressed below 80% of the committed ${committed_eps}"
        exit 1
    fi
    echo "replay throughput ${eps} events/s below 80% of committed ${committed_eps}; retrying the measurement once"
    cargo run --release -p nfv-bench --bin figures -- bench --reps 2
done

echo "== fleet throughput gate (256-tenant point: migrations recorded, >= 80% of committed ev/s) =="
fleet_eps=$(fleet_field events_per_second < BENCH_pipeline.json)
fleet_migrations=$(fleet_field migrations < BENCH_pipeline.json)
fleet_latency=$(fleet_field mean_rebalance_latency_seconds < BENCH_pipeline.json)
echo "fleet: 256 tenants at ${fleet_eps} events/s, ${fleet_migrations} migrations, ${fleet_latency}s mean rebalance latency (committed: ${committed_fleet_eps:-none})"
# Hard: migration count and rebalance latency are virtual-clock values —
# deterministic per seed, so zeros mean the handoff path stopped running.
awk -v m="$fleet_migrations" -v l="$fleet_latency" 'BEGIN { exit (m >= 1 && l > 0) ? 0 : 1 }' || {
    echo "fleet bench recorded no cross-shard migrations (or zero rebalance latency); the handoff path is dead"
    exit 1
}
if [ -n "${committed_fleet_eps}" ]; then
    awk -v e="$fleet_eps" -v c="$committed_fleet_eps" 'BEGIN { exit (e >= 0.8 * c) ? 0 : 1 }' || {
        echo "fleet throughput ${fleet_eps} events/s regressed below 80% of the committed ${committed_fleet_eps}"
        exit 1
    }
else
    echo "no committed fleet figure yet; regression gate skipped"
fi

echo "== recovery gate (faulted bench run byte-identical; >= 80% of committed faulted ev/s) =="
# Hard: byte-identity of the recovered run is deterministic per seed, so
# a divergence is a recovery bug, never host noise.
sed -n '/"recovery": {/,/}/p' BENCH_pipeline.json | grep -q '"byte_identical": true' || {
    echo "recovery bench: the faulted run diverged from the undisturbed baseline"
    exit 1
}
# Hard (with one retry, like the replay gate): relative throughput of the
# faulted run — checkpoints, restores and replay ride the hot path, so a
# collapse here means recovery overhead regressed.
for attempt in 1 2; do
    recovery_eps=$(bench_field recovery faulted_events_per_second < BENCH_pipeline.json)
    recovery_replayed=$(bench_field recovery events_replayed < BENCH_pipeline.json)
    recovery_faults=$(bench_field recovery faults_injected < BENCH_pipeline.json)
    echo "recovery: ${recovery_faults} faults, ${recovery_replayed} events replayed, faulted run at ${recovery_eps} events/s (committed: ${committed_recovery_eps:-none})"
    # Hard: the seeded plan must actually disturb the run and the
    # replay-to-catch-up path must actually replay events.
    awk -v f="$recovery_faults" -v r="$recovery_replayed" 'BEGIN { exit (f >= 1 && r >= 1) ? 0 : 1 }' || {
        echo "recovery bench injected no faults (or replayed no events); the chaos path is dead"
        exit 1
    }
    if [ -z "${committed_recovery_eps}" ]; then
        echo "no committed recovery figure yet; regression gate skipped"
        break
    fi
    if awk -v e="$recovery_eps" -v c="$committed_recovery_eps" 'BEGIN { exit (e >= 0.8 * c) ? 0 : 1 }'; then
        break
    fi
    if [ "$attempt" = 2 ]; then
        echo "recovery throughput ${recovery_eps} events/s regressed below 80% of the committed ${committed_recovery_eps}"
        exit 1
    fi
    echo "recovery throughput ${recovery_eps} events/s below 80% of committed ${committed_recovery_eps}; retrying the measurement once"
    cargo run --release -p nfv-bench --bin figures -- bench --reps 2
done

echo "== observability overhead gate (obs-enabled fleet within 5% ev/s of the plain run) =="
# Hard (with one retry, like the replay gate): the observability plane is
# counters, fixed-shape histograms and a bounded span tree on the epoch
# loop, so its price must stay inside the 5% budget. A single bad sample
# on a loaded host gets one re-measurement before failing.
for attempt in 1 2; do
    obs_overhead=$(bench_field obs enabled_overhead_pct < BENCH_pipeline.json)
    obs_metrics=$(bench_field obs registry_metrics < BENCH_pipeline.json)
    echo "observability: enabled-path overhead ${obs_overhead}% on the 256-tenant fleet point, ${obs_metrics} registry metrics"
    # Hard: the registry must actually fill — an empty registry means the
    # enabled run silently stopped recording, which would also make the
    # overhead figure meaningless.
    awk -v m="$obs_metrics" 'BEGIN { exit (m >= 1) ? 0 : 1 }' || {
        echo "observability bench recorded an empty registry; the metrics plane is dead"
        exit 1
    }
    if awk -v o="$obs_overhead" 'BEGIN { exit (o <= 5.0) ? 0 : 1 }'; then
        break
    fi
    if [ "$attempt" = 2 ]; then
        echo "observability enabled-path overhead ${obs_overhead}% exceeds the 5% budget"
        exit 1
    fi
    echo "observability overhead ${obs_overhead}% above the 5% budget; retrying the measurement once"
    cargo run --release -p nfv-bench --bin figures -- bench --reps 2
done

echo "ci: all green"
