//! The observability plane's contract: everything except span *timings*
//! is a pure function of the deterministic virtual-time run — the
//! registry dump, the per-tenant percentiles, the SLO counter, and the
//! flight-recorder postmortems are byte-identical run to run — and the
//! whole plane can be switched off without perturbing the run itself.

use std::panic;

use nfv_fleet::{run, run_with_faults, FaultKind, FaultPlan, FleetSpec};
use nfv_telemetry::{Postmortem, SpanId, SpanTree};
use nfv_workload::TenantId;

fn spec() -> FleetSpec {
    FleetSpec {
        seed: 42,
        ..FleetSpec::smoke()
    }
}

#[test]
fn registry_and_percentiles_are_byte_identical_run_to_run() {
    let a = run(&spec()).unwrap();
    let b = run(&spec()).unwrap();
    assert!(!a.registry.is_empty(), "smoke spec enables observability");
    assert_eq!(a.registry.to_text(), b.registry.to_text());
    assert_eq!(a.registry.to_prometheus(), b.registry.to_prometheus());
    assert_eq!(a.registry.to_json(), b.registry.to_json());
    assert_eq!(a.report.tenant_latency, b.report.tenant_latency);
    assert_eq!(a.report.slo_violations, b.report.slo_violations);
    // One latency row per tenant, sorted by tenant id.
    let tenants: Vec<TenantId> = a.report.tenant_latency.iter().map(|s| s.tenant).collect();
    let mut sorted = tenants.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(tenants, sorted);
    assert_eq!(tenants.len(), spec().tenants);
}

#[test]
fn disabling_observability_changes_nothing_but_the_obs_fields() {
    let on = run(&spec()).unwrap();
    let off = run(&FleetSpec {
        observability: false,
        ..spec()
    })
    .unwrap();
    // The run itself is untouched…
    assert_eq!(on.epoch_records, off.epoch_records);
    assert_eq!(on.migrations, off.migrations);
    assert_eq!(on.tenant_reports, off.tenant_reports);
    assert_eq!(
        on.artifacts.journal_jsonl(),
        off.artifacts.journal_jsonl(),
        "journal unaffected by the observability flag"
    );
    // …while the plane itself is empty when off.
    assert!(off.registry.is_empty());
    assert!(off.spans.is_empty());
    assert!(off.postmortems.is_empty());
    assert!(off.report.tenant_latency.is_empty());
    assert_eq!(off.report.slo_violations, 0);
    assert!(!on.spans.is_empty());
}

/// Checks every epoch span of a fleet run: its serial phases, its
/// longest drain lane and its `(other)` residual add up to the measured
/// epoch time. The residual is clamped at zero, so the sum only holds
/// when the covered children fit inside the epoch. Returns the number of
/// epochs checked.
fn assert_epochs_reconstruct(spans: &SpanTree) -> u64 {
    let roots = spans.roots();
    assert_eq!(roots.len(), 1, "one fleet-run root");
    let root = roots[0];
    assert_eq!(spans.label(root), "fleet run");
    let mut epochs_seen = 0;
    for epoch in spans.children(root) {
        if !spans.label(epoch).starts_with("epoch ") {
            continue;
        }
        epochs_seen += 1;
        let (mut serial, mut longest_lane) = (0.0, 0.0f64);
        for child in spans.children(epoch) {
            if spans.is_lane(child) {
                assert!(spans.label(child).starts_with("drain shard "));
                longest_lane = longest_lane.max(spans.seconds(child));
            } else {
                serial += spans.seconds(child);
            }
        }
        let total = serial + longest_lane + spans.residual(epoch);
        let measured = spans.seconds(epoch);
        assert!(
            (total - measured).abs() <= 1e-9 * measured.max(1.0),
            "{}: serial {serial} + longest lane {longest_lane} + residual {} != {measured}",
            spans.label(epoch),
            spans.residual(epoch)
        );
        let labels: Vec<&str> = spans
            .children(epoch)
            .iter()
            .map(|&c| spans.label(c))
            .collect();
        assert!(labels.contains(&"pump"), "every epoch pumps: {labels:?}");
        assert!(
            labels.iter().any(|l| l.starts_with("drain shard ")),
            "every epoch drains: {labels:?}"
        );
    }
    epochs_seen
}

/// The tree's shape: every span's label and its parent's index, in
/// insertion order of a depth-first walk.
fn shape(spans: &SpanTree) -> Vec<(Option<usize>, String)> {
    fn walk(
        spans: &SpanTree,
        id: SpanId,
        parent: Option<usize>,
        out: &mut Vec<(Option<usize>, String)>,
    ) {
        let at = out.len();
        out.push((parent, spans.label(id).to_owned()));
        for child in spans.children(id) {
            walk(spans, child, Some(at), out);
        }
    }
    let mut out = Vec::new();
    for root in spans.roots() {
        walk(spans, root, None, &mut out);
    }
    out
}

#[test]
fn span_tree_phase_totals_sum_to_the_measured_epoch_time() {
    let outcome = run(&spec()).unwrap();
    let spans = &outcome.spans;
    assert_eq!(
        assert_epochs_reconstruct(spans),
        spec().epochs(),
        "one span per epoch"
    );
    // The render carries the attribution table used by `figures profile`.
    let table = spans.render();
    assert!(table.contains("fleet run"));
    assert!(table.contains("(other)"));
    assert!(table.contains("drain shard 0 [lane]"));
}

#[test]
fn faulted_span_trees_reconstruct_and_keep_their_shape_at_any_thread_count() {
    let plan = FaultPlan::none()
        .with_fault(1, FaultKind::ShardPanic { shard: 0 })
        .with_fault(1, FaultKind::TenantCrash { tenant: 1 })
        .with_fault(2, FaultKind::CorruptCheckpoint { tenant: 2 });
    let shapes: Vec<_> = [1, 2, 8]
        .into_iter()
        .map(|threads| {
            let spec = FleetSpec { threads, ..spec() };
            let outcome = quietly(|| run_with_faults(&spec, &plan)).unwrap();
            assert!(outcome.recovery.shard_restores > 0, "the panic fired");
            assert_eq!(outcome.recovery.tenants_quarantined, 1);
            assert_eq!(assert_epochs_reconstruct(&outcome.spans), spec.epochs());
            shape(&outcome.spans)
        })
        .collect();
    assert_eq!(shapes[0], shapes[1], "1 vs 2 threads");
    assert_eq!(shapes[0], shapes[2], "1 vs 8 threads");
}

/// Runs `f` with the panic hook silenced: the plan's injected shard
/// panic is expected and contained by the fleet.
fn quietly<T>(f: impl FnOnce() -> T) -> T {
    let previous = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let result = panic::catch_unwind(panic::AssertUnwindSafe(f));
    panic::set_hook(previous);
    result.unwrap_or_else(|payload| panic::resume_unwind(payload))
}

#[test]
fn quarantine_dumps_a_deterministic_flight_recorder_postmortem() {
    let spec = spec();
    let plan = FaultPlan::none().with_fault(1, FaultKind::CorruptCheckpoint { tenant: 1 });
    let a = run_with_faults(&spec, &plan).unwrap();
    let b = run_with_faults(&spec, &plan).unwrap();
    assert_eq!(a.postmortems.len(), 1, "one quarantine, one postmortem");
    let postmortem = &a.postmortems[0];
    assert_eq!(postmortem.tenant, 1);
    assert_eq!(postmortem.epoch, 1);
    assert_eq!(postmortem.cause, "corrupt_checkpoint");
    let dump = postmortem.render();
    assert!(!dump.is_empty(), "postmortems are never empty");
    assert!(dump.starts_with("postmortem tenant=1 epoch=1 cause=corrupt_checkpoint"));
    assert!(dump.contains("counter "), "checkpoint counters dumped");
    assert_eq!(
        a.postmortems
            .iter()
            .map(Postmortem::render)
            .collect::<Vec<_>>(),
        b.postmortems
            .iter()
            .map(Postmortem::render)
            .collect::<Vec<_>>(),
        "postmortem dumps are deterministic"
    );
}
