//! Reads the fleet's span tree with concurrency semantics.
//!
//! The fleet times each `drain shard N` span inside its pool worker and
//! files it as a child of the wall-clock epoch, beside the serial phases.
//! Drains of different shards run at the same time, so their sum can
//! exceed the epoch they belong to. Here they are read as concurrent
//! lanes instead: busy seconds (the sum), a critical path, and an
//! imbalance ratio. Only the serial phases and the critical path are
//! subtracted from the epoch's wall time.

use nfv_telemetry::{SpanId, SpanTree};

/// Absolute slack on the per-epoch check, seconds: a fraction of a
/// microsecond of clock-read jitter on a sub-millisecond epoch.
const EPOCH_SLACK_S: f64 = 1e-6;

/// The fleet's wall time split into its serial phases and drain lanes,
/// summed over the run's epochs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetLanes {
    /// Wall time of the whole `fleet run` span.
    pub run_s: f64,
    /// Epochs read.
    pub epochs: usize,
    /// Serial pump phase.
    pub pump_s: f64,
    /// Handoff install and initiate.
    pub handoff_s: f64,
    /// Epoch-start checkpoints of faulted epochs.
    pub checkpoint_s: f64,
    /// Restores and replays after faults.
    pub restore_s: f64,
    /// Quarantine of tenants whose checkpoint was corrupt.
    pub quarantine_s: f64,
    /// Closing every tenant and folding reports and journals.
    pub finish_s: f64,
    /// Sum of every drain lane.
    pub drain_busy_s: f64,
    /// Per epoch, the least wall time the drains could have taken on the
    /// pool: the longest lane, or the busy time spread evenly over the
    /// workers when there are more lanes than workers; summed.
    pub drain_critical_s: f64,
    /// Mean over epochs with drain work of the longest lane over the
    /// mean lane.
    pub drain_imbalance: f64,
    /// Epoch wall time covered by neither a serial phase nor the drain
    /// critical path: the pool's spawn, hand-out and join, and the
    /// epoch's own bookkeeping.
    pub barrier_s: f64,
}

impl FleetLanes {
    /// The layer rows of a layer sum, `(layer, seconds)`: every serial
    /// phase, the drain critical path and the barrier, which together
    /// rebuild each epoch's wall time, and the finish phase. What the run
    /// spends beyond them (tenant construction) is left to the caller's
    /// residual, so overlapping epochs show as a negative one.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("fleet.pump", self.pump_s),
            ("fleet.handoff", self.handoff_s),
            ("fleet.checkpoint", self.checkpoint_s),
            ("fleet.restore", self.restore_s),
            ("fleet.quarantine", self.quarantine_s),
            ("fleet.drain (critical path)", self.drain_critical_s),
            ("parallel.barrier", self.barrier_s),
            ("fleet.finish", self.finish_s),
        ]
    }

    /// Run wall time the rows do not cover.
    #[cfg(test)]
    fn uncovered_s(&self) -> f64 {
        self.run_s - self.rows().iter().map(|(_, s)| s).sum::<f64>()
    }
}

/// Reads a fleet span tree recorded with `threads` drain workers.
///
/// # Errors
///
/// A tree without exactly one `fleet run` root, a span label this reader
/// does not know, or an epoch whose serial phases and drain critical
/// path exceed its wall time.
pub fn read(spans: &SpanTree, threads: usize) -> Result<FleetLanes, String> {
    let roots = spans.roots();
    let [root] = roots.as_slice() else {
        return Err(format!("expected one root span, found {}", roots.len()));
    };
    if spans.label(*root) != "fleet run" {
        return Err(format!("unexpected root span {:?}", spans.label(*root)));
    }
    let mut lanes = FleetLanes {
        run_s: spans.seconds(*root),
        ..FleetLanes::default()
    };
    let mut imbalance_sum = 0.0;
    let mut imbalance_epochs = 0usize;
    for child in spans.children(*root) {
        let label = spans.label(child);
        if label.starts_with("epoch ") {
            let epoch = read_epoch(spans, child, threads)?;
            lanes.epochs += 1;
            lanes.pump_s += epoch.pump_s;
            lanes.handoff_s += epoch.handoff_s;
            lanes.checkpoint_s += epoch.checkpoint_s;
            lanes.restore_s += epoch.restore_s;
            lanes.quarantine_s += epoch.quarantine_s;
            lanes.drain_busy_s += epoch.drain_busy_s;
            lanes.drain_critical_s += epoch.drain_critical_s;
            lanes.barrier_s += epoch.barrier_s;
            if epoch.drain_busy_s > 0.0 {
                imbalance_sum += epoch.drain_imbalance;
                imbalance_epochs += 1;
            }
        } else if label == "finish" {
            lanes.finish_s += spans.seconds(child);
        } else if !label.starts_with("controller phases shard ") {
            // The per-shard controller-phase nodes total time already
            // inside the drain lanes; anything else is unknown.
            return Err(format!("unknown span {label:?} under the fleet root"));
        }
    }
    if imbalance_epochs > 0 {
        lanes.drain_imbalance = imbalance_sum / imbalance_epochs as f64;
    }
    Ok(lanes)
}

fn read_epoch(spans: &SpanTree, epoch: SpanId, threads: usize) -> Result<FleetLanes, String> {
    let mut lanes = FleetLanes::default();
    let mut drains: Vec<f64> = Vec::new();
    for child in spans.children(epoch) {
        let seconds = spans.seconds(child);
        match spans.label(child) {
            "pump" => lanes.pump_s += seconds,
            "handoff" => lanes.handoff_s += seconds,
            "checkpoint" => lanes.checkpoint_s += seconds,
            "restore" => lanes.restore_s += seconds,
            "quarantine" => lanes.quarantine_s += seconds,
            label if label.starts_with("drain shard ") => drains.push(seconds),
            label => return Err(format!("unknown span {label:?} in {}", spans.label(epoch))),
        }
    }
    let busy: f64 = drains.iter().sum();
    let longest = drains.iter().copied().fold(0.0, f64::max);
    lanes.drain_busy_s = busy;
    lanes.drain_critical_s = longest.max(busy / threads.max(1) as f64);
    if busy > 0.0 {
        lanes.drain_imbalance = longest / (busy / drains.len() as f64);
    }
    let wall = spans.seconds(epoch);
    let serial =
        lanes.pump_s + lanes.handoff_s + lanes.checkpoint_s + lanes.restore_s + lanes.quarantine_s;
    lanes.barrier_s = wall - serial - lanes.drain_critical_s;
    if lanes.barrier_s < -(EPOCH_SLACK_S + 1e-3 * wall) {
        return Err(format!(
            "{}: serial phases {serial:.9}s + drain critical path {:.9}s exceed the epoch's {wall:.9}s",
            spans.label(epoch),
            lanes.drain_critical_s
        ));
    }
    Ok(lanes)
}

#[cfg(test)]
mod tests {
    use super::*;

    use nfv_core::experiments::fleet::fleet_spec;
    use nfv_fleet::{FaultPlan, FaultRates, FleetSpec};

    use crate::harness::RESIDUAL_TOLERANCE;

    /// Two lanes of 0.7 s under a 1 s epoch with 0.2 s of pump: summed
    /// as siblings they exceed the epoch; as lanes on two workers the
    /// critical path is 0.7 s and 0.1 s is left for the barrier.
    #[test]
    fn concurrent_lanes_never_add_into_the_epoch() {
        let mut spans = SpanTree::new();
        let root = spans.root("fleet run", 1.25);
        let epoch = spans.child(root, "epoch 0", 1.0);
        spans.accumulate(epoch, "pump", 0.2);
        spans.accumulate(epoch, "drain shard 0", 0.7);
        spans.accumulate(epoch, "drain shard 1", 0.7);
        spans.accumulate(root, "finish", 0.05);
        spans.child(root, "controller phases shard 0", 0.5);
        let lanes = read(&spans, 2).expect("lanes fit the epoch");
        assert!((lanes.drain_busy_s - 1.4).abs() < 1e-12);
        assert!((lanes.drain_critical_s - 0.7).abs() < 1e-12);
        assert!((lanes.barrier_s - 0.1).abs() < 1e-12);
        assert!((lanes.drain_imbalance - 1.0).abs() < 1e-12);
        assert!((lanes.uncovered_s() - 0.2).abs() < 1e-12);
        // On one worker the same lanes cannot fit: the reader says so.
        assert!(read(&spans, 1).is_err());
    }

    #[test]
    fn unknown_spans_are_refused() {
        let mut spans = SpanTree::new();
        let root = spans.root("fleet run", 1.0);
        let epoch = spans.child(root, "epoch 0", 0.5);
        spans.accumulate(epoch, "mystery", 0.1);
        assert!(read(&spans, 2).is_err());
    }

    /// A real fleet forced onto two drain workers, plain and under
    /// recoverable faults: every epoch's lanes fit its wall time, and
    /// the layers rebuild the run without a negative residual.
    #[test]
    fn two_worker_fleet_reads_as_lanes() {
        let spec = FleetSpec {
            threads: 2,
            observability: true,
            ..fleet_spec(64, 8, 42)
        };
        let plan = FaultPlan::seeded(
            42,
            spec.epochs() as usize,
            spec.shards,
            64,
            &FaultRates::recoverable(0.05),
        );
        for plan in [FaultPlan::none(), plan] {
            let outcome = crate::fleet::quietly(|| nfv_fleet::run_with_faults(&spec, &plan))
                .expect("fleet runs");
            let lanes = read(&outcome.spans, spec.threads).expect("lanes fit every epoch");
            assert_eq!(lanes.epochs as u64, spec.epochs());
            assert!(lanes.drain_busy_s > 0.0);
            assert!(lanes.drain_critical_s <= lanes.drain_busy_s + 1e-12);
            assert!(lanes.uncovered_s() >= -RESIDUAL_TOLERANCE * lanes.run_s);
        }
    }
}
