//! The fleet's observability plane behind one value: a [`Recorder`],
//! built from [`FleetSpec::observability`], owns every wall-clock read of
//! the fleet loop, the causal span tree, the metrics registry and the
//! flight-recorder postmortems. Disabled, it reads no clock and records
//! nothing, like [`Telemetry::disabled`](nfv_telemetry::Telemetry). Span
//! durations never flow back into a decision; the tree's shape, the
//! registry, the percentiles and the postmortems all derive from the
//! deterministic virtual-time run.

use nfv_controller::ControllerReport;
use nfv_metrics::{percentile_sorted, Histogram};
use nfv_telemetry::{
    Phase, PhaseProfile, Postmortem, Registry, SpanId, SpanTree, Stopwatch, Telemetry,
    TelemetryArtifacts, FLIGHT_RECORDER_WINDOW,
};
use nfv_workload::TenantId;

use crate::{FleetReport, FleetSpec, QuarantineRecord, TenantLatencyStats};

/// Fixed shape of the per-tenant latency histograms (`lo`, `hi`, bins).
const LATENCY_HISTOGRAM: (f64, f64, usize) = (0.0, 0.1, 20);
/// Fixed shape of the per-shard retry-backlog histograms.
const BACKLOG_HISTOGRAM: (f64, f64, usize) = (0.0, 32.0, 16);

/// An empty histogram of one of the fixed shapes above. They are valid
/// constants, so this is never `None` in practice; the `Option` keeps the
/// crate's zero panic-site budget.
fn histogram((lo, hi, bins): (f64, f64, usize)) -> Option<Histogram> {
    Histogram::new(lo, hi, bins)
}

/// A serial phase of one epoch, filed as a child of the epoch span under
/// its label in [`STEP_LABELS`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    Handoff,
    Checkpoint,
    Pump,
    Restore,
    Quarantine,
}

const STEP_LABELS: [&str; 5] = ["handoff", "checkpoint", "pump", "restore", "quarantine"];

/// Starts [`Lap`]s; `Copy` and `Send`, so pool workers time their own
/// drains with it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Clock(bool);

impl Clock {
    /// Starts a lap (reads the clock only when the plane is on).
    fn lap(self) -> Lap {
        Lap(self.0.then(Stopwatch::start))
    }

    /// Runs `f` and returns its result with the seconds it took (0 when
    /// the plane is off).
    pub(crate) fn time<R>(self, f: impl FnOnce() -> R) -> (R, f64) {
        let lap = self.lap();
        let result = f();
        (result, lap.seconds())
    }
}

/// One running wall-clock measurement; a disabled lap reads 0 s.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Lap(Option<Stopwatch>);

impl Lap {
    fn seconds(self) -> f64 {
        self.0.map_or(0.0, |watch| watch.elapsed_seconds())
    }
}

/// The observability state of one fleet run (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    clock: Clock,
    run: Lap,
    epoch: Lap,
    /// The open epoch's serial phase seconds (`None`: the phase did not
    /// run), indexed by [`Step`], and its drain seconds per shard. Filed
    /// into the span tree once, by [`end_epoch`](Self::end_epoch).
    serial: [Option<f64>; STEP_LABELS.len()],
    drains: Vec<f64>,
    spans: SpanTree,
    root: Option<SpanId>,
    registry: Registry,
    postmortems: Vec<Postmortem>,
    slo_latency: f64,
    slo_violations: u64,
    latency: Vec<TenantLatencyStats>,
    /// Every tenant's controller counters, summed positionally so the
    /// registry sees one write per counter per run, not per tenant.
    counters: Vec<(&'static str, u64)>,
    /// Reused across tenants so the percentile pass allocates nothing
    /// per tenant.
    scratch: Vec<f64>,
}

impl Recorder {
    /// Starts the run's lap and its `fleet run` root span when
    /// `spec.observability` is on.
    pub(crate) fn new(spec: &FleetSpec) -> Self {
        let clock = Clock(spec.observability);
        let mut spans = SpanTree::new();
        let root = spec.observability.then(|| spans.root("fleet run", 0.0));
        Self {
            clock,
            run: clock.lap(),
            drains: vec![0.0; spec.shards],
            spans,
            root,
            slo_latency: spec.slo_latency,
            ..Self::default()
        }
    }

    /// The clock the drain workers time themselves with.
    pub(crate) fn clock(&self) -> Clock {
        self.clock
    }

    /// Starts a lap for a later [`add`](Self::add).
    pub(crate) fn lap(&self) -> Lap {
        self.clock.lap()
    }

    /// Opens an epoch: starts its lap and clears its phase seconds.
    pub(crate) fn begin_epoch(&mut self) {
        self.epoch = self.clock.lap();
        self.serial = [None; STEP_LABELS.len()];
        self.drains.fill(0.0);
    }

    /// Adds the seconds since `lap` started to `step` of the open epoch.
    pub(crate) fn add(&mut self, step: Step, lap: Lap) {
        let seconds = self.serial[step as usize].get_or_insert(0.0);
        *seconds += lap.seconds();
    }

    /// Adds one drain round's seconds to shard `shard`'s lane.
    pub(crate) fn drain(&mut self, shard: usize, seconds: f64) {
        self.drains[shard] += seconds;
    }

    /// Closes the open epoch: files its span, with every phase that ran
    /// as a serial child and every shard's drain as a lane, measured
    /// last so the children fall inside it.
    pub(crate) fn end_epoch(&mut self, epoch: u64) {
        let Some(root) = self.root else {
            return;
        };
        let seconds = self.epoch.seconds();
        let span = self.spans.child(root, format!("epoch {epoch}"), seconds);
        for (label, phase) in STEP_LABELS.iter().zip(self.serial) {
            if let Some(phase) = phase {
                self.spans.child(span, *label, phase);
            }
        }
        for (shard, drain) in self.drains.iter().enumerate() {
            self.spans
                .lane(span, format!("drain shard {shard}"), *drain);
        }
    }

    /// Flight-recorder dump of a quarantined tenant: its frozen journal's
    /// tail and counters.
    pub(crate) fn postmortem(&mut self, quarantine: &QuarantineRecord, telemetry: &Telemetry) {
        if self.root.is_some() {
            self.postmortems.push(Postmortem::new(
                u64::from(quarantine.tenant.as_u32()),
                quarantine.epoch,
                quarantine.cause,
                telemetry.recent_events(FLIGHT_RECORDER_WINDOW),
                quarantine.report.counters(),
            ));
        }
    }

    /// Folds one group of closed tenants into the registry: a live shard
    /// (`processed` is its event count, and its tenants' controller
    /// phases are grafted under the root) or the quarantined tenants
    /// (`None`). Per tenant: counters into the run-wide sums, balanced
    /// latencies into its own histogram (built locally and inserted once)
    /// and its percentiles, retry backlogs into the group's histogram,
    /// SLO breaches into the violation count. The fold is serial and walks
    /// groups in shard-id order, so the registry fills the same way at any
    /// thread count.
    pub(crate) fn fold_group(
        &mut self,
        label: &str,
        processed: Option<u64>,
        tenants: &[(TenantId, ControllerReport, TelemetryArtifacts)],
    ) {
        let Some(root) = self.root else {
            return;
        };
        if let Some(processed) = processed {
            self.registry.counter_add(
                Registry::labeled("fleet_shard_events_total", "shard", label),
                processed,
            );
        }
        let mut backlog = histogram(BACKLOG_HISTOGRAM);
        let mut profile = PhaseProfile::new();
        for (tenant, report, artifacts) in tenants {
            let counters = report.counters();
            if self.counters.is_empty() {
                self.counters = counters;
            } else {
                for (slot, (name, value)) in self.counters.iter_mut().zip(counters) {
                    debug_assert_eq!(slot.0, name, "counter order is fixed");
                    slot.1 += value;
                }
            }
            profile.merge(&artifacts.profile);
            let mut latency = histogram(LATENCY_HISTOGRAM);
            let scratch = &mut self.scratch;
            scratch.clear();
            for sample in artifacts.series.samples() {
                if let Some(hist) = latency.as_mut() {
                    hist.push(sample.balanced_latency);
                }
                if let Some(hist) = backlog.as_mut() {
                    hist.push(sample.retry_backlog as f64);
                }
                if sample.balanced_latency.is_finite() {
                    scratch.push(sample.balanced_latency);
                }
                if sample.balanced_latency > self.slo_latency {
                    self.slo_violations += 1;
                }
            }
            if let Some(hist) = latency.filter(|hist| hist.count() > 0) {
                // Tenant ids are digits, which never need label escaping.
                self.registry.histogram_insert(
                    format!("tenant_latency_seconds{{tenant=\"{}\"}}", tenant.as_u32()),
                    hist,
                );
            }
            scratch.sort_unstable_by(f64::total_cmp);
            self.latency.push(TenantLatencyStats {
                tenant: *tenant,
                samples: scratch.len() as u64,
                p50: percentile_sorted(scratch, 0.5),
                p95: percentile_sorted(scratch, 0.95),
                p99: percentile_sorted(scratch, 0.99),
            });
        }
        if let Some(hist) = backlog.filter(|hist| hist.count() > 0) {
            self.registry.histogram_insert(
                Registry::labeled("shard_retry_backlog", "shard", label),
                hist,
            );
        }
        if processed.is_some() {
            let total: f64 = Phase::ALL
                .iter()
                .map(|p| profile.summary(*p).samples().as_slice().iter().sum::<f64>())
                .sum();
            let node = self
                .spans
                .child(root, format!("controller phases shard {label}"), total);
            self.spans.graft_profile(node, &profile);
        }
    }

    /// Closes the run: the SLO count and the tenant-id-sorted latency
    /// table into `report`, the fleet gauges into the registry, the
    /// `finish` span from `finish`'s start, and the root's measured time.
    /// Returns the span tree, the registry and the postmortems.
    pub(crate) fn finish(
        mut self,
        report: &mut FleetReport,
        finish: Lap,
    ) -> (SpanTree, Registry, Vec<Postmortem>) {
        let Some(root) = self.root else {
            return (self.spans, self.registry, self.postmortems);
        };
        self.latency.sort_by_key(|stats| stats.tenant);
        report.tenant_latency = self.latency;
        report.slo_violations = self.slo_violations;
        let registry = &mut self.registry;
        for (name, value) in &self.counters {
            registry.counter_add(format!("controller_{name}_total"), *value);
        }
        registry.counter_add("fleet_slo_violations_total", report.slo_violations);
        registry.counter_add("fleet_migrations_total", report.migrations);
        registry.gauge_set("fleet_active", report.active as f64);
        registry.gauge_set("fleet_tenants", report.tenants as f64);
        registry.gauge_set("fleet_shards", report.shards as f64);
        registry.gauge_set(
            "fleet_mean_rebalance_latency_seconds",
            report.mean_rebalance_latency,
        );
        self.spans.accumulate(root, "finish", finish.seconds());
        self.spans.set_seconds(root, self.run.seconds());
        (self.spans, self.registry, self.postmortems)
    }
}
