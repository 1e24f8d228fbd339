//! A deterministic multi-tenant fleet loop: N independent tenant
//! controllers, sharded over the shared `nfv-parallel` pool, driven by
//! one virtual clock.
//!
//! The paper optimizes a single cluster; a fleet serving many users runs
//! *hundreds* of such optimizations concurrently in one process. This
//! crate multiplexes them without surrendering the repo's core contract:
//! same seed, same results, **bit for bit, at any thread count**.
//!
//! Each tenant is an isolated world: its own seeded scenario, lazy churn
//! stream, [`Controller`](nfv_controller::Controller) and bounded event
//! channel. Shards own disjoint tenant sets. The virtual clock advances
//! in fixed epochs, and every epoch runs the same named steps:
//!
//! 1. **install due** — a tenant handed off two epochs ago joins its
//!    target shard (see the `handoff` module docs);
//! 2. **checkpoint** (faulted epochs) — every installed tenant is
//!    checkpointed: its controller's live state with watermarks into its
//!    append-only history, never a copy of the history;
//! 3. **pump and drain** — a serial pump moves events with
//!    `time ≤ boundary` into the channels (shard order, tenant order,
//!    stalling on a full channel), then a supervised parallel drain
//!    empties them (`par_map_indexed`, results folded in shard-id order);
//!    the two alternate until nothing is left;
//! 4. **boundary sweep** (faulted epochs) — boundary faults are applied
//!    and damaged tenants restored and replayed or quarantined;
//! 5. **close** — the epoch's fleet totals are recorded and, every
//!    `rebalance_every` epochs, the busiest tenant of the most-loaded
//!    shard is retired toward the least-loaded one.
//!
//! Journals merge per shard in shard-id order
//! ([`TelemetryArtifacts::merged`]), so the fleet journal is one
//! byte-identical artifact at 1, 2, or 8 threads.
//!
//! # Chaos & recovery
//!
//! [`run_with_faults`] drives the same loop under a [`FaultPlan`]. A
//! faulted epoch logs every pumped event per tenant. An injected worker
//! panic mid-drain is contained ([`nfv_parallel::catch_task`]) and its
//! shard restored from its checkpoints and caught up from the logs;
//! channel drops/duplicates, tenant crashes and conservation corruption
//! are repaired the same way at the boundary, so a recoverable faulted
//! run is **byte-identical** to the undisturbed one. A tenant whose
//! checkpoint is corrupt is quarantined (its counters frozen into the
//! totals, its own journal kept); a wedged drain surfaces as
//! [`FleetError::PumpStalled`]. A worker panic the plan did not inject is
//! a bug, not a fault: it aborts the run with [`FleetError::Pool`].
//! Recovery telemetry goes to a separate chaos journal so the tenant
//! journal keeps its byte-identity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod handoff;
mod recorder;
mod run;
mod shard;

use nfv_controller::{ControllerConfig, ControllerReport};
use nfv_parallel::TaskPanic;
use nfv_telemetry::{Postmortem, Registry, SpanTree, TelemetryArtifacts};
use nfv_workload::tenancy::tenant_seed;
use nfv_workload::{Scenario, ScenarioBuilder, ServiceRatePolicy, TenantId, WorkloadError};

use run::FleetRun;

pub use handoff::MigrationRecord;
pub use shard::RestoreError;

// Re-exported so fleet callers can build fault plans without a separate
// `nfv-chaos` dependency.
pub use nfv_chaos::{FaultKind, FaultPlan, FaultRates};

/// Why a fleet run refused to start or aborted.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FleetError {
    /// The spec fails a sanity bound.
    InvalidSpec(&'static str),
    /// Building a tenant scenario or trace failed.
    Workload(WorkloadError),
    /// A shard task panicked on the pool.
    Pool(TaskPanic),
    /// A tenant's counters failed the conservation check during handoff
    /// (`phase` is `retire`, `transit`, or `install`).
    ConservationViolated {
        /// The tenant whose accounting broke.
        tenant: TenantId,
        /// Which handoff phase detected it.
        phase: &'static str,
    },
    /// A tenant's channel stopped making progress for an entire epoch
    /// round — nothing pumped, nothing drained, events still buffered —
    /// so the epoch loop would spin forever.
    PumpStalled {
        /// The first tenant (shard order, tenant order) holding
        /// undrained events.
        tenant: TenantId,
        /// The epoch that stalled.
        epoch: u64,
    },
    /// A checkpoint restore failed during crash recovery.
    RestoreFailed {
        /// The tenant whose checkpoint did not restore.
        tenant: TenantId,
        /// The epoch the recovery ran in.
        epoch: u64,
        /// Why the slot refused it.
        reason: RestoreError,
    },
    /// The handoff layer chose a tenant the source shard no longer owns —
    /// the ownership view desynced from the shard (e.g. a concurrent
    /// quarantine retired it between selection and retire).
    HandoffDesynced {
        /// The tenant the handoff tried to retire.
        tenant: TenantId,
        /// The shard that was expected to own it.
        shard: usize,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidSpec(reason) => write!(f, "invalid fleet spec: {reason}"),
            Self::Workload(err) => write!(f, "tenant workload: {err}"),
            Self::Pool(err) => write!(f, "shard pool: {err}"),
            Self::ConservationViolated { tenant, phase } => {
                write!(f, "conservation violated for {tenant} at {phase}")
            }
            Self::PumpStalled { tenant, epoch } => {
                write!(f, "pump stalled on {tenant} in epoch {epoch}")
            }
            Self::RestoreFailed {
                tenant,
                epoch,
                reason,
            } => write!(
                f,
                "checkpoint restore failed for {tenant} in epoch {epoch}: {reason}"
            ),
            Self::HandoffDesynced { tenant, shard } => {
                write!(f, "handoff desynced: shard {shard} does not own {tenant}")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Workload(err) => Some(err),
            Self::Pool(err) => Some(err),
            _ => None,
        }
    }
}

/// Everything that defines one fleet run. A spec is a pure value: two
/// runs of the same spec produce byte-identical outcomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// Number of tenants.
    pub tenants: usize,
    /// Number of shards the tenants are partitioned over.
    pub shards: usize,
    /// VNFs per tenant scenario.
    pub vnfs: usize,
    /// Base requests per tenant scenario.
    pub requests: usize,
    /// Per-instance utilization target of the scenario generator.
    pub target_utilization: f64,
    /// Virtual-time horizon of every tenant's trace, seconds.
    pub horizon: f64,
    /// Poisson churn arrival rate per tenant, events/second.
    pub arrival_rate: f64,
    /// Mean exponential holding time, seconds.
    pub mean_holding: f64,
    /// Re-optimization tick period per tenant, seconds.
    pub tick_period: f64,
    /// Virtual seconds per fleet epoch.
    pub epoch: f64,
    /// Bound of each tenant's event channel.
    pub channel_capacity: usize,
    /// Initiate a handoff every this many epochs (`0` disables).
    pub rebalance_every: u64,
    /// Fleet seed; every tenant seed derives from it.
    pub seed: u64,
    /// Whether tenants record telemetry journals.
    pub telemetry: bool,
    /// Whether the run records the observability plane: the causal span
    /// tree, the metrics registry, per-tenant latency percentiles, the
    /// SLO-violation counter, and flight-recorder post-mortems. Purely
    /// observational — results are bit-identical with it on or off.
    pub observability: bool,
    /// Per-tenant latency SLO threshold, seconds: tick samples whose
    /// balanced latency exceeds it count into
    /// [`FleetReport::slo_violations`].
    pub slo_latency: f64,
    /// The controller configuration every tenant runs.
    pub controller: ControllerConfig,
    /// Worker threads for the drain phase (`0` = process default).
    pub threads: usize,
}

impl FleetSpec {
    /// A small smoke-test fleet: 4 tenants on 2 shards, rebalancing
    /// aggressively so the handoff path is exercised even in tests.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            tenants: 4,
            shards: 2,
            vnfs: 3,
            requests: 12,
            target_utilization: 0.6,
            horizon: 40.0,
            arrival_rate: 0.5,
            mean_holding: 10.0,
            tick_period: 20.0,
            epoch: 10.0,
            channel_capacity: 16,
            rebalance_every: 1,
            seed: 11,
            telemetry: true,
            observability: true,
            slo_latency: 0.05,
            controller: ControllerConfig::periodic_reopt(),
            threads: 0,
        }
    }

    /// The smoke spec scaled to `tenants` tenants on `shards` shards.
    #[must_use]
    pub fn sized(tenants: usize, shards: usize) -> Self {
        Self {
            tenants,
            shards,
            ..Self::smoke()
        }
    }

    fn validate(&self) -> Result<(), FleetError> {
        if self.tenants == 0 {
            return Err(FleetError::InvalidSpec("tenants must be >= 1"));
        }
        if self.shards == 0 {
            return Err(FleetError::InvalidSpec("shards must be >= 1"));
        }
        if self.vnfs == 0 || self.requests == 0 {
            return Err(FleetError::InvalidSpec(
                "tenant scenarios must be non-empty",
            ));
        }
        if !(self.horizon.is_finite() && self.horizon > 0.0) {
            return Err(FleetError::InvalidSpec(
                "horizon must be positive and finite",
            ));
        }
        if !(self.epoch.is_finite() && self.epoch > 0.0) {
            return Err(FleetError::InvalidSpec("epoch must be positive and finite"));
        }
        if self.channel_capacity == 0 {
            return Err(FleetError::InvalidSpec("channel capacity must be >= 1"));
        }
        if !(self.slo_latency.is_finite() && self.slo_latency > 0.0) {
            return Err(FleetError::InvalidSpec(
                "slo latency must be positive and finite",
            ));
        }
        Ok(())
    }

    /// Number of epochs the run spans.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        (self.horizon / self.epoch).ceil().max(1.0) as u64
    }
}

/// Fleet-wide counter totals at one epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochRecord {
    /// The epoch index (0-based).
    pub epoch: u64,
    /// Virtual time of the epoch's end.
    pub end_time: f64,
    /// Events processed during this epoch (all shards).
    pub events: u64,
    /// Cumulative fleet admissions at the boundary.
    pub admitted: u64,
    /// Cumulative fleet retry admissions at the boundary.
    pub retry_admitted: u64,
    /// Active requests across the fleet at the boundary.
    pub active: u64,
    /// Cumulative departures at the boundary.
    pub departed: u64,
    /// Cumulative sheds at the boundary.
    pub shed: u64,
}

impl EpochRecord {
    /// Whether the fleet-wide conservation law holds at this boundary.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.admitted + self.retry_admitted == self.active + self.departed + self.shed
    }
}

/// Aggregated results of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Tenants in the fleet.
    pub tenants: usize,
    /// Shards the fleet ran on.
    pub shards: usize,
    /// Epochs executed.
    pub epochs: u64,
    /// Total events processed.
    pub events: u64,
    /// Total admissions across all tenants.
    pub admitted: u64,
    /// Total rejections across all tenants.
    pub rejected: u64,
    /// Total departures across all tenants.
    pub departed: u64,
    /// Total sheds across all tenants.
    pub shed: u64,
    /// Total retry admissions across all tenants.
    pub retry_admitted: u64,
    /// Requests still active at the horizon.
    pub active: u64,
    /// Completed cross-shard migrations.
    pub migrations: u64,
    /// Total state carried across shard boundaries (active requests +
    /// pending retries at retire time, summed over migrations).
    pub migration_cost: u64,
    /// Mean virtual-time latency of a handoff (retire → install),
    /// seconds; `0.0` when no migration happened.
    pub mean_rebalance_latency: f64,
    /// Events processed per shard, shard-id order.
    pub shard_events: Vec<u64>,
    /// Tick samples whose balanced latency exceeded
    /// [`FleetSpec::slo_latency`], fleet-wide (0 with observability
    /// disabled).
    pub slo_violations: u64,
    /// Per-tenant latency percentiles, tenant-id order (empty with
    /// observability disabled).
    pub tenant_latency: Vec<TenantLatencyStats>,
}

/// Per-tenant latency percentiles over the run's tick series, seconds.
/// Derived purely from the deterministic virtual-time series, so the
/// values are bit-identical at any thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantLatencyStats {
    /// The tenant.
    pub tenant: TenantId,
    /// Tick samples the percentiles were computed over.
    pub samples: u64,
    /// Median balanced latency, seconds (0 with no samples).
    pub p50: f64,
    /// 95th-percentile balanced latency, seconds.
    pub p95: f64,
    /// 99th-percentile balanced latency, seconds.
    pub p99: f64,
}

/// Counters of the chaos/recovery machinery for one run. All zeros for
/// an undisturbed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Tenant checkpoints taken at faulted epoch starts.
    pub checkpoints: u64,
    /// Faults that actually fired (a scheduled channel fault whose event
    /// index was never pumped, or a fault on a parked tenant, does not).
    pub faults_injected: u64,
    /// Whole-shard restores after contained worker panics.
    pub shard_restores: u64,
    /// Per-tenant epoch-boundary restores (crashes, channel faults,
    /// detected corruption).
    pub tenant_restores: u64,
    /// Tenants retired through the quarantine path.
    pub tenants_quarantined: u64,
    /// Events replayed from logs to catch restored tenants up.
    pub events_replayed: u64,
}

/// A tenant retired from the fleet because its state could not be
/// recovered (its checkpoint was corrupt). Its last valid checkpoint
/// counters stay frozen in the fleet totals, keeping the fleet-wide
/// conservation law intact.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRecord {
    /// The retired tenant.
    pub tenant: TenantId,
    /// The epoch whose boundary sweep quarantined it.
    pub epoch: u64,
    /// The fault-kind slug that made recovery impossible.
    pub cause: &'static str,
    /// The checkpoint-time counter report frozen into the totals.
    pub report: ControllerReport,
}

/// Everything a fleet run produces.
#[derive(Debug)]
pub struct FleetOutcome {
    /// The aggregated counters.
    pub report: FleetReport,
    /// Per-epoch fleet totals, epoch order.
    pub epoch_records: Vec<EpochRecord>,
    /// Completed migrations, oldest first.
    pub migrations: Vec<MigrationRecord>,
    /// Final per-tenant reports, tenant-id order (quarantined tenants
    /// report their frozen checkpoint counters).
    pub tenant_reports: Vec<(TenantId, ControllerReport)>,
    /// The merged fleet journal (per-shard, shard-id order).
    pub artifacts: TelemetryArtifacts,
    /// Chaos/recovery counters (all zeros without faults).
    pub recovery: RecoveryReport,
    /// Tenants retired through the quarantine path, oldest first.
    pub quarantines: Vec<QuarantineRecord>,
    /// The separate chaos journal (checkpoints, injections, restores,
    /// quarantines) — kept out of [`artifacts`](Self::artifacts) so the
    /// tenant journal stays byte-identical under recoverable faults.
    pub chaos_artifacts: TelemetryArtifacts,
    /// The causal span tree of the run's wall-clock: fleet run → epoch →
    /// serial {handoff, checkpoint, pump, restore, quarantine} plus one
    /// concurrent `drain shard N` lane per shard, and per-shard controller
    /// phase attribution. Structure is deterministic; durations are
    /// wall-clock. Empty with observability disabled.
    pub spans: SpanTree,
    /// The deterministic metrics registry, merged in shard-id order
    /// (quarantined tenants last). Byte-identical dumps at any thread
    /// count. Empty with observability disabled.
    pub registry: Registry,
    /// Flight-recorder post-mortem windows, one per quarantined tenant
    /// in quarantine order (empty with observability disabled).
    pub postmortems: Vec<Postmortem>,
}

/// The tenant scenarios of a spec.
fn scenarios(spec: &FleetSpec) -> Result<Vec<Scenario>, FleetError> {
    (0..spec.tenants)
        .map(|t| {
            ScenarioBuilder::new()
                .vnfs(spec.vnfs)
                .requests(spec.requests)
                .service_rate_policy(ServiceRatePolicy::ScaledToLoad {
                    target_utilization: spec.target_utilization,
                })
                .seed(tenant_seed(spec.seed, TenantId::new(t as u32)))
                .build()
                .map_err(FleetError::Workload)
        })
        .collect()
}

/// Runs a fleet to its horizon.
///
/// # Errors
///
/// [`FleetError`] for an invalid spec, a workload-generation failure, a
/// shard panic on the pool, or a conservation violation during handoff.
pub fn run(spec: &FleetSpec) -> Result<FleetOutcome, FleetError> {
    run_with_faults(spec, &FaultPlan::none())
}

/// Runs a fleet to its horizon under an injected [`FaultPlan`].
///
/// With the empty plan this is exactly [`run`]. With a plan of
/// *recoverable* faults (see [`FaultRates::recoverable`]) the run
/// produces a byte-identical merged journal, fleet report, and epoch
/// records to the undisturbed run — crash recovery via epoch
/// checkpoints and event replay is transparent. Unrecoverable faults
/// degrade gracefully and typed: a corrupt checkpoint quarantines its
/// tenant (frozen counters, no panic), a wedged drain surfaces as
/// [`FleetError::PumpStalled`].
///
/// # Errors
///
/// Everything [`run`] can return, plus [`FleetError::PumpStalled`] for
/// a wedged channel and [`FleetError::RestoreFailed`] if a checkpoint
/// does not restore. A drain worker panic the plan did not inject is a
/// bug, not a fault: it returns [`FleetError::Pool`].
pub fn run_with_faults(spec: &FleetSpec, plan: &FaultPlan) -> Result<FleetOutcome, FleetError> {
    spec.validate()?;
    let scenarios = scenarios(spec)?;
    let mut fleet = FleetRun::new(spec, plan, &scenarios)?;
    for index in 0..spec.epochs() {
        let mut epoch = fleet.begin(index);
        fleet.install_due(&epoch)?;
        fleet.checkpoint_faulted(&epoch);
        fleet.pump_and_drain(&mut epoch)?;
        fleet.boundary_sweep(&epoch)?;
        fleet.close_epoch(&epoch)?;
    }
    Ok(fleet.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fleet_conserves_and_migrates() {
        let outcome = run(&FleetSpec::smoke()).unwrap();
        let report = &outcome.report;
        assert!(report.events > 0);
        assert!(report.admitted > 0);
        assert_eq!(
            report.admitted + report.retry_admitted,
            report.active + report.departed + report.shed,
            "fleet-wide conservation"
        );
        for record in &outcome.epoch_records {
            assert!(record.conserved(), "epoch {} conserves", record.epoch);
        }
        assert_eq!(report.epochs as usize, outcome.epoch_records.len());
        assert_eq!(report.events, report.shard_events.iter().sum::<u64>());
    }

    #[test]
    fn same_spec_runs_are_byte_identical() {
        let spec = FleetSpec::smoke();
        let a = run(&spec).unwrap();
        let b = run(&spec).unwrap();
        assert_eq!(a.report, b.report);
        assert_eq!(a.epoch_records, b.epoch_records);
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.tenant_reports, b.tenant_reports);
        assert_eq!(
            a.artifacts.journal_jsonl(),
            b.artifacts.journal_jsonl(),
            "merged journals byte-identical"
        );
    }

    #[test]
    fn invalid_specs_are_refused() {
        let mut spec = FleetSpec::smoke();
        spec.tenants = 0;
        assert!(matches!(run(&spec), Err(FleetError::InvalidSpec(_))));
        let mut spec = FleetSpec::smoke();
        spec.epoch = 0.0;
        assert!(matches!(run(&spec), Err(FleetError::InvalidSpec(_))));
        let mut spec = FleetSpec::smoke();
        spec.channel_capacity = 0;
        assert!(matches!(run(&spec), Err(FleetError::InvalidSpec(_))));
    }

    #[test]
    fn rebalancing_moves_tenants_without_changing_tenant_outcomes() {
        // The same fleet with handoff disabled: tenants are independent,
        // so per-tenant reports must be identical — migration moves
        // *where* a tenant runs, never *what* it computes.
        let with = run(&FleetSpec::smoke()).unwrap();
        let without = run(&FleetSpec {
            rebalance_every: 0,
            ..FleetSpec::smoke()
        })
        .unwrap();
        assert!(
            with.report.migrations > 0,
            "smoke spec must exercise handoff"
        );
        assert_eq!(without.report.migrations, 0);
        assert_eq!(with.tenant_reports, without.tenant_reports);
    }
}
