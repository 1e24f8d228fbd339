//! Two-phase cross-shard tenant handoff with conservation accounting.
//!
//! Rebalancing moves a whole tenant — controller, channel, telemetry —
//! from the most-loaded shard to the least-loaded one. The move is two
//! deterministic phases, one epoch apart:
//!
//! 1. **Retire** (end of epoch `E`): the tenant's slot leaves its source
//!    shard. Its counter snapshot is taken and the admission conservation
//!    law (`admitted + retry_admitted == active + departed + shed`) is
//!    verified before the tenant goes into transit.
//! 2. **Install** (start of epoch `E + 2`): the slot joins the target
//!    shard. The counters are re-verified against the retire snapshot —
//!    a tenant in transit must process nothing — and conservation is
//!    checked again. The tenant's stream, stalled while parked, resumes
//!    pumping into the new shard.
//!
//! The rebalance latency is therefore exactly one epoch of virtual time,
//! and the migration cost is the state carried across the boundary: the
//! tenant's active requests plus its pending retries.

use std::cmp::Reverse;

use nfv_controller::ControllerReport;
use nfv_workload::TenantId;

use crate::shard::{Shard, TenantSlot};
use crate::FleetError;

/// One completed cross-shard migration.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationRecord {
    /// The tenant moved.
    pub tenant: TenantId,
    /// Source shard id.
    pub from: usize,
    /// Target shard id.
    pub to: usize,
    /// The epoch at whose end the tenant left the source shard.
    pub retired_epoch: u64,
    /// The epoch at whose start the tenant joined the target shard.
    pub installed_epoch: u64,
    /// Active requests carried across the boundary.
    pub carried_active: u64,
    /// Pending retry entries carried across the boundary.
    pub carried_retry: u64,
    /// Virtual seconds between retire and install (one epoch).
    pub latency: f64,
}

/// A tenant in transit between shards.
#[derive(Debug)]
struct Parked {
    slot: TenantSlot,
    snapshot: ControllerReport,
    record: MigrationRecord,
}

/// The ownership layer: tracks the (at most one) tenant in transit and
/// the completed migration history.
#[derive(Debug, Default)]
pub(crate) struct HandoffLayer {
    parked: Option<Parked>,
    records: Vec<MigrationRecord>,
}

impl HandoffLayer {
    /// Whether no tenant is currently in transit.
    pub(crate) fn idle(&self) -> bool {
        self.parked.is_none()
    }

    /// The parked tenant's counter snapshot, for fleet-wide totals while
    /// it is in transit.
    pub(crate) fn parked_report(&self) -> Option<&ControllerReport> {
        self.parked.as_ref().map(|p| &p.snapshot)
    }

    /// Completed migrations, oldest first.
    pub(crate) fn records(&self) -> &[MigrationRecord] {
        &self.records
    }

    /// Phase 1 at the end of `epoch`: moves the busiest tenant of the
    /// most-loaded multi-tenant shard into transit toward the least-loaded
    /// shard — unless the fleet is balanced or a tenant is already parked.
    /// A retiring tenant whose counters do not balance is
    /// [`FleetError::ConservationViolated`].
    pub(crate) fn initiate(
        &mut self,
        shards: &mut [Shard],
        epoch: u64,
        epoch_len: f64,
    ) -> Result<(), FleetError> {
        if !self.idle() || shards.len() < 2 {
            return Ok(());
        }
        // Most-loaded multi-tenant source and least-loaded target, by
        // cumulative events processed, lowest id on ties.
        let from = shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.tenants() > 1)
            .min_by_key(|(id, s)| (Reverse(s.processed()), *id))
            .map(|(id, _)| id);
        let Some(from) = from else {
            return Ok(());
        };
        let to = shards
            .iter()
            .enumerate()
            .min_by_key(|(id, s)| (s.processed(), *id))
            .map_or(from, |(id, _)| id);
        if from == to || shards[from].processed() == shards[to].processed() {
            return Ok(());
        }
        // Busiest tenant of the source shard, lowest id on ties (slots
        // are tenant-id sorted).
        let busiest = shards[from]
            .slots()
            .iter()
            .min_by_key(|slot| Reverse(slot.processed()));
        let Some(tenant) = busiest.map(TenantSlot::tenant) else {
            return Ok(());
        };
        let Some(slot) = shards[from].retire(tenant) else {
            // The busiest tenant was just read off the source shard's
            // slots, so a miss means the ownership view desynced (a fault
            // path retired it underneath us). Typed error, never a panic.
            return Err(FleetError::HandoffDesynced {
                tenant,
                shard: from,
            });
        };
        let snapshot = slot.report();
        if !snapshot.conserved() {
            return Err(FleetError::ConservationViolated {
                tenant,
                phase: "retire",
            });
        }
        let record = MigrationRecord {
            tenant,
            from,
            to,
            retired_epoch: epoch,
            installed_epoch: epoch + 2,
            carried_active: snapshot.active,
            carried_retry: snapshot.retry_pending,
            latency: epoch_len,
        };
        self.parked = Some(Parked {
            slot,
            snapshot,
            record,
        });
        Ok(())
    }

    /// Phase 2 at the start of `epoch`: installs the parked tenant on its
    /// target shard if it is due, after checking that its counters did not
    /// move in transit and still balance ([`FleetError::ConservationViolated`]).
    pub(crate) fn install_due(
        &mut self,
        shards: &mut [Shard],
        epoch: u64,
    ) -> Result<(), FleetError> {
        let Some(parked) = self.parked.take_if(|p| p.record.installed_epoch == epoch) else {
            return Ok(());
        };
        let tenant = parked.record.tenant;
        let now = parked.slot.report();
        let broken = if now != parked.snapshot {
            Some("transit")
        } else {
            (!now.conserved()).then_some("install")
        };
        if let Some(phase) = broken {
            return Err(FleetError::ConservationViolated { tenant, phase });
        }
        shards[parked.record.to].install(parked.slot);
        self.records.push(parked.record);
        Ok(())
    }
}
