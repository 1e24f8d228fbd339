//! Shards: the unit of parallelism in the fleet loop. A shard owns a
//! disjoint set of tenant slots and drains them in tenant-id order; shards
//! share no state, so draining them on the pool is bit-identical to
//! draining them serially.

use nfv_controller::{Controller, ControllerMark, ControllerReport, SnapshotError};
use nfv_telemetry::{Telemetry, TelemetryArtifacts};
use nfv_workload::churn::TimedEvent;
use nfv_workload::TenantId;

use crate::channel::EventChannel;

/// An epoch-start checkpoint of one tenant slot: the controller's live
/// state plus history watermarks ([`ControllerMark`]) and the processed
/// count (the telemetry session keeps its own mark). Rewinding to it and
/// replaying the epoch's pumped events reproduces the undisturbed slot.
#[derive(Debug, Clone)]
pub(crate) struct SlotCheckpoint {
    pub(crate) tenant: TenantId,
    pub(crate) controller: ControllerMark,
    pub(crate) processed: u64,
    /// Cleared by an injected checkpoint corruption: an invalid
    /// checkpoint cannot restore, forcing the quarantine path.
    pub(crate) valid: bool,
}

/// Why a slot could not be rewound to a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RestoreError {
    /// The checkpoint was taken from another tenant's slot.
    WrongTenant {
        /// The tenant that owns the slot.
        slot: TenantId,
        /// The tenant the checkpoint belongs to.
        checkpoint: TenantId,
    },
    /// The controller refused its mark.
    Controller(SnapshotError),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WrongTenant { slot, checkpoint } => {
                write!(
                    f,
                    "checkpoint of {checkpoint} applied to the slot of {slot}"
                )
            }
            Self::Controller(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// One tenant living inside a shard: its controller, its event channel,
/// its telemetry session, and its cumulative processed-event count.
#[derive(Debug)]
pub(crate) struct TenantSlot {
    tenant: TenantId,
    controller: Controller,
    channel: EventChannel,
    telemetry: Telemetry,
    processed: u64,
    /// Chaos wedge: while set, drains skip this slot (its channel stops
    /// making progress), exercising the fleet's pump-stall detection.
    wedged: bool,
}

impl TenantSlot {
    /// Assembles a slot around an idle controller.
    pub(crate) fn new(
        tenant: TenantId,
        controller: Controller,
        channel: EventChannel,
        telemetry: Telemetry,
    ) -> Self {
        Self {
            tenant,
            controller,
            channel,
            telemetry,
            processed: 0,
            wedged: false,
        }
    }

    /// The tenant this slot belongs to.
    pub(crate) fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Whether the channel cannot take another event this round.
    pub(crate) fn channel_full(&self) -> bool {
        self.channel.is_full()
    }

    /// Buffered (pumped but not yet processed) events.
    pub(crate) fn buffered(&self) -> usize {
        self.channel.len()
    }

    /// Enqueues one event (the pump phase checked `channel_full`).
    pub(crate) fn push(&mut self, event: TimedEvent) {
        let pushed = self.channel.try_push(event).is_ok();
        debug_assert!(pushed, "pump must respect the channel bound");
    }

    /// Events this tenant's controller has processed so far.
    pub(crate) fn processed(&self) -> u64 {
        self.processed
    }

    /// The controller's current counter snapshot.
    pub(crate) fn report(&self) -> ControllerReport {
        self.controller.report()
    }

    /// Drains one event from the channel into the controller; `false`
    /// when the channel is empty or the slot is wedged.
    fn drain_one(&mut self) -> bool {
        if self.wedged {
            return false;
        }
        let Some(event) = self.channel.pop() else {
            return false;
        };
        self.controller
            .handle_owned_traced(event, &mut self.telemetry);
        self.processed += 1;
        true
    }

    /// Sets or clears the chaos wedge (see [`TenantSlot::wedged`]).
    pub(crate) fn set_wedged(&mut self, wedged: bool) {
        self.wedged = wedged;
    }

    /// Checkpoints the slot into `checkpoint`: marks the controller and
    /// the telemetry session in place, copying only live state, and
    /// reuses the buffers of the checkpoint it replaces.
    pub(crate) fn checkpoint(&mut self, checkpoint: &mut Option<SlotCheckpoint>) {
        self.telemetry.mark();
        match checkpoint {
            Some(taken) => {
                taken.tenant = self.tenant;
                self.controller.mark_into(&mut taken.controller);
                taken.processed = self.processed;
                taken.valid = true;
            }
            None => {
                *checkpoint = Some(SlotCheckpoint {
                    tenant: self.tenant,
                    controller: self.controller.mark(),
                    processed: self.processed,
                    valid: true,
                });
            }
        }
    }

    /// Rewinds the slot to a checkpoint: controller and telemetry back to
    /// their marks, the processed count restored, the channel cleared
    /// (its events are in the replay log), the wedge lifted. On error
    /// (another slot's checkpoint, or a refused mark) nothing changes.
    pub(crate) fn restore(&mut self, checkpoint: &SlotCheckpoint) -> Result<(), RestoreError> {
        if checkpoint.tenant != self.tenant {
            return Err(RestoreError::WrongTenant {
                slot: self.tenant,
                checkpoint: checkpoint.tenant,
            });
        }
        self.controller
            .rewind(&checkpoint.controller)
            .map_err(RestoreError::Controller)?;
        self.telemetry.rewind();
        self.processed = checkpoint.processed;
        self.wedged = false;
        while self.channel.pop().is_some() {}
        Ok(())
    }

    /// Retires the slot through the quarantine path: rewinds it to
    /// `checkpoint` and returns its frozen counters and its telemetry
    /// session, journal cut at the checkpoint.
    pub(crate) fn freeze(
        mut self,
        checkpoint: &SlotCheckpoint,
    ) -> Result<(ControllerReport, Telemetry), RestoreError> {
        self.restore(checkpoint)?;
        Ok((self.controller.report(), self.telemetry))
    }

    /// Replays logged events straight into the controller (bypassing the
    /// channel) — the catch-up phase after a checkpoint restore. Returns
    /// the number of events replayed.
    fn replay(&mut self, events: &[TimedEvent]) -> u64 {
        for event in events {
            self.controller
                .handle_owned_traced(event.clone(), &mut self.telemetry);
        }
        self.processed += events.len() as u64;
        events.len() as u64
    }

    /// Chaos hook: breaks the controller's admission conservation law so
    /// the fleet's epoch-end invariant sweep has something to detect.
    pub(crate) fn corrupt_conservation(&mut self) {
        self.controller.chaos_corrupt_conservation();
    }

    /// Closes the run at `horizon` and returns the final report plus the
    /// telemetry artifacts.
    fn finish(mut self, horizon: f64) -> (TenantId, ControllerReport, TelemetryArtifacts) {
        self.controller.finish_traced(horizon, &mut self.telemetry);
        (
            self.tenant,
            self.controller.report(),
            self.telemetry.finish(),
        )
    }
}

/// A disjoint set of tenants drained together on one pool worker.
#[derive(Debug)]
pub(crate) struct Shard {
    id: usize,
    slots: Vec<TenantSlot>,
    processed: u64,
}

impl Shard {
    /// Creates an empty shard.
    pub(crate) fn new(id: usize) -> Self {
        Self {
            id,
            slots: Vec::new(),
            processed: 0,
        }
    }

    /// The shard's index in the fleet.
    pub(crate) fn id(&self) -> usize {
        self.id
    }

    /// Number of tenants currently owned.
    pub(crate) fn tenants(&self) -> usize {
        self.slots.len()
    }

    /// The owned slots in tenant-id order (the pump iterates these).
    pub(crate) fn slots_mut(&mut self) -> &mut [TenantSlot] {
        &mut self.slots
    }

    /// The owned slots in tenant-id order.
    pub(crate) fn slots(&self) -> &[TenantSlot] {
        &self.slots
    }

    /// Total events buffered across the shard's channels.
    pub(crate) fn buffered(&self) -> usize {
        self.slots.iter().map(TenantSlot::buffered).sum()
    }

    /// Cumulative events processed by the shard's tenants — the load
    /// metric the rebalancer compares shards by.
    pub(crate) fn processed(&self) -> u64 {
        self.processed
    }

    /// Installs a tenant, keeping the slots sorted by tenant id so drain
    /// order is a pure function of ownership, not arrival order.
    pub(crate) fn install(&mut self, slot: TenantSlot) {
        let at = self.slots.partition_point(|s| s.tenant() < slot.tenant());
        self.slots.insert(at, slot);
    }

    /// Removes and returns a tenant's slot (`None` if not owned here).
    pub(crate) fn retire(&mut self, tenant: TenantId) -> Option<TenantSlot> {
        let at = self.slots.iter().position(|s| s.tenant() == tenant)?;
        Some(self.slots.remove(at))
    }

    /// One drain round: every owned channel emptied into its controller,
    /// tenant-id order. Returns the number of events processed.
    pub(crate) fn drain_round(&mut self) -> u64 {
        self.drain_upto(u64::MAX)
    }

    /// Drains at most `limit` events (tenant-id order, oldest first) and
    /// stops — with a finite limit, the half-finished round an injected
    /// worker panic leaves behind. Returns the number of events processed.
    pub(crate) fn drain_upto(&mut self, limit: u64) -> u64 {
        let mut drained = 0;
        for slot in &mut self.slots {
            while drained < limit && slot.drain_one() {
                drained += 1;
            }
        }
        self.processed += drained;
        drained
    }

    /// Rewinds every `selected` tenant that holds a valid checkpoint and
    /// replays its epoch log into it, re-aligning the shard's processed
    /// counter (the rebalancer's load metric) to the undisturbed run's.
    /// Returns `(tenants restored, events replayed)`, or the tenant whose
    /// checkpoint did not restore and why.
    pub(crate) fn restore_and_replay(
        &mut self,
        checkpoints: &[Option<SlotCheckpoint>],
        logs: &[Vec<TimedEvent>],
        selected: impl Fn(usize) -> bool,
    ) -> Result<(u64, u64), (TenantId, RestoreError)> {
        let (mut restored, mut replayed) = (0, 0);
        for slot in &mut self.slots {
            let t = slot.tenant.as_usize();
            let Some(checkpoint) = checkpoints[t].as_ref().filter(|c| c.valid && selected(t))
            else {
                continue;
            };
            let before = slot.processed;
            slot.restore(checkpoint).map_err(|e| (slot.tenant, e))?;
            replayed += slot.replay(&logs[t]);
            // Never underflows: the slot's events since the checkpoint
            // were all drained by this shard.
            self.processed = self.processed + slot.processed - before;
            restored += 1;
        }
        Ok((restored, replayed))
    }

    /// Closes every tenant at `horizon`; returns `(tenant, report,
    /// artifacts)` triples in tenant-id order.
    pub(crate) fn finish(
        self,
        horizon: f64,
    ) -> Vec<(TenantId, ControllerReport, TelemetryArtifacts)> {
        self.slots
            .into_iter()
            .map(|slot| slot.finish(horizon))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_controller::ControllerConfig;
    use nfv_workload::churn::{ChurnEvent, ChurnTraceBuilder};
    use nfv_workload::{ScenarioBuilder, ServiceRatePolicy};

    #[test]
    fn install_keeps_tenant_id_order_and_retire_finds_by_id() {
        let scenario = ScenarioBuilder::new()
            .vnfs(2)
            .requests(4)
            .seed(5)
            .build()
            .unwrap();
        let mut shard = Shard::new(0);
        for t in [3u32, 0, 2] {
            shard.install(TenantSlot::new(
                TenantId::new(t),
                Controller::new(&scenario, ControllerConfig::online_only()),
                EventChannel::new(4),
                Telemetry::disabled(),
            ));
        }
        let order: Vec<u32> = shard.slots().iter().map(|s| s.tenant().as_u32()).collect();
        assert_eq!(order, vec![0, 2, 3]);
        assert!(shard.retire(TenantId::new(2)).is_some());
        assert!(shard.retire(TenantId::new(2)).is_none());
        assert_eq!(shard.tenants(), 2);
    }

    #[test]
    fn restore_refuses_another_tenants_checkpoint() {
        let scenario = ScenarioBuilder::new()
            .vnfs(2)
            .requests(4)
            .seed(5)
            .build()
            .unwrap();
        let slot = |t: u32| {
            TenantSlot::new(
                TenantId::new(t),
                Controller::new(&scenario, ControllerConfig::online_only()),
                EventChannel::new(4),
                Telemetry::enabled(),
            )
        };
        let (mut a, mut b) = (slot(0), slot(1));
        let mut checkpoint = None;
        a.checkpoint(&mut checkpoint);
        let checkpoint = checkpoint.unwrap();
        assert_eq!(
            b.restore(&checkpoint),
            Err(RestoreError::WrongTenant {
                slot: TenantId::new(1),
                checkpoint: TenantId::new(0),
            })
        );
        assert_eq!(a.restore(&checkpoint), Ok(()));
    }

    #[test]
    fn drain_round_replays_buffered_events_in_order() {
        let scenario = ScenarioBuilder::new()
            .vnfs(3)
            .requests(10)
            .service_rate_policy(ServiceRatePolicy::ScaledToLoad {
                target_utilization: 0.5,
            })
            .seed(6)
            .build()
            .unwrap();
        let trace = ChurnTraceBuilder::new()
            .horizon(5.0)
            .build(&scenario)
            .unwrap();
        // Oracle: a controller fed the trace directly.
        let mut direct = Controller::new(&scenario, ControllerConfig::online_only());
        for event in trace.events() {
            direct.handle(event);
        }
        // Subject: the same events through a channel + drain rounds.
        let mut shard = Shard::new(0);
        shard.install(TenantSlot::new(
            TenantId::new(0),
            Controller::new(&scenario, ControllerConfig::online_only()),
            EventChannel::new(3),
            Telemetry::disabled(),
        ));
        let mut events = trace.events().iter().cloned().peekable();
        while events.peek().is_some() {
            {
                let slot = &mut shard.slots_mut()[0];
                while !slot.channel_full() {
                    let Some(event) = events.next() else { break };
                    slot.push(event);
                }
            }
            shard.drain_round();
        }
        assert_eq!(shard.processed(), trace.len() as u64);
        let arrival_count = trace
            .events()
            .iter()
            .filter(|e| matches!(e.event(), ChurnEvent::Arrival(_)))
            .count();
        assert!(arrival_count > 0);
        assert_eq!(shard.slots()[0].report(), direct.report());
    }
}
