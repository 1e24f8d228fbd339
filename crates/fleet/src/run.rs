//! The fleet loop's state, [`FleetRun`], with one method per epoch step
//! (see the crate docs for the steps).

use nfv_controller::{Controller, ControllerReport};
use nfv_parallel::{catch_task, default_threads, derive_seed, par_map_indexed, TaskPanic};
use nfv_telemetry::{EventKind, Telemetry, TelemetryArtifacts};
use nfv_workload::churn::{ChurnStream, ChurnTraceBuilder, TimedEvent};
use nfv_workload::{Scenario, TenantId};

use crate::channel::EventChannel;
use crate::handoff::HandoffLayer;
use crate::recorder::{Recorder, Step};
use crate::shard::{Shard, SlotCheckpoint, TenantSlot};
use crate::{
    EpochRecord, FaultKind, FaultPlan, FleetError, FleetOutcome, FleetReport, FleetSpec,
    QuarantineRecord, RecoveryReport,
};

/// The faults one tenant takes in one epoch.
#[derive(Debug, Clone, Copy, Default)]
struct TenantFaults {
    drop_at: Option<u64>,
    dup_at: Option<u64>,
    crash: bool,
    corrupt_live: bool,
    corrupt_cp: bool,
    wedge: bool,
}

/// One epoch's clock and its decoded faults. Faults naming tenants that
/// are parked (in transit) or already quarantined never fire: a parked
/// tenant pumps and drains nothing, and a quarantined one has no slot.
pub(crate) struct Epoch {
    index: u64,
    start: f64,
    end: f64,
    /// Events with `time ≤ boundary` are pumped this epoch; the final
    /// epoch flushes everything, horizon-clamped streams included.
    boundary: f64,
    faulted: bool,
    faults: Vec<TenantFaults>,
    /// Shards whose injected panic has not fired yet.
    panic_pending: Vec<usize>,
}

impl Epoch {
    fn new(spec: &FleetSpec, plan: &FaultPlan, index: u64) -> Self {
        let faults = plan.for_epoch(index as usize);
        let mut epoch = Self {
            index,
            start: index as f64 * spec.epoch,
            end: spec.horizon.min((index + 1) as f64 * spec.epoch),
            boundary: if index + 1 == spec.epochs() {
                f64::MAX
            } else {
                (index + 1) as f64 * spec.epoch
            },
            faulted: !faults.is_empty(),
            faults: vec![TenantFaults::default(); spec.tenants],
            panic_pending: Vec::new(),
        };
        for fault in faults {
            let tenant = fault
                .tenant()
                .and_then(|t| epoch.faults.get_mut(t as usize));
            match (*fault, tenant) {
                (FaultKind::ShardPanic { shard }, _) if shard < spec.shards => {
                    epoch.panic_pending.push(shard);
                }
                (FaultKind::TenantCrash { .. }, Some(f)) => f.crash = true,
                (FaultKind::ChannelDrop { nth, .. }, Some(f)) => f.drop_at = Some(nth),
                (FaultKind::ChannelDup { nth, .. }, Some(f)) => f.dup_at = Some(nth),
                (FaultKind::CorruptState { .. }, Some(f)) => f.corrupt_live = true,
                (FaultKind::CorruptCheckpoint { .. }, Some(f)) => f.corrupt_cp = true,
                (FaultKind::WedgeDrain { .. }, Some(f)) => f.wedge = true,
                _ => {}
            }
        }
        epoch
    }
}

/// The recovery counters and the chaos journal they are logged to, kept
/// apart from the tenant journals so recoverable faults leave the merged
/// fleet journal byte-identical.
struct ChaosLog {
    journal: Telemetry,
    counts: RecoveryReport,
}

impl ChaosLog {
    /// Counts a fault that fired and journals it.
    fn fault(&mut self, time: f64, epoch: u64, cause: &str, shard: usize, tenant: u64) {
        self.counts.faults_injected += 1;
        self.journal.emit(time, epoch, || EventKind::FaultInjected {
            cause: cause.into(),
            shard: shard as u64,
            tenant,
        });
    }
}

/// The state of one fleet run between its epoch steps.
pub(crate) struct FleetRun<'a> {
    spec: &'a FleetSpec,
    plan: &'a FaultPlan,
    threads: usize,
    streams: Vec<ChurnStream<'a>>,
    /// Each tenant's stream head, parked by a full channel or a boundary.
    pending: Vec<Option<TimedEvent>>,
    shards: Vec<Shard>,
    handoff: HandoffLayer,
    epoch_records: Vec<EpochRecord>,
    /// Each tenant's checkpoint, re-marked at every faulted epoch start.
    checkpoints: Vec<Option<SlotCheckpoint>>,
    /// The faulted epoch's pumped events per tenant.
    logs: Vec<Vec<TimedEvent>>,
    quarantines: Vec<QuarantineRecord>,
    /// The quarantined tenants' sessions, journals cut at their
    /// checkpoints, in quarantine order.
    frozen: Vec<Telemetry>,
    chaos: ChaosLog,
    recorder: Recorder,
}

impl<'a> FleetRun<'a> {
    /// Builds every tenant and installs tenant `t` on shard `t % shards`.
    pub(crate) fn new(
        spec: &'a FleetSpec,
        plan: &'a FaultPlan,
        scenarios: &'a [Scenario],
    ) -> Result<Self, FleetError> {
        let recorder = Recorder::new(spec);
        let session = |on: bool| {
            on.then(Telemetry::enabled)
                .unwrap_or_else(Telemetry::disabled)
        };
        let mut streams = Vec::with_capacity(spec.tenants);
        let mut shards: Vec<Shard> = (0..spec.shards).map(Shard::new).collect();
        for (t, scenario) in scenarios.iter().enumerate() {
            streams.push(
                ChurnTraceBuilder::new()
                    .horizon(spec.horizon)
                    .arrival_rate(spec.arrival_rate)
                    .mean_holding(spec.mean_holding)
                    .tick_period(spec.tick_period)
                    .seed(derive_seed(spec.seed, t as u64))
                    .stream(scenario)
                    .map_err(FleetError::Workload)?,
            );
            shards[t % spec.shards].install(TenantSlot::new(
                TenantId::new(t as u32),
                Controller::new(scenario, spec.controller),
                EventChannel::new(spec.channel_capacity),
                session(spec.telemetry),
            ));
        }
        Ok(Self {
            spec,
            plan,
            threads: Some(spec.threads)
                .filter(|&n| n > 0)
                .unwrap_or_else(default_threads),
            streams,
            pending: vec![None; spec.tenants],
            shards,
            handoff: HandoffLayer::default(),
            epoch_records: Vec::with_capacity(spec.epochs() as usize),
            checkpoints: vec![None; spec.tenants],
            logs: vec![Vec::new(); spec.tenants],
            quarantines: Vec::new(),
            frozen: Vec::new(),
            chaos: ChaosLog {
                journal: session(spec.telemetry && !plan.is_empty()),
                counts: RecoveryReport::default(),
            },
            recorder,
        })
    }

    /// Opens epoch `index`: decodes its faults and starts its lap.
    pub(crate) fn begin(&mut self, index: u64) -> Epoch {
        self.recorder.begin_epoch();
        Epoch::new(self.spec, self.plan, index)
    }

    /// Installs the parked handoff tenant whose install epoch this is.
    pub(crate) fn install_due(&mut self, epoch: &Epoch) -> Result<(), FleetError> {
        let lap = self.recorder.lap();
        self.handoff.install_due(&mut self.shards, epoch.index)?;
        self.recorder.add(Step::Handoff, lap);
        Ok(())
    }

    /// In a faulted epoch: checkpoints every installed tenant (after
    /// `install_due`, so a freshly installed tenant is covered), clears
    /// the replay logs, and wedges the targeted slots.
    pub(crate) fn checkpoint_faulted(&mut self, epoch: &Epoch) {
        if !epoch.faulted {
            return;
        }
        let lap = self.recorder.lap();
        self.logs.iter_mut().for_each(Vec::clear);
        let mut wedged = Vec::new();
        for shard in &mut self.shards {
            let (id, tenants) = (shard.id(), shard.tenants() as u64);
            for slot in shard.slots_mut() {
                let t = slot.tenant().as_usize();
                slot.checkpoint(&mut self.checkpoints[t]);
                self.chaos.counts.checkpoints += 1;
                if epoch.faults[t].wedge {
                    slot.set_wedged(true);
                    wedged.push((t, id));
                }
            }
            self.chaos
                .journal
                .emit(epoch.start, epoch.index, || EventKind::CheckpointTaken {
                    shard: id as u64,
                    tenants,
                });
        }
        wedged.sort_unstable();
        for (t, shard) in wedged {
            self.chaos
                .fault(epoch.start, epoch.index, "wedge_drain", shard, t as u64);
        }
        self.recorder.add(Step::Checkpoint, lap);
    }

    /// Alternates the serial pump with a parallel drain round until a
    /// round pumps nothing and nothing is buffered; a round that moves
    /// nothing while events are buffered is [`FleetError::PumpStalled`].
    pub(crate) fn pump_and_drain(&mut self, epoch: &mut Epoch) -> Result<(), FleetError> {
        loop {
            let lap = self.recorder.lap();
            let pumped = self.pump(epoch);
            self.recorder.add(Step::Pump, lap);
            if pumped == 0 && self.shards.iter().all(|s| s.buffered() == 0) {
                return Ok(());
            }
            if self.drain_round(epoch)? == 0 && pumped == 0 {
                let mut slots = self.shards.iter().flat_map(Shard::slots);
                let stuck = slots.find(|slot| slot.buffered() > 0);
                let tenant = stuck.map_or(TenantId::new(0), TenantSlot::tenant);
                return Err(FleetError::PumpStalled {
                    tenant,
                    epoch: epoch.index,
                });
            }
        }
    }

    /// Moves events with `time ≤ boundary` from each installed tenant's
    /// stream into its channel, shard then tenant order, parking the head
    /// event in `pending` at a full channel. Returns the events pumped.
    ///
    /// In a faulted epoch each event is first logged (what a perfect
    /// channel delivers, and what recovery replays; the log's length is
    /// the `nth` a drop or duplicate keys on), then a targeted event is
    /// dropped, or pushed twice if the channel has room.
    fn pump(&mut self, epoch: &Epoch) -> u64 {
        let mut pumped = 0;
        for slot in self.shards.iter_mut().flat_map(Shard::slots_mut) {
            let t = slot.tenant().as_usize();
            while !slot.channel_full() {
                let next = self.pending[t].take().or_else(|| self.streams[t].next());
                let Some(event) = next else {
                    break;
                };
                if event.time() > epoch.boundary {
                    self.pending[t] = Some(event);
                    break;
                }
                pumped += 1;
                if !epoch.faulted {
                    slot.push(event);
                    continue;
                }
                let (log, faults) = (&mut self.logs[t], epoch.faults[t]);
                let nth = log.len() as u64;
                log.push(event.clone());
                if faults.drop_at == Some(nth) {
                    continue;
                }
                let duplicate = (faults.dup_at == Some(nth)).then(|| event.clone());
                slot.push(event);
                if let Some(duplicate) = duplicate.filter(|_| !slot.channel_full()) {
                    slot.push(duplicate);
                }
            }
        }
        pumped
    }

    /// One supervised drain round on the pool: every worker's panic is
    /// contained by `catch_task`, so the shards, borrowed mutably through
    /// the pool, survive an unwind mid-drain. A shard with a pending
    /// injected panic drains half its buffer and then panics.
    fn drain_round(&mut self, epoch: &mut Epoch) -> Result<u64, FleetError> {
        let inject: Vec<Option<u64>> = self
            .shards
            .iter()
            .map(|s| {
                (epoch.panic_pending.contains(&s.id()) && s.buffered() > 0)
                    .then(|| (s.buffered() as u64).div_ceil(2))
            })
            .collect();
        let clock = self.recorder.clock();
        let results = par_map_indexed(
            self.threads,
            self.shards.iter_mut().collect(),
            |i, shard: &mut Shard| {
                catch_task(i, || {
                    if let Some(limit) = inject[i] {
                        shard.drain_upto(limit);
                        panic!("injected shard-worker panic");
                    }
                    clock.time(|| shard.drain_round())
                })
            },
        )
        .map_err(FleetError::Pool)?;
        self.settle_drain(epoch, &inject, results)
    }

    /// Folds a drain round's results in shard-id order and returns the
    /// events drained, replays included. A shard whose panic was injected
    /// this round is recovered; any other worker panic is a bug, not a
    /// fault, and returns [`FleetError::Pool`].
    fn settle_drain(
        &mut self,
        epoch: &mut Epoch,
        inject: &[Option<u64>],
        results: Vec<Result<(u64, f64), TaskPanic>>,
    ) -> Result<u64, FleetError> {
        let mut drained = 0;
        for (i, result) in results.into_iter().enumerate() {
            match result {
                Ok((n, seconds)) => {
                    drained += n;
                    self.recorder.drain(i, seconds);
                }
                Err(panic) if inject[i].is_none() => return Err(FleetError::Pool(panic)),
                Err(_) => drained += self.recover_shard(epoch, i)?,
            }
        }
        Ok(drained)
    }

    /// Recovers shard `i` after its injected panic: every tenant back to
    /// its epoch checkpoint, channels cleared, the epoch's pumped events
    /// replayed. Replay is forward progress for the stall guard.
    fn recover_shard(&mut self, epoch: &mut Epoch, i: usize) -> Result<u64, FleetError> {
        let lap = self.recorder.lap();
        epoch.panic_pending.retain(|&s| s != i);
        let first = self.shards[i].slots().first().map(TenantSlot::tenant);
        let first_tenant = first.map_or(u64::MAX, |t| u64::from(t.as_u32()));
        self.chaos
            .fault(epoch.end, epoch.index, "shard_panic", i, first_tenant);
        let (_, replayed) = self.restore_and_replay(epoch, i, |_| true)?;
        self.chaos.counts.shard_restores += 1;
        self.recorder.add(Step::Restore, lap);
        Ok(replayed)
    }

    /// [`Shard::restore_and_replay`] on shard `si`, journaling the
    /// shard's restore when it restored anyone.
    fn restore_and_replay(
        &mut self,
        epoch: &Epoch,
        si: usize,
        selected: impl Fn(usize) -> bool,
    ) -> Result<(u64, u64), FleetError> {
        let (restored, replayed) = self.shards[si]
            .restore_and_replay(&self.checkpoints, &self.logs, selected)
            .map_err(|(tenant, reason)| FleetError::RestoreFailed {
                tenant,
                epoch: epoch.index,
                reason,
            })?;
        if restored > 0 {
            self.chaos.counts.events_replayed += replayed;
            self.chaos
                .journal
                .emit(epoch.end, epoch.index, || EventKind::ShardRestored {
                    shard: si as u64,
                    replayed,
                });
        }
        Ok((restored, replayed))
    }

    /// In a faulted epoch, per shard: applies the boundary faults, then
    /// restores every tenant that crashed, saw a channel fault fire, or
    /// fails the conservation law — quarantining those whose checkpoint
    /// is corrupt.
    pub(crate) fn boundary_sweep(&mut self, epoch: &Epoch) -> Result<(), FleetError> {
        if !epoch.faulted {
            return Ok(());
        }
        for si in 0..self.shards.len() {
            let lap = self.recorder.lap();
            let (recover, quarantine) = self.inject_boundary_faults(epoch, si);
            let (restored, _) = self.restore_and_replay(epoch, si, |t| recover.contains(&t))?;
            self.chaos.counts.tenant_restores += restored;
            self.recorder.add(Step::Restore, lap);
            let lap = self.recorder.lap();
            for tenant in quarantine {
                self.quarantine(epoch, si, tenant)?;
            }
            self.recorder.add(Step::Quarantine, lap);
        }
        Ok(())
    }

    /// Applies shard `si`'s boundary faults, logging each that fired.
    /// Returns the tenants to restore and those to quarantine.
    fn inject_boundary_faults(&mut self, epoch: &Epoch, si: usize) -> (Vec<usize>, Vec<TenantId>) {
        let (mut recover, mut quarantine) = (Vec::new(), Vec::new());
        for slot in self.shards[si].slots_mut() {
            let t = slot.tenant().as_usize();
            let f = epoch.faults[t];
            slot.set_wedged(false);
            let pumped = self.logs[t].len() as u64;
            let fired = |at: Option<u64>| at.is_some_and(|nth| pumped > nth);
            let (dropped, duplicated) = (fired(f.drop_at), fired(f.dup_at));
            if f.corrupt_live || f.corrupt_cp {
                slot.corrupt_conservation();
            }
            if let Some(checkpoint) = self.checkpoints[t].as_mut().filter(|_| f.corrupt_cp) {
                checkpoint.valid = false;
            }
            let causes = [
                (f.corrupt_cp, "corrupt_checkpoint"),
                (f.corrupt_live && !f.corrupt_cp, "corrupt_state"),
                (f.crash, "tenant_crash"),
                (dropped, "channel_drop"),
                (duplicated, "channel_dup"),
            ];
            for (_, cause) in causes.into_iter().filter(|(on, _)| *on) {
                self.chaos
                    .fault(epoch.end, epoch.index, cause, si, t as u64);
            }
            if !(f.crash || dropped || duplicated || !slot.report().conserved()) {
                continue;
            }
            match self.checkpoints[t].as_ref() {
                Some(checkpoint) if !checkpoint.valid => quarantine.push(slot.tenant()),
                Some(_) => recover.push(t),
                None => {}
            }
        }
        (recover, quarantine)
    }

    /// Retires `tenant` from shard `si` through the quarantine path: the
    /// slot, rewound to its checkpoint, is the frozen state — its
    /// counters stay in the fleet totals and its journal is kept.
    fn quarantine(&mut self, epoch: &Epoch, si: usize, tenant: TenantId) -> Result<(), FleetError> {
        let t = tenant.as_usize();
        let (Some(slot), Some(checkpoint)) =
            (self.shards[si].retire(tenant), self.checkpoints[t].take())
        else {
            return Ok(());
        };
        let (report, telemetry) =
            slot.freeze(&checkpoint)
                .map_err(|reason| FleetError::RestoreFailed {
                    tenant,
                    epoch: epoch.index,
                    reason,
                })?;
        let cause = "corrupt_checkpoint";
        self.chaos.counts.tenants_quarantined += 1;
        self.chaos
            .journal
            .emit(epoch.end, epoch.index, || EventKind::TenantQuarantined {
                tenant: u64::from(tenant.as_u32()),
                cause: cause.into(),
            });
        let record = QuarantineRecord {
            tenant,
            epoch: epoch.index,
            cause,
            report,
        };
        self.recorder.postmortem(&record, &telemetry);
        self.frozen.push(telemetry);
        self.quarantines.push(record);
        Ok(())
    }

    /// Records the epoch's fleet totals, initiates a handoff when one is
    /// due and its install epoch still exists, and closes the epoch span.
    pub(crate) fn close_epoch(&mut self, epoch: &Epoch) -> Result<(), FleetError> {
        let before: u64 = self.epoch_records.iter().map(|r| r.events).sum();
        let processed: u64 = self.shards.iter().map(Shard::processed).sum();
        let record = self.totals(epoch, processed - before);
        self.epoch_records.push(record);
        let every = self.spec.rebalance_every;
        if every > 0
            && (epoch.index + 1).is_multiple_of(every)
            && epoch.index + 2 < self.spec.epochs()
        {
            let lap = self.recorder.lap();
            self.handoff
                .initiate(&mut self.shards, epoch.index, self.spec.epoch)?;
            self.recorder.add(Step::Handoff, lap);
        }
        self.recorder.end_epoch(epoch.index);
        Ok(())
    }

    /// The fleet-wide counters at the epoch's end: every installed
    /// tenant, the parked one, and the frozen reports of quarantined
    /// tenants.
    fn totals(&self, epoch: &Epoch, events: u64) -> EpochRecord {
        let live = self.shards.iter().flat_map(Shard::slots);
        let reports: Vec<ControllerReport> = live
            .map(TenantSlot::report)
            .chain(self.handoff.parked_report().cloned())
            .chain(self.quarantines.iter().map(|q| q.report.clone()))
            .collect();
        let sum = |f: fn(&ControllerReport) -> u64| reports.iter().map(f).sum();
        EpochRecord {
            epoch: epoch.index,
            end_time: epoch.end,
            events,
            admitted: sum(|r| r.admitted),
            retry_admitted: sum(|r| r.retry_admitted),
            active: sum(|r| r.active),
            departed: sum(|r| r.departed),
            shed: sum(|r| r.shed),
        }
    }

    /// Closes every tenant at the horizon and folds the run, live shards
    /// in shard-id order and then the quarantined tenants, into the
    /// outcome: per-tenant reports, the merged journal, the fleet report
    /// and the observability plane.
    pub(crate) fn finish(self) -> FleetOutcome {
        debug_assert!(
            self.handoff.idle(),
            "every handoff installs before the run ends"
        );
        let lap = self.recorder.lap();
        let mut recorder = self.recorder;
        let spec = self.spec;
        let shard_events: Vec<u64> = self.shards.iter().map(Shard::processed).collect();
        let frozen: Vec<_> = self
            .quarantines
            .iter()
            .zip(self.frozen)
            .map(|(q, telemetry)| (q.tenant, q.report.clone(), telemetry.finish()))
            .collect();
        let groups = self
            .shards
            .into_iter()
            .map(|shard| {
                let label = shard.id().to_string();
                (label, Some(shard.processed()), shard.finish(spec.horizon))
            })
            .chain(std::iter::once(("quarantined".to_string(), None, frozen)));
        let mut tenant_reports: Vec<(TenantId, ControllerReport)> =
            Vec::with_capacity(spec.tenants);
        let mut parts: Vec<TelemetryArtifacts> = Vec::with_capacity(spec.tenants);
        for (label, processed, tenants) in groups {
            recorder.fold_group(&label, processed, &tenants);
            for (tenant, report, artifacts) in tenants {
                tenant_reports.push((tenant, report));
                parts.push(artifacts);
            }
        }
        tenant_reports.sort_by_key(|(tenant, _)| *tenant);
        let migrations = self.handoff.records().to_vec();
        let sum = |f: fn(&ControllerReport) -> u64| tenant_reports.iter().map(|(_, r)| f(r)).sum();
        let n = migrations.len();
        let mut report = FleetReport {
            tenants: spec.tenants,
            shards: spec.shards,
            epochs: spec.epochs(),
            events: shard_events.iter().sum(),
            admitted: sum(|r| r.admitted),
            rejected: sum(|r| r.rejected),
            departed: sum(|r| r.departed),
            shed: sum(|r| r.shed),
            retry_admitted: sum(|r| r.retry_admitted),
            active: sum(|r| r.active),
            migrations: n as u64,
            migration_cost: migrations
                .iter()
                .map(|m| m.carried_active + m.carried_retry)
                .sum(),
            mean_rebalance_latency: if n == 0 {
                0.0
            } else {
                migrations.iter().map(|m| m.latency).sum::<f64>() / n as f64
            },
            shard_events,
            slo_violations: 0,
            tenant_latency: Vec::new(),
        };
        let (spans, registry, postmortems) = recorder.finish(&mut report, lap);
        FleetOutcome {
            report,
            epoch_records: self.epoch_records,
            migrations,
            tenant_reports,
            artifacts: TelemetryArtifacts::merged(parts),
            recovery: self.chaos.counts,
            quarantines: self.quarantines,
            chaos_artifacts: self.chaos.journal.finish(),
            spans,
            registry,
            postmortems,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panic_on_a_shard_without_an_injection_is_a_pool_error() {
        let spec = FleetSpec::smoke();
        let plan = FaultPlan::none();
        let scenarios = crate::scenarios(&spec).unwrap();
        let mut run = FleetRun::new(&spec, &plan, &scenarios).unwrap();
        let mut epoch = run.begin(0);
        let panic = TaskPanic {
            index: 1,
            message: "worker bug".into(),
        };
        let results = vec![Ok((0, 0.0)), Err(panic.clone())];
        assert_eq!(
            run.settle_drain(&mut epoch, &[None, None], results),
            Err(FleetError::Pool(panic))
        );
        assert_eq!(
            run.chaos.counts,
            RecoveryReport::default(),
            "nothing recovered"
        );
    }
}
