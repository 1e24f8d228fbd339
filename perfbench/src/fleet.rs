//! `fleet_chaos`: the 256-tenant / 16-shard fleet point on two drain
//! workers under recoverable faults.
//!
//! The pump, the per-shard drains, handoff and the pool barrier run here
//! beside checkpoint, restore and replay; the traced run reads each of
//! them apart, so a pump or drain change shows in its own rows.

use std::hint::black_box;
use std::panic;
use std::time::Instant;

use nfv_controller::{Controller, ControllerReport};
use nfv_core::experiments::fleet::fleet_spec;
use nfv_fleet::{FaultPlan, FaultRates, FleetOutcome, FleetSpec};
use nfv_parallel::derive_seed;
use nfv_telemetry::Telemetry;
use nfv_workload::churn::ChurnTraceBuilder;
use nfv_workload::tenancy::tenant_seed;
use nfv_workload::{Scenario, ScenarioBuilder, ServiceRatePolicy, TenantId};

use crate::decisions::{DecisionTimes, FastestDecisions};
use crate::harness::{
    cycle, first_per_set, median_of, median_pass, overhead_pct, per_set_rate, ratio, rewalled,
    since, time_alternating, trimmed_mean, Fastest, Firsts, LayerSum, Outcome, SetupClock,
    LATENCY_TRIM,
};
use crate::lanes::{self, FleetLanes};
use crate::Args;

/// Fleet specs per run, each from its own seed. Timed passes cycle
/// through them, so a run's counters cover `SETS × 256` tenants; few
/// enough sets that each is run several times in a run, so every run
/// and every decision has repeats to keep the fastest of.
const SETS: usize = 4;
const TENANTS: usize = 256;
const SHARDS: usize = 16;
/// Drain workers: the host's two cores.
const THREADS: usize = 2;
/// Per-epoch, per-tenant (per-shard for panics) fault probability.
const FAULT_RATE: f64 = 0.05;
/// Virtual horizon, seconds: `fleet_spec`'s 30 s stretched tenfold, and
/// no further, so a run still repeats every input set several times.
const HORIZON: f64 = 300.0;

fn spec(seed: u64, observability: bool) -> FleetSpec {
    FleetSpec {
        horizon: HORIZON,
        threads: THREADS,
        telemetry: true,
        observability,
        ..fleet_spec(TENANTS, SHARDS, seed)
    }
}

/// Runs `f` with the panic hook silenced: the chaos plan's injected
/// shard panics are expected and contained by the fleet, and their
/// messages would otherwise flood stderr. The previous hook is restored
/// afterwards, also when `f` unwinds.
pub fn quietly<T>(f: impl FnOnce() -> T) -> T {
    let previous = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let result = panic::catch_unwind(panic::AssertUnwindSafe(f));
    panic::set_hook(previous);
    result.unwrap_or_else(|payload| panic::resume_unwind(payload))
}

fn run_fleet(spec: &FleetSpec, plan: Option<&FaultPlan>) -> Result<FleetOutcome, String> {
    match plan {
        None => nfv_fleet::run(spec),
        Some(plan) => quietly(|| nfv_fleet::run_with_faults(spec, plan)),
    }
    .map_err(|e| e.to_string())
}

/// What the checks need from one plain pass, beside its tenant reports.
struct Plain {
    events: u64,
    conserved: bool,
    /// Wall time of the `run` call alone, the stretch a traced pass's
    /// layer sum covers.
    wall: f64,
}

fn plain_pass(
    spec: &FleetSpec,
    plan: &FaultPlan,
) -> Result<(Plain, Vec<(TenantId, ControllerReport)>), String> {
    let start = Instant::now();
    let outcome = run_fleet(spec, Some(plan))?;
    let wall = since(start);
    let pass = Plain {
        events: outcome.report.events,
        conserved: outcome.epoch_records.iter().all(|e| e.conserved()),
        wall,
    };
    Ok((pass, outcome.tenant_reports))
}

/// What one traced pass measured.
struct Traced {
    events: u64,
    lanes: FleetLanes,
    shard_skew: f64,
    checkpoints: u64,
    restores: u64,
    replayed_ratio: f64,
    journal_bytes: usize,
    layers: LayerSum,
}

/// One pass with the observability plane on. Only the `run` call is
/// inside the layer sum's wall; reading the spans and serializing the
/// journal come after it.
fn traced_pass(spec: &FleetSpec, plan: &FaultPlan) -> Result<Traced, String> {
    let start = Instant::now();
    let outcome = run_fleet(spec, Some(plan))?;
    let wall = since(start);
    let lanes = lanes::read(&outcome.spans, spec.threads)?;
    let report = &outcome.report;
    let shard_max = report.shard_events.iter().copied().max().unwrap_or(0);
    let shard_mean = report.events as f64 / report.shard_events.len().max(1) as f64;
    let recovery = &outcome.recovery;
    Ok(Traced {
        events: report.events,
        shard_skew: if shard_mean > 0.0 {
            shard_max as f64 / shard_mean
        } else {
            0.0
        },
        checkpoints: recovery.checkpoints,
        restores: recovery.shard_restores + recovery.tenant_restores,
        replayed_ratio: ratio(recovery.events_replayed, report.events),
        journal_bytes: outcome.artifacts.journal_jsonl().len(),
        layers: LayerSum {
            wall,
            rows: lanes.rows(),
            residual: "tenant construction + call",
        },
        lanes,
    })
}

fn record_traced(out: &mut Outcome, traced: &[(f64, Traced)], overhead: f64) {
    let m = |f: fn(&Traced) -> f64| median_of(traced, |_, t| f(t));
    out.metric("fleet.pump_s", m(|t| t.lanes.pump_s));
    out.metric("fleet.handoff_s", m(|t| t.lanes.handoff_s));
    out.metric("fleet.finish_s", m(|t| t.lanes.finish_s));
    out.metric("fleet.drain_busy_s", m(|t| t.lanes.drain_busy_s));
    out.metric("fleet.drain_critical_s", m(|t| t.lanes.drain_critical_s));
    out.metric("fleet.drain_imbalance", m(|t| t.lanes.drain_imbalance));
    out.metric("fleet.shard_skew", m(|t| t.shard_skew));
    out.metric("parallel.barrier_s", m(|t| t.lanes.barrier_s));
    out.metric("fleet.checkpoint_s", m(|t| t.lanes.checkpoint_s));
    out.metric("fleet.restore_s", m(|t| t.lanes.restore_s));
    out.metric("fleet.quarantine_s", m(|t| t.lanes.quarantine_s));
    out.metric("chaos.checkpoints", m(|t| t.checkpoints as f64));
    out.metric("chaos.restores", m(|t| t.restores as f64));
    out.metric("chaos.replayed_ratio", m(|t| t.replayed_ratio));
    out.metric("telemetry.journal_bytes", m(|t| t.journal_bytes as f64));
    out.metric("trace_overhead_pct", overhead);
}

/// The tenant scenarios of a spec, built as the fleet builds them.
fn tenant_scenarios(spec: &FleetSpec) -> Result<Vec<Scenario>, String> {
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
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Replays every tenant's trace serially on its own controller, as the
/// fleet builds them, timing each `handle_traced()` call into the tenant's
/// own telemetry session, journal included when the spec keeps one, as
/// the fleet's drains do where no outside clock can reach. Returns the
/// times and each tenant's report at the horizon.
fn decision_times(
    spec: &FleetSpec,
    scenarios: &[Scenario],
) -> Result<(DecisionTimes, Vec<ControllerReport>), String> {
    let mut times = DecisionTimes::default();
    let mut reports = Vec::with_capacity(scenarios.len());
    for (t, scenario) in scenarios.iter().enumerate() {
        let stream = ChurnTraceBuilder::new()
            .horizon(spec.horizon)
            .arrival_rate(spec.arrival_rate)
            .mean_holding(spec.mean_holding)
            .tick_period(spec.tick_period)
            .seed(derive_seed(spec.seed, t as u64))
            .stream(scenario)
            .map_err(|e| e.to_string())?;
        let mut controller = Controller::new(scenario, spec.controller);
        let mut telemetry = if spec.telemetry {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        for event in stream {
            black_box(times.handle_traced(&mut controller, &event, &mut telemetry));
        }
        controller.finish(spec.horizon);
        reports.push(controller.report());
    }
    Ok((times, reports))
}

/// One input set: a fleet spec, its fault plan, and the tenant
/// scenarios the decision passes replay.
struct Input {
    spec: FleetSpec,
    plan: FaultPlan,
    scenarios: Vec<Scenario>,
}

/// Runs the workload and records its metrics.
pub fn run(args: &Args, out: &mut Outcome) {
    let mut clock = SetupClock::new(|| {
        (0..SETS)
            .map(|k| {
                let seed = derive_seed(args.seed, k as u64);
                let spec = spec(seed, false);
                let plan = FaultPlan::seeded(
                    seed,
                    spec.epochs() as usize,
                    SHARDS,
                    TENANTS as u32,
                    &FaultRates::recoverable(FAULT_RATE),
                );
                Ok(Input {
                    scenarios: tenant_scenarios(&spec)?,
                    spec,
                    plan,
                })
            })
            .collect::<Result<Vec<_>, String>>()
    });
    let built = clock.first();
    let Some(inputs) = out.attempt("set-up", || built) else {
        return;
    };
    let mut between = || clock.sample();
    // Each set's tenant reports from the fleet and from the serial
    // decision replays, each set's fastest run, and each set's fastest
    // decisions.
    let mut fleet_reports = Firsts::new(SETS);
    let mut replayed = Firsts::new(SETS);
    let mut runs = Fastest::new(SETS);
    let mut times = FastestDecisions::new(SETS);
    let plain = (
        "fleet pass",
        cycle(&inputs, |k, i| {
            let (pass, reports) = plain_pass(&i.spec, &i.plan)?;
            fleet_reports.keep(k, reports);
            runs.keep(k, pass.events as f64, pass.wall);
            Ok(pass)
        }),
    );

    let plain_runs = if args.trace {
        let traced = cycle(&inputs, |_, i| {
            let spec = FleetSpec {
                observability: true,
                ..i.spec
            };
            traced_pass(&spec, &i.plan)
        });
        let (plain_runs, traced_runs) = time_alternating(
            out,
            args.seconds,
            SETS,
            plain,
            ("traced pass", traced),
            &mut between,
        );
        let overhead = overhead_pct(
            per_set_rate(&rewalled(&plain_runs, |p| p.wall), SETS, |_, p| {
                p.events as f64
            }),
            per_set_rate(&rewalled(&traced_runs, |t| t.layers.wall), SETS, |_, t| {
                t.events as f64
            }),
        );
        for (_, (_, t)) in &traced_runs {
            out.check(
                "traced fleet layers reconstruct the wall time",
                t.layers.reconstructs(),
            );
        }
        let traced_runs: Vec<(f64, Traced)> =
            traced_runs.into_iter().map(|(w, (_, t))| (w, t)).collect();
        record_traced(out, &traced_runs, overhead);
        if let Some(t) = median_pass(&traced_runs) {
            t.layers.print("fleet_chaos", overhead);
        }
        plain_runs
    } else {
        // Fleet passes alternate with decision passes, so both see the
        // same host.
        let decision = (
            "decision pass",
            cycle(&inputs, |k, i| {
                let (pass_times, reports) = decision_times(&i.spec, &i.scenarios)?;
                replayed.keep(k, reports);
                times.keep(k, pass_times);
                Ok(())
            }),
        );
        let (plain_runs, _) =
            time_alternating(out, args.seconds, SETS, plain, decision, &mut between);
        out.metric("events_per_s", runs.rate());
        out.check(
            "every repeat makes the same decisions",
            times.mismatched() == 0,
        );
        times.pooled().report(out);
        plain_runs
    };

    out.metric("setup_s", clock.median());
    out.high_water_mark();
    out.check(
        "every epoch record is conserved",
        plain_runs.iter().all(|(_, (_, p))| p.conserved),
    );
    let (Some(firsts), Some(tenants)) = (first_per_set(&plain_runs, SETS), fleet_reports.all())
    else {
        out.check("every input set ran", false);
        return;
    };
    out.check(
        "every timed pass processes the same events as its set's first",
        plain_runs
            .iter()
            .all(|(_, (k, p))| p.events == firsts[*k].events),
    );
    out.check(
        "every timed pass reports the same tenants as its set's first",
        fleet_reports.differed() == 0,
    );
    let reports: Vec<&ControllerReport> = tenants
        .iter()
        .flat_map(|t| t.iter().map(|(_, r)| r))
        .collect();
    let lost = reports.iter().map(|r| r.lost()).sum();
    let offered = reports.iter().map(|r| r.admitted + r.rejected).sum();
    out.metric("loss_rate", ratio(lost, offered));
    let mut latencies: Vec<f64> = reports.iter().map(|r| r.mean_latency).collect();
    out.metric(
        "mean_latency_ms",
        trimmed_mean(&mut latencies, LATENCY_TRIM) * 1e3,
    );

    if !args.trace {
        // Untimed: the serial decision replays reproduce the fleet's
        // tenants, so their latencies are those of the fleet's decisions.
        out.check(
            "every decision replay reports as its set's first",
            replayed.differed() == 0,
        );
        for (k, fleet) in tenants.iter().enumerate() {
            let same = replayed.get(k).is_some_and(|replay| {
                replay.len() == fleet.len()
                    && fleet
                        .iter()
                        .zip(replay)
                        .enumerate()
                        .all(|(t, ((id, a), b))| *id == TenantId::new(t as u32) && a == b)
            });
            out.check("decision replays equal the fleet's tenant reports", same);
        }
    }

    // Untimed: recovery is transparent, so each faulted outcome is
    // byte-identical to the undisturbed run of the same spec.
    for input in &inputs {
        let faulted = out.attempt("faulted run", || run_fleet(&input.spec, Some(&input.plan)));
        let undisturbed = out.attempt("undisturbed run", || run_fleet(&input.spec, None));
        let (Some(f), Some(u)) = (faulted, undisturbed) else {
            continue;
        };
        out.check(
            "faults were injected and recovered",
            f.recovery.faults_injected > 0,
        );
        out.check(
            "faulted report equals the undisturbed report",
            f.report == u.report,
        );
        out.check(
            "faulted epoch records equal the undisturbed ones",
            f.epoch_records == u.epoch_records,
        );
        out.check(
            "faulted tenant reports equal the undisturbed ones",
            f.tenant_reports == u.tenant_reports,
        );
        out.check(
            "faulted journal is byte-identical to the undisturbed one",
            f.artifacts.journal_jsonl() == u.artifacts.journal_jsonl(),
        );
    }
}
