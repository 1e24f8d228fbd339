//! `reopt_ladder`: one controller with a cluster under the full
//! re-optimization ladder, driven event by event through `handle()`.
//!
//! Ticks take almost all of the time here: RCKK, the BFDSU delta,
//! emergency re-placement, the GA refiner and the retry wheel. On
//! `fleet_chaos` ticks take microseconds, so a tick change shows here and
//! must leave that workload alone.

use std::hint::black_box;
use std::time::Instant;

use nfv_controller::{Controller, ControllerConfig, ControllerReport};
use nfv_core::experiments::churn::{setup_cluster, ChurnPoint};
use nfv_core::experiments::resilience::{self, ResiliencePoint};
use nfv_parallel::derive_seed;
use nfv_telemetry::{Phase, PhaseProfile, Telemetry};
use nfv_workload::churn::ChurnTrace;

use crate::decisions::{DecisionTimes, FastestDecisions, Kind};
use crate::harness::{
    cycle, median, median_of, median_pass, overhead_pct, per_set_rate, ratio, rewalled, since,
    time_alternating, time_passes, trimmed_mean, Fastest, Firsts, LayerSum, Outcome, SetupClock,
    LATENCY_TRIM,
};
use crate::Args;

/// Input sets per run. Timed passes cycle through them, so a run's
/// counters average over `SETS × REPLICAS` scenarios; few enough sets
/// that each is replayed several times in a run, so every replica and
/// every decision has repeats to keep the fastest of.
const SETS: usize = 4;

/// Replays per pass, each on a scenario, trace and cluster of its own:
/// 32 × 11 ticks give 352 ticks per pass.
const REPLICAS: usize = 32;

/// [`ResiliencePoint::racked`]: the base point with racks of two nodes
/// failing together. Two choices are deliberate. Stretching one
/// replay's horizon instead drives the point into saturation (two thirds
/// of arrivals lost, mean latency spanning 3× over seeds). And with
/// independent node failures about half the ticks are quiet and run the
/// GA refiner (~3.5 ms) while the rest take ~1 ms, so the tick median
/// sits in the gap between the two and jumps between seeds; with racks
/// about three quarters are quiet.
fn point() -> ResiliencePoint {
    ResiliencePoint::racked()
}

/// One replay's inputs: the materialized trace and the controller built
/// on the replica's cluster and initial BFDSU placement.
struct Replica {
    trace: ChurnTrace,
    template: Controller,
}

/// Scenario, materialized trace, cluster, initial BFDSU placement and
/// the controller built on them, for every replica.
fn build(point: &ResiliencePoint, seed: u64) -> Result<Vec<Vec<Replica>>, String> {
    (0..SETS)
        .map(|k| {
            (0..REPLICAS)
                .map(|i| build_replica(point, replica_seed(seed, k * REPLICAS + i)))
                .collect()
        })
        .collect()
}

fn replica_seed(seed: u64, i: usize) -> u64 {
    derive_seed(seed, i as u64)
}

/// The scenario and node-outage trace of `core::experiments::resilience`
/// on the cluster of `core::experiments::churn`, as the resilience
/// experiment builds them.
fn build_replica(point: &ResiliencePoint, seed: u64) -> Result<Replica, String> {
    let (scenario, trace) = resilience::setup(point, seed).map_err(|e| e.to_string())?;
    // `setup_cluster` takes a `ChurnPoint` and reads only its `nodes`
    // and `fill`; the other fields mirror the resilience point.
    let cluster_point = ChurnPoint {
        vnfs: point.vnfs,
        base_requests: point.base_requests,
        target_utilization: point.target_utilization,
        horizon: point.horizon,
        arrival_rate: point.arrival_rate,
        mean_holding: point.mean_holding,
        tick_period: point.tick_period,
        outage_rate: 0.0,
        mean_outage: 1.0,
        nodes: point.nodes,
        fill: point.fill,
    };
    let (nodes, placement) =
        setup_cluster(&cluster_point, seed, &scenario).map_err(|e| e.to_string())?;
    let template =
        Controller::with_cluster(&scenario, nodes, &placement, ControllerConfig::refined())
            .map_err(|e| e.to_string())?;
    Ok(Replica { trace, template })
}

/// What one plain pass produced.
struct Plain {
    reports: Vec<ControllerReport>,
    /// Wall seconds of each replica's replay.
    walls: Vec<f64>,
    times: DecisionTimes,
}

fn plain_pass(replicas: &[Replica], horizon: f64) -> Result<Plain, String> {
    let mut pass = Plain {
        reports: Vec::with_capacity(replicas.len()),
        walls: Vec::with_capacity(replicas.len()),
        times: DecisionTimes::default(),
    };
    for replica in replicas {
        let start = Instant::now();
        let mut controller = replica.template.clone();
        for event in replica.trace.events() {
            black_box(pass.times.handle(&mut controller, event));
        }
        controller.finish(horizon);
        pass.reports.push(controller.report());
        pass.walls.push(since(start));
    }
    Ok(pass)
}

/// What one traced pass measured.
struct Traced {
    reports: Vec<ControllerReport>,
    /// `handle()` seconds by [`Kind`].
    busy: [f64; 4],
    /// Phase seconds by [`Kind`] of the enclosing event, then by
    /// [`Phase::ALL`] position.
    phases: [[f64; 6]; 4],
    /// Wall time of each `checkpoint()` taken after a tick.
    checkpoints: Vec<f64>,
    /// Mean `checkpoint().to_jsonl()` length of a controller at the end.
    state_bytes: f64,
    layers: LayerSum,
}

fn phase_seconds(profile: &PhaseProfile) -> [f64; 6] {
    Phase::ALL.map(|p| profile.summary(p).samples().as_slice().iter().sum())
}

/// One pass with a telemetry session per event kind, so the program's
/// own phase profile attributes each phase to the kind of event it ran
/// under, and a `checkpoint()` taken from outside after every tick.
fn traced_pass(replicas: &[Replica], horizon: f64) -> Result<Traced, String> {
    let start = Instant::now();
    let mut sessions: [Telemetry; 4] = std::array::from_fn(|_| Telemetry::enabled());
    let mut busy = [0.0; 4];
    let mut checkpoints = Vec::new();
    let mut finished = Vec::with_capacity(replicas.len());
    for replica in replicas {
        let mut controller = replica.template.clone();
        for event in replica.trace.events() {
            let kind = Kind::of(event.event());
            let t = Instant::now();
            black_box(controller.handle_traced(event, &mut sessions[kind.index()]));
            busy[kind.index()] += since(t);
            if kind == Kind::Tick {
                let t = Instant::now();
                drop(black_box(controller.checkpoint()));
                checkpoints.push(since(t));
            }
        }
        controller.finish(horizon);
        finished.push(controller);
    }
    let wall = since(start);
    let state_bytes = finished
        .iter()
        .map(|c| c.checkpoint().to_jsonl().len() as f64)
        .sum::<f64>()
        / finished.len() as f64;
    let phases = sessions.map(|s| phase_seconds(&s.finish().profile));

    let mut rows: Vec<(&'static str, f64)> = Phase::ALL
        .iter()
        .enumerate()
        .map(|(i, &p)| (phase_metric(p), phases.iter().map(|k| k[i]).sum()))
        .collect();
    for kind in Kind::ALL {
        let own: f64 = phases[kind.index()].iter().sum();
        rows.push((other_label(kind), busy[kind.index()] - own));
    }
    rows.push((
        "controller.checkpoint (from outside)",
        checkpoints.iter().sum(),
    ));
    Ok(Traced {
        reports: finished.iter().map(Controller::report).collect(),
        busy,
        phases,
        checkpoints,
        state_bytes,
        layers: LayerSum {
            wall,
            rows,
            residual: "controller clone + loop + finish",
        },
    })
}

fn phase_metric(phase: Phase) -> &'static str {
    match phase {
        Phase::RckkPlan => "scheduling.rckk_plan_s",
        Phase::PlaceDelta => "placement.place_delta_s",
        Phase::EmergencyReplace => "placement.emergency_replace_s",
        Phase::SearchGeneration => "search.generation_s",
        Phase::HysteresisProbe => "controller.hysteresis_probe_s",
        Phase::RetryDrain => "controller.retry_drain_s",
    }
}

fn other_label(kind: Kind) -> &'static str {
    match kind {
        Kind::Arrival => "controller.arrival (other)",
        Kind::Departure => "controller.departure (other)",
        Kind::Outage => "controller.outage (other)",
        Kind::Tick => "controller.tick (other)",
    }
}

fn busy_metric(kind: Kind) -> &'static str {
    match kind {
        Kind::Arrival => "controller.arrival_busy_s",
        Kind::Departure => "controller.departure_busy_s",
        Kind::Outage => "controller.outage_busy_s",
        Kind::Tick => "controller.tick_busy_s",
    }
}

/// Sums one counter over a pass's replicas.
fn total(reports: &[ControllerReport], counter: impl Fn(&ControllerReport) -> u64) -> u64 {
    reports.iter().map(counter).sum()
}

fn record_traced(
    out: &mut Outcome,
    args: &Args,
    traced: &[(f64, (usize, Traced))],
    events: &[f64],
    overhead: f64,
) {
    let all_events: f64 = events.iter().sum();
    let point = point();
    let mut gen = Vec::new();
    for _ in 0..3 {
        let seconds = out.attempt("trace generation", || {
            let start = Instant::now();
            for i in 0..SETS * REPLICAS {
                black_box(
                    resilience::setup(&point, replica_seed(args.seed, i))
                        .map_err(|e| e.to_string())?,
                );
            }
            Ok(since(start))
        });
        gen.extend(seconds);
    }
    out.metric(
        "workload.gen_ns_per_event",
        median(&mut gen) / all_events * 1e9,
    );
    out.metric(
        "controller.ingest_ns_per_event",
        median_of(traced, |_, (k, t)| {
            t.busy.iter().sum::<f64>() / events[*k] * 1e9
        }),
    );
    for kind in Kind::ALL {
        out.metric(
            busy_metric(kind),
            median_of(traced, |_, (_, t)| t.busy[kind.index()]),
        );
    }
    for (i, &phase) in Phase::ALL.iter().enumerate() {
        out.metric(
            phase_metric(phase),
            median_of(traced, |_, (_, t)| t.phases.iter().map(|k| k[i]).sum()),
        );
    }
    let tick = Kind::Tick.index();
    out.metric(
        "controller.tick_other_s",
        median_of(traced, |_, (_, t)| {
            t.busy[tick] - t.phases[tick].iter().sum::<f64>()
        }),
    );
    let mut checkpoint_s: Vec<f64> = traced
        .iter()
        .flat_map(|(_, (_, t))| t.checkpoints.iter().copied())
        .collect();
    out.metric("controller.checkpoint_us", median(&mut checkpoint_s) * 1e6);
    if let Some((_, t)) = median_pass(traced) {
        let r = &t.reports;
        let applied = |a: fn(&ControllerReport) -> u64, b: fn(&ControllerReport) -> u64| {
            ratio(total(r, a), total(r, a) + total(r, b))
        };
        out.metric(
            "controller.reopt_applied_ratio",
            applied(|r| r.reopts_applied, |r| r.reopts_skipped),
        );
        out.metric(
            "placement.replace_applied_ratio",
            applied(|r| r.replaces_applied, |r| r.replaces_aborted),
        );
        out.metric(
            "search.refine_applied_ratio",
            applied(|r| r.refines_applied, |r| r.refines_rejected),
        );
        out.metric(
            "controller.retry_useful_ratio",
            ratio(
                total(r, |r| r.retry_admitted),
                total(r, |r| r.retries_attempted),
            ),
        );
        out.metric("controller.state_bytes", t.state_bytes);
        t.layers.print("reopt_ladder", overhead);
    }
    out.metric("trace_overhead_pct", overhead);
}

/// Runs the workload and records its metrics.
pub fn run(args: &Args, out: &mut Outcome) {
    let point = point();
    let mut clock = SetupClock::new(|| build(&point, args.seed));
    let built = clock.first();
    let Some(sets) = out.attempt("set-up", || built) else {
        return;
    };
    let mut between = || clock.sample();
    let events: Vec<f64> = sets
        .iter()
        .map(|set| set.iter().map(|r| r.trace.len()).sum::<usize>() as f64)
        .collect();
    // Each set's reports, each replica's fastest replay, and each set's
    // fastest decisions.
    let mut decided = Firsts::new(SETS);
    let mut replays = Fastest::new(SETS * REPLICAS);
    let mut times = FastestDecisions::new(SETS);
    // The pass closures borrow `decided`, `replays` and `times`; the
    // block ends the borrows before the metrics and checks below read them.
    let traced_runs = {
        let plain = (
            "ladder pass",
            cycle(&sets, |k, set| {
                let pass = plain_pass(set, point.horizon)?;
                decided.keep(k, pass.reports);
                for (r, (replica, &seconds)) in set.iter().zip(&pass.walls).enumerate() {
                    replays.keep(k * REPLICAS + r, replica.trace.len() as f64, seconds);
                }
                times.keep(k, pass.times);
                Ok(())
            }),
        );

        if args.trace {
            let traced = (
                "traced pass",
                cycle(&sets, |_, set| traced_pass(set, point.horizon)),
            );
            let (plain_runs, traced_runs) =
                time_alternating(out, args.seconds, SETS, plain, traced, &mut between);
            let overhead = overhead_pct(
                per_set_rate(&plain_runs, SETS, |k, _| events[k]),
                per_set_rate(&rewalled(&traced_runs, |t| t.layers.wall), SETS, |k, _| {
                    events[k]
                }),
            );
            record_traced(out, args, &traced_runs, &events, overhead);
            traced_runs
        } else {
            let (what, pass) = plain;
            time_passes(out, what, args.seconds, SETS, pass, &mut between);
            // Untimed: one traced pass, for the traced-equals-plain check.
            let traced = out.attempt("traced pass", || traced_pass(&sets[0], point.horizon));
            traced.into_iter().map(|t| (0.0, (0, t))).collect()
        }
    };

    if !args.trace {
        out.metric("events_per_s", replays.rate());
    }
    out.metric("setup_s", clock.median());
    out.high_water_mark();
    let Some(firsts) = decided.all() else {
        out.check("every input set ran", false);
        return;
    };
    out.check(
        "every timed pass reports the same decisions as its set's first",
        decided.differed() == 0,
    );
    let reports: Vec<&ControllerReport> = firsts.into_iter().flatten().collect();
    for r in &reports {
        out.check(
            "admitted + retry_admitted == active + departed + shed",
            r.admitted + r.retry_admitted == r.active + r.departed + r.shed,
        );
    }
    out.check("traced run ran", !traced_runs.is_empty());
    for (_, (k, t)) in &traced_runs {
        out.check(
            "traced reports equal the plain reports",
            decided.get(*k) == Some(&t.reports),
        );
        if args.trace {
            out.check(
                "traced ladder layers reconstruct the wall time",
                t.layers.reconstructs(),
            );
        }
    }
    let offered = reports.iter().map(|r| r.admitted + r.rejected).sum();
    let lost = reports.iter().map(|r| r.lost()).sum();
    out.metric("loss_rate", ratio(lost, offered));
    let mut latencies: Vec<f64> = reports.iter().map(|r| r.mean_latency).collect();
    out.metric(
        "mean_latency_ms",
        trimmed_mean(&mut latencies, LATENCY_TRIM) * 1e3,
    );
    if !args.trace {
        out.check(
            "every repeat makes the same decisions",
            times.mismatched() == 0,
        );
        times.pooled().report(out);
    }
}
