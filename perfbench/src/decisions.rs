//! Online decision latency: the wall time of one `Controller::handle`
//! call, one `Instant` pair per call, sorted by the kind of event handled.
//!
//! Every input is replayed several times in a run, and each decision
//! keeps its fastest repeat, so the benchmark's own memory does not grow
//! with the number of passes a run makes and `peak_rss_mb` stays the
//! program's.

use std::time::Instant;

use nfv_controller::{Controller, EventOutcome};
use nfv_telemetry::Telemetry;
use nfv_workload::churn::{ChurnEvent, TimedEvent};

use crate::harness::{percentile, Outcome};

/// What a `handle()` call was deciding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Admission of a new request (plus any retries due before it).
    Arrival,
    /// A request leaving.
    Departure,
    /// An instance or node going down or coming back.
    Outage,
    /// A re-optimization tick.
    Tick,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 4] = [Kind::Arrival, Kind::Departure, Kind::Outage, Kind::Tick];

    /// The kind of an event.
    pub fn of(event: &ChurnEvent) -> Self {
        match event {
            ChurnEvent::Arrival(_) => Kind::Arrival,
            ChurnEvent::Departure(_) => Kind::Departure,
            ChurnEvent::ReoptimizeTick => Kind::Tick,
            ChurnEvent::InstanceDown { .. }
            | ChurnEvent::InstanceUp { .. }
            | ChurnEvent::NodeDown { .. }
            | ChurnEvent::NodeUp { .. } => Kind::Outage,
        }
    }

    /// Position in [`Kind::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// `handle()` wall times, seconds, of the decisions the end-to-end
/// percentiles report, in the order the calls were made.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionTimes {
    /// Arrival decisions.
    pub arrivals: Vec<f64>,
    /// Tick decisions.
    pub ticks: Vec<f64>,
}

impl DecisionTimes {
    /// Applies one event through `Controller::handle`, timing the call.
    pub fn handle(&mut self, controller: &mut Controller, event: &TimedEvent) -> EventOutcome {
        let kind = Kind::of(event.event());
        let start = Instant::now();
        let outcome = controller.handle(event);
        self.record(kind, start);
        outcome
    }

    /// Applies one event through `Controller::handle_traced` into
    /// `telemetry`, timing the call: the path a fleet drain takes when
    /// its tenants keep journals.
    pub fn handle_traced(
        &mut self,
        controller: &mut Controller,
        event: &TimedEvent,
        telemetry: &mut Telemetry,
    ) -> EventOutcome {
        let kind = Kind::of(event.event());
        let start = Instant::now();
        let outcome = controller.handle_traced(event, telemetry);
        self.record(kind, start);
        outcome
    }

    fn record(&mut self, kind: Kind, start: Instant) {
        let seconds = start.elapsed().as_secs_f64();
        match kind {
            Kind::Arrival => self.arrivals.push(seconds),
            Kind::Tick => self.ticks.push(seconds),
            Kind::Departure | Kind::Outage => {}
        }
    }

    /// Records the decision-latency percentiles: the median and the
    /// highest percentile with at least ten samples beyond it at the
    /// sizes every workload reaches (p99 of arrivals, p95 of ticks).
    pub fn report(mut self, out: &mut Outcome) {
        out.check(
            "arrival p99 has >= 10 samples beyond it",
            self.arrivals.len() >= 1000,
        );
        out.check(
            "tick p95 has >= 10 samples beyond it",
            self.ticks.len() >= 200,
        );
        for (what, samples) in [("arrival", &mut self.arrivals), ("tick", &mut self.ticks)] {
            let deciles: Vec<String> = (1..10)
                .map(|d| format!("{:.3}", percentile(samples, f64::from(d) / 10.0) * 1e6))
                .collect();
            eprintln!(
                "{what} decisions: {} samples, deciles (us) {}",
                samples.len(),
                deciles.join(" ")
            );
        }
        out.metric("arrival_p50_us", percentile(&mut self.arrivals, 0.50) * 1e6);
        out.metric("arrival_p99_us", percentile(&mut self.arrivals, 0.99) * 1e6);
        out.metric("tick_p50_ms", percentile(&mut self.ticks, 0.50) * 1e3);
        out.metric("tick_p95_ms", percentile(&mut self.ticks, 0.95) * 1e3);
    }
}

/// Each decision's fastest repeat. Passes of one group replay the same
/// inputs, so they make the same decisions in the same order, and the
/// k-th call of every repeat decides the same thing. Keeping each call's
/// fastest time strips the host's interference from every decision
/// while keeping what makes one decision costlier than another. Memory
/// stays one value per decision of a group however many passes run.
#[derive(Debug)]
pub struct FastestDecisions {
    groups: Vec<Option<DecisionTimes>>,
    mismatched: u64,
}

impl FastestDecisions {
    /// Nothing kept yet, for `groups` groups of passes.
    pub fn new(groups: usize) -> Self {
        Self {
            groups: vec![None; groups],
            mismatched: 0,
        }
    }

    /// Folds one pass of `group` in, call by call; a pass that made a
    /// different number of decisions than the group's first is counted
    /// and left out.
    pub fn keep(&mut self, group: usize, pass: DecisionTimes) {
        match &mut self.groups[group] {
            slot @ None => *slot = Some(pass),
            Some(best)
                if best.arrivals.len() == pass.arrivals.len()
                    && best.ticks.len() == pass.ticks.len() =>
            {
                for (b, p) in best.arrivals.iter_mut().zip(&pass.arrivals) {
                    *b = b.min(*p);
                }
                for (b, p) in best.ticks.iter_mut().zip(&pass.ticks) {
                    *b = b.min(*p);
                }
            }
            Some(_) => self.mismatched += 1,
        }
    }

    /// Passes whose decision count differed from their group's first.
    pub fn mismatched(&self) -> u64 {
        self.mismatched
    }

    /// Every group's fastest decision times, pooled.
    pub fn pooled(&self) -> DecisionTimes {
        let mut all = DecisionTimes::default();
        for group in self.groups.iter().flatten() {
            all.arrivals.extend_from_slice(&group.arrivals);
            all.ticks.extend_from_slice(&group.ticks);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(arrivals: &[f64], ticks: &[f64]) -> DecisionTimes {
        DecisionTimes {
            arrivals: arrivals.to_vec(),
            ticks: ticks.to_vec(),
        }
    }

    #[test]
    fn each_decision_keeps_its_fastest_repeat() {
        let mut fastest = FastestDecisions::new(2);
        fastest.keep(0, pass(&[3.0, 1.0], &[5.0]));
        fastest.keep(0, pass(&[2.0, 4.0], &[6.0]));
        fastest.keep(1, pass(&[7.0], &[]));
        assert_eq!(fastest.pooled(), pass(&[2.0, 1.0, 7.0], &[5.0]));
        assert_eq!(fastest.mismatched(), 0);
    }

    #[test]
    fn a_repeat_with_other_decisions_is_counted_and_left_out() {
        let mut fastest = FastestDecisions::new(1);
        fastest.keep(0, pass(&[3.0, 1.0], &[]));
        fastest.keep(0, pass(&[0.5], &[]));
        assert_eq!(fastest.mismatched(), 1);
        assert_eq!(fastest.pooled(), pass(&[3.0, 1.0], &[]));
    }
}
