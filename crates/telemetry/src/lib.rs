//! Deterministic observability for the online NFV control plane.
//!
//! Four layers, all strict observers of the controller:
//!
//! - a structured **event journal** ([`TraceEvent`]/[`EventKind`]):
//!   typed admit/reject/shed/retry/outage/re-optimization records,
//!   each kind declared once, kept in a bounded in-memory [`Ring`] and
//!   written out from the finished session as a JSONL file
//!   ([`jsonl_journal`]/[`parse_jsonl_journal`]) or in the fixed-column
//!   per-event CSV trace shape ([`csv_journal`]/[`csv_journal_rows`]);
//! - **timing spans** ([`Phase`]/[`PhaseProfile`]): wall-clock durations
//!   of the six hot phases (BFDSU delta-placement, RCKK planning, the
//!   hysteresis probe, retry drain, emergency re-placement and one
//!   search generation) aggregated into `nfv-metrics` summaries;
//! - a **per-tick time-series** ([`TickSample`]/[`TickSeries`]): ρ,
//!   balanced latency, retry backlog and nodes-in-service snapshots with
//!   bounded memory and in-order cross-worker merging;
//! - a fleet-facing **observability plane**: causal [`SpanTree`]s for
//!   flame-style wall-clock attribution, a deterministic metrics
//!   [`Registry`] with Prometheus text and JSON exporters, and a bounded
//!   flight-recorder [`Postmortem`] window captured for quarantined
//!   tenants.
//!
//! The [`json`] module is the workspace's one JSON codec: the journal,
//! the controller snapshots, the registry dump and the bench report all
//! encode and decode through it.
//!
//! # Determinism contract
//!
//! Telemetry must never change what the controller computes:
//!
//! - [`Telemetry::disabled`] is a `None` behind one branch — no
//!   allocation, no clock reads, no RNG draws; the event/sample closures
//!   passed to [`Telemetry::emit`]/[`Telemetry::sample_tick`] are not
//!   even invoked;
//! - enabled telemetry only *reads* controller state; span durations are
//!   the only wall-clock values and they flow into [`PhaseProfile`]
//!   summaries, never back into any decision;
//! - journal and series content derive purely from the deterministic
//!   virtual-time run, so same-seed runs emit bit-identical journals at
//!   any thread count (wall-clock span durations are the one documented
//!   exception, and they live outside the journal).
//!
//! # Examples
//!
//! ```
//! use nfv_telemetry::{EventKind, Telemetry};
//! use nfv_model::RequestId;
//!
//! let mut tel = Telemetry::enabled();
//! tel.emit(1.5, 0, || EventKind::Admit { request: RequestId::new(7), hops: 2 });
//! let artifacts = tel.finish();
//! assert_eq!(artifacts.events.len(), 1);
//!
//! // The disabled path records nothing and never runs the closure.
//! let mut off = Telemetry::disabled();
//! off.emit(1.5, 0, || unreachable!("disabled telemetry must not build events"));
//! assert!(off.finish().events.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
pub mod json;
mod recorder;
mod registry;
mod ring;
mod series;
mod sink;
mod span;
mod trace;

pub use event::{EventKind, ReoptPhase, TraceEvent, CSV_HEADER};
pub use export::{escape_label, unescape_label};
pub use recorder::{Postmortem, FLIGHT_RECORDER_WINDOW};
pub use registry::{Registry, RegistryError};
pub use ring::Ring;
pub use series::{TickSample, TickSeries, SERIES_CSV_HEADER};
pub use sink::{
    csv_journal, csv_journal_rows, jsonl_journal, parse_jsonl_journal, JournalError,
    JOURNAL_SCHEMA_VERSION,
};
pub use span::{Phase, PhaseProfile, SpanToken, Stopwatch};
pub use trace::{SpanId, SpanTree};

use nfv_metrics::{Summary, SummaryMark};
use ring::RingMark;

/// Everything a telemetry session collected, returned by
/// [`Telemetry::finish`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryArtifacts {
    /// The journal retained by the in-memory ring, oldest first, with
    /// dense re-assigned sequence numbers after merging.
    pub events: Vec<TraceEvent>,
    /// Journal records evicted from the ring to honor its bound.
    pub dropped_events: u64,
    /// Per-phase wall-clock timing summaries.
    pub profile: PhaseProfile,
    /// The per-tick time-series.
    pub series: TickSeries,
}

impl TelemetryArtifacts {
    /// Appends another worker's artifacts after this one. Callers fold
    /// worker results in worker-index order (the order `par_map`
    /// returns), so the merged artifacts are identical at any thread
    /// count; sequence numbers are re-assigned densely over the merged
    /// journal.
    pub fn merge(&mut self, other: TelemetryArtifacts) {
        self.dropped_events += other.dropped_events;
        self.events.extend(other.events);
        for (seq, event) in self.events.iter_mut().enumerate() {
            event.seq = seq as u64;
        }
        self.profile.merge(&other.profile);
        self.series.merge(&other.series);
    }

    /// Merges many sessions' artifacts in iteration order — the fleet
    /// path, which folds per-tenant journals shard by shard in shard-id
    /// order (tenants in owned order within each shard). Because that
    /// order is a pure function of the seed and never of the thread
    /// count, the merged journal is byte-identical at any parallelism;
    /// the merge quadratic (`merge` re-seqs per part) is avoided by
    /// re-assigning dense sequence numbers once at the end.
    #[must_use]
    pub fn merged<I: IntoIterator<Item = TelemetryArtifacts>>(parts: I) -> Self {
        let mut all = TelemetryArtifacts::default();
        for part in parts {
            all.dropped_events += part.dropped_events;
            all.events.extend(part.events);
            all.profile.merge(&part.profile);
            all.series.merge(&part.series);
        }
        for (seq, event) in all.events.iter_mut().enumerate() {
            event.seq = seq as u64;
        }
        all
    }

    /// The journal as JSONL (one event per line, no header; see
    /// [`jsonl_journal`] for the file form).
    #[must_use]
    pub fn journal_jsonl(&self) -> String {
        let mut out = String::new();
        sink::push_lines(&mut out, &self.events, TraceEvent::to_json);
        out
    }
}

struct Inner {
    seq: u64,
    ring: Ring<TraceEvent>,
    profile: PhaseProfile,
    series: TickSeries,
    /// Where [`Telemetry::rewind`] returns to.
    mark: Mark,
}

/// The sequence counter plus one watermark per history stream.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    seq: u64,
    journal: RingMark,
    series: RingMark,
    profile: [SummaryMark; Phase::ALL.len()],
}

/// A telemetry session handle, threaded by `&mut` through the
/// controller's event loop; [`Telemetry::mark`]/[`Telemetry::rewind`]
/// rewind a session for checkpoint-based crash recovery. See the crate
/// docs for the determinism contract.
pub struct Telemetry {
    inner: Option<Box<Inner>>,
}

impl Telemetry {
    /// Default journal ring capacity (events retained in memory).
    pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;
    /// Default time-series capacity (tick samples retained).
    pub const DEFAULT_SAMPLE_CAPACITY: usize = 4_096;

    /// The no-op session: records nothing, costs one branch per call
    /// site, and never invokes the event/sample closures.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled session with the default ring and series capacities.
    #[must_use]
    pub fn enabled() -> Self {
        Self::with_capacity(Self::DEFAULT_EVENT_CAPACITY, Self::DEFAULT_SAMPLE_CAPACITY)
    }

    /// An enabled session retaining at most `max_events` journal records
    /// and `max_samples` tick samples in memory.
    #[must_use]
    pub fn with_capacity(max_events: usize, max_samples: usize) -> Self {
        let mut tel = Self {
            inner: Some(Box::new(Inner {
                seq: 0,
                ring: Ring::new(max_events),
                profile: PhaseProfile::new(),
                series: TickSeries::new(max_samples),
                mark: Mark::default(),
            })),
        };
        tel.mark();
        tel
    }

    /// Whether this session records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits one journal record at virtual time `time` during tick
    /// `tick`. The closure builds the payload only when the session is
    /// enabled, so the disabled path does no formatting or allocation.
    pub fn emit<F: FnOnce() -> EventKind>(&mut self, time: f64, tick: u64, kind: F) {
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        let event = TraceEvent {
            seq: inner.seq,
            time,
            tick,
            kind: kind(),
        };
        inner.seq += 1;
        inner.ring.push(event);
    }

    /// Opens a timing span (reads the clock only when enabled).
    pub fn begin(&self) -> SpanToken {
        SpanToken::start(self.is_enabled())
    }

    /// Closes a timing span into `phase`'s duration summary.
    pub fn end(&mut self, phase: Phase, token: SpanToken) {
        if let (Some(inner), Some(seconds)) = (self.inner.as_mut(), token.elapsed_seconds()) {
            inner.profile.record(phase, seconds);
        }
    }

    /// Records one per-tick sample; the closure runs only when the
    /// session is enabled.
    pub fn sample_tick<F: FnOnce() -> TickSample>(&mut self, sample: F) {
        if let Some(inner) = self.inner.as_mut() {
            inner.series.push(sample());
        }
    }

    /// Marks the session's position for a later [`rewind`] in O(1) — a
    /// watermark per history stream, no copy — superseding the previous
    /// mark (a new session starts marked at its empty state).
    ///
    /// [`rewind`]: Telemetry::rewind
    pub fn mark(&mut self) {
        if let Some(inner) = self.inner.as_mut() {
            inner.mark = Mark {
                seq: inner.seq,
                journal: inner.ring.mark(),
                series: inner.series.mark(),
                profile: inner.profile.durations.each_ref().map(Summary::mark),
            };
        }
    }

    /// Rewinds the journal, tick series, phase profile and sequence
    /// counter exactly to the latest [`mark`], items the bounded rings
    /// evicted since included, so replaying the same calls reproduces the
    /// session bit for bit. The mark stays for further rewinds.
    ///
    /// [`mark`]: Telemetry::mark
    pub fn rewind(&mut self) {
        if let Some(inner) = self.inner.as_mut() {
            let mark = inner.mark;
            inner.seq = mark.seq;
            inner.ring.rewind(mark.journal);
            inner.series.rewind(mark.series);
            for (summary, mark) in inner.profile.durations.iter_mut().zip(&mark.profile) {
                summary.rewind(mark);
            }
        }
    }

    /// The most recent `limit` journal events, oldest first — the flight
    /// recorder's post-mortem window. Empty for a disabled session.
    #[must_use]
    pub fn recent_events(&self, limit: usize) -> Vec<TraceEvent> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| {
            let skip = inner.ring.len().saturating_sub(limit);
            inner.ring.events().skip(skip).cloned().collect()
        })
    }

    /// Closes the session and returns the collected artifacts (empty
    /// for a disabled session).
    #[must_use]
    pub fn finish(self) -> TelemetryArtifacts {
        let Some(inner) = self.inner else {
            return TelemetryArtifacts::default();
        };
        TelemetryArtifacts {
            dropped_events: inner.ring.dropped(),
            events: inner.ring.into_events(),
            profile: inner.profile,
            series: inner.series,
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Telemetry::disabled"),
            Some(inner) => f
                .debug_struct("Telemetry")
                .field("events", &inner.ring.len())
                .field("dropped", &inner.ring.dropped())
                .field("spans", &inner.profile.total_spans())
                .field("samples", &inner.series.len())
                .finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_model::{NodeId, RequestId};

    #[test]
    fn disabled_session_is_inert_and_lazy() {
        let mut tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.emit(0.0, 0, || panic!("emit closure ran on the disabled path"));
        tel.sample_tick(|| panic!("sample closure ran on the disabled path"));
        let token = tel.begin();
        tel.end(Phase::RckkPlan, token);
        let artifacts = tel.finish();
        assert_eq!(artifacts, TelemetryArtifacts::default());
    }

    #[test]
    fn enabled_session_journals_in_emission_order() {
        let mut tel = Telemetry::enabled();
        tel.emit(1.0, 0, || EventKind::NodeDown {
            node: NodeId::new(3),
            vnfs_lost: 2,
            shed: 5,
        });
        tel.emit(2.0, 0, || EventKind::NodeUp {
            node: NodeId::new(3),
            vnfs_restored: 2,
        });
        let token = tel.begin();
        tel.end(Phase::EmergencyReplace, token);
        let artifacts = tel.finish();
        assert_eq!(artifacts.events.len(), 2);
        assert_eq!(artifacts.events[0].seq, 0);
        assert_eq!(artifacts.events[1].seq, 1);
        assert_eq!(artifacts.events[0].kind.label(), "NodeDown");
        assert_eq!(
            artifacts.profile.summary(Phase::EmergencyReplace).count(),
            1
        );
        let jsonl = artifacts.journal_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert_eq!(
            TraceEvent::from_json(jsonl.lines().next().unwrap()).unwrap(),
            artifacts.events[0]
        );
    }

    #[test]
    fn merge_renumbers_and_appends_in_order() {
        let mut a = Telemetry::enabled();
        a.emit(1.0, 0, || EventKind::Admit {
            request: RequestId::new(1),
            hops: 1,
        });
        let mut b = Telemetry::enabled();
        b.emit(2.0, 0, || EventKind::Admit {
            request: RequestId::new(2),
            hops: 1,
        });
        let mut merged = a.finish();
        merged.merge(b.finish());
        assert_eq!(merged.events.len(), 2);
        assert_eq!(merged.events[0].seq, 0);
        assert_eq!(merged.events[1].seq, 1);
        assert_eq!(merged.events[1].time, 2.0);
    }

    fn admit(tel: &mut Telemetry, i: u32) {
        tel.emit(f64::from(i), u64::from(i), || EventKind::Admit {
            request: RequestId::new(i),
            hops: 1,
        });
        tel.sample_tick(|| TickSample {
            tick: u64::from(i),
            ..TickSample::default()
        });
    }

    #[test]
    fn rewind_past_ring_wraps_matches_a_session_that_stopped_at_the_mark() {
        let mut tel = Telemetry::with_capacity(4, 2);
        let mut reference = Telemetry::with_capacity(4, 2);
        for i in 0..6 {
            admit(&mut tel, i);
            admit(&mut reference, i);
        }
        tel.mark();
        // Wrap both rings several times over between mark and rewind.
        for i in 6..17 {
            admit(&mut tel, i);
        }
        let token = tel.begin();
        tel.end(Phase::RckkPlan, token);
        tel.rewind();
        assert_eq!(tel.recent_events(8), reference.recent_events(8));
        // Replaying the same tail twice through the same mark stays exact.
        for session in [&mut tel, &mut reference] {
            admit(session, 40);
        }
        tel.rewind();
        admit(&mut tel, 40);
        let (got, want) = (tel.finish(), reference.finish());
        assert_eq!(got, want);
        assert_eq!((got.events.len(), got.dropped_events), (4, 3));
        assert_eq!(got.events[0].seq, 3, "the most recent events survive");
        assert_eq!((got.series.len(), got.series.dropped()), (2, 5));
        assert_eq!(got.profile.total_spans(), 0, "the span was rewound");
        // A session never marked rewinds to its empty start.
        let mut fresh = Telemetry::with_capacity(4, 2);
        admit(&mut fresh, 1);
        fresh.rewind();
        assert_eq!(fresh.finish(), Telemetry::with_capacity(4, 2).finish());
    }
}
