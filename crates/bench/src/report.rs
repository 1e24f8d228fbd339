//! The `BENCH_pipeline.json` report: a typed schema over the workspace's
//! one JSON codec ([`nfv_telemetry::json`]).
//!
//! The bench pipeline's output is consumed by `ci.sh` (the overhead and
//! throughput gates) and by humans diffing committed runs — so the shape
//! is a contract worth round-tripping. [`BenchReport::to_json`] builds a
//! [`Json`] tree and writes it in the codec's pretty layout, the one the
//! `figures bench` command commits; [`BenchReport::from_json`] parses it
//! back (tolerating arbitrary field order and whitespace) through the
//! codec's field reader, which refuses unknown fields.

use std::fmt;

use nfv_telemetry::json::{Fields, Json, JsonError};

/// Everything `figures bench` measures, in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Worker threads the host offers.
    pub host_threads: u64,
    /// Threads the parallel pass ran with.
    pub bench_threads: u64,
    /// Repetitions per placement experiment.
    pub reps_placement: u64,
    /// Repetitions per scheduling experiment.
    pub reps_scheduling: u64,
    /// Base seed of the run.
    pub seed: u64,
    /// Metaheuristic search throughput and quality.
    pub search: SearchReport,
    /// Telemetry overhead of the instrumented replay.
    pub telemetry: TelemetryReport,
    /// Replay-engine throughput on the streamed million-event trace.
    pub replay: ReplayReport,
    /// Sharded multi-tenant fleet throughput, one entry per fleet size.
    pub fleet: Vec<FleetPointBench>,
    /// Crash-recovery throughput under the seeded chaos plan.
    pub recovery: RecoveryBench,
    /// Observability-plane overhead on the fleet loop.
    pub obs: ObsBench,
    /// Wall-clock per figure, serial and parallel.
    pub figures: Vec<FigureTiming>,
    /// Sum of the serial figure timings, seconds.
    pub total_serial_seconds: f64,
    /// Sum of the parallel figure timings; `None` when the parallel pass
    /// was skipped on a single-core host.
    pub total_parallel_seconds: Option<f64>,
}

/// GA search throughput and quality vs the greedy placer.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// Search engine name (`ga`).
    pub engine: String,
    /// Population size.
    pub population: u64,
    /// Generations run per measurement.
    pub generations: u64,
    /// Generations per wall-clock second at one thread.
    pub generations_per_second: f64,
    /// Best objective the search reached.
    pub best_objective: f64,
    /// BFDSU's objective on the same problem; `None` if BFDSU failed.
    pub bfdsu_objective: Option<f64>,
    /// `best_objective - bfdsu_objective`; `None` if BFDSU failed.
    pub objective_delta_vs_bfdsu: Option<f64>,
}

/// Telemetry-layer overhead on the churn replay.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// How many back-to-back replays constitute one timed measurement —
    /// scaled until the plain measurement clears the floor below.
    pub replay_reps: u64,
    /// Minimum seconds a timed measurement must span to be trusted; the
    /// workload is repeated until the plain path reaches it.
    pub measurement_floor_seconds: f64,
    /// Fastest plain (untraced) measurement, seconds.
    pub replay_plain_seconds: f64,
    /// Fastest measurement through the traced path with a disabled
    /// session, seconds.
    pub replay_disabled_seconds: f64,
    /// Fastest measurement with an enabled session, seconds.
    pub replay_enabled_seconds: f64,
    /// `(disabled - plain) / plain`, percent — the price of the
    /// telemetry layer existing; gated by `ci.sh`.
    pub disabled_overhead_pct: f64,
    /// `(enabled - plain) / plain`, percent.
    pub enabled_overhead_pct: f64,
}

/// Replay-engine throughput on the streamed trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Total events in the streamed trace.
    pub events: u64,
    /// Virtual-time horizon of the trace, seconds.
    pub horizon_seconds: f64,
    /// Fastest exact per-event replay, wall-clock seconds.
    pub streamed_seconds: f64,
    /// Fastest batched replay, wall-clock seconds.
    pub batched_seconds: f64,
    /// Events per second through the exact per-event path.
    pub streamed_events_per_second: f64,
    /// Events per second through the batched path — the headline figure,
    /// gated by `ci.sh` against regression.
    pub events_per_second: f64,
    /// Requests the batched replay admitted.
    pub admitted: u64,
    /// Requests the batched replay rejected.
    pub rejected: u64,
}

/// One fleet size's sharded-loop throughput and rebalance accounting.
///
/// Events, migrations and latency are virtual-clock counters (identical
/// at any thread count); only `seconds` and `events_per_second` are
/// wall-clock measurements. The largest point's `events_per_second` is
/// gated by `ci.sh` against the committed figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPointBench {
    /// Tenant controllers in the fleet.
    pub tenants: u64,
    /// Shards the tenants were split over.
    pub shards: u64,
    /// Trace events the fleet processed across all shards.
    pub events: u64,
    /// Fastest wall-clock run of the whole fleet loop, seconds.
    pub seconds: f64,
    /// `events / seconds` — the fleet's throughput headline.
    pub events_per_second: f64,
    /// Completed cross-shard migrations.
    pub migrations: u64,
    /// Requests + queued retries carried across shards, summed over all
    /// migrations.
    pub migration_cost: u64,
    /// Mean virtual seconds a migrating tenant spent in transit.
    pub mean_rebalance_latency_seconds: f64,
}

/// Crash recovery measured on the chaos fleet point: the same fleet run
/// undisturbed and disturbed by a seeded plan of recoverable faults
/// (worker panics, tenant crashes, channel drops/dups, state
/// corruption), repaired through epoch checkpoints + event replay.
///
/// Counters and `byte_identical` are deterministic; only the wall-clock
/// fields vary. `faulted_events_per_second` — throughput *with* the
/// checkpoint/recovery machinery doing real work — is gated by `ci.sh`
/// relative to the undisturbed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryBench {
    /// Per-epoch fault rate of the seeded plan.
    pub fault_rate: f64,
    /// Faults that actually fired during the run.
    pub faults_injected: u64,
    /// Tenant checkpoints taken at faulted epoch starts.
    pub checkpoints: u64,
    /// Restores performed (whole-shard + per-tenant).
    pub restores: u64,
    /// Events replayed from logs to catch restored tenants up.
    pub events_replayed: u64,
    /// Fraction of tenant-epochs that ran without needing recovery.
    pub availability: f64,
    /// Whether the recovered run matched the undisturbed run byte for
    /// byte (report, epoch records, tenant reports, merged journal).
    pub byte_identical: bool,
    /// Fastest undisturbed wall-clock run, seconds.
    pub undisturbed_seconds: f64,
    /// Fastest faulted-and-recovered wall-clock run, seconds.
    pub faulted_seconds: f64,
    /// Events per second of the faulted run (replays excluded from the
    /// event count: the numerator is the same work the undisturbed run
    /// does, so the two throughputs compare like for like).
    pub faulted_events_per_second: f64,
    /// `(faulted - undisturbed) / undisturbed`, percent — the wall-clock
    /// price of checkpoints, supervised drains, and replay.
    pub recovery_overhead_pct: f64,
}

/// Observability-plane overhead: the same fleet point run with the
/// plane disabled (`plain`) and enabled — spans, registry, percentiles,
/// flight recorder all on. `registry_metrics` and `slo_violations` are
/// deterministic anchors; the wall-clock pair prices the plane, and
/// `ci.sh` gates `enabled_overhead_pct` at ≤ 5%. The section is flat on
/// purpose: `ci.sh` extracts fields with a line-oriented `sed` range.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsBench {
    /// Tenant controllers in the measured fleet point.
    pub tenants: u64,
    /// Shards the tenants were split over.
    pub shards: u64,
    /// Back-to-back fleet runs per timed measurement — scaled until the
    /// plain measurement clears the telemetry section's floor.
    pub reps: u64,
    /// Trace events one fleet run processes.
    pub events: u64,
    /// Fastest measurement with the plane disabled, seconds.
    pub plain_seconds: f64,
    /// Fastest measurement with the plane enabled, seconds.
    pub enabled_seconds: f64,
    /// Events per second with the plane disabled (one run's events over
    /// the per-run wall-clock).
    pub plain_events_per_second: f64,
    /// Events per second with the plane enabled.
    pub enabled_events_per_second: f64,
    /// Median of the per-round `enabled / plain` batch-time ratios
    /// (batches alternate, so both sides of each ratio see the same host
    /// load), minus one, in percent — gated by `ci.sh`.
    pub enabled_overhead_pct: f64,
    /// Metrics in the enabled run's merged registry.
    pub registry_metrics: u64,
    /// Tenant-tick SLO breaches the enabled run counted.
    pub slo_violations: u64,
}

/// One figure's wall-clock timings.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureTiming {
    /// Figure command name (`fig5` … `ablation`).
    pub name: String,
    /// Seconds at one thread.
    pub serial_seconds: f64,
    /// Seconds at the configured thread count; `None` when the parallel
    /// pass was skipped.
    pub parallel_seconds: Option<f64>,
}

/// Why a report failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportError {
    /// What went wrong, with enough context to find the spot.
    pub reason: String,
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bench report parse error: {}", self.reason)
    }
}

impl std::error::Error for ReportError {}

impl From<JsonError> for ReportError {
    fn from(error: JsonError) -> Self {
        Self {
            reason: error.to_string(),
        }
    }
}

impl BenchReport {
    /// Renders the report as the committed `BENCH_pipeline.json` layout.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_tree().to_pretty()
    }

    /// Parses a report back from its JSON form. Field order and
    /// whitespace are free; unknown fields are rejected so schema drift
    /// fails loudly instead of silently dropping data.
    ///
    /// # Errors
    ///
    /// Returns a [`ReportError`] naming the malformed, missing or unknown
    /// field.
    pub fn from_json(text: &str) -> Result<Self, ReportError> {
        Ok(Json::parse(text)?.fields()?.decode(Section::from_tree)?)
    }
}

/// One object of the report, written as a [`Json`] tree and read back
/// through a [`Fields`] reader that refuses fields it was not asked for.
trait Section: Sized {
    fn to_tree(&self) -> Json;
    fn from_tree(fields: &mut Fields<'_>) -> Result<Self, JsonError>;
}

/// Implements [`Section`] from one list of a struct's fields, in file
/// order, each tagged with how the layout prints it: `u64` exactly,
/// `f6`/`f3` at 6/3 decimals (seconds and ratios / rates and percents),
/// `opt6` as `f6` or `null`, `bool`, `str`, a nested `section`, or a
/// `list` of sections (one line per element).
macro_rules! section {
    ($ty:ident { $($field:ident: $kind:ident),* $(,)? }) => {
        impl Section for $ty {
            fn to_tree(&self) -> Json {
                Json::object([$((stringify!($field), section!(@write $kind, &self.$field))),*])
            }

            fn from_tree(fields: &mut Fields<'_>) -> Result<Self, JsonError> {
                Ok(Self { $($field: section!(@read $kind, fields, stringify!($field))),* })
            }
        }
    };
    (@write u64, $v:expr) => { Json::u64(*$v) };
    (@write f6, $v:expr) => { Json::fixed(*$v, 6) };
    (@write f3, $v:expr) => { Json::fixed(*$v, 3) };
    (@write opt6, $v:expr) => { $v.map_or(Json::Null, |v| Json::fixed(v, 6)) };
    (@write bool, $v:expr) => { Json::Bool(*$v) };
    (@write str, $v:expr) => { Json::String($v.clone()) };
    (@write section, $v:expr) => { $v.to_tree() };
    (@write list, $v:expr) => { Json::Array($v.iter().map(Section::to_tree).collect()) };
    (@read u64, $f:ident, $key:expr) => { $f.uint($key)? };
    (@read f6, $f:ident, $key:expr) => { $f.f64($key)? };
    (@read f3, $f:ident, $key:expr) => { $f.f64($key)? };
    (@read opt6, $f:ident, $key:expr) => { $f.nullable_f64($key)? };
    (@read bool, $f:ident, $key:expr) => { $f.bool($key)? };
    (@read str, $f:ident, $key:expr) => { $f.str($key)?.to_owned() };
    (@read section, $f:ident, $key:expr) => { $f.child($key)?.decode(Section::from_tree)? };
    (@read list, $f:ident, $key:expr) => {
        $f.array($key)?
            .into_iter()
            .map(|item| item.decode(Section::from_tree))
            .collect::<Result<_, _>>()?
    };
}

section!(BenchReport {
    host_threads: u64,
    bench_threads: u64,
    reps_placement: u64,
    reps_scheduling: u64,
    seed: u64,
    search: section,
    telemetry: section,
    replay: section,
    fleet: list,
    recovery: section,
    obs: section,
    figures: list,
    total_serial_seconds: f6,
    total_parallel_seconds: opt6,
});

section!(SearchReport {
    engine: str,
    population: u64,
    generations: u64,
    generations_per_second: f3,
    best_objective: f6,
    bfdsu_objective: opt6,
    objective_delta_vs_bfdsu: opt6,
});

section!(TelemetryReport {
    replay_reps: u64,
    measurement_floor_seconds: f6,
    replay_plain_seconds: f6,
    replay_disabled_seconds: f6,
    replay_enabled_seconds: f6,
    disabled_overhead_pct: f3,
    enabled_overhead_pct: f3,
});

section!(ReplayReport {
    events: u64,
    horizon_seconds: f6,
    streamed_seconds: f6,
    batched_seconds: f6,
    streamed_events_per_second: f3,
    events_per_second: f3,
    admitted: u64,
    rejected: u64,
});

section!(FleetPointBench {
    tenants: u64,
    shards: u64,
    events: u64,
    seconds: f6,
    events_per_second: f3,
    migrations: u64,
    migration_cost: u64,
    mean_rebalance_latency_seconds: f6,
});

section!(RecoveryBench {
    fault_rate: f3,
    faults_injected: u64,
    checkpoints: u64,
    restores: u64,
    events_replayed: u64,
    availability: f6,
    byte_identical: bool,
    undisturbed_seconds: f6,
    faulted_seconds: f6,
    faulted_events_per_second: f3,
    recovery_overhead_pct: f3,
});

section!(ObsBench {
    tenants: u64,
    shards: u64,
    reps: u64,
    events: u64,
    plain_seconds: f6,
    enabled_seconds: f6,
    plain_events_per_second: f3,
    enabled_events_per_second: f3,
    enabled_overhead_pct: f3,
    registry_metrics: u64,
    slo_violations: u64,
});

section!(FigureTiming {
    name: str,
    serial_seconds: f6,
    parallel_seconds: opt6,
});

#[cfg(test)]
mod tests {
    use super::*;

    /// A report whose floats are exactly representable at the printed
    /// precision, so serialization loses nothing.
    fn sample(parallel: bool) -> BenchReport {
        BenchReport {
            host_threads: 8,
            bench_threads: 8,
            reps_placement: 10,
            reps_scheduling: 200,
            seed: 42,
            search: SearchReport {
                engine: "ga".to_owned(),
                population: 32,
                generations: 20,
                generations_per_second: 123.5,
                best_objective: -4.25,
                bfdsu_objective: parallel.then_some(-4.5),
                objective_delta_vs_bfdsu: parallel.then_some(0.25),
            },
            telemetry: TelemetryReport {
                replay_reps: 16,
                measurement_floor_seconds: 0.25,
                replay_plain_seconds: 0.5,
                replay_disabled_seconds: 0.5,
                replay_enabled_seconds: 0.75,
                disabled_overhead_pct: 0.0,
                enabled_overhead_pct: 50.0,
            },
            replay: ReplayReport {
                events: 1_040_273,
                horizon_seconds: 200.0,
                streamed_seconds: 0.5,
                batched_seconds: 0.375,
                streamed_events_per_second: 2_000_000.0,
                events_per_second: 2_750_000.0,
                admitted: 520_063,
                rejected: 0,
            },
            fleet: vec![
                FleetPointBench {
                    tenants: 8,
                    shards: 2,
                    events: 1_024,
                    seconds: 0.125,
                    events_per_second: 8_192.0,
                    migrations: 3,
                    migration_cost: 12,
                    mean_rebalance_latency_seconds: 6.0,
                },
                FleetPointBench {
                    tenants: 256,
                    shards: 16,
                    events: 32_768,
                    seconds: 0.5,
                    events_per_second: 65_536.0,
                    migrations: 4,
                    migration_cost: 18,
                    mean_rebalance_latency_seconds: 6.0,
                },
            ],
            recovery: RecoveryBench {
                fault_rate: 0.25,
                faults_injected: 9,
                checkpoints: 24,
                restores: 7,
                events_replayed: 96,
                availability: 0.875,
                byte_identical: true,
                undisturbed_seconds: 0.125,
                faulted_seconds: 0.25,
                faulted_events_per_second: 4_096.0,
                recovery_overhead_pct: 100.0,
            },
            obs: ObsBench {
                tenants: 256,
                shards: 16,
                reps: 32,
                events: 32_768,
                plain_seconds: 0.25,
                enabled_seconds: 0.375,
                plain_events_per_second: 131_072.0,
                enabled_events_per_second: 87_381.25,
                enabled_overhead_pct: 50.0,
                registry_metrics: 300,
                slo_violations: 12,
            },
            figures: vec![
                FigureTiming {
                    name: "fig5".to_owned(),
                    serial_seconds: 1.5,
                    parallel_seconds: parallel.then_some(0.5),
                },
                FigureTiming {
                    name: "churn".to_owned(),
                    serial_seconds: 2.25,
                    parallel_seconds: parallel.then_some(0.75),
                },
            ],
            total_serial_seconds: 3.75,
            total_parallel_seconds: parallel.then_some(1.25),
        }
    }

    #[test]
    fn report_round_trips_with_parallel_pass() {
        let report = sample(true);
        assert_eq!(BenchReport::from_json(&report.to_json()), Ok(report));
    }

    #[test]
    fn report_round_trips_with_null_parallel_fields() {
        let report = sample(false);
        let json = report.to_json();
        assert!(json.contains("\"parallel_seconds\": null"));
        assert!(json.contains("\"total_parallel_seconds\": null"));
        assert_eq!(BenchReport::from_json(&json), Ok(report));
    }

    #[test]
    fn parser_tolerates_field_reordering_and_whitespace() {
        let report = sample(true);
        let json = report.to_json();
        // Move `seed` to the end of the root object (field order is not
        // part of the contract) and strip pretty-printing.
        let reordered = json
            .replace("  \"seed\": 42,\n", "")
            .replace(
                "\"total_parallel_seconds\": 1.250000",
                "\"total_parallel_seconds\": 1.250000, \"seed\": 42",
            )
            .replace('\n', "");
        assert_eq!(BenchReport::from_json(&reordered), Ok(report));
    }

    #[test]
    fn unknown_and_missing_fields_are_rejected() {
        let report = sample(true);
        let json = report.to_json();
        let extra = json.replace("\"seed\": 42", "\"seed\": 42, \"surprise\": 1");
        assert!(BenchReport::from_json(&extra)
            .unwrap_err()
            .reason
            .contains("surprise"));
        let missing = json.replace("  \"seed\": 42,\n", "");
        assert!(BenchReport::from_json(&missing)
            .unwrap_err()
            .reason
            .contains("seed"));
    }

    #[test]
    fn fleet_section_round_trips_and_rejects_drift() {
        let report = sample(true);
        let json = report.to_json();
        assert!(json.contains("\"fleet\": ["));
        assert_eq!(BenchReport::from_json(&json).unwrap().fleet, report.fleet);
        // An empty fleet array is valid (old-style runs), but a fleet
        // entry with an unknown field is schema drift.
        let empty = {
            let mut r = report.clone();
            r.fleet.clear();
            r
        };
        assert_eq!(BenchReport::from_json(&empty.to_json()), Ok(empty));
        let drifted = json.replace("\"tenants\": 8,", "\"tenants\": 8, \"oops\": 1,");
        assert!(BenchReport::from_json(&drifted)
            .unwrap_err()
            .reason
            .contains("oops"));
        let missing = json.replace("  \"fleet\": [\n", "  \"fleet_\": [\n");
        assert!(BenchReport::from_json(&missing).is_err());
    }

    #[test]
    fn recovery_section_round_trips_and_rejects_drift() {
        let report = sample(true);
        let json = report.to_json();
        assert!(json.contains("\"recovery\": {"));
        assert!(json.contains("\"byte_identical\": true"));
        assert_eq!(
            BenchReport::from_json(&json).unwrap().recovery,
            report.recovery
        );
        let flipped = json.replace("\"byte_identical\": true", "\"byte_identical\": false");
        assert!(
            !BenchReport::from_json(&flipped)
                .unwrap()
                .recovery
                .byte_identical
        );
        let drifted = json.replace(
            "\"fault_rate\": 0.250,",
            "\"fault_rate\": 0.250, \"extra\": 1,",
        );
        assert!(BenchReport::from_json(&drifted)
            .unwrap_err()
            .reason
            .contains("extra"));
        let not_bool = json.replace("\"byte_identical\": true", "\"byte_identical\": 1");
        assert!(BenchReport::from_json(&not_bool)
            .unwrap_err()
            .reason
            .contains("byte_identical"));
    }

    #[test]
    fn obs_section_round_trips_and_rejects_drift() {
        let report = sample(true);
        let json = report.to_json();
        assert!(json.contains("\"obs\": {"));
        assert_eq!(BenchReport::from_json(&json).unwrap().obs, report.obs);
        // The section is flat: no nested objects, so the ci.sh sed-range
        // extraction sees one `"key": value` pair per line.
        let section = json
            .split("\"obs\": {")
            .nth(1)
            .and_then(|rest| rest.split('}').next())
            .unwrap();
        assert!(!section.contains('{'), "obs section must stay flat");
        let drifted = json.replace(
            "\"enabled_overhead_pct\": 50.000,",
            "\"enabled_overhead_pct\": 50.000, \"bonus\": 1,",
        );
        assert!(BenchReport::from_json(&drifted)
            .unwrap_err()
            .reason
            .contains("bonus"));
        let missing = json.replace("  \"obs\": {", "  \"obs_\": {");
        assert!(BenchReport::from_json(&missing).is_err());
    }

    #[test]
    fn malformed_json_is_rejected_not_panicked() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "{\"a\": 1} trailing",
            "{\"a\": \"unterminated",
            "[1, 2",
            "{\"a\": 01x}",
        ] {
            assert!(BenchReport::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn awkward_names_are_escaped_and_round_trip() {
        let mut report = sample(true);
        report.search.engine = "g\"a\\\n".to_owned();
        report.figures[0].name = "fig \"5\"\tC:\\runs\n".to_owned();
        let json = report.to_json();
        assert!(json.contains(r#""engine": "g\"a\\\n""#), "{json}");
        assert_eq!(BenchReport::from_json(&json), Ok(report));
    }

    #[test]
    fn integers_above_2_pow_53_round_trip_exactly() {
        for seed in [(1u64 << 53) + 1, u64::MAX] {
            let mut report = sample(false);
            report.seed = seed;
            report.replay.events = seed;
            let json = report.to_json();
            assert!(json.contains(&format!("\"seed\": {seed},")));
            assert_eq!(BenchReport::from_json(&json), Ok(report));
        }
    }

    #[test]
    fn committed_bench_file_round_trips_byte_for_byte() {
        // Pins the layout `ci.sh` reads with `sed`/`grep`: one field per
        // line, fleet and figure entries inline.
        let committed = include_str!("../../../BENCH_pipeline.json");
        let report = BenchReport::from_json(committed).unwrap();
        assert_eq!(report.to_json(), committed);
    }
}
