//! The repository benchmark: two seeded batch-replay workloads of the
//! NFV control plane, timed from outside the program's public APIs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <reopt_ladder|fleet_chaos> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run (see `LAYERS.md`). Either way the
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod decisions;
mod fleet;
mod harness;
mod ladder;
mod lanes;

use std::process::ExitCode;

use harness::Outcome;

/// End-to-end metrics, `(name, unit)`, printed by every plain run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("arrival_p50_us", "us"),
    ("arrival_p99_us", "us"),
    ("tick_p50_ms", "ms"),
    ("tick_p95_ms", "ms"),
    ("loss_rate", "ratio"),
    ("mean_latency_ms", "ms"),
];

/// Per-layer metrics, `(name, unit)`, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("workload.gen_ns_per_event", "ns"),
    ("controller.ingest_ns_per_event", "ns"),
    ("controller.arrival_busy_s", "s"),
    ("controller.departure_busy_s", "s"),
    ("controller.outage_busy_s", "s"),
    ("controller.tick_busy_s", "s"),
    ("scheduling.rckk_plan_s", "s"),
    ("placement.place_delta_s", "s"),
    ("placement.emergency_replace_s", "s"),
    ("search.generation_s", "s"),
    ("controller.hysteresis_probe_s", "s"),
    ("controller.retry_drain_s", "s"),
    ("controller.tick_other_s", "s"),
    ("controller.reopt_applied_ratio", "ratio"),
    ("placement.replace_applied_ratio", "ratio"),
    ("search.refine_applied_ratio", "ratio"),
    ("controller.retry_useful_ratio", "ratio"),
    ("controller.state_bytes", "bytes"),
    ("controller.checkpoint_us", "us"),
    ("fleet.pump_s", "s"),
    ("fleet.handoff_s", "s"),
    ("fleet.finish_s", "s"),
    ("fleet.drain_busy_s", "s"),
    ("fleet.drain_critical_s", "s"),
    ("fleet.drain_imbalance", "ratio"),
    ("fleet.shard_skew", "ratio"),
    ("parallel.barrier_s", "s"),
    ("fleet.checkpoint_s", "s"),
    ("fleet.restore_s", "s"),
    ("fleet.quarantine_s", "s"),
    ("chaos.checkpoints", "count"),
    ("chaos.restores", "count"),
    ("chaos.replayed_ratio", "ratio"),
    ("telemetry.journal_bytes", "bytes"),
    ("trace_overhead_pct", "%"),
];

/// The workloads, by the names `--workload` takes.
pub const WORKLOADS: [&str; 2] = ["reopt_ladder", "fleet_chaos"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input of the run derives from.
    pub seed: u64,
    /// Wall seconds the timing loop measures.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!(
                    "unknown workload {value:?}; expected one of {WORKLOADS:?}"
                ))
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "reopt_ladder" => ladder::run(&args, &mut out),
        "fleet_chaos" => fleet::run(&args, &mut out),
        _ => unreachable!("parse_args admits only known workloads"),
    }
    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nfv_parallel::available_threads()
    );
    out.print(args.trace);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let declared = |name: &str, unit: &str| {
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                declared(name, unit),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        for workload in WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{workload}\"")),
                "{workload} missing"
            );
        }
        let names = json.matches("\"name\":").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
    }

    #[test]
    fn args_reject_unknown_input() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        assert!(parse("--workload fleet_chaos --seed 1 --seconds 2 --trace 1").is_ok());
        assert!(parse("--workload nope --seed 1 --seconds 2").is_err());
        assert!(parse("--workload fleet_chaos --seed -1 --seconds 2").is_err());
        assert!(parse("--workload fleet_chaos --seed 1 --seconds 0").is_err());
        assert!(parse("--workload fleet_chaos --seed 1 --seconds 2 --trace 2").is_err());
        assert!(parse("--workload fleet_chaos --seed 1").is_err());
    }
}
