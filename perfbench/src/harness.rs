//! The measurement discipline shared by every workload: pass loops,
//! set-up timing, percentiles, operation accounting, the layer-sum check
//! and the result line.

use std::any::Any;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::{END_TO_END, PER_LAYER};

/// Measured passes never fall below this count, however long one pass
/// takes, so every reported median has a middle.
const MIN_PASSES: usize = 3;

/// Largest negative layer residual tolerated, as a share of the traced
/// wall time (clock reads at the layer boundaries are not free).
pub const RESIDUAL_TOLERANCE: f64 = 0.01;

/// Share of replays or tenants dropped from each end before averaging
/// their mean latencies. Per-replay latencies have a heavy tail (one
/// driven near saturation reads hundreds of milliseconds), so their plain
/// mean swings with whether a seed's draw holds such a replay.
pub const LATENCY_TRIM: f64 = 0.1;

/// Operation accounting and the metrics of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Runs one operation: an `Err` or an escaped panic counts it as
    /// failed (with the reason on stderr) and yields `None`.
    pub fn attempt<T>(&mut self, what: &str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(op)) {
            Ok(Ok(value)) => Some(value),
            Ok(Err(reason)) => {
                self.fail(what, &reason);
                None
            }
            Err(payload) => {
                self.fail(what, &format!("panicked: {}", panic_text(payload.as_ref())));
                None
            }
        }
    }

    /// One untimed correctness check; a false `ok` is a failed operation.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(what, "check does not hold");
        }
    }

    fn fail(&mut self, what: &str, reason: &str) {
        self.failed += 1;
        eprintln!("FAILED {what}: {reason}");
    }

    /// Records a metric; `name` must be declared in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Records `peak_rss_mb`: the process's resident high-water mark so
    /// far. Workloads call it right after their timed loop, before the
    /// untimed checks allocate.
    pub fn high_water_mark(&mut self) {
        if let Some(mb) = self.attempt("peak rss", peak_rss_mb) {
            self.metric("peak_rss_mb", mb);
        }
    }

    /// Prints the human-readable metric table, then the result object as
    /// the last line of standard output: the end-to-end metrics for a
    /// plain run, the per-layer metrics for a traced one. A per-layer
    /// metric the workload does not exercise reads 0; a missing or
    /// non-finite end-to-end metric is a failed operation.
    pub fn print(mut self, traced: bool) {
        let declared: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                _ if traced => 0.0,
                _ => {
                    self.attempted += 1;
                    self.fail(name, "metric was not measured");
                    0.0
                }
            };
            println!("  {name:<36} {value:>18.6} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed + u64::from(self.attempted == 0),
            fields.join(", ")
        );
    }
}

fn panic_text(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_owned()
    }
}

/// Seconds elapsed since `start`.
pub fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Times the build of a workload's inputs: once before the timed loop,
/// then once between every two timed rounds, never inside a pass. The
/// median then covers the same stretch of host time as the loop, not a
/// snapshot of the host at process start.
pub struct SetupClock<F> {
    build: F,
    samples: Vec<f64>,
}

impl<T, F: FnMut() -> T> SetupClock<F> {
    /// A clock for `build`.
    pub fn new(build: F) -> Self {
        Self {
            build,
            samples: Vec::new(),
        }
    }

    /// Builds once untimed, so the allocator and caches settle, then
    /// builds and times the value the timed loop consumes.
    pub fn first(&mut self) -> T {
        drop(black_box((self.build)()));
        let start = Instant::now();
        let value = (self.build)();
        self.samples.push(since(start));
        value
    }

    /// Builds and times once more, dropping the value untimed.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let value = black_box((self.build)());
        self.samples.push(since(start));
        drop(value);
    }

    /// Median build seconds.
    pub fn median(&mut self) -> f64 {
        median(&mut self.samples)
    }
}

/// Measured passes, `(wall seconds, value)`, in the order they ran.
pub type Passes<T> = Vec<(f64, T)>;

/// Times one pass; a failed pass yields `None` and is counted in `out`.
fn timed<T>(
    out: &mut Outcome,
    what: &str,
    pass: impl FnOnce() -> Result<T, String>,
) -> (f64, Option<T>) {
    let start = Instant::now();
    let result = out.attempt(what, pass);
    (since(start), result)
}

/// Runs `pass` once to warm caches, then repeatedly until `seconds` of
/// measured wall time and at least `min_passes` passes have accumulated,
/// calling `between` untimed after each.
/// Returns `(wall seconds, value)` per successful measured pass; failed
/// passes are counted in `out` and left out.
pub fn time_passes<T>(
    out: &mut Outcome,
    what: &str,
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut() -> Result<T, String>,
    between: &mut dyn FnMut(),
) -> Passes<T> {
    let _ = out.attempt(what, &mut pass);
    let mut results = Vec::new();
    let (mut measured, mut runs) = (0.0, 0);
    while measured < seconds || runs < min_passes.max(MIN_PASSES) {
        let (wall, value) = timed(out, what, &mut pass);
        measured += wall;
        runs += 1;
        results.extend(value.map(|v| (wall, v)));
        between();
    }
    report_walls(what, &results);
    results
}

/// Like [`time_passes`], but alternates two kinds of pass (after one
/// warm-up of each) so both see the same host conditions: plain and
/// traced passes in a traced run, whose ratio prices the trace, or
/// throughput and decision-latency passes in a plain one.
pub fn time_alternating<A, B>(
    out: &mut Outcome,
    seconds: f64,
    min_rounds: usize,
    (what_a, mut a): (&str, impl FnMut() -> Result<A, String>),
    (what_b, mut b): (&str, impl FnMut() -> Result<B, String>),
    between: &mut dyn FnMut(),
) -> (Passes<A>, Passes<B>) {
    let _ = out.attempt(what_a, &mut a);
    let _ = out.attempt(what_b, &mut b);
    let (mut runs_a, mut runs_b) = (Vec::new(), Vec::new());
    let (mut measured, mut rounds) = (0.0, 0);
    while measured < seconds || rounds < min_rounds.max(MIN_PASSES) {
        let (wall, value) = timed(out, what_a, &mut a);
        measured += wall;
        runs_a.extend(value.map(|v| (wall, v)));
        let (wall, value) = timed(out, what_b, &mut b);
        measured += wall;
        runs_b.extend(value.map(|v| (wall, v)));
        rounds += 1;
        between();
    }
    report_walls(what_a, &runs_a);
    report_walls(what_b, &runs_b);
    (runs_a, runs_b)
}

/// Prints the spread of a loop's pass times to stderr.
fn report_walls<T>(what: &str, passes: &[(f64, T)]) {
    let mut walls: Vec<f64> = passes.iter().map(|(w, _)| *w).collect();
    let (lo, mid, hi) = (
        percentile(&mut walls, 0.0),
        median(&mut walls),
        percentile(&mut walls, 1.0),
    );
    eprintln!(
        "{what}: {} passes, wall min {lo:.6}s median {mid:.6}s max {hi:.6}s",
        walls.len()
    );
}

/// A pass that cycles through `sets` of inputs, one set per call,
/// handing `pass` the set's index and returning it with the value. A
/// run covers every set when it makes at least `sets.len()` passes.
pub fn cycle<'a, S, T, F>(
    sets: &'a [S],
    mut pass: F,
) -> impl FnMut() -> Result<(usize, T), String> + use<'a, S, T, F>
where
    F: FnMut(usize, &'a S) -> Result<T, String>,
{
    let mut next = 0;
    move || {
        let k = next % sets.len();
        next += 1;
        pass(k, &sets[k]).map(|value| (k, value))
    }
}

/// The whole value of each input set's first pass. Later passes of a set
/// are compared with it and dropped, so what a loop keeps for its checks
/// stays fixed however many passes run.
#[derive(Debug)]
pub struct Firsts<T> {
    values: Vec<Option<T>>,
    differed: u64,
}

impl<T: PartialEq> Firsts<T> {
    /// Nothing kept yet, for `sets` inputs.
    pub fn new(sets: usize) -> Self {
        Self {
            values: (0..sets).map(|_| None).collect(),
            differed: 0,
        }
    }

    /// Keeps `value` as set `k`'s first, or counts it when it differs
    /// from that first.
    pub fn keep(&mut self, k: usize, value: T) {
        match &self.values[k] {
            None => self.values[k] = Some(value),
            Some(first) => self.differed += u64::from(*first != value),
        }
    }

    /// Set `k`'s first value, if one ran.
    pub fn get(&self, k: usize) -> Option<&T> {
        self.values[k].as_ref()
    }

    /// Every set's first value, in set order; `None` when some set never
    /// ran successfully.
    pub fn all(&self) -> Option<Vec<&T>> {
        self.values.iter().map(Option::as_ref).collect()
    }

    /// Later passes whose value differed from their set's first.
    pub fn differed(&self) -> u64 {
        self.differed
    }
}

/// The value of the first measured pass of each set, in set order;
/// `None` when some set never ran successfully.
pub fn first_per_set<T>(passes: &[(f64, (usize, T))], sets: usize) -> Option<Vec<&T>> {
    (0..sets)
        .map(|k| {
            passes
                .iter()
                .find(|(_, (j, _))| *j == k)
                .map(|(_, (_, v))| v)
        })
        .collect()
}

/// Work per second of a run whose passes cycle through `sets`: each
/// set's work (from its first pass) over its median pass wall time,
/// summed over sets, so each set weighs by its work once however often
/// it ran. 0 when some set never ran.
pub fn per_set_rate<T>(
    passes: &[(f64, (usize, T))],
    sets: usize,
    work: impl Fn(usize, &T) -> f64,
) -> f64 {
    let (mut total_work, mut total_wall) = (0.0, 0.0);
    for k in 0..sets {
        let mut walls: Vec<f64> = passes
            .iter()
            .filter(|(_, (j, _))| *j == k)
            .map(|(w, _)| *w)
            .collect();
        let Some((_, (_, first))) = passes.iter().find(|(_, (j, _))| *j == k) else {
            return 0.0;
        };
        total_work += work(k, first);
        total_wall += median(&mut walls);
    }
    if total_wall > 0.0 {
        total_work / total_wall
    } else {
        0.0
    }
}

/// The fastest repeat of each timed unit of work. Other tenants of a
/// shared host only ever add time, and their interference comes and goes
/// within tens of milliseconds, so a short unit's fastest of several
/// repeats reads what the program takes far more steadily than a median
/// over passes, which moves with how busy the host was during the run.
#[derive(Debug)]
pub struct Fastest {
    /// `(work, fastest seconds)` per unit.
    units: Vec<(f64, f64)>,
}

impl Fastest {
    /// No unit timed yet, of `units`.
    pub fn new(units: usize) -> Self {
        Self {
            units: vec![(0.0, f64::INFINITY); units],
        }
    }

    /// Keeps one repeat of `unit`, which did `work` in `seconds`.
    pub fn keep(&mut self, unit: usize, work: f64, seconds: f64) {
        let (w, best) = &mut self.units[unit];
        *w = work;
        *best = best.min(seconds);
    }

    /// Work per second at every unit's fastest repeat; 0 when some unit
    /// never ran.
    pub fn rate(&self) -> f64 {
        let work: f64 = self.units.iter().map(|(w, _)| w).sum();
        let seconds: f64 = self.units.iter().map(|(_, s)| s).sum();
        if seconds.is_finite() && seconds > 0.0 {
            work / seconds
        } else {
            0.0
        }
    }
}

/// Borrows `passes` with each pass's wall replaced by `wall(value)`: the
/// stretch a traced pass's layer sum covers, so what a pass does after
/// that stretch (reading spans, serializing state) stays out of a rate.
pub fn rewalled<T>(
    passes: &[(f64, (usize, T))],
    wall: impl Fn(&T) -> f64,
) -> Vec<(f64, (usize, &T))> {
    passes
        .iter()
        .map(|(_, (k, v))| (wall(v), (*k, v)))
        .collect()
}

/// Median of a sample (mean of the two middle values for an even count);
/// 0 for an empty sample.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// Mean of a sample without its lowest and highest `share` each; 0 for
/// an empty sample.
pub fn trimmed_mean(values: &mut [f64], share: f64) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    let cut = (values.len() as f64 * share) as usize;
    let kept = &values[cut..values.len() - cut];
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// The `q`-quantile of a sample with linear interpolation between order
/// statistics (Hyndman–Fan type 7); 0 for an empty sample.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = q * (values.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}

/// Median over passes of one per-pass quantity.
pub fn median_of<T>(passes: &[(f64, T)], f: impl Fn(f64, &T) -> f64) -> f64 {
    let mut values: Vec<f64> = passes.iter().map(|(wall, v)| f(*wall, v)).collect();
    median(&mut values)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Process high-water resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// One traced pass's wall time split into layer self times plus a named
/// residual (whatever the layers' spans do not cover).
#[derive(Debug, Clone)]
pub struct LayerSum {
    /// Wall time of the traced pass, measured around the whole call.
    pub wall: f64,
    /// `(layer, self seconds)` rows; no row's interval overlaps another's.
    pub rows: Vec<(&'static str, f64)>,
    /// What the residual row stands for.
    pub residual: &'static str,
}

impl LayerSum {
    /// Wall time the rows do not cover.
    pub fn residual_seconds(&self) -> f64 {
        self.wall - self.rows.iter().map(|(_, s)| s).sum::<f64>()
    }

    /// Whether the rows fit inside the wall time: a residual more
    /// negative than [`RESIDUAL_TOLERANCE`] of the wall means some layer
    /// was counted twice.
    pub fn reconstructs(&self) -> bool {
        self.residual_seconds() >= -RESIDUAL_TOLERANCE * self.wall
    }

    /// Prints the table: self time, share of wall, and the residual row,
    /// which together sum to the wall time exactly.
    pub fn print(&self, title: &str, trace_overhead_pct: f64) {
        println!("layer sum ({title}), median traced pass:");
        let share = |s: f64| {
            if self.wall > 0.0 {
                100.0 * s / self.wall
            } else {
                0.0
            }
        };
        for (name, seconds) in &self.rows {
            println!(
                "  {name:<36} {:>12.3} ms {:>6.2}%",
                seconds * 1e3,
                share(*seconds)
            );
        }
        let residual = self.residual_seconds();
        let label = format!("residual: {}", self.residual);
        println!(
            "  {label:<36} {:>12.3} ms {:>6.2}%",
            residual * 1e3,
            share(residual)
        );
        println!(
            "  {:<36} {:>12.3} ms (trace overhead {trace_overhead_pct:.2}%)",
            "traced wall",
            self.wall * 1e3
        );
    }
}

/// The traced pass whose wall time is the median of the traced passes —
/// a real pass, so its rows still sum to its own wall.
pub fn median_pass<T>(passes: &[(f64, T)]) -> Option<&T> {
    let mut order: Vec<usize> = (0..passes.len()).collect();
    order.sort_by(|&a, &b| passes[a].0.total_cmp(&passes[b].0));
    order.get(order.len() / 2).map(|&i| &passes[i].1)
}

/// `plain / traced − 1` events-per-second, as a percentage: what
/// tracing costs.
pub fn overhead_pct(plain_events_per_s: f64, traced_events_per_s: f64) -> f64 {
    if traced_events_per_s > 0.0 {
        100.0 * (plain_events_per_s / traced_events_per_s - 1.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_rates_every_unit_at_its_fastest_repeat() {
        let mut fastest = Fastest::new(2);
        fastest.keep(0, 10.0, 2.0);
        assert_eq!(fastest.rate(), 0.0, "unit 1 never ran");
        fastest.keep(1, 30.0, 4.0);
        fastest.keep(0, 10.0, 1.0);
        fastest.keep(1, 30.0, 5.0);
        assert_eq!(fastest.rate(), 40.0 / 5.0);
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let mut v = [1000.0, 2.0, 1.0, 3.0, 4.0, -500.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(trimmed_mean(&mut v, 0.1), 4.5);
        assert_eq!(trimmed_mean(&mut [], 0.1), 0.0);
    }
}
