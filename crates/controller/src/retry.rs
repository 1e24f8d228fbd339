//! The retry/backoff admission queue: refused arrivals wait here for
//! another chance.
//!
//! Everything is virtual-time and seeded. The backoff delay of attempt
//! `n` is `min(base · factor^n, max) · (1 + jitter · (2u − 1))` with `u`
//! a deterministic uniform draw hashed from `(seed, request id, n)` — no
//! ambient randomness, so same-seed runs re-offer at bit-identical times
//! regardless of thread count.

use nfv_model::{Request, VnfId};

use crate::wheel::TimerWheel;
use crate::RetryConfig;

#[derive(Debug, Clone, PartialEq)]
struct Entry {
    attempt: u32,
    request: Request,
}

/// Why [`RetryQueue::schedule`] refused an entrant. The request is then
/// abandoned for good.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum RetryRefusal {
    /// The request already burned through `max_attempts` re-offers.
    BudgetExhausted,
    /// The queue already holds `max_queue` pending re-offers.
    QueueFull,
    /// The computed due time was not a non-negative finite number, so it
    /// cannot be ordered by the queue's `to_bits` key (see the module
    /// docs). Only reachable through a pathological [`RetryConfig`]
    /// (e.g. an infinite backoff or a `now` already at infinity) — but
    /// refused with a typed error rather than silently mis-ordered.
    InvalidDueTime {
        /// The unorderable due time.
        due: f64,
    },
}

impl RetryRefusal {
    /// A short stable slug for journals (`budget-exhausted`,
    /// `queue-full`, `invalid-due-time`).
    #[must_use]
    pub fn slug(&self) -> &'static str {
        match self {
            Self::BudgetExhausted => "budget-exhausted",
            Self::QueueFull => "queue-full",
            Self::InvalidDueTime { .. } => "invalid-due-time",
        }
    }
}

impl std::fmt::Display for RetryRefusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BudgetExhausted => write!(f, "retry budget exhausted"),
            Self::QueueFull => write!(f, "retry queue full"),
            Self::InvalidDueTime { due } => write!(f, "unorderable retry due time {due}"),
        }
    }
}

impl std::error::Error for RetryRefusal {}

/// A virtual-time priority queue of pending re-offers, ordered by due
/// time (enqueue order breaks exact ties).
///
/// Keys are `(due_time.to_bits(), sequence)`: for **non-negative finite**
/// times the IEEE-754 bit pattern orders exactly like the number, which
/// keeps the order total without any float comparator. The edge cases of
/// `to_bits` ordering are exactly the values outside that domain, and
/// [`RetryQueue::schedule`] rejects them with
/// [`RetryRefusal::InvalidDueTime`] instead of silently mis-ordering:
///
/// - negative values (including `-0.0`) have the sign bit set, so their
///   bit patterns sort *above* every non-negative time — `-1.0` would
///   pop after `1e300`;
/// - `NaN` bit patterns sort above `+inf` and would never become due,
///   leaking the entry (and its queue slot) forever.
///
/// `-0.0` on its own would merely order late, but normalizing it to
/// `+0.0` would be a silent repair of a nonsensical backoff; it is
/// refused with the other negatives.
///
/// The keyed entries live in a hierarchical [`TimerWheel`] rather than
/// the original flat `BTreeMap`, so the per-event "anything due yet?"
/// probe no longer descends the whole pending set. The pop order is
/// bit-identical to the map's — see the wheel's ordering contract and
/// the `wheel_matches_btree_oracle` property below, which keeps the old
/// `BTreeMap` implementation around as the equivalence oracle.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct RetryQueue {
    wheel: TimerWheel<Entry>,
    seq: u64,
}

impl RetryQueue {
    /// Number of requests waiting for a re-offer.
    pub(crate) fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Enqueues a re-offer of `request` as attempt number `attempt`
    /// (0-based), due one backoff delay after `now`, and returns the due
    /// time.
    ///
    /// # Errors
    ///
    /// [`RetryRefusal`] — without enqueuing — when the retry budget is
    /// exhausted, the queue is full, or the due time falls outside the
    /// non-negative finite domain the `to_bits` ordering is valid for;
    /// the request is then abandoned for good.
    pub(crate) fn schedule(
        &mut self,
        config: &RetryConfig,
        request: Request,
        attempt: u32,
        now: f64,
    ) -> Result<f64, RetryRefusal> {
        if attempt >= config.max_attempts {
            return Err(RetryRefusal::BudgetExhausted);
        }
        if self.wheel.len() >= config.max_queue {
            return Err(RetryRefusal::QueueFull);
        }
        let due = now + backoff_delay(config, request.id().as_usize() as u64, attempt);
        if !due.is_finite() || due.is_sign_negative() {
            return Err(RetryRefusal::InvalidDueTime { due });
        }
        let key = (due.to_bits(), self.seq);
        self.seq += 1;
        self.wheel.insert(key, Entry { attempt, request });
        Ok(due)
    }

    /// Removes and returns the earliest entry due at or before `upto` as
    /// `(due_time, attempt, request)`, or `None` when nothing is due yet.
    pub(crate) fn pop_due(&mut self, upto: f64) -> Option<(f64, u32, Request)> {
        let ((bits, _), entry) = self.wheel.pop_due(upto)?;
        Some((f64::from_bits(bits), entry.attempt, entry.request))
    }

    /// Exports the queue's entries into `out` in key order as
    /// `(due_bits, entry_seq, attempt, request)` — the snapshot shape —
    /// and returns the next sequence number. [`RetryQueue::import`] of
    /// this export rebuilds a queue with bit-identical pop order and
    /// future key assignment.
    pub(crate) fn export_into(&self, out: &mut Vec<(u64, u64, u32, Request)>) -> u64 {
        out.clear();
        out.extend(
            self.wheel
                .entries_sorted()
                .into_iter()
                .map(|(&(bits, seq), entry)| (bits, seq, entry.attempt, entry.request.clone())),
        );
        self.seq
    }

    #[cfg(test)]
    fn export(&self) -> (u64, Vec<(u64, u64, u32, Request)>) {
        let mut entries = Vec::new();
        (self.export_into(&mut entries), entries)
    }

    /// Overwrites the queue with an [`export_into`] export, reusing its
    /// buffers: entries are re-inserted in the given (key) order,
    /// preserving pop order bit-exactly, and the sequence counter resumes
    /// where the exported queue left off.
    ///
    /// [`export_into`]: RetryQueue::export_into
    pub(crate) fn import(&mut self, seq: u64, entries: &[(u64, u64, u32, Request)]) {
        self.wheel.clear();
        for (bits, entry_seq, attempt, request) in entries {
            let entry = Entry {
                attempt: *attempt,
                request: request.clone(),
            };
            self.wheel.insert((*bits, *entry_seq), entry);
        }
        self.seq = seq;
    }

    /// Total loss-inflated rate of the queued requests whose chain
    /// traverses `vnf` — backlog the re-placement targets provision for,
    /// since this traffic re-offers as soon as capacity returns. Summed
    /// in key order so the f64 fold is bit-identical to the flat map's.
    pub(crate) fn pending_rate(&self, vnf: VnfId) -> f64 {
        self.wheel
            .values_sorted()
            .into_iter()
            .filter(|e| e.request.uses(vnf))
            .map(|e| e.request.effective_rate().value())
            .sum()
    }
}

/// The (jittered) backoff delay of the 0-based `attempt` for request
/// `id`.
fn backoff_delay(config: &RetryConfig, id: u64, attempt: u32) -> f64 {
    let exponent = i32::try_from(attempt).unwrap_or(i32::MAX);
    let base = (config.base_backoff * config.factor.powi(exponent)).min(config.max_backoff);
    let u = unit_hash(
        config
            .seed
            .wrapping_add(id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(u64::from(attempt)),
    );
    base * (1.0 + config.jitter * (2.0 * u - 1.0))
}

/// SplitMix64 finalizer mapped to a uniform draw in `[0, 1)`.
fn unit_hash(mut x: u64) -> f64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_model::{ArrivalRate, DeliveryProbability, RequestId, ServiceChain};

    fn request(id: u32) -> Request {
        Request::new(
            RequestId::new(id),
            ServiceChain::single(VnfId::new(0)),
            ArrivalRate::new(1.0).unwrap(),
            DeliveryProbability::PERFECT,
        )
    }

    fn config() -> RetryConfig {
        RetryConfig::bounded()
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let c = RetryConfig {
            jitter: 0.0,
            ..config()
        };
        let d0 = backoff_delay(&c, 1, 0);
        let d1 = backoff_delay(&c, 1, 1);
        let d2 = backoff_delay(&c, 1, 2);
        assert!((d0 - c.base_backoff).abs() < 1e-12);
        assert!((d1 - c.base_backoff * c.factor).abs() < 1e-12);
        assert!((d2 - c.base_backoff * c.factor * c.factor).abs() < 1e-12);
        let late = backoff_delay(&c, 1, 30);
        assert!((late - c.max_backoff).abs() < 1e-12, "delay saturates");
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let c = config();
        for id in 0..50u64 {
            for attempt in 0..4u32 {
                let d = backoff_delay(&c, id, attempt);
                let nominal = (c.base_backoff * c.factor.powi(attempt as i32)).min(c.max_backoff);
                assert!(d >= nominal * (1.0 - c.jitter) - 1e-12);
                assert!(d <= nominal * (1.0 + c.jitter) + 1e-12);
                assert_eq!(d, backoff_delay(&c, id, attempt), "pure function");
            }
        }
        // Different requests jitter differently (with overwhelming
        // probability for any sane hash).
        assert_ne!(backoff_delay(&c, 1, 0), backoff_delay(&c, 2, 0));
    }

    #[test]
    fn export_import_round_trips_pop_order_and_seq() {
        let c = config();
        let mut q = RetryQueue::default();
        for id in 0..20u32 {
            let _ = q.schedule(&c, request(id), id % 3, f64::from(id) * 0.7);
        }
        let (seq, entries) = q.export();
        let mut rebuilt = RetryQueue::default();
        rebuilt.import(seq, &entries);
        assert_eq!(rebuilt.export(), q.export());
        assert_eq!(rebuilt.len(), q.len());
        // Future scheduling continues from the same sequence counter and
        // the pending sets pop identically.
        let _ = q.schedule(&c, request(99), 0, 50.0);
        let _ = rebuilt.schedule(&c, request(99), 0, 50.0);
        loop {
            let (a, b) = (q.pop_due(1e9), rebuilt.pop_due(1e9));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pop_due_returns_entries_in_due_order() {
        let c = RetryConfig {
            jitter: 0.0,
            ..config()
        };
        let mut q = RetryQueue::default();
        // Attempt 1 (4 s) scheduled before attempt 0 (2 s): the earlier
        // due time still pops first.
        assert_eq!(q.schedule(&c, request(1), 1, 0.0), Ok(4.0));
        assert_eq!(q.schedule(&c, request(2), 0, 0.0), Ok(2.0));
        assert_eq!(q.len(), 2);
        assert!(q.pop_due(1.0).is_none(), "nothing due yet");
        let (due, attempt, r) = q.pop_due(10.0).unwrap();
        assert_eq!((attempt, r.id()), (0, RequestId::new(2)));
        assert!((due - 2.0).abs() < 1e-12);
        let (due, attempt, r) = q.pop_due(10.0).unwrap();
        assert_eq!((attempt, r.id()), (1, RequestId::new(1)));
        assert!((due - 4.0).abs() < 1e-12);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn budget_and_capacity_refuse_entrants() {
        let c = RetryConfig {
            max_attempts: 2,
            max_queue: 2,
            ..config()
        };
        let mut q = RetryQueue::default();
        assert_eq!(
            q.schedule(&c, request(1), 2, 0.0),
            Err(RetryRefusal::BudgetExhausted)
        );
        assert!(q.schedule(&c, request(1), 0, 0.0).is_ok());
        assert!(q.schedule(&c, request(2), 0, 0.0).is_ok());
        assert_eq!(
            q.schedule(&c, request(3), 0, 0.0),
            Err(RetryRefusal::QueueFull)
        );
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn non_finite_due_times_are_refused_not_mis_ordered() {
        let c = config();
        let mut q = RetryQueue::default();
        // `now = +inf` drives the due time to +inf: to_bits would sort it
        // above every finite time *and* below NaN, and the entry would
        // never pop. The queue refuses it instead.
        match q.schedule(&c, request(1), 0, f64::INFINITY) {
            Err(RetryRefusal::InvalidDueTime { due }) => assert!(due.is_infinite()),
            other => panic!("expected InvalidDueTime, got {other:?}"),
        }
        // A NaN clock poisons the due time the same way.
        match q.schedule(&c, request(2), 0, f64::NAN) {
            Err(RetryRefusal::InvalidDueTime { due }) => assert!(due.is_nan()),
            other => panic!("expected InvalidDueTime, got {other:?}"),
        }
        // Negative due times (sign bit set) would sort *above* every
        // non-negative time; -1e9 makes the sum strictly negative.
        match q.schedule(&c, request(3), 0, -1e9) {
            Err(RetryRefusal::InvalidDueTime { due }) => assert!(due < 0.0),
            other => panic!("expected InvalidDueTime, got {other:?}"),
        }
        assert_eq!(q.len(), 0, "refused entrants never enqueue");
        // The documented bit-pattern hazard itself: negative zero and NaN
        // order above honest times under to_bits.
        assert!((-0.0f64).to_bits() > 1e300f64.to_bits());
        assert!(f64::NAN.to_bits() > f64::INFINITY.to_bits());
    }

    #[test]
    fn negative_zero_due_time_is_refused() {
        // now = -0.0 with a zero backoff sums to +0.0 (IEEE-754), which is
        // fine; force a genuine -0.0 due via a negative now that cancels.
        let c = RetryConfig {
            jitter: 0.0,
            ..config()
        };
        let mut q = RetryQueue::default();
        let refused = q.schedule(&c, request(1), 0, -c.base_backoff);
        // -base + base == +0.0 in IEEE-754, so this particular sum lands
        // on ordinary zero and is accepted...
        assert_eq!(refused, Ok(0.0));
        // ...but a due time carrying the sign bit is refused outright:
        // (-0.0).to_bits() = 0x8000_0000_0000_0000 sorts above all
        // non-negative patterns, so accepting it would order the retry
        // after every honest entry.
        match q.schedule(&c, request(2), 0, -2.0 * c.base_backoff) {
            Err(RetryRefusal::InvalidDueTime { due }) => assert!(due.is_sign_negative()),
            other => panic!("expected InvalidDueTime, got {other:?}"),
        }
    }

    #[test]
    fn pending_rate_sums_only_traversing_requests() {
        let c = config();
        let mut q = RetryQueue::default();
        assert!(q.schedule(&c, request(1), 0, 0.0).is_ok());
        assert!(q.schedule(&c, request(2), 0, 0.0).is_ok());
        assert!((q.pending_rate(VnfId::new(0)) - 2.0).abs() < 1e-12);
        assert_eq!(q.pending_rate(VnfId::new(1)), 0.0);
    }

    /// The original flat-map implementation of the queue, kept verbatim
    /// as the equivalence oracle for the timer wheel: a `BTreeMap` keyed
    /// `(due.to_bits(), seq)` whose `first_key_value` *is* the pop order
    /// the wheel must reproduce bit for bit.
    #[derive(Debug, Default)]
    struct BTreeOracle {
        entries: std::collections::BTreeMap<(u64, u64), Entry>,
        seq: u64,
    }

    impl BTreeOracle {
        fn len(&self) -> usize {
            self.entries.len()
        }

        fn schedule(
            &mut self,
            config: &RetryConfig,
            request: Request,
            attempt: u32,
            now: f64,
        ) -> Result<f64, RetryRefusal> {
            if attempt >= config.max_attempts {
                return Err(RetryRefusal::BudgetExhausted);
            }
            if self.entries.len() >= config.max_queue {
                return Err(RetryRefusal::QueueFull);
            }
            let due = now + backoff_delay(config, request.id().as_usize() as u64, attempt);
            if !due.is_finite() || due.is_sign_negative() {
                return Err(RetryRefusal::InvalidDueTime { due });
            }
            self.entries
                .insert((due.to_bits(), self.seq), Entry { attempt, request });
            self.seq += 1;
            Ok(due)
        }

        fn pop_due(&mut self, upto: f64) -> Option<(f64, u32, Request)> {
            let (&(bits, seq), _) = self.entries.first_key_value()?;
            if f64::from_bits(bits) > upto {
                return None;
            }
            let entry = self.entries.remove(&(bits, seq)).unwrap();
            Some((f64::from_bits(bits), entry.attempt, entry.request))
        }

        fn pending_rate(&self, vnf: VnfId) -> f64 {
            self.entries
                .values()
                .filter(|e| e.request.uses(vnf))
                .map(|e| e.request.effective_rate().value())
                .sum()
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random interleavings of `schedule` and `pop_due` — spanning
        /// wheel levels, the overflow map, and (with `jitter: 0.0`) exact
        /// `(due.to_bits(), seq)` ties — drive the wheel-backed queue and
        /// the flat `BTreeMap` oracle in lockstep: identical schedule
        /// verdicts, identical pop sequences bit for bit, identical
        /// lengths and pending-rate folds at every step.
        #[test]
        fn wheel_matches_btree_oracle(
            // One op per word: kind in the low bits, then request id,
            // attempt, a time quantum, and a time-scale selector (the
            // vendored proptest has no tuple strategy inside `vec`).
            packed in prop::collection::vec(0u64..u64::MAX, 1..200),
        ) {
            for jitter in [0.0, 0.5] {
                let c = RetryConfig {
                    jitter,
                    max_queue: 24,
                    ..config()
                };
                let mut wheel_q = RetryQueue::default();
                let mut oracle = BTreeOracle::default();
                for &w in &packed {
                    let kind = w & 0x3;
                    let id = ((w >> 8) & 0x7) as u32;
                    let attempt = ((w >> 16) & 0x3) as u32;
                    let quantum = ((w >> 24) & 0xFF) as f64;
                    // Scales chosen to land dues on wheel level 0, the
                    // coarser levels, and past the wheel span into the
                    // overflow map.
                    let scale = match (w >> 34) & 0x3 {
                        0 => 0.25,
                        1 => 7.0,
                        2 => 411.0,
                        _ => 100_000.0,
                    };
                    let t = quantum * scale;
                    if kind < 3 {
                        prop_assert_eq!(
                            wheel_q.schedule(&c, request(id), attempt, t),
                            oracle.schedule(&c, request(id), attempt, t),
                        );
                    } else {
                        let got = wheel_q.pop_due(t);
                        let want = oracle.pop_due(t);
                        match (&got, &want) {
                            (None, None) => {}
                            (Some((gd, ga, gr)), Some((wd, wa, wr))) => {
                                prop_assert_eq!(gd.to_bits(), wd.to_bits());
                                prop_assert_eq!((ga, gr.id()), (wa, wr.id()));
                            }
                            _ => prop_assert!(
                                false,
                                "pop mismatch: wheel {:?} oracle {:?}",
                                got,
                                want
                            ),
                        }
                    }
                    prop_assert_eq!(wheel_q.len(), oracle.len());
                    prop_assert_eq!(
                        wheel_q.pending_rate(VnfId::new(0)).to_bits(),
                        oracle.pending_rate(VnfId::new(0)).to_bits(),
                    );
                }
                // Drain both queues dry: the residual pop order must
                // match entry for entry.
                loop {
                    let got = wheel_q.pop_due(f64::MAX);
                    let want = oracle.pop_due(f64::MAX);
                    match (&got, &want) {
                        (None, None) => break,
                        (Some((gd, ga, gr)), Some((wd, wa, wr))) => {
                            prop_assert_eq!(gd.to_bits(), wd.to_bits());
                            prop_assert_eq!((ga, gr.id()), (wa, wr.id()));
                        }
                        _ => prop_assert!(
                            false,
                            "drain mismatch: wheel {:?} oracle {:?}",
                            got,
                            want
                        ),
                    }
                }
            }
        }
    }
}
