//! The bounded FIFO behind both the journal ring and the tick series.

use std::collections::VecDeque;

/// Keeps the most recent `capacity` items and counts the ones evicted to
/// honor the bound, so long runs cannot grow memory without limit.
///
/// Between a mark and a rewind (see [`Telemetry::mark`]) the ring is
/// append-only, so a rewind drops the items pushed since and puts back
/// the marked items evicted to make room for them. Those are set aside on
/// eviction — at most the marked length — until the next mark or rewind,
/// so the rewind stays exact however often the ring wrapped.
///
/// [`Telemetry::mark`]: crate::Telemetry::mark
#[derive(Debug, Clone)]
pub struct Ring<T> {
    capacity: usize,
    pub(crate) items: VecDeque<T>,
    pub(crate) dropped: u64,
    /// Retained length at the last mark (0 — nothing to save — before
    /// the first).
    marked_len: usize,
    /// Marked items evicted since the last mark or rewind, oldest first.
    saved: Vec<T>,
}

/// A [`Ring`]'s position: retained length and eviction count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RingMark {
    len: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// Creates a ring holding at most `capacity` items. It reserves at
    /// most 256 slots and grows past that with use: a fleet keeps two
    /// rings per tenant, most of them far below capacity.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            items: VecDeque::with_capacity(capacity.min(256)),
            dropped: 0,
            marked_len: 0,
            saved: Vec::new(),
        }
    }

    /// Appends one item, evicting the oldest when full.
    pub fn push(&mut self, item: T) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.items.len() == self.capacity {
            self.dropped += 1;
            if let Some(oldest) = self.items.pop_front() {
                if self.saved.len() < self.marked_len {
                    self.saved.push(oldest);
                }
            }
        }
        self.items.push_back(item);
    }

    /// Number of retained items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Items evicted to honor the capacity bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub(crate) fn mark(&mut self) -> RingMark {
        self.saved.clear();
        self.marked_len = self.items.len();
        RingMark {
            len: self.items.len(),
            dropped: self.dropped,
        }
    }

    /// Restores the state at `mark`, which must be the latest mark.
    pub(crate) fn rewind(&mut self, mark: RingMark) {
        // The first `mark.len` items of `saved ++ items` are the marked
        // contents: eviction always takes the oldest item.
        self.items
            .truncate(mark.len.saturating_sub(self.saved.len()));
        for item in self.saved.drain(..).rev() {
            self.items.push_front(item);
        }
        self.dropped = mark.dropped;
    }
}

impl<T: PartialEq> PartialEq for Ring<T> {
    fn eq(&self, other: &Self) -> bool {
        // The mark scaffolding is recovery state, not content.
        self.capacity == other.capacity
            && self.dropped == other.dropped
            && self.items == other.items
    }
}
