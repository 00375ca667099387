//! A bounded, process-wide slow-query log.
//!
//! The engine's execution funnel measures every statement and
//! [`SlowQueryLog::record`]s the ones that ran longer than the
//! configurable threshold. Entries keep everything an operator needs to
//! understand the outlier after the fact: the source text, the bound
//! parameters, the elapsed time, and the rendered scan profile the
//! `EXPLAIN` machinery produced. The log is a fixed-capacity ring —
//! the newest [`SLOW_LOG_CAPACITY`] slow queries win, old ones fall off.
//!
//! # Examples
//!
//! ```
//! use aiql_telemetry::slowlog::{self, SlowQueryEntry};
//!
//! let log = slowlog::SlowQueryLog::new(8, 1_000);
//! log.record(SlowQueryEntry {
//!     source: "proc p read file f return p, f".into(),
//!     params: "(none)".into(),
//!     elapsed_micros: 2_500,
//!     rows: 4,
//!     profile: "seq-scan 1000 rows".into(),
//! });
//! assert_eq!(log.entries().len(), 1);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// How many entries the process-wide log retains.
pub const SLOW_LOG_CAPACITY: usize = 128;

/// Default slowness threshold: 100 ms.
pub const DEFAULT_THRESHOLD_MICROS: u64 = 100_000;

/// One query that exceeded the slowness threshold.
#[derive(Debug, Clone)]
pub struct SlowQueryEntry {
    /// The statement source text.
    pub source: String,
    /// Rendered bound parameters (`(none)` for literal statements).
    pub params: String,
    /// Wall-clock execution time, microseconds.
    pub elapsed_micros: u64,
    /// Result rows produced.
    pub rows: u64,
    /// Rendered scan profile (access paths, partitions pruned, rows
    /// scanned) — the `EXPLAIN` view of how the time was spent.
    pub profile: String,
}

/// A bounded ring buffer of [`SlowQueryEntry`]s with a settable
/// threshold. Use [`global`] for the process-wide instance.
#[derive(Debug)]
pub struct SlowQueryLog {
    threshold_micros: AtomicU64,
    entries: Mutex<VecDeque<SlowQueryEntry>>,
    capacity: usize,
}

/// The process-wide slow-query log.
pub fn global() -> &'static SlowQueryLog {
    static GLOBAL: OnceLock<SlowQueryLog> = OnceLock::new();
    GLOBAL.get_or_init(|| SlowQueryLog::new(SLOW_LOG_CAPACITY, DEFAULT_THRESHOLD_MICROS))
}

impl SlowQueryLog {
    /// A log retaining at most `capacity` entries, flagging executions
    /// at or above `threshold_micros`.
    pub fn new(capacity: usize, threshold_micros: u64) -> SlowQueryLog {
        SlowQueryLog {
            threshold_micros: AtomicU64::new(threshold_micros),
            entries: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// The current slowness threshold in microseconds.
    pub fn threshold_micros(&self) -> u64 {
        self.threshold_micros.load(Ordering::Relaxed)
    }

    /// Sets the slowness threshold (applies to future executions).
    pub fn set_threshold_micros(&self, micros: u64) {
        self.threshold_micros.store(micros, Ordering::Relaxed);
    }

    /// Whether an execution that took `micros` should be logged.
    pub fn is_slow(&self, micros: u64) -> bool {
        micros >= self.threshold_micros()
    }

    /// Appends an entry, evicting the oldest at capacity. Callers check
    /// [`SlowQueryLog::is_slow`] first so fast queries never take the lock.
    pub fn record(&self, entry: SlowQueryEntry) {
        let mut entries = self.entries.lock().expect("slow-query log poisoned");
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> Vec<SlowQueryEntry> {
        self.entries
            .lock()
            .expect("slow-query log poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("slow-query log poisoned").len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every retained entry.
    pub fn clear(&self) {
        self.entries
            .lock()
            .expect("slow-query log poisoned")
            .clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(tag: u64) -> SlowQueryEntry {
        SlowQueryEntry {
            source: format!("q{tag}"),
            params: "(none)".into(),
            elapsed_micros: tag,
            rows: 0,
            profile: String::new(),
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let log = SlowQueryLog::new(3, 0);
        for i in 0..5 {
            log.record(entry(i));
        }
        let sources: Vec<String> = log.entries().into_iter().map(|e| e.source).collect();
        assert_eq!(sources, ["q2", "q3", "q4"]);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn threshold_gates_slowness() {
        let log = SlowQueryLog::new(4, 1_000);
        assert!(!log.is_slow(999));
        assert!(log.is_slow(1_000));
        log.set_threshold_micros(10);
        assert!(log.is_slow(10));
    }
}
