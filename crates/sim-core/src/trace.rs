//! Lightweight simulation tracing.
//!
//! The experiment harness renders timelines (paper Figs. 1, 5, 6, 7) from
//! trace records; debugging the broker/TBON layer also relies on it. The
//! trace is a plain append-only vector — events already execute on one
//! logical thread, so no synchronization is needed.

use crate::time::SimTime;
use std::fmt;

/// Severity / verbosity of a trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// High-volume records (per-message, per-sample).
    Debug,
    /// State transitions (job start/stop, cap changes).
    Info,
    /// Anomalies (cap failures, buffer wrap, dropped messages).
    Warn,
}

/// A single trace record.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// When the record was emitted.
    pub at: SimTime,
    /// Severity.
    pub level: TraceLevel,
    /// Subsystem tag, e.g. `"tbon"`, `"fpp"`, `"opal"`.
    pub subsystem: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {:?} {}] {}",
            self.at, self.level, self.subsystem, self.message
        )
    }
}

/// An append-only trace buffer with a level filter.
#[derive(Debug, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    min_level: Option<TraceLevel>,
}

impl Trace {
    /// A trace that records nothing (the default for production runs).
    pub fn disabled() -> Self {
        Trace {
            entries: Vec::new(),
            min_level: None,
        }
    }

    /// A trace recording entries at or above `level`.
    pub fn enabled(level: TraceLevel) -> Self {
        Trace {
            entries: Vec::new(),
            min_level: Some(level),
        }
    }

    /// True if a record at `level` would be kept.
    pub fn accepts(&self, level: TraceLevel) -> bool {
        self.min_level.is_some_and(|min| level >= min)
    }

    /// Record an entry (dropped if below the filter or disabled).
    pub fn emit(
        &mut self,
        at: SimTime,
        level: TraceLevel,
        subsystem: &'static str,
        message: impl Into<String>,
    ) {
        if self.accepts(level) {
            self.entries.push(TraceEntry {
                at,
                level,
                subsystem,
                message: message.into(),
            });
        }
    }

    /// All recorded entries, in emission order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Entries from a given subsystem.
    pub fn for_subsystem<'a>(
        &'a self,
        subsystem: &'a str,
    ) -> impl Iterator<Item = &'a TraceEntry> + 'a {
        self.entries
            .iter()
            .filter(move |e| e.subsystem == subsystem)
    }

    /// Drop all entries (keeps the filter).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut tr = Trace::disabled();
        tr.emit(SimTime::ZERO, TraceLevel::Warn, "x", "boom");
        assert!(tr.entries().is_empty());
        assert!(!tr.accepts(TraceLevel::Warn));
    }

    #[test]
    fn level_filter_applies() {
        let mut tr = Trace::enabled(TraceLevel::Info);
        tr.emit(SimTime::ZERO, TraceLevel::Debug, "x", "drop me");
        tr.emit(SimTime::ZERO, TraceLevel::Info, "x", "keep me");
        tr.emit(SimTime::ZERO, TraceLevel::Warn, "y", "keep me too");
        assert_eq!(tr.entries().len(), 2);
    }

    #[test]
    fn subsystem_filtering() {
        let mut tr = Trace::enabled(TraceLevel::Debug);
        tr.emit(SimTime::ZERO, TraceLevel::Info, "tbon", "a");
        tr.emit(SimTime::ZERO, TraceLevel::Info, "fpp", "b");
        tr.emit(SimTime::ZERO, TraceLevel::Info, "tbon", "c");
        assert_eq!(tr.for_subsystem("tbon").count(), 2);
        assert_eq!(tr.for_subsystem("fpp").count(), 1);
    }

    #[test]
    fn display_is_readable() {
        let e = TraceEntry {
            at: SimTime::from_secs(2),
            level: TraceLevel::Warn,
            subsystem: "opal",
            message: "cap failed".into(),
        };
        let s = e.to_string();
        assert!(s.contains("opal"));
        assert!(s.contains("cap failed"));
    }

    #[test]
    fn clear_keeps_filter() {
        let mut tr = Trace::enabled(TraceLevel::Debug);
        tr.emit(SimTime::ZERO, TraceLevel::Debug, "x", "a");
        tr.clear();
        assert!(tr.entries().is_empty());
        assert!(tr.accepts(TraceLevel::Debug));
    }
}
