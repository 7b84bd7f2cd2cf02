//! Lightweight simulation tracing.
//!
//! The trace is its text: one `String` of rendered lines, each
//! `[{at} {level:?} {subsystem}] {message}\n`, beside a compact index of
//! where each line sits. Debugging the broker/TBON layer relies on it,
//! the goldens under `tests/golden/` pin its bytes, and the chaos storm
//! hashes them. [`Trace::emit`] takes [`fmt::Arguments`] and formats
//! nothing for a level the filter drops, so a world that keeps no trace
//! builds no strings. Events already execute on one logical thread, so
//! no synchronization is needed.

use crate::time::SimTime;
use std::fmt::{self, Write as _};

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

/// A view of one recorded line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry<'a> {
    /// When the record was emitted.
    pub at: SimTime,
    /// Severity.
    pub level: TraceLevel,
    /// Subsystem tag, e.g. `"tbon"`, `"fpp"`, `"opal"`.
    pub subsystem: &'static str,
    /// Human-readable message, as rendered into the trace's text.
    pub message: &'a str,
}

impl fmt::Display for TraceEntry<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {:?} {}] {}",
            self.at, self.level, self.subsystem, self.message
        )
    }
}

/// Where one line sits in the text: its metadata, its length with the
/// newline, and the length of its `[at level subsystem] ` prefix. A
/// length rather than an end offset keeps the record at 32 bytes
/// without bounding the whole text at 4 GiB.
#[derive(Debug, Clone, Copy)]
struct Line {
    at: SimTime,
    subsystem: &'static str,
    len: u32,
    prefix: u16,
    level: TraceLevel,
}

/// An append-only trace buffer with a level filter.
#[derive(Debug, Default)]
pub struct Trace {
    text: String,
    lines: Vec<Line>,
    min_level: Option<TraceLevel>,
}

impl Trace {
    /// A trace that records nothing (the default for production runs).
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// A trace recording entries at or above `level`.
    pub fn enabled(level: TraceLevel) -> Self {
        Trace {
            min_level: Some(level),
            ..Trace::default()
        }
    }

    /// True if a record at `level` would be kept.
    pub fn accepts(&self, level: TraceLevel) -> bool {
        self.min_level.is_some_and(|min| level >= min)
    }

    /// Record a line, written straight into the text; `message` is not
    /// formatted at all when the level is filtered out or tracing is off.
    ///
    /// # Panics
    ///
    /// If one line exceeds 4 GiB or its subsystem tag 64 KiB.
    pub fn emit(
        &mut self,
        at: SimTime,
        level: TraceLevel,
        subsystem: &'static str,
        message: fmt::Arguments<'_>,
    ) {
        if !self.accepts(level) {
            return;
        }
        let start = self.text.len();
        // Writing to a `String` fails only if a `Display` impl does; its
        // partial output stays, and the line still ends where it is cut.
        let _ = write!(self.text, "[{at} {level:?} {subsystem}] ");
        let prefix = self.text.len() - start;
        let _ = self.text.write_fmt(message);
        self.text.push('\n');
        let (Ok(prefix), Ok(len)) = (
            u16::try_from(prefix),
            u32::try_from(self.text.len() - start),
        ) else {
            panic!(
                "trace line of {} bytes at {at} is too long",
                self.text.len() - start
            );
        };
        self.lines.push(Line {
            at,
            subsystem,
            len,
            prefix,
            level,
        });
    }

    /// Every recorded line, one rendered entry per line, in emission
    /// order.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Views of every recorded entry, in emission order.
    pub fn entries(&self) -> impl Iterator<Item = TraceEntry<'_>> + '_ {
        let mut start = 0;
        self.lines.iter().map(move |l| {
            let end = start + l.len as usize;
            let message = &self.text[start + usize::from(l.prefix)..end - 1];
            start = end;
            TraceEntry {
                at: l.at,
                level: l.level,
                subsystem: l.subsystem,
                message,
            }
        })
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Entries from a given subsystem.
    pub fn for_subsystem<'a>(
        &'a self,
        subsystem: &'a str,
    ) -> impl Iterator<Item = TraceEntry<'a>> + 'a {
        self.entries().filter(move |e| e.subsystem == subsystem)
    }

    /// Drop all entries (keeps the filter).
    pub fn clear(&mut self) {
        self.text.clear();
        self.lines.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Prints `x` and counts how often it was asked to.
    struct Counted<'a>(&'a Cell<usize>);

    impl fmt::Display for Counted<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.0.set(self.0.get() + 1);
            f.write_str("x")
        }
    }

    #[test]
    fn line_index_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Line>(), 32);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut tr = Trace::disabled();
        tr.emit(SimTime::ZERO, TraceLevel::Warn, "x", format_args!("boom"));
        assert!(tr.is_empty());
        assert_eq!(tr.text(), "");
        assert!(!tr.accepts(TraceLevel::Warn));
    }

    #[test]
    fn only_a_kept_line_is_formatted_and_only_once() {
        let calls = Cell::new(0);
        let mut off = Trace::disabled();
        off.emit(
            SimTime::ZERO,
            TraceLevel::Warn,
            "x",
            format_args!("{}", Counted(&calls)),
        );
        assert_eq!(calls.get(), 0, "a disabled trace formats nothing");

        let mut tr = Trace::enabled(TraceLevel::Info);
        tr.emit(
            SimTime::ZERO,
            TraceLevel::Debug,
            "x",
            format_args!("{}", Counted(&calls)),
        );
        assert_eq!(calls.get(), 0, "a filtered level formats nothing");

        tr.emit(
            SimTime::ZERO,
            TraceLevel::Info,
            "x",
            format_args!("{}", Counted(&calls)),
        );
        assert_eq!(calls.get(), 1, "a kept line formats once");
        assert_eq!(tr.text(), "[0.000000s Info x] x\n");
        assert_eq!(tr.entries().count(), 1);
        assert_eq!(calls.get(), 1, "reading the trace formats nothing");
    }

    #[test]
    fn level_filter_applies() {
        let mut tr = Trace::enabled(TraceLevel::Info);
        tr.emit(
            SimTime::ZERO,
            TraceLevel::Debug,
            "x",
            format_args!("drop me"),
        );
        tr.emit(
            SimTime::ZERO,
            TraceLevel::Info,
            "x",
            format_args!("keep me"),
        );
        tr.emit(
            SimTime::ZERO,
            TraceLevel::Warn,
            "y",
            format_args!("keep me too"),
        );
        assert_eq!(tr.len(), 2);
    }

    #[test]
    fn text_is_the_entries_and_entries_round_trip() {
        let emitted = [
            (
                SimTime::from_micros(1_500_000),
                TraceLevel::Info,
                "tbon",
                "",
            ),
            (
                SimTime::from_secs(2),
                TraceLevel::Warn,
                "opal",
                "cap failed: 1200 W",
            ),
            (
                SimTime::from_micros(7),
                TraceLevel::Debug,
                "fpp",
                "héllo — ✓ 🚀 über",
            ),
            (
                SimTime::from_secs(3),
                TraceLevel::Info,
                "link",
                "[x] ] then [y] ok]",
            ),
            (SimTime::from_secs(3), TraceLevel::Info, "", "tagless"),
        ];
        let mut tr = Trace::enabled(TraceLevel::Debug);
        for (at, level, subsystem, message) in emitted {
            tr.emit(at, level, subsystem, format_args!("{message}"));
        }
        assert_eq!(tr.len(), emitted.len());
        let rebuilt: String = tr.entries().map(|e| format!("{e}\n")).collect();
        assert_eq!(tr.text(), rebuilt);
        for (e, (at, level, subsystem, message)) in tr.entries().zip(emitted) {
            assert_eq!(
                e,
                TraceEntry {
                    at,
                    level,
                    subsystem,
                    message
                }
            );
        }
        assert!(tr
            .text()
            .starts_with("[1.500000s Info tbon] \n[2.000000s Warn opal] cap"));
    }

    #[test]
    fn display_is_readable() {
        let e = TraceEntry {
            at: SimTime::from_secs(2),
            level: TraceLevel::Warn,
            subsystem: "opal",
            message: "cap failed",
        };
        assert_eq!(e.to_string(), "[2.000000s Warn opal] cap failed");
    }

    #[test]
    fn subsystem_filtering() {
        let mut tr = Trace::enabled(TraceLevel::Debug);
        tr.emit(SimTime::ZERO, TraceLevel::Info, "tbon", format_args!("a"));
        tr.emit(SimTime::ZERO, TraceLevel::Info, "fpp", format_args!("b"));
        tr.emit(SimTime::ZERO, TraceLevel::Info, "tbon", format_args!("c"));
        let tbon: Vec<&str> = tr.for_subsystem("tbon").map(|e| e.message).collect();
        assert_eq!(tbon, ["a", "c"]);
        assert!(tr.for_subsystem("tbon").all(|e| e.subsystem == "tbon"));
        assert_eq!(tr.for_subsystem("fpp").count(), 1);
        assert_eq!(tr.for_subsystem("opal").count(), 0);
    }

    #[test]
    fn clear_keeps_filter() {
        let mut tr = Trace::enabled(TraceLevel::Info);
        tr.emit(SimTime::ZERO, TraceLevel::Info, "x", format_args!("a"));
        tr.clear();
        assert!(tr.is_empty());
        assert_eq!(tr.text(), "");
        assert!(tr.accepts(TraceLevel::Info));
        assert!(!tr.accepts(TraceLevel::Debug));
        tr.emit(
            SimTime::ZERO,
            TraceLevel::Debug,
            "x",
            format_args!("dropped"),
        );
        tr.emit(SimTime::ZERO, TraceLevel::Warn, "x", format_args!("b"));
        assert_eq!(tr.text(), "[0.000000s Warn x] b\n");
    }
}
