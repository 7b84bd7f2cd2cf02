//! In-memory spans for the traced pass. Off by default: an untraced rep
//! records nothing and takes the same code path it would without this
//! module.

use std::time::Instant;

/// One recorded interval. `parent` indexes the span that caused it;
/// `rep` is 0 for the warm-up and probes, 1.. for traced reps; `arg`
/// carries the simulated second of a `slice` span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
    pub arg: u64,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    on: bool,
    pub rep: u32,
    /// Have harness-owned worlds trace at `Debug`, where every delivery
    /// is a countable line. Costs far more than the spans do, so only
    /// the traced pass's one counting rep sets it.
    pub count_messages: bool,
    list: Vec<Span>,
}

impl Spans {
    pub fn off() -> Spans {
        Spans {
            origin: Instant::now(),
            on: false,
            rep: 0,
            count_messages: false,
            list: Vec::new(),
        }
    }

    pub fn on() -> Spans {
        Spans {
            on: true,
            ..Spans::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; `None` when tracing is off.
    pub fn enter(&mut self, name: &'static str, parent: Option<usize>, arg: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.list.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            rep: self.rep,
            arg,
        });
        Some(self.list.len() - 1)
    }

    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.list[id].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn within<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, parent, 0);
        let out = f();
        self.exit(id);
        out
    }

    pub fn list(&self) -> &[Span] {
        &self.list
    }

    /// The trace file: one JSON object per span, in start order.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"spans\": [\n");
        for (i, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"rep\": {}, \"arg\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.rep,
                s.arg,
                if i + 1 == self.list.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_nests() {
        let mut off = Spans::off();
        let id = off.enter("run", None, 0);
        off.exit(id);
        assert!(id.is_none() && off.list().is_empty());

        let mut on = Spans::on();
        let outer = on.enter("rep", None, 0);
        on.within("build", outer, || ());
        on.exit(outer);
        let l = on.list();
        assert_eq!(l.len(), 2);
        assert_eq!(l[1].parent, Some(0));
        assert!(l[0].end_ns >= l[1].end_ns, "the parent closes last");
        assert!(on.to_json("w").contains("\"name\": \"build\""));
    }
}
