//! Spans recorded around the benchmark's own calls into each crate.
//!
//! A span has a name, a start and an end (nanoseconds since the recorder
//! was created), the span that caused it, and the id of the execution it
//! belongs to (0 for set-up work). Spans stay in memory until the run
//! ends; then they are written out as JSON lines and summarised as self
//! time per span name (duration minus the time covered by child spans).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub exec: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span recorder; a disabled recorder only runs the closures.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// parent its own spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        exec: u64,
        f: impl FnOnce(Option<u32>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
            spans.push(Span {
                id,
                parent,
                exec,
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            id
        };
        let out = f(Some(id));
        let end = self.now_ns();
        self.spans.borrow_mut()[id as usize].end_ns = end;
        out
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Total self time in milliseconds per span name.
    pub fn self_time_ms(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for s in spans.iter() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// All spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {}, \"parent\": {}, \"exec\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}\n",
                s.id, parent, s.exec, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}
