//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. With tracing off, [`Tracer::span`] just calls
//! through.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Outcome tag set after the call (e.g. how the engine decided a
    /// candidate); empty when the span has none.
    pub label: &'static str,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`; returns its result.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            label: "",
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: 0.0,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_s = self.epoch.elapsed().as_secs_f64();
        r
    }

    /// Tag the most recently opened span.
    pub fn label_last(&mut self, label: &'static str) {
        if let Some(s) = self.spans.last_mut() {
            s.label = label;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (s) of every span named `name`, optionally only those
    /// carrying `label`.
    pub fn durations(&self, name: &str, label: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && label.is_none_or(|l| s.label == l))
            .map(Span::secs)
            .collect()
    }

    pub fn total(&self, name: &str) -> f64 {
        self.durations(name, None).iter().sum()
    }

    /// Per (name, label): count, total seconds and self seconds (duration
    /// minus the part covered by child spans).
    pub fn aggregate(&self) -> BTreeMap<(&'static str, &'static str), (usize, f64, f64)> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        let mut agg = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let e = agg.entry((s.name, s.label)).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += s.secs();
            e.2 += s.secs() - c;
        }
        agg
    }

    /// Write the per-name aggregates and every span that has children (the
    /// leaf spans of a sweep number in the hundreds of thousands) as JSON.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        let mut out = String::from("{\"aggregate\": [");
        for (i, ((name, label), (n, total, own))) in self.aggregate().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n  {{\"name\": \"{name}\", \"label\": \"{label}\", \"count\": {n}, \
                 \"total_s\": {total}, \"self_s\": {own}}}"
            );
        }
        out.push_str("\n], \"spans\": [");
        let mut first = true;
        for (id, s) in self.spans.iter().enumerate() {
            if !has_child[id] && s.parent.is_some() {
                continue;
            }
            let sep = if first { "" } else { "," };
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n  {{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"label\": \"{}\", \"start_s\": {}, \"end_s\": {}}}",
                s.name, s.label, s.start_s, s.end_s
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
