//! In-memory span recorder for the traced run.
//!
//! Spans are recorded at the benchmark's own boundaries around calls
//! into the simulator — workload, run, phase, and sampled handler call —
//! each with the id of its parent, and written out once at the end as
//! Chrome `trace_event` JSON (load it at `ui.perfetto.dev`).

use std::time::Instant;

use cdna_trace::json::JsonWriter;

/// One closed interval of host time.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based; 0 never names a span).
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// What ran, e.g. `build` or `handler.cpu_dispatch`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Collects spans until [`Spans::to_chrome_json`].
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Spans {
    /// An empty recorder keeping at most `cap` spans; later spans are
    /// counted in [`Spans::dropped`] instead.
    pub fn new(cap: usize) -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Opens a span at `start` under `parent`, returning its id (0 when
    /// the span was dropped for capacity). Close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, start: Instant) -> u32 {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: (parent != 0).then_some(parent),
            name,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: 0,
        });
        id
    }

    /// Closes span `id` at `end` (no-op for the dropped id 0).
    pub fn close(&mut self, id: u32, end: Instant) {
        if id == 0 {
            return;
        }
        let origin = self.origin;
        let span = &mut self.spans[id as usize - 1];
        let end_ns = end.saturating_duration_since(origin).as_nanos() as u64;
        span.dur_ns = end_ns.saturating_sub(span.start_ns);
    }

    /// Records the closed span `[start, end]` under `parent`.
    pub fn record(&mut self, name: &'static str, parent: u32, start: Instant, end: Instant) -> u32 {
        let id = self.open(name, parent, start);
        self.close(id, end);
        id
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not kept because the recorder was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The spans as Chrome `trace_event` JSON: one complete (`X`) event
    /// per span, with `id` and `parent` under `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(self.spans.len() * 96 + 64);
        w.begin_object();
        w.key("traceEvents");
        w.begin_array();
        for s in &self.spans {
            w.begin_object();
            w.key("name");
            w.string(s.name);
            w.key("cat");
            w.string("simbench");
            w.key("ph");
            w.string("X");
            w.key("ts");
            w.number_f64(s.start_ns as f64 / 1e3);
            w.key("dur");
            w.number_f64(s.dur_ns as f64 / 1e3);
            w.key("pid");
            w.number_u64(1);
            w.key("tid");
            w.number_u64(1);
            w.key("args");
            w.begin_object();
            w.key("id");
            w.number_u64(s.id as u64);
            w.key("parent");
            match s.parent {
                Some(p) => w.number_u64(p as u64),
                None => w.null(),
            }
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.key("dropped");
        w.number_u64(self.dropped);
        w.end_object();
        w.finish()
    }

    /// Writes the Chrome trace for `workload` under the build directory
    /// (`$CARGO_TARGET_DIR`, else `target`) and returns the path.
    pub fn write(&self, workload: &str) -> std::io::Result<String> {
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
        let dir = std::path::Path::new(&dir).join("simbench");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{workload}.json"));
        std::fs::write(&path, self.to_chrome_json())?;
        Ok(path.display().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_parent_and_respect_the_cap() {
        let mut s = Spans::new(2);
        let t0 = Instant::now();
        let root = s.open("run", 0, t0);
        let child = s.record("build", root, t0, Instant::now());
        s.close(root, Instant::now());
        assert_eq!((root, child), (1, 2));
        assert_eq!(s.spans()[0].parent, None);
        assert_eq!(s.spans()[1].parent, Some(1));
        assert!(s.spans()[0].dur_ns >= s.spans()[1].dur_ns);
        assert_eq!(s.record("extra", root, t0, Instant::now()), 0);
        assert_eq!(s.dropped(), 1);
        let json = s.to_chrome_json();
        assert!(json.starts_with(r#"{"traceEvents":[{"name":"run""#));
        assert!(json.contains(r#""parent":1"#));
    }
}
