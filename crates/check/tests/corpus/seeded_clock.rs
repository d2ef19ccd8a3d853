// cdna-expect: clock-purity crates/bench/src/timing.rs:12
// cdna-expect: clock-purity crates/bench/src/timing.rs:20
// cdna-expect: clock-purity crates/bench/src/timing.rs:30
// cdna-fixture-file: crates/trace/src/json.rs
//! JSON writer stub: arms the serialization sinks.
/// Minimal writer (fixture stub).
pub struct JsonWriter;
impl JsonWriter {
    /// Emits an object key.
    pub fn key(&mut self, k: &str) {
        let _ = k;
    }
    /// Emits a string value.
    pub fn string(&mut self, v: &str) {
        let _ = v;
    }
    /// Emits an unsigned value.
    pub fn number_u64(&mut self, v: u64) {
        let _ = v;
    }
    /// Emits a float value.
    pub fn number_f64(&mut self, v: f64) {
        let _ = v;
    }
}
// cdna-fixture-file: crates/bench/src/timing.rs
//! Wall-clock reporting fixtures for the clock-purity rule.
use std::time::Instant;
use cdna_trace::json::JsonWriter;
/// Milliseconds since `t0` (wall-clock-derived).
fn elapsed_ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}
/// Serializes wall time under a non-wall key: the seeded direct case.
pub fn write_report(w: &mut JsonWriter) {
    let ms = Instant::now().elapsed().as_secs_f64() * 1e3;
    w.key("latency_ms");
    w.number_f64(ms);
    w.key("wall_ms");
    w.number_f64(ms);
}
/// Serializes wall time computed by a callee: the transitive case.
pub fn write_derived(w: &mut JsonWriter, t0: Instant) {
    let cost = elapsed_ms(t0);
    w.key("cost_ms");
    w.number_f64(cost);
}
/// A measurement row (fixture).
pub struct Row {
    /// Wall time mislabeled as a generic cost.
    pub cost_ms: f64,
}
/// Stores wall time in a non-`wall_ms*` field: the field-contract case.
pub fn tag_run(t0: Instant) -> Row {
    let spent = elapsed_ms(t0);
    Row { cost_ms: spent }
}
