//! A minimal hand-rolled JSON writer.
//!
//! Shared by the [`crate::Tracer`] Chrome-format exporter and
//! `cdna-system`'s report serialization so the tier-1 build needs no
//! external serialization crates. The writer tracks nesting and comma
//! placement; callers are responsible for pairing `begin_*`/`end_*`
//! calls.
//!
//! # Example
//!
//! ```
//! use cdna_trace::json::JsonWriter;
//!
//! let mut w = JsonWriter::new();
//! w.begin_object();
//! w.key("label");
//! w.string("CDNA/RiceNIC");
//! w.key("guests");
//! w.number_u64(8);
//! w.end_object();
//! assert_eq!(w.finish(), r#"{"label":"CDNA/RiceNIC","guests":8}"#);
//! ```

/// Streaming JSON writer accumulating into a `String`.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether a value has already been written at each nesting level
    /// (controls comma insertion).
    need_comma: Vec<bool>,
}

impl JsonWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// Creates a writer with pre-reserved output capacity.
    pub fn with_capacity(bytes: usize) -> Self {
        JsonWriter {
            out: String::with_capacity(bytes),
            need_comma: Vec::new(),
        }
    }

    fn before_value(&mut self) {
        if let Some(need) = self.need_comma.last_mut() {
            if *need {
                self.out.push(',');
            }
            *need = true;
        }
    }

    /// Opens a JSON object (`{`).
    pub fn begin_object(&mut self) {
        self.before_value();
        self.out.push('{');
        self.need_comma.push(false);
    }

    /// Closes the innermost object (`}`).
    pub fn end_object(&mut self) {
        self.need_comma.pop();
        self.out.push('}');
    }

    /// Opens a JSON array (`[`).
    pub fn begin_array(&mut self) {
        self.before_value();
        self.out.push('[');
        self.need_comma.push(false);
    }

    /// Closes the innermost array (`]`).
    pub fn end_array(&mut self) {
        self.need_comma.pop();
        self.out.push(']');
    }

    /// Writes an object key. The next write is its value.
    pub fn key(&mut self, name: &str) {
        self.before_value();
        escape_into(&mut self.out, name);
        self.out.push(':');
        // The value that follows must not get a comma.
        if let Some(need) = self.need_comma.last_mut() {
            *need = false;
        }
    }

    /// Writes a string value (escaped).
    pub fn string(&mut self, s: &str) {
        self.before_value();
        escape_into(&mut self.out, s);
    }

    /// Writes an unsigned integer value.
    pub fn number_u64(&mut self, v: u64) {
        self.before_value();
        self.out.push_str(&v.to_string());
    }

    /// Writes a finite float value. Non-finite values (which JSON cannot
    /// represent) are written as `null`.
    pub fn number_f64(&mut self, v: f64) {
        self.before_value();
        if v.is_finite() {
            // Shortest round-trip formatting, like serde_json's.
            let mut s = format!("{v}");
            // `{}` prints integral floats without a point; keep them
            // recognizable as numbers (both forms are valid JSON, but
            // "1.0" round-trips the type intent).
            if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN") {
                s.push_str(".0");
            }
            self.out.push_str(&s);
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes a boolean value.
    pub fn boolean(&mut self, v: bool) {
        self.before_value();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Writes a `null` value.
    pub fn null(&mut self) {
        self.before_value();
        self.out.push_str("null");
    }

    /// Writes pre-serialized JSON verbatim (caller guarantees validity).
    pub fn raw(&mut self, json: &str) {
        self.before_value();
        self.out.push_str(json);
    }

    /// Returns the accumulated JSON text.
    pub fn finish(self) -> String {
        self.out
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }
}

/// Appends `s` as a quoted, escaped JSON string.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Escapes `s` as a standalone quoted JSON string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_structures_with_commas() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("a");
        w.begin_array();
        w.number_u64(1);
        w.number_u64(2);
        w.begin_object();
        w.key("b");
        w.boolean(true);
        w.end_object();
        w.end_array();
        w.key("c");
        w.null();
        w.end_object();
        assert_eq!(w.finish(), r#"{"a":[1,2,{"b":true}],"c":null}"#);
    }

    #[test]
    fn string_escaping() {
        assert_eq!(escape("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
        assert_eq!(escape("ünïcode"), "\"ünïcode\"");
    }

    #[test]
    fn float_formatting() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.number_f64(1.5);
        w.number_f64(2.0);
        w.number_f64(f64::NAN);
        w.number_f64(-0.25);
        w.end_array();
        assert_eq!(w.finish(), "[1.5,2.0,null,-0.25]");
    }

    #[test]
    fn empty_containers() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("xs");
        w.begin_array();
        w.end_array();
        w.key("o");
        w.begin_object();
        w.end_object();
        w.end_object();
        assert_eq!(w.finish(), r#"{"xs":[],"o":{}}"#);
    }
}
