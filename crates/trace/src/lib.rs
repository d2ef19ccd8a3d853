#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

//! Observability substrate for the CDNA reproduction.
//!
//! The paper's entire evaluation is observability output: Xenoprof
//! execution profiles (Tables 2/3), per-guest interrupt rates, and idle
//! shares (Figures 3/4). The profiles and idle shares come from the CPU
//! ledger's windowed per-category totals in `cdna-xen`; this crate is
//! the rest of the instrumentation layer:
//!
//! * [`Registry`] — a table of cheap monotonic counters keyed by
//!   `(domain, component, metric)`. Hot-path
//!   increments go through pre-interned handles and never allocate.
//! * [`Tracer`] — a bounded ring-buffer event tracer (oldest events are
//!   dropped on overflow) whose contents export to Chrome
//!   `trace_event`-format JSON, so a whole simulated run can be opened
//!   in `about://tracing` or Perfetto.
//! * [`json`] — the hand-rolled JSON writer shared by the trace
//!   exporter and `cdna-system`'s report serialization.
//!
//! The crate is std-only with zero external dependencies: it must build
//! (and its consumers must build) with no network access at all.

pub mod json;

mod registry;
mod tracer;

pub use registry::{CounterId, Domain, MetricKey, Registry};
pub use tracer::{Phase, TraceEvent, Tracer};
