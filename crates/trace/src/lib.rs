#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

//! Observability substrate for the CDNA reproduction.
//!
//! The paper's entire evaluation is observability output: Xenoprof
//! execution profiles (Tables 2/3), per-guest interrupt rates, and idle
//! curves (Figures 3/4). This crate is the instrumentation layer those
//! views are derived from:
//!
//! * [`Registry`] — a table of cheap monotonic counters keyed by
//!   `(domain, component, metric)`. Hot-path
//!   increments go through pre-interned handles and never allocate.
//! * [`ProfileLedger`] — a time-sliced execution-profile sampler in the
//!   style of Xenoprof: CPU time is charged to numbered buckets and
//!   accumulated per sampling window, so both aggregate profiles
//!   (Tables 2/3) and time series (the Figure 3/4 idle curves) fall out
//!   of one sampler.
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

mod profile;
mod registry;
mod tracer;

pub use profile::{ProfileLedger, ProfileSample};
pub use registry::{CounterId, Domain, MetricKey, Registry};
pub use tracer::{Phase, TraceEvent, Tracer};
