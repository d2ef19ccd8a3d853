//! The counter registry.
//!
//! Metrics are keyed by `(domain, component, metric[, instance])`.
//! Consumers intern a key once at setup time and hold the returned
//! [`CounterId`]; increments through a handle are a
//! bounds-checked array add — no hashing, no allocation — so they are
//! safe on the simulation's hot paths.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::JsonWriter;

/// Which part of the machine a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Domain {
    /// Machine-wide (not attributable to one domain).
    Global,
    /// The hypervisor.
    Hypervisor,
    /// The driver domain (dom0).
    Driver,
    /// Guest domain `n` (0-based).
    Guest(u16),
    /// Physical NIC `n`.
    Nic(u16),
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Global => write!(f, "global"),
            Domain::Hypervisor => write!(f, "hypervisor"),
            Domain::Driver => write!(f, "driver"),
            Domain::Guest(g) => write!(f, "guest{g}"),
            Domain::Nic(n) => write!(f, "nic{n}"),
        }
    }
}

/// Full metric identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// Owning domain.
    pub domain: Domain,
    /// Component within the domain ("evtchn", "ctx", "engine", ...).
    pub component: &'static str,
    /// Metric name ("hypercalls", "tx_descriptors", ...).
    pub metric: &'static str,
    /// Instance number for per-object metrics (e.g. a context id);
    /// 0 for singletons.
    pub instance: u32,
}

impl MetricKey {
    /// A key with instance 0.
    pub const fn new(domain: Domain, component: &'static str, metric: &'static str) -> Self {
        MetricKey {
            domain,
            component,
            metric,
            instance: 0,
        }
    }

    /// A key for instance `n` of a per-object metric.
    pub const fn instance(
        domain: Domain,
        component: &'static str,
        metric: &'static str,
        n: u32,
    ) -> Self {
        MetricKey {
            domain,
            component,
            metric,
            instance: n,
        }
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.instance == 0 {
            write!(f, "{}/{}/{}", self.domain, self.component, self.metric)
        } else {
            write!(
                f,
                "{}/{}[{}]/{}",
                self.domain, self.component, self.instance, self.metric
            )
        }
    }
}

/// Handle to an interned counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// The metric table.
///
/// # Example
///
/// ```
/// use cdna_trace::{Domain, MetricKey, Registry};
///
/// let mut reg = Registry::new();
/// let hc = reg.counter(MetricKey::new(Domain::Hypervisor, "engine", "hypercalls"));
/// reg.inc(hc);
/// reg.add(hc, 4);
/// assert_eq!(reg.value(hc), 5);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Registry {
    counter_index: BTreeMap<MetricKey, usize>,
    counter_keys: Vec<MetricKey>,
    counters: Vec<u64>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Interns (or finds) the counter for `key`.
    pub fn counter(&mut self, key: MetricKey) -> CounterId {
        if let Some(&i) = self.counter_index.get(&key) {
            return CounterId(i);
        }
        let i = self.counters.len();
        self.counter_index.insert(key, i);
        self.counter_keys.push(key);
        self.counters.push(0);
        CounterId(i)
    }

    /// Adds 1 to a counter. No allocation.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0] += 1;
    }

    /// Adds `n` to a counter. No allocation.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0] += n;
    }

    /// Current value of a counter.
    pub fn value(&self, id: CounterId) -> u64 {
        self.counters[id.0]
    }

    /// Convenience: interns on the fly and adds `n` (slow path — use
    /// [`Registry::counter`] + [`Registry::add`] in loops).
    pub fn add_by_key(&mut self, key: MetricKey, n: u64) {
        let id = self.counter(key);
        self.add(id, n);
    }

    /// Sets a counter to `value` (for snapshot-style metrics copied from
    /// component stats at collection time).
    pub fn set_by_key(&mut self, key: MetricKey, value: u64) {
        let id = self.counter(key);
        self.counters[id.0] = value;
    }

    /// Counter value by key, if interned.
    pub fn value_by_key(&self, key: &MetricKey) -> Option<u64> {
        self.counter_index.get(key).map(|&i| self.counters[i])
    }

    /// Number of interned counters.
    pub fn counter_count(&self) -> usize {
        self.counters.len()
    }

    /// All counters in key order.
    pub fn counters_sorted(&self) -> Vec<(MetricKey, u64)> {
        let mut out: Vec<(MetricKey, u64)> = self
            .counter_keys
            .iter()
            .zip(&self.counters)
            .map(|(&k, &v)| (k, v))
            .collect();
        out.sort_by_key(|e| e.0);
        out
    }

    /// Renders the per-domain counter table the bench binaries print
    /// under `--metrics`: one section per domain, one line per counter.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let mut last_domain: Option<Domain> = None;
        for (key, value) in self.counters_sorted() {
            if last_domain != Some(key.domain) {
                if last_domain.is_some() {
                    out.push('\n');
                }
                out.push_str(&format!("[{}]\n", key.domain));
                last_domain = Some(key.domain);
            }
            let name = if key.instance == 0 {
                format!("{}/{}", key.component, key.metric)
            } else {
                format!("{}[{}]/{}", key.component, key.instance, key.metric)
            };
            out.push_str(&format!("  {name:<40} {value:>16}\n"));
        }
        out
    }

    /// Serializes the counters as a JSON object keyed by
    /// `"domain/component[/instance]/metric"`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        for (key, value) in self.counters_sorted() {
            w.key(&key.to_string());
            w.number_u64(value);
        }
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut reg = Registry::new();
        let k = MetricKey::new(Domain::Driver, "netback", "packets");
        let a = reg.counter(k);
        let b = reg.counter(k);
        assert_eq!(a, b);
        reg.inc(a);
        reg.inc(b);
        assert_eq!(reg.value(a), 2);
        assert_eq!(reg.counter_count(), 1);
    }

    #[test]
    fn distinct_instances_are_distinct_counters() {
        let mut reg = Registry::new();
        let a = reg.counter(MetricKey::instance(
            Domain::Nic(0),
            "ctx",
            "tx_descriptors",
            1,
        ));
        let b = reg.counter(MetricKey::instance(
            Domain::Nic(0),
            "ctx",
            "tx_descriptors",
            2,
        ));
        assert_ne!(a, b);
        reg.add(a, 10);
        assert_eq!(reg.value(b), 0);
    }

    #[test]
    fn sorted_iteration_groups_by_domain() {
        let mut reg = Registry::new();
        reg.add_by_key(MetricKey::new(Domain::Guest(1), "drv", "m"), 1);
        reg.add_by_key(MetricKey::new(Domain::Hypervisor, "engine", "m"), 2);
        reg.add_by_key(MetricKey::new(Domain::Guest(0), "drv", "m"), 3);
        let keys: Vec<Domain> = reg
            .counters_sorted()
            .iter()
            .map(|(k, _)| k.domain)
            .collect();
        assert_eq!(
            keys,
            vec![Domain::Hypervisor, Domain::Guest(0), Domain::Guest(1)]
        );
    }

    #[test]
    fn table_renders_sections_and_values() {
        let mut reg = Registry::new();
        reg.add_by_key(
            MetricKey::new(Domain::Hypervisor, "engine", "hypercalls"),
            42,
        );
        reg.add_by_key(MetricKey::new(Domain::Nic(0), "dev", "tx_frames"), 7);
        let t = reg.table();
        assert!(t.contains("[hypervisor]"));
        assert!(t.contains("[nic0]"));
        assert!(t.contains("engine/hypercalls"));
        assert!(t.contains("42"));
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let mut reg = Registry::new();
        reg.add_by_key(MetricKey::new(Domain::Global, "sim", "events"), 99);
        let mut w = JsonWriter::new();
        reg.write_json(&mut w);
        assert_eq!(w.finish(), r#"{"global/sim/events":99}"#);
    }
}
