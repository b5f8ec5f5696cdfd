//! The metrics registry: named counters, gauges, and latency histograms
//! with pre-resolved lock-free handles.
//!
//! Registration (`counter` / `gauge` / `histogram`) takes a short-lived
//! lock and is **idempotent** on `(name, labels)` — two call sites that
//! register the same series get handles to the same underlying atomics,
//! so there are never duplicate series. Handles are cheap `Arc` clones;
//! recording through a handle is lock-free: one relaxed load of the
//! registry's enabled flag, then a handful of relaxed atomic RMWs.
//!
//! Disabling a registry ([`Registry::set_enabled`]) turns every record
//! through its handles into a single load-and-branch.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::hist::{HistogramSnapshot, LatencyHistogram};

/// A label set: `(key, value)` pairs, order-significant.
pub type Labels = Vec<(String, String)>;

/// A monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time gauge handle.
#[derive(Debug, Clone)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A latency-histogram handle (log-bucketed, see [`crate::hist`]).
#[derive(Debug, Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    core: Arc<LatencyHistogram>,
}

impl Histogram {
    /// Records one value in microseconds.
    #[inline]
    pub fn record_us(&self, us: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.core.record_us(us);
        }
    }

    /// Records one duration.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_us(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Plain-value snapshot of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.core.snapshot()
    }
}

/// The value side of one registered series.
#[derive(Debug, Clone)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<LatencyHistogram>),
}

#[derive(Debug)]
struct Entry {
    name: String,
    labels: Labels,
    help: String,
    slot: Slot,
}

/// A point-in-time value of one series, as captured by
/// [`Registry::snapshot`].
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram snapshot.
    Histogram(HistogramSnapshot),
}

/// One series in a registry snapshot.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Series name.
    pub name: String,
    /// Series labels.
    pub labels: Labels,
    /// Help text supplied at registration.
    pub help: String,
    /// The captured value.
    pub value: MetricValue,
}

/// A named collection of metrics.
///
/// See the module docs for the registration/recording contract. The
/// process-wide default registry lives at [`global()`]; components that
/// need isolation (one server instance per test, say) construct their
/// own.
#[derive(Debug, Default)]
pub struct Registry {
    enabled: Arc<AtomicBool>,
    entries: Mutex<Vec<Entry>>,
}

fn to_labels(labels: &[(&str, &str)]) -> Labels {
    labels
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect()
}

impl Registry {
    /// An empty, enabled registry.
    pub fn new() -> Registry {
        Registry {
            enabled: Arc::new(AtomicBool::new(true)),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording through this registry's handles on or off.
    /// Disabled handles cost one relaxed load per record.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn resolve<T>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        matching: impl Fn(&Slot) -> Option<T>,
        create: impl FnOnce() -> (Slot, T),
    ) -> T {
        let labels = to_labels(labels);
        let mut entries = self.entries.lock().expect("registry poisoned");
        if let Some(entry) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            return matching(&entry.slot)
                .unwrap_or_else(|| panic!("metric {name} re-registered as a different kind"));
        }
        let (slot, handle) = create();
        entries.push(Entry {
            name: name.to_owned(),
            labels,
            help: help.to_owned(),
            slot,
        });
        handle
    }

    /// Registers (or re-resolves) a counter series.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        let enabled = Arc::clone(&self.enabled);
        self.resolve(
            name,
            labels,
            help,
            |slot| match slot {
                Slot::Counter(v) => Some(Counter {
                    enabled: Arc::clone(&enabled),
                    value: Arc::clone(v),
                }),
                _ => None,
            },
            || {
                let value = Arc::new(AtomicU64::new(0));
                (
                    Slot::Counter(Arc::clone(&value)),
                    Counter {
                        enabled: Arc::clone(&self.enabled),
                        value,
                    },
                )
            },
        )
    }

    /// Registers (or re-resolves) a gauge series.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        let enabled = Arc::clone(&self.enabled);
        self.resolve(
            name,
            labels,
            help,
            |slot| match slot {
                Slot::Gauge(v) => Some(Gauge {
                    enabled: Arc::clone(&enabled),
                    value: Arc::clone(v),
                }),
                _ => None,
            },
            || {
                let value = Arc::new(AtomicI64::new(0));
                (
                    Slot::Gauge(Arc::clone(&value)),
                    Gauge {
                        enabled: Arc::clone(&self.enabled),
                        value,
                    },
                )
            },
        )
    }

    /// Registers (or re-resolves) a latency-histogram series.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Histogram {
        let enabled = Arc::clone(&self.enabled);
        self.resolve(
            name,
            labels,
            help,
            |slot| match slot {
                Slot::Histogram(h) => Some(Histogram {
                    enabled: Arc::clone(&enabled),
                    core: Arc::clone(h),
                }),
                _ => None,
            },
            || {
                let core = Arc::new(LatencyHistogram::new());
                (
                    Slot::Histogram(Arc::clone(&core)),
                    Histogram {
                        enabled: Arc::clone(&self.enabled),
                        core,
                    },
                )
            },
        )
    }

    /// Captures every registered series as plain values, in registration
    /// order.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let entries = self.entries.lock().expect("registry poisoned");
        entries
            .iter()
            .map(|e| MetricSnapshot {
                name: e.name.clone(),
                labels: e.labels.clone(),
                help: e.help.clone(),
                value: match &e.slot {
                    Slot::Counter(v) => MetricValue::Counter(v.load(Ordering::Relaxed)),
                    Slot::Gauge(v) => MetricValue::Gauge(v.load(Ordering::Relaxed)),
                    Slot::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect()
    }

    /// Snapshot of one histogram series, if registered.
    pub fn histogram_snapshot(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<HistogramSnapshot> {
        let labels = to_labels(labels);
        let entries = self.entries.lock().expect("registry poisoned");
        entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
            .and_then(|e| match &e.slot {
                Slot::Histogram(h) => Some(h.snapshot()),
                _ => None,
            })
    }
}

/// The process-wide default registry: engine-layer instrumentation
/// (pipeline stages, score memo, substrates, simulated generation)
/// records here; `/v1/metrics` and `repro trace` read it.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("hits", &[("k", "v")], "test counter");
        let b = r.counter("hits", &[("k", "v")], "test counter");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.snapshot().len(), 1);
        // Different labels are a different series.
        let c = r.counter("hits", &[("k", "w")], "test counter");
        c.inc();
        assert_eq!(c.get(), 1);
        assert_eq!(r.snapshot().len(), 2);
    }

    #[test]
    fn disabled_registry_drops_records() {
        let r = Registry::new();
        let c = r.counter("c", &[], "");
        let g = r.gauge("g", &[], "");
        let h = r.histogram("h", &[], "");
        r.set_enabled(false);
        c.inc();
        g.set(7);
        h.record_us(10);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert!(h.snapshot().is_empty());
        r.set_enabled(true);
        c.inc();
        g.set(7);
        h.record_us(10);
        assert_eq!(c.get(), 1);
        assert_eq!(g.get(), 7);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn histogram_snapshot_lookup() {
        let r = Registry::new();
        let h = r.histogram("lat", &[("stage", "x")], "");
        h.record(Duration::from_micros(250));
        let snap = r.histogram_snapshot("lat", &[("stage", "x")]).unwrap();
        assert_eq!(snap.count, 1);
        assert!(r.histogram_snapshot("lat", &[]).is_none());
        assert!(r.histogram_snapshot("nope", &[]).is_none());
    }
}
