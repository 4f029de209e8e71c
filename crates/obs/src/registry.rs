//! Metric registry with Prometheus text exposition and JSON rendering.
//!
//! A [`Registry`] owns named metric families. Each family has a name, an
//! optional help string, and one instance per distinct label set. Handles
//! ([`Counter`], [`Gauge`], `Arc<Histogram>`) are cheap `Arc` clones: get
//! one once, then update it lock-free from hot paths — the registry mutex
//! is only taken at registration and render time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::Histogram;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite the value. Intended for syncing from an authoritative
    /// source (e.g. engine-internal counters) at snapshot time; the caller
    /// is responsible for keeping the sequence monotone.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increment by one (e.g. a connection opened).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrement by one (e.g. a connection closed).
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Label pairs, kept sorted by key so identical sets compare equal.
pub type Labels = BTreeMap<String, String>;

/// Convenience: build a [`Labels`] map from `&[(&str, &str)]`.
pub fn labels(pairs: &[(&str, &str)]) -> Labels {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

#[derive(Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

struct Family {
    name: String,
    help: String,
    // One instrument per distinct label set, in insertion order.
    instances: Vec<(Labels, Instrument)>,
}

/// A collection of metric families, renderable as Prometheus text
/// exposition format or JSON.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name{labels}`.
    ///
    /// # Panics
    /// If `name` is not a valid metric name, or is already registered as a
    /// different metric kind.
    pub fn counter(&self, name: &str, help: &str, labels: Labels) -> Counter {
        match self.get_or_insert(name, help, labels, || {
            Instrument::Counter(Counter::default())
        }) {
            Instrument::Counter(c) => c,
            other => panic!("metric {name} is a {}, not a counter", other.kind()),
        }
    }

    /// Get or create the gauge `name{labels}`.
    ///
    /// # Panics
    /// If `name` is not a valid metric name, or is already registered as a
    /// different metric kind.
    pub fn gauge(&self, name: &str, help: &str, labels: Labels) -> Gauge {
        match self.get_or_insert(name, help, labels, || Instrument::Gauge(Gauge::default())) {
            Instrument::Gauge(g) => g,
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Get or create the histogram `name{labels}`.
    ///
    /// # Panics
    /// If `name` is not a valid metric name, or is already registered as a
    /// different metric kind.
    pub fn histogram(&self, name: &str, help: &str, labels: Labels) -> Arc<Histogram> {
        match self.get_or_insert(name, help, labels, || {
            Instrument::Histogram(Arc::new(Histogram::new()))
        }) {
            Instrument::Histogram(h) => h,
            other => panic!("metric {name} is a {}, not a histogram", other.kind()),
        }
    }

    fn get_or_insert(
        &self,
        name: &str,
        help: &str,
        labels: Labels,
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        assert!(valid_metric_name(name), "invalid metric name: {name:?}");
        for k in labels.keys() {
            assert!(valid_label_name(k), "invalid label name: {k:?}");
        }
        let mut families = self.families.lock().unwrap();
        let family = match families.iter_mut().position(|f| f.name == name) {
            Some(fi) => &mut families[fi],
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    instances: Vec::new(),
                });
                families.last_mut().unwrap()
            }
        };
        match family.instances.iter().position(|(l, _)| *l == labels) {
            Some(ii) => family.instances[ii].1.clone(),
            None => {
                let inst = make();
                family.instances.push((labels, inst.clone()));
                inst
            }
        }
    }

    /// Render every family in Prometheus text exposition format (v0.0.4).
    /// Histograms emit cumulative `_bucket{le=...}` series for their
    /// non-empty buckets plus `le="+Inf"`, `_sum`, and `_count`.
    pub fn render_prometheus(&self) -> String {
        let families = self.families.lock().unwrap();
        let mut out = String::new();
        for f in families.iter() {
            if !f.help.is_empty() {
                let _ = writeln!(out, "# HELP {} {}", f.name, escape_help(&f.help));
            }
            let kind = f
                .instances
                .first()
                .map(|(_, i)| i.kind())
                .unwrap_or("untyped");
            let _ = writeln!(out, "# TYPE {} {kind}", f.name);
            for (labels, inst) in &f.instances {
                match inst {
                    Instrument::Counter(c) => {
                        let _ = writeln!(out, "{}{} {}", f.name, fmt_labels(labels, &[]), c.get());
                    }
                    Instrument::Gauge(g) => {
                        let _ = writeln!(out, "{}{} {}", f.name, fmt_labels(labels, &[]), g.get());
                    }
                    Instrument::Histogram(h) => {
                        let snap = h.snapshot();
                        for (le, cum) in snap.cumulative_buckets() {
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {cum}",
                                f.name,
                                fmt_labels(labels, &[("le", &le.to_string())]),
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            f.name,
                            fmt_labels(labels, &[("le", "+Inf")]),
                            snap.count,
                        );
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            f.name,
                            fmt_labels(labels, &[]),
                            snap.sum
                        );
                        let _ = writeln!(
                            out,
                            "{}_count{} {}",
                            f.name,
                            fmt_labels(labels, &[]),
                            snap.count
                        );
                    }
                }
            }
        }
        out
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn fmt_labels(labels: &Labels, extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let r = Registry::new();
        let c = r.counter("posts_total", "posts", Labels::new());
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same (name, labels) → same underlying counter.
        let c2 = r.counter("posts_total", "posts", Labels::new());
        c2.inc();
        assert_eq!(c.get(), 6);

        let g = r.gauge("depth", "queue depth", labels(&[("shard", "0")]));
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn distinct_labels_are_distinct_instances() {
        let r = Registry::new();
        let a = r.counter("x_total", "", labels(&[("k", "a")]));
        let b = r.counter("x_total", "", labels(&[("k", "b")]));
        a.inc();
        assert_eq!(a.get(), 1);
        assert_eq!(b.get(), 0);
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("y_total", "", Labels::new());
        r.gauge("y_total", "", Labels::new());
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_name_panics() {
        Registry::new().counter("9bad", "", Labels::new());
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = Registry::new();
        r.counter(
            "offers_total",
            "total offers",
            labels(&[("engine", "UniBin")]),
        )
        .add(3);
        r.gauge(
            "channel_depth",
            "pending batches",
            labels(&[("shard", "1")]),
        )
        .set(2);
        let h = r.histogram(
            "offer_latency_ns",
            "offer latency",
            labels(&[("engine", "UniBin")]),
        );
        h.record(5);
        h.record(100);
        h.record(100);

        let text = r.render_prometheus();
        assert!(text.contains("# HELP offers_total total offers"));
        assert!(text.contains("# TYPE offers_total counter"));
        assert!(text.contains("offers_total{engine=\"UniBin\"} 3"));
        assert!(text.contains("# TYPE channel_depth gauge"));
        assert!(text.contains("channel_depth{shard=\"1\"} 2"));
        assert!(text.contains("# TYPE offer_latency_ns histogram"));
        assert!(text.contains("offer_latency_ns_bucket{engine=\"UniBin\",le=\"5\"} 1"));
        assert!(text.contains("offer_latency_ns_bucket{engine=\"UniBin\",le=\"+Inf\"} 3"));
        assert!(text.contains("offer_latency_ns_sum{engine=\"UniBin\"} 205"));
        assert!(text.contains("offer_latency_ns_count{engine=\"UniBin\"} 3"));

        // Cumulative bucket counts must be non-decreasing in `le` order.
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("offer_latency_ns_bucket"))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "non-monotone bucket line: {line}");
            last = v;
        }
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let r = Registry::new();
        r.counter("esc_total", "", labels(&[("path", "a\"b\\c\nd")]))
            .inc();
        let text = r.render_prometheus();
        assert!(text.contains(r#"esc_total{path="a\"b\\c\nd"} 1"#));
    }

    #[test]
    fn handles_survive_registry_borrow() {
        let r = Registry::new();
        let c = r.counter("a_total", "", Labels::new());
        let h = r.histogram("b_ns", "", Labels::new());
        // Hot path: update handles without touching the registry.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
    }
}
