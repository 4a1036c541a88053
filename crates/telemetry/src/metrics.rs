//! The machine-wide metrics registry: named counters, gauges and
//! histograms with arbitrary (typically per-node, per-link) labels.
//!
//! Everything is keyed through [`BTreeMap`]s so iteration order — and
//! therefore every exporter's output — is fully deterministic: two runs
//! that record the same values produce byte-identical dumps.

use std::borrow::{Borrow, Cow};
use std::collections::BTreeMap;

/// A metric identity: name plus a sorted label set, held as one string.
/// Its parts — the name, then each label's key and value, labels sorted
/// by key and value — are joined by `\0`; inside a part the characters
/// `\0` and `\u{1}` are written `\u{1}\u{1}` and `\u{1}\u{2}`. An
/// escaped part holds no `\0` and the escape keeps byte order, so keys
/// sort by their bytes exactly as (name, labels) pairs sort, and one
/// allocation holds the whole identity.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey(Box<str>);

impl MetricKey {
    /// Metric name, e.g. `scu_link_resends`.
    pub fn name(&self) -> Cow<'_, str> {
        self.parts().next().expect("every key has a name")
    }

    /// Label pairs, sorted by key (then value), so equal label sets
    /// compare equal.
    pub fn labels(&self) -> impl Iterator<Item = (Cow<'_, str>, Cow<'_, str>)> {
        let mut parts = self.parts().skip(1);
        std::iter::from_fn(move || Some((parts.next()?, parts.next()?)))
    }

    fn parts(&self) -> impl Iterator<Item = Cow<'_, str>> {
        let escaped = self.0.contains('\u{1}');
        self.0.split('\0').map(move |part| {
            if escaped {
                Cow::Owned(unescape(part))
            } else {
                Cow::Borrowed(part)
            }
        })
    }
}

impl Borrow<str> for MetricKey {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Debug for MetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricKey")
            .field("name", &self.name())
            .field("labels", &self.labels().collect::<Vec<_>>())
            .finish()
    }
}

/// Write the identity of `name` with `labels` (already in sorted order)
/// into `key`, replacing what it held.
fn encode<'a>(key: &mut String, name: &str, labels: impl Iterator<Item = (&'a str, &'a str)>) {
    key.clear();
    escape_into(key, name);
    for (k, v) in labels {
        key.push('\0');
        escape_into(key, k);
        key.push('\0');
        escape_into(key, v);
    }
}

fn escape_into(key: &mut String, part: &str) {
    if !part.contains(['\0', '\u{1}']) {
        key.push_str(part);
        return;
    }
    for c in part.chars() {
        match c {
            '\0' => key.push_str("\u{1}\u{1}"),
            '\u{1}' => key.push_str("\u{1}\u{2}"),
            c => key.push(c),
        }
    }
}

fn unescape(part: &str) -> String {
    let mut out = String::with_capacity(part.len());
    let mut chars = part.chars();
    while let Some(c) = chars.next() {
        match c {
            '\u{1}' => out.push(if chars.next() == Some('\u{1}') {
                '\0'
            } else {
                '\u{1}'
            }),
            c => out.push(c),
        }
    }
    out
}

/// `labels` sorted by key, then value (equal pairs in input order),
/// picked one at a time so that nothing is allocated.
fn sorted_labels<'a>(labels: &'a [(&'a str, String)]) -> impl Iterator<Item = (&'a str, &'a str)> {
    let rank = |i: usize| ((labels[i].0, labels[i].1.as_str()), i);
    let mut last = None;
    (0..labels.len()).map(move |_| {
        let next = (0..labels.len())
            .map(rank)
            .filter(|r| last.is_none_or(|l| *r > l))
            .min()
            .expect("one pair per step");
        last = Some(next);
        next.0
    })
}

/// A power-of-two-bucketed histogram of `u64` observations.
///
/// Bucket `i` (for `i > 0`) holds values `v` with `2^(i-1) <= v < 2^i`;
/// bucket 0 holds zeros. 65 buckets cover the whole `u64` range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        let idx = (64 - v.leading_zeros()) as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Non-empty buckets as `(upper_bound_inclusive, count)` pairs in
    /// ascending bound order. Bucket 0 reports bound 0.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Histogram::bucket_bound(i), c))
            .collect()
    }

    /// Inclusive upper bound of bucket `i` (0, 1, 3, 7, …, `u64::MAX`).
    fn bucket_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i == 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// The upper bound of the bucket containing the `q`-quantile
    /// observation (0 for an empty histogram). Quantiles are
    /// bucket-resolution — exact to within the power-of-two bucketing —
    /// and fully deterministic, so they can be diffed and gated.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Histogram::bucket_bound(i);
            }
        }
        u64::MAX
    }

    /// Median observation (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile observation (bucket upper bound).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile observation (bucket upper bound) — the tail the
    /// benchmark judge gates.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Fold another histogram's observations into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// One metric's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonically increasing count.
    Counter(u64),
    /// Last-write-wins instantaneous value. Ledger readouts use gauges so
    /// re-ingesting the same report is idempotent.
    Gauge(f64),
    /// Distribution of observations (boxed: the bucket array is large
    /// relative to the other variants).
    Histogram(Box<Histogram>),
}

impl MetricValue {
    /// The Prometheus type name of this value.
    pub fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// The registry: a deterministic map from [`MetricKey`] to value.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    entries: BTreeMap<MetricKey, MetricValue>,
    /// The identity being recorded, encoded. Kept across calls, so that
    /// recording into a series that exists allocates nothing.
    scratch: String,
}

impl PartialEq for MetricsRegistry {
    fn eq(&self, other: &MetricsRegistry) -> bool {
        self.entries == other.entries
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("entries", &self.entries)
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Whether no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct (name, labels) series.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Apply `record` to the series `name{labels}`, filing it first as
    /// `fresh()` when the registry lacks it. The lookup reads the encoded
    /// identity from `scratch`; only a new series allocates its key.
    fn record(
        &mut self,
        name: &str,
        labels: &[(&str, String)],
        fresh: impl FnOnce() -> MetricValue,
        record: impl FnOnce(&mut MetricValue),
    ) {
        encode(&mut self.scratch, name, sorted_labels(labels));
        match self.entries.get_mut(self.scratch.as_str()) {
            Some(value) => record(value),
            None => {
                let mut value = fresh();
                record(&mut value);
                self.entries
                    .insert(MetricKey(self.scratch.as_str().into()), value);
            }
        }
    }

    /// Add `v` to a counter, creating it at zero first if needed.
    ///
    /// Panics if the series already exists with a different type — mixing
    /// types under one name is a programming error, not a runtime state.
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, String)], v: u64) {
        self.record(
            name,
            labels,
            || MetricValue::Counter(0),
            |value| match value {
                MetricValue::Counter(c) => *c += v,
                other => panic!("metric {name} is a {}, not a counter", other.type_name()),
            },
        );
    }

    /// Set a gauge to `v` (last write wins).
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, String)], v: f64) {
        self.record(
            name,
            labels,
            || MetricValue::Gauge(v),
            |value| match value {
                MetricValue::Gauge(g) => *g = v,
                other => panic!("metric {name} is a {}, not a gauge", other.type_name()),
            },
        );
    }

    /// Set many one-label gauges at once, each item a `(name, value, v)`
    /// for the series `name{label="value"}`: the same registry as one
    /// [`MetricsRegistry::gauge_set`] per item, in order. The series the
    /// registry lacks are keyed in one batch and merged in with the rest
    /// in a single pass over the registry, so a first export of many
    /// series costs about one allocation each (and items in key order
    /// sort for free).
    pub fn gauge_set_batch<'a>(
        &mut self,
        label: &str,
        series: impl IntoIterator<Item = (&'a str, &'a str, f64)>,
    ) {
        let mut fresh = Vec::new();
        for (name, value, v) in series {
            encode(&mut self.scratch, name, [(label, value)].into_iter());
            match self.entries.get_mut(self.scratch.as_str()) {
                Some(MetricValue::Gauge(g)) => *g = v,
                Some(other) => panic!("metric {name} is a {}, not a gauge", other.type_name()),
                None => fresh.push((
                    MetricKey(self.scratch.as_str().into()),
                    MetricValue::Gauge(v),
                )),
            }
        }
        // A stable sort keeps a series' writes in order; of equal keys the
        // first one kept takes the last value, as the last write wins.
        fresh.sort_by(|a, b| a.0.cmp(&b.0));
        fresh.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            same
        });
        let mut batch: BTreeMap<MetricKey, MetricValue> = fresh.into_iter().collect();
        self.entries.append(&mut batch);
    }

    /// Record one observation into a histogram series.
    pub fn observe(&mut self, name: &str, labels: &[(&str, String)], v: u64) {
        self.record(
            name,
            labels,
            || MetricValue::Histogram(Box::default()),
            |value| match value {
                MetricValue::Histogram(h) => h.observe(v),
                other => panic!("metric {name} is a {}, not a histogram", other.type_name()),
            },
        );
    }

    /// Fold a whole pre-built histogram into a histogram series (how the
    /// SCU's per-link backoff distributions reach the registry).
    pub fn histogram_merge(&mut self, name: &str, labels: &[(&str, String)], h: &Histogram) {
        self.record(
            name,
            labels,
            || MetricValue::Histogram(Box::default()),
            |value| match value {
                MetricValue::Histogram(mine) => mine.merge(h),
                other => panic!("metric {name} is a {}, not a histogram", other.type_name()),
            },
        );
    }

    /// The series `name{labels}`, if present.
    fn get(&self, name: &str, labels: &[(&str, String)]) -> Option<&MetricValue> {
        let mut key = String::new();
        encode(&mut key, name, sorted_labels(labels));
        self.entries.get(key.as_str())
    }

    /// Current value of a counter (0 when absent).
    pub fn counter(&self, name: &str, labels: &[(&str, String)]) -> u64 {
        match self.get(name, labels) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Current value of a gauge, if present.
    pub fn gauge(&self, name: &str, labels: &[(&str, String)]) -> Option<f64> {
        match self.get(name, labels) {
            Some(MetricValue::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// A histogram series, if present.
    pub fn histogram(&self, name: &str, labels: &[(&str, String)]) -> Option<&Histogram> {
        match self.get(name, labels) {
            Some(MetricValue::Histogram(h)) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// Iterate all series in deterministic (name, labels) order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricKey, &MetricValue)> {
        self.entries.iter()
    }

    /// Merge `other` into `self`: counters add, gauges overwrite,
    /// histograms accumulate.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (key, value) in &other.entries {
            match (self.entries.get_mut(key), value) {
                (None, v) => {
                    self.entries.insert(key.clone(), v.clone());
                }
                (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => *a += b,
                (Some(MetricValue::Gauge(a)), MetricValue::Gauge(b)) => *a = *b,
                (Some(MetricValue::Histogram(a)), MetricValue::Histogram(b)) => a.merge(b),
                (Some(existing), incoming) => panic!(
                    "metric {} type mismatch on merge: {} vs {}",
                    key.name(),
                    existing.type_name(),
                    incoming.type_name()
                ),
            }
        }
    }

    /// Merge `other` with an extra label stamped on every incoming series —
    /// how per-node registries gain their `node="N"` label at aggregation.
    pub fn merge_labeled(&mut self, other: &MetricsRegistry, label: &str, value: &str) {
        let mut stamped = MetricsRegistry::new();
        for (key, v) in &other.entries {
            let mut labels: Vec<(Cow<str>, Cow<str>)> = key.labels().collect();
            labels.push((Cow::Borrowed(label), Cow::Borrowed(value)));
            labels.sort();
            let mut stamp = String::new();
            encode(
                &mut stamp,
                &key.name(),
                labels.iter().map(|(k, v)| (k.as_ref(), v.as_ref())),
            );
            stamped
                .entries
                .insert(MetricKey(stamp.into_boxed_str()), v.clone());
        }
        self.merge(&stamped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(n: u32) -> [(&'static str, String); 1] {
        [("node", n.to_string())]
    }

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("words", &node(3), 5);
        reg.counter_add("words", &node(3), 2);
        assert_eq!(reg.counter("words", &node(3)), 7);
        assert_eq!(reg.counter("words", &node(4)), 0);
        assert_eq!(reg.counter("missing", &[]), 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut reg = MetricsRegistry::new();
        reg.gauge_set("temp", &[], 1.5);
        reg.gauge_set("temp", &[], 2.5);
        assert_eq!(reg.gauge("temp", &[]), Some(2.5));
        assert_eq!(reg.gauge("absent", &[]), None);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1010);
        // 0 → bucket 0; 1 → (1); 2,3 → (3); 4 → (7); 1000 → (1023).
        assert_eq!(
            h.nonzero_buckets(),
            vec![(0, 1), (1, 1), (3, 2), (7, 1), (1023, 1)]
        );
    }

    #[test]
    fn histogram_quantiles_hit_bucket_bounds() {
        let mut h = Histogram::default();
        assert_eq!(h.p50(), 0);
        for _ in 0..90 {
            h.observe(3); // bucket bound 3
        }
        for _ in 0..9 {
            h.observe(100); // bucket bound 127
        }
        h.observe(5000); // bucket bound 8191
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 3);
        assert_eq!(h.p95(), 127);
        assert_eq!(h.p99(), 127);
        assert_eq!(h.quantile(1.0), 8191);
    }

    #[test]
    fn histogram_merge_via_registry() {
        let mut pre = Histogram::default();
        pre.observe(10);
        pre.observe(20);
        let mut reg = MetricsRegistry::new();
        reg.observe("lat", &[], 1);
        reg.histogram_merge("lat", &[], &pre);
        let h = reg.histogram("lat", &[]).unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 31);
    }

    #[test]
    fn label_order_is_canonical() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("m", &[("b", "2".into()), ("a", "1".into())], 1);
        reg.counter_add("m", &[("a", "1".into()), ("b", "2".into())], 1);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.counter("m", &[("b", "2".into()), ("a", "1".into())]), 2);
        let (key, _) = reg.iter().next().unwrap();
        let labels: Vec<(String, String)> = key
            .labels()
            .map(|(k, v)| (k.into_owned(), v.into_owned()))
            .collect();
        assert_eq!(labels, [("a".into(), "1".into()), ("b".into(), "2".into())]);
    }

    #[test]
    fn merge_semantics() {
        let mut a = MetricsRegistry::new();
        a.counter_add("c", &[], 1);
        a.gauge_set("g", &[], 1.0);
        a.observe("h", &[], 4);
        let mut b = MetricsRegistry::new();
        b.counter_add("c", &[], 2);
        b.gauge_set("g", &[], 9.0);
        b.observe("h", &[], 4);
        a.merge(&b);
        assert_eq!(a.counter("c", &[]), 3);
        assert_eq!(a.gauge("g", &[]), Some(9.0));
        assert_eq!(a.histogram("h", &[]).unwrap().count(), 2);
    }

    #[test]
    fn merge_labeled_stamps_every_series() {
        let mut node_local = MetricsRegistry::new();
        node_local.counter_add("dma_bytes", &[], 64);
        let mut machine = MetricsRegistry::new();
        machine.merge_labeled(&node_local, "node", "5");
        assert_eq!(machine.counter("dma_bytes", &node(5)), 64);
        assert_eq!(machine.counter("dma_bytes", &[]), 0);
    }

    #[test]
    fn a_gauge_batch_equals_one_gauge_set_each() {
        // Items out of key order, one series written twice, one already
        // present, and other names on both sides of the batch's.
        let items = [
            ("g", "9", 1.0),
            ("g", "10", 2.0),
            ("f", "9", 6.0),
            ("g", "9", 3.0),
            ("g", "0", 4.0),
            ("g", "x\0", 5.0),
        ];
        let mut start = MetricsRegistry::new();
        start.gauge_set("g", &node(10), -1.0);
        start.counter_add("a", &[], 1);
        start.counter_add("h", &node(1), 1);
        let mut batch = start.clone();
        batch.gauge_set_batch("node", items);
        let mut each = start;
        for (name, n, v) in items {
            each.gauge_set(name, &[("node", n.to_string())], v);
        }
        assert_eq!(batch, each);
        assert_eq!(batch.gauge("g", &node(9)), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn type_confusion_panics() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("x", &[], 1);
        reg.gauge_set("x", &[], 1.0);
    }
}
