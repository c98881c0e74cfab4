//! The traced run's span recorder.
//!
//! Spans are timed from the benchmark's own code around calls into each
//! layer's public functions; where a layer only reports a duration
//! (`PlaceSolution::stage1_seconds`, a report's `wall_ms`) the span is
//! *derived*: its length is the reported duration, placed inside its
//! parent. Spans stay in memory and are written out when the run ends.
//!
//! Attribution: a span's self time is its length minus its children's.
//! Every span is a layer except the op root (`op`) and the placer-call
//! containers (`place.*`), whose self time is time no layer accounts for.
//! The coverage gate requires layers to account for ≥95% of every op.

use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom};
use std::sync::Mutex;
use std::time::Instant;

use placer_jobs::json::{escape, number};

use crate::util::median;

/// Least share of each op's latency the layer spans must account for.
pub const MIN_COVERAGE: f64 = 0.95;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Op the span belongs to (`None` for set-up).
    pub op: Option<usize>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
    /// Length reported by the layer rather than timed around the call.
    pub derived: bool,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }

    fn is_layer(&self) -> bool {
        self.name != "op" && !self.name.starts_with("place.")
    }
}

/// Span sink; every method is a no-op when tracing is off.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    fn push(&self, span: Span) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Records a span timed around a call.
    pub fn timed(
        &self,
        name: &str,
        op: Option<usize>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.push(Span {
            name: name.to_string(),
            op,
            parent,
            start_us: self.us(start),
            end_us: self.us(end),
            derived: false,
        })
    }

    /// Records a derived span of `ms` inside `parent`, anchored at the
    /// parent's start (`at_end = false`) or end.
    pub fn derived(
        &self,
        name: &str,
        parent: Option<usize>,
        ms: f64,
        at_end: bool,
    ) -> Option<usize> {
        let parent_idx = parent?;
        let (op, start_us, end_us) = {
            let spans = self.spans.lock().expect("span recorder poisoned");
            let p = &spans[parent_idx];
            (p.op, p.start_us, p.end_us)
        };
        let len = ms.max(0.0) * 1e3;
        let (s, e) = if at_end {
            (end_us - len, end_us)
        } else {
            (start_us, start_us + len)
        };
        self.push(Span {
            name: name.to_string(),
            op,
            parent: Some(parent_idx),
            start_us: s,
            end_us: e,
            derived: true,
        })
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span recorder poisoned"))
    }
}

/// Self time (ms) of every span.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::ms).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.ms();
        }
    }
    own
}

/// Per op: the share of the op span's length that layer self times
/// account for. Ops are keyed by id; only ops with an `op` root appear.
pub fn coverage(spans: &[Span]) -> BTreeMap<usize, f64> {
    let own = self_times(spans);
    let mut total: BTreeMap<usize, f64> = BTreeMap::new();
    let mut covered: BTreeMap<usize, f64> = BTreeMap::new();
    // Descendants of an op root only: post-op checks share the op id but
    // have no parent and are not part of its latency.
    let mut in_op = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        in_op[i] = s.name == "op" || s.parent.is_some_and(|p| in_op[p]);
        match (s.op, in_op[i]) {
            (Some(op), true) if s.name == "op" => {
                *total.entry(op).or_default() += s.ms();
            }
            (Some(op), true) if s.is_layer() => {
                *covered.entry(op).or_default() += own[i];
            }
            _ => {}
        }
    }
    total
        .into_iter()
        .map(|(op, t)| {
            (
                op,
                if t > 0.0 {
                    covered.get(&op).copied().unwrap_or(0.0) / t
                } else {
                    1.0
                },
            )
        })
        .collect()
}

/// Per-layer aggregates: every timing is reported as busy sum, median
/// and call count; plain values (counts, fractions) as themselves.
#[derive(Debug, Default)]
pub struct Layers {
    timings: BTreeMap<String, Vec<f64>>,
    values: BTreeMap<String, f64>,
}

impl Layers {
    /// Folds every layer span into the timing of its name.
    pub fn add_spans(&mut self, spans: &[Span]) {
        for s in spans.iter().filter(|s| s.is_layer()) {
            self.timings.entry(s.name.clone()).or_default().push(s.ms());
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.values.entry(name.to_string()).or_default() += value;
    }

    /// The metric `name` (a `<timing>_ms`, `<timing>_p50_ms`,
    /// `<timing>_calls` or a plain value); 0 when the workload never
    /// reaches that layer.
    pub fn metric(&self, name: &str) -> f64 {
        if let Some(v) = self.values.get(name) {
            return *v;
        }
        let lookup = |suffix: &str| {
            name.strip_suffix(suffix)
                .and_then(|base| self.timings.get(base))
        };
        if let Some(v) = lookup("_p50_ms") {
            median(v)
        } else if let Some(v) = lookup("_calls") {
            v.len() as f64
        } else if let Some(v) = lookup("_ms") {
            v.iter().sum()
        } else {
            0.0
        }
    }
}

/// One span as a JSON line for the run's record file.
pub fn span_line(index: usize, span: &Span, self_ms: f64) -> String {
    format!(
        r#"{{"span": {index}, "name": "{}", "op": {}, "parent": {}, "start_us": {}, "end_us": {}, "self_ms": {}, "derived": {}}}"#,
        escape(&span.name),
        span.op.map_or("null".into(), |o| o.to_string()),
        span.parent.map_or("null".into(), |p| p.to_string()),
        number(span.start_us),
        number(span.end_us),
        number(self_ms),
        span.derived
    )
}

/// Tails this process's own stderr when it has been redirected to a file
/// (the traced run), so diagnostics the placers print under
/// `PLACER_VERBOSE` can be attributed to the op that printed them.
pub struct StderrLog {
    file: std::fs::File,
    offset: u64,
}

impl StderrLog {
    /// Opens the file named by `E2EBENCH_STDERR`, skipping what is there.
    pub fn from_env() -> Option<Self> {
        let path = std::env::var_os("E2EBENCH_STDERR")?;
        let mut file = std::fs::File::open(path).ok()?;
        let offset = file.seek(SeekFrom::End(0)).ok()?;
        Some(StderrLog { file, offset })
    }

    /// Lines written since the last call.
    pub fn new_lines(&mut self) -> Vec<String> {
        let mut text = String::new();
        if self.file.seek(SeekFrom::Start(self.offset)).is_err()
            || self.file.read_to_string(&mut text).is_err()
        {
            return Vec::new();
        }
        self.offset += text.len() as u64;
        text.lines().map(str::to_string).collect()
    }
}

/// How many of `lines` report a MILP solve stopped by its time limit.
pub fn milp_capped(lines: &[String]) -> usize {
    lines
        .iter()
        .filter(|l| l.contains("milp: budget exhausted"))
        .count()
}
