//! The span recorder of the traced pass.
//!
//! Spans are recorded by the benchmark around calls into the crates'
//! public functions, kept in memory and written out once at the end.
//! Each span carries its job and the span that caused it; a span with
//! no parent is either a job's root (named [`JOB`]) or a *side span*:
//! a measurement taken next to the job (a replay on a private handler,
//! a second `lex`) whose time is not part of the job.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of every job's root span.
pub const JOB: &str = "job";

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.compile`.
    pub name: &'static str,
    /// The job this span belongs to (shared by all spans of one job).
    pub job: u32,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans for one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    job: u32,
}

impl Recorder {
    /// A recorder whose clock starts at `epoch` (threads of one pass
    /// share it, so their spans line up in the trace file).
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    /// Sets the job id given to spans opened from now on.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: u32) {
        let now = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// Times `f` as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Consumes the recorder.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span was closed");
        self.spans
    }
}

/// Concatenates per-thread span lists, re-basing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    for list in lists {
        let base = out.len() as u32;
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children of one recorder never overlap, so that part
/// is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::nanos).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.nanos());
        }
    }
    own
}

/// Totals of a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Σ duration by span name.
    pub nanos: BTreeMap<&'static str, u64>,
    /// Span count by name.
    pub count: BTreeMap<&'static str, u64>,
    /// Σ duration of the job root spans.
    pub job_nanos: u64,
    /// Σ self time of the job root spans: job time no child accounts for.
    pub job_self_nanos: u64,
}

impl Totals {
    /// Sums `spans` by name and reconciles the job roots.
    pub fn of(spans: &[Span]) -> Totals {
        let own = self_times(spans);
        let mut t = Totals::default();
        for (s, own) in spans.iter().zip(own) {
            *t.nanos.entry(s.name).or_default() += s.nanos();
            *t.count.entry(s.name).or_default() += 1;
            if s.name == JOB && s.parent.is_none() {
                t.job_nanos += s.nanos();
                t.job_self_nanos += own;
            }
        }
        t
    }

    /// Number of jobs traced.
    pub fn jobs(&self) -> u64 {
        self.count.get(JOB).copied().unwrap_or(0)
    }

    /// Σ duration of spans named `name`, in microseconds.
    pub fn micros(&self, name: &str) -> f64 {
        self.nanos.get(name).copied().unwrap_or(0) as f64 / 1e3
    }

    /// Mean duration of the spans named `name` in microseconds — over
    /// the spans that exist, not over all jobs.
    pub fn mean_micros(&self, name: &str) -> f64 {
        match self.count.get(name) {
            Some(&n) if n > 0 => self.micros(name) / n as f64,
            _ => 0.0,
        }
    }

    /// Σ duration of `name` over the number of jobs, in microseconds.
    pub fn micros_per_job(&self, name: &str) -> f64 {
        match self.jobs() {
            0 => 0.0,
            n => self.micros(name) / n as f64,
        }
    }

    /// Share of job time that no child span accounts for.
    pub fn unaccounted_share(&self) -> f64 {
        if self.job_nanos == 0 {
            0.0
        } else {
            self.job_self_nanos as f64 / self.job_nanos as f64
        }
    }
}

/// Renders the spans of the first `max_jobs` jobs as the trace file: a
/// JSON array of `{name, job, parent, start_ns, end_ns}`, `parent`
/// being an index into the array or `null`.
pub fn render(spans: &[Span], max_jobs: u32) -> String {
    // Jobs are numbered per thread, so the cut keeps every thread's
    // first jobs and parents stay in range only after re-indexing.
    let mut index = vec![None; spans.len()];
    let mut kept = 0u32;
    for (i, s) in spans.iter().enumerate() {
        if s.job < max_jobs {
            index[i] = Some(kept);
            kept += 1;
        }
    }
    let mut out = String::from("[\n");
    let mut first = true;
    for (i, s) in spans.iter().enumerate() {
        if index[i].is_none() {
            continue;
        }
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let parent = match s.parent.and_then(|p| index[p as usize]) {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        write!(
            out,
            "{{\"name\":\"{}\",\"job\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.job, parent, s.start_ns, s.end_ns
        )
        .expect("write to string");
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            job: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(JOB, None, 0, 100),
            span("a", Some(0), 10, 50),
            span("a.inner", Some(1), 20, 30),
            span("b", Some(0), 60, 90),
            span("side", None, 100, 140),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 10, 30, 40]);
    }

    #[test]
    fn reconciliation_counts_only_job_roots() {
        let spans = vec![
            span(JOB, None, 0, 100),
            span("a", Some(0), 0, 95),
            span("side", None, 100, 1000),
            span(JOB, None, 1000, 1100),
            span("a", Some(3), 1000, 1085),
        ];
        let t = Totals::of(&spans);
        assert_eq!(t.jobs(), 2);
        assert_eq!(t.job_nanos, 200);
        assert_eq!(t.job_self_nanos, 20);
        assert!((t.unaccounted_share() - 0.10).abs() < 1e-12);
        assert!((t.micros_per_job("a") - 0.09).abs() < 1e-12);
        assert!((t.mean_micros("side") - 0.9).abs() < 1e-12);
        assert_eq!(t.mean_micros("missing"), 0.0);
    }

    #[test]
    fn recorder_nests_and_merges() {
        let mut r = Recorder::new(Instant::now());
        r.set_job(3);
        let job = r.enter(JOB);
        let v = r.time("leaf", || 7);
        assert_eq!(v, 7);
        r.exit(job);
        let a = r.into_spans();
        assert_eq!(a[1].parent, Some(0));
        assert_eq!(a[1].job, 3);
        assert!(a[0].start_ns <= a[1].start_ns && a[1].end_ns <= a[0].end_ns);
        let merged = merge(vec![a.clone(), a]);
        assert_eq!(merged[3].parent, Some(2));
        assert_eq!(merged[2].parent, None);
    }

    #[test]
    fn render_keeps_first_jobs_and_reindexes_parents() {
        let mut spans = vec![span(JOB, None, 0, 10), span("a", Some(0), 1, 2)];
        spans[0].job = 5;
        spans[1].job = 5;
        spans.push(span(JOB, None, 10, 20));
        spans.push(span("a", Some(2), 11, 12));
        let text = render(&spans, 1);
        assert_eq!(text.matches("\"name\"").count(), 2);
        assert!(text.contains("\"parent\":0"));
        assert!(!text.contains("\"job\":5"));
    }
}
