//! Machine-readable driver reports.
//!
//! A [`DriverReport`] digests a batch run — one row per kernel plus
//! corpus-wide aggregates (status counts, cache counters, merged
//! per-phase timings) — and renders either a human summary table or
//! JSON. Row order is the batch's deterministic input order, and the
//! JSON serialisation (insertion-ordered objects, shortest-roundtrip
//! floats) is byte-stable for identical inputs, which is what the
//! determinism tests and the CI smoke job key on.

use slp_core::{CompileStats, Phase, PhaseTimings};

use crate::json::Json;
use crate::record::{record, Field, Record};
use crate::{CacheStats, KernelOutcome, ProveVerdict};

/// Totals of one serving session (the stdio loop or a whole TCP
/// server's lifetime), snapshotted from the handler's atomic counters.
///
/// The counters partition cleanly: every received request is counted in
/// [`requests`](ServeSummary::requests); every *admitted* compile
/// request in [`accepted`](ServeSummary::accepted); every `ok:true`
/// compile response in [`compiled`](ServeSummary::compiled), of which
/// [`cache_hits`](ServeSummary::cache_hits) were answered by a cache
/// tier and [`coalesced`](ServeSummary::coalesced) by piggy-backing on
/// an identical in-flight compile. Every `ok:false` response counts in
/// [`errors`](ServeSummary::errors), including the typed admission
/// ([`rejected_overload`](ServeSummary::rejected_overload)) and quota
/// ([`rejected_quota`](ServeSummary::rejected_quota)) rejections.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests processed (including malformed ones).
    pub requests: u64,
    /// Compile requests admitted past quota and admission control.
    pub accepted: u64,
    /// Compile requests that produced a kernel.
    pub compiled: u64,
    /// Of those, how many either cache tier answered.
    pub cache_hits: u64,
    /// Of those, how many piggy-backed on an identical in-flight
    /// compile instead of compiling or hitting a cache tier themselves.
    pub coalesced: u64,
    /// Compile requests rejected by the in-flight admission cap.
    pub rejected_overload: u64,
    /// Compile requests rejected by a tenant's token-bucket quota.
    pub rejected_quota: u64,
    /// Compile requests rejected because the memory-safety certificate
    /// proved an access out of bounds (wire code `S114`), before any
    /// compile work was spent on them.
    pub rejected_unsafe: u64,
    /// Requests answered with `"ok": false` (every rejection and
    /// malformed request included).
    pub errors: u64,
}

record!(ServeSummary {
    "requests" = requests: u64,
    "accepted" = accepted: u64,
    "compiled" = compiled: u64,
    "cache_hits" = cache_hits: u64,
    "coalesced" = coalesced: u64,
    "rejected_overload" = rejected_overload: u64,
    "rejected_quota" = rejected_quota: u64,
    "rejected_unsafe" = rejected_unsafe: u64,
    "errors" = errors: u64,
});

impl ServeSummary {
    /// The summary as a JSON object (stable key order, used by the
    /// `stats` verb, the metrics endpoint and [`DriverReport`]).
    pub fn to_json(&self) -> Json {
        Json::obj(self.pairs())
    }
}

/// How one batch entry ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowStatus {
    /// Compiled (or cache-served) at the requested configuration.
    Ok,
    /// The requested configuration failed; the row carries the scalar
    /// fallback's kernel.
    Degraded,
    /// No kernel was produced at all.
    Failed,
}

impl RowStatus {
    /// The stable name used in JSON (`"ok"`, `"degraded"`, `"failed"`).
    pub fn name(self) -> &'static str {
        match self {
            RowStatus::Ok => "ok",
            RowStatus::Degraded => "degraded",
            RowStatus::Failed => "failed",
        }
    }
}

/// One kernel's line in a [`DriverReport`].
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// The kernel's display name.
    pub name: String,
    /// The entry's verdict.
    pub status: RowStatus,
    /// Where the kernel came from (`"compiled"`, `"memory"`, `"disk"`);
    /// `None` when the entry failed.
    pub cache: Option<&'static str>,
    /// The request's cache key (the fallback's key for degraded rows);
    /// `None` when the entry failed.
    pub fingerprint: Option<String>,
    /// The kernel's compile statistics (all zero when the entry failed).
    pub stats: CompileStats,
    /// The symbolic proof verdict; `None` unless the batch ran at
    /// [`crate::VerifyLevel::Prove`].
    pub prove: Option<ProveVerdict>,
    /// Error-severity verify findings; `None` when verification was not
    /// requested or the entry failed.
    pub verify_errors: Option<usize>,
    /// Warning-severity verify findings, same caveats.
    pub verify_warnings: Option<usize>,
    /// Rendered verify diagnostics.
    pub diagnostics: Vec<String>,
    /// The failure (for failed rows) or the original failure that forced
    /// degradation (for degraded rows).
    pub error: Option<String>,
    /// Per-phase timings of the compile that produced the kernel.
    pub timings: PhaseTimings,
    /// Wall nanoseconds the driver spent on this entry.
    pub wall_nanos: u64,
}

/// The aggregated, machine-readable result of a batch run.
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// One row per request, in input order.
    pub rows: Vec<KernelRow>,
    /// Sum of every row's per-phase timings.
    pub phase_totals: PhaseTimings,
    /// Wall nanoseconds of the whole batch (caller-measured; covers the
    /// parallel region, so it is far less than the sum of row times).
    pub wall_nanos: u64,
    /// The cache's counters after the run, when a cache was used.
    pub cache: Option<CacheStats>,
}

impl DriverReport {
    /// Digests batch outcomes into a report.
    pub fn from_outcomes(
        outcomes: &[KernelOutcome],
        wall_nanos: u64,
        cache: Option<CacheStats>,
    ) -> Self {
        let mut rows = Vec::with_capacity(outcomes.len());
        let mut phase_totals = PhaseTimings::new();
        for outcome in outcomes {
            let row = match &outcome.result {
                Ok(compiled) => {
                    phase_totals.merge(&compiled.timings);
                    let (verify_errors, verify_warnings, diagnostics) = match &compiled.report {
                        Some(report) => (
                            Some(report.error_count()),
                            Some(report.warning_count()),
                            report.diagnostics.iter().map(|d| d.to_string()).collect(),
                        ),
                        None => (None, None, Vec::new()),
                    };
                    KernelRow {
                        name: outcome.name.clone(),
                        status: if outcome.degraded.is_some() {
                            RowStatus::Degraded
                        } else {
                            RowStatus::Ok
                        },
                        cache: Some(compiled.cache.name()),
                        fingerprint: Some(compiled.fingerprint.to_hex()),
                        stats: compiled.kernel.stats,
                        prove: compiled.prove,
                        verify_errors,
                        verify_warnings,
                        diagnostics,
                        error: outcome.degraded.clone(),
                        timings: compiled.timings,
                        wall_nanos: compiled.wall_nanos,
                    }
                }
                Err(err) => KernelRow {
                    name: outcome.name.clone(),
                    status: RowStatus::Failed,
                    cache: None,
                    fingerprint: None,
                    stats: CompileStats::default(),
                    prove: None,
                    verify_errors: None,
                    verify_warnings: None,
                    diagnostics: Vec::new(),
                    error: Some(err.to_string()),
                    timings: PhaseTimings::new(),
                    wall_nanos: 0,
                },
            };
            rows.push(row);
        }
        DriverReport {
            rows,
            phase_totals,
            wall_nanos,
            cache,
        }
    }

    /// Rows that produced no kernel.
    pub fn failed_count(&self) -> usize {
        self.count(RowStatus::Failed)
    }

    fn count(&self, status: RowStatus) -> usize {
        self.rows.iter().filter(|r| r.status == status).count()
    }

    /// Error-severity verify findings summed over all rows.
    fn verify_error_count(&self) -> usize {
        self.rows.iter().filter_map(|r| r.verify_errors).sum()
    }

    /// Certificate verdict totals summed over all rows:
    /// `(proven_safe, unknown, proven_faulting)`.
    fn access_verdict_counts(&self) -> (usize, usize, usize) {
        self.rows.iter().fold((0, 0, 0), |(s, u, f), r| {
            (
                s + r.stats.accesses_proven_safe,
                u + r.stats.accesses_unknown,
                f + r.stats.accesses_proven_faulting,
            )
        })
    }

    /// Rows whose proof attempt ended with the given verdict.
    fn prove_count(&self, verdict: ProveVerdict) -> usize {
        self.rows
            .iter()
            .filter(|r| r.prove == Some(verdict))
            .count()
    }

    /// Whether every row is `ok` and no verify checker found an error —
    /// the CI smoke job's pass condition.
    pub fn all_clean(&self) -> bool {
        self.count(RowStatus::Ok) == self.rows.len() && self.verify_error_count() == 0
    }

    /// The full report as JSON (deterministic key order).
    pub fn to_json(&self) -> Json {
        let mut kernels = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            let mut fields = vec![
                ("name", row.name.to_json()),
                ("status", Json::str(row.status.name())),
                ("cache", row.cache.map_or(Json::Null, Json::str)),
                ("fingerprint", row.fingerprint.to_json()),
            ];
            fields.extend(row.stats.pairs());
            // `prove` keeps its historical place: after the access
            // tallies, before the solver counters.
            let solver = fields
                .iter()
                .position(|(key, _)| *key == "opt_nodes")
                .unwrap_or(fields.len());
            fields.insert(solver, ("prove", row.prove.to_json()));
            fields.extend([
                ("verify_errors", row.verify_errors.to_json()),
                ("verify_warnings", row.verify_warnings.to_json()),
                ("diagnostics", row.diagnostics.to_json()),
                ("error", row.error.to_json()),
                ("phase_nanos", row.timings.to_json()),
                ("wall_nanos", row.wall_nanos.to_json()),
            ]);
            kernels.push(Json::obj(fields));
        }

        let mut fields = vec![
            ("kernels", Json::num(self.rows.len() as u64)),
            ("ok", Json::num(self.count(RowStatus::Ok) as u64)),
            (
                "degraded",
                Json::num(self.count(RowStatus::Degraded) as u64),
            ),
            ("failed", Json::num(self.failed_count() as u64)),
            ("verify_errors", Json::num(self.verify_error_count() as u64)),
            ("accesses", {
                let (safe, unknown, faulting) = self.access_verdict_counts();
                Json::obj([
                    ("proven_safe", Json::num(safe as u64)),
                    ("unknown", Json::num(unknown as u64)),
                    ("proven_faulting", Json::num(faulting as u64)),
                ])
            }),
            (
                "prove",
                Json::obj(
                    ProveVerdict::ALL.map(|v| (v.name(), Json::num(self.prove_count(v) as u64))),
                ),
            ),
            ("wall_nanos", Json::num(self.wall_nanos)),
            ("phase_nanos", timings_json(&self.phase_totals)),
        ];
        if let Some(stats) = &self.cache {
            fields.push(("cache", stats_json(stats)));
        }
        fields.push(("rows", Json::Arr(kernels)));
        Json::obj(fields)
    }

    /// A fixed-width human summary — one line per kernel plus totals.
    pub fn summary_table(&self) -> String {
        let name_width = self
            .rows
            .iter()
            .map(|r| r.name.len())
            .max()
            .unwrap_or(6)
            .max(6);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<name_width$}  {:<8}  {:<8}  {:>5}  {:>9}  {:>6}  {:>9}\n",
            "kernel", "status", "cache", "sw", "vec/stmts", "verify", "time"
        ));
        for row in &self.rows {
            // A proof verdict is strictly more informative than pass/fail,
            // so it takes over the verify column when present.
            let verify = match (row.prove, row.verify_errors) {
                (Some(v), _) => v.name().to_string(),
                (None, None) => "-".to_string(),
                (None, Some(0)) => "pass".to_string(),
                (None, Some(n)) => format!("{n} err"),
            };
            out.push_str(&format!(
                "{:<name_width$}  {:<8}  {:<8}  {:>5}  {:>9}  {:>6}  {:>9}\n",
                row.name,
                row.status.name(),
                row.cache.unwrap_or("-"),
                row.stats.superwords,
                format!("{}/{}", row.stats.vectorized_stmts, row.stats.stmts),
                verify,
                millis(row.wall_nanos),
            ));
        }
        out.push_str(&format!(
            "{} kernels: {} ok, {} degraded, {} failed in {}\n",
            self.rows.len(),
            self.count(RowStatus::Ok),
            self.count(RowStatus::Degraded),
            self.failed_count(),
            millis(self.wall_nanos),
        ));
        if self.rows.iter().any(|r| r.prove.is_some()) {
            out.push_str(&format!(
                "proofs: {} proved, {} degraded to differential, {} refuted\n",
                self.prove_count(ProveVerdict::Proved),
                self.prove_count(ProveVerdict::Budget),
                self.prove_count(ProveVerdict::Refuted),
            ));
        }
        let solved = || self.rows.iter().map(|r| &r.stats);
        if solved().any(|s| s.opt_nodes > 0 || s.opt_degraded) {
            let proven = solved()
                .filter(|s| s.opt_nodes > 0 && s.opt_gap_ppm == 0 && !s.opt_degraded)
                .count();
            let degraded = solved().filter(|s| s.opt_degraded).count();
            let nodes: u64 = solved().map(|s| s.opt_nodes).sum();
            out.push_str(&format!(
                "optimal: {proven} proven optimal, {degraded} hit the solver budget, {nodes} nodes\n",
            ));
        }
        let (safe, unknown, faulting) = self.access_verdict_counts();
        if safe + unknown + faulting > 0 {
            out.push_str(&format!(
                "safety: {safe} accesses proven safe, {unknown} unknown, {faulting} proven faulting\n",
            ));
        }
        if let Some(stats) = &self.cache {
            out.push_str(&format!(
                "cache: {} memory + {} disk hits / {} lookups ({:.1}% hit rate)\n",
                stats.memory_hits,
                stats.disk_hits,
                stats.lookups(),
                stats.hit_rate() * 100.0,
            ));
        }
        let phases: Vec<String> = Phase::ALL
            .iter()
            .map(|&p| format!("{p} {}", millis(self.phase_totals.nanos(p))))
            .collect();
        out.push_str(&format!("phases: {}\n", phases.join(" | ")));
        out
    }
}

fn millis(nanos: u64) -> String {
    format!("{:.2}ms", nanos as f64 / 1.0e6)
}

/// Phase timings as a `{"unroll": nanos, ...}` object — the shared
/// serialization used by batch reports, the serve protocol and the
/// metrics endpoint.
pub fn timings_json(timings: &PhaseTimings) -> Json {
    timings.to_json()
}

/// Cache counters as JSON — shared by batch reports and the serve
/// protocol's `stats` verb.
pub fn stats_json(stats: &CacheStats) -> Json {
    let mut pairs = stats.pairs();
    pairs.push(("hit_rate", Json::float(stats.hit_rate())));
    Json::obj(pairs)
}
