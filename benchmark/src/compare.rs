//! `compare <a.json> <b.json>`: two result files of `run`, workload by
//! workload and metric by metric, against the bounds of
//! [`END_TO_END`](crate::metrics::END_TO_END).

use slp_driver::json::Json;

use crate::metrics::{EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::range_share;

/// How a metric of the second file stands against the first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Better,
    /// Within the bound.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// Beyond the bound, but the passes of a run are spread wider than
    /// the bound and the two runs' passes overlap: not decided.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric of one run: the reported value and its passes.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// The value of the quietest pass.
    pub value: f64,
    /// The value in every pass.
    pub passes: Vec<f64>,
}

impl Observation {
    fn min(&self) -> f64 {
        self.passes.iter().copied().fold(self.value, f64::min)
    }

    fn max(&self) -> f64 {
        self.passes.iter().copied().fold(self.value, f64::max)
    }
}

/// Judges `b` against the baseline `a`.
pub fn judge(m: &EndToEnd, a: &Observation, b: &Observation) -> Verdict {
    let worse_by = if m.higher_is_better {
        (a.value - b.value) / a.value
    } else {
        (b.value - a.value) / a.value
    };
    if worse_by.abs() <= m.bound {
        return Verdict::Same;
    }
    let noisy = range_share(&a.passes) > m.bound || range_share(&b.passes) > m.bound;
    let overlap = a.min() <= b.max() && b.min() <= a.max();
    if noisy && overlap {
        Verdict::Unresolved
    } else if worse_by > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

fn observation(workload: &Json, metric: &str) -> Option<Observation> {
    let m = workload.get("end_to_end")?.get(metric)?;
    Some(Observation {
        value: m.get("value")?.f64()?,
        passes: m
            .get("passes")?
            .array()?
            .iter()
            .filter_map(Json::f64)
            .collect(),
    })
}

fn failed_share(workload: &Json) -> Option<f64> {
    let failed = workload.get("failed")?.f64()?;
    let attempted = workload.get("attempted")?.f64()?;
    Some(failed / attempted.max(1.0))
}

/// Compares two parsed result files and returns the printed report and
/// whether the second is acceptable: no `worse`, no higher
/// `failed_share`.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let mut report = format!(
        "{:<14} {:<22} {:>14} {:>14} {:>9}  verdict\n",
        "workload", "metric", "a", "b", "b vs a"
    );
    let mut acceptable = true;
    for (name, _) in WORKLOADS {
        let side = |file: &Json, which: &str| {
            file.get("workloads")
                .and_then(|w| w.get(name))
                .cloned()
                .ok_or_else(|| format!("file {which} has no workload {name}"))
        };
        let (wa, wb) = (side(a, "a")?, side(b, "b")?);
        for m in &END_TO_END {
            let get = |w: &Json, which: &str| {
                observation(w, m.name)
                    .ok_or_else(|| format!("file {which}: {name} has no metric {}", m.name))
            };
            let (oa, ob) = (get(&wa, "a")?, get(&wb, "b")?);
            let verdict = judge(m, &oa, &ob);
            acceptable &= verdict != Verdict::Worse;
            report += &format!(
                "{:<14} {:<22} {:>14.4} {:>14.4} {:>+8.1}%  {}\n",
                name,
                m.name,
                oa.value,
                ob.value,
                (ob.value / oa.value - 1.0) * 100.0,
                verdict.name()
            );
        }
        let share = |w: &Json, which: &str| {
            failed_share(w).ok_or_else(|| format!("file {which}: {name} has no job counts"))
        };
        let (fa, fb) = (share(&wa, "a")?, share(&wb, "b")?);
        let verdict = if fb > fa { "worse" } else { "same" };
        acceptable &= fb <= fa;
        report += &format!(
            "{:<14} {:<22} {:>14.6} {:>14.6} {:>9}  {}\n",
            name, "failed_share", fa, fb, "", verdict
        );
    }
    Ok((report, acceptable))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(value: f64, passes: &[f64]) -> Observation {
        Observation {
            value,
            passes: passes.to_vec(),
        }
    }

    const P50: EndToEnd = END_TO_END[1];
    const RATE: EndToEnd = END_TO_END[3];

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        assert_eq!(P50.name, "job_p50_us");
        assert_eq!(RATE.name, "jobs_per_s");
        let a = obs(100.0, &[100.0, 101.0, 102.0]);
        assert_eq!(judge(&P50, &a, &obs(120.0, &[120.0, 121.0])), Verdict::Same);
        assert_eq!(
            judge(&P50, &a, &obs(130.0, &[130.0, 131.0])),
            Verdict::Worse
        );
        assert_eq!(judge(&P50, &a, &obs(70.0, &[70.0, 71.0])), Verdict::Better);
        assert_eq!(judge(&RATE, &a, &obs(80.0, &[80.0, 81.0])), Verdict::Same);
        assert_eq!(judge(&RATE, &a, &obs(70.0, &[70.0, 71.0])), Verdict::Worse);
        assert_eq!(
            judge(&RATE, &a, &obs(130.0, &[130.0, 131.0])),
            Verdict::Better
        );
    }

    #[test]
    fn wide_overlapping_passes_are_unresolved_not_worse() {
        let a = obs(100.0, &[100.0, 125.0, 135.0]);
        let b = obs(130.0, &[130.0, 135.0, 150.0]);
        assert_eq!(judge(&P50, &a, &b), Verdict::Unresolved);
        // Wide but disjoint: every pass of b is slower than every pass of a.
        let b = obs(140.0, &[140.0, 150.0, 180.0]);
        assert_eq!(judge(&P50, &a, &b), Verdict::Worse);
    }

    fn file(p50: f64, failed: u64) -> Json {
        let metrics = END_TO_END
            .iter()
            .map(|m| {
                let value = if m.name == "job_p50_us" { p50 } else { 10.0 };
                let entry = Json::obj([
                    ("value", Json::float(value)),
                    ("passes", Json::Arr(vec![Json::float(value); 3])),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        let workload = Json::obj([
            ("attempted", Json::num(1000)),
            ("failed", Json::num(failed)),
            ("end_to_end", Json::Obj(metrics)),
        ]);
        let workloads = WORKLOADS
            .iter()
            .map(|(name, _)| (name.to_string(), workload.clone()))
            .collect();
        Json::obj([("workloads", Json::Obj(workloads))])
    }

    #[test]
    fn a_file_against_itself_is_acceptable_and_regressions_are_not() {
        let base = file(100.0, 0);
        let (report, ok) = compare(&base, &base).unwrap();
        assert!(ok, "{report}");
        assert_eq!(report.matches(" same").count(), 5 * (END_TO_END.len() + 1));
        assert!(!compare(&base, &file(150.0, 0)).unwrap().1);
        assert!(!compare(&base, &file(100.0, 1)).unwrap().1);
        assert!(compare(&base, &file(60.0, 0)).unwrap().1);
        assert!(compare(&base, &Json::obj([])).is_err());
    }
}
