//! `turnq_bench compare PARENT CHANGE [--claim=metric@workload]…`
//!
//! Reads two result files (one JSON record per line, as `--out` appends
//! them), refuses them unless every record was measured on the same host
//! under the same benchmark settings (the fingerprint less its
//! [`CODE_FIELDS`]), and gives each (end-to-end metric, workload) a
//! verdict using the bounds in `BENCHMARK.json`:
//!
//! * **better** — at least 10 pairs, the change wins at least 9 in 10
//!   (ties count for neither side), and the medians differ by more than
//!   the parent's quartile spread;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the bound;
//! * **unresolved** — the parent's own spread is wider than the bound and
//!   the change does not read better on every run;
//! * **unchanged** — otherwise.
//!
//! The i-th parent run of a workload pairs with the i-th change run, so
//! run the two sides alternately. A workload on which the change fails
//! more often than the parent counts as worse, and none of its gains meets
//! a claim.

use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::report::CODE_FIELDS;
use crate::stats::{median, quartiles};

/// A metric's direction and regression bound from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// True when higher is better.
    pub higher: bool,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// The end-to-end metrics declared in a `BENCHMARK.json` text.
pub fn load_bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k}"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                unit: field("unit")?
                    .as_str()
                    .ok_or("unit is not a string")?
                    .to_string(),
                higher: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// The untraced records of a result file.
pub fn load_records(text: &str) -> Result<Vec<Value>, String> {
    let mut out = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if v.get("trace") != Some(&Value::Bool(true)) {
            out.push(v);
        }
    }
    Ok(out)
}

/// A verdict for one (metric, workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Shown better by the pairs rule.
    Better,
    /// Median worse by more than the bound.
    Worse,
    /// Within the bound.
    Unchanged,
    /// The parent's spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric: `parent[i]` pairs with `change[i]`.
pub fn verdict(parent: &[f64], change: &[f64], higher: bool, bound: f64) -> Verdict {
    let better = |c: f64, p: f64| if higher { c > p } else { c < p };
    let n = parent.len().min(change.len());
    let wins = (0..n).filter(|&i| better(change[i], parent[i])).count();
    let (mp, mc) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    if n >= 10 && wins * 10 >= 9 * n && better(mc, mp) && (mc - mp).abs() > q3 - q1 {
        return Verdict::Better;
    }
    let scale = mp.abs().max(f64::MIN_POSITIVE);
    let worse_by = if higher { mp - mc } else { mc - mp } / scale;
    if worse_by > bound {
        return Verdict::Worse;
    }
    let every_run_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if (q3 - q1) / scale > bound && !every_run_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// The fingerprint fields two compared records must share.
fn conditions(rec: &Value) -> Vec<(String, Value)> {
    rec.get("fingerprint")
        .and_then(Value::as_object)
        .unwrap_or(&[])
        .iter()
        .filter(|(k, _)| !CODE_FIELDS.contains(&k.as_str()))
        .cloned()
        .collect()
}

fn workload(rec: &Value) -> &str {
    rec.get("workload").and_then(Value::as_str).unwrap_or("?")
}

fn metric_median(rec: &Value, name: &str) -> Option<f64> {
    rec.get("metrics")?.get(name)?.get("median")?.as_f64()
}

/// Compare two sets; returns the printed report and whether every claim
/// was met with nothing worse. `Err` refuses the comparison.
pub fn compare(
    parent: &[Value],
    change: &[Value],
    bounds: &[Bound],
    claims: &[String],
) -> Result<(String, bool), String> {
    let first = parent
        .first()
        .or(change.first())
        .ok_or("no untraced records to compare")?;
    let reference = conditions(first);
    for rec in parent.iter().chain(change) {
        let fp = conditions(rec);
        if fp != reference {
            let differing: Vec<&str> = fp
                .iter()
                .zip(&reference)
                .filter(|(a, b)| a != b)
                .map(|(a, _)| a.0.as_str())
                .collect();
            return Err(format!(
                "refusing to compare: fingerprints differ ({})",
                if differing.is_empty() {
                    "field sets".to_string()
                } else {
                    differing.join(", ")
                }
            ));
        }
    }
    let mut workloads: Vec<&str> = Vec::new();
    for rec in parent.iter().chain(change) {
        if !workloads.contains(&workload(rec)) {
            workloads.push(workload(rec));
        }
    }

    let mut out = String::new();
    let mut ok = true;
    let mut met: Vec<String> = Vec::new();
    let _ = writeln!(
        out,
        "{:<8} {:<24} {:<8} {:>12} {:>12} {:>12} {:>5} {:>5}  verdict",
        "workload", "metric", "unit", "parent", "change", "parent_iqr", "pairs", "wins"
    );
    for w in &workloads {
        let side = |recs: &[Value]| -> Vec<Value> {
            recs.iter().filter(|r| workload(r) == *w).cloned().collect()
        };
        let (p, c) = (side(parent), side(change));
        let failed =
            |recs: &[Value]| -> f64 { recs.iter().filter_map(|r| r.get("failed")?.as_f64()).sum() };
        let failures_rose = failed(&c) > failed(&p);
        if failures_rose {
            ok = false;
            let _ = writeln!(
                out,
                "{w:<8} failures rose from {} to {}: worse",
                failed(&p),
                failed(&c)
            );
        }
        for b in bounds {
            let pv: Vec<f64> = p.iter().filter_map(|r| metric_median(r, &b.name)).collect();
            let cv: Vec<f64> = c.iter().filter_map(|r| metric_median(r, &b.name)).collect();
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let v = verdict(&pv, &cv, b.higher, b.bound);
            let n = pv.len().min(cv.len());
            let better = |x: f64, y: f64| if b.higher { x > y } else { x < y };
            let wins = (0..n).filter(|&i| better(cv[i], pv[i])).count();
            let (q1, q3) = quartiles(&pv);
            let _ = writeln!(
                out,
                "{w:<8} {:<24} {:<8} {:>12.4} {:>12.4} {:>12.4} {n:>5} {wins:>5}  {}",
                b.name,
                b.unit,
                median(&pv),
                median(&cv),
                q3 - q1,
                v.name()
            );
            ok &= v != Verdict::Worse;
            if v == Verdict::Better && !failures_rose {
                met.push(format!("{}@{w}", b.name));
            }
        }
    }
    for claim in claims {
        let hit = met.contains(claim);
        ok &= hit;
        let _ = writeln!(
            out,
            "claim {claim}: {}",
            if hit { "met" } else { "not met" }
        );
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_pairs_rule_and_the_bound() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(verdict(&parent, &faster, true, 0.05), Verdict::Better);
        let slower: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        assert_eq!(verdict(&parent, &slower, true, 0.05), Verdict::Worse);
        assert_eq!(verdict(&parent, &parent, true, 0.05), Verdict::Unchanged);
        // Lower-is-better flips the sense.
        assert_eq!(verdict(&parent, &slower, false, 0.05), Verdict::Better);
        // A parent spread wider than the bound leaves it unresolved.
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 80.0 } else { 120.0 })
            .collect();
        assert_eq!(verdict(&noisy, &noisy, true, 0.05), Verdict::Unresolved);
        // Nine pairs are too few to claim a gain.
        assert_eq!(
            verdict(&parent[..9], &faster[..9], true, 0.05),
            Verdict::Unchanged
        );
    }

    /// A `pairs` record of `turn.mops` = `mops` with `failed` failures.
    fn rec(nproc: u32, rev: &str, seg_size: u32, failed: u32, mops: f64) -> Value {
        json::parse(&format!(
            "{{\"workload\": \"pairs\", \"failed\": {failed}, \"fingerprint\": {{\"git_rev\": \"{rev}\", \
             \"nproc\": {nproc}, \"seg_size\": {seg_size}}}, \"metrics\": {{\"turn.mops\": {{\"median\": {mops}}}}}}}"
        ))
        .unwrap()
    }

    fn bounds() -> Vec<Bound> {
        vec![Bound {
            name: "turn.mops".into(),
            unit: "Mops/s".into(),
            higher: true,
            bound: 0.05,
        }]
    }

    #[test]
    fn only_differing_host_or_settings_are_refused() {
        let b = bounds();
        assert!(compare(
            &[rec(2, "a", 16, 0, 1.0)],
            &[rec(2, "b", 16, 0, 1.0)],
            &b,
            &[]
        )
        .is_ok());
        // A retuned segment size is the code under test, not a condition.
        assert!(compare(
            &[rec(2, "a", 16, 0, 1.0)],
            &[rec(2, "b", 32, 0, 1.0)],
            &b,
            &[]
        )
        .is_ok());
        let err = compare(
            &[rec(2, "a", 16, 0, 1.0)],
            &[rec(4, "a", 16, 0, 1.0)],
            &b,
            &[],
        )
        .unwrap_err();
        assert!(err.contains("nproc"), "{err}");
    }

    #[test]
    fn a_gain_with_more_failures_meets_no_claim() {
        let parent: Vec<Value> = (0..10)
            .map(|i| rec(2, "a", 16, 0, 1.0 + i as f64 * 0.001))
            .collect();
        let claim = ["turn.mops@pairs".to_string()];
        let faster = |failed: u32| -> Vec<Value> {
            (0..10)
                .map(|i| rec(2, "b", 16, failed, 1.5 + i as f64 * 0.001))
                .collect()
        };
        let (table, ok) = compare(&parent, &faster(0), &bounds(), &claim).unwrap();
        assert!(
            ok && table.contains("claim turn.mops@pairs: met"),
            "{table}"
        );
        let (table, ok) = compare(&parent, &faster(1), &bounds(), &claim).unwrap();
        assert!(!ok, "{table}");
        assert!(table.contains("failures rose"), "{table}");
        assert!(table.contains("claim turn.mops@pairs: not met"), "{table}");
    }
}
