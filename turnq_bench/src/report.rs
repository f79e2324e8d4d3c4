//! What one invocation reports: metrics with their spread, the correctness
//! tally, and the fingerprint of the conditions they were measured under.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::json::quote;
use crate::stats::{median, quartiles};

/// Result-file schema tag.
pub const SCHEMA: &str = "turnq-bench/2";

/// One metric: its repetitions' values.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// One value per repetition.
    pub values: Vec<f64>,
}

impl Metric {
    /// The reported value: the median over repetitions.
    pub fn median(&self) -> f64 {
        median(&self.values)
    }
}

/// The conditions a result was measured under. Two results compare only
/// when the host and benchmark fields are equal; the commit and the three
/// fields that describe the code under test are recorded for information,
/// so a change that retunes them can still be judged.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Commit of the measured code, when the checkout says (not compared).
    pub git_rev: String,
    /// `available_parallelism` of the host.
    pub nproc: usize,
    /// CPU model string.
    pub cpu_model: String,
    /// `turnq_telemetry::ENABLED`: probes compiled in.
    pub telemetry: bool,
    /// `turn_queue::DEFAULT_SEG_SIZE`.
    pub seg_size: usize,
    /// `turn_queue::DEFAULT_FAST_TRIES`.
    pub fast_tries: u32,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Worker threads per cell.
    pub workers: usize,
    /// `max_threads` of every queue.
    pub max_threads: usize,
    /// Measured seconds per run (windows only).
    pub seconds: f64,
    /// Repetitions per cell.
    pub reps: usize,
}

impl Fingerprint {
    /// `(field, value)` pairs in output order, values as JSON.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("git_rev", quote(&self.git_rev)),
            ("nproc", self.nproc.to_string()),
            ("cpu_model", quote(&self.cpu_model)),
            ("telemetry", self.telemetry.to_string()),
            ("seg_size", self.seg_size.to_string()),
            ("fast_tries", self.fast_tries.to_string()),
            ("profile", quote(self.profile)),
            ("workers", self.workers.to_string()),
            ("max_threads", self.max_threads.to_string()),
            ("seconds", self.seconds.to_string()),
            ("reps", self.reps.to_string()),
        ]
    }
}

/// Fingerprint fields that describe the code under test rather than the
/// host or the benchmark; `compare` does not require them to match.
pub const CODE_FIELDS: [&str; 4] = ["git_rev", "telemetry", "seg_size", "fast_tries"];

/// The commit checked out in the repository that holds this package, or
/// "unknown" outside a git checkout.
pub fn git_rev() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    head_commit(&root.join(".git")).unwrap_or_else(|| "unknown".to_string())
}

/// The commit `HEAD` names under `dot_git`: a git directory, or a
/// worktree's `.git` file pointing at one. Refs are looked up loose, then
/// in `packed-refs`, in the worktree's own directory and then in the
/// common one.
fn head_commit(dot_git: &Path) -> Option<String> {
    let read = |p: &Path| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let base = dot_git.parent()?;
    let git_dir = match read(dot_git) {
        Some(link) => base.join(link.strip_prefix("gitdir:")?.trim()),
        None => dot_git.to_path_buf(),
    };
    let common = read(&git_dir.join("commondir")).map_or(git_dir.clone(), |c| git_dir.join(c));
    let head = read(&git_dir.join("HEAD"))?;
    let Some(name) = head.strip_prefix("ref:").map(str::trim) else {
        return Some(head);
    };
    let loose = [&git_dir, &common]
        .into_iter()
        .find_map(|dir| read(&dir.join(name)));
    loose.or_else(|| {
        let packed = read(&common.join("packed-refs"))?;
        packed.lines().find_map(|l| {
            let (hash, r) = l.split_once(' ')?;
            (r == name).then(|| hash.to_string())
        })
    })
}

/// The host's CPU model (`/proc/cpuinfo`), or "unknown".
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One invocation's result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Measurement conditions.
    pub fingerprint: Fingerprint,
    /// Queue calls made.
    pub attempted: u64,
    /// Failures found by the checker.
    pub failed: u64,
    /// Every metric, in output order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Failures over attempted calls.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Process exit code: non-zero when any check failed.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.failed > 0)
    }

    /// Human-readable table: median, quartiles and repetitions per metric.
    pub fn table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "workload={} seed={} trace={} attempted={} failed={} fail_ratio={:.3e}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.attempted,
            self.failed,
            self.fail_ratio()
        );
        let _ = writeln!(
            s,
            "{:<30} {:<8} {:>14} {:>14} {:>14} {:>3}",
            "metric", "unit", "median", "q1", "q3", "n"
        );
        for m in &self.metrics {
            let (q1, q3) = quartiles(&m.values);
            let _ = writeln!(
                s,
                "{:<30} {:<8} {:>14.6} {:>14.6} {:>14.6} {:>3}",
                m.name,
                m.unit,
                m.median(),
                q1,
                q3,
                m.values.len()
            );
        }
        s
    }

    /// The one-line result: `correct`, `attempted`, `failed`, and each
    /// metric's median with its unit.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    num(m.median()),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The result-file record: the fingerprint, the tally, and each
    /// metric's median, quartiles and repetition values.
    pub fn record(&self) -> String {
        let fp: Vec<String> = self
            .fingerprint
            .fields()
            .into_iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let (q1, q3) = quartiles(&m.values);
                let values: Vec<String> = m.values.iter().map(|&v| num(v)).collect();
                format!(
                    "{}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"values\": [{}]}}",
                    quote(&m.name),
                    quote(m.unit),
                    num(m.median()),
                    num(q1),
                    num(q3),
                    m.values.len(),
                    values.join(", ")
                )
            })
            .collect();
        format!(
            "{{\"schema\": {}, \"workload\": {}, \"seed\": {}, \"trace\": {}, \"fingerprint\": {{{}}}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            quote(SCHEMA),
            quote(self.workload),
            self.seed,
            self.trace,
            fp.join(", "),
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_commit_follows_worktree_links_and_packed_refs() {
        let root = std::env::temp_dir().join(format!("turnq-bench-git-{}", std::process::id()));
        let main = root.join("main/.git");
        let wt = main.join("worktrees/side");
        fs::create_dir_all(main.join("refs/heads")).unwrap();
        fs::create_dir_all(&wt).unwrap();
        fs::create_dir_all(root.join("side")).unwrap();
        fs::write(main.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        fs::write(main.join("refs/heads/main"), "aaaa\n").unwrap();
        fs::write(
            main.join("packed-refs"),
            "# pack-refs\nbbbb refs/heads/side\n",
        )
        .unwrap();
        fs::write(wt.join("HEAD"), "ref: refs/heads/side\n").unwrap();
        fs::write(wt.join("commondir"), "../..\n").unwrap();
        fs::write(
            root.join("side/.git"),
            format!("gitdir: {}\n", wt.display()),
        )
        .unwrap();

        assert_eq!(head_commit(&main).as_deref(), Some("aaaa"));
        assert_eq!(
            head_commit(&root.join("side/.git")).as_deref(),
            Some("bbbb")
        );
        fs::write(main.join("HEAD"), "cccc\n").unwrap();
        assert_eq!(head_commit(&main).as_deref(), Some("cccc"));
        assert_eq!(head_commit(&root.join("none/.git")), None);
        fs::remove_dir_all(&root).unwrap();
    }
}
