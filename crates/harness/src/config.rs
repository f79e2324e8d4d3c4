//! Run-scale configuration: paper-scale numbers, container-scale defaults,
//! environment and CLI overrides.
//!
//! The paper ran on a 32-core Opteron with 2×10⁸ latency samples per run;
//! this reproduction usually runs in a small container (often a single
//! core), so every knob defaults to a scaled-down value and can be raised
//! back to paper scale:
//!
//! | knob | paper | default here | env override |
//! |------|-------|--------------|--------------|
//! | threads            | 30      | min(8, 2×cores…) | `TURNQ_THREADS` |
//! | bursts per run     | 200     | 20     | `TURNQ_BURSTS` |
//! | items per burst    | 10⁶     | 10⁴    | `TURNQ_BURST_ITEMS` |
//! | runs               | 7 / 5   | 3      | `TURNQ_RUNS` |
//! | enq+deq pairs      | 10⁸     | 2×10⁵  | `TURNQ_PAIRS` |
//! | warmup bursts      | 10      | 2      | `TURNQ_WARMUP` |
//!
//! Command-line flags of the form `--threads=N` (see [`Args`]) take
//! precedence over the environment.

use std::collections::BTreeMap;

/// Scale parameters shared by all benchmark binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Competing threads.
    pub threads: usize,
    /// Measured bursts per run (latency protocol, §4.1).
    pub bursts: usize,
    /// Items per burst, across all threads.
    pub burst_items: usize,
    /// Independent runs (min–max / median aggregation).
    pub runs: usize,
    /// Enqueue+dequeue pairs for the Figure 2 protocol.
    pub pairs: usize,
    /// Unmeasured warmup bursts.
    pub warmup: usize,
    /// Artificial "work" spins between consecutive operations, ~the
    /// 50-100ns random delay of prior studies ([20, 27]). The paper
    /// deliberately uses **zero** ("such a random delay … would
    /// artificially reduce contention", §4.1); non-zero values let you
    /// reproduce the methodological difference.
    pub work_spins: u32,
}

impl Scale {
    /// Container-scale defaults with environment overrides applied.
    pub fn from_env() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Scale {
            threads: env_usize("TURNQ_THREADS", (2 * cores).clamp(4, 8)),
            bursts: env_usize("TURNQ_BURSTS", 20),
            burst_items: env_usize("TURNQ_BURST_ITEMS", 10_000),
            runs: env_usize("TURNQ_RUNS", 3),
            pairs: env_usize("TURNQ_PAIRS", 200_000),
            warmup: env_usize("TURNQ_WARMUP", 2),
            work_spins: env_usize("TURNQ_WORK_SPINS", 0) as u32,
        }
    }

    /// A deliberately tiny profile, selected by the per-figure binaries'
    /// `--quick` flag, so CI exercises every protocol end to end in
    /// seconds.
    pub fn quick() -> Self {
        Scale {
            threads: 3,
            bursts: 6,
            burst_items: 2_000,
            runs: 2,
            pairs: 30_000,
            warmup: 1,
            work_spins: 0,
        }
    }

    /// The paper's full-scale settings (Table 3 / Figures 1–3), for
    /// reference and for runs on real hardware.
    pub fn paper() -> Self {
        Scale {
            threads: 30,
            bursts: 200,
            burst_items: 1_000_000,
            runs: 7,
            pairs: 100_000_000,
            warmup: 10,
            work_spins: 0, // the paper's deliberate choice (§4.1)
        }
    }

    /// Apply `--threads= --bursts= --burst-items= --runs= --pairs=
    /// --warmup=` flags.
    pub fn apply_args(mut self, args: &Args) -> Self {
        if let Some(v) = args.get_usize("threads") {
            self.threads = v;
        }
        if let Some(v) = args.get_usize("bursts") {
            self.bursts = v;
        }
        if let Some(v) = args.get_usize("burst-items") {
            self.burst_items = v;
        }
        if let Some(v) = args.get_usize("runs") {
            self.runs = v;
        }
        if let Some(v) = args.get_usize("pairs") {
            self.pairs = v;
        }
        if let Some(v) = args.get_usize("warmup") {
            self.warmup = v;
        }
        if let Some(v) = args.get_usize("work-spins") {
            self.work_spins = v as u32;
        }
        assert!(self.threads >= 1, "--threads must be >= 1");
        assert!(self.runs >= 1, "--runs must be >= 1");
        assert!(self.bursts >= 1, "--bursts must be >= 1");
        self
    }
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Minimal `--key=value` / `--flag` command-line parser (no external
/// dependencies, per the workspace dependency policy).
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
    /// Non-flag positional arguments.
    pub positional: Vec<String>,
}

impl Args {
    /// Parse from an iterator of arguments (excluding `argv[0]`).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Args::default();
        for arg in args {
            if let Some(rest) = arg.strip_prefix("--") {
                if let Some((k, v)) = rest.split_once('=') {
                    out.values.insert(k.to_string(), v.to_string());
                } else {
                    out.flags.push(rest.to_string());
                }
            } else {
                out.positional.push(arg);
            }
        }
        out
    }

    /// Parse from the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// `--key=value` as a string.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// `--key=value` parsed as usize.
    ///
    /// # Panics
    ///
    /// Panics with a clear message on a malformed number (the binaries are
    /// interactive tools; failing loudly beats a silent fallback).
    pub fn get_usize(&self, key: &str) -> Option<usize> {
        self.get(key).map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{key}={v} is not a valid integer"))
        })
    }

    /// `--key=P:C` parsed as a `(producers, consumers)` pair, e.g.
    /// `--ratio=3:1` (see docs/bench_format.md). `Ok(None)` when the key
    /// is absent; `Err` with a usage message on a malformed pair
    /// (missing `:`, non-integer side) or a zero side — `0:C` and `P:0`
    /// are rejected here rather than producing a sweep with no thread on
    /// one side.
    pub fn try_get_ratio(&self, key: &str) -> Result<Option<(usize, usize)>, String> {
        let Some(v) = self.get(key) else {
            return Ok(None);
        };
        let Some((p, c)) = v.split_once(':') else {
            return Err(format!("--{key}={v} is not a valid P:C ratio (expected e.g. 3:1)"));
        };
        let side = |s: &str| {
            s.trim()
                .parse::<usize>()
                .map_err(|_| format!("--{key}={v} is not a valid P:C ratio (expected e.g. 3:1)"))
        };
        let (p, c) = (side(p)?, side(c)?);
        if p == 0 || c == 0 {
            return Err(format!(
                "both sides of --{key}={v} must be >= 1 (a ratio with a zero side \
                 would leave no producer or no consumer)"
            ));
        }
        Ok(Some((p, c)))
    }

    /// [`try_get_ratio`](Args::try_get_ratio) for binaries: prints the
    /// error to stderr and exits with status 2 (a usage error, not a
    /// panic backtrace).
    pub fn get_ratio(&self, key: &str) -> Option<(usize, usize)> {
        self.try_get_ratio(key).unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            std::process::exit(2);
        })
    }

    /// Whether a bare `--flag` was given.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_key_values_flags_positionals() {
        let a = args(&["--threads=4", "--paper", "turn", "--runs=2"]);
        assert_eq!(a.get_usize("threads"), Some(4));
        assert_eq!(a.get_usize("runs"), Some(2));
        assert!(a.has_flag("paper"));
        assert!(!a.has_flag("quick"));
        assert_eq!(a.positional, vec!["turn"]);
    }

    #[test]
    #[should_panic(expected = "not a valid integer")]
    fn malformed_number_panics() {
        let a = args(&["--threads=abc"]);
        let _ = a.get_usize("threads");
    }

    #[test]
    fn scale_apply_args_overrides() {
        let s = Scale::quick().apply_args(&args(&["--threads=7", "--pairs=123"]));
        assert_eq!(s.threads, 7);
        assert_eq!(s.pairs, 123);
        assert_eq!(s.bursts, Scale::quick().bursts);
    }

    #[test]
    #[should_panic(expected = "--threads must be >= 1")]
    fn zero_threads_rejected() {
        let _ = Scale::quick().apply_args(&args(&["--threads=0"]));
    }

    #[test]
    fn work_spins_flag_and_paper_default() {
        let s = Scale::quick().apply_args(&args(&["--work-spins=80"]));
        assert_eq!(s.work_spins, 80);
        // The paper's protocols use zero artificial work (§4.1).
        assert_eq!(Scale::paper().work_spins, 0);
        assert_eq!(Scale::quick().work_spins, 0);
    }

    #[test]
    fn paper_scale_matches_the_paper() {
        let p = Scale::paper();
        assert_eq!(p.threads, 30);
        assert_eq!(p.bursts, 200);
        assert_eq!(p.burst_items, 1_000_000);
        assert_eq!(p.runs, 7);
        assert_eq!(p.warmup, 10);
    }

    #[test]
    fn missing_keys_are_none() {
        let a = args(&[]);
        assert_eq!(a.get("nope"), None);
        assert_eq!(a.get_usize("nope"), None);
        assert_eq!(a.get_ratio("ratio"), None);
    }

    #[test]
    fn ratio_parses_producer_consumer_pairs() {
        assert_eq!(args(&["--ratio=3:1"]).get_ratio("ratio"), Some((3, 1)));
        assert_eq!(args(&["--ratio=1:7"]).get_ratio("ratio"), Some((1, 7)));
        assert_eq!(args(&["--ratio= 2 : 6 "]).try_get_ratio("ratio"), Ok(Some((2, 6))));
        assert_eq!(args(&[]).try_get_ratio("ratio"), Ok(None));
    }

    #[test]
    fn ratio_rejects_zero_sides_with_clear_error() {
        for bad in ["0:2", "2:0", "0:0"] {
            let arg = format!("--ratio={bad}");
            let err = args(&[&arg]).try_get_ratio("ratio").unwrap_err();
            assert!(err.contains("must be >= 1"), "{bad}: {err}");
            assert!(err.contains(bad), "{bad}: error must echo the input: {err}");
        }
    }

    #[test]
    fn ratio_rejects_malformed_strings_with_clear_error() {
        for bad in ["4", "3:", ":1", "a:b", "3:1:2", "3;1", ""] {
            let arg = format!("--ratio={bad}");
            let err = args(&[&arg]).try_get_ratio("ratio").unwrap_err();
            assert!(err.contains("not a valid P:C ratio"), "{bad}: {err}");
            assert!(err.contains("expected e.g. 3:1"), "{bad}: {err}");
        }
    }
}
