//! Shared helpers for the per-table/per-figure reproduction binaries.
//!
//! Each binary in `src/bin/` but one regenerates one table or figure of
//! the paper; `bench_soak` is the soak SLO gate:
//!
//! | binary | artifact |
//! |--------|----------|
//! | `table1_characteristics` | Table 1 — qualitative queue comparison |
//! | `table2_reclamation`     | Table 2 — reclamation progress + blocking-epoch demo |
//! | `table3_latency`         | Table 3 — latency quantiles, min–max over runs |
//! | `table4_memory`          | Table 4 — sizes and measured allocations/item |
//! | `figure1_latency_sweep`  | Figure 1 — latency quantiles vs thread count |
//! | `figure2_throughput_pairs` | Figure 2 — pairs throughput + ratio vs KP |
//! | `figure3_bursts`         | Figure 3 — burst throughput per side + ratios |
//! | `bench_soak`             | `turnq-bench-soak/1` — per-variant SLO verdicts (docs/bench_format.md) |
//!
//! Throughput and per-layer cost measurements live in the separate
//! `turnq_bench` driver (`turnq_bench/BENCHMARK.md`).
//!
//! The table and figure binaries accept `--threads= --bursts= --burst-items= --runs=
//! --pairs= --warmup=` plus `--queues=turn,kp,ms,mutex,faa|all`, `--quick`
//! and `--paper` scale presets, and honour the `TURNQ_*` environment
//! variables (see `turnq_harness::config`).

use turnq_harness::{Args, Scale};

/// Resolve the scale from presets + env + explicit flags.
pub fn scale_from(args: &Args) -> Scale {
    let base = if args.has_flag("quick") {
        Scale::quick()
    } else if args.has_flag("paper") {
        Scale::paper()
    } else {
        Scale::from_env()
    };
    base.apply_args(args)
}

/// Hardware threads visible to this process — the soak artifact records
/// it (schema requirement, docs/bench_format.md): absolute numbers are
/// environment-dependent, and a validator or reader interpreting a
/// speedup column needs to know how much real parallelism backed it.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model string when the platform exposes one (`/proc/cpuinfo`'s
/// `model name` on Linux); `None` elsewhere. Recorded next to
/// [`hardware_threads`] when readable.
pub fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    let model = line.split(':').nth(1)?.trim();
    if model.is_empty() {
        return None;
    }
    Some(model.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The shared `"hardware_threads": …[, "cpu_model": …]` JSON fragment —
/// two spaces of indentation, no trailing newline after the last line;
/// callers append it as top-level object members.
pub fn hardware_json_lines() -> String {
    let mut s = format!("  \"hardware_threads\": {},\n", hardware_threads());
    if let Some(model) = cpu_model() {
        s.push_str(&format!("  \"cpu_model\": \"{model}\",\n"));
    }
    s
}

/// `x.yz×` ratio formatting used by the Figure 2/3 ratio panels.
pub fn ratio(numerator: u64, denominator: u64) -> String {
    if denominator == 0 {
        return "n/a".to_string();
    }
    format!("{:.2}x", numerator as f64 / denominator as f64)
}

/// Standard header printed by every binary.
pub fn banner(what: &str, scale: &Scale) {
    println!("=== {what} ===");
    println!(
        "scale: threads={} bursts={} burst_items={} runs={} pairs={} warmup={}",
        scale.threads, scale.bursts, scale.burst_items, scale.runs, scale.pairs, scale.warmup
    );
    println!(
        "note: absolute numbers are environment-dependent ({} hardware threads here, \
         paper used 32 cores); compare *shapes* and *ratios*.",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(200, 100), "2.00x");
        assert_eq!(ratio(150, 100), "1.50x");
        assert_eq!(ratio(1, 0), "n/a");
    }

    #[test]
    fn scale_presets() {
        let quick = scale_from(&Args::parse(["--quick".to_string()]));
        assert_eq!(quick, Scale::quick());
        let paper = scale_from(&Args::parse(["--paper".to_string()]));
        assert_eq!(paper, Scale::paper());
        let tweaked = scale_from(&Args::parse([
            "--quick".to_string(),
            "--threads=5".to_string(),
        ]));
        assert_eq!(tweaked.threads, 5);
    }
}
