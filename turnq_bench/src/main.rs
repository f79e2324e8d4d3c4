//! `turnq_bench` command line.
//!
//! ```text
//! turnq_bench --workload pairs|deep|stream|paced [--seed N] [--seconds S]
//!             [--trace 0|1] [--out FILE] [--spans DIR] [--smoke]
//! turnq_bench compare PARENT CHANGE [--claim=metric@workload]... [--bench BENCHMARK.json]
//! ```
//!
//! A run prints a table (median, quartiles and repetitions per metric)
//! and, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and each metric's median. `--out` appends the full record to
//! a result file for `compare`. The exit code is non-zero when any check
//! failed.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use turnq_bench::{compare, Config, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("turnq_bench: {msg}");
    eprintln!("usage: turnq_bench --workload pairs|deep|stream|paced [--seed N] [--seconds S] [--trace 0|1] [--out FILE]");
    eprintln!("       turnq_bench compare PARENT CHANGE [--claim=metric@workload]... [--bench BENCHMARK.json]");
    ExitCode::from(2)
}

/// `(key, value)` of each `--key` argument, in order.
type Flags = Vec<(String, String)>;

/// `--key value` and `--key=value` pairs; a bare `--flag` maps to "".
fn split_args(args: &[String]) -> Result<(Flags, Vec<String>), String> {
    const BARE: [&str; 1] = ["smoke"];
    let (mut flags, mut positional) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some(kv) => match kv.split_once('=') {
                Some((k, v)) => flags.push((k.to_string(), v.to_string())),
                None if BARE.contains(&kv) => flags.push((kv.to_string(), String::new())),
                None => {
                    let v = it.next().ok_or(format!("--{kv} needs a value"))?;
                    flags.push((kv.to_string(), v.clone()));
                }
            },
            None => positional.push(a.clone()),
        }
    }
    Ok((flags, positional))
}

fn run_compare(args: &[String]) -> ExitCode {
    let (flags, files) = match split_args(args) {
        Ok(v) => v,
        Err(e) => return usage(&e),
    };
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut claims = Vec::new();
    for (k, v) in flags {
        match k.as_str() {
            "claim" => claims.push(v),
            "bench" => bench = PathBuf::from(v),
            _ => return usage(&format!("unknown compare flag --{k}")),
        }
    }
    let [parent, change] = files.as_slice() else {
        return usage("compare takes exactly two result files");
    };
    let read =
        |p: &PathBuf| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let result = (|| {
        let bounds = compare::load_bounds(&read(&bench)?)?;
        let p = compare::load_records(&read(&PathBuf::from(parent))?)?;
        let c = compare::load_records(&read(&PathBuf::from(change))?)?;
        compare::compare(&p, &c, &bounds, &claims)
    })();
    match result {
        Ok((table, ok)) => {
            print!("{table}");
            ExitCode::from(u8::from(!ok))
        }
        Err(e) => {
            eprintln!("turnq_bench compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return run_compare(&args[1..]);
    }
    let (flags, positional) = match split_args(&args) {
        Ok(v) => v,
        Err(e) => return usage(&e),
    };
    if !positional.is_empty() {
        return usage(&format!("unexpected argument {:?}", positional[0]));
    }
    let get = |k: &str| {
        flags
            .iter()
            .rev()
            .find(|(f, _)| f == k)
            .map(|(_, v)| v.as_str())
    };
    let known = [
        "workload", "seed", "seconds", "trace", "out", "spans", "smoke",
    ];
    if let Some((k, _)) = flags.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        return usage(&format!("unknown flag --{k}"));
    }
    let Some(workload) = get("workload").and_then(Workload::parse) else {
        return usage("--workload must be one of pairs, deep, stream, paced");
    };
    let Ok(seed) = get("seed").unwrap_or("1").parse::<u64>() else {
        return usage("--seed must be a non-negative integer");
    };
    let seconds = match get("seconds").unwrap_or("10").parse::<f64>() {
        Ok(s) if s > 0.0 && s <= 3600.0 => s,
        _ => return usage("--seconds must be a number in (0, 3600]"),
    };
    let trace = match get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return usage("--trace must be 0 or 1"),
    };
    let mut cfg = if get("smoke").is_some() {
        Config::smoke(workload, seed, trace)
    } else {
        Config::new(workload, seed, seconds, trace)
    };
    cfg.spans_dir = get("spans").map(PathBuf::from);

    let report = turnq_bench::run(&cfg);
    print!("{}", report.table());
    println!("{}", report.result_line());
    if let Some(out) = get("out") {
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| writeln!(f, "{}", report.record()));
        if let Err(e) = written {
            eprintln!("turnq_bench: could not append to {out}: {e}");
            return ExitCode::from(2);
        }
    }
    ExitCode::from(report.exit_code() as u8)
}
