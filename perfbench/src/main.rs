//! `perfbench --workload <grow|storm|churn> --seed <n> --seconds <s>
//! --trace <0|1> [--spans-dir <dir>]`
//!
//! Prints the run context, every check, every metric by name with its
//! unit, and as its last line one JSON object: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics (and the
//! spans are written to `<spans-dir>/spans_<workload>_seed<n>.tsv`).

use oscar_perfbench::{churn, grow, storm, Outcome, E2E, LAYERS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_dir: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans_dir: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--spans-dir" => args.spans_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["grow", "storm", "churn"].contains(&args.workload.as_str()) {
        return Err("--workload must be grow, storm or churn".into());
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn json_metrics(values: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out: Outcome = match args.workload.as_str() {
        "grow" => grow::run(&grow::FULL, args.seed, args.seconds, args.trace),
        "storm" => storm::run(&storm::FULL, args.seed, args.seconds, args.trace, nproc),
        _ => churn::run(&churn::FULL, args.seed, args.seconds, args.trace),
    };

    println!("workload  {}", out.workload);
    println!("context   seed = {}", args.seed);
    println!("context   nproc = {nproc}");
    println!("context   trace = {}", u8::from(args.trace));
    for (k, v) in &out.context {
        println!("context   {k} = {v}");
    }
    for (what, ok) in &out.checks {
        println!("check     {} {what}", if *ok { "ok  " } else { "FAIL" });
    }
    for line in &out.lines {
        println!("metric    {line}");
    }

    let mut correct = out.correct();
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let layers = out.layers.clone().unwrap_or_default();
        LAYERS.iter().map(|&(n, u)| (n, u, layers.get(n))).collect()
    } else {
        E2E.iter()
            .map(|&(n, u)| (n, u, out.e2e.get(n).copied().unwrap_or(f64::NAN)))
            .collect()
    };
    for &(name, unit, v) in &metrics {
        if args.trace {
            println!("layer     {name:<32} {v:>16.6} {unit}");
        }
        if !v.is_finite() {
            println!("check     FAIL {name} is not a finite number");
            correct = false;
        }
    }
    if args.trace {
        let cov = out.layers.as_ref().map_or(0.0, |l| l.get("coverage"));
        if cov < oscar_perfbench::COVERAGE_FLOOR {
            println!(
                "flag      coverage {cov:.3} < {} on {}: the layers miss part of the wall time",
                oscar_perfbench::COVERAGE_FLOOR,
                out.workload
            );
        }
        if let Some(spans) = &out.spans {
            let path = args
                .spans_dir
                .join(format!("spans_{}_seed{}.tsv", out.workload, args.seed));
            match oscar_perfbench::trace::write_tsv(spans, &path) {
                Ok(()) => println!("context   spans = {}", path.display()),
                Err(e) => {
                    println!("check     FAIL writing spans to {}: {e}", path.display());
                    correct = false;
                }
            }
        }
    }
    let finite: Vec<(&str, &str, f64)> = metrics
        .into_iter()
        .map(|(n, u, v)| (n, u, if v.is_finite() { v } else { 0.0 }))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        json_metrics(&finite)
    );
    ExitCode::SUCCESS
}
