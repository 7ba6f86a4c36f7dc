//! The benchmark command:
//!
//! ```text
//! molbench --workload <ode_sweep|ssa_sweep|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Exit status: 0 when every answer checked out, 1 when a check failed
//! (the result line still prints, with `"correct": false`), 2 on a usage
//! error.

use molbench::common::Config;
use molbench::ode_sweep::OdeSweep;
use molbench::report::{render_json, render_lines, END_TO_END, PER_LAYER};
use molbench::ssa_sweep::SsaSweep;
use molbench::trace::{layer_table, render_table, write_jsonl, Tracer};
use molbench::{serve_mixed, sweep};
use std::path::PathBuf;
use std::process::ExitCode;

/// Where traced runs leave their spans and layer tables, relative to the
/// directory the command runs in.
const TRACE_DIR: &str = ".molbench";

const WORKLOADS: [&str; 3] = ["ode_sweep", "ssa_sweep", "serve_mixed"];

struct Args {
    workload: String,
    cfg: Config,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag}` takes {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (available: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        cfg: Config {
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("molbench: {why}");
            eprintln!(
                "usage: molbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cfg = &args.cfg;
    let tracer = Tracer::new(cfg.trace);
    let (outcome, spans) = match args.workload.as_str() {
        "ode_sweep" => sweep::drive(cfg, &tracer, |parent| OdeSweep::setup(&tracer, parent)),
        "ssa_sweep" => sweep::drive(cfg, &tracer, |parent| SsaSweep::setup(&tracer, parent)),
        _ => serve_mixed::drive(cfg, &tracer),
    };
    let specs = if cfg.trace { PER_LAYER } else { END_TO_END };

    println!(
        "molbench {} seed={} seconds={} trace={} workers={}",
        args.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        molbench::common::workers()
    );
    if cfg.trace {
        let table = render_table(&layer_table(&spans));
        print!("{table}");
        let stem = format!("{}-seed{}", args.workload, cfg.seed);
        let dir = PathBuf::from(TRACE_DIR);
        let written = write_jsonl(&dir.join(format!("{stem}.spans.jsonl")), &spans)
            .and_then(|()| std::fs::write(dir.join(format!("{stem}.layers.txt")), &table));
        match written {
            Ok(()) => println!("spans and layer table written to {TRACE_DIR}/{stem}.*"),
            Err(e) => eprintln!("molbench: cannot write traces: {e}"),
        }
    }
    print!("{}", render_lines(&outcome, specs));
    println!(
        "attempted={} failed={} failed_frac={}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for why in outcome.violations.iter().take(20) {
        eprintln!("molbench: check failed: {why}");
    }
    match render_json(&outcome, specs) {
        Ok(line) => println!("{line}"),
        Err(why) => {
            eprintln!("molbench: {why}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
