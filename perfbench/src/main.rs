//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the checkout root, prints a line with the host
//! fingerprint and the workload's sizes, then the result line
//! `{"correct", "attempted", "failed", "metrics"}`. Gate failures go to
//! stderr.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{host, workloads, RunOpts};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            workloads::WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = host::nproc();
    let root = PathBuf::from(".perfbench_work");
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        threads,
        work_dir: root.join(format!("{}-{}", args.workload, std::process::id())),
        out_dir: PathBuf::from("perfbench/out"),
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("perfbench: {}: {e}", opts.work_dir.display());
        return ExitCode::FAILURE;
    }
    let sizes = workloads::sizes_json(&args.workload, &opts).expect("workload name was checked");
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"fingerprint\": {}, \"sizes\": {sizes}}}",
        args.workload,
        args.seed,
        args.trace,
        host::fingerprint_json(threads)
    );
    let out = workloads::run(&args.workload, &opts, args.trace).expect("workload name was checked");
    for f in &out.failures {
        eprintln!("perfbench: gate failed: {f}");
    }
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let _ = std::fs::remove_dir(&root);
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}
