//! Command line of the benchmark:
//!
//! ```text
//! ipds-perfbench --workload <attacks|faults|compile|fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line of host facts, then the result line: a JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! prints the end-to-end metrics, `--trace 1` the per-layer ones and
//! writes the recorded spans under the build directory.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use ipds_perfbench::{
    campaign::{Attacks, Faults},
    compile::Compile,
    fleet::Fleet,
    nproc, result_json, run_end_to_end, run_traced, stats, Report, Size, WORKLOADS,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("one of {}", WORKLOADS.join(", ")))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The first line of `cmd -V`-style output, or `unknown`.
fn tool_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_json(args: &Args, trace_file: Option<&PathBuf>, report: &Report) -> String {
    // Only ask git inside a git checkout: elsewhere it would search the
    // parent directories and could report an unrelated repository.
    let commit = if std::path::Path::new(".git").exists() {
        tool_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let trace_file = trace_file.map_or("null".to_string(), |p| format!("\"{}\"", p.display()));
    // Informational only: on `fleet` the peak follows which streams the
    // seed's plan drops or shares, too widely for a bound (see the readme).
    let peak_rss_mb = stats::peak_rss_mb().map_or("null".to_string(), |m| format!("{m:.1}"));
    // Unscaled readings of the untraced run, beside the gated metrics.
    let info: String = report
        .info
        .iter()
        .map(|(name, v)| {
            format!(
                ", \"{name}\": {}",
                v.map_or("null".to_string(), |v| v.to_string())
            )
        })
        .collect();
    format!(
        "{{\"host\": {{\"nproc\": {}, \"profile\": \"{profile}\", \"rustc\": \"{}\", \"commit\": \"{commit}\"}}, \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"trace_file\": {trace_file}, \
         \"peak_rss_mb\": {peak_rss_mb}{info}}}",
        nproc(),
        tool_line("rustc", &["-V"]),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ipds-perfbench: {e}");
            eprintln!(
                "usage: ipds-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let size = Size::FULL;
    let (report, trace_file) = if args.trace {
        let (report, tracer) = run_traced(&args.workload, args.seed, budget, size);
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        let file = dir
            .join("perfbench-traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&file) {
            eprintln!("ipds-perfbench: cannot write {}: {e}", file.display());
            return ExitCode::FAILURE;
        }
        (report, Some(file))
    } else {
        let report = match args.workload.as_str() {
            "attacks" => run_end_to_end::<Attacks>(args.seed, budget, size),
            "faults" => run_end_to_end::<Faults>(args.seed, budget, size),
            "compile" => run_end_to_end::<Compile>(args.seed, budget, size),
            _ => run_end_to_end::<Fleet>(args.seed, budget, size),
        };
        (report, None)
    };
    println!("{}", host_json(&args, trace_file.as_ref(), &report));
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}
