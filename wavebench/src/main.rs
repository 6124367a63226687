//! Command line: `wavebench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Prints a detail line and, last, the result line;
//! exits 1 when an output check failed and 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use wavebench::{run_traced, run_untraced, workload, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(format!("--seconds {value}: not a duration"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
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
            eprintln!("wavebench: {e}");
            eprintln!(
                "usage: wavebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload, args.seed) else {
        eprintln!(
            "wavebench: unknown workload {} (expected one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let report = if args.trace {
        let path = PathBuf::from(".bench_trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        run_traced(w.as_ref(), args.seed, args.seconds, &path)
    } else {
        run_untraced(w.as_ref(), args.seed, args.seconds)
    };
    println!("{}", report.detail);
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("wavebench: output check failed; see the errors on the detail line");
        ExitCode::from(1)
    }
}
