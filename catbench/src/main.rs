//! `catbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a summary (one metric per line, with its unit) and, as the
//! last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;

use catbench::{Options, Scale, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("catbench: {msg}");
    eprintln!(
        "usage: catbench --workload <discover|publish|soap-mixed> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        run_dir: ".catbench_run".into(),
    };
    let report = catbench::run(&opts);
    print!("{}", report.summary());
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
