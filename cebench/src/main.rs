//! The repository benchmark: four workloads over the CloudEval-YAML
//! workspace, end to end (untraced) or layer by layer (traced).
//!
//! ```text
//! cargo run --release --manifest-path cebench/Cargo.toml -- \
//!     --workload grid --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `grid`, `repair`, `serve-hot`, `serve-cold`, or `all` (each
//! in its own child process). The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! See `cebench/README.md`.

mod offline;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;

const WORKLOADS: [&str; 4] = ["grid", "repair", "serve-hot", "serve-cold"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_owned())?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or("--seconds needs 1..=600")?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_owned()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_one(args: &Args) -> Result<Outcome, String> {
    let workers = report::nproc();
    let clients = workers;
    let spans = PathBuf::from(".bench_out")
        .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    println!(
        "env: {}",
        report::env_stamp(&args.workload, args.seed, args.trace, workers, clients)
    );
    let (seed, seconds) = (args.seed, args.seconds);
    let mut out = match (args.workload.as_str(), args.trace) {
        ("grid", false) => Ok(offline::run(offline::Kind::Grid, seed, seconds, workers)),
        ("repair", false) => Ok(offline::run(offline::Kind::Repair, seed, seconds, workers)),
        ("grid", true) => Ok(offline::run_traced(
            offline::Kind::Grid,
            seed,
            workers,
            &spans,
        )),
        ("repair", true) => Ok(offline::run_traced(
            offline::Kind::Repair,
            seed,
            workers,
            &spans,
        )),
        ("serve-hot", false) => serve::run(serve::Kind::Hot, seed, seconds, workers, clients),
        ("serve-cold", false) => serve::run(serve::Kind::Cold, seed, seconds, workers, clients),
        ("serve-hot", true) => {
            serve::run_traced(serve::Kind::Hot, seed, seconds, workers, clients, &spans)
        }
        ("serve-cold", true) => {
            serve::run_traced(serve::Kind::Cold, seed, seconds, workers, clients, &spans)
        }
        (other, _) => Err(format!("unknown workload {other:?}")),
    }?;
    let names: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
    if names != report::expected_names(args.trace) {
        out.check_failures.push(format!(
            "reported metrics differ from the listed ones: {names:?}"
        ));
    }
    Ok(out)
}

fn print_outcome(workload: &str, out: &Outcome) {
    for line in &out.lines {
        println!("{line}");
    }
    for m in &out.metrics {
        println!(
            "  {:<44} {:>16} {}",
            m.name,
            report::json_number(m.value),
            m.unit
        );
    }
    for f in &out.check_failures {
        println!("check failed: {f}");
    }
    println!(
        "{workload}: {} ({} attempted, {} failed)",
        if out.correct() {
            "correct"
        } else {
            "INCORRECT"
        },
        out.attempted,
        out.failed
    );
    println!("{}", out.to_json());
}

/// Runs every workload in its own child process (so peak RSS and the
/// process-wide metrics registry stay per workload) and sums them up.
fn run_all(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut total = Outcome::default();
    for workload in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("");
        let parsed = yamlkit::parse_one(last).map(|n| n.to_value());
        let Ok(result) = parsed.as_ref() else {
            return Err(format!("{workload}: no result line"));
        };
        let int = |key: &str| result.get(key).and_then(yamlkit::Yaml::as_i64).unwrap_or(0) as u64;
        total.attempted += int("attempted");
        total.failed += int("failed");
        if result.get("correct").and_then(yamlkit::Yaml::as_bool) != Some(true) {
            total.check_failures.push(format!("{workload} incorrect"));
        }
        if let Some(yamlkit::Yaml::Map(metrics)) = result.get("metrics") {
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(yamlkit::Yaml::as_f64)
                    .unwrap_or(0.0);
                let unit = m.get("unit").and_then(yamlkit::Yaml::as_str).unwrap_or("");
                total.metric(&format!("{workload}.{name}"), value, unit);
            }
        }
    }
    Ok(total)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: cebench --workload <grid|repair|serve-hot|serve-cold|all> [--seed N] [--seconds N] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match result {
        Ok(out) => {
            print_outcome(&args.workload, &out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units `BENCHMARK.json` lists are exactly the ones a
    /// run emits.
    #[test]
    fn benchmark_json_lists_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        // The YAML engine reads JSON flow style on one line only.
        let spec = yamlkit::parse_one(&text.replace('\n', " "))
            .unwrap()
            .to_value();
        let listed = |key: &str| -> Vec<(String, String)> {
            match spec.get(key) {
                Some(yamlkit::Yaml::Seq(items)) => items
                    .iter()
                    .map(|m| {
                        let field =
                            |f: &str| m.get(f).and_then(yamlkit::Yaml::as_str).unwrap().to_owned();
                        (field("name"), field("unit"))
                    })
                    .collect(),
                _ => panic!("{key} missing"),
            }
        };
        let e2e: Vec<(String, String)> = report::END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let mut out = Outcome::default();
        report::layer_metrics(&mut out, &Default::default(), &Default::default());
        let layers: Vec<(String, String)> = out
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
        let names: Vec<String> = layers.into_iter().map(|(n, _)| n).collect();
        assert_eq!(report::expected_names(true), names);
        let workloads: Vec<String> = match spec.get("workloads") {
            Some(yamlkit::Yaml::Seq(items)) => items
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(yamlkit::Yaml::as_str)
                        .unwrap()
                        .to_owned()
                })
                .collect(),
            _ => panic!("workloads missing"),
        };
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metric("setup_s", 0.25, "s");
        let value = yamlkit::parse_one(&out.to_json()).unwrap().to_value();
        let yamlkit::Yaml::Map(entries) = &value else {
            panic!("not an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            value
                .get_path(&["metrics", "setup_s", "value"])
                .and_then(yamlkit::Yaml::as_f64),
            Some(0.25)
        );
    }
}
