//! Regenerates every table and figure from the paper's evaluation, plus
//! the full evaluation grid through the substrate engine.
//!
//! ```text
//! cargo run --release -p cloudeval-bench --bin repro -- all
//! cargo run --release -p cloudeval-bench --bin repro -- table4 fig8
//! cargo run --release -p cloudeval-bench --bin repro -- --stride 4 all
//! cargo run --release -p cloudeval-bench --bin repro -- --workers 16 grid
//! cargo run --release -p cloudeval-bench --bin repro -- --variants original,translated grid
//! cargo run --release -p cloudeval-bench --bin repro -- --stride 4 pipeline
//! ```
//!
//! Flags:
//!
//! * `--stride N` — evaluate every N-th problem (default 1 = the complete
//!   337/1011-problem benchmark);
//! * `--workers N` — unit-test worker threads (default: available
//!   hardware parallelism, clamped to 2–32);
//! * `--variants LIST` — comma-separated subset of
//!   `original,simplified,translated` used by the `grid` and `pipeline`
//!   targets (default: all three);
//! * `--live-latency MS` — per-request wall-clock latency of the
//!   `pipeline` target's remote-generation section (default 15 ms);
//! * `--rounds N` — repair rounds after the first attempt (default 2),
//!   used by the `repair` target;
//! * `--feedback full|bucket-only|none` — how much of each failure's
//!   taxonomy diagnosis the repair prompts reveal (default
//!   `bucket-only`), used by the `repair` target.
//!
//! An unknown target is an error (exit status 2), reported before any
//! target runs.

use cedataset::Variant;
use cloudeval_bench::experiments::Experiments;
use cloudeval_bench::serve::ServeOptions;
use llmsim::FeedbackMode;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut stride = 1usize;
    let mut workers = cloudeval_core::harness::default_workers();
    let mut variants: Vec<Variant> = Variant::ALL.to_vec();
    let mut live_latency_ms = 15u64;
    let mut port = 0u16;
    let mut requests = 200usize;
    let mut clients = 4usize;
    let mut conns = 1usize;
    let mut memo_path: Option<std::path::PathBuf> = None;
    let mut rounds = 2usize;
    let mut feedback = FeedbackMode::BucketOnly;
    let mut targets: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stride" => {
                i += 1;
                stride = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--stride needs a positive integer"));
            }
            "--workers" => {
                i += 1;
                workers = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|w| *w > 0)
                    .unwrap_or_else(|| die("--workers needs a positive integer"));
            }
            "--variants" => {
                i += 1;
                variants = parse_variants(args.get(i).map(String::as_str).unwrap_or(""))
                    .unwrap_or_else(|bad| die(&format!("unknown variant {bad:?}")));
            }
            "--live-latency" => {
                i += 1;
                live_latency_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--live-latency needs milliseconds"));
            }
            "--port" => {
                i += 1;
                port = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--port needs a port number"));
            }
            "--requests" => {
                i += 1;
                requests = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|r| *r > 0)
                    .unwrap_or_else(|| die("--requests needs a positive integer"));
            }
            "--clients" => {
                i += 1;
                clients = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|c| *c > 0)
                    .unwrap_or_else(|| die("--clients needs a positive integer"));
            }
            "--conns" => {
                i += 1;
                conns = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|c| *c > 0)
                    .unwrap_or_else(|| die("--conns needs a positive integer"));
            }
            "--memo" => {
                i += 1;
                memo_path = Some(std::path::PathBuf::from(
                    args.get(i)
                        .unwrap_or_else(|| die("--memo needs a file path")),
                ));
            }
            "--rounds" => {
                i += 1;
                rounds = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--rounds needs a non-negative integer"));
            }
            "--feedback" => {
                i += 1;
                feedback = args
                    .get(i)
                    .and_then(|s| FeedbackMode::from_label(s))
                    .unwrap_or_else(|| die("--feedback needs full|bucket-only|none"));
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            t => targets.push(t.to_owned()),
        }
        i += 1;
    }
    if targets.is_empty() {
        print_usage();
        return;
    }
    if let Some(bad) = targets
        .iter()
        .find(|t| *t != "all" && !ALL_TARGETS.contains(&t.as_str()))
    {
        die(&format!("unknown target {bad:?} (see --help)"));
    }
    if targets.iter().any(|t| t == "all") {
        targets = ALL_TARGETS.iter().map(|s| (*s).to_owned()).collect();
    }
    // The serve target boots its own corpus; the table/figure targets
    // share one lazily-built experiment context.
    let mut experiments: Option<Experiments> = None;
    fn context(
        experiments: &mut Option<Experiments>,
        stride: usize,
        workers: usize,
    ) -> &Experiments {
        experiments.get_or_insert_with(|| {
            eprintln!(
                "# generating dataset and calibrating 12 models (stride {stride}, {workers} workers)..."
            );
            Experiments::with_workers(stride, workers)
        })
    }
    for target in &targets {
        let started = std::time::Instant::now();
        let output = match target.as_str() {
            "parse" => cloudeval_bench::parsebench::parse_report(),
            "score" => cloudeval_bench::parsebench::score_report(),
            "serve" => cloudeval_bench::serve::serve_report(&ServeOptions {
                port,
                workers,
                requests,
                clients,
                conns_per_client: conns,
                memo_path: memo_path.clone(),
                ..ServeOptions::default()
            }),
            "table1" => context(&mut experiments, stride, workers).table1(),
            "table2" => context(&mut experiments, stride, workers).table2(),
            "table3" => context(&mut experiments, stride, workers).table3(),
            "table4" => context(&mut experiments, stride, workers).table4(),
            "table5" => context(&mut experiments, stride, workers).table5(),
            "table6" => context(&mut experiments, stride, workers).table6(),
            "table7" => context(&mut experiments, stride, workers).table7(),
            "table8" => context(&mut experiments, stride, workers).table8(),
            "table9" => context(&mut experiments, stride, workers).table9(),
            "fig5" => context(&mut experiments, stride, workers).fig5(),
            "fig6" => context(&mut experiments, stride, workers).fig6(),
            "fig7" => context(&mut experiments, stride, workers).fig7(),
            "fig8" => context(&mut experiments, stride, workers).fig8(16),
            "fig9" => context(&mut experiments, stride, workers).fig9(),
            "grid" => context(&mut experiments, stride, workers).grid(&variants),
            "trace" => context(&mut experiments, stride, workers).trace(&variants),
            "repair" => context(&mut experiments, stride, workers).repair(rounds, feedback),
            "pipeline" => {
                context(&mut experiments, stride, workers).pipeline(&variants, live_latency_ms)
            }
            other => unreachable!("target {other:?} was validated above"),
        };
        println!(
            "==================== {} ====================",
            target.to_uppercase()
        );
        println!("{output}");
        eprintln!("# {target} took {:.1}s", started.elapsed().as_secs_f64());
    }
}

const ALL_TARGETS: &[&str] = &[
    "parse", "score", "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "table8", "table9", "fig5", "fig6", "fig7", "fig8", "fig9", "grid", "trace", "pipeline",
    "repair", "serve",
];

fn parse_variants(list: &str) -> Result<Vec<Variant>, String> {
    let mut out = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        out.push(match part.to_ascii_lowercase().as_str() {
            "original" | "orig" => Variant::Original,
            "simplified" | "simp" => Variant::Simplified,
            "translated" | "trans" => Variant::Translated,
            other => return Err(other.to_owned()),
        });
    }
    if out.is_empty() {
        return Err(list.to_owned());
    }
    Ok(out)
}

fn print_usage() {
    eprintln!(
        "usage: repro [--stride N] [--workers N] [--variants LIST] [--live-latency MS] [--rounds N] [--feedback full|bucket-only|none] [--port N] [--requests N] [--clients N] [--conns N] [--memo PATH] <target>..."
    );
    eprintln!("targets: {} | all", ALL_TARGETS.join(" | "));
    eprintln!("parse: legacy-vs-arena YAML parse A/B with 1.5x verdict");
    eprintln!("score: symbol-interned vs legacy scoring-kernel A/B with identical-scores check and 1.5x verdict");
    eprintln!("variants: original,simplified,translated (grid/trace/pipeline targets)");
    eprintln!("trace: per-stage time breakdown of one grid run from the obs layer, plus one repair attempt's span tree");
    eprintln!("rounds/feedback: fail-learn-refine loop knobs (repair target)");
    eprintln!("port/requests/clients/memo: benchmark-as-a-service knobs (serve target)");
    eprintln!("conns: keep-alive connections per client thread (serve target)");
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
