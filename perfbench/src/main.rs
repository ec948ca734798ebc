//! The repository benchmark: two workloads, end-to-end metrics measured
//! by the client, and a traced run that gives per-layer numbers.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_wm|ingest_query> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last stdout line is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones. See `perfbench/README.md` for what each workload
//! measures and how to read a traced run.

mod fleet;
mod ingest_query;
mod probes;
mod stats;
mod trace;
mod train_wm;

use std::path::PathBuf;
use std::time::Instant;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// Named output checks; the run is correct only if all pass.
    pub checks: Vec<(String, bool)>,
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops that failed or were refused in the timed phase.
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Records an output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            println!("CHECK FAILED: {name}");
        }
        self.checks.push((name, ok));
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// `failed / attempted`, the failed-op ratio.
    pub fn failed_op_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Runs `setup` `n` times, tearing each result down before the next, and
/// returns the last result with the median set-up time in seconds.
pub fn repeated_setup<S>(
    n: usize,
    mut setup: impl FnMut() -> S,
    mut teardown: impl FnMut(S),
) -> (S, f64) {
    let mut secs = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        if let Some(s) = last.take() {
            teardown(s);
        }
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    println!("setup_s samples: {secs:?}");
    (last.expect("at least one set-up"), stats::median(&mut secs))
}

/// A scratch directory under `.perfbench/` in the working directory,
/// removed when dropped.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// Creates (or empties) `.perfbench/<name>`.
    pub fn new(name: &str) -> Self {
        let dir = PathBuf::from(".perfbench").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create benchmark scratch directory");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Wait for the filesystem to commit the deletion: otherwise its
        // deferred disk work (journal commit, block discard) lands on the
        // next run's set-up and timed phase.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::File::open(parent).and_then(|d| d.sync_all());
        }
    }
}

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("examples_per_s", "examples/s"),
    ("update_p50_us", "us"),
    ("query_p50_us", "us"),
    ("topk_recall", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with their units. A
/// metric whose layer a workload does not run reads 0, and the run says
/// so on stdout.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.update_p99_us", "us"),
    ("client.query_p99_us", "us"),
    ("hashing.fill_plan_ns", "ns"),
    ("hashing.snapshot_encode_us", "us"),
    ("hashing.snapshot_decode_us", "us"),
    ("core.update_ns", "ns"),
    ("core.update_heapless_ns", "ns"),
    ("core.margin_ns", "ns"),
    ("core.top_k_us", "us"),
    ("core.sharded_update_ns", "ns"),
    ("core.sharded_sync_us", "us"),
    ("core.resident_bytes", "bytes"),
    ("serve.protocol.encode_ns", "ns"),
    ("serve.protocol.decode_ns", "ns"),
    ("serve.protocol.bytes_per_example", "bytes"),
    ("serve.server.frames_per_lock", "ratio"),
    ("serve.server.update_service_us_p50", "us"),
    ("serve.client.sched_lag_us_p99", "us"),
    ("serve.governor.hit_ratio", "ratio"),
    ("serve.governor.revivals", "count"),
    ("serve.governor.evictions", "count"),
    ("serve.governor.revived_request_us_p50", "us"),
    ("serve.governor.resident_request_us_p50", "us"),
    ("serve.durability.create_us_p50", "us"),
    ("serve.durability.create_us_p99", "us"),
    ("serve.durability.checkpoint_us_p50", "us"),
    ("telemetry.histogram_record_ns", "ns"),
    ("bench.tracing_overhead", "ratio"),
    ("bench.span_coverage", "ratio"),
    ("failed_op_ratio", "ratio"),
];

/// Ends a traced run: prints the span summary, writes every span to
/// `.perfbench/trace-<workload>-<seed>.jsonl`, reports the span coverage,
/// and fills in the per-layer metrics the workload has no layer for.
pub fn finish_trace(args: &Args, trace: &trace::Trace, out: &mut Outcome) {
    print!("{}", trace.summary());
    let path =
        PathBuf::from(".perfbench").join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(".perfbench").and_then(|()| trace.write_jsonl(&path)) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("could not write spans to {}: {e}", path.display()),
    }
    out.metric("bench.span_coverage", trace.coverage(), "ratio");
    out.check(
        "span self times cover at least 90% of every traced thread's wall time",
        trace.coverage() >= 0.9,
    );
    for &(name, unit) in PER_LAYER {
        if !out.metrics.iter().any(|m| m.0 == name) {
            println!(
                "n/a on {}: {name} (the workload does not run this layer)",
                args.workload
            );
            out.metric(name, 0.0, unit);
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} host_cpus {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let outcome = match args.workload.as_str() {
        "train_wm" => train_wm::run(&args),
        "ingest_query" => ingest_query::run(&args),
        other => {
            eprintln!("error: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in expected {
        assert!(
            outcome.metrics.iter().any(|m| m.0 == name && m.2 == unit),
            "workload {} did not report {name} in {unit}",
            args.workload
        );
    }
    let correct = outcome.checks.iter().all(|(_, ok)| *ok);
    println!(
        "checks: {} of {} passed; failed ops {} of {} attempted (failed_op_ratio {})",
        outcome.checks.iter().filter(|(_, ok)| *ok).count(),
        outcome.checks.len(),
        outcome.failed,
        outcome.attempted,
        outcome.failed_op_ratio()
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}
