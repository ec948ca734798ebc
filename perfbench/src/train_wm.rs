//! `train_wm`: the learner alone. One thread, no server: WM-Sketches at
//! the paper's 8 KB Figure-7 shape (128×14, 128-entry heap, eager heap
//! maintenance) train on seed-derived RCV1-like streams in 256-example
//! batches, with one in-process query after each batch, then recover
//! their top-32.

use std::hint::black_box;
use std::time::{Duration, Instant};

use wmsketch_core::{
    OnlineLearner, SnapshotCodec, TopKRecovery, WeightEstimator, WmSketch, WmSketchConfig,
};
use wmsketch_datagen::SyntheticClassification;
use wmsketch_learn::{Label, SparseVector};
use wmsketch_serve::ServeConfig;

use crate::probes::{self, ProbeInputs};
use crate::stats::{mix, peak_rss_mb, us, Series};
use crate::trace::{Trace, Tracer};
use crate::{repeated_setup, Args, Outcome};

/// The paper's Figure-7 budget.
pub const BUDGET_BYTES: usize = 8192;
/// Examples per batch; one query follows each batch.
const BATCH: usize = 256;
/// Examples per timed update op. A single `update` call (about 20 µs)
/// is short enough that the host's preemptions and timer ticks, which
/// reach about one call in a hundred, decide its p99; a whole batch (about
/// 5 ms) is long enough that one batch in a hundred meets a multi-ms
/// stall of the host, which then decides the p99. Sixteen calls (about
/// 350 µs) absorb the ticks and are rarely hit by a stall, so the p99
/// stays with the learner.
const TIMED: usize = 16;
/// Independent streams (and models) per pass. `topk_recall` is their
/// mean: one stream's recall moves in steps of 1/32 from seed to seed.
const STREAMS: usize = 8;
/// Examples per stream; a pass trains one fresh model on each stream.
const STREAM_EXAMPLES: usize = 4096;
/// Held-out examples the PREDICT queries draw from.
const HELD_OUT: usize = 512;
/// Top-K size recovered and scored.
pub const TOP_K: usize = 32;
/// Examples checked fused-against-naive before the timed phase.
const NAIVE_PREFIX: usize = 2048;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Query kinds, chosen per query from the seed.
#[derive(Clone, Copy)]
pub enum Query {
    /// Margin of a held-out example.
    Predict,
    /// Weight estimate of a planted feature.
    Estimate,
    /// Top-32 recovery.
    TopK,
}

/// The query mix shared with `ingest_query`: 85% PREDICT, 10% ESTIMATE,
/// 5% TOPK.
pub fn query_kind(seed: u64, i: u64) -> Query {
    match mix(seed, i) % 100 {
        0..=84 => Query::Predict,
        85..=94 => Query::Estimate,
        _ => Query::TopK,
    }
}

/// The planted model's `k` heaviest features by |weight|.
pub fn planted_top(gen: &SyntheticClassification, k: usize) -> Vec<u32> {
    let mut planted = gen.planted_model().to_vec();
    planted.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then(a.0.cmp(&b.0)));
    planted.iter().take(k).map(|&(f, _)| f).collect()
}

/// Share of `truth` that appears in `recovered`.
pub fn recall(truth: &[u32], recovered: impl IntoIterator<Item = u32>) -> f64 {
    let got: std::collections::HashSet<u32> = recovered.into_iter().collect();
    truth.iter().filter(|f| got.contains(f)).count() as f64 / truth.len().max(1) as f64
}

/// One seed-derived stream: its training examples, held-out examples and
/// the planted model's heaviest features.
struct Stream {
    train: Vec<(SparseVector, Label)>,
    held_out: Vec<(SparseVector, Label)>,
    planted: Vec<u32>,
}

fn setup(seed: u64) -> Vec<Stream> {
    (0..STREAMS as u64)
        .map(|r| {
            let mut gen = SyntheticClassification::rcv1_like(mix(seed, r));
            let train = gen.take(STREAM_EXAMPLES);
            let held_out = gen.take(HELD_OUT);
            let planted = planted_top(&gen, TOP_K);
            Stream {
                train,
                held_out,
                planted,
            }
        })
        .collect()
}

/// The 8 KB Figure-7 WM configuration.
pub fn wm_config() -> WmSketchConfig {
    WmSketchConfig::with_budget_bytes(BUDGET_BYTES)
}

struct Phase {
    examples: u64,
    start: Instant,
    end: Instant,
    updates: Series,
    queries: Series,
    passes: u64,
    passes_matching: u64,
}

/// Trains one fresh model per stream, stream after stream, until `seconds`
/// have elapsed; every completed model must end in its stream's
/// reference state.
fn phase(
    streams: &[Stream],
    seed: u64,
    seconds: f64,
    reference: &[Vec<u8>],
    tr: &mut Tracer,
) -> Phase {
    let root = tr.begin("train.phase", 0);
    let start = Instant::now();
    let mut p = Phase {
        examples: 0,
        start,
        end: start,
        updates: Series::default(),
        queries: Series::default(),
        passes: 0,
        passes_matching: 0,
    };
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut q = 0u64;
    'passes: for (s, reference) in streams.iter().zip(reference).cycle() {
        let mut m = tr.span("core.WmSketch::new", 0, || WmSketch::new(wm_config()));
        for batch in s.train.chunks(BATCH) {
            let id = tr.begin("core.update", q);
            for run in batch.chunks(TIMED) {
                let t = Instant::now();
                for (x, y) in run {
                    m.update(x, *y);
                }
                p.updates.push(us(t.elapsed()));
            }
            tr.end(id);
            p.examples += batch.len() as u64;
            let kind = query_kind(seed, q);
            let id = tr.begin(
                match kind {
                    Query::Predict => "core.margin",
                    Query::Estimate => "core.estimate",
                    Query::TopK => "core.recover_top_k",
                },
                q,
            );
            let t = Instant::now();
            match kind {
                Query::Predict => {
                    black_box(m.margin(&s.held_out[q as usize % s.held_out.len()].0));
                }
                Query::Estimate => {
                    black_box(m.estimate(s.planted[q as usize % s.planted.len()]));
                }
                Query::TopK => {
                    black_box(m.recover_top_k(TOP_K));
                }
            }
            p.queries.push(us(t.elapsed()));
            tr.end(id);
            q += 1;
            if Instant::now() >= deadline {
                break 'passes;
            }
        }
        p.passes += 1;
        let same = tr.span("hashing.to_snapshot_bytes", 0, || {
            m.to_snapshot_bytes() == *reference
        });
        p.passes_matching += u64::from(same);
    }
    p.end = Instant::now();
    tr.end(root);
    p
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (streams, setup_s) = repeated_setup(SETUPS, || setup(args.seed), drop);

    // Output checks, outside the timed phase: the fused update equals the
    // naive reference bit for bit, and one model per stream gives the
    // reference state (and the recall) every timed model must reproduce.
    let (mut fused, mut naive) = (WmSketch::new(wm_config()), WmSketch::new(wm_config()));
    for (x, y) in &streams[0].train[..NAIVE_PREFIX] {
        fused.update(x, *y);
        naive.update_naive(x, *y);
    }
    out.check(
        "fused update equals update_naive on a 2048-example prefix",
        fused.to_snapshot_bytes() == naive.to_snapshot_bytes(),
    );
    let models: Vec<WmSketch> = streams
        .iter()
        .map(|s| {
            let mut m = WmSketch::new(wm_config());
            m.update_batch(&s.train);
            m
        })
        .collect();
    let reference: Vec<Vec<u8>> = models.iter().map(WmSketch::to_snapshot_bytes).collect();
    let recalls: Vec<f64> = streams
        .iter()
        .zip(&models)
        .map(|(s, m)| recall(&s.planted, m.recover_top_k(TOP_K).iter().map(|e| e.feature)))
        .collect();
    let topk_recall = recalls.iter().sum::<f64>() / recalls.len() as f64;
    println!("topk_recall {topk_recall} (per stream {recalls:?})");

    let epoch = Instant::now();
    let mut untraced = Tracer::new(false, "main", epoch);
    let p = phase(&streams, args.seed, args.seconds, &reference, &mut untraced);
    out.check(
        format!(
            "{} of {} timed models reproduce their stream's reference state",
            p.passes_matching, p.passes
        ),
        p.passes_matching == p.passes,
    );
    out.attempted = (p.updates.len() + p.queries.len()) as u64;
    println!("{}", p.updates.describe("update (16 examples)"));
    println!("{}", p.queries.describe("query"));
    let eps = p.examples as f64 / (p.end - p.start).as_secs_f64();

    if !args.trace {
        out.metric("setup_s", setup_s, "s");
        out.metric("examples_per_s", eps, "examples/s");
        out.metric("update_p50_us", p.updates.quantile(0.5), "us");
        out.metric("query_p50_us", p.queries.quantile(0.5), "us");
        out.metric("topk_recall", topk_recall, "ratio");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return out;
    }

    out.metric("client.update_p99_us", p.updates.quantile(0.99), "us");
    out.metric("client.query_p99_us", p.queries.quantile(0.99), "us");
    let mut tr = Tracer::new(true, "main", epoch);
    let traced = phase(&streams, args.seed, args.seconds / 2.0, &reference, &mut tr);
    out.check(
        "every traced model reproduces its stream's reference state",
        traced.passes_matching == traced.passes,
    );
    let traced_eps = traced.examples as f64 / (traced.end - traced.start).as_secs_f64();
    let node = ServeConfig::new(wm_config(), 2).deferred_heap(128);
    let mut probe_tr = Tracer::new(true, "probes", epoch);
    probes::run(
        &ProbeInputs {
            examples: &streams[0].train,
            frame_examples: BATCH,
            wm: wm_config(),
            node: &node,
            encode: &|| models[0].to_snapshot_bytes(),
            resident_bytes: models[0].resident_bytes(),
        },
        &mut probe_tr,
        &mut out,
    );
    out.metric("bench.tracing_overhead", traced_eps / eps, "ratio");
    out.metric("failed_op_ratio", out.failed_op_ratio(), "ratio");
    let mut trace = Trace::default();
    trace.add(tr);
    trace.add(probe_tr);
    crate::finish_trace(args, &trace, &mut out);
    out
}
