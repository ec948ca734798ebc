//! `ingest_query`: one in-process node on loopback, writes and reads side
//! by side.
//!
//! The node's default model is an 8 KB WM-Sketch behind a 2-shard
//! deferred-heap pool (the `serve_ingest` shape); telemetry, backend and
//! everything else stay at their defaults, and there is no data dir.
//!
//! - Thread A is a closed-loop producer on one connection: it keeps
//!   [`WINDOW`] pipelined UPDATE frames of [`FRAME_EXAMPLES`] examples in
//!   flight and times each frame from send to ack.
//! - Thread B is an open-loop query client on a second connection: it
//!   sends at [`QUERY_RATE`] per second (the `train_wm` mix of PREDICT,
//!   ESTIMATE and TOPK) and times each query from when it was due.

use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use wmsketch_core::{OnlineLearner, SnapshotCodec};
use wmsketch_datagen::SyntheticClassification;
use wmsketch_hashing::{Reader, Writer};
use wmsketch_learn::{Label, SparseVector};
use wmsketch_serve::protocol::{put_examples, read_frame, request_for_model, OP_UPDATE, STATUS_OK};
use wmsketch_serve::{ServeClient, ServeConfig, ServerHandle, WmServer};

use crate::fleet;
use crate::probes::{self, ProbeInputs};
use crate::stats::{peak_rss_mb, quantile, us, Series};
use crate::trace::{Trace, Tracer};
use crate::train_wm::{planted_top, query_kind, recall, wm_config, Query, TOP_K};
use crate::{repeated_setup, Args, Outcome};

/// Examples per UPDATE frame.
const FRAME_EXAMPLES: usize = 256;
/// UPDATE frames the producer keeps in flight. A query waits behind the
/// examples in flight: with 8 frames a query took longer than the gap
/// between queries and the query backlog grew without bound. Two frames
/// still let the node coalesce a second frame into one lock acquisition
/// (`serve.server.frames_per_lock`).
const WINDOW: usize = 2;
/// Distinct frames in the producer's pool; it cycles through them.
const POOL_FRAMES: usize = 32;
/// Held-out examples the PREDICT queries draw from.
const HELD_OUT: usize = 512;
/// Scheduled queries per second: 1 050 queries fall in a 35-second phase,
/// so their p99 has ten samples beyond it. Each query syncs the shard pool
/// and waits behind the frames queued ahead of it, about 10 ms on a 2-vCPU
/// host in a slow stretch; at one query per 33 ms the query path stays
/// well below saturation even then, so a slow stretch of the host does not
/// turn into a growing backlog.
const QUERY_RATE: f64 = 30.0;
/// Shards of the default model, as `serve_ingest` runs it.
const SHARDS: usize = 2;
/// Per-shard candidate-tracker capacity of the deferred-heap pool.
const CANDIDATES: usize = 128;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The node's configuration: only what a deployment would set.
fn node_config() -> ServeConfig {
    ServeConfig::new(wm_config(), SHARDS).deferred_heap(CANDIDATES)
}

/// The generated inputs.
struct Inputs {
    /// The frames as examples (for the reference learner) and as wire
    /// bytes, length prefix included (for the producer).
    frames: Vec<Vec<(SparseVector, Label)>>,
    wire: Vec<Vec<u8>>,
    held_out: Vec<(SparseVector, Label)>,
    planted: Vec<u32>,
}

struct Setup {
    server: ServerHandle,
    producer: TcpStream,
    queries: ServeClient,
    inputs: Inputs,
}

fn setup(seed: u64) -> Setup {
    let mut gen = SyntheticClassification::rcv1_like(seed);
    let frames: Vec<Vec<(SparseVector, Label)>> =
        (0..POOL_FRAMES).map(|_| gen.take(FRAME_EXAMPLES)).collect();
    let held_out = gen.take(HELD_OUT);
    let planted = planted_top(&gen, TOP_K);
    let wire = frames
        .iter()
        .map(|f| {
            let mut w = Writer::new();
            put_examples(&mut w, f);
            let body = request_for_model(0, OP_UPDATE, w);
            let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
            bytes.extend_from_slice(&body);
            bytes
        })
        .collect();
    let server = WmServer::bind("127.0.0.1:0", node_config())
        .expect("bind loopback node")
        .spawn();
    let producer = TcpStream::connect(server.addr()).expect("connect producer");
    producer.set_nodelay(true).expect("set TCP_NODELAY");
    producer
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    let queries = ServeClient::connect(server.addr()).expect("connect query client");
    Setup {
        server,
        producer,
        queries,
        inputs: Inputs {
            frames,
            wire,
            held_out,
            planted,
        },
    }
}

struct Producer {
    /// Frames acknowledged with the expected cumulative count.
    acked_frames: u64,
    /// Frames written (acked or failed).
    sent_frames: u64,
    failed: u64,
    start: Instant,
    /// When the last in-flight frame was acknowledged.
    end: Instant,
    updates: Series,
}

/// Thread A: keeps [`WINDOW`] frames in flight until `deadline`, then
/// drains. `first` is the global index of the first frame this phase
/// sends; the node's ack after frame `f` must read `(f + 1) × FRAME_EXAMPLES`.
fn produce(
    stream: &mut TcpStream,
    wire: &[Vec<u8>],
    first: u64,
    start: Instant,
    deadline: Instant,
    tr: &mut Tracer,
) -> Producer {
    let mut p = Producer {
        acked_frames: 0,
        sent_frames: 0,
        failed: 0,
        start,
        end: start,
        updates: Series::default(),
    };
    let root = tr.begin("producer.phase", 0);
    let mut inflight: VecDeque<(u64, Instant)> = VecDeque::with_capacity(WINDOW);
    let mut next = first;
    let mut broken = false;
    loop {
        while !broken && Instant::now() < deadline && inflight.len() < WINDOW {
            let id = tr.begin("client.write_frame", next);
            let sent = Instant::now();
            let ok = stream.write_all(&wire[next as usize % wire.len()]).is_ok();
            tr.end(id);
            p.sent_frames += 1;
            if !ok {
                p.failed += 1;
                p.updates.push_failed();
                broken = true;
                break;
            }
            inflight.push_back((next, sent));
            next += 1;
        }
        let Some((frame, sent)) = inflight.pop_front() else {
            break;
        };
        let id = tr.begin("client.read_ack", frame);
        let ack = if broken {
            None
        } else {
            read_frame(stream).ok().flatten()
        };
        tr.end(id);
        let expected = (frame + 1) * FRAME_EXAMPLES as u64;
        let ok = ack.as_deref().is_some_and(|resp| {
            let mut r = Reader::new(resp);
            r.take_u8().ok() == Some(STATUS_OK) && r.take_u64().ok() == Some(expected)
        });
        if ok {
            p.updates.push(us(sent.elapsed()));
            p.acked_frames += 1;
        } else {
            p.failed += 1;
            p.updates.push_failed();
            broken = true;
        }
    }
    p.end = Instant::now();
    tr.end(root);
    p
}

struct Queries {
    attempted: u64,
    failed: u64,
    latencies: Series,
    /// How late the generator itself sent: send time minus the later of
    /// the due time and the previous reply.
    lag_us: Vec<f64>,
}

/// Thread B: one query every `1 / QUERY_RATE` s until `deadline`, each
/// timed from when it was due. `first` numbers the phase's first query.
fn query_loop(
    client: &mut ServeClient,
    s: &Inputs,
    seed: u64,
    first: u64,
    start: Instant,
    deadline: Instant,
    tr: &mut Tracer,
) -> Queries {
    let mut out = Queries {
        attempted: 0,
        failed: 0,
        latencies: Series::default(),
        lag_us: Vec::new(),
    };
    let root = tr.begin("queries.phase", 0);
    let period = Duration::from_secs_f64(1.0 / QUERY_RATE);
    let mut prev_reply = start;
    for i in 0.. {
        let due = start + period * i;
        if due >= deadline {
            break;
        }
        let now = Instant::now();
        if due > now {
            tr.span("client.sleep_until_due", 0, || {
                std::thread::sleep(due - now)
            });
        }
        let q = first + u64::from(i);
        let sent = Instant::now();
        out.lag_us
            .push(us(sent.duration_since(due.max(prev_reply))));
        let ok = match query_kind(seed, q) {
            Query::Predict => tr.span("client.predict", q, || {
                let (x, _) = &s.held_out[q as usize % s.held_out.len()];
                client.predict(x).is_ok_and(|(margin, label)| {
                    margin.is_finite() && label == if margin >= 0.0 { 1 } else { -1 }
                })
            }),
            Query::Estimate => tr.span("client.estimate", q, || {
                client
                    .estimate(s.planted[q as usize % s.planted.len()])
                    .is_ok_and(f64::is_finite)
            }),
            Query::TopK => tr.span("client.top_k", q, || {
                client.top_k(TOP_K as u32).is_ok_and(|top| {
                    top.len() <= TOP_K
                        && top
                            .windows(2)
                            .all(|w| w[0].weight.abs() >= w[1].weight.abs())
                })
            }),
        };
        prev_reply = Instant::now();
        out.attempted += 1;
        if ok {
            out.latencies.push(us(prev_reply.duration_since(due)));
        } else {
            out.failed += 1;
            out.latencies.push_failed();
        }
    }
    tr.end(root);
    out
}

/// What one timed phase measured.
struct Phase {
    producer: Producer,
    queries: Queries,
}

/// One timed phase: both client threads start together and run to the
/// same deadline. Returns the phase and, when `traced`, its spans.
fn phase(
    s: &mut Setup,
    args: &Args,
    seconds: f64,
    first_frame: u64,
    first_query: u64,
    traced: bool,
) -> (Phase, Trace) {
    let Setup {
        producer,
        queries,
        inputs,
        ..
    } = s;
    let inputs = &*inputs;
    let barrier = Barrier::new(2);
    let epoch = Instant::now();
    let seconds = Duration::from_secs_f64(seconds);
    let ((p, tp), (q, tq)) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            let mut tr = Tracer::new(traced, "producer", epoch);
            barrier.wait();
            let start = Instant::now();
            let p = produce(
                producer,
                &inputs.wire,
                first_frame,
                start,
                start + seconds,
                &mut tr,
            );
            (p, tr)
        });
        let b = scope.spawn(|| {
            let mut tr = Tracer::new(traced, "queries", epoch);
            barrier.wait();
            let start = Instant::now();
            let q = query_loop(
                queries,
                inputs,
                args.seed,
                first_query,
                start,
                start + seconds,
                &mut tr,
            );
            (q, tr)
        });
        (
            a.join().expect("producer thread panicked"),
            b.join().expect("query thread panicked"),
        )
    });
    let mut trace = Trace::default();
    trace.add(tp);
    trace.add(tq);
    (
        Phase {
            producer: p,
            queries: q,
        },
        trace,
    )
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (mut s, setup_s) = repeated_setup(SETUPS, || setup(args.seed), |s| s.server.shutdown());

    let (mut p, _) = phase(&mut s, args, args.seconds, 0, 0, false);
    let mut sent_frames = p.producer.sent_frames;
    out.attempted = p.producer.sent_frames + p.queries.attempted;
    out.failed = p.producer.failed + p.queries.failed;
    let eps = (p.producer.acked_frames * FRAME_EXAMPLES as u64) as f64
        / (p.producer.end - p.producer.start).as_secs_f64();
    let lag_p99 = quantile(&mut p.queries.lag_us, 0.99);
    println!(
        "{}",
        p.producer
            .updates
            .describe("update (256-example frame, send to ack)")
    );
    println!("{}", p.queries.latencies.describe("query (from due time)"));
    println!(
        "query generator lag p99 {lag_p99:.1} us over {} queries",
        p.queries.lag_us.len()
    );
    // The generator itself must keep its schedule: a lag beyond one
    // inter-arrival period means the query figures understate the load.
    out.check(
        "open-loop query generator kept its schedule (lag p99 under one period)",
        lag_p99 < 1e6 / QUERY_RATE,
    );
    out.check(
        "every UPDATE ack carried the expected example count",
        p.producer.failed == 0,
    );
    out.check(
        "every query answered with a well-formed reply",
        p.queries.failed == 0,
    );

    let traced = if args.trace {
        let (t, trace) = phase(
            &mut s,
            args,
            args.seconds / 2.0,
            sent_frames,
            p.queries.attempted,
            true,
        );
        sent_frames += t.producer.sent_frames;
        out.check(
            "every traced UPDATE and query succeeded",
            t.producer.failed + t.queries.failed == 0,
        );
        Some((t, trace))
    } else {
        None
    };

    // After the timed phases: top-K recall of the served model, and its
    // snapshot against a reference learner fed the same frames in-process.
    let served_recall = s
        .queries
        .top_k(TOP_K as u32)
        .map(|top| recall(&s.inputs.planted, top.iter().map(|e| e.feature)));
    out.check("final TOPK answered", served_recall.is_ok());
    let topk_recall = served_recall.unwrap_or(0.0);
    let served = s.queries.snapshot().expect("final SNAPSHOT");
    // The traced run's server-side figures, read before the node stops:
    // frames per lock acquisition and the update service-time p50.
    let server_figures = args.trace.then(|| {
        let stats = s.queries.stats().expect("STATS");
        let service = s
            .queries
            .metrics()
            .ok()
            .and_then(|m| m.value("op_latency_ns_p50", &[("op", "update")]))
            .unwrap_or(0.0);
        (
            stats.update_frames as f64 / stats.update_lock_acquisitions.max(1) as f64,
            service,
        )
    });
    // Stop the node and close both connections, so nothing of this node
    // runs beside the reference replay, the fleet probe or the probes.
    let Setup {
        server,
        producer,
        queries,
        inputs,
    } = s;
    drop((producer, queries));
    server.shutdown();
    let mut reference = node_config().build_learner();
    for f in 0..sent_frames {
        reference.update_batch(&inputs.frames[f as usize % inputs.frames.len()]);
    }
    reference.sync();
    out.check(
        format!("served snapshot equals the reference learner fed the same {sent_frames} frames"),
        served == reference.root().to_snapshot_bytes(),
    );

    if let (Some((t, trace)), Some((frames_per_lock, service))) = (traced, server_figures) {
        out.metric("serve.server.frames_per_lock", frames_per_lock, "ratio");
        out.metric("serve.server.update_service_us_p50", service / 1e3, "us");
        out.metric("serve.client.sched_lag_us_p99", lag_p99, "us");
        out.metric(
            "client.update_p99_us",
            p.producer.updates.quantile(0.99),
            "us",
        );
        out.metric(
            "client.query_p99_us",
            p.queries.latencies.quantile(0.99),
            "us",
        );
        let traced_eps = (t.producer.acked_frames * FRAME_EXAMPLES as u64) as f64
            / (t.producer.end - t.producer.start).as_secs_f64();
        let root = reference.root();
        let mut fleet_tr = Tracer::new(true, "fleet", Instant::now());
        let fleet_model = fleet::probe(args.seed, &mut fleet_tr, &mut out);
        let mut probe_tr = Tracer::new(true, "probes", Instant::now());
        probes::run(
            &ProbeInputs {
                examples: &inputs.frames.concat(),
                frame_examples: FRAME_EXAMPLES,
                wm: wm_config(),
                node: &node_config(),
                encode: &|| fleet_model.to_snapshot_bytes(),
                resident_bytes: root.resident_bytes(),
            },
            &mut probe_tr,
            &mut out,
        );
        out.metric("bench.tracing_overhead", traced_eps / eps, "ratio");
        out.metric("failed_op_ratio", out.failed_op_ratio(), "ratio");
        let mut trace = trace;
        trace.add(fleet_tr);
        trace.add(probe_tr);
        crate::finish_trace(args, &trace, &mut out);
    } else {
        let (a, q) = (&p.producer, &p.queries);
        out.metric("setup_s", setup_s, "s");
        out.metric("examples_per_s", eps, "examples/s");
        out.metric("update_p50_us", a.updates.quantile(0.5), "us");
        out.metric("query_p50_us", q.latencies.quantile(0.5), "us");
        out.metric("topk_recall", topk_recall, "ratio");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    out
}
