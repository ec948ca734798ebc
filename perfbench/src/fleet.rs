//! The governed-fleet probe of `ingest_query`'s traced run.
//!
//! One governed node with a data dir and a memory budget of a quarter of
//! the fleet's summed hot size. It receives [`MODELS`] untrained 2 KB
//! AWM-Sketches through OP_CREATE, each hosted unsharded. One closed-loop
//! connection then sends zipf-addressed traffic: each request is an
//! UPDATE of 4 examples to one model, or (one in ten) a TOPK read. Every
//! traced request is followed by a STATS probe that tells whether the
//! governor revived a model while serving it.
//!
//! The fleet is not an end-to-end workload: with a quarter of the fleet
//! resident, about four requests in ten spill a model through an fsynced
//! write, so its end-to-end figures track the host disk's fsync rate,
//! which moves 2–4× from one second to the next on a shared virtual disk.
//! The probe reports the governor and durability layers' per-layer
//! metrics and checks the fleet's outputs.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wmsketch_core::{AwmSketch, AwmSketchConfig, OnlineLearner, SnapshotCodec, WmSketchConfig};
use wmsketch_datagen::zipf::Zipf;
use wmsketch_learn::{Label, SparseVector};
use wmsketch_serve::{ServeClient, ServeConfig, ServerHandle, WmServer};

use crate::stats::{median, mix, quantile, us, Series};
use crate::trace::Tracer;
use crate::{Outcome, ScratchDir};

/// Hosted models.
const MODELS: usize = 2000;
/// Budget as a share of the fleet's summed hot size.
const BUDGET_FRACTION: f64 = 0.25;
/// Per-model sketch budget.
const MODEL_BYTES: usize = 2048;
/// Zipf skew of the model choice.
const ZIPF_S: f64 = 1.1;
/// Examples per UPDATE request.
const EXAMPLES_PER_UPDATE: usize = 4;
/// One request in this many is a TOPK read.
const READ_EVERY: u64 = 10;
/// Top-K size of the reads.
const READ_K: u32 = 32;
/// Untraced requests after set-up, so the traced phase starts with the
/// zipf head resident rather than with the creation order's residency.
const WARMUP_REQUESTS: usize = 2 * MODELS;
/// Length of the traced traffic phase.
const TRAFFIC: Duration = Duration::from_secs(5);
/// Models whose final snapshots are compared against in-process twins.
const SPOT_CHECKS: usize = 32;
/// OP_CHECKPOINT round trips timed after the traffic.
const CHECKPOINTS: usize = 64;

fn model_config(seed: u64) -> AwmSketchConfig {
    AwmSketchConfig::with_budget_bytes(MODEL_BYTES).seed(seed)
}

/// The two planted features of model `k`: one marks the positive class,
/// the other the negative class.
fn planted(seed: u64, k: usize) -> [u32; 2] {
    let h = mix(seed, k as u64);
    [(h % 64) as u32, 64 + ((h >> 8) % 64) as u32]
}

/// The `step`-th UPDATE batch of model `k`'s stream: alternating labels,
/// each example its class's planted feature plus one noise feature.
fn batch(seed: u64, k: usize, step: u64) -> Vec<(SparseVector, Label)> {
    let [pos, neg] = planted(seed, k);
    (0..EXAMPLES_PER_UPDATE as u64)
        .map(|i| {
            let t = step * EXAMPLES_PER_UPDATE as u64 + i;
            let noise = 128 + (mix(seed ^ k as u64, t) % 4096) as u32;
            if t.is_multiple_of(2) {
                (SparseVector::from_pairs(&[(pos, 1.0), (noise, 0.5)]), 1)
            } else {
                (SparseVector::from_pairs(&[(neg, 1.0), (noise, 0.5)]), -1)
            }
        })
        .collect()
}

struct Fleet {
    server: ServerHandle,
    client: ServeClient,
    ids: Vec<u32>,
    _dir: ScratchDir,
}

fn setup(seed: u64, tr: &mut Tracer, create_us: &mut Vec<f64>) -> Fleet {
    let dir = ScratchDir::new(&format!("fleet-{}", std::process::id()));
    let template = AwmSketch::new(model_config(seed)).to_snapshot_bytes();
    let hot_sum = AwmSketch::new(model_config(seed)).resident_bytes() as f64 * MODELS as f64;
    let cfg = ServeConfig::new(WmSketchConfig::new(64, 2), 1)
        .data_dir(&dir.0)
        .memory_budget_bytes((hot_sum * BUDGET_FRACTION) as u64);
    let server = tr.span("serve.bind", 0, || {
        WmServer::bind("127.0.0.1:0", cfg)
            .expect("bind fleet node")
            .spawn()
    });
    let mut client = ServeClient::connect(server.addr()).expect("connect fleet node");
    let ids = (0..MODELS)
        .map(|k| {
            let t = Instant::now();
            let id = tr.span("client.create", k as u64, || {
                client
                    .create_model(&format!("m{k}"), &template, 0)
                    .expect("CREATE a fleet model")
            });
            create_us.push(us(t.elapsed()));
            id
        })
        .collect();
    Fleet {
        server,
        client,
        ids,
        _dir: dir,
    }
}

/// The request stream and each model's progress through its own stream.
struct Traffic {
    seed: u64,
    zipf: Zipf,
    rng: StdRng,
    steps: Vec<u64>,
    requests: u64,
}

#[derive(Default)]
struct Phase {
    attempted: u64,
    failed: u64,
    /// Request latencies split by whether the node revived a model while
    /// serving the request (classified phases only).
    revived: Series,
    resident: Series,
}

/// Sends requests until `requests` have been sent or `deadline` passes.
/// With `classify`, each request is followed by a STATS probe that tells
/// whether the governor revived a model while serving it.
fn phase(
    f: &mut Fleet,
    t: &mut Traffic,
    requests: Option<usize>,
    deadline: Option<Instant>,
    classify: bool,
    tr: &mut Tracer,
) -> Phase {
    let mut p = Phase::default();
    let mut revivals = if classify {
        f.client.stats().expect("STATS").revivals_total
    } else {
        0
    };
    loop {
        if requests.is_some_and(|n| p.attempted as usize >= n)
            || deadline.is_some_and(|d| Instant::now() >= d)
        {
            break;
        }
        let req = t.requests;
        t.requests += 1;
        p.attempted += 1;
        let id = tr.begin("bench.next_request", req);
        let k = (t.zipf.sample(&mut t.rng) - 1) as usize;
        let read = t.rng.next_u64().is_multiple_of(READ_EVERY);
        let examples = (!read).then(|| batch(t.seed, k, t.steps[k]));
        f.client.set_model(f.ids[k]).expect("address a fleet model");
        tr.end(id);
        let started = Instant::now();
        let ok = if let Some(examples) = examples {
            let expected = (t.steps[k] + 1) * EXAMPLES_PER_UPDATE as u64;
            let ok = tr.span("client.update_batch", req, || {
                f.client
                    .update_batch(&examples)
                    .is_ok_and(|n| n == expected)
            });
            if ok {
                t.steps[k] += 1;
            }
            ok
        } else {
            tr.span("client.top_k", req, || {
                f.client.top_k(READ_K).is_ok_and(|top| {
                    top.len() <= READ_K as usize
                        && top
                            .windows(2)
                            .all(|w| w[0].weight.abs() >= w[1].weight.abs())
                })
            })
        };
        let latency = us(started.elapsed());
        if !ok {
            p.failed += 1;
        }
        if classify {
            let now = tr.span("bench.stats_probe", req, || {
                f.client.stats().map_or(revivals, |st| st.revivals_total)
            });
            if now > revivals {
                p.revived.push(latency);
            } else {
                p.resident.push(latency);
            }
            revivals = now;
        }
    }
    p
}

/// Runs the probe, adds the governor, durability and fleet-side server
/// metrics and checks to `out`, and returns an in-process twin of the
/// hottest fleet model (zipf rank 1) for the snapshot codec probes.
pub fn probe(seed: u64, tr: &mut Tracer, out: &mut Outcome) -> AwmSketch {
    let root = tr.begin("fleet.probe", 0);
    let mut create_us = Vec::with_capacity(MODELS);
    let id = tr.begin("fleet.setup", 0);
    let mut f = setup(seed, tr, &mut create_us);
    tr.end(id);
    let mut t = Traffic {
        seed,
        zipf: Zipf::new(MODELS as u64, ZIPF_S),
        rng: StdRng::seed_from_u64(seed),
        steps: vec![0; MODELS],
        requests: 0,
    };
    let id = tr.begin("fleet.warmup", 0);
    let mut off = Tracer::new(false, "fleet", Instant::now());
    let warm = phase(&mut f, &mut t, Some(WARMUP_REQUESTS), None, false, &mut off);
    tr.end(id);
    out.check("every fleet warm-up request succeeded", warm.failed == 0);

    let id = tr.begin("fleet.traffic", 0);
    let before = f.client.stats().expect("STATS");
    let p = phase(
        &mut f,
        &mut t,
        None,
        Some(Instant::now() + TRAFFIC),
        true,
        tr,
    );
    let after = f.client.stats().expect("STATS");
    tr.end(id);
    out.check("every traced fleet request succeeded", p.failed == 0);
    let revivals = after.revivals_total - before.revivals_total;
    println!(
        "fleet: {} revivals and {} evictions over {} requests (hit ratio base)",
        revivals,
        after.evictions_total - before.evictions_total,
        p.attempted
    );
    out.metric(
        "serve.governor.hit_ratio",
        1.0 - revivals as f64 / p.attempted.max(1) as f64,
        "ratio",
    );
    out.metric("serve.governor.revivals", revivals as f64, "count");
    out.metric(
        "serve.governor.evictions",
        (after.evictions_total - before.evictions_total) as f64,
        "count",
    );
    println!(
        "{}",
        p.revived.describe("fleet request that revived a model")
    );
    println!("{}", p.resident.describe("fleet request served resident"));
    out.metric(
        "serve.governor.revived_request_us_p50",
        p.revived.quantile(0.5),
        "us",
    );
    out.metric(
        "serve.governor.resident_request_us_p50",
        p.resident.quantile(0.5),
        "us",
    );
    out.metric(
        "serve.durability.create_us_p50",
        quantile(&mut create_us, 0.5),
        "us",
    );
    out.metric(
        "serve.durability.create_us_p99",
        quantile(&mut create_us, 0.99),
        "us",
    );

    // Spot checks across the zipf rank range (the head stays resident, the
    // tail is spilled and revived): each served snapshot must equal an
    // in-process twin fed the same per-model stream.
    let id = tr.begin("fleet.spot_checks", 0);
    let twin_of = |k: usize| {
        let mut twin = AwmSketch::new(model_config(seed));
        for step in 0..t.steps[k] {
            twin.update_batch(&batch(seed, k, step));
        }
        twin
    };
    let mut matching = 0;
    for j in 0..SPOT_CHECKS {
        let k = j * MODELS / SPOT_CHECKS;
        f.client.set_model(f.ids[k]).expect("address a fleet model");
        let served = f.client.snapshot().expect("SNAPSHOT a fleet model");
        matching += usize::from(served == twin_of(k).to_snapshot_bytes());
    }
    tr.end(id);
    out.check(
        format!(
            "{matching} of {SPOT_CHECKS} spot-checked fleet snapshots equal their in-process twins"
        ),
        matching == SPOT_CHECKS,
    );

    let id = tr.begin("fleet.checkpoints", 0);
    let mut ckpt = Vec::with_capacity(CHECKPOINTS);
    let mut checkpoints_ok = true;
    for i in 0..CHECKPOINTS {
        f.client
            .set_model(f.ids[i % 8])
            .expect("address a fleet model");
        let started = Instant::now();
        checkpoints_ok &= tr.span("client.checkpoint", i as u64, || {
            f.client.checkpoint(&format!("probe-{}.wms", i % 8)).is_ok()
        });
        ckpt.push(us(started.elapsed()));
    }
    tr.end(id);
    out.check(
        format!("all {CHECKPOINTS} OP_CHECKPOINTs succeeded"),
        checkpoints_ok,
    );
    out.metric(
        "serve.durability.checkpoint_us_p50",
        median(&mut ckpt),
        "us",
    );
    let twin = twin_of(0);
    tr.span("serve.shutdown", 0, || f.server.shutdown());
    tr.end(root);
    twin
}
