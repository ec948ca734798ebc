//! Per-layer probes of the traced run: each layer's public functions,
//! timed from outside on the workload's own inputs.
//!
//! Every probe repeats its call for a short fixed budget and reports the
//! median repetition, so one descheduled repetition does not move it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use wmsketch_core::{decode_any_learner, OnlineLearner, TopKRecovery, WmSketch, WmSketchConfig};
use wmsketch_hashing::{CoordPlan, Reader, RowHashers, Writer};
use wmsketch_learn::{Label, LabelDomain, SparseVector};
use wmsketch_serve::protocol::{
    put_examples, request_for_model, take_examples_into, ExamplesScratch, OP_UPDATE,
};
use wmsketch_serve::ServeConfig;
use wmsketch_telemetry::CompactLatencyHistogram;

use crate::stats::median;
use crate::trace::Tracer;
use crate::Outcome;

/// Time each probe repeats its call for.
const BUDGET: Duration = Duration::from_millis(150);
/// Shortest timed sample within a probe.
const MIN_SAMPLE: Duration = Duration::from_millis(1);

/// Version-2 request header bytes ahead of the UPDATE payload: frame
/// marker, model id, opcode.
const REQUEST_HEADER: usize = 6;

/// What the probes run on.
pub struct ProbeInputs<'a> {
    /// The workload's examples.
    pub examples: &'a [(SparseVector, Label)],
    /// Examples per UPDATE frame on the workload's wire.
    pub frame_examples: usize,
    /// The 8 KB WM configuration the learner probes use.
    pub wm: WmSketchConfig,
    /// The configuration of the ingest node's default model.
    pub node: &'a ServeConfig,
    /// `to_snapshot_bytes()` of the model the snapshot codec probes
    /// encode and decode.
    pub encode: &'a dyn Fn() -> Vec<u8>,
    /// `resident_bytes()` of the workload's model.
    pub resident_bytes: usize,
}

/// Repeats `rep` (which does `items` units of work) for [`BUDGET`] and
/// returns the median ns per unit. Each timed sample (and span) groups
/// enough calls to last at least [`MIN_SAMPLE`].
fn per_item_ns(tr: &mut Tracer, name: &'static str, items: usize, mut rep: impl FnMut()) -> f64 {
    // The first call warms caches and scratch buffers; the second sizes
    // the samples.
    tr.span(name, 0, &mut rep);
    let t = Instant::now();
    tr.span(name, 0, &mut rep);
    let calls = (MIN_SAMPLE.as_nanos() / t.elapsed().as_nanos().max(1)).max(1) as usize;
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < BUDGET || samples.len() < 5 {
        let id = tr.begin(name, 0);
        let t = Instant::now();
        for _ in 0..calls {
            rep();
        }
        let ns = t.elapsed().as_nanos() as f64;
        tr.end(id);
        samples.push(ns / (calls * items.max(1)) as f64);
    }
    median(&mut samples)
}

/// Runs every probe and adds its metric to `out`.
pub fn run(inputs: &ProbeInputs<'_>, tr: &mut Tracer, out: &mut Outcome) {
    let root = tr.begin("probes", 0);
    let chunk = &inputs.examples[..inputs.examples.len().min(1024)];
    let n = chunk.len();

    let hashers = tr.span("hashing.RowHashers::new", 0, || {
        RowHashers::new(
            inputs.wm.hash_family,
            inputs.wm.depth,
            inputs.wm.width,
            inputs.wm.seed,
        )
    });
    let mut plan = CoordPlan::new();
    let fill = per_item_ns(tr, "hashing.fill_plan", n, || {
        for (x, _) in chunk {
            hashers.fill_plan(&mut plan, x.indices());
            black_box(&plan);
        }
    });
    out.metric("hashing.fill_plan_ns", fill, "ns");

    let encode = per_item_ns(tr, "hashing.to_snapshot_bytes", 1, || {
        black_box((inputs.encode)());
    });
    out.metric("hashing.snapshot_encode_us", encode / 1e3, "us");
    let snapshot = tr.span("hashing.to_snapshot_bytes", 0, inputs.encode);
    let decode = per_item_ns(tr, "hashing.decode_any_learner", 1, || {
        black_box(decode_any_learner(black_box(&snapshot)).is_ok());
    });
    out.metric("hashing.snapshot_decode_us", decode / 1e3, "us");

    let mut model = tr.span("core.WmSketch::new", 0, || WmSketch::new(inputs.wm));
    let update = per_item_ns(tr, "core.update", n, || {
        for (x, y) in chunk {
            model.update(x, *y);
        }
    });
    out.metric("core.update_ns", update, "ns");
    let mut heapless = tr.span("core.WmSketch::new", 0, || {
        WmSketch::new(inputs.wm.heap_capacity(0))
    });
    let update_heapless = per_item_ns(tr, "core.update_heapless", n, || {
        for (x, y) in chunk {
            heapless.update(x, *y);
        }
    });
    out.metric("core.update_heapless_ns", update_heapless, "ns");
    let margin = per_item_ns(tr, "core.margin", n, || {
        for (x, _) in chunk {
            black_box(model.margin(x));
        }
    });
    out.metric("core.margin_ns", margin, "ns");
    let top_k = per_item_ns(tr, "core.recover_top_k", 1, || {
        black_box(model.recover_top_k(32));
    });
    out.metric("core.top_k_us", top_k / 1e3, "us");

    let frame = &inputs.examples[..inputs.frame_examples.min(inputs.examples.len())];
    let mut sharded = tr.span("core.build_learner", 0, || inputs.node.build_learner());
    let sharded_update = per_item_ns(tr, "core.sharded_update_batch", frame.len(), || {
        sharded.update_batch(frame);
    });
    out.metric("core.sharded_update_ns", sharded_update, "ns");
    let mut sync_samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < BUDGET || sync_samples.len() < 5 {
        tr.span("core.sharded_update_batch", 0, || {
            sharded.update_batch(frame)
        });
        let id = tr.begin("core.sharded_sync", 0);
        let t = Instant::now();
        sharded.sync();
        sync_samples.push(t.elapsed().as_secs_f64() * 1e6);
        tr.end(id);
    }
    out.metric("core.sharded_sync_us", median(&mut sync_samples), "us");
    out.metric("core.resident_bytes", inputs.resident_bytes as f64, "bytes");

    let mut body = Vec::new();
    let encode_ns = per_item_ns(tr, "serve.protocol.encode", frame.len(), || {
        let mut w = Writer::new();
        put_examples(&mut w, frame);
        body = request_for_model(0, OP_UPDATE, w);
    });
    out.metric("serve.protocol.encode_ns", encode_ns, "ns");
    let mut scratch = ExamplesScratch::new();
    let decode_ns = per_item_ns(tr, "serve.protocol.decode", frame.len(), || {
        let mut r = Reader::new(&body[REQUEST_HEADER..]);
        take_examples_into(&mut r, &mut scratch, LabelDomain::Binary).expect("decode own frame");
    });
    out.metric("serve.protocol.decode_ns", decode_ns, "ns");
    out.metric(
        "serve.protocol.bytes_per_example",
        (body.len() - REQUEST_HEADER) as f64 / frame.len() as f64,
        "bytes",
    );

    let histogram = CompactLatencyHistogram::new();
    let record = per_item_ns(tr, "telemetry.record", 1024, || {
        for i in 0..1024u64 {
            histogram.record(black_box(1_000 + i * 97));
        }
    });
    out.metric("telemetry.histogram_record_ns", record, "ns");
    tr.end(root);
}
