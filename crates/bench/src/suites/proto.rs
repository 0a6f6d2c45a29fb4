//! The query-protocol suite: wire encode/decode cost, in-process
//! `QueryService` dispatch overhead (benched against the raw
//! `FrozenIndex::lookup` numbers in the `serving` suite — the
//! acceptance bar is ≤ 2x), and end-to-end HTTP loopback throughput
//! with batched requests (the ≥ 50k lookups/s acceptance bar).

use super::Profile;
use crate::bench_dataset;
use criterion::{black_box, Criterion};
use fsi::{
    decode_request, decode_response, encode_request, encode_response, HttpClient, Method, Pipeline,
    Request, Response, TaskSpec, WirePoint,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Registers the protocol suite under `serving/proto_…` ids.
pub fn register(c: &mut Criterion, p: &Profile) {
    let dataset = bench_dataset(p.n_individuals, p.grid_side);
    let serving = Pipeline::on(&dataset)
        .task(TaskSpec::act())
        .method(Method::FairKd)
        .height(p.method_height)
        .run()
        .expect("pipeline run for proto fixtures")
        .serve()
        .expect("serving wires up");
    let mut service = serving.service();

    let bounds = *dataset.grid().bounds();
    let mut rng = StdRng::seed_from_u64(4242);
    let points: Vec<WirePoint> = (0..p.serve_batch)
        .map(|_| {
            WirePoint::new(
                bounds.min_x + rng.random::<f64>() * bounds.width(),
                bounds.min_y + rng.random::<f64>() * bounds.height(),
            )
        })
        .collect();
    let batch_request = Request::LookupBatch {
        points: points.clone(),
    };
    let batch_wire = encode_request(&batch_request);
    let decisions = service.dispatch(&batch_request);
    let batch_response = encode_response(&decisions);

    let mut group = c.benchmark_group(format!(
        "serving/proto_n{}_h{}",
        p.n_individuals, p.method_height
    ));

    // Wire cost of the smallest request: one lookup envelope.
    let lookup = Request::Lookup { x: 0.31, y: 0.72 };
    let lookup_wire = encode_request(&lookup);
    group.bench_function("encode_lookup", |b| {
        b.iter(|| black_box(encode_request(black_box(&lookup)).len()))
    });
    group.bench_function("decode_lookup", |b| {
        b.iter(|| black_box(decode_request(black_box(&lookup_wire)).expect("valid wire")))
    });

    // Wire cost of a full batch round-trip, step by step: the client
    // encodes the request, the server decodes it and encodes the
    // decisions, the client decodes them. Floats dominate all four.
    group.bench_function(format!("encode_batch_x{}", p.serve_batch), |b| {
        b.iter(|| black_box(encode_request(black_box(&batch_request)).len()))
    });
    group.bench_function(format!("encode_response_x{}", p.serve_batch), |b| {
        b.iter(|| black_box(encode_response(black_box(&decisions)).len()))
    });
    group.bench_function(format!("decode_batch_x{}", p.serve_batch), |b| {
        b.iter(|| black_box(decode_request(black_box(&batch_wire)).expect("valid wire")))
    });
    group.bench_function(format!("decode_response_x{}", p.serve_batch), |b| {
        b.iter(|| black_box(decode_response(black_box(&batch_response)).expect("valid wire")))
    });

    // In-process dispatch: protocol hot path without any wire. The
    // serving suite's `lookup_x{N}` is the raw-index twin of this id;
    // their ratio is the dispatch overhead the acceptance bar caps at 2x.
    group.bench_function(format!("dispatch_lookup_x{}", p.serve_batch), |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for q in &points {
                let response = service.dispatch(&Request::Lookup { x: q.x, y: q.y });
                match response {
                    Response::Decision { decision } => acc = acc.wrapping_add(decision.leaf_id),
                    other => panic!("expected decision, got {other:?}"),
                }
            }
            black_box(acc)
        })
    });
    group.bench_function(format!("dispatch_batch_x{}", p.serve_batch), |b| {
        b.iter(|| match service.dispatch(&batch_request) {
            Response::Decisions { decisions } => black_box(decisions.len()),
            other => panic!("expected decisions, got {other:?}"),
        })
    });

    // End-to-end HTTP loopback: one keep-alive client, batched
    // requests. points-per-second = serve_batch / median; the
    // acceptance bar is ≥ 50k lookups/s on the full profile.
    {
        let server = serving
            .listen("127.0.0.1:0")
            .expect("loopback listener binds");
        let mut client = HttpClient::connect(server.addr()).expect("client connects");
        group.bench_function(format!("http_batch_x{}", p.serve_batch), |b| {
            b.iter(|| match client.call(&batch_request).expect("round-trip") {
                Response::Decisions { decisions } => black_box(decisions.len()),
                other => panic!("expected decisions, got {other:?}"),
            })
        });
        group.bench_function("http_lookup_x1", |b| {
            b.iter(|| match client.call(&lookup).expect("round-trip") {
                Response::Decision { decision } => black_box(decision.leaf_id),
                other => panic!("expected decision, got {other:?}"),
            })
        });
        drop(client);
        server.shutdown();
    }

    group.finish();
}
