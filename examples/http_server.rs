//! Quickstart for the HTTP serving transport: train a fair index, bind
//! the std-only HTTP/1.1 JSON listener, and (in smoke mode) round-trip
//! the whole protocol through a real TCP client.
//!
//! ```sh
//! # Serve the LA preset on a fixed port until ctrl-c:
//! cargo run --release -p fsi --example http_server -- 127.0.0.1:7878
//!
//! # CI smoke mode: ephemeral port, in-process client, exits nonzero on
//! # any failed round-trip:
//! cargo run --release -p fsi --example http_server -- --smoke
//! ```
//!
//! Query it with any HTTP client, one request envelope per POST:
//!
//! ```sh
//! curl -s -d '{"v":1,"body":{"Lookup":{"x":0.31,"y":0.72}}}' http://127.0.0.1:7878/query
//! curl -s -d '{"v":1,"body":{"RangeQuery":{"rect":{"min_x":0.2,"min_y":0.2,"max_x":0.4,"max_y":0.4}}}}' http://127.0.0.1:7878/query
//! curl -s -d '{"v":1,"body":"Stats"}' http://127.0.0.1:7878/query
//! ```
//!
//! The same listener exposes Prometheus telemetry outside the JSON
//! envelope path — point a scraper (or curl) at it:
//!
//! ```sh
//! curl -s http://127.0.0.1:7878/metrics
//! ```

use fsi::{HttpClient, Method, Pipeline, Request, Response, TaskSpec, WirePoint, WireRect};
use std::io::{BufRead, BufReader, Write};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");

    // Smoke mode shrinks the dataset so CI finishes in seconds.
    let dataset = if smoke {
        fsi_data::synth::city::CityGenerator::new(fsi_data::synth::city::CityConfig {
            n_individuals: 300,
            grid_side: 16,
            seed: 7,
            ..Default::default()
        })?
        .generate()?
    } else {
        fsi_data::synth::edgap::generate_los_angeles()?
    };

    let serving = Pipeline::on(&dataset)
        .task(TaskSpec::act())
        .method(Method::FairKd)
        .height(if smoke { 4 } else { 10 })
        .run()?
        .serve()?;

    let addr = if smoke {
        "127.0.0.1:0".to_string() // ephemeral: never collides in CI
    } else {
        args.first()
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:7878".to_string())
    };
    let server = serving.listen(&addr as &str)?;
    println!(
        "serving {} neighborhoods at http://{} (POST a request envelope to /query)",
        serving.handle().load().num_leaves(),
        server.addr()
    );

    if smoke {
        return smoke_round_trip(&server);
    }

    println!("examples:");
    println!(
        "  {}",
        fsi::encode_request(&Request::Lookup { x: 0.31, y: 0.72 })
    );
    println!("  {}", fsi::encode_request(&Request::Stats));
    println!("ctrl-c to stop");
    // Serve until the process is killed; the listener threads do the work.
    loop {
        std::thread::park();
    }
}

/// The CI smoke: one client, every request kind, hard failure on any
/// non-2xx status or unexpected response shape.
fn smoke_round_trip(server: &fsi::HttpServer) -> Result<(), Box<dyn std::error::Error>> {
    let mut client = HttpClient::connect(server.addr())?;

    let Response::Decision { decision } = client.call(&Request::Lookup { x: 0.31, y: 0.72 })?
    else {
        return Err("lookup did not answer a decision".into());
    };
    println!(
        "lookup   -> leaf {} calibrated {:.4}",
        decision.leaf_id, decision.calibrated_score
    );

    let Response::Decisions { decisions } = client.call(&Request::LookupBatch {
        points: (0..64)
            .map(|i| WirePoint::new((i as f64 + 0.5) / 64.0, ((i * 7) % 64) as f64 / 64.0))
            .collect(),
    })?
    else {
        return Err("batch did not answer decisions".into());
    };
    println!("batch    -> {} decisions", decisions.len());

    let Response::Regions { ids } = client.call(&Request::RangeQuery {
        rect: WireRect::new(0.2, 0.2, 0.6, 0.6),
    })?
    else {
        return Err("range query did not answer regions".into());
    };
    println!("range    -> {} neighborhoods", ids.len());

    let Response::Stats { stats } = client.call(&Request::Stats)? else {
        return Err("stats did not answer stats".into());
    };
    println!(
        "stats    -> gen {:?}, {} leaves, {} B, {} backend",
        stats.generations, stats.num_leaves, stats.heap_bytes, stats.backend
    );

    // An application-level error must still be a 2xx protocol exchange.
    let Response::Error { error } = client.call(&Request::Lookup { x: 9.0, y: 9.0 })? else {
        return Err("out-of-bounds lookup did not answer an error body".into());
    };
    println!("oob      -> {}: {}", error.code, error.message);

    // Framing: the server drains a rejected request's body, so the
    // request behind it on the same keep-alive connection is answered
    // normally.
    let stream = std::net::TcpStream::connect(server.addr())?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10)))?;
    let mut reader = BufReader::new(&stream);
    let rejected = fsi::encode_request(&Request::Stats);
    write!(
        &stream,
        "GET /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{rejected}",
        rejected.len()
    )?;
    let (status, _) = read_raw_response(&mut reader)?;
    if status != 405 {
        return Err(format!("GET /query with a body answered {status}, not 405").into());
    }
    let lookup = fsi::encode_request(&Request::Lookup { x: 0.31, y: 0.72 });
    write!(
        &stream,
        "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{lookup}",
        lookup.len()
    )?;
    let (status, body) = read_raw_response(&mut reader)?;
    match fsi::decode_response(&body)? {
        Response::Decision { decision: again } if status == 200 && again == decision => {}
        other => {
            return Err(format!("lookup after a 405 answered {status} {other:?}").into());
        }
    }
    println!(
        "framing  -> GET /query 405, then lookup leaf {} on the same connection",
        decision.leaf_id
    );

    // The text exposition must reflect the traffic above and parse as
    // Prometheus text: every sample line names a family that was
    // declared by a `# TYPE` comment before it.
    let text = fsi::scrape_metrics(server.addr())?;
    if !text.contains("fsi_requests_total{kind=\"lookup\"}") {
        return Err("metrics scrape is missing the lookup request counter".into());
    }
    if !text.contains("# TYPE fsi_request_latency_seconds summary") {
        return Err("metrics scrape is missing the latency summary family".into());
    }
    let mut declared = std::collections::HashSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            if let Some(name) = rest.split_whitespace().next() {
                declared.insert(name.to_string());
            }
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let name = line
            .split(['{', ' '])
            .next()
            .unwrap_or("")
            .trim_end_matches("_sum")
            .trim_end_matches("_count")
            .to_string();
        if !declared.contains(&name) {
            return Err(format!("metrics sample `{line}` has no # TYPE declaration").into());
        }
        if line
            .rsplit(' ')
            .next()
            .and_then(|v| v.parse::<f64>().ok())
            .is_none()
        {
            return Err(format!("metrics sample `{line}` does not end in a number").into());
        }
    }
    println!(
        "metrics  -> {} families, {} bytes of exposition",
        declared.len(),
        text.len()
    );

    println!("smoke ok");
    Ok(())
}

/// Reads one framed response off a raw connection: `(status, body)`.
fn read_raw_response(
    reader: &mut impl BufRead,
) -> Result<(u16, String), Box<dyn std::error::Error>> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .ok_or("connection closed before a response")?
        .parse()?;
    let mut length = 0;
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        match line.trim().split_once(':') {
            Some((name, value)) if name.eq_ignore_ascii_case("content-length") => {
                length = value.trim().parse()?
            }
            Some(_) => {}
            None => break, // the blank line that ends the head
        }
    }
    let mut body = vec![0; length];
    reader.read_exact(&mut body)?;
    Ok((status, String::from_utf8(body)?))
}
