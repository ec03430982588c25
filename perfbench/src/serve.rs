//! The served phase: a closed loop of client connections against an
//! in-process `gunrock_server`, the transport/handle/run probe, and the
//! result-hash check against in-process runs.

use crate::sample::{Rng, Zipf};
use crate::trace::Tracer;
use gunrock::prelude::*;
use gunrock_algos as algos;
use gunrock_engine::json::JsonValue;
use gunrock_engine::pool::BufferPool;
use gunrock_graph::{Csr, VertexId};
use gunrock_server::jobs::{hash_f64s, hash_u32s};
use gunrock_server::{Client, ServerHandle};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The request mix: primitive and its share of requests.
pub const MIX: [(&str, f64); 4] = [("bfs", 0.60), ("sssp", 0.15), ("bc", 0.15), ("cc", 0.10)];

/// Zipf exponent of the source popularity.
pub const ZIPF_S: f64 = 1.1;

/// Requests each connection sends however early the deadline, so even a
/// short run has a tail (ten samples beyond the median).
const MIN_REQUESTS_PER_CONN: usize = 10;

/// Client read timeout; a request slower than this counts as failed.
const TIMEOUT: Duration = Duration::from_secs(60);

/// One answered (or failed) request.
#[derive(Clone, Debug)]
pub struct Record {
    /// Primitive requested.
    pub prim: &'static str,
    /// Source vertex requested.
    pub src: VertexId,
    /// Client-observed latency in milliseconds.
    pub latency_ms: f64,
    /// The response's `result_hash` when it answered `ok`; `None` for
    /// failures and refusals.
    pub hash: Option<String>,
    /// The response's `elapsed_ms` (operator run time in the worker).
    pub run_ms: f64,
}

/// The request line for `prim` from `src`.
pub fn request_line(id: u64, prim: &str, src: VertexId) -> String {
    format!("{{\"id\":\"q{id}\",\"primitive\":\"{prim}\",\"src\":{src}}}")
}

/// Reads the fields the benchmark needs from one response line.
pub fn parse_response(
    prim: &'static str,
    src: VertexId,
    latency_ms: f64,
    line: &str,
) -> Record {
    let v = JsonValue::parse(line).ok();
    let field = |k: &str| v.as_ref().and_then(|v| v.get(k));
    let ok = field("status").and_then(JsonValue::as_str) == Some("ok");
    Record {
        prim,
        src,
        latency_ms,
        hash: ok
            .then(|| field("result_hash").and_then(JsonValue::as_str))
            .flatten()
            .map(String::from),
        run_ms: field("elapsed_ms").and_then(JsonValue::as_f64).unwrap_or(f64::NAN),
    }
}

fn pick_prim(rng: &mut Rng) -> &'static str {
    let mut u = rng.unit();
    for (prim, share) in MIX {
        if u < share {
            return prim;
        }
        u -= share;
    }
    MIX[0].0
}

/// Runs `conns` closed-loop clients until `deadline`; each sends its
/// next request only after the previous answer. Returns every record and
/// the phase's wall time in seconds.
pub fn closed_loop(
    addr: &str,
    conns: usize,
    sources: &[VertexId],
    seed: u64,
    deadline: Instant,
    tracer: &mut Tracer,
) -> Result<(Vec<Record>, f64), String> {
    let zipf = Zipf::new(sources.len(), ZIPF_S);
    let mut clients =
        (0..conns).map(|_| Client::connect(addr, TIMEOUT)).collect::<Result<Vec<_>, _>>()?;
    let phase = tracer.begin("serve.phase", None, 0);
    let start = Instant::now();
    let per_conn: Vec<Option<(Vec<Record>, Tracer)>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let zipf = &zipf;
                let mut t = Tracer::new(tracer.is_on(), tracer.epoch());
                s.spawn(move || {
                    let mut rng = Rng::new(seed ^ (c as u64 + 1).wrapping_mul(0x51ed_270b));
                    let mut out = Vec::new();
                    let mut id = (c as u64) << 32;
                    while out.len() < MIN_REQUESTS_PER_CONN || Instant::now() < deadline {
                        let prim = pick_prim(&mut rng);
                        let src = sources[zipf.sample(&mut rng)];
                        id += 1;
                        let span = t.begin("server.roundtrip", None, id);
                        let t0 = Instant::now();
                        let resp = client.request(&request_line(id, prim, src));
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        t.end(span);
                        // a transport error parses as a failed response
                        out.push(parse_response(prim, src, ms, &resp.unwrap_or_default()));
                    }
                    (out, t)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().ok()).collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let mut records = Vec::new();
    for conn in per_conn {
        let (r, t) = conn.ok_or("a client thread panicked")?;
        records.extend(r);
        tracer.absorb(t, phase);
    }
    tracer.end(phase);
    Ok((records, secs))
}

/// Per-primitive timings of the transport probe, in milliseconds.
#[derive(Default, Debug)]
pub struct Probe {
    /// Time through `Client::request` over TCP.
    pub roundtrip: HashMap<&'static str, Vec<f64>>,
    /// Time through `handle_request` called in-process.
    pub handle: HashMap<&'static str, Vec<f64>>,
    /// The responses' `elapsed_ms`.
    pub run: HashMap<&'static str, Vec<f64>>,
}

/// Sends `reps` requests per primitive one at a time, first through
/// the client, then the same line through `handle_request` in-process.
pub fn probe(
    handle: &ServerHandle,
    sources: &[VertexId],
    reps: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(Probe, Vec<Record>), String> {
    let mut client = Client::connect(&handle.addr().to_string(), TIMEOUT)?;
    let zipf = Zipf::new(sources.len(), ZIPF_S);
    let mut rng = Rng::new(seed ^ 0x9a0b);
    let mut probe = Probe::default();
    let mut records = Vec::new();
    // ids above every closed-loop id (connection << 32 | counter)
    let mut id = u64::MAX / 2;
    for _ in 0..reps {
        for (prim, _) in MIX {
            let src = sources[zipf.sample(&mut rng)];
            id += 1;
            let line = request_line(id, prim, src);
            let span = tracer.begin("server.roundtrip", None, id);
            let t0 = Instant::now();
            // a transport error parses as a failed response
            let resp = client.request(&line).unwrap_or_default();
            let rt = t0.elapsed().as_secs_f64() * 1e3;
            tracer.end(span);
            let span = tracer.begin("server.handle", None, id);
            let t0 = Instant::now();
            let local = gunrock_server::handle_request(handle.state(), &line);
            let hd = t0.elapsed().as_secs_f64() * 1e3;
            tracer.end(span);
            let rec = parse_response(prim, src, rt, &resp);
            let local_rec = parse_response(prim, src, hd, &local);
            probe.roundtrip.entry(prim).or_default().push(rt);
            probe.handle.entry(prim).or_default().push(hd);
            if local_rec.run_ms.is_finite() {
                probe.run.entry(prim).or_default().push(local_rec.run_ms);
            }
            records.push(rec);
            records.push(local_rec);
        }
    }
    Ok((probe, records))
}

/// `(received, rejected)` from the server's `metrics` document.
pub fn server_counts(handle: &ServerHandle) -> (u64, u64) {
    let doc = gunrock_server::handle_request(handle.state(), "{\"primitive\":\"metrics\"}");
    let v = JsonValue::parse(&doc).ok();
    let get = |path: &[&str]| {
        let mut cur = v.as_ref();
        for k in path {
            cur = cur.and_then(|c| c.get(k));
        }
        cur.and_then(JsonValue::as_u64).unwrap_or(0)
    };
    let rejected = [
        "queue_full",
        "deadline_expired",
        "circuit_open",
        "shutting_down",
        "bad_request",
        "over_budget",
    ]
    .iter()
    .map(|k| get(&["rejected", k]))
    .sum();
    (get(&["requests", "received"]), rejected)
}

/// Counts records whose hash differs from the hash of the same query
/// run in-process (each distinct query runs once, outside any timed
/// region). Failed and refused requests count too. Returns the failure
/// count and the first mismatch.
pub fn check_hashes(
    graph: &Csr,
    pool: &Arc<BufferPool>,
    records: &[Record],
) -> (usize, Option<String>) {
    let mut expected: HashMap<(&str, VertexId), String> = HashMap::new();
    let mut failed = 0;
    let mut first = None;
    for r in records {
        let want = expected
            .entry((r.prim, r.src))
            .or_insert_with(|| format!("{:016x}", in_process_hash(graph, pool, r.prim, r.src)));
        if r.hash.as_deref() != Some(want.as_str()) {
            failed += 1;
            first.get_or_insert_with(|| {
                format!("{} from {}: served {:?}, in-process {want}", r.prim, r.src, r.hash)
            });
        }
    }
    (failed, first)
}

/// The result hash of `prim` from `src`, computed the way a worker
/// computes it (fresh Context over the shared pool, default options).
fn in_process_hash(graph: &Csr, pool: &Arc<BufferPool>, prim: &str, src: VertexId) -> u64 {
    let ctx = Context::new(graph).with_reverse(graph).with_shared_pool(Arc::clone(pool));
    match prim {
        "bfs" => hash_u32s(&algos::bfs(&ctx, src, algos::BfsOptions::default()).labels),
        "sssp" => hash_u32s(&algos::sssp(&ctx, src, algos::SsspOptions::default()).dist),
        "bc" => hash_f64s(&algos::bc(&ctx, src, algos::BcOptions::default()).bc_values),
        "cc" => hash_u32s(&algos::cc(&ctx).labels),
        other => unreachable!("{other} is not in the serve mix"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_shares_sum_to_one() {
        let total: f64 = MIX.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let mut rng = Rng::new(1);
        let n = 10_000;
        let bfs = (0..n).filter(|_| pick_prim(&mut rng) == "bfs").count();
        assert!((bfs as f64 / n as f64 - 0.6).abs() < 0.03, "{bfs}");
    }

    #[test]
    fn responses_parse_and_failures_have_no_hash() {
        let ok = r#"{"status":"ok","elapsed_ms":1.5,"result_hash":"00000000000000ab"}"#;
        let r = parse_response("bfs", 3, 2.0, ok);
        assert_eq!(r.hash.as_deref(), Some("00000000000000ab"));
        assert_eq!(r.run_ms, 1.5);
        let err = r#"{"status":"error","code":"queue-full"}"#;
        assert_eq!(parse_response("bfs", 3, 2.0, err).hash, None);
        assert_eq!(parse_response("bfs", 3, 2.0, "garbage").hash, None);
    }
}
