//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Builds the workload's graph from the seed, starts an in-process
//! server on it, runs the analytics pass loop and the served closed
//! loop for `--seconds` in total, checks every output, and prints the
//! run fingerprint, a readable summary and, as the last line, one JSON
//! object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Exits 1 when any output is wrong, 2 on bad
//! arguments or a harness error.

use gunrock::prelude::*;
use gunrock_engine::json::JsonBuilder;
use gunrock_engine::pool::BufferPool;
use gunrock_graph::{generators, Csr, GraphBuilder, VertexId};
use gunrock_perfbench::ops::{self, Op, Oracle, MSBFS_LANES, OPS};
use gunrock_perfbench::serve::{self, MIX};
use gunrock_perfbench::stats::{describe, median, tail};
use gunrock_perfbench::trace::{SpanId, Tracer};
use gunrock_perfbench::{metrics, sample};
use gunrock_server::{ServerConfig, ServerHandle};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Workload {
    name: &'static str,
    /// Generator name for `generators::from_spec`: `kron` (Graph500
    /// R-MAT, few iterations with huge frontiers) or `roadnet` (a
    /// perturbed 2:1 grid, hundreds of iterations with tiny frontiers).
    graph: &'static str,
}

const WORKLOADS: [Workload; 2] = [
    Workload { name: "kron-analytics", graph: "kron" },
    Workload { name: "road-analytics", graph: "roadnet" },
];

/// Generator scale of every workload's graph.
const SCALE: u32 = 16;
/// Share of `--seconds` spent in the analytics pass loop; the rest goes
/// to the served closed loop.
const ANALYTICS_SHARE: f64 = 0.7;

/// A run sets up at least this many times and for at least
/// [`SETUP_MIN_TIME`]; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 5;
/// See [`SETUP_MIN_REPS`].
const SETUP_MIN_TIME: Duration = Duration::from_secs(2);
/// Sources every pass runs SSSP and BC from (BFS runs from all the
/// MS-BFS lane sources, so `bfs_ms` and `msbfs64_ms` cover the same
/// traversals).
const SINGLE_SOURCES: usize = 8;
/// Distinct sources behind the serve workload's Zipf ranks.
const SERVE_SOURCES: usize = 256;
/// Passes a run makes however short its `--seconds`.
const MIN_PASSES: usize = 3;
/// Each op runs whole sweeps over its sources in a pass until it has
/// spent at least this long, so cheap ops yield steady per-pass means.
const MIN_OP_MS: f64 = 250.0;
/// Requests per primitive in the traced run's transport probe.
const PROBE_REPS: usize = 5;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = HashMap::new();
    for pair in raw.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => kv.insert(k.as_str(), v.as_str()),
            _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
        };
    }
    let get = |k: &str| kv.get(k).copied().ok_or(format!("missing {k}"));
    let name = get("--workload")?;
    let workload = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (expected one of {names:?})")
    })?;
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    // CAST: a whole number of seconds is exact in f64.
    Ok(Args { workload, seed: num("--seed")?, seconds: seconds as f64, trace })
}

/// Runs a command and returns its first output line, if it ran.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let mut cmd = std::process::Command::new(program);
    cmd.args(args);
    if let Some(parent) =
        std::env::current_dir().ok().and_then(|d| d.parent().map(std::path::Path::to_path_buf))
    {
        // never pick up a repository that merely encloses the checkout
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    String::from_utf8(out.stdout).ok()?.lines().next().map(str::to_string)
}

/// Data cache sizes as the kernel reports them for CPU 0 (`L1d`, `L2`, ...).
fn cache_sizes() -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let read = |p: String| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(kind), Some(size)) = (
            read(format!("{dir}/level")),
            read(format!("{dir}/type")),
            read(format!("{dir}/size")),
        ) else {
            continue;
        };
        let tag = match kind.as_str() {
            "Data" => "d",
            "Instruction" => continue,
            _ => "",
        };
        out.insert(format!("L{level}{tag}"), size);
    }
    out
}

fn fingerprint(args: &Args, nproc: usize, g: &Csr) -> String {
    let mut b = JsonBuilder::new();
    b.begin_object();
    b.key("fingerprint");
    b.begin_object();
    b.field_str("workload", args.workload.name);
    b.field_u64("seed", args.seed);
    b.field_f64("seconds", args.seconds);
    b.field_bool("trace", args.trace);
    b.field_u64("nproc", nproc as u64);
    b.field_u64("rayon_threads", nproc as u64);
    b.field_u64("server_workers", nproc as u64);
    b.field_str("rustc", &command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()));
    let commit =
        command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    b.field_str("git_commit", &commit);
    b.field_str("graph", args.workload.graph);
    b.field_u64("scale", u64::from(SCALE));
    b.field_u64("vertices", g.num_vertices() as u64);
    b.field_u64("edges", g.num_edges() as u64);
    b.key("caches");
    b.begin_object();
    for (k, v) in cache_sizes() {
        b.field_str(&k, &v);
    }
    b.end_object();
    b.end_object();
    b.end_object();
    b.finish()
}

/// How one pass runs its calls. Untraced runs use only `Warm`; traced
/// runs rotate through all four so each sees the same host noise.
#[derive(Clone, Copy, PartialEq)]
enum PassKind {
    /// Shared pool, no spans, no stats sink: the end-to-end timing.
    Warm,
    /// Shared pool, spans and a `RunStats` sink.
    Traced,
    /// Shared pool inside a 1-thread rayon pool.
    Threads1,
    /// A fresh pool per call.
    Cold,
}

/// Per-pass figures of one op, keyed by metric prefix (`warm_ms`,
/// `core.advance_ms`, ...): one value per pass, the mean over the op's
/// calls in that pass.
type OpSamples = BTreeMap<&'static str, Vec<f64>>;

/// Key of the untraced per-call time behind the `<op>_ms` metrics.
const WARM: &str = "warm_ms";
/// Key of the traced per-call time.
const TRACED: &str = "traced_ms";

/// Attempted and failed operations, with the first failure's message.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first: Option<String>,
}

impl Tally {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.first.get_or_insert_with(|| format!("{what}: {e}"));
        }
    }
}

struct Bench<'a> {
    graph: &'a Csr,
    pool: &'a Arc<BufferPool>,
    oracle: &'a Oracle<'a>,
    singles: &'a [VertexId],
    lanes: &'a [VertexId],
}

/// Where one pass records into: its kind, span and figure sums.
struct PassCtx<'p> {
    kind: PassKind,
    /// Pass number, also the operation id of its spans.
    id: u64,
    span: SpanId,
    one_thread: &'p rayon::ThreadPool,
}

impl Bench<'_> {
    /// Runs passes until `deadline` (at least [`MIN_PASSES`] and one of
    /// each kind), checking each call's output outside its timed region.
    fn pass_loop(
        &self,
        kinds: &[PassKind],
        deadline: Instant,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> Vec<OpSamples> {
        let main_pool = rayon::ThreadPoolBuilder::new().num_threads(nproc()).build();
        let one = rayon::ThreadPoolBuilder::new().num_threads(1).build();
        let (Ok(main_pool), Ok(one_thread)) = (main_pool, one) else {
            unreachable!("the rayon pool builder cannot fail")
        };
        let mut samples: Vec<OpSamples> = OPS.iter().map(|_| OpSamples::new()).collect();
        main_pool.install(|| {
            let mut pass = 0usize;
            while pass < MIN_PASSES.max(kinds.len()) || Instant::now() < deadline {
                let kind = kinds[pass % kinds.len()];
                let id = pass as u64;
                let span = if kind == PassKind::Traced {
                    tracer.begin("pass", None, id)
                } else {
                    None
                };
                let p = PassCtx { kind, id, span, one_thread: &one_thread };
                for (&op, s) in OPS.iter().zip(samples.iter_mut()) {
                    let sources = match op {
                        Op::Bfs => self.lanes,
                        Op::Sssp | Op::Bc => self.singles,
                        _ => &self.singles[..1],
                    };
                    let mut sums = BTreeMap::new();
                    let (mut calls, mut spent_ms) = (0usize, 0.0);
                    // whole sweeps over the sources until the op has had its
                    // share of the pass, so short ops get as many samples
                    while spent_ms < MIN_OP_MS {
                        for &src in sources {
                            spent_ms += self.call(&p, op, src, tracer, tally, &mut sums);
                            calls += 1;
                        }
                    }
                    for (k, sum) in sums {
                        // CAST: a few hundred calls per pass at most.
                        s.entry(k).or_default().push(sum / calls as f64);
                    }
                }
                tracer.end(span);
                pass += 1;
            }
        });
        samples
    }

    /// Times one call, checks its output, adds its figures to `sums`
    /// and returns its time in ms.
    fn call(
        &self,
        p: &PassCtx<'_>,
        op: Op,
        src: VertexId,
        tracer: &mut Tracer,
        tally: &mut Tally,
        sums: &mut BTreeMap<&'static str, f64>,
    ) -> f64 {
        let pool = match p.kind {
            PassKind::Cold => Arc::new(BufferPool::new()),
            _ => Arc::clone(self.pool),
        };
        let before = pool.stats();
        let mut ctx = Context::new(self.graph)
            .with_reverse(self.graph)
            .with_shared_pool(Arc::clone(&pool));
        let traced = p.kind == PassKind::Traced;
        if traced {
            ctx = ctx.with_stats();
        }
        let span = if traced {
            tracer.begin(&format!("algos.{}", op.name()), p.span, p.id)
        } else {
            None
        };
        let t0 = Instant::now();
        let call = match p.kind {
            PassKind::Threads1 => p.one_thread.install(|| ops::run(&ctx, op, src, self.lanes)),
            _ => ops::run(&ctx, op, src, self.lanes),
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tracer.end(span);
        let after = pool.stats();
        tally.record(op.name(), self.oracle.check(&call, src, self.lanes));
        let mut add = |k: &'static str, v: f64| *sums.entry(k).or_default() += v;
        match p.kind {
            PassKind::Warm => {
                add(WARM, ms);
                // CAST: edge counts are far below 2^53.
                add("algos.mteps", call.edges as f64 / (ms * 1e3));
            }
            PassKind::Traced => {
                let st = ctx.run_stats();
                let adv = st.operator_millis(OperatorKind::Advance);
                let fil = st.operator_millis(OperatorKind::Filter);
                let com = st.operator_millis(OperatorKind::Compute);
                add(TRACED, ms);
                add("core.advance_ms", adv);
                add("core.filter_ms", fil);
                add("core.compute_ms", com);
                add("core.iterations", f64::from(st.iterations()));
                add("core.edges_examined", st.edges_examined() as f64);
                add("core.pull_iterations", f64::from(st.pull_iterations()));
                add("core.loop_overhead_ms", ms - adv - fil - com);
            }
            PassKind::Threads1 => add("algos.threads1_ms", ms),
            PassKind::Cold => {
                add("algos.cold_ms", ms);
                add("engine.pool_high_water_bytes", after.bytes_high_water as f64);
            }
        }
        // the shared pool has served every op once the first pass is over;
        // 1-thread calls are left out, as CC takes another path there
        if p.id > 0 && matches!(p.kind, PassKind::Warm | PassKind::Traced) {
            add("engine.pool_allocations", (after.allocations - before.allocations) as f64);
            add("engine.pool_checkouts", (after.checkouts - before.checkouts) as f64);
        }
        ms
    }
}

/// Hardware threads available to this process.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One set-up: generate, build, pool, server start. Returns the pieces
/// and the set-up time in seconds.
fn set_up(
    w: &Workload,
    seed: u64,
    cfg: &ServerConfig,
    tracer: &mut Tracer,
    rep: u64,
) -> Result<(Arc<Csr>, Arc<BufferPool>, ServerHandle, f64), String> {
    let root = tracer.begin("setup", None, rep);
    let t0 = Instant::now();
    let span = tracer.begin("graph.generate", root, rep);
    let coo = generators::from_spec(w.graph, SCALE, seed)?;
    tracer.end(span);
    let span = tracer.begin("graph.build", root, rep);
    let graph = Arc::new(GraphBuilder::new().random_weights(1, 64, seed ^ 0x3e1).build(coo));
    tracer.end(span);
    let span = tracer.begin("engine.pool", root, rep);
    let pool = Arc::new(BufferPool::new());
    tracer.end(span);
    let span = tracer.begin("server.start", root, rep);
    let handle = gunrock_server::start(Arc::clone(&graph), cfg.clone(), 0)?;
    tracer.end(span);
    let secs = t0.elapsed().as_secs_f64();
    tracer.end(root);
    Ok((graph, pool, handle, secs))
}

fn stop(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

fn series<'a>(s: &'a OpSamples, key: &str) -> &'a [f64] {
    s.get(key).map_or(&[], Vec::as_slice)
}

fn by_prim(m: &HashMap<&'static str, Vec<f64>>, prim: &str) -> f64 {
    m.get(prim).map_or(f64::NAN, |v| med(v))
}

fn run(args: &Args) -> Result<i32, String> {
    let w = args.workload;
    let nproc = nproc();
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let cfg =
        ServerConfig { workers: nproc, queue_capacity: 4 * nproc, ..ServerConfig::default() };

    // set-up, several times; the last one is kept
    let mut setup_s = Vec::new();
    let mut kept = None;
    let setups = Instant::now();
    while setup_s.len() < SETUP_MIN_REPS || setups.elapsed() < SETUP_MIN_TIME {
        let rep = setup_s.len() as u64;
        let (graph, pool, handle, secs) = set_up(w, args.seed, &cfg, &mut tracer, rep)?;
        setup_s.push(secs);
        if let Some((_, _, old)) = kept.replace((graph, pool, handle)) {
            stop(old);
        }
    }
    let Some((graph, pool, handle)) = kept else { unreachable!("SETUP_MIN_REPS > 0") };
    let g: &Csr = &graph;
    println!("{}", fingerprint(args, nproc, g));

    // oracles and inputs, outside every timed region
    let t0 = Instant::now();
    let mut oracle = Oracle::new(g);
    // sources are stratified by the edges a traversal meets in its first
    // two levels: on kron that decides how soon BFS switches to pull, and
    // with it the call's cost (1.5 to 25 ms at scale 16)
    let two_hop = |v| g.neighbors(v).iter().map(|&u| u64::from(g.out_degree(u))).sum();
    let pick = |k, salt| sample::pick_sources(&oracle.components, two_hop, k, salt);
    let lanes = pick(MSBFS_LANES, args.seed ^ 0x5eed_0001);
    let singles = pick(SINGLE_SOURCES, args.seed ^ 0x5eed_0002);
    let serve_sources = pick(SERVE_SOURCES, args.seed ^ 0x5eed_0003);
    oracle.prepare(&singles, &lanes);
    println!("oracles: {:.2} s", t0.elapsed().as_secs_f64());

    let mut tally = Tally::default();
    let analytics = Duration::from_secs_f64(args.seconds * ANALYTICS_SHARE);
    let kinds: &[PassKind] = if args.trace {
        &[PassKind::Traced, PassKind::Warm, PassKind::Threads1, PassKind::Cold]
    } else {
        &[PassKind::Warm]
    };
    let bench =
        Bench { graph: g, pool: &pool, oracle: &oracle, singles: &singles, lanes: &lanes };
    let samples = bench.pass_loop(kinds, Instant::now() + analytics, &mut tracer, &mut tally);

    let served = Duration::from_secs_f64(args.seconds * (1.0 - ANALYTICS_SHARE));
    let addr = handle.addr().to_string();
    let (mut records, serve_secs) = serve::closed_loop(
        &addr,
        nproc,
        &serve_sources,
        args.seed,
        Instant::now() + served,
        &mut tracer,
    )?;
    let (requests, ok) = (records.len(), records.iter().filter(|r| r.hash.is_some()).count());
    let latencies: Vec<f64> = records
        .iter()
        .map(|r| if r.hash.is_some() { r.latency_ms } else { f64::INFINITY })
        .collect();
    let probe = if args.trace {
        let (p, probe_records) =
            serve::probe(&handle, &serve_sources, PROBE_REPS, args.seed, &mut tracer)?;
        records.extend(probe_records);
        Some(p)
    } else {
        None
    };
    let (received, rejected) = serve::server_counts(&handle);
    stop(handle);
    let (bad, first) = serve::check_hashes(g, &pool, &records);
    tally.attempted += records.len() as u64;
    tally.failed += bad as u64;
    if let Some(e) = first {
        tally.first.get_or_insert(format!("serve: {e}"));
    }

    // readable summary
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    println!("{}", describe("setup_s", "s", &setup_s));
    values.insert("setup_s".into(), med(&setup_s));
    for (op, s) in OPS.iter().zip(&samples) {
        let name = format!("{}_ms", op.name());
        let warm = series(s, WARM);
        println!("{}", describe(&name, "ms", warm));
        values.insert(name, med(warm));
    }
    // CAST: request counts are far below 2^53.
    values.insert("serve_qps".into(), ok as f64 / serve_secs);
    values.insert("serve_p50_ms".into(), med(&latencies));
    let (level, tail_ms) = tail(&latencies).unwrap_or((f64::NAN, f64::NAN));
    values.insert("serve_tail_ms".into(), tail_ms);
    println!(
        "serve: {requests} requests over {nproc} connections in {serve_secs:.2} s, {:.2} req/s",
        ok as f64 / serve_secs
    );
    println!("{}", describe("serve_latency_ms", "ms", &latencies));
    println!("serve_tail_ms is p{level} of {} requests", latencies.len());
    // CAST: operation counts are far below 2^53.
    let ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!("failed_ratio: {ratio} ({} of {} operations)", tally.failed, tally.attempted);
    if let Some(e) = &tally.first {
        println!("first failure: {e}");
    }

    let declared = if args.trace {
        per_layer_values(&mut values, &tracer, g, &samples, probe.as_ref(), received, rejected);
        write_trace(args, &tracer);
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };

    let (line, code) = metrics::result_line(&declared, &values, tally.attempted, tally.failed)?;
    println!("{line}");
    Ok(code)
}

fn per_layer_values(
    values: &mut BTreeMap<String, f64>,
    tracer: &Tracer,
    g: &Csr,
    samples: &[OpSamples],
    probe: Option<&serve::Probe>,
    received: u64,
    rejected: u64,
) {
    let mut put = |k: String, v: f64| {
        values.insert(k, v);
    };
    put("graph.generate_s".into(), med(&tracer.durations("graph.generate")));
    put("graph.build_s".into(), med(&tracer.durations("graph.build")));
    put("graph.vertices".into(), g.num_vertices() as f64);
    put("graph.edges".into(), g.num_edges() as f64);
    for (op, s) in OPS.iter().zip(samples) {
        let n = op.name();
        for prefix in [
            "engine.pool_allocations",
            "engine.pool_checkouts",
            "engine.pool_high_water_bytes",
            "core.advance_ms",
            "core.filter_ms",
            "core.compute_ms",
            "core.iterations",
            "core.edges_examined",
            "core.pull_iterations",
            "core.loop_overhead_ms",
            "algos.threads1_ms",
            "algos.cold_ms",
            "algos.mteps",
        ] {
            put(format!("{prefix}.{n}"), med(series(s, prefix)));
        }
        put(format!("trace.overhead_ms.{n}"), med(series(s, TRACED)) - med(series(s, WARM)));
    }
    if let Some(p) = probe {
        for (prim, _) in MIX {
            let (rt, hd, run) =
                (by_prim(&p.roundtrip, prim), by_prim(&p.handle, prim), by_prim(&p.run, prim));
            put(format!("server.roundtrip_ms.{prim}"), rt);
            put(format!("server.handle_ms.{prim}"), hd);
            put(format!("server.run_ms.{prim}"), run);
            put(format!("server.transport_ms.{prim}"), rt - hd);
            put(format!("server.admit_encode_ms.{prim}"), hd - run);
            println!(
                "server {prim}: roundtrip {rt:.3} ms = transport {:.3} + admit/encode {:.3} + run {run:.3}",
                rt - hd,
                hd - run
            );
        }
    }
    put("server.received".into(), received as f64);
    put("server.rejected".into(), rejected as f64);
    for (name, (total, own)) in tracer.self_times() {
        println!("span {name}: total {total:.4} s, self {own:.4} s");
    }
}

/// Writes the spans under `perfbench/out/` in the checkout.
fn write_trace(args: &Args, tracer: &Tracer) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace-{}-{}.json", args.workload.name, args.seed));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tracer.to_json())) {
        Ok(()) => println!("spans: {} written to {}", tracer.spans().len(), path.display()),
        Err(e) => println!("spans: {} kept, not written ({e})", tracer.spans().len()),
    }
}

fn main() {
    let code = match parse_args().and_then(|a| run(&a)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
