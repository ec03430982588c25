//! The six analytics calls of one pass, and their output checks against
//! the serial oracles of `gunrock-baselines`.

use gunrock::prelude::*;
use gunrock_algos as algos;
use gunrock_baselines::serial;
use gunrock_graph::{Csr, VertexId};
use std::collections::HashMap;

/// One analytics call of a pass.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Direction-optimized BFS from one source.
    Bfs,
    /// Delta-stepping SSSP from one source.
    Sssp,
    /// Single-source betweenness centrality.
    Bc,
    /// Push PageRank to the library's default tolerance.
    Pagerank,
    /// Connected components.
    Cc,
    /// One 64-lane bit-parallel multi-source BFS.
    Msbfs64,
}

/// Every op, in pass order.
pub const OPS: [Op; 6] = [Op::Bfs, Op::Sssp, Op::Bc, Op::Pagerank, Op::Cc, Op::Msbfs64];

/// Lanes of the multi-source BFS call.
pub const MSBFS_LANES: usize = 64;

/// PageRank check: the L1 distance to the power-iteration oracle (run
/// to an L1 change of 1e-12) may not exceed `n * epsilon / (1 - damping)`
/// of the library's default options. Push PageRank stops once every
/// vertex's pending residual is below `epsilon`, and that bound covers
/// the L1 error such residual can leave behind.
pub fn pagerank_tolerance(n: usize) -> f64 {
    let o = algos::PrOptions::default();
    // CAST: vertex counts are far below 2^53.
    n as f64 * o.epsilon / (1.0 - o.damping)
}

/// BC check: `|got - want| <= BC_REL * max(1, want)` per vertex.
pub const BC_REL: f64 = 1e-9;

impl Op {
    /// Name used in metric names (`bfs_ms`, `core.advance_ms.bfs`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Op::Bfs => "bfs",
            Op::Sssp => "sssp",
            Op::Bc => "bc",
            Op::Pagerank => "pagerank",
            Op::Cc => "cc",
            Op::Msbfs64 => "msbfs64",
        }
    }
}

/// What a call returned, kept until it has been checked.
pub enum Output {
    /// BFS depths.
    Depths(Vec<u32>),
    /// SSSP distances.
    Dist(Vec<u32>),
    /// BC values.
    Bc(Vec<f64>),
    /// PageRank scores.
    Scores(Vec<f64>),
    /// CC labels.
    Labels(Vec<VertexId>),
    /// MS-BFS lane-major depths.
    Lanes(algos::MsbfsResult),
}

/// A finished call: its output plus the work figures it reported.
pub struct Call {
    /// The result, for the output check.
    pub output: Output,
    /// Whether the run converged (anything else is a failure here).
    pub converged: bool,
    /// Edges examined as the result reports them (CC: `|E|`, as
    /// `cc_mteps` counts it).
    pub edges: u64,
}

/// Runs `op` in `ctx`. Single-source ops start at `src`; MS-BFS takes
/// `lanes`.
pub fn run(ctx: &Context<'_>, op: Op, src: VertexId, lanes: &[VertexId]) -> Call {
    let (output, outcome, edges) = match op {
        Op::Bfs => {
            let opts = algos::BfsOptions {
                variant: algos::BfsVariant::DirectionOptimized,
                ..Default::default()
            };
            let r = algos::bfs(ctx, src, opts);
            (Output::Depths(r.labels), r.outcome, r.edges_examined)
        }
        Op::Sssp => {
            let r = algos::sssp(ctx, src, algos::SsspOptions::default());
            (Output::Dist(r.dist), r.outcome, r.edges_examined)
        }
        Op::Bc => {
            let r = algos::bc(ctx, src, algos::BcOptions::default());
            (Output::Bc(r.bc_values), r.outcome, r.edges_examined)
        }
        Op::Pagerank => {
            let r = algos::pagerank(ctx, algos::PrOptions::default());
            (Output::Scores(r.scores), r.outcome, r.edges_examined)
        }
        Op::Cc => {
            let r = algos::cc(ctx);
            (Output::Labels(r.labels), r.outcome, ctx.graph.num_edges() as u64)
        }
        Op::Msbfs64 => {
            let r = algos::msbfs(ctx, lanes);
            let (outcome, edges) = (r.outcome, r.edges_examined);
            (Output::Lanes(r), outcome, edges)
        }
    };
    Call { output, converged: outcome.is_converged(), edges }
}

/// Serial oracle results, computed once per source outside every timed
/// region.
pub struct Oracle<'g> {
    graph: &'g Csr,
    /// Component labels (smallest member id), also the source picker's input.
    pub components: Vec<VertexId>,
    pagerank: Vec<f64>,
    bfs: HashMap<VertexId, Vec<u32>>,
    sssp: HashMap<VertexId, Vec<u32>>,
    bc: HashMap<VertexId, Vec<f64>>,
}

impl<'g> Oracle<'g> {
    /// Oracles that need no source: components and PageRank.
    pub fn new(graph: &'g Csr) -> Self {
        Oracle {
            graph,
            components: serial::connected_components(graph),
            pagerank: serial::pagerank(graph, 0.85, 1e-12, 2000),
            bfs: HashMap::new(),
            sssp: HashMap::new(),
            bc: HashMap::new(),
        }
    }

    /// Precomputes the per-source oracles: BFS for every MS-BFS lane
    /// and single source, SSSP and BC for the single sources.
    pub fn prepare(&mut self, singles: &[VertexId], lanes: &[VertexId]) {
        let g = self.graph;
        for &s in singles.iter().chain(lanes) {
            self.bfs.entry(s).or_insert_with(|| serial::bfs(g, s));
        }
        for &s in singles {
            self.sssp.entry(s).or_insert_with(|| serial::dijkstra(g, s));
            self.bc.entry(s).or_insert_with(|| serial::brandes_single_source(g, s));
        }
    }

    /// Checks one call's output; `Err` names the first mismatch.
    pub fn check(&self, call: &Call, src: VertexId, lanes: &[VertexId]) -> Result<(), String> {
        if !call.converged {
            return Err("run did not converge".to_string());
        }
        match &call.output {
            Output::Depths(got) => exact("bfs depth", got, prepared(&self.bfs, src)?),
            Output::Dist(got) => exact("sssp distance", got, prepared(&self.sssp, src)?),
            Output::Bc(got) => {
                close("bc", got, prepared(&self.bc, src)?, |b| BC_REL * b.abs().max(1.0))
            }
            Output::Scores(got) => {
                let bound = pagerank_tolerance(got.len());
                let l1: f64 = got.iter().zip(&self.pagerank).map(|(a, b)| (a - b).abs()).sum();
                if got.len() == self.pagerank.len() && l1 <= bound {
                    Ok(())
                } else {
                    Err(format!("pagerank L1 distance {l1:e} exceeds {bound:e}"))
                }
            }
            Output::Labels(got) => exact("cc partition", &canonical(got), &self.components),
            Output::Lanes(r) => {
                if r.sources != lanes {
                    return Err("msbfs lanes out of order".to_string());
                }
                for (l, &s) in lanes.iter().enumerate() {
                    exact("msbfs lane depth", r.lane_depths(l), prepared(&self.bfs, s)?)?;
                }
                Ok(())
            }
        }
    }
}

/// The oracle result prepared for source `s`.
fn prepared<T>(m: &HashMap<VertexId, Vec<T>>, s: VertexId) -> Result<&[T], String> {
    m.get(&s).map(Vec::as_slice).ok_or_else(|| format!("no oracle prepared for source {s}"))
}

/// Relabels every vertex with the smallest id of its class, so two
/// labelings of the same partition compare equal.
pub fn canonical(labels: &[VertexId]) -> Vec<VertexId> {
    let mut rep: HashMap<VertexId, VertexId> = HashMap::new();
    for (v, &l) in labels.iter().enumerate() {
        rep.entry(l).or_insert(v as VertexId); // CAST: v indexes a vertex array
    }
    labels.iter().map(|l| rep[l]).collect()
}

fn exact(what: &str, got: &[u32], want: &[u32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: {} values, oracle has {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!("{what}[{i}] = {}, oracle says {}", got[i], want[i])),
    }
}

fn close(
    what: &str,
    got: &[f64],
    want: &[f64],
    tol: impl Fn(f64) -> f64,
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: {} values, oracle has {}", got.len(), want.len()));
    }
    // written so that a NaN on either side fails
    let within = |a: f64, b: f64| (a - b).abs() <= tol(b);
    match got.iter().zip(want).position(|(&a, &b)| !within(a, b)) {
        None => Ok(()),
        Some(i) => Err(format!("{what}[{i}] = {:e}, oracle says {:e}", got[i], want[i])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_graph::generators::{grid2d, rmat, RmatParams};
    use gunrock_graph::GraphBuilder;

    #[test]
    fn every_op_passes_its_check_on_small_graphs() {
        for coo in [rmat(9, 16, RmatParams::graph500(), 3), grid2d(32, 16, 0.05, 0.02, 3)] {
            let g = GraphBuilder::new().random_weights(1, 64, 3).build(coo);
            let mut oracle = Oracle::new(&g);
            let lanes = crate::sample::pick_sources(
                &oracle.components,
                |v| u64::from(g.out_degree(v)),
                MSBFS_LANES,
                9,
            );
            oracle.prepare(&lanes[..2], &lanes);
            for op in OPS {
                let ctx = Context::new(&g).with_reverse(&g);
                let call = run(&ctx, op, lanes[1], &lanes);
                assert_eq!(oracle.check(&call, lanes[1], &lanes), Ok(()), "{}", op.name());
            }
        }
    }

    #[test]
    fn a_wrong_answer_is_caught() {
        let g = GraphBuilder::new().random_weights(1, 64, 3).build(grid2d(8, 8, 0.0, 0.0, 1));
        let mut oracle = Oracle::new(&g);
        oracle.prepare(&[0], &[]);
        let ctx = Context::new(&g);
        let mut call = run(&ctx, Op::Sssp, 0, &[]);
        if let Output::Dist(d) = &mut call.output {
            d[5] += 1;
        }
        assert!(oracle.check(&call, 0, &[]).unwrap_err().contains("sssp distance[5]"));
        let mut call = run(&ctx, Op::Pagerank, 0, &[]);
        if let Output::Scores(s) = &mut call.output {
            s[3] *= 1.01;
        }
        assert!(oracle.check(&call, 0, &[]).is_err());
    }

    #[test]
    fn canonical_maps_equal_partitions_together() {
        assert_eq!(canonical(&[7, 7, 2, 7, 2]), vec![0, 0, 2, 0, 2]);
        assert_eq!(canonical(&[1, 1, 0, 1, 0]), canonical(&[9, 9, 4, 9, 4]));
    }
}
