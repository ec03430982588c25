//! PageRank (§5.5).
//!
//! "In Gunrock, we begin with a frontier that contains all vertices in
//! the graph and end when all vertices have converged. Each iteration
//! contains one advance operator to compute the PageRank value on the
//! frontier of vertices, and one filter operator to remove the vertices
//! whose PageRanks have already converged. We accumulate PageRank values
//! with AtomicAdd operations."
//!
//! Realized as residual PageRank: every frontier vertex sends
//! `d * residual / degree` along each out-edge; a vertex re-enters the
//! frontier while its incoming residual exceeds the tolerance. The fixed
//! point is the standard PageRank vector (teleport `(1-d)/n`), so
//! results are directly comparable to power iteration.
//!
//! Each iteration picks its direction (§4.5: "supports both push-based
//! (scatter) communication and pull-based (gather) communication"). A
//! sparse frontier pushes its shares with the paper's atomic adds; once
//! the frontier's out-edges pass `|E| / PULL_EDGE_DIVISOR` and a reverse
//! graph is attached, every vertex instead gathers its in-neighbors'
//! shares with plain loads ([`pull_reduce`]). Off-frontier shares are
//! zero and frontiers are ascending, so on one thread both directions
//! add the same terms in the same order: the scores are bit-identical.

use crate::recover::{check_failed, expect_len, expect_vertex_ids, malformed};
use gunrock::prelude::*;
use gunrock_engine::atomics::{as_atomic_f64, AtomicF64};
use gunrock_engine::compact::compact_indices;
use gunrock_graph::{EdgeId, VertexId};
use rayon::prelude::*;

/// An iteration pulls once its frontier's out-edges exceed
/// `|E| / PULL_EDGE_DIVISOR`: a pull step reads every edge with a plain
/// load, a push step pays an atomic add per frontier edge, so pulling
/// wins well before the frontier covers the graph.
const PULL_EDGE_DIVISOR: usize = 4;

/// PageRank configuration.
#[derive(Clone, Copy, Debug)]
pub struct PrOptions {
    /// Damping factor (`d` in the PageRank equation).
    pub damping: f64,
    /// Convergence tolerance: per-vertex pending residual mass. A vertex
    /// at or below it leaves the frontier; the run converges when the
    /// frontier is empty.
    pub epsilon: f64,
    /// Hard iteration cap (`1` reproduces the paper's one-iteration
    /// Ligra comparison).
    pub max_iters: usize,
    /// Workload mapping for push iterations (a pull iteration gathers
    /// over every vertex).
    pub mode: AdvanceMode,
}

impl Default for PrOptions {
    fn default() -> Self {
        PrOptions { damping: 0.85, epsilon: 1e-9, max_iters: 1000, mode: AdvanceMode::Auto }
    }
}

/// PageRank output.
#[derive(Clone, Debug)]
pub struct PrResult {
    /// Converged scores (sum to ~1; dangling mass teleports uniformly).
    pub scores: Vec<f64>,
    /// Bulk-synchronous iterations executed.
    pub iterations: u32,
    /// Edges examined over all iterations: a push iteration counts the
    /// frontier's out-edges, a pull iteration every edge.
    pub edges_examined: u64,
    /// Iterations that gathered in the pull direction. A resumed run
    /// counts from the resume point.
    pub pull_iterations: u32,
    /// Wall time of the enact loop.
    pub elapsed: std::time::Duration,
    /// How the enact loop ended. A partial outcome still carries a
    /// usable score vector: residual mass not yet propagated is folded
    /// back in, so scores always sum to ~1 — they are simply further
    /// from the fixed point. The algorithm's own `max_iters` knob counts
    /// as convergence; only the context's [`RunPolicy`] produces partial
    /// outcomes.
    pub outcome: RunOutcome,
}

/// Residual-push functor: scatter the source's share to the
/// destination's accumulator (the paper's AtomicAdd accumulation).
struct PushShare<'a> {
    share: &'a [f64],
    acc: &'a [AtomicF64],
}

impl AdvanceFunctor for PushShare<'_> {
    #[inline]
    fn cond_edge(&self, src: VertexId, dst: VertexId, _e: EdgeId) -> bool {
        let _ = self.acc[dst as usize].fetch_add(self.share[src as usize]);
        false // effect-only
    }
}

/// In-flight PageRank loop state at an iteration boundary. The snapshot
/// is taken *before* the final sub-threshold residual fold, so a resumed
/// run absorbs exactly the residual an uninterrupted one would have —
/// `f64` sections round-trip bit-exactly, making resume bit-identical.
struct PrLoop {
    scores: Vec<f64>,
    residual: Vec<f64>,
    frontier: Frontier,
    iterations: u32,
}

/// Writes an iteration-boundary snapshot when a checkpoint policy is
/// installed. Sections: `scores`/`residual` (f64, bit-exact), the live
/// `frontier`, and `params` `[damping, epsilon]`.
fn pagerank_checkpoint(
    ctx: &Context<'_>,
    opts: &PrOptions,
    scores: &[f64],
    residual: &[f64],
    frontier: &Frontier,
    iterations: u32,
) {
    if ctx.checkpoint_policy().is_none() {
        return;
    }
    let mut ckpt = Checkpoint::new("pagerank", iterations);
    ckpt.push_f64("scores", scores.to_vec());
    ckpt.push_f64("residual", residual.to_vec());
    ckpt.push_u32("frontier", frontier.as_slice().to_vec());
    ckpt.push_f64("params", vec![opts.damping, opts.epsilon]);
    ctx.save_checkpoint(&ckpt);
}

/// Runs PageRank over the whole graph.
pub fn pagerank(ctx: &Context<'_>, opts: PrOptions) -> PrResult {
    let g = ctx.graph;
    let n = g.num_vertices();
    if n == 0 {
        return PrResult {
            scores: Vec::new(),
            iterations: 0,
            edges_examined: 0,
            pull_iterations: 0,
            elapsed: std::time::Duration::ZERO,
            outcome: RunOutcome::Converged,
        };
    }
    let base = (1.0 - opts.damping) / n as f64;
    let st = PrLoop {
        scores: vec![0.0f64; n],
        // every vertex starts with the teleport mass as pending residual
        residual: vec![base; n],
        frontier: Frontier::full(n),
        iterations: 0,
    };
    pagerank_run(ctx, opts, st)
}

/// Resumes PageRank from a `gunrock-ckpt/v1` snapshot. The checkpoint's
/// damping and epsilon override `opts` (changing them mid-run would
/// converge to a different fixed point); `max_iters` and the advance
/// mode still come from `opts`.
pub fn pagerank_resume(
    ctx: &Context<'_>,
    opts: PrOptions,
    ckpt: &Checkpoint,
) -> Result<PrResult, GunrockError> {
    ckpt.expect_primitive("pagerank")?;
    let n = ctx.num_vertices();
    let scores = ckpt.f64s("scores")?;
    expect_len(scores.len(), n, "scores")?;
    let residual = ckpt.f64s("residual")?;
    expect_len(residual.len(), n, "residual")?;
    let frontier = ckpt.u32s("frontier")?;
    expect_vertex_ids(frontier, n, "frontier")?;
    let params = ckpt.f64s("params")?;
    let [damping, epsilon] = params else {
        return Err(malformed(format!("params must be [damping, epsilon], got {params:?}")));
    };
    let opts = PrOptions { damping: *damping, epsilon: *epsilon, ..opts };
    let st = PrLoop {
        scores: scores.to_vec(),
        residual: residual.to_vec(),
        frontier: Frontier::from_vec(frontier.to_vec()),
        iterations: ckpt.iteration(),
    };
    let r = pagerank_run(ctx, opts, st);
    check_failed(ctx, r.outcome, r)
}

/// The enact loop proper, starting from an arbitrary iteration-boundary
/// state (fresh from [`pagerank`] or restored by [`pagerank_resume`]).
fn pagerank_run(ctx: &Context<'_>, opts: PrOptions, st: PrLoop) -> PrResult {
    let g = ctx.graph;
    let n = g.num_vertices();
    let start = std::time::Instant::now();
    // Budget admission: demote the advance mode (or poison with a
    // structured BudgetExceeded) before the first operator launches.
    let opts = PrOptions { mode: crate::admission::admit(ctx, "pagerank", opts.mode), ..opts };
    let PrLoop { mut scores, mut residual, mut frontier, mut iterations } = st;
    // per-run arrays, all zero between iterations: `share[v]` is what a
    // frontier vertex sends along each out-edge (zero off the frontier,
    // so a pull step may read it for every in-edge) and `acc[v]` the
    // mass v receives
    let mut share = vec![0.0f64; n];
    let mut acc = vec![0.0f64; n];
    let pull_edges = (g.num_edges() / PULL_EDGE_DIVISOR) as u64;
    let mut pull_iterations = 0u32;
    let guard = ctx.guard();
    let mut outcome = RunOutcome::Converged;

    while !frontier.is_empty() && (iterations as usize) < opts.max_iters {
        if ctx.checkpoint_due(iterations) {
            pagerank_checkpoint(ctx, &opts, &scores, &residual, &frontier, iterations);
        }
        if let Some(tripped) = guard.check(iterations) {
            outcome = tripped;
            if tripped != RunOutcome::Failed {
                pagerank_checkpoint(ctx, &opts, &scores, &residual, &frontier, iterations);
            }
            break;
        }
        iterations += 1;
        // absorb frontier residuals into the scores (compute step) and
        // split each into per-edge shares; a dangling (out-degree 0)
        // vertex cannot send, so its damped mass teleports uniformly,
        // matching the power-iteration fixed point
        let mut dangling = 0.0f64;
        let mut frontier_edges = 0u64;
        for &v in frontier.as_slice() {
            let deg = g.out_degree(v);
            let v = v as usize;
            scores[v] += residual[v];
            if deg == 0 {
                dangling += opts.damping * residual[v];
            } else {
                share[v] = opts.damping * residual[v] / deg as f64;
                frontier_edges += u64::from(deg);
            }
        }
        let pull = ctx.reverse.is_some() && frontier_edges > pull_edges;
        ctx.end_iteration(pull);
        if pull {
            // gather: every vertex sums its in-neighbors' shares
            pull_iterations += 1;
            pull_reduce(
                ctx,
                frontier.len(),
                0.0,
                |_v, u, _e| share[u as usize],
                |a, b| a + b,
                &mut acc,
            );
        } else {
            // push: advance for effect with atomic accumulation
            let functor = PushShare { share: &share, acc: as_atomic_f64(&mut acc) };
            let spec = AdvanceSpec::for_effect().with_mode(opts.mode);
            let _ = advance::advance(ctx, &frontier, spec, &functor);
        }
        // consumed residuals are gone; newly received ones replace them
        for &v in frontier.as_slice() {
            residual[v as usize] = 0.0;
            share[v as usize] = 0.0;
        }
        let teleport = dangling / n as f64;
        residual.par_iter_mut().zip(acc.par_iter_mut()).for_each(|(r, a)| {
            *r += *a + teleport;
            *a = 0.0;
        });
        // filter: vertices with enough pending residual re-enter. This
        // loop never takes buffers from the pool, so the old frontier is
        // dropped rather than recycled: parked in the pool it would stay
        // pinned, and the next one would need fresh memory
        let eps = opts.epsilon;
        frontier = Frontier::from_vec(compact_indices(&residual, |&r| r > eps));
    }
    // fold any remaining sub-threshold residual into the scores
    scores.par_iter_mut().zip(residual.par_iter()).for_each(|(s, r)| *s += r);

    // a panic that emptied the frontier must not read as convergence
    if ctx.is_poisoned() {
        outcome = RunOutcome::Failed;
    }
    PrResult {
        scores,
        iterations,
        edges_examined: ctx.counters.edges(),
        pull_iterations,
        elapsed: start.elapsed(),
        outcome,
    }
}

/// Edge throughput over the edges examined (see [`PrResult::edges_examined`]).
pub fn pr_mteps(result: &PrResult) -> f64 {
    Timing { elapsed: result.elapsed, edges_examined: result.edges_examined }.mteps()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gunrock_baselines::serial;
    use gunrock_graph::generators::{erdos_renyi, rmat};
    use gunrock_graph::{Coo, GraphBuilder};

    #[test]
    #[allow(clippy::needless_range_loop)] // v indexes three parallel arrays
    fn pull_mode_matches_push_mode_and_oracle() {
        let g = GraphBuilder::new().build(rmat(8, 16, Default::default(), 6));
        let want = serial::pagerank(&g, 0.85, 1e-14, 2000);
        let opts = PrOptions { epsilon: 1e-12, ..Default::default() };
        let pull = pagerank(&Context::new(&g).with_reverse(&g), opts);
        // without a reverse graph every iteration pushes
        let push = pagerank(&Context::new(&g), opts);
        assert!(pull.pull_iterations > 0, "a full first frontier must pull");
        assert_eq!(push.pull_iterations, 0);
        for v in 0..g.num_vertices() {
            assert!((pull.scores[v] - want[v]).abs() < 1e-6, "pull vertex {v}");
            assert!((pull.scores[v] - push.scores[v]).abs() < 1e-6, "pull vs push {v}");
        }
    }

    #[test]
    fn pull_steps_are_traced_as_pull_advances() {
        let g = GraphBuilder::new().build(rmat(8, 16, Default::default(), 6));
        let ctx = Context::new(&g).with_reverse(&g).with_stats();
        let r = pagerank(&ctx, PrOptions::default());
        let stats = ctx.run_stats();
        assert_eq!(stats.pull_iterations(), r.pull_iterations);
        let pulls: Vec<_> =
            stats.steps.iter().filter(|s| s.direction == Some(StepDirection::Pull)).collect();
        assert_eq!(pulls.len() as u32, r.pull_iterations);
        for s in pulls {
            assert_eq!((s.operator, s.strategy), (OperatorKind::Advance, "pull"));
            assert_eq!(s.edges_examined, g.num_edges() as u64, "a pull step reads every edge");
        }
        assert_eq!(stats.edges_examined(), r.edges_examined);
    }

    #[test]
    fn matches_power_iteration() {
        let graphs = [
            GraphBuilder::new().build(erdos_renyi(300, 1500, 1)),
            GraphBuilder::new().build(rmat(8, 16, Default::default(), 2)),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let ctx = Context::new(g);
            let got = pagerank(&ctx, PrOptions { epsilon: 1e-12, ..Default::default() });
            let want = serial::pagerank(g, 0.85, 1e-14, 2000);
            for (v, (a, b)) in got.scores.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 1e-6, "graph {i} vertex {v}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn scores_sum_to_one_even_with_isolated_vertices() {
        // rmat leaves isolated vertices; their mass must teleport, not leak
        let g = GraphBuilder::new().build(rmat(9, 16, Default::default(), 3));
        let ctx = Context::new(&g);
        let r = pagerank(&ctx, PrOptions { epsilon: 1e-12, ..Default::default() });
        let sum: f64 = r.scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
    }

    #[test]
    fn hub_ranks_highest_on_star() {
        let g = GraphBuilder::new()
            .build(Coo::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]));
        let ctx = Context::new(&g);
        let r = pagerank(&ctx, PrOptions::default());
        for v in 1..6 {
            assert!(r.scores[0] > r.scores[v]);
        }
    }

    #[test]
    fn one_iteration_mode_stops_early() {
        let g = GraphBuilder::new().build(erdos_renyi(200, 800, 5));
        let ctx = Context::new(&g);
        let r = pagerank(&ctx, PrOptions { max_iters: 1, ..Default::default() });
        assert_eq!(r.iterations, 1);
        // after one push every vertex holds teleport + one hop of mass
        assert!(r.scores.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn frontier_shrinks_over_time() {
        let g = GraphBuilder::new().build(erdos_renyi(300, 1200, 6));
        let loose = {
            let ctx = Context::new(&g);
            pagerank(&ctx, PrOptions { epsilon: 1e-4, ..Default::default() })
        };
        let tight = {
            let ctx = Context::new(&g);
            pagerank(&ctx, PrOptions { epsilon: 1e-10, ..Default::default() })
        };
        assert!(loose.iterations < tight.iterations);
        assert!(loose.edges_examined < tight.edges_examined);
    }

    #[test]
    fn policy_cap_yields_partial_but_mass_conserving_scores() {
        let g = GraphBuilder::new().build(erdos_renyi(300, 1200, 8));
        let ctx = Context::new(&g).with_policy(RunPolicy::unbounded().max_iterations(2));
        let r = pagerank(&ctx, PrOptions { epsilon: 1e-12, ..Default::default() });
        assert_eq!(r.outcome, RunOutcome::IterationCapped);
        assert_eq!(r.iterations, 2);
        // unpropagated residual folds back in: after k completed rounds
        // the absorbed mass is exactly (1-d)(1 + d + ... + d^k) = 1-d^(k+1)
        let sum: f64 = r.scores.iter().sum();
        let want = 1.0 - 0.85f64.powi(3);
        assert!((sum - want).abs() < 1e-9, "sum {sum}, want {want}");
        // the algorithm's own cap is NOT a policy trip
        let ctx = Context::new(&g);
        let own = pagerank(&ctx, PrOptions { max_iters: 1, ..Default::default() });
        assert_eq!(own.outcome, RunOutcome::Converged);
        // pull iterations honor the policy and conserve mass too
        let ctx = Context::new(&g)
            .with_reverse(&g)
            .with_policy(RunPolicy::unbounded().max_iterations(2));
        let pull = pagerank(&ctx, PrOptions { epsilon: 1e-12, ..Default::default() });
        assert_eq!(pull.outcome, RunOutcome::IterationCapped);
        assert_eq!(pull.iterations, 2);
        assert!(pull.pull_iterations > 0);
        let sum: f64 = pull.scores.iter().sum();
        assert!((sum - want).abs() < 1e-9, "pull sum {sum}, want {want}");
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build(Coo::new(0));
        let ctx = Context::new(&g);
        let r = pagerank(&ctx, PrOptions::default());
        assert!(r.scores.is_empty());
    }
}
