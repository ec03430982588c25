//! Direction-optimized PageRank gathers (pulls) once the frontier is
//! dense. On one thread a pull step adds the same shares in the same
//! order as the push step it replaces: frontiers are ascending, CSR rows
//! are sorted, and off-frontier shares are zero. So its scores must be
//! bit-identical to a push-only run, i.e. the same graph with no reverse
//! graph attached.

use gunrock::prelude::*;
use gunrock_algos as algos;
use gunrock_graph::generators::{from_spec, rmat, RmatParams};
use gunrock_graph::{Csr, GraphBuilder};

fn in_one_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("pool").install(f)
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

fn assert_pull_matches_push(name: &str, g: &Csr, reverse: &Csr) {
    let opts = algos::PrOptions::default();
    let (optimized, push) = in_one_thread(|| {
        (
            algos::pagerank(&Context::new(g).with_reverse(reverse), opts),
            algos::pagerank(&Context::new(g), opts),
        )
    });
    assert!(optimized.pull_iterations > 0, "{name}: no iteration pulled");
    assert_eq!(push.pull_iterations, 0, "{name}: pulled without a reverse graph");
    assert_eq!(optimized.iterations, push.iterations, "{name}: iteration counts differ");
    assert_eq!(bits(&optimized.scores), bits(&push.scores), "{name}: scores differ");
}

#[test]
fn kron_scores_are_bit_identical_to_push_only() {
    let g = GraphBuilder::new().build(from_spec("kron", 10, 7).expect("kron"));
    assert_pull_matches_push("kron10", &g, &g);
}

#[test]
fn roadnet_scores_are_bit_identical_to_push_only() {
    let g = GraphBuilder::new().build(from_spec("roadnet", 10, 7).expect("roadnet"));
    assert_pull_matches_push("roadnet10", &g, &g);
}

#[test]
fn directed_scores_are_bit_identical_to_push_only() {
    // directed R-MAT leaves many dangling vertices, whose mass teleports
    let g = GraphBuilder::new().directed().build(rmat(10, 8, RmatParams::graph500(), 5));
    assert!(!g.is_symmetric());
    assert_pull_matches_push("directed rmat10", &g, &g.transpose());
}
