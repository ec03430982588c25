//! Seeded input sampling: a small PRNG, the giant-component source
//! picker, and the Zipf sampler behind the serve workload's repeated
//! queries. Everything here is a pure function of its seed.

use gunrock_graph::VertexId;

/// SplitMix64: tiny, seedable and good enough for picking inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // CAST: the top 53 bits fit an f64 mantissa exactly.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        // CAST: the product of a unit draw and n is below n.
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

/// The vertices of the largest component under `labels` (one label per
/// vertex, as connected components return them), in id order.
pub fn giant_component(labels: &[VertexId]) -> Vec<VertexId> {
    let mut sizes = std::collections::HashMap::new();
    for &l in labels {
        *sizes.entry(l).or_insert(0usize) += 1;
    }
    // ties go to the smaller label, so the choice is deterministic
    let giant = sizes.iter().max_by_key(|&(&l, &n)| (n, std::cmp::Reverse(l))).map(|(&l, _)| l);
    (0..labels.len())
        .filter(|&v| Some(labels[v]) == giant)
        .map(|v| v as VertexId) // CAST: v indexes a VertexId-sized array
        .collect()
}

/// `k` distinct sources drawn by `seed` from the giant component of
/// `labels` (fewer when the component is smaller than `k`), stratified
/// by `key`: the component, sorted by key, is cut into `k` equal strata
/// and one vertex is drawn from each, so every seed sees the same mix of
/// cheap and costly sources. The result is shuffled.
pub fn pick_sources(
    labels: &[VertexId],
    key: impl Fn(VertexId) -> u64,
    k: usize,
    seed: u64,
) -> Vec<VertexId> {
    let mut giant = giant_component(labels);
    giant.sort_by_cached_key(|&v| (key(v), v));
    let mut rng = Rng::new(seed);
    let n = giant.len();
    let k = k.min(n);
    let mut out: Vec<VertexId> = (0..k)
        .map(|i| {
            let (lo, hi) = (i * n / k, (i + 1) * n / k);
            giant[lo + rng.below(hi - lo)]
        })
        .collect();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i + 1));
    }
    out
}

/// Zipf(s) over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n > 0` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two components: {0,1,2,3,4,5} labelled 0 and {6,7} labelled 6,
    /// plus isolated vertices 8 and 9.
    fn labels() -> Vec<VertexId> {
        vec![0, 0, 0, 0, 0, 0, 6, 6, 8, 9]
    }

    fn by_id(v: VertexId) -> u64 {
        u64::from(v)
    }

    #[test]
    fn picker_is_deterministic_and_stays_in_the_giant_component() {
        let l = labels();
        let a = pick_sources(&l, by_id, 4, 7);
        assert_eq!(a, pick_sources(&l, by_id, 4, 7));
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|&v| v < 6), "{a:?}");
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 4, "sources must be distinct");
        // other seeds still stay inside the component
        for seed in 0..50 {
            assert!(pick_sources(&l, by_id, 3, seed).iter().all(|&v| v < 6));
        }
    }

    #[test]
    fn picker_caps_at_the_component_size() {
        assert_eq!(pick_sources(&labels(), by_id, 100, 1).len(), 6);
    }

    #[test]
    fn picker_draws_one_source_per_stratum() {
        // key = id: strata {0,1,2} and {3,4,5}
        for seed in 0..50 {
            let mut s = pick_sources(&labels(), by_id, 2, seed);
            s.sort_unstable();
            assert!(s[0] <= 2 && (3..6).contains(&s[1]), "seed {seed}: {s:?}");
        }
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(64, 1.1);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..2000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        assert!(a.iter().all(|&r| r < 64));
        let top = a.iter().filter(|&&r| r == 0).count();
        let mid = a.iter().filter(|&&r| r == 31).count();
        assert!(top > 5 * mid.max(1), "rank 0 drawn {top}x, rank 31 drawn {mid}x");
    }

    #[test]
    fn zipf_ranks_map_to_giant_component_sources() {
        let l = labels();
        let sources = pick_sources(&l, by_id, 6, 11);
        let z = Zipf::new(sources.len(), 1.1);
        let mut rng = Rng::new(5);
        for _ in 0..500 {
            assert!(sources[z.sample(&mut rng)] < 6);
        }
    }
}
