//! Seeded request streams for the two workloads, plus the fixed
//! forecast-accuracy list.
//!
//! Every generator is a pure function of its seed, so a run can be
//! replayed exactly: over HTTP for the end-to-end metrics and in-process
//! for the per-layer ones.

use neusight_serve::PredictRequest;
use std::collections::HashSet;

/// The eight workloads the service can forecast.
pub const MODELS: [&str; 8] = [
    "BERT-Large",
    "GPT2-Large",
    "GPT3-XL",
    "OPT-1.3B",
    "GPT3-2.7B",
    "SwitchTrans",
    "resnet50",
    "vgg16",
];

/// Every catalog GPU: the five training GPUs and the three held out.
pub const GPUS: [&str; 8] = [
    "P4",
    "P100",
    "V100",
    "T4",
    "A100-40GB",
    "A100-80GB",
    "L4",
    "H100",
];

/// GPUs the predictor never trained on (the paper's headline setting).
pub const HELD_OUT_GPUS: [&str; 3] = ["A100-80GB", "L4", "H100"];

/// Largest batch the service accepts; `sweep_cold` covers 1..=4096.
pub const SWEEP_MAX_BATCH: u64 = 4096;
/// `sweep_cold` keyspace: model × GPU × batch × train × fused.
pub const SWEEP_KEYSPACE: usize = 8 * 8 * SWEEP_MAX_BATCH as usize * 2 * 2;
/// `fleet_zipf_reload` batches cover 1..=256.
pub const FLEET_MAX_BATCH: u64 = 256;
/// `fleet_zipf_reload` keyspace: model × GPU × batch × train. Each of the
/// two replicas owns about half of it.
pub const FLEET_KEYSPACE: usize = 8 * 8 * FLEET_MAX_BATCH as usize * 2;

/// One predict request, as the benchmark sends it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Key {
    pub model: &'static str,
    pub gpu: &'static str,
    pub batch: u64,
    pub train: bool,
    pub fused: bool,
}

impl Key {
    /// The JSON body of `POST /v1/predict`.
    pub fn body(&self) -> String {
        format!(
            r#"{{"model":"{}","gpu":"{}","batch":{},"train":{},"fused":{}}}"#,
            self.model, self.gpu, self.batch, self.train, self.fused
        )
    }

    /// The same request as the service's typed form.
    pub fn request(&self) -> PredictRequest {
        PredictRequest {
            model: self.model.to_owned(),
            gpu: self.gpu.to_owned(),
            batch: self.batch,
            train: self.train,
            fused: self.fused,
            detail: false,
        }
    }
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6E65_7573_6967_6874)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by rejection so there is no modulo bias.
    pub fn below(&mut self, n: u64) -> u64 {
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % n;
            }
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A Fisher–Yates shuffle of `0..len`.
fn shuffled(rng: &mut Rng, len: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..len).collect();
    for i in 0..len {
        let j = i + rng.below((len - i) as u64) as usize;
        perm.swap(i, j);
    }
    perm
}

/// Decodes a `sweep_cold` key index (mixed radix, no repeats by construction).
pub fn sweep_key(index: usize) -> Key {
    let fused = index % 2 == 1;
    let train = (index / 2) % 2 == 1;
    let rest = index / 4;
    let batch = (rest % SWEEP_MAX_BATCH as usize) as u64 + 1;
    let rest = rest / SWEEP_MAX_BATCH as usize;
    Key {
        model: MODELS[rest / 8 % 8],
        gpu: GPUS[rest % 8],
        batch,
        train,
        fused,
    }
}

/// `(model, GPU, train, fused)` combinations of the `sweep_cold` keyspace.
const SWEEP_COMBOS: usize = SWEEP_KEYSPACE / SWEEP_MAX_BATCH as usize;

/// `sweep_cold`: `n` distinct keys, a seeded stratified shuffle of the
/// whole keyspace. Each round visits all 256 `(model, GPU, train, fused)`
/// combinations in a fresh seeded order, each with a seeded batch not yet
/// drawn for that combination. Every seed thus gets the same mix of graph
/// shapes, and the run-to-run spread comes from the server, not the draw.
pub fn sweep_cold(seed: u64, n: usize) -> Vec<Key> {
    assert!(
        n <= SWEEP_KEYSPACE,
        "asked for {n} of {SWEEP_KEYSPACE} keys"
    );
    let mut rng = Rng::new(seed);
    let mut drawn: Vec<HashSet<u64>> = vec![HashSet::new(); SWEEP_COMBOS];
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let order = shuffled(&mut rng, SWEEP_COMBOS);
        for &combo in order.iter().take(n - keys.len()) {
            let batch = loop {
                let batch = rng.below(SWEEP_MAX_BATCH);
                if drawn[combo].insert(batch) {
                    break batch as usize;
                }
            };
            let (model_gpu, flags) = (combo / 4, combo % 4);
            keys.push(sweep_key(
                (model_gpu * SWEEP_MAX_BATCH as usize + batch) * 4 + flags,
            ));
        }
    }
    keys
}

/// Decodes a `fleet_zipf_reload` key index.
pub fn fleet_key(index: usize) -> Key {
    let train = index % 2 == 1;
    let rest = index / 2;
    let batch = (rest % FLEET_MAX_BATCH as usize) as u64 + 1;
    let rest = rest / FLEET_MAX_BATCH as usize;
    Key {
        model: MODELS[rest / 8 % 8],
        gpu: GPUS[rest % 8],
        batch,
        train,
        fused: false,
    }
}

/// Zipf sampler over ranks `0..n` with exponent `s`: P(rank k) ∝ 1/(k+1)^s.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Probability of rank `k` (0-based).
    #[cfg(test)]
    pub fn probability(&self, k: usize) -> f64 {
        self.cdf[k] - if k == 0 { 0.0 } else { self.cdf[k - 1] }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `(model, GPU, train)` combinations of the `fleet_zipf_reload` keyspace.
const FLEET_COMBOS: usize = FLEET_KEYSPACE / FLEET_MAX_BATCH as usize;

/// Key index of each Zipf rank: a seeded stratified shuffle of the fleet
/// keyspace. Every block of 128 consecutive ranks holds each
/// `(model, GPU, train)` combination once, in a seeded order, and each
/// combination meets its 256 batches in a seeded order. The heavy head
/// of the distribution then has the same mix of graph shapes for every
/// seed.
fn fleet_ranks(rng: &mut Rng) -> Vec<usize> {
    let batches: Vec<Vec<usize>> = (0..FLEET_COMBOS)
        .map(|_| shuffled(rng, FLEET_MAX_BATCH as usize))
        .collect();
    let orders: Vec<Vec<usize>> = (0..FLEET_MAX_BATCH)
        .map(|_| shuffled(rng, FLEET_COMBOS))
        .collect();
    let mut ranks = Vec::with_capacity(FLEET_KEYSPACE);
    for (block, order) in orders.iter().enumerate() {
        for &combo in order {
            let batch = batches[combo][block];
            ranks.push(((combo / 2) * FLEET_MAX_BATCH as usize + batch) * 2 + combo % 2);
        }
    }
    ranks
}

/// `fleet_zipf_reload`: `n` requests, Zipf (s = 1) over the whole fleet
/// keyspace, ranks assigned by [`fleet_ranks`].
pub fn fleet_zipf(seed: u64, n: usize) -> Vec<Key> {
    let mut rng = Rng::new(seed);
    let rank_to_key = fleet_ranks(&mut rng);
    let zipf = Zipf::new(FLEET_KEYSPACE, 1.0);
    (0..n)
        .map(|_| fleet_key(rank_to_key[zipf.sample(&mut rng)]))
        .collect()
}

/// The fixed accuracy list: 8 models × the 3 held-out GPUs × batch
/// {1, 4, 16} × inference/training = 144 graphs. It does not depend on
/// the seed, so `forecast_mape_pct` repeats exactly.
pub fn mape_keys() -> Vec<Key> {
    let mut keys = Vec::with_capacity(144);
    for model in MODELS {
        for gpu in HELD_OUT_GPUS {
            for batch in [1, 4, 16] {
                for train in [false, true] {
                    keys.push(Key {
                        model,
                        gpu,
                        batch,
                        train,
                        fused: false,
                    });
                }
            }
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn generators_are_deterministic_for_a_seed() {
        assert_eq!(sweep_cold(7, 500), sweep_cold(7, 500));
        assert_eq!(fleet_zipf(7, 500), fleet_zipf(7, 500));
        assert_ne!(sweep_cold(7, 500), sweep_cold(8, 500));
        assert_ne!(fleet_zipf(7, 500), fleet_zipf(8, 500));
    }

    #[test]
    fn sweep_cold_never_repeats_a_key() {
        let keys = sweep_cold(3, 20_000);
        let distinct: HashSet<&Key> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len());
    }

    #[test]
    fn sweep_cold_visits_every_combination_once_per_round() {
        let keys = sweep_cold(9, 3 * SWEEP_COMBOS);
        let mut per_combo: HashMap<(&str, &str, bool, bool), usize> = HashMap::new();
        for k in &keys {
            *per_combo
                .entry((k.model, k.gpu, k.train, k.fused))
                .or_default() += 1;
        }
        assert_eq!(per_combo.len(), SWEEP_COMBOS);
        assert!(per_combo.values().all(|&c| c == 3));
    }

    #[test]
    fn fleet_ranks_are_a_stratified_permutation_of_the_keyspace() {
        let ranks = fleet_ranks(&mut Rng::new(4));
        let distinct: HashSet<usize> = ranks.iter().copied().collect();
        assert_eq!(distinct.len(), FLEET_KEYSPACE);
        assert!(ranks.iter().all(|&r| r < FLEET_KEYSPACE));
        for block in ranks.chunks(FLEET_COMBOS) {
            let combos: HashSet<(&str, &str, bool)> = block
                .iter()
                .map(|&r| fleet_key(r))
                .map(|k| (k.model, k.gpu, k.train))
                .collect();
            assert_eq!(combos.len(), FLEET_COMBOS);
        }
    }

    #[test]
    fn key_decoders_cover_their_keyspace_exactly_once() {
        let sweep: HashSet<Key> = (0..SWEEP_KEYSPACE).map(sweep_key).collect();
        assert_eq!(sweep.len(), SWEEP_KEYSPACE);
        let fleet: HashSet<Key> = (0..FLEET_KEYSPACE).map(fleet_key).collect();
        assert_eq!(fleet.len(), FLEET_KEYSPACE);
        assert!(fleet
            .iter()
            .all(|k| (1..=FLEET_MAX_BATCH).contains(&k.batch)));
    }

    #[test]
    fn zipf_sampler_matches_its_target_distribution() {
        let zipf = Zipf::new(FLEET_KEYSPACE, 1.0);
        let mut rng = Rng::new(5);
        let draws = 400_000;
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for _ in 0..draws {
            *counts.entry(zipf.sample(&mut rng)).or_default() += 1;
        }
        // Head ranks: each within 5 % of its expected count.
        for k in 0..8 {
            let expected = zipf.probability(k) * draws as f64;
            let seen = counts.get(&k).copied().unwrap_or(0) as f64;
            assert!(
                (seen - expected).abs() / expected < 0.05,
                "rank {k}: {seen} vs {expected}"
            );
        }
        // Tail mass beyond rank 1024 within 2 % of its expected share.
        let tail_expected: f64 = (1024..FLEET_KEYSPACE).map(|k| zipf.probability(k)).sum();
        let tail_seen = counts
            .iter()
            .filter(|(&k, _)| k >= 1024)
            .map(|(_, &c)| c)
            .sum::<usize>() as f64
            / draws as f64;
        assert!((tail_seen - tail_expected).abs() < 0.02 * tail_expected.max(0.1));
        // s = 1: rank 1 is drawn twice as often as rank 2.
        assert!((zipf.probability(0) / zipf.probability(1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn mape_list_is_the_fixed_144_graphs() {
        let keys = mape_keys();
        assert_eq!(keys.len(), 144);
        assert_eq!(keys.iter().collect::<HashSet<_>>().len(), 144);
        assert!(keys.iter().all(|k| HELD_OUT_GPUS.contains(&k.gpu)));
    }
}
