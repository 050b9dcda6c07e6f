//! Flat inference kernel ⇔ enum-walker equivalence suite.
//!
//! The flattened branchless kernel (`mlcore::flat`) must predict
//! *bit-identically* to the retained enum walker
//! (`RandomForest::predict_reference`) — for any seed, at every point of
//! the incremental lifecycle (including after stalest-tree refreshes
//! recompile the flat forest), and under degenerate float values (NaN / ±0
//! / ±inf features and the NaN thresholds that ±inf training values
//! induce), through both the single-row and the batch entry point. A final
//! property pins that the batch entry point is never materially slower
//! than the sequential walk at any batch size, on a small and a large
//! forest.

use mlcore::{Dataset, ForestParams, RandomForest};
use simcore::SimRng;

const SEEDS: [u64; 20] = [
    1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584, 4181, 6765, 10946,
];

/// Paper-shaped corpus: a dense informative block, heavy zero padding,
/// quantised ties.
fn corpus(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = SimRng::new(seed);
    let mut d = Dataset::new(dim);
    let informative = 8.min(dim);
    for _ in 0..n {
        let mut x = vec![0.0; dim];
        for slot in x.iter_mut().take(informative) {
            *slot = (rng.f64() * 16.0).floor() / 4.0;
        }
        let y = 3.0 * x[0] - 2.0 * x[1] + x[0] * x[1] + rng.f64() * 0.25;
        d.push(&x, y);
    }
    d
}

fn probe_rows(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SimRng::new(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| (rng.f64() * 16.0).floor() / 4.0).collect())
        .collect()
}

/// Bitwise comparison that treats every NaN payload as distinct — the
/// strictest possible equality.
fn assert_bits_eq(a: &[f64], b: &[f64], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: row {i}: {x} vs {y}");
    }
}

/// Reference predictions (enum walker) and both flat paths — single-row
/// and batch — must agree bitwise.
fn assert_forest_paths_agree(f: &RandomForest, probes: &[Vec<f64>], ctx: &str) {
    let reference: Vec<f64> = probes.iter().map(|x| f.predict_reference(x)).collect();
    let single: Vec<f64> = probes.iter().map(|x| f.predict(x)).collect();
    assert_bits_eq(&single, &reference, &format!("{ctx}: predict"));
    let batch = f.predict_batch(probes);
    assert_bits_eq(&batch, &reference, &format!("{ctx}: predict_batch"));
}

#[test]
fn flat_kernel_bit_identical_across_seeds() {
    for &seed in &SEEDS {
        let data = corpus(120, 24, seed);
        let params = ForestParams {
            n_trees: 12,
            ..ForestParams::default()
        };
        let f = RandomForest::fit(&data, params, seed);
        let probes = probe_rows(33, 24, seed ^ 0xBEEF);
        assert_forest_paths_agree(&f, &probes, &format!("seed {seed}"));
    }
}

#[test]
fn flat_kernel_bit_identical_after_refresh() {
    for &seed in &SEEDS {
        let data = corpus(100, 16, seed);
        let params = ForestParams {
            n_trees: 10,
            ..ForestParams::default()
        };
        let mut f = RandomForest::fit(&data, params, seed);
        let probes = probe_rows(17, 16, seed ^ 0xF00D);
        for generation in 1..=3u64 {
            let fresh = corpus(80, 16, seed.wrapping_add(generation * 7919));
            f.refresh_stalest(&fresh, 4, generation);
            assert_forest_paths_agree(&f, &probes, &format!("seed {seed} gen {generation}"));
        }
    }
}

/// Degenerate float values: training columns carrying ±inf produce ±inf
/// and NaN split thresholds (the midpoint of consecutive `-inf`/`+inf`
/// sample values is NaN), and probe rows carry NaN, ±0 and ±inf features.
/// The flat kernel's `!(x <= t)` child selection must route every one of
/// them exactly like the enum walker's `if x <= t`.
#[test]
fn degenerate_values_route_bit_identically() {
    for &seed in SEEDS.iter().take(10) {
        let mut rng = SimRng::new(seed);
        let dim = 6;
        let mut d = Dataset::new(dim);
        for i in 0..80 {
            let mut x: Vec<f64> = (0..dim).map(|_| (rng.f64() * 8.0).floor()).collect();
            // Column 0 alternates -inf / +inf: the sorted column has the
            // two values adjacent, so its candidate midpoint is NaN.
            x[0] = if i % 2 == 0 {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            };
            // Column 1 mixes signed zeros with finite values.
            x[1] = match i % 4 {
                0 => 0.0,
                1 => -0.0,
                _ => x[1],
            };
            let y = x[2] - x[3] + if i % 2 == 0 { 5.0 } else { -5.0 };
            d.push(&x, y);
        }
        let params = ForestParams {
            n_trees: 8,
            ..ForestParams::default()
        };
        let f = RandomForest::fit(&d, params, seed);
        let mut probes = probe_rows(21, dim, seed ^ 0xD1CE);
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
        ];
        for (i, row) in probes.iter_mut().enumerate() {
            row[i % dim] = specials[i % specials.len()];
            row[(i + 3) % dim] = specials[(i + 1) % specials.len()];
        }
        assert_forest_paths_agree(&f, &probes, &format!("degenerate seed {seed}"));
    }
}

/// Batch prediction is never materially slower than the sequential
/// per-row walk, at every batch size, on a forest small enough to sit in
/// L1 and on a paper-sized one. Results are asserted bit-identical at every
/// shape unconditionally; the throughput bound only runs in release builds
/// (debug codegen distorts the paths differently) with a 25% tolerance to
/// absorb scheduler noise while still catching a real regression.
#[test]
fn batch_never_materially_slower_than_sequential() {
    let small = RandomForest::fit(
        &corpus(60, 16, 0xAB),
        ForestParams {
            n_trees: 8,
            ..ForestParams::default()
        },
        3,
    );
    let big_corpus = corpus(900, 16, 0xCD);
    let big = RandomForest::fit(&big_corpus, ForestParams::default(), 4);

    for (forest, dim, label) in [(&small, 16, "small"), (&big, 16, "big")] {
        for rows_n in [1usize, 8, 64, 512] {
            let probes = probe_rows(rows_n, dim, 0xEF ^ rows_n as u64);
            let reference: Vec<f64> = probes.iter().map(|x| forest.predict(x)).collect();
            let batch = forest.predict_batch(&probes);
            assert_bits_eq(&batch, &reference, &format!("{label} rows={rows_n}"));
            if cfg!(debug_assertions) {
                continue;
            }
            // Interleaved min-of-7 over windows sized to ~512 row
            // predictions so even the 1-row shape times a real window.
            let calls = (512 / rows_n).max(1);
            let mut seq_s = f64::INFINITY;
            let mut batch_s = f64::INFINITY;
            for _ in 0..7 {
                let t0 = std::time::Instant::now();
                for _ in 0..calls {
                    for x in &probes {
                        std::hint::black_box(forest.predict(x));
                    }
                }
                seq_s = seq_s.min(t0.elapsed().as_secs_f64());
                let t0 = std::time::Instant::now();
                for _ in 0..calls {
                    std::hint::black_box(forest.predict_batch(&probes));
                }
                batch_s = batch_s.min(t0.elapsed().as_secs_f64());
            }
            // Fixed per-call allowance: a batch call heap-allocates its
            // result Vec, which the sequential walk never pays; at the
            // 1-row shape on a cache-resident forest that allocation IS
            // the entire difference, so it cannot be covered by a
            // relative tolerance alone.
            let alloc_allowance = calls as f64 * 2e-7;
            assert!(
                batch_s <= seq_s * 1.25 + alloc_allowance,
                "{label} rows={rows_n}: batch {batch_s:.6}s vs sequential \
                 {seq_s:.6}s exceeds the 25% tolerance"
            );
        }
    }
}
