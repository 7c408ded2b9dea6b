//! Criterion benches for the §4 toolkit primitives and supporting linear
//! algebra.

use criterion::{criterion_group, criterion_main, Criterion};
use dpnet_toolkit::freqstrings::{frequent_strings, FrequentStringsConfig};
use dpnet_toolkit::isotonic_regression;
use dpnet_toolkit::itemsets::{frequent_itemsets, ItemsetConfig};
use dpnet_toolkit::kmeans::{dp_kmeans, random_centers, KMeansConfig};
use dpnet_toolkit::linalg::{jacobi_eigen, pca_residual_norms, top_eigenvectors, Matrix};
use pinq::{Accountant, NoiseSource, Queryable};
use std::collections::BTreeSet;

fn bench_freqstrings(c: &mut Criterion) {
    // 20k 4-byte records: three planted strings + noise.
    let mut records: Vec<Vec<u8>> = Vec::new();
    for i in 0..20_000u32 {
        if i % 4 == 0 {
            records.push(b"AAAA".to_vec());
        } else {
            records.push(i.to_be_bytes().to_vec());
        }
    }
    let acct = Accountant::new(f64::MAX / 2.0);
    let noise = NoiseSource::seeded(3);
    let q = Queryable::new(records, &acct, &noise);
    let cfg = FrequentStringsConfig {
        length: 4,
        eps_per_level: 1.0,
        threshold: 500.0,
        max_viable: 128,
    };
    c.bench_function("frequent_strings_20k_len4", |b| {
        b.iter(|| frequent_strings(&q, Vec::as_slice, &cfg).unwrap())
    });
}

fn bench_itemsets(c: &mut Criterion) {
    let mut records: Vec<BTreeSet<u16>> = Vec::new();
    for i in 0..5000u16 {
        let mut s: BTreeSet<u16> = [i % 8, 8 + i % 4].into_iter().collect();
        s.insert(1000 + i); // unique marker
        records.push(s);
    }
    let acct = Accountant::new(f64::MAX / 2.0);
    let noise = NoiseSource::seeded(4);
    let q = Queryable::new(records, &acct, &noise);
    let cfg = ItemsetConfig {
        universe: (0u16..12).collect(),
        max_size: 2,
        eps_per_level: 1.0,
        threshold: 50.0,
    };
    c.bench_function("itemsets_5k_records_12_items", |b| {
        b.iter(|| frequent_itemsets(&q, &cfg).unwrap())
    });
}

fn bench_kmeans(c: &mut Criterion) {
    let points: Vec<Vec<f64>> = (0..5000)
        .map(|i| (0..8).map(|d| ((i * (d + 3)) % 100) as f64).collect())
        .collect();
    let acct = Accountant::new(f64::MAX / 2.0);
    let noise = NoiseSource::seeded(5);
    let q = Queryable::new(points, &acct, &noise);
    let cfg = KMeansConfig {
        dims: 8,
        iterations: 3,
        eps_per_iteration: 1.0,
        l1_bound: 800.0,
    };
    let init = random_centers(6, 8, 0.0, 100.0, 9);
    c.bench_function("dp_kmeans_5k_points_3_iters", |b| {
        b.iter(|| dp_kmeans(&q, &cfg, init.clone()).unwrap())
    });
}

fn bench_linalg(c: &mut Criterion) {
    // Symmetric 100×100 matrix.
    let n = 100;
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let v = ((i * 31 + j * 17) % 101) as f64 / 101.0;
            m.set(i, j, v);
            m.set(j, i, v);
        }
    }
    c.bench_function("jacobi_eigen_100x100", |b| b.iter(|| jacobi_eigen(&m, 20)));
    c.bench_function("power_iteration_top4_100x100", |b| {
        b.iter(|| top_eigenvectors(&m, 4, 50))
    });

    // PCA residuals of a 500×100 data matrix.
    let data = Matrix::from_vec(
        500,
        100,
        (0..500 * 100).map(|i| ((i * 13) % 97) as f64).collect(),
    );
    c.bench_function("pca_residual_norms_500x100", |b| {
        b.iter(|| pca_residual_norms(&data, 4, 40))
    });
}

fn bench_isotonic(c: &mut Criterion) {
    let input: Vec<f64> = (0..10_000)
        .map(|i| i as f64 + 50.0 * (((i * 2654435761u64) % 97) as f64 / 97.0 - 0.5))
        .collect();
    c.bench_function("isotonic_regression_10k", |b| {
        b.iter(|| isotonic_regression(&input))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_freqstrings, bench_itemsets, bench_kmeans, bench_linalg, bench_isotonic
}
criterion_main!(benches);
