//! Parallel composition on worker pools, tested through the one fan-out
//! API: [`Queryable::partition_map`](crate::Queryable::partition_map)
//! measures every part on the queryable's pool, releases what one worker
//! releases at the same seed, and charges the budget the max of the parts.
//! Test-only: the fan-out itself lives on `Queryable`.

mod tests {
    use crate::error::Error;
    use crate::{Accountant, ExecCtx, ExecPool, NoiseSource, Queryable};

    fn dataset(n: u32, budget: f64) -> (Accountant, Queryable<u32>) {
        let acct = Accountant::new(budget);
        let noise = NoiseSource::seeded(3);
        (
            acct.clone(),
            Queryable::new((0..n).collect(), &acct, &noise),
        )
    }

    fn on_pool(q: Queryable<u32>, workers: usize) -> Queryable<u32> {
        q.with_ctx(ExecCtx::pool(&ExecPool::new(workers).unwrap()))
    }

    #[test]
    fn parallel_counts_match_part_sizes() {
        let (acct, q) = dataset(64_000, 10.0);
        let keys: Vec<u32> = (0..32).collect();
        let counts = on_pool(q, 8)
            .partition_map(&keys, |&x| x % 32, |p| p.noisy_count(5.0))
            .unwrap();
        assert_eq!(counts.len(), 32);
        for c in &counts {
            let c = *c.as_ref().expect("budget is ample");
            assert!((c - 2000.0).abs() < 10.0, "count {c}");
        }
        // Parallel composition still holds under concurrency.
        assert!((acct.spent() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn zero_workers_is_an_error() {
        // No pool can carry zero workers: the fan-out always has at least
        // the calling thread, and a queryable with no pool bound runs
        // every part there.
        assert_eq!(ExecPool::new(0).unwrap_err(), Error::InvalidWorkers(0));
        assert_eq!(ExecPool::sequential().workers(), 1);
        let (_, q) = dataset(100, 1.0);
        let caller = std::thread::current().id();
        let threads = q
            .partition_map(&[0u32, 1], |&x| x % 2, |_| std::thread::current().id())
            .unwrap();
        assert_eq!(threads, vec![caller; 2]);
    }

    #[test]
    fn results_preserve_part_order() {
        let (_, q) = dataset(1000, 1e12);
        // Keys listed in reverse; part `k` holds the values below 100·(k+1)
        // that are ≡ k mod 10, so only part order can line the sizes up.
        let keys: Vec<u32> = (0..10).rev().collect();
        let sizes = on_pool(q.filter(|&x| x % 10 <= x / 100), 4)
            .partition_map(
                &keys,
                |&x| x % 10,
                |p| p.noisy_count(1e9).expect("budget").round() as usize,
            )
            .unwrap();
        let expected: Vec<usize> = keys.iter().map(|&k| 10 * (10 - k as usize)).collect();
        assert_eq!(sizes, expected);
    }

    #[test]
    fn single_worker_degenerates_to_sequential() {
        let run = |ctx: ExecCtx| {
            let (acct, q) = dataset(100, 1e12);
            let keys: Vec<u32> = (0..5).collect();
            let released = q
                .with_ctx(ctx)
                .partition_map(&keys, |&x| x % 5, |p| p.noisy_count(0.5).unwrap())
                .unwrap();
            (released, acct.spent())
        };
        let (one, spent) = run(ExecCtx::pool(&ExecPool::new(1).unwrap()));
        assert_eq!(one.len(), 5);
        // The reference is the flat loop: one chunk spanning the input.
        let flat = ExecPool::sequential().with_chunk_size(100);
        assert_eq!((one, spent), run(ExecCtx::pool(&flat)));
    }
}
