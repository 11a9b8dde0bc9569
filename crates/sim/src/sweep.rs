//! Deterministic parallel sweep engine for experiment grids.
//!
//! Every quantitative artifact in this reproduction is a *sweep*: a grid
//! of independent evaluation points (density × seed, posture × attack,
//! weather × seed, …) mapped through a pure evaluation function. Each
//! point carries its own RNG seed, so the points share no mutable state
//! and the map is embarrassingly parallel — scheduling order cannot
//! perturb the numbers.
//!
//! [`par_sweep`] exploits that: it fans the points out over a
//! crossbeam-scoped worker pool and returns results **in input order**,
//! bit-identical to the sequential `points.map(f)` it replaces. Callers
//! therefore need no feature flag and no tolerance windows — the
//! equivalence is exact and is enforced by a property test
//! (`tests/proptests.rs`).
//!
//! # Example
//!
//! ```
//! use silvasec_sim::sweep::par_sweep;
//!
//! let points: Vec<u64> = (0..32).collect();
//! let squares = par_sweep(&points, |&p| p * p);
//! assert_eq!(squares, points.iter().map(|&p| p * p).collect::<Vec<_>>());
//! ```
//!
//! # Claims
//!
//! Workers take points in **contiguous claims** from one shared cursor,
//! each claim a share `remaining / (2 × workers)` of what is left and
//! never less than one point (guided self-scheduling). Contiguity is for
//! sweeps whose consecutive points share expensive set-up: in an
//! episode sweep in world-major order, consecutive specs share a world
//! seed, and a claim keeps a run of them on the worker whose pooled
//! worksite already holds that world's PKI template instead of having
//! every worker commission every world. In the benchmark's
//! `episode_sweep` every point has that property (runs of 16 specs per
//! world); `site_soak`, `pathway` and `fleet_scale` run no claimed sweep
//! (the fleet's shards go through [`par_sweep_mut`]). Claims shrink as
//! the sweep drains and end in single points, so the workers still
//! finish together when point costs are uneven.
//!
//! The module lives in the simulation kernel (rather than the `silvasec`
//! umbrella crate, which re-exports it as `silvasec::sweep`) so that
//! mid-stack crates — notably the fleet's sharded shadow-site population
//! — can run on the same worker pool without a dependency cycle.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of workers a sweep will use: the available hardware
/// parallelism, capped by the number of points (spawning more threads
/// than points only adds join overhead).
///
/// The hardware parallelism is read once per process: on Linux,
/// `available_parallelism` reads the cgroup CPU quota from the file
/// system on every call, and fleets call this once per tick.
#[must_use]
pub fn worker_count(points: usize) -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    let hw = *HW.get_or_init(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    hw.min(points).max(1)
}

/// Maps `f` over `points` on a scoped worker pool, returning results in
/// input order.
///
/// Determinism: `f` receives each point exactly once and results are
/// scattered back by input index, so the output is the same `Vec` the
/// sequential `points.iter().map(f).collect()` would produce — bit for
/// bit, for any worker count and any scheduling. Workers take contiguous
/// claims that shrink to single points as the sweep drains (see the
/// [module docs](self#claims)), so uneven point costs still balance.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn par_sweep<P, R, F>(points: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    par_sweep_scoped_workers(points, worker_count(points.len()), || (), |(), p, _| f(p))
}

/// Maps `f` over mutable `items` on `workers` workers (capped by the
/// number of items), returning the per-item results in input order.
/// `workers <= 1` runs the sequential loop on the calling thread.
///
/// The mutable sibling of [`par_sweep`], built for *sharded state*: the
/// fleet-scale control plane splits its shadow-site population into
/// independent shards and steps every shard once per tick. Each worker
/// owns a contiguous `chunks_mut` slice (static assignment by position,
/// not claims from a shared cursor — safe mutable access needs disjoint
/// borrows, and the workspace forbids `unsafe`), applies `f` to its
/// items in slice order, and the per-chunk result vectors are
/// concatenated in chunk order. The output is therefore the same `Vec`
/// the sequential `items.iter_mut().enumerate().map(..)` loop would
/// produce — bit for bit, for any worker count — which is what lets a
/// sharded fleet trace stay byte-identical to its sequential reference.
///
/// `f` receives `(input_index, &mut item)`.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn par_sweep_mut<P, R, F>(items: &mut [P], workers: usize, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(usize, &mut P) -> R + Sync,
{
    let n = items.len();
    let workers = workers.min(n).max(1);
    if workers <= 1 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let chunk = n.div_ceil(workers);
    let f = &f;
    let gathered: Vec<Vec<R>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, slice)| {
                scope.spawn(move |_| {
                    slice
                        .iter_mut()
                        .enumerate()
                        .map(|(j, item)| f(ci * chunk + j, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    })
    .expect("sweep scope panicked");
    let mut out = Vec::with_capacity(n);
    for local in gathered {
        out.extend(local);
    }
    out
}

/// Maps `f` over `points` on `workers` workers (capped by the number of
/// points), each with one lazily-created **per-worker scratch value**,
/// returning results in input order. `workers <= 1` runs sequentially
/// with a single scratch — the reference the property tests compare
/// against.
///
/// The scratch sibling of [`par_sweep`], built for *reusable episode
/// state*: an episode sweep wants each worker to own one long-lived
/// `Worksite` (terrain grids, telemetry rings, session buffers) and
/// reset it per point instead of rebuilding it. The scratch is created
/// by `init()` **inside** the worker thread, so `S` needs no `Send`
/// bound — `Rc`-backed recorders are fine. `f` receives
/// `(&mut scratch, point, input_index)`.
///
/// Scheduling: a worker claims `max(1, remaining / (2 × workers))`
/// contiguous points with one compare-and-swap on a shared cursor and
/// runs them in order on its scratch. Contiguous claims keep runs of
/// consecutive points that share set-up (an episode sweep's same-world
/// specs) on one scratch; the claims shrink towards the end so the last
/// points spread over every worker. The cursor uses `Relaxed` ordering:
/// it publishes no data, only which indices a worker owns, and the
/// results come back through the scope join, which synchronizes.
///
/// Determinism contract: results are scattered back by input index, so
/// the output order matches the sequential map for any worker count and
/// scheduling — but the *values* only match when `f` fully re-derives
/// its output from the point (e.g. via `Worksite::reset_for_episode`),
/// never from scratch state a previous point left behind. That
/// point-independence is what the episode property tests enforce.
///
/// # Panics
///
/// Propagates panics from `init` and `f`.
pub fn par_sweep_scoped_workers<P, S, R, I, F>(
    points: &[P],
    workers: usize,
    init: I,
    f: F,
) -> Vec<R>
where
    P: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &P, usize) -> R + Sync,
{
    let workers = workers.min(points.len()).max(1);
    if workers <= 1 {
        let mut scratch = init();
        return points
            .iter()
            .enumerate()
            .map(|(i, p)| f(&mut scratch, p, i))
            .collect();
    }

    let n = points.len();
    let cursor = AtomicUsize::new(0);
    let (cursor, init, f) = (&cursor, &init, &f);
    let gathered: Vec<Vec<(usize, R)>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move |_| {
                    let mut scratch = init();
                    let mut local = Vec::new();
                    while let Ok(start) =
                        cursor.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |at| {
                            (at < n).then(|| at + claim_len(n - at, workers))
                        })
                    {
                        let claim = start..start + claim_len(n - start, workers);
                        for (idx, p) in claim.clone().zip(&points[claim]) {
                            local.push((idx, f(&mut scratch, p, idx)));
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    })
    .expect("sweep scope panicked");

    let mut slots: Vec<Option<R>> = Vec::with_capacity(points.len());
    slots.resize_with(points.len(), || None);
    for (idx, r) in gathered.into_iter().flatten() {
        slots[idx] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every sweep index is claimed exactly once"))
        .collect()
}

/// Size of the claim a worker takes when `remaining` points are left:
/// an even split of half the remaining work over `workers`, never less
/// than one point.
fn claim_len(remaining: usize, workers: usize) -> usize {
    (remaining / (2 * workers)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The claim sizes of an `n`-point sweep on `workers` workers, in
    /// cursor order. The cursor alone fixes the size of each claim, so
    /// the sequence is the same whichever worker takes which claim.
    fn claim_sizes(n: usize, workers: usize) -> Vec<usize> {
        let mut sizes = Vec::new();
        let mut at = 0;
        while at < n {
            sizes.push(claim_len(n - at, workers));
            at += sizes[sizes.len() - 1];
        }
        sizes
    }

    #[test]
    fn claims_cover_the_sweep_and_end_in_single_points() {
        for (n, workers) in [
            (1, 2),
            (5, 2),
            (64, 3),
            (1024, 2),
            (1024, 3),
            (2048, 2),
            (999, 8),
        ] {
            let sizes = claim_sizes(n, workers);
            assert!(sizes.iter().all(|&s| s >= 1), "{n}/{workers}: {sizes:?}");
            assert_eq!(sizes.iter().sum::<usize>(), n, "{n}/{workers}");
            assert!(
                sizes.windows(2).all(|w| w[0] >= w[1]),
                "{n}/{workers}: claims grow: {sizes:?}"
            );
            let tail = n.min(2 * workers);
            assert!(
                sizes[sizes.len() - tail..].iter().all(|&s| s == 1),
                "{n}/{workers}: tail {sizes:?}"
            );
        }
        // 2048 points on 2 workers take 27 claims rather than 2048.
        assert_eq!(claim_sizes(2048, 2)[..3], [512, 384, 288]);
        assert_eq!(claim_sizes(2048, 2).len(), 27);
    }

    #[test]
    fn scoped_sweep_keeps_runs_of_a_group_on_one_scratch() {
        // Consecutive points share a group, as an episode sweep's specs
        // share a world. The scratch remembers the last group it saw, so
        // each point reports whether its worker had to change group: at
        // most once per group, plus once per claim that starts inside a
        // group or on a worker that last held another one.
        const GROUPS: usize = 64;
        const RUN: usize = 16;
        let points: Vec<usize> = (0..GROUPS * RUN).map(|i| i / RUN).collect();
        let eval = |last: &mut Option<usize>, &group: &usize, i: usize| {
            let changed = *last != Some(group);
            *last = Some(group);
            ((group as u64).wrapping_mul(0x9e37_79b9) ^ i as u64, changed)
        };
        let reference = par_sweep_scoped_workers(&points, 1, || None, eval);
        assert_eq!(reference.iter().filter(|r| r.1).count(), GROUPS);
        for workers in [2usize, 3] {
            let out = par_sweep_scoped_workers(&points, workers, || None, eval);
            assert!(
                out.iter().map(|r| r.0).eq(reference.iter().map(|r| r.0)),
                "diverged at {workers} workers"
            );
            let changes = out.iter().filter(|r| r.1).count();
            let claims = claim_sizes(points.len(), workers).len();
            assert!(
                changes <= GROUPS + claims,
                "{workers} workers: {changes} group changes > {GROUPS} groups + {claims} claims"
            );
        }
    }

    #[test]
    fn preserves_input_order() {
        let points: Vec<u64> = (0..257).collect();
        let out = par_sweep(&points, |&p| p.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let expected: Vec<u64> = points
            .iter()
            .map(|&p| p.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn empty_sweep() {
        let points: Vec<u64> = Vec::new();
        assert!(par_sweep(&points, |&p| p).is_empty());
    }

    #[test]
    fn single_point_sweep() {
        assert_eq!(par_sweep(&[41u32], |&p| p + 1), vec![42]);
    }

    #[test]
    fn results_can_borrow_from_points() {
        let points: Vec<String> = (0..16).map(|i| format!("point-{i}")).collect();
        let lens = par_sweep(&points, String::len);
        assert_eq!(lens, points.iter().map(String::len).collect::<Vec<_>>());
    }

    #[test]
    fn float_results_are_bit_identical_to_sequential() {
        // The determinism contract the experiment sweeps rely on:
        // floating-point results match the sequential map exactly.
        let points: Vec<(f64, u64)> = (0..128u32)
            .map(|i| (f64::from(i) * 0.37, u64::from(i)))
            .collect();
        let eval = |&(x, seed): &(f64, u64)| {
            let mut acc = x;
            for k in 1..200u64 {
                acc = (acc * 1.000_1 + (seed ^ k) as f64 * 1e-9)
                    .sin()
                    .mul_add(0.5, acc);
            }
            acc
        };
        let par = par_sweep(&points, eval);
        let seq: Vec<f64> = points.iter().map(eval).collect();
        assert_eq!(par.len(), seq.len());
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn mut_sweep_matches_sequential_reference() {
        // The determinism contract the sharded fleet relies on: the
        // parallel mutable sweep leaves the items in the same state and
        // returns the same results as the sequential loop.
        let eval = |i: usize, item: &mut u64| {
            *item = item.wrapping_mul(31).wrapping_add(i as u64);
            *item ^ 0x5555_5555_5555_5555
        };
        let initial: Vec<u64> = (0..137).map(|i| i * 7 + 3).collect();
        let mut seq_items = initial.clone();
        let seq_out: Vec<u64> = seq_items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| eval(i, item))
            .collect();
        for workers in [1usize, 2, 3, worker_count(initial.len())] {
            let mut par_items = initial.clone();
            let par_out = par_sweep_mut(&mut par_items, workers, eval);
            assert_eq!(par_out, seq_out, "diverged at {workers} workers");
            assert_eq!(par_items, seq_items, "diverged at {workers} workers");
        }
    }

    #[test]
    fn mut_sweep_empty_and_single() {
        let mut empty: Vec<u32> = Vec::new();
        assert!(par_sweep_mut(&mut empty, 4, |_, x| *x).is_empty());
        let mut one = vec![41u32];
        assert_eq!(
            par_sweep_mut(&mut one, 8, |i, x| {
                *x += 1;
                *x + i as u32
            }),
            vec![42]
        );
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn scoped_sweep_matches_sequential_for_any_worker_count() {
        // Per-worker scratch must not leak across points: f re-derives
        // everything from the point, so any worker count agrees with
        // the single-scratch sequential reference.
        let points: Vec<u64> = (0..61).map(|i| i * 13 + 5).collect();
        let eval = |scratch: &mut Vec<u64>, &p: &u64, i: usize| {
            scratch.clear(); // episode reset
            scratch.extend((0..8).map(|k| p.wrapping_mul(k ^ i as u64)));
            scratch
                .iter()
                .fold(0u64, |a, &x| a.wrapping_add(x).rotate_left(7))
        };
        let reference = par_sweep_scoped_workers(&points, 1, Vec::new, eval);
        for workers in [2usize, 3, 4] {
            let out = par_sweep_scoped_workers(&points, workers, Vec::new, eval);
            assert_eq!(out, reference, "diverged at {workers} workers");
        }
    }

    #[test]
    fn scoped_sweep_scratch_is_not_send_constrained() {
        // Rc is !Send: the scratch is created inside each worker, so
        // this must compile and run.
        use std::rc::Rc;
        let points: Vec<u32> = (0..17).collect();
        let out = par_sweep_scoped_workers(&points, 3, || Rc::new(7u32), |rc, &p, _| p + **rc);
        assert_eq!(out, points.iter().map(|p| p + 7).collect::<Vec<_>>());
    }

    #[test]
    fn scoped_sweep_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_sweep_scoped_workers(&empty, 4, || 0u32, |_, &p, _| p).is_empty());
        let out = par_sweep_scoped_workers(&[9u32], 8, || 1u32, |s, &p, i| p + *s + i as u32);
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn worker_count_is_capped_by_points() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1024) >= 1);
        assert!(worker_count(2) <= 2);
    }
}
