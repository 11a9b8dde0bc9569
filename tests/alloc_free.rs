//! Zero-allocation contracts of the two steady-state hot paths, observed
//! by a counting global allocator rather than by code review:
//!
//! * warm [`Worksite::tick`]s on the standard secure site make no heap
//!   allocation;
//! * once one episode per attack class has sized every buffer,
//!   [`Worksite::reset_for_episode`] plus campaign arming makes none
//!   either;
//! * a site reset into a world with a larger roster sizes its scratch
//!   as a fresh build of that world does, so its ticks allocate no
//!   more than the fresh build's;
//! * a warm `VerifyingKey::verify` makes no heap allocation, whether
//!   it accepts or rejects.
//!
//! The allocator counts per thread, so the tests of this binary can run
//! in parallel without disturbing each other's windows.

use silvasec::attacks::AttackKind;
use silvasec::crypto::schnorr::SigningKey;
use silvasec::experiments::{compact_config, run_episode_pooled, standard_config, EpisodeSpec};
use silvasec::sim::time::SimDuration;
use silvasec::sos::{SecurityPosture, Worksite};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, counting the calls that acquire memory (`alloc` and
/// `realloc`) on the calling thread. `dealloc` is not counted: the
/// contracts are about acquiring memory in a steady-state window.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A const-initialized `Cell` has no destructor, so this never
    // allocates; `try_with` keeps it safe during thread teardown too.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far on this thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call defers to `System`; counting touches only a
// thread-local integer and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn warm_ticks_do_not_allocate() {
    // 120 sim-s bring every ring, table and scratch buffer to its
    // steady capacity; the window is 512 quiet ticks after that.
    const WINDOW: u64 = 512;
    let mut site = Worksite::new(&standard_config(SecurityPosture::secure()), 7);
    site.run(SimDuration::from_secs(120));
    let before = allocations();
    assert!(
        before > 0,
        "the counter saw no allocation while the site was built"
    );
    for _ in 0..WINDOW {
        site.tick();
    }
    let made = allocations() - before;
    assert_eq!(
        made, 0,
        "{made} heap allocations across {WINDOW} warm ticks"
    );
}

#[test]
fn steady_episode_resets_do_not_allocate() {
    // Compact secure episodes at one seed, so the PKI template stays
    // warm, rotating the attack classes whose campaign targets carry no
    // label strings.
    const RESETS: usize = 64;
    let specs: Vec<EpisodeSpec> = [
        None,
        Some(AttackKind::RfJamming),
        Some(AttackKind::DeauthFlood),
        Some(AttackKind::Replay),
    ]
    .into_iter()
    .map(|attack| {
        EpisodeSpec::compact(
            SecurityPosture::secure(),
            attack,
            11,
            SimDuration::from_secs(2),
        )
    })
    .collect();

    // One warm-up episode per attack class sizes the campaign storage.
    let mut slot: Option<Worksite> = None;
    for spec in &specs {
        let _ = run_episode_pooled(&mut slot, spec);
    }
    let site = slot.as_mut().expect("warm-up filled the pool slot");

    // Only reset and arming are counted; each episode then runs, so
    // every reset starts from a site an episode has dirtied.
    let mut made = 0;
    for spec in specs.iter().cycle().take(RESETS) {
        let before = allocations();
        site.reset_for_episode(&spec.config, spec.seed);
        spec.arm(site);
        made += allocations() - before;
        site.run(spec.duration);
    }
    assert_eq!(
        made, 0,
        "{made} heap allocations across {RESETS} steady resets"
    );
}

#[test]
fn reset_into_a_larger_roster_allocates_no_more_than_a_fresh_build() {
    // A site built for the two-person compact world is reset into the
    // standard world with twelve people; a fresh build of that world
    // runs the same ticks. Perception, fusion and the drone feed grow
    // with the roster, so a reset that kept the small site's scratch
    // capacities would grow them inside its ticks.
    const TICKS: usize = 960;
    let mut crowded = standard_config(SecurityPosture::secure());
    crowded.world.human_count = 12;
    let count_ticks = |site: &mut Worksite| {
        let before = allocations();
        for _ in 0..TICKS {
            site.tick();
        }
        allocations() - before
    };

    let mut reset = Worksite::new(&compact_config(SecurityPosture::secure()), 7);
    reset.run(SimDuration::from_secs(10));
    reset.reset_for_episode(&crowded, 7);
    let after_reset = count_ticks(&mut reset);
    let after_build = count_ticks(&mut Worksite::new(&crowded, 7));
    assert!(
        after_reset <= after_build,
        "{after_reset} heap allocations across {TICKS} ticks after the reset, \
         {after_build} after a fresh build"
    );
}

#[test]
fn warm_verify_does_not_allocate() {
    // The warm-up call builds the shared basepoint tables; the window
    // then verifies one valid signature and rejects one over another
    // message, ten times each.
    const ROUNDS: u64 = 10;
    let key = SigningKey::from_seed(&[7u8; 32]);
    let vk = key.verifying_key();
    let sig = key.sign(b"bundle manifest");
    assert!(vk.verify(b"bundle manifest", &sig).is_ok());
    let before = allocations();
    for _ in 0..ROUNDS {
        assert!(vk.verify(b"bundle manifest", &sig).is_ok());
        assert!(vk.verify(b"other manifest", &sig).is_err());
    }
    let made = allocations() - before;
    assert_eq!(
        made, 0,
        "{made} heap allocations across {ROUNDS} warm accepting and rejecting verifies"
    );
}
