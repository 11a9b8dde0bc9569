//! A uniform 2-D grid index over dynamic point entities (the humans).
//!
//! The same discipline as [`crate::vegetation::TreeStand`]'s internal
//! tree grid, applied to entities that *move*: the index is rebuilt
//! wholesale at world (re)generation and updated incrementally as
//! positions change, so range queries (sensor sweeps, the safety
//! supervisor's danger-zone test) only examine nearby candidates
//! instead of scanning every entity.
//!
//! # Equivalence contract
//!
//! [`EntityGrid::fill_candidates`] returns a **conservative superset**
//! of the entities within `radius` of `center` (2-D distance), in
//! **ascending entity-index order** with no duplicates. A caller that
//! re-applies its exact original per-entity filters to the candidates
//! therefore sees the same accepted entities, in the same order, as a
//! full linear scan — so detection output, RNG draw order and telemetry
//! traces are bit-identical to the unculled path. This is asserted by
//! proptest (`grid_candidates_match_linear_scan`) and by the worksite's
//! tick digest pins.

use crate::geom::Vec2;

/// Grid cell edge length in metres. Matches the tree stand's cell size;
/// with a handful of workers per site the exact value only shifts the
/// constant factor.
const CELL_M: f64 = 20.0;

/// A uniform grid over `[0, size_m]²` binning entity indices by
/// position.
#[derive(Debug, Clone, Default)]
pub struct EntityGrid {
    size_m: f64,
    cells: usize,
    /// `cells × cells` flat bins of entity indices.
    bins: Vec<Vec<u32>>,
    /// Entity index → flat bin index currently holding it.
    bin_of: Vec<u32>,
}

impl EntityGrid {
    /// Creates an empty grid; call [`EntityGrid::rebuild`] before use.
    #[must_use]
    pub fn new() -> Self {
        EntityGrid::default()
    }

    fn flat_bin(&self, p: Vec2) -> u32 {
        let gx = ((p.x / CELL_M) as usize).min(self.cells - 1);
        let gy = ((p.y / CELL_M) as usize).min(self.cells - 1);
        (gy * self.cells + gx) as u32
    }

    /// Rebuilds the index over `positions` for a `size_m`-sided world,
    /// reusing every allocation from the previous build. Each bin is
    /// pre-reserved to the full entity count so later incremental
    /// [`EntityGrid::update`]s never allocate, whatever the entities'
    /// trajectories.
    pub fn rebuild<I>(&mut self, size_m: f64, positions: I)
    where
        I: IntoIterator<Item = Vec2>,
    {
        self.size_m = size_m;
        self.cells = (size_m / CELL_M).ceil().max(1.0) as usize;
        let bin_count = self.cells * self.cells;
        for bin in &mut self.bins {
            bin.clear();
        }
        if self.bins.len() < bin_count {
            self.bins.resize_with(bin_count, Vec::new);
        }
        self.bin_of.clear();
        for (i, p) in positions.into_iter().enumerate() {
            let b = self.flat_bin(p);
            self.bins[b as usize].push(i as u32);
            self.bin_of.push(b);
        }
        let n = self.bin_of.len();
        for bin in &mut self.bins[..bin_count] {
            bin.reserve(n.saturating_sub(bin.len()));
        }
    }

    /// Number of indexed entities.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bin_of.len()
    }

    /// Whether the grid indexes no entities.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bin_of.is_empty()
    }

    /// Moves entity `index` to `new_pos`, rebinning it if it crossed a
    /// cell boundary. Order within a bin is not maintained (queries
    /// sort); no allocation occurs (bins are pre-reserved by
    /// [`EntityGrid::rebuild`]).
    pub fn update(&mut self, index: usize, new_pos: Vec2) {
        let new_bin = self.flat_bin(new_pos);
        let old_bin = self.bin_of[index];
        if new_bin == old_bin {
            return;
        }
        let old = &mut self.bins[old_bin as usize];
        if let Some(slot) = old.iter().position(|&i| i == index as u32) {
            old.swap_remove(slot);
        }
        self.bins[new_bin as usize].push(index as u32);
        self.bin_of[index] = new_bin;
    }

    /// Fills `out` with a conservative superset of the entity indices
    /// within `radius` metres (2-D) of `center`, sorted ascending, no
    /// duplicates. `out` is cleared first; with warm capacity the call
    /// does not allocate.
    pub fn fill_candidates(&self, center: Vec2, radius: f64, out: &mut Vec<u32>) {
        out.clear();
        if self.bin_of.is_empty() || self.cells == 0 {
            return;
        }
        let min_x = (center.x - radius).max(0.0);
        let max_x = (center.x + radius).min(self.size_m);
        let min_y = (center.y - radius).max(0.0);
        let max_y = (center.y + radius).min(self.size_m);
        let gx0 = ((min_x / CELL_M) as usize).min(self.cells - 1);
        let gx1 = ((max_x / CELL_M) as usize).min(self.cells - 1);
        let gy0 = ((min_y / CELL_M) as usize).min(self.cells - 1);
        let gy1 = ((max_y / CELL_M) as usize).min(self.cells - 1);
        for gy in gy0..=gy1 {
            for gx in gx0..=gx1 {
                out.extend_from_slice(&self.bins[gy * self.cells + gx]);
            }
        }
        // Each entity lives in exactly one bin, so there are no
        // duplicates; sorting restores linear-scan visitation order.
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn random_positions(seed: u64, n: usize, size: f64) -> Vec<Vec2> {
        let mut rng = SimRng::from_seed(seed);
        (0..n)
            .map(|_| Vec2::new(rng.uniform_range(0.0, size), rng.uniform_range(0.0, size)))
            .collect()
    }

    fn assert_superset_sorted(grid: &EntityGrid, positions: &[Vec2], center: Vec2, radius: f64) {
        let mut cands = Vec::new();
        grid.fill_candidates(center, radius, &mut cands);
        assert!(cands.windows(2).all(|w| w[0] < w[1]), "not sorted/deduped");
        for (i, p) in positions.iter().enumerate() {
            if p.distance(center) <= radius {
                assert!(
                    cands.binary_search(&(i as u32)).is_ok(),
                    "entity {i} at {p:?} within {radius} of {center:?} missing"
                );
            }
        }
    }

    #[test]
    fn candidates_cover_every_in_range_entity() {
        let size = 300.0;
        let positions = random_positions(1, 40, size);
        let mut grid = EntityGrid::new();
        grid.rebuild(size, positions.iter().copied());
        for (seed, radius) in [(2u64, 5.0), (3, 45.0), (4, 120.0), (5, 1000.0)] {
            let mut rng = SimRng::from_seed(seed);
            for _ in 0..20 {
                let center = Vec2::new(
                    rng.uniform_range(-20.0, size + 20.0),
                    rng.uniform_range(-20.0, size + 20.0),
                );
                assert_superset_sorted(&grid, &positions, center, radius);
            }
        }
    }

    #[test]
    fn incremental_update_tracks_moves() {
        let size = 200.0;
        let mut positions = random_positions(7, 12, size);
        let mut grid = EntityGrid::new();
        grid.rebuild(size, positions.iter().copied());
        let mut rng = SimRng::from_seed(8);
        for _ in 0..500 {
            let i = rng.below(positions.len() as u64) as usize;
            let p = Vec2::new(rng.uniform_range(0.0, size), rng.uniform_range(0.0, size));
            positions[i] = p;
            grid.update(i, p);
        }
        assert_superset_sorted(&grid, &positions, Vec2::new(100.0, 100.0), 60.0);
        // A full-world query must return every entity exactly once.
        let mut all = Vec::new();
        grid.fill_candidates(Vec2::new(100.0, 100.0), 1000.0, &mut all);
        assert_eq!(all, (0..positions.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn rebuild_reuses_and_resets() {
        let mut grid = EntityGrid::new();
        grid.rebuild(100.0, random_positions(9, 6, 100.0));
        assert_eq!(grid.len(), 6);
        let positions = random_positions(10, 3, 250.0);
        grid.rebuild(250.0, positions.iter().copied());
        assert_eq!(grid.len(), 3);
        assert_superset_sorted(&grid, &positions, Vec2::new(50.0, 50.0), 80.0);
    }

    #[test]
    fn empty_grid_queries_are_empty() {
        let grid = EntityGrid::new();
        let mut out = vec![1, 2, 3];
        grid.fill_candidates(Vec2::ZERO, 10.0, &mut out);
        assert!(out.is_empty());
    }
}
