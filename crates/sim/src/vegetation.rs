//! Tree stands: positions, trunk heights and canopy radii.
//!
//! Trees are the second occluder class (after terrain) in the Figure 2
//! occlusion study: denser stands occlude more of the forwarder's
//! ground-level sensor field of view.

use crate::geom::Vec2;
use crate::rng::SimRng;

/// One tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tree {
    /// Trunk base position.
    pub position: Vec2,
    /// Total height in metres.
    pub height_m: f64,
    /// Trunk radius in metres (used for occlusion).
    pub trunk_radius_m: f64,
    /// Canopy radius in metres (used for canopy occlusion above crown base).
    pub canopy_radius_m: f64,
}

/// Configuration for stand generation.
#[derive(Debug, Clone, Copy)]
pub struct StandConfig {
    /// Stand density in trees per hectare (typical managed Nordic forest:
    /// 500–2000; post-thinning: 600–900).
    pub trees_per_hectare: f64,
    /// Mean tree height in metres.
    pub mean_height_m: f64,
    /// Standard deviation of tree height.
    pub height_std_m: f64,
}

impl Default for StandConfig {
    fn default() -> Self {
        StandConfig {
            trees_per_hectare: 800.0,
            mean_height_m: 18.0,
            height_std_m: 4.0,
        }
    }
}

/// Absolute widening of the segment-query cell cull, metres: far above
/// the rounding error of stand coordinates (~1e-13 m at 1 km), far below
/// a tree.
const CULL_SLACK_M: f64 = 1e-6;

/// One tree's record in the cell index: what the segment filter reads.
#[derive(Debug, Clone, Copy, Default)]
struct CellTree {
    position: Vec2,
    // `canopy_radius_m.max(trunk_radius_m)`.
    reach_m: f64,
    // Index into `TreeStand::trees`.
    index: u32,
}

/// A collection of trees over a square area, with a coarse spatial index
/// for segment queries.
#[derive(Debug, Clone)]
pub struct TreeStand {
    trees: Vec<Tree>,
    size_m: f64,
    // Coarse grid index in compressed sparse rows: the records of cell
    // `c` (row-major, `grid_cells` × `grid_cells`) are
    // `cell_trees[cell_start[c]..cell_start[c + 1]]`, in ascending tree
    // index.
    cell_start: Vec<u32>,
    cell_trees: Vec<CellTree>,
    grid_cells: usize,
    grid_cell_m: f64,
    // Largest per-tree reach (canopy or trunk radius) in the stand —
    // the sound cell-skip bound for segment queries.
    max_reach_m: f64,
}

impl TreeStand {
    /// Generates a stand with the given density over a `size_m` × `size_m`
    /// area. Cleared zones (e.g. the landing area and machine trails) can
    /// be cut out afterwards with [`TreeStand::clear_disc`].
    ///
    /// # Panics
    ///
    /// Panics if `size_m` is not positive or the density is negative.
    #[must_use]
    pub fn generate(config: &StandConfig, size_m: f64, rng: &mut SimRng) -> Self {
        let mut stand = TreeStand {
            trees: Vec::new(),
            size_m,
            cell_start: Vec::new(),
            cell_trees: Vec::new(),
            grid_cells: 1,
            grid_cell_m: 20.0,
            max_reach_m: 0.0,
        };
        stand.regenerate(config, size_m, rng);
        stand
    }

    /// Redraws this stand in place from `config` and `rng`, reusing the
    /// tree list and grid-index allocations. The RNG draw order and every
    /// generated tree are identical to [`TreeStand::generate`], so a
    /// regenerated stand is indistinguishable from a fresh one — zero
    /// allocations once the buffers have warmed to the episode shape.
    ///
    /// # Panics
    ///
    /// Panics if `size_m` is not positive or the density is negative.
    pub fn regenerate(&mut self, config: &StandConfig, size_m: f64, rng: &mut SimRng) {
        assert!(size_m > 0.0, "stand area must be positive");
        assert!(
            config.trees_per_hectare >= 0.0,
            "density must be non-negative"
        );
        let hectares = (size_m * size_m) / 10_000.0;
        let count = (config.trees_per_hectare * hectares).round() as usize;
        self.trees.clear();
        self.trees.reserve(count);
        for _ in 0..count {
            let height = rng
                .normal(config.mean_height_m, config.height_std_m)
                .clamp(2.0, 45.0);
            // Allometry: trunk radius and canopy scale with height.
            let trunk_radius = (0.010 * height).clamp(0.05, 0.5);
            let canopy_radius = (0.14 * height).clamp(0.5, 5.0);
            self.trees.push(Tree {
                position: Vec2::new(
                    rng.uniform_range(0.0, size_m),
                    rng.uniform_range(0.0, size_m),
                ),
                height_m: height,
                trunk_radius_m: trunk_radius,
                canopy_radius_m: canopy_radius,
            });
        }
        self.size_m = size_m;
        self.rebuild_grid();
    }

    /// Builds a stand from an explicit tree list.
    ///
    /// # Panics
    ///
    /// Panics if `size_m` is not positive.
    #[must_use]
    pub fn from_trees(trees: Vec<Tree>, size_m: f64) -> Self {
        assert!(size_m > 0.0, "stand area must be positive");
        let mut stand = TreeStand {
            trees,
            size_m,
            cell_start: Vec::new(),
            cell_trees: Vec::new(),
            grid_cells: 1,
            grid_cell_m: 20.0,
            max_reach_m: 0.0,
        };
        stand.rebuild_grid();
        stand
    }

    /// Removes all trees within `radius` of `center` (clearing a landing
    /// area or trail). In place: the tree list and grid index keep their
    /// allocations.
    pub fn clear_disc(&mut self, center: Vec2, radius: f64) {
        self.trees.retain(|t| t.position.distance(center) > radius);
        self.rebuild_grid();
    }

    /// Recomputes the cell index from the current tree list in place (a
    /// counting sort by cell), reusing the index's allocations.
    fn rebuild_grid(&mut self) {
        let grid_cell_m = 20.0;
        let grid_cells = (self.size_m / grid_cell_m).ceil().max(1.0) as usize;
        self.grid_cells = grid_cells;
        self.grid_cell_m = grid_cell_m;
        let cell_of = |tree: &Tree| {
            let gx = ((tree.position.x / grid_cell_m) as usize).min(grid_cells - 1);
            let gy = ((tree.position.y / grid_cell_m) as usize).min(grid_cells - 1);
            gy * grid_cells + gx
        };
        // Count each cell's trees into the slot after it, then turn the
        // counts into start offsets.
        self.cell_start.clear();
        self.cell_start.resize(grid_cells * grid_cells + 1, 0);
        for tree in &self.trees {
            self.cell_start[cell_of(tree) + 1] += 1;
        }
        for c in 1..self.cell_start.len() {
            self.cell_start[c] += self.cell_start[c - 1];
        }
        // Place the trees in ascending index, advancing each cell's start
        // as a cursor; afterwards `cell_start[c]` holds the end of cell
        // `c`, so shift the offsets back by one cell.
        self.cell_trees.clear();
        self.cell_trees
            .resize(self.trees.len(), CellTree::default());
        let mut max_reach = 0.0f64;
        for (i, tree) in self.trees.iter().enumerate() {
            let reach_m = tree.canopy_radius_m.max(tree.trunk_radius_m);
            let cursor = &mut self.cell_start[cell_of(tree)];
            self.cell_trees[*cursor as usize] = CellTree {
                position: tree.position,
                reach_m,
                index: i as u32,
            };
            *cursor += 1;
            max_reach = max_reach.max(reach_m);
        }
        self.cell_start.copy_within(..grid_cells * grid_cells, 1);
        self.cell_start[0] = 0;
        self.max_reach_m = max_reach;
    }

    /// The records of cell `c`.
    #[inline]
    fn cell(&self, c: usize) -> &[CellTree] {
        &self.cell_trees[self.cell_start[c] as usize..self.cell_start[c + 1] as usize]
    }

    /// Grid bounds `(gx0, gx1, gy0, gy1)` of the cells within
    /// `margin + grid_cell_m` of the segment's bounding box.
    #[inline]
    fn cell_range(&self, a: Vec2, b: Vec2, margin: f64) -> (usize, usize, usize, usize) {
        let pad = margin + self.grid_cell_m;
        let min_x = (a.x.min(b.x) - pad).max(0.0);
        let max_x = (a.x.max(b.x) + pad).min(self.size_m);
        let min_y = (a.y.min(b.y) - pad).max(0.0);
        let max_y = (a.y.max(b.y) + pad).min(self.size_m);
        let last = self.grid_cells - 1;
        (
            ((min_x / self.grid_cell_m) as usize).min(last),
            ((max_x / self.grid_cell_m) as usize).min(last),
            ((min_y / self.grid_cell_m) as usize).min(last),
            ((max_y / self.grid_cell_m) as usize).min(last),
        )
    }

    /// Visits, in row-major order, the non-empty cells of the segment's
    /// `margin` rectangle that can hold a tree within `reach` of the
    /// segment; return `false` from `visit` to stop.
    ///
    /// The cull: in each row of cells, only the cells whose x-extent
    /// overlaps the segment's x-extent within that row — both inflated by
    /// `reach` — can hold a point within `reach` of the segment (axis
    /// inflation is a superset of the Euclidean one). Walking that span
    /// alone removes the O(length²) cell scan on long diagonal queries
    /// (the radio links). The span is widened by [`CULL_SLACK_M`] so
    /// rounding can never drop a cell; the per-tree filter decides.
    fn for_cells_near_segment<F>(&self, a: Vec2, b: Vec2, margin: f64, reach: f64, mut visit: F)
    where
        F: FnMut(&[CellTree]) -> bool,
    {
        let (gx0, gx1, gy0, gy1) = self.cell_range(a, b, margin);
        let cell_m = self.grid_cell_m;
        let reach = reach + CULL_SLACK_M;
        let d = b - a;
        for gy in gy0..=gy1 {
            // The segment's parameter range inside this row's band.
            let band_lo = gy as f64 * cell_m - reach;
            let band_hi = (gy + 1) as f64 * cell_m + reach;
            let (t0, t1) = if d.y.abs() < 1e-12 {
                if a.y < band_lo || a.y > band_hi {
                    continue;
                }
                (0.0, 1.0)
            } else {
                let (ta, tb) = ((band_lo - a.y) / d.y, (band_hi - a.y) / d.y);
                (ta.min(tb).max(0.0), ta.max(tb).min(1.0))
            };
            if t0 > t1 {
                continue;
            }
            let (xa, xb) = (a.x + d.x * t0, a.x + d.x * t1);
            let first = (((xa.min(xb) - reach) / cell_m).max(0.0) as usize).max(gx0);
            let last = (((xa.max(xb) + reach) / cell_m).max(0.0) as usize).min(gx1);
            let row = gy * self.grid_cells;
            for gx in first..=last {
                let cell = self.cell(row + gx);
                if !cell.is_empty() && !visit(cell) {
                    return;
                }
            }
        }
    }

    /// All trees.
    #[must_use]
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// Number of trees.
    #[must_use]
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the stand has no trees.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Stand density in trees per hectare.
    #[must_use]
    pub fn density_per_hectare(&self) -> f64 {
        self.trees.len() as f64 / ((self.size_m * self.size_m) / 10_000.0)
    }

    /// Visits every tree whose trunk or canopy comes within `margin`
    /// metres of the 2-D segment `a`–`b` (`distance_to_segment <= margin
    /// + reach`, reach being the larger of canopy and trunk radius),
    /// without allocating. Trees are visited cell by cell in row-major
    /// order, ascending index within a cell — the order
    /// [`TreeStand::trees_near_segment`] returns them; return `false`
    /// from `visit` to stop early.
    ///
    /// This is the line-of-sight hot path: `line_of_sight` casts one
    /// query per (sensor, human, tick).
    pub fn for_trees_near_segment<'s, F>(&'s self, a: Vec2, b: Vec2, margin: f64, mut visit: F)
    where
        F: FnMut(&'s Tree) -> bool,
    {
        self.for_cells_near_segment(a, b, margin, margin + self.max_reach_m, |cell| {
            for t in cell {
                if t.position.is_near_segment(a, b, margin + t.reach_m)
                    && !visit(&self.trees[t.index as usize])
                {
                    return false;
                }
            }
            true
        });
    }

    /// Visits every tree whose trunk base lies within `radius` metres of
    /// the 2-D segment `a`–`b` (`distance_to_segment <= radius`), in the
    /// order of [`TreeStand::for_trees_near_segment`]; return `false`
    /// from `visit` to stop early. Canopies play no part, so the cell
    /// cull uses `radius` alone — the radio foliage count's query.
    pub fn for_trunks_near_segment<'s, F>(&'s self, a: Vec2, b: Vec2, radius: f64, mut visit: F)
    where
        F: FnMut(&'s Tree) -> bool,
    {
        self.for_cells_near_segment(a, b, radius, radius, |cell| {
            for t in cell {
                if t.position.is_near_segment(a, b, radius) && !visit(&self.trees[t.index as usize])
                {
                    return false;
                }
            }
            true
        });
    }

    /// FROZEN pre-optimization segment query: collects matching trees
    /// into a fresh `Vec` after scanning *every* grid cell in the
    /// segment's bounding rectangle (no cell-level cull) with one
    /// `distance_to_segment` per tree. Returns the same trees in the same
    /// order as [`TreeStand::trees_near_segment`]; only the cost differs.
    /// Kept as the parity oracle the culled queries are property-tested
    /// against — do not optimize.
    #[must_use]
    pub fn trees_near_segment_reference(&self, a: Vec2, b: Vec2, margin: f64) -> Vec<&Tree> {
        let (gx0, gx1, gy0, gy1) = self.cell_range(a, b, margin);
        let mut out = Vec::new();
        for gy in gy0..=gy1 {
            for gx in gx0..=gx1 {
                for t in self.cell(gy * self.grid_cells + gx) {
                    let tree = &self.trees[t.index as usize];
                    if tree.position.distance_to_segment(a, b)
                        <= margin + tree.canopy_radius_m.max(tree.trunk_radius_m)
                    {
                        out.push(tree);
                    }
                }
            }
        }
        out
    }

    /// Collects the trees [`TreeStand::for_trees_near_segment`] visits.
    /// Convenient for tests and one-off queries; hot paths should use the
    /// visitor to avoid the allocation.
    pub fn trees_near_segment(&self, a: Vec2, b: Vec2, margin: f64) -> Vec<&Tree> {
        let mut out = Vec::new();
        self.for_trees_near_segment(a, b, margin, |tree| {
            out.push(tree);
            true
        });
        out
    }

    /// `min(n, cap)`, where `n` is the number of trees
    /// [`TreeStand::for_trees_near_segment`] visits — the worksite's
    /// per-tick sensor-health feature count, which reads at most `cap`.
    /// Counts a whole cell at a time and stops once the count reaches
    /// `cap`; pass `usize::MAX` for the full count.
    #[must_use]
    pub fn count_trees_near_segment(&self, a: Vec2, b: Vec2, margin: f64, cap: usize) -> usize {
        let mut count = 0;
        self.for_cells_near_segment(a, b, margin, margin + self.max_reach_m, |cell| {
            count += cell
                .iter()
                .filter(|t| t.position.is_near_segment(a, b, margin + t.reach_m))
                .count();
            count < cap
        });
        count.min(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stand(seed: u64, density: f64) -> TreeStand {
        let config = StandConfig {
            trees_per_hectare: density,
            ..StandConfig::default()
        };
        TreeStand::generate(&config, 200.0, &mut SimRng::from_seed(seed))
    }

    #[test]
    fn density_approximately_matches() {
        let s = stand(1, 800.0);
        // 200 m × 200 m = 4 ha → ~3200 trees.
        assert_eq!(s.len(), 3200);
        assert!((s.density_per_hectare() - 800.0).abs() < 1.0);
    }

    #[test]
    fn zero_density_gives_empty_stand() {
        let s = stand(1, 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn heights_clamped_to_plausible_range() {
        let s = stand(2, 500.0);
        for t in s.trees() {
            assert!((2.0..=45.0).contains(&t.height_m));
            assert!(t.trunk_radius_m > 0.0 && t.canopy_radius_m >= t.trunk_radius_m);
        }
    }

    #[test]
    fn clear_disc_removes_trees() {
        let mut s = stand(3, 800.0);
        let center = Vec2::new(100.0, 100.0);
        let before = s.len();
        s.clear_disc(center, 30.0);
        assert!(s.len() < before);
        for t in s.trees() {
            assert!(t.position.distance(center) > 30.0);
        }
    }

    #[test]
    fn segment_query_finds_blocking_tree() {
        let tree = Tree {
            position: Vec2::new(50.0, 50.0),
            height_m: 20.0,
            trunk_radius_m: 0.2,
            canopy_radius_m: 2.0,
        };
        let s = TreeStand::from_trees(vec![tree], 100.0);
        let hits = s.trees_near_segment(Vec2::new(0.0, 50.0), Vec2::new(100.0, 50.0), 0.5);
        assert_eq!(hits.len(), 1);
        // A segment far away misses.
        let misses = s.trees_near_segment(Vec2::new(0.0, 90.0), Vec2::new(100.0, 90.0), 0.5);
        assert!(misses.is_empty());
    }

    #[test]
    fn segment_query_matches_brute_force() {
        let s = stand(4, 600.0);
        let a = Vec2::new(10.0, 15.0);
        let b = Vec2::new(190.0, 170.0);
        let margin = 1.0;
        let collected = s.trees_near_segment(a, b, margin);
        let fast: std::collections::HashSet<usize> = collected
            .iter()
            .map(|t| *t as *const Tree as usize)
            .collect();
        let brute: Vec<&Tree> = s
            .trees()
            .iter()
            .filter(|t| {
                t.position.distance_to_segment(a, b)
                    <= margin + t.canopy_radius_m.max(t.trunk_radius_m)
            })
            .collect();
        for t in &brute {
            assert!(
                fast.contains(&(*t as *const Tree as usize)),
                "grid query missed a tree at {:?}",
                t.position
            );
        }
        assert_eq!(
            s.count_trees_near_segment(a, b, margin, usize::MAX),
            collected.len(),
            "count form disagrees with the collector"
        );

        // The allocation-free visitor sees exactly the collected set, in
        // the same order — `line_of_sight` relies on this equivalence.
        let mut visited: Vec<usize> = Vec::new();
        s.for_trees_near_segment(a, b, margin, |t| {
            visited.push(t as *const Tree as usize);
            true
        });
        let collected_ids: Vec<usize> = collected
            .iter()
            .map(|t| *t as *const Tree as usize)
            .collect();
        assert_eq!(visited, collected_ids, "visitor and Vec query diverged");
    }

    #[test]
    fn segment_visitor_stops_early() {
        let s = stand(6, 800.0);
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(200.0, 200.0);
        let total = s.trees_near_segment(a, b, 1.0).len();
        assert!(
            total > 3,
            "diagonal through a dense stand should pass many trees"
        );
        let mut seen = 0usize;
        s.for_trees_near_segment(a, b, 1.0, |_| {
            seen += 1;
            seen < 3
        });
        assert_eq!(seen, 3, "returning false must stop the traversal");
    }

    #[test]
    fn deterministic() {
        let a = stand(5, 700.0);
        let b = stand(5, 700.0);
        assert_eq!(a.trees()[10].position, b.trees()[10].position);
    }
}
