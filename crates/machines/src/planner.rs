//! A* path planning over terrain with slope costs.
//!
//! The planner works on a coarse grid over the terrain. Cells whose slope
//! exceeds the machine's capability are impassable; otherwise cost grows
//! with slope. The returned path is a sparse waypoint list suitable for
//! [`crate::kinematics::GroundVehicle::set_path`].

use silvasec_sim::geom::Vec2;
use silvasec_sim::terrain::Terrain;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Planner parameters.
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Planning grid resolution, metres.
    pub grid_m: f64,
    /// Maximum traversable slope (rise/run).
    pub max_slope: f64,
    /// Cost multiplier per unit slope.
    pub slope_cost: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            grid_m: 10.0,
            max_slope: 0.45,
            slope_cost: 6.0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct OpenEntry {
    f: f64,
    cell: (i32, i32),
}

impl Eq for OpenEntry {}

impl Ord for OpenEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on f; tie-break on cell for determinism.
        other
            .f
            .partial_cmp(&self.f)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.cell.cmp(&self.cell))
    }
}

impl PartialOrd for OpenEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable planner allocations (scores, frontier, raw path) so replans
/// in the steady-state tick never touch the heap once warm. Owned by
/// the machine that replans (the forwarder).
#[derive(Debug, Clone, Default)]
pub struct PlannerScratch {
    g_score: Vec<f64>,
    came_from: Vec<Option<(i32, i32)>>,
    open: BinaryHeap<OpenEntry>,
    raw: Vec<Vec2>,
}

/// Plans a path from `start` to `goal`: writes the waypoints, ending
/// with the goal, into caller-owned `out` and returns whether a path
/// exists. `out` is cleared first; on `false` (the goal is unreachable
/// under the slope limit) it stays empty. With warm scratch and output
/// capacities no heap allocation occurs.
pub fn plan_path_into(
    terrain: &Terrain,
    config: &PlannerConfig,
    start: Vec2,
    goal: Vec2,
    scratch: &mut PlannerScratch,
    out: &mut Vec<Vec2>,
) -> bool {
    out.clear();
    let cells = (terrain.size_m() / config.grid_m).floor() as i32 + 1;
    let to_cell = |p: Vec2| -> (i32, i32) {
        (
            ((p.x / config.grid_m).round() as i32).clamp(0, cells - 1),
            ((p.y / config.grid_m).round() as i32).clamp(0, cells - 1),
        )
    };
    let to_point = |c: (i32, i32)| -> Vec2 {
        Vec2::new(c.0 as f64 * config.grid_m, c.1 as f64 * config.grid_m)
    };
    let passable = |c: (i32, i32)| -> bool { terrain.slope_at(to_point(c)) <= config.max_slope };

    let start_cell = to_cell(start);
    let goal_cell = to_cell(goal);
    if !passable(goal_cell) || !passable(start_cell) {
        return false;
    }
    if start_cell == goal_cell {
        out.push(goal);
        return true;
    }

    let idx = |c: (i32, i32)| (c.1 * cells + c.0) as usize;
    scratch.g_score.clear();
    scratch
        .g_score
        .resize((cells * cells) as usize, f64::INFINITY);
    scratch.came_from.clear();
    scratch.came_from.resize((cells * cells) as usize, None);
    scratch.open.clear();
    scratch.g_score[idx(start_cell)] = 0.0;
    scratch.open.push(OpenEntry {
        f: 0.0,
        cell: start_cell,
    });

    let heuristic = |c: (i32, i32)| {
        let dx = (c.0 - goal_cell.0) as f64;
        let dy = (c.1 - goal_cell.1) as f64;
        dx.hypot(dy) * config.grid_m
    };

    const DIRS: [(i32, i32); 8] = [
        (1, 0),
        (-1, 0),
        (0, 1),
        (0, -1),
        (1, 1),
        (1, -1),
        (-1, 1),
        (-1, -1),
    ];

    while let Some(OpenEntry { cell, .. }) = scratch.open.pop() {
        if cell == goal_cell {
            scratch.raw.clear();
            scratch.raw.push(goal);
            let mut cur = cell;
            while let Some(prev) = scratch.came_from[idx(cur)] {
                scratch.raw.push(to_point(cur));
                cur = prev;
            }
            scratch.raw.reverse();
            simplify_into(&scratch.raw, out);
            return true;
        }
        let g_here = scratch.g_score[idx(cell)];
        for (dx, dy) in DIRS {
            let next = (cell.0 + dx, cell.1 + dy);
            if next.0 < 0 || next.1 < 0 || next.0 >= cells || next.1 >= cells {
                continue;
            }
            if !passable(next) {
                continue;
            }
            let step = ((dx * dx + dy * dy) as f64).sqrt() * config.grid_m;
            let slope = terrain.slope_at(to_point(next));
            let cost = step * (1.0 + config.slope_cost * slope);
            let tentative = g_here + cost;
            if tentative < scratch.g_score[idx(next)] {
                scratch.g_score[idx(next)] = tentative;
                scratch.came_from[idx(next)] = Some(cell);
                scratch.open.push(OpenEntry {
                    f: tentative + heuristic(next),
                    cell: next,
                });
            }
        }
    }
    false
}

/// Removes collinear intermediate waypoints, writing into caller-owned
/// `out` (cleared first).
fn simplify_into(path: &[Vec2], out: &mut Vec<Vec2>) {
    out.clear();
    if path.len() <= 2 {
        out.extend_from_slice(path);
        return;
    }
    out.push(path[0]);
    for i in 1..path.len() - 1 {
        let a = *out.last().expect("non-empty");
        let b = path[i];
        let c = path[i + 1];
        let ab = (b - a).normalized();
        let bc = (c - b).normalized();
        if ab.dot(bc) < 0.9999 {
            out.push(b);
        }
    }
    out.push(*path.last().expect("non-empty"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use silvasec_sim::rng::SimRng;
    use silvasec_sim::terrain::{Terrain, TerrainConfig};

    /// One plan on fresh scratch: the waypoints, or `None` when the goal
    /// is unreachable.
    fn plan(
        terrain: &Terrain,
        config: &PlannerConfig,
        start: Vec2,
        goal: Vec2,
    ) -> Option<Vec<Vec2>> {
        let mut out = Vec::new();
        plan_path_into(
            terrain,
            config,
            start,
            goal,
            &mut PlannerScratch::default(),
            &mut out,
        )
        .then_some(out)
    }

    #[test]
    fn straight_line_on_flat_ground() {
        let terrain = Terrain::flat(200.0, 5.0);
        let path = plan(
            &terrain,
            &PlannerConfig::default(),
            Vec2::new(10.0, 10.0),
            Vec2::new(150.0, 10.0),
        )
        .unwrap();
        assert_eq!(*path.last().unwrap(), Vec2::new(150.0, 10.0));
        // Should be nearly straight: total length close to 140.
        let len: f64 = std::iter::once(Vec2::new(10.0, 10.0))
            .chain(path.iter().copied())
            .collect::<Vec<_>>()
            .windows(2)
            .map(|w| w[0].distance(w[1]))
            .sum();
        assert!(len < 160.0, "path length {len}");
    }

    #[test]
    fn same_cell_returns_goal() {
        let terrain = Terrain::flat(100.0, 5.0);
        let path = plan(
            &terrain,
            &PlannerConfig::default(),
            Vec2::new(10.0, 10.0),
            Vec2::new(11.0, 11.0),
        )
        .unwrap();
        assert_eq!(path, vec![Vec2::new(11.0, 11.0)]);
    }

    #[test]
    fn finds_path_on_rough_terrain() {
        let terrain = Terrain::generate(
            &TerrainConfig {
                relief_m: 25.0,
                ..TerrainConfig::default()
            },
            &mut SimRng::from_seed(1),
        );
        let path = plan(
            &terrain,
            &PlannerConfig::default(),
            Vec2::new(20.0, 20.0),
            Vec2::new(450.0, 450.0),
        );
        assert!(path.is_some(), "no path on moderate terrain");
        let path = path.unwrap();
        // Every waypoint passable.
        for p in &path {
            assert!(terrain.slope_at(*p) <= PlannerConfig::default().max_slope + 1e-9);
        }
    }

    #[test]
    fn impassable_goal_returns_none() {
        let terrain = Terrain::generate(
            &TerrainConfig {
                relief_m: 25.0,
                ..TerrainConfig::default()
            },
            &mut SimRng::from_seed(2),
        );
        // A max_slope of 0 makes any non-flat cell impassable.
        let config = PlannerConfig {
            max_slope: 0.0,
            ..PlannerConfig::default()
        };
        let path = plan(
            &terrain,
            &config,
            Vec2::new(20.0, 20.0),
            Vec2::new(450.0, 450.0),
        );
        assert!(path.is_none());
    }

    #[test]
    fn deterministic() {
        let terrain = Terrain::generate(&TerrainConfig::default(), &mut SimRng::from_seed(3));
        let run = || {
            plan(
                &terrain,
                &PlannerConfig::default(),
                Vec2::new(30.0, 40.0),
                Vec2::new(400.0, 380.0),
            )
        };
        assert_eq!(run(), run());
    }

    /// sha256 over [`into_variant_matches_oracle`]'s 36 plans, in case
    /// order: per plan a found byte, the waypoint count as a
    /// little-endian `u64`, then each waypoint's x and y `to_bits`.
    /// Recorded while the allocating A* it replaced was still kept
    /// beside `plan_path_into` and matched it on every case, so the pin
    /// holds that planner's outputs.
    const ORACLE_PLANS: &str = "1c97c34f6a06c2cf9a4bb596cb76e1b00ab0f4c7cc5c9b4059481c7f021629eb";

    #[test]
    fn into_variant_matches_oracle() {
        let mut h = silvasec_crypto::sha256::Sha256::new();
        let terrain = Terrain::generate(
            &TerrainConfig {
                relief_m: 25.0,
                ..TerrainConfig::default()
            },
            &mut SimRng::from_seed(5),
        );
        let mut scratch = PlannerScratch::default();
        let mut out = Vec::new();
        let mut rng = SimRng::from_seed(6);
        for cfg in [
            PlannerConfig::default(),
            PlannerConfig {
                max_slope: 0.0,
                ..PlannerConfig::default()
            },
            PlannerConfig {
                slope_cost: 30.0,
                ..PlannerConfig::default()
            },
        ] {
            for _ in 0..12 {
                let start = Vec2::new(rng.uniform_range(0.0, 500.0), rng.uniform_range(0.0, 500.0));
                let goal = Vec2::new(rng.uniform_range(0.0, 500.0), rng.uniform_range(0.0, 500.0));
                let found = plan_path_into(&terrain, &cfg, start, goal, &mut scratch, &mut out);
                assert_eq!(found, !out.is_empty());
                h.update(&[u8::from(found)]);
                h.update(&(out.len() as u64).to_le_bytes());
                for p in &out {
                    h.update(&p.x.to_bits().to_le_bytes());
                    h.update(&p.y.to_bits().to_le_bytes());
                }
            }
        }
        let got: String = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(got, ORACLE_PLANS, "planner outputs moved");
    }

    #[test]
    fn simplify_collapses_collinear() {
        let path = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(2.0, 0.0),
            Vec2::new(3.0, 1.0),
        ];
        let mut s = Vec::new();
        simplify_into(&path, &mut s);
        assert_eq!(
            s,
            vec![
                Vec2::new(0.0, 0.0),
                Vec2::new(2.0, 0.0),
                Vec2::new(3.0, 1.0)
            ]
        );
    }

    #[test]
    fn slope_cost_prefers_flat_detour() {
        // Synthetic terrain: a steep ridge along x = 100 except it is
        // flat near the top edge → planner should detour up and around
        // when slope costs dominate. We approximate by checking the path
        // avoids the highest-slope cells it can.
        let terrain = Terrain::generate(
            &TerrainConfig {
                relief_m: 20.0,
                ..TerrainConfig::default()
            },
            &mut SimRng::from_seed(4),
        );
        let flat_cfg = PlannerConfig {
            slope_cost: 0.0,
            ..PlannerConfig::default()
        };
        let steep_cfg = PlannerConfig {
            slope_cost: 30.0,
            ..PlannerConfig::default()
        };
        let a = Vec2::new(30.0, 250.0);
        let b = Vec2::new(470.0, 250.0);
        assert!(
            terrain.slope_at(a) <= flat_cfg.max_slope && terrain.slope_at(b) <= flat_cfg.max_slope
        );
        let direct = plan(&terrain, &flat_cfg, a, b).unwrap();
        let cautious = plan(&terrain, &steep_cfg, a, b).unwrap();
        let mean_slope = |p: &[Vec2]| -> f64 {
            p.iter().map(|w| terrain.slope_at(*w)).sum::<f64>() / p.len() as f64
        };
        assert!(
            mean_slope(&cautious) <= mean_slope(&direct) + 1e-9,
            "slope-aware path should not be steeper on average"
        );
    }
}
