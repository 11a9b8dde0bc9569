//! The composed worksite world: terrain, trees, weather, humans and time.

use crate::geom::{Vec2, Vec3};
use crate::grid::EntityGrid;
use crate::humans::{Human, HumanConfig, HumanId};
use crate::los::{self, Visibility};
use crate::rng::SimRng;
use crate::terrain::{Terrain, TerrainConfig};
use crate::time::{SimDuration, SimTime};
use crate::vegetation::{StandConfig, TreeStand};
use crate::weather::{Weather, WeatherModel};

/// Scenario configuration for world generation.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Terrain parameters.
    pub terrain: TerrainConfig,
    /// Tree stand parameters.
    pub stand: StandConfig,
    /// Number of ground workers.
    pub human_count: u32,
    /// Worker movement parameters.
    pub human: HumanConfig,
    /// Initial weather.
    pub initial_weather: Weather,
    /// Per-minute probability of a weather transition.
    pub weather_change_prob: f64,
    /// The harvesting work area centre (waypoint bias target; where the
    /// forwarder loads logs).
    pub work_area: Vec2,
    /// The landing (unload) area centre; cleared of trees.
    pub landing_area: Vec2,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            terrain: TerrainConfig::default(),
            stand: StandConfig::default(),
            human_count: 3,
            human: HumanConfig::default(),
            initial_weather: Weather::Clear,
            weather_change_prob: 0.05,
            work_area: Vec2::new(400.0, 400.0),
            landing_area: Vec2::new(80.0, 80.0),
        }
    }
}

/// The simulated worksite.
///
/// # Example
///
/// ```
/// use silvasec_sim::prelude::*;
///
/// let mut world = World::generate(&WorldConfig::default(), SimRng::from_seed(1));
/// for _ in 0..10 {
///     world.step(SimDuration::from_millis(500));
/// }
/// assert_eq!(world.now(), SimTime::from_secs(5));
/// ```
#[derive(Debug, Clone)]
pub struct World {
    config: WorldConfig,
    terrain: Terrain,
    stand: TreeStand,
    weather: WeatherModel,
    humans: Vec<Human>,
    human_grid: EntityGrid,
    now: SimTime,
    last_weather_step: SimTime,
    rng_humans: SimRng,
    rng_weather: SimRng,
}

impl World {
    /// Generates a world from the configuration, consuming the root RNG.
    ///
    /// Subsystems draw from independent forked streams, so e.g. changing
    /// the number of humans does not perturb weather.
    #[must_use]
    pub fn generate(config: &WorldConfig, rng: SimRng) -> Self {
        let mut world = World {
            weather: WeatherModel::new(config.initial_weather, config.weather_change_prob),
            terrain: Terrain::flat(1.0, 1.0),
            stand: TreeStand::from_trees(Vec::new(), 1.0),
            humans: Vec::new(),
            human_grid: EntityGrid::new(),
            now: SimTime::ZERO,
            last_weather_step: SimTime::ZERO,
            rng_humans: rng.fork("humans"),
            rng_weather: rng.fork("weather"),
            config: config.clone(),
        };
        world.regenerate(config, &rng);
        world
    }

    /// Regenerates this world in place from `config` and `rng`, reusing
    /// the terrain grid, tree stand and human list allocations. Fork
    /// labels and RNG draw order match [`World::generate`] exactly, so a
    /// regenerated world is indistinguishable from a freshly generated
    /// one for the same `(config, seed)` — this is the episode-reset
    /// fast path.
    pub fn regenerate(&mut self, config: &WorldConfig, rng: &SimRng) {
        let mut rng_terrain = rng.fork("terrain");
        let mut rng_stand = rng.fork("stand");
        let mut rng_spawn = rng.fork("human-spawn");
        self.rng_humans = rng.fork("humans");
        self.rng_weather = rng.fork("weather");

        self.terrain.regenerate(&config.terrain, &mut rng_terrain);
        self.stand
            .regenerate(&config.stand, config.terrain.size_m, &mut rng_stand);
        // Clear the landing area and the work-area machine pocket.
        self.stand.clear_disc(config.landing_area, 25.0);
        self.stand.clear_disc(config.work_area, 12.0);

        self.humans.clear();
        self.humans.extend((0..config.human_count).map(|i| {
            let pos = Vec2::new(
                rng_spawn.uniform_range(0.0, config.terrain.size_m),
                rng_spawn.uniform_range(0.0, config.terrain.size_m),
            );
            Human::new(HumanId(i), pos, config.human)
        }));
        self.human_grid.rebuild(
            config.terrain.size_m,
            self.humans.iter().map(|h| h.position),
        );

        self.weather = WeatherModel::new(config.initial_weather, config.weather_change_prob);
        self.now = SimTime::ZERO;
        self.last_weather_step = SimTime::ZERO;
        self.config.clone_from(config);
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The terrain.
    #[must_use]
    pub fn terrain(&self) -> &Terrain {
        &self.terrain
    }

    /// The tree stand.
    #[must_use]
    pub fn stand(&self) -> &TreeStand {
        &self.stand
    }

    /// Current weather.
    #[must_use]
    pub fn weather(&self) -> Weather {
        self.weather.current()
    }

    /// The ground workers.
    #[must_use]
    pub fn humans(&self) -> &[Human] {
        &self.humans
    }

    /// The spatial index over the ground workers, kept in sync with
    /// their positions by [`World::step`]. Range queries return a
    /// conservative, index-sorted candidate superset — see
    /// [`EntityGrid::fill_candidates`] for the equivalence contract.
    #[must_use]
    pub fn human_grid(&self) -> &EntityGrid {
        &self.human_grid
    }

    /// The scenario configuration.
    #[must_use]
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Ground altitude at `p` (convenience passthrough).
    #[must_use]
    pub fn ground_at(&self, p: Vec2) -> f64 {
        self.terrain.height_at(p)
    }

    /// A human's torso position in 3-D.
    #[must_use]
    pub fn human_target_point(&self, human: &Human) -> Vec3 {
        human
            .position
            .with_z(self.terrain.height_at(human.position) + human.torso_height_m)
    }

    /// Casts a sight line through this world's terrain and trees.
    #[must_use]
    pub fn visibility(&self, from: Vec3, to: Vec3) -> Visibility {
        los::line_of_sight(&self.terrain, &self.stand, from, to)
    }

    /// Advances the world by `dt`: moves workers, evolves weather
    /// (per simulated minute).
    pub fn step(&mut self, dt: SimDuration) {
        self.now += dt;
        let size = self.config.terrain.size_m;
        let work_area = self.config.work_area;
        for (i, human) in self.humans.iter_mut().enumerate() {
            human.step(dt, size, work_area, &mut self.rng_humans);
            self.human_grid.update(i, human.position);
        }
        while self.now.since(self.last_weather_step) >= SimDuration::from_secs(60) {
            self.last_weather_step += SimDuration::from_secs(60);
            self.weather.step(&mut self.rng_weather);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> WorldConfig {
        WorldConfig {
            terrain: TerrainConfig {
                size_m: 200.0,
                ..TerrainConfig::default()
            },
            human_count: 2,
            work_area: Vec2::new(150.0, 150.0),
            landing_area: Vec2::new(40.0, 40.0),
            ..WorldConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(&small_config(), SimRng::from_seed(1));
        let b = World::generate(&small_config(), SimRng::from_seed(1));
        assert_eq!(a.stand().len(), b.stand().len());
        assert_eq!(a.humans()[0].position, b.humans()[0].position);
        assert_eq!(
            a.terrain().height_at(Vec2::new(100.0, 100.0)),
            b.terrain().height_at(Vec2::new(100.0, 100.0))
        );
    }

    #[test]
    fn stepping_is_deterministic() {
        let run = |seed| {
            let mut w = World::generate(&small_config(), SimRng::from_seed(seed));
            for _ in 0..200 {
                w.step(SimDuration::from_millis(500));
            }
            (w.humans()[0].position, w.humans()[1].position, w.weather())
        };
        assert_eq!(run(2), run(2));
    }

    #[test]
    fn landing_area_is_cleared() {
        let w = World::generate(&small_config(), SimRng::from_seed(3));
        for tree in w.stand().trees() {
            assert!(tree.position.distance(Vec2::new(40.0, 40.0)) > 25.0);
        }
    }

    #[test]
    fn time_advances() {
        let mut w = World::generate(&small_config(), SimRng::from_seed(4));
        assert_eq!(w.now(), SimTime::ZERO);
        w.step(SimDuration::from_secs(2));
        w.step(SimDuration::from_millis(500));
        assert_eq!(w.now(), SimTime::from_millis(2500));
    }

    #[test]
    fn weather_changes_over_time() {
        let mut config = small_config();
        config.weather_change_prob = 1.0;
        let mut w = World::generate(&config, SimRng::from_seed(5));
        let initial = w.weather();
        let mut changed = false;
        for _ in 0..60 {
            w.step(SimDuration::from_secs(60));
            if w.weather() != initial {
                changed = true;
                break;
            }
        }
        assert!(changed, "weather never changed with p = 1.0 per minute");
    }

    #[test]
    fn human_target_point_is_above_ground() {
        let w = World::generate(&small_config(), SimRng::from_seed(6));
        let human = &w.humans()[0];
        let p = w.human_target_point(human);
        assert!(p.z > w.ground_at(human.position));
    }

    #[test]
    fn human_grid_stays_in_sync_while_stepping() {
        let mut w = World::generate(&small_config(), SimRng::from_seed(8));
        let mut cands = Vec::new();
        for _ in 0..300 {
            w.step(SimDuration::from_millis(500));
            w.human_grid()
                .fill_candidates(Vec2::new(100.0, 100.0), 1e6, &mut cands);
            assert_eq!(cands, (0..w.humans().len() as u32).collect::<Vec<_>>());
            let center = w.humans()[0].position;
            w.human_grid().fill_candidates(center, 30.0, &mut cands);
            for (i, h) in w.humans().iter().enumerate() {
                if h.position.distance(center) <= 30.0 {
                    assert!(cands.binary_search(&(i as u32)).is_ok());
                }
            }
        }
    }

    #[test]
    fn visibility_passthrough_consistent() {
        let w = World::generate(&small_config(), SimRng::from_seed(7));
        let from = Vec3::new(10.0, 10.0, w.ground_at(Vec2::new(10.0, 10.0)) + 3.0);
        let human = &w.humans()[0];
        let to = w.human_target_point(human);
        let v1 = w.visibility(from, to);
        let v2 = w.visibility(from, to);
        assert_eq!(v1, v2);
    }
}
