//! Seeded input generation. Everything here is harness work, done before
//! any timed phase: the program under test only ever receives the
//! finished fields.

use gridlab::{Dim3, Field3};
use nyxlite::fields::lognormal_density;
use nyxlite::grf::{field_from_modes, grf_modes};
use nyxlite::NyxConfig;

/// splitmix64 of `seed` salted with `salt`: independent per-tenant seeds
/// from the one benchmark seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// nyxlite baryon density at each redshift of a seed-locked run: the same
/// structures at growing contrast, bit-identical to
/// `NyxConfig::new(n, seed).generate(z).baryon_density` but sharing one
/// inverse FFT across the series.
pub fn nyx_density_series(n: usize, seed: u64, redshifts: &[f64]) -> Vec<Field3<f32>> {
    let cfg = NyxConfig::new(n, seed);
    let dims = Dim3::cube(n);
    let delta_hat = field_from_modes(dims, &grf_modes(dims, &cfg.spectrum, cfg.seed));
    redshifts
        .iter()
        .map(|&z| {
            let sigma = cfg.params.bias_b * cfg.sigma_at(z);
            lognormal_density(&delta_hat, cfg.params.rho_b_mean, sigma).cast()
        })
        .collect()
}

/// The drifting field families of the open-loop workload, built from the
/// seeded `scenarios` generators (not `scenario_matrix`, whose seeds are
/// fixed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// A shock front sweeping the volume: localised drift every step.
    MovingShock,
    /// Calm smooth field, then a ×40 regime with new modes.
    RegimeShift,
    /// Particle deposits whose count doubles each step (infall).
    ShotNoiseInfall,
    /// Nested refinement patches that regrid half-way through the pool.
    AmrRegrid,
}

impl Family {
    pub const ALL: [Family; 4] =
        [Family::MovingShock, Family::RegimeShift, Family::ShotNoiseInfall, Family::AmrRegrid];

    pub fn name(self) -> &'static str {
        match self {
            Family::MovingShock => "moving_shock",
            Family::RegimeShift => "regime_shift",
            Family::ShotNoiseInfall => "shot_noise_infall",
            Family::AmrRegrid => "amr_regrid",
        }
    }

    /// Pool of `k` fields of this family for seed `seed`.
    pub fn pool(self, n: usize, seed: u64, k: usize) -> Vec<Field3<f32>> {
        let cells = n * n * n;
        (0..k)
            .map(|j| match self {
                Family::MovingShock => {
                    let pos = 0.15 + 0.7 * j as f64 / (k - 1).max(1) as f64;
                    scenarios::shock_front(n, seed, pos)
                }
                Family::RegimeShift if j < k / 2 => {
                    scenarios::smooth_grf(n, seed, 3.0 * (1.0 + 0.03 * j as f64))
                }
                Family::RegimeShift => scenarios::smooth_grf(n, seed ^ 0x4242, 120.0),
                Family::ShotNoiseInfall => {
                    scenarios::shot_noise(n, seed.wrapping_add(j as u64), (cells / 4) << j.min(5))
                }
                Family::AmrRegrid => scenarios::amr_nested(n, seed + (2 * j / k) as u64, 3),
            })
            .collect()
    }
}

/// Pool index of a tenant's `k`-th snapshot when the pool is walked back
/// and forth (no jump at the wrap): 0, 1, …, K−1, K−2, …, 1, 0, 1, …
pub fn ping_pong(k: usize, pool: usize) -> usize {
    if pool < 2 {
        return 0;
    }
    let period = 2 * (pool - 1);
    let m = k % period;
    if m < pool {
        m
    } else {
        period - m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_walks_back_and_forth() {
        let seq: Vec<usize> = (0..9).map(|k| ping_pong(k, 4)).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 2, 1, 0, 1, 2]);
        assert_eq!(ping_pong(5, 1), 0);
    }

    #[test]
    fn series_matches_the_snapshot_generator() {
        let direct = NyxConfig::new(8, 3).generate(50.0).baryon_density;
        let ours = nyx_density_series(8, 3, &[50.0]);
        assert_eq!(ours[0], direct);
    }

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        for f in Family::ALL {
            assert_eq!(f.pool(8, 5, 3), f.pool(8, 5, 3), "{}", f.name());
        }
        assert_ne!(mix(1, 0), mix(2, 0));
    }
}
