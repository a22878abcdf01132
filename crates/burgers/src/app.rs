//! The Burgers model problem as a runtime [`Application`].

use sw_athread::{CpeTileKernel, TileCostModel};
use sw_math::exp::ExpKind;

use uintah_core::grid::{iv, Level, Region};
use uintah_core::task::Application;
use uintah_core::var::CcVar;

use crate::kernel::{BurgersCost, BurgersScalarKernel, Geometry};
use crate::kernel_simd::BurgersSimdKernel;
use crate::phi::{exact_u, exact_u_flops, phi};

/// The 3-D Burgers model fluid-flow problem (paper §III), ready to run on
/// the `uintah-core` schedulers.
///
/// The exact-solution fills (`init`, `fill_boundary`) exploit separability:
/// phi is evaluated once per axis coordinate of the region, and each cell
/// is the product of three of those values, bit-identical to a per-cell
/// [`exact_u`]. The tile kernels deliberately do not hoist: they evaluate
/// phi per cell, as the paper's Algorithms 1 and 2 do, so their flop and
/// exp counts are the paper's.
pub struct BurgersApp {
    geom: Geometry,
    exp: ExpKind,
    cost: BurgersCost,
    scalar: BurgersScalarKernel,
    simd: BurgersSimdKernel,
    /// CFL safety factor for the forward-Euler stable timestep.
    pub cfl: f64,
}

impl BurgersApp {
    /// Build for a level's spacing and physical origin with the given exp
    /// library.
    pub fn new(level: &Level, exp: ExpKind) -> Self {
        let (dx, dy, dz) = level.spacing();
        let geom = Geometry::with_origin(dx, dy, dz, level.phys_lo());
        BurgersApp {
            geom,
            exp,
            cost: BurgersCost { exp },
            scalar: BurgersScalarKernel { geom, exp },
            simd: BurgersSimdKernel { geom, exp },
            cfl: 0.4,
        }
    }

    /// The geometry in use.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// Exact solution at a cell centroid at time `t`.
    pub fn exact_at(&self, level: &Level, c: uintah_core::IntVec, t: f64) -> f64 {
        let (x, y, z) = level.cell_center(c);
        exact_u(x, y, z, t, self.exp)
    }

    /// Write the exact solution at time `t` over `region` of `var`.
    ///
    /// `u = phi(x) phi(y) phi(z)` is separable, so phi is evaluated once
    /// per axis coordinate and each cell is the product
    /// `(px[i] * py[j]) * pz[k]` — the association [`exact_u`] uses, so
    /// every value is bit-identical to a per-cell `exact_u` call.
    fn fill_exact(&self, level: &Level, region: &Region, var: &mut CcVar, t: f64) {
        if region.is_empty() {
            return;
        }
        let (lo, hi) = (region.lo, region.hi);
        let phi_at = |x: f64| phi(x, t, self.exp);
        let px: Vec<f64> = (lo.x..hi.x)
            .map(|x| phi_at(level.cell_center(iv(x, lo.y, lo.z)).0))
            .collect();
        let py: Vec<f64> = (lo.y..hi.y)
            .map(|y| phi_at(level.cell_center(iv(lo.x, y, lo.z)).1))
            .collect();
        let pz: Vec<f64> = (lo.z..hi.z)
            .map(|z| phi_at(level.cell_center(iv(lo.x, lo.y, z)).2))
            .collect();
        for (z, &fz) in (lo.z..hi.z).zip(&pz) {
            for (y, &fy) in (lo.y..hi.y).zip(&py) {
                let start = var.index(iv(lo.x, y, z));
                let row = &mut var.data_mut()[start..start + px.len()];
                for (u, &fx) in row.iter_mut().zip(&px) {
                    *u = (fx * fy) * fz;
                }
            }
        }
    }
}

impl Application for BurgersApp {
    fn name(&self) -> &str {
        "burgers3d"
    }

    fn ghost(&self) -> i64 {
        1
    }

    fn cost(&self) -> &dyn TileCostModel {
        &self.cost
    }

    fn kernel(&self, simd: bool) -> &dyn CpeTileKernel {
        if simd {
            &self.simd
        } else {
            &self.scalar
        }
    }

    fn bc_flops_per_cell(&self) -> u64 {
        exact_u_flops(self.exp)
    }

    /// Forward-Euler stability: advective CFL (|phi| <= 1) plus the
    /// diffusion limit.
    fn stable_dt(&self, _level: &Level) -> f64 {
        let g = &self.geom;
        let adv = g.inv_dx + g.inv_dy + g.inv_dz; // max |phi| = 1
        let diff = 2.0 * crate::phi::NU * (g.inv_dx2 + g.inv_dy2 + g.inv_dz2);
        self.cfl / (adv + diff)
    }

    fn init(&self, level: &Level, region: &Region, var: &mut CcVar) {
        self.fill_exact(level, region, var, 0.0);
    }

    fn fill_boundary(&self, level: &Level, region: &Region, var: &mut CcVar, t: f64) {
        self.fill_exact(level, region, var, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level() -> Level {
        Level::new(iv(8, 8, 8), iv(2, 2, 2))
    }

    #[test]
    fn stable_dt_is_positive_and_small() {
        let l = level();
        let app = BurgersApp::new(&l, ExpKind::Fast);
        let dt = app.stable_dt(&l);
        // dx = 1/16: adv = 48, diff = 2*0.01*3*256 = 15.36 -> dt ~ 0.0063.
        assert!(dt > 0.0 && dt < 0.01, "{dt}");
        let expect = 0.4 / (48.0 + 15.36);
        assert!((dt - expect).abs() < 1e-12);
    }

    #[test]
    fn init_matches_exact_at_zero() {
        let l = level();
        let app = BurgersApp::new(&l, ExpKind::Fast);
        let region = l.patch(0).region;
        let mut var = CcVar::new(region);
        app.init(&l, &region, &mut var);
        for c in [iv(0, 0, 0), iv(7, 3, 5)] {
            assert_eq!(var.get(c), app.exact_at(&l, c, 0.0));
        }
    }

    #[test]
    fn boundary_fill_uses_current_time() {
        let l = level();
        let app = BurgersApp::new(&l, ExpKind::Fast);
        let ghost = l.patch(0).region.face_ghost(
            uintah_core::grid::region::Face {
                axis: 0,
                high: false,
            },
            1,
        );
        let mut var = CcVar::new(l.patch(0).region.grow(1));
        app.fill_boundary(&l, &ghost, &mut var, 0.07);
        let c = iv(-1, 2, 3);
        assert_eq!(var.get(c), app.exact_at(&l, c, 0.07));
        assert_ne!(var.get(c), app.exact_at(&l, c, 0.0));
    }

    /// Fill `region` of a variable over `var_region` and check every cell
    /// bit-for-bit against `exact_at`, and every other cell untouched.
    fn assert_fill_is_exact(l: &Level, var_region: Region, region: Region, t: f64) {
        let app = BurgersApp::new(l, ExpKind::Fast);
        let mut var = CcVar::new(var_region);
        if t == 0.0 {
            app.init(l, &region, &mut var);
        } else {
            app.fill_boundary(l, &region, &mut var, t);
        }
        for c in var_region.iter() {
            let want = if region.contains(c) {
                app.exact_at(l, c, t)
            } else {
                0.0
            };
            assert_eq!(var.get(c).to_bits(), want.to_bits(), "cell {c} t={t}");
        }
    }

    #[test]
    fn separable_fills_match_exact_u_bit_for_bit() {
        let l = level();
        let ghosted = l.patch(0).region.grow(1);
        // Ghosted region with negative lows, at t = 0 and t > 0.
        assert_fill_is_exact(&l, ghosted, ghosted, 0.0);
        assert_fill_is_exact(&l, ghosted, ghosted, 0.037);
        // A face slab inside a larger variable.
        let slab = Region::new(iv(-1, -1, 2), iv(0, 9, 6));
        assert_fill_is_exact(&l, ghosted, slab, 0.11);
        // An empty region writes nothing.
        assert_fill_is_exact(&l, ghosted, Region::new(iv(2, 2, 2), iv(2, 5, 5)), 0.02);
        // An offset-origin level (an AMR fine level's refined sub-box).
        let fine = Level::with_domain(
            iv(6, 4, 5),
            iv(1, 2, 1),
            [0.25, 0.5, 0.125],
            [0.5, 0.75, 0.375],
        );
        let r = fine.patch(1).region.grow(1);
        assert_fill_is_exact(&fine, r, r, 0.0);
        assert_fill_is_exact(&fine, r, r, 0.05);
    }

    #[test]
    fn bc_flops_are_an_exact_solution_evaluation() {
        let l = level();
        let app = BurgersApp::new(&l, ExpKind::Fast);
        assert_eq!(app.bc_flops_per_cell(), exact_u_flops(ExpKind::Fast));
        assert_eq!(app.bc_flops_per_cell(), 278);
    }
}
