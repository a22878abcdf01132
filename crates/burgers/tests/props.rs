//! Property tests of the Burgers model problem: phi's analytic properties,
//! flop-count uniformity, scalar/SIMD kernel bit-equivalence on random
//! data, and bit-exact separable exact-solution fills.

use proptest::prelude::*;
use sw_athread::{assign_tiles, run_patch_functional, tiles_of, Field3, Field3Mut};
use sw_math::counted::{flops_counted, Cf64};
use sw_math::ExpKind;

use burgers::kernel::{BurgersScalarKernel, Geometry};
use burgers::kernel_simd::BurgersSimdKernel;
use burgers::phi::{exact_u, phi, phi_flops, phi_reference};
use burgers::BurgersApp;
use uintah_core::{iv, Application, CcVar, Level, Region};

proptest! {
    /// phi equals its direct (3-exponential) definition across the domain
    /// and time range of the simulations, including ghost coordinates.
    #[test]
    fn phi_matches_reference(x in -0.2f64..1.2, t in 0.0f64..0.2) {
        let got = phi(x, t, ExpKind::Fast);
        let want = phi_reference(x, t);
        prop_assert!(((got - want) / want).abs() < 1e-11, "phi({x},{t}): {got} vs {want}");
    }

    /// phi is bounded by its wave values and decreasing in x (the three-wave
    /// profile steps down from 1 to 0.1 as x crosses the fronts).
    #[test]
    fn phi_bounded_and_monotone(x in -0.2f64..1.15, t in 0.0f64..0.1) {
        let v = phi(x, t, ExpKind::Fast);
        prop_assert!((0.1..=1.0).contains(&v));
        let v2 = phi(x + 0.05, t, ExpKind::Fast);
        prop_assert!(v2 <= v + 1e-12, "phi increasing at x={x}: {v} -> {v2}");
    }

    /// Every evaluation costs exactly the same number of flops, regardless
    /// of which exponent dominates — the counters the paper reads are
    /// data-independent.
    #[test]
    fn phi_flop_count_is_uniform(x in -0.3f64..1.3, t in 0.0f64..0.2) {
        let (_, n) = flops_counted(|| phi(Cf64::new(x), Cf64::new(t), ExpKind::Fast));
        prop_assert_eq!(n, phi_flops(ExpKind::Fast));
    }

    /// The exact solution factorizes and lies in the product-range.
    #[test]
    fn exact_solution_bounds(
        x in 0.0f64..1.0, y in 0.0f64..1.0, z in 0.0f64..1.0, t in 0.0f64..0.1
    ) {
        let u = exact_u(x, y, z, t, ExpKind::Fast);
        prop_assert!((0.001..=1.0).contains(&u), "u = {u}");
    }

    /// The hand-vectorized kernel is bit-identical to the scalar kernel on
    /// random tiles and random data — the determinism invariant behind the
    /// runtime's cross-variant tests.
    #[test]
    fn simd_kernel_bit_matches_scalar(
        nx in 1usize..13, ny in 1usize..5, nz in 1usize..5,
        seed in 0u64..500,
        t in 0.0f64..0.05,
    ) {
        let patch = (nx, ny, nz);
        let gdims = (nx + 2, ny + 2, nz + 2);
        let input: Vec<f64> = (0..gdims.0 * gdims.1 * gdims.2)
            .map(|i| {
                let h = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
                0.001 + (h % 1000) as f64 / 1001.0
            })
            .collect();
        let geom = Geometry::new(1.0 / 64.0, 1.0 / 64.0, 1.0 / 128.0);
        let params = [t, 1e-5];
        let tiles = tiles_of(patch, (4, 2, 2));
        let assignment = assign_tiles(&tiles, 3);
        let run = |kernel: &dyn sw_athread::CpeTileKernel| -> Vec<f64> {
            let mut out = vec![0.0; nx * ny * nz];
            run_patch_functional(
                kernel,
                Field3 { data: &input, dims: gdims },
                &mut Field3Mut { data: &mut out, dims: patch },
                (5, 7, 9),
                &assignment,
                usize::MAX,
                &params,
            )
            .unwrap();
            out
        };
        let scalar = run(&BurgersScalarKernel { geom, exp: ExpKind::Fast });
        let simd = run(&BurgersSimdKernel { geom, exp: ExpKind::Fast });
        for (i, (a, b)) in scalar.iter().zip(&simd).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "cell {} differs: {} vs {}", i, a, b);
        }
    }

    /// The separable `init`/`fill_boundary` write exactly `exact_at` on
    /// every cell of a random sub-box of a ghosted patch (negative lows
    /// included, possibly empty) of a level with a random physical origin,
    /// at random times, and leave the rest of the variable untouched.
    #[test]
    fn separable_fills_are_bit_exact(
        lo in (-1i64..4, -1i64..4, -1i64..4),
        ext in (0i64..5, 0i64..5, 0i64..5),
        origin in (-0.5f64..0.5, 0.0f64..0.9, 0.1f64..0.7),
        t in 0.0f64..0.2,
        at_init in 0u8..2,
    ) {
        let phys_lo = [origin.0, origin.1, origin.2];
        let phys_hi = [origin.0 + 0.5, origin.1 + 0.25, origin.2 + 0.75];
        let level = Level::with_domain(iv(4, 4, 4), iv(2, 1, 2), phys_lo, phys_hi);
        let app = BurgersApp::new(&level, ExpKind::Fast);
        let ghosted = level.patch(0).region.grow(1);
        let lo = iv(lo.0, lo.1, lo.2);
        let region = ghosted.intersect(&Region::new(lo, lo + iv(ext.0, ext.1, ext.2)));
        let t = if at_init == 1 { 0.0 } else { t };
        let mut var = CcVar::new(ghosted);
        if at_init == 1 {
            app.init(&level, &region, &mut var);
        } else {
            app.fill_boundary(&level, &region, &mut var, t);
        }
        for c in ghosted.iter() {
            let want = if region.contains(c) { app.exact_at(&level, c, t) } else { 0.0 };
            prop_assert_eq!(var.get(c).to_bits(), want.to_bits(), "cell {} t={}", c, t);
        }
    }
}
