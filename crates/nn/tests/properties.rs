//! Property-based tests on loss, pruning and convolution invariants.

use proptest::prelude::*;
use solo_nn::{loss, prune, Conv2d, Layer};
use solo_tensor::{col2im, exec, im2col, normal, seeded_rng, Im2ColSpec, Tensor};

proptest! {
    /// Sweeps kernel size, stride, padding, dilation and ragged channel
    /// counts, asserting `Conv2d`'s forward and backward are bit-identical
    /// to the materialized im2col + `matmul_reference` yardstick at pool
    /// widths 1 and 8. Shapes straddle [`solo_tensor::BLOCKED_MIN_MULADDS`],
    /// so both the implicit-GEMM path and the small-shape fallback are
    /// exercised against the same yardstick.
    #[test]
    fn conv_matches_materialized_reference_at_any_width(
        in_c in 1usize..4,
        out_c in 1usize..9,
        kernel in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..3,
        dilation in 1usize..3,
        h in 5usize..13,
        w in 5usize..13,
        seed in 0u64..(1 << 32),
    ) {
        let spec = Im2ColSpec {
            channels: in_c,
            height: h,
            width: w,
            kernel,
            stride,
            padding,
            dilation,
        };
        let (oh, ow) = (spec.out_height(), spec.out_width());
        let x = normal(&mut seeded_rng(seed), &[in_c, h, w], 0.0, 1.0);
        let g = normal(&mut seeded_rng(seed ^ 2), &[out_c, oh, ow], 0.0, 1.0);

        // --- Materialized yardstick: im2col + reference GEMM + explicit
        // transposes, mirroring Conv2d's arithmetic structure exactly. ---
        let mut proto = Conv2d::with_options(
            &mut seeded_rng(seed ^ 1), in_c, out_c, kernel, stride, padding, dilation,
        );
        let (mut weight, mut bias) = (None, None);
        proto.visit_params(&mut |p| {
            if p.value().shape().ndim() == 2 {
                weight = Some(p.value().clone());
            } else {
                bias = Some(p.value().clone());
            }
        });
        let weight = weight.expect("conv exposes a 2-D weight param");
        let bias = bias.expect("conv exposes a 1-D bias param");
        let cols = im2col(&x, &spec);
        let l = oh * ow;
        let mut y_ref = weight.matmul_reference(&cols);
        for (oc, &bv) in bias.as_slice().iter().enumerate() {
            for v in &mut y_ref.as_mut_slice()[oc * l..(oc + 1) * l] {
                *v += bv;
            }
        }
        let g2 = g.reshape(&[out_c, l]);
        let dw_ref = g2.matmul_reference(&cols.transpose());
        // Grads land via Param::accumulate (zeros + 1.0·dw), so accumulate
        // the yardstick identically before comparing bits.
        let mut dw_acc = Tensor::zeros(&[out_c, spec.patch_rows()]);
        dw_acc.add_scaled_inplace(&dw_ref, 1.0);
        let mut db = Tensor::zeros(&[out_c]);
        for (oc, acc) in db.as_mut_slice().iter_mut().enumerate() {
            *acc = g2.as_slice()[oc * l..(oc + 1) * l].iter().sum();
        }
        let mut db_acc = Tensor::zeros(&[out_c]);
        db_acc.add_scaled_inplace(&db, 1.0);
        let dcols = weight.transpose().matmul_reference(&g2);
        let dx_ref = col2im(&dcols, &spec);

        // --- Conv2d under each pool width, rebuilt fresh so grads start
        // from zero both times. ---
        for threads in [1usize, 8] {
            let (y, dx, dw, dbv) = exec::with_threads(threads, &|| {
                let mut conv = Conv2d::with_options(
                    &mut seeded_rng(seed ^ 1), in_c, out_c, kernel, stride, padding, dilation,
                );
                let y = conv.forward(&x);
                let dx = conv.backward(&g);
                let (mut dw, mut dbv) = (Vec::new(), Vec::new());
                conv.visit_params(&mut |p| {
                    if p.value().shape().ndim() == 2 {
                        dw = p.grad().as_slice().to_vec();
                    } else {
                        dbv = p.grad().as_slice().to_vec();
                    }
                });
                (y.into_vec(), dx.into_vec(), dw, dbv)
            });
            prop_assert_eq!(&y, y_ref.as_slice(), "forward diverged at width {}", threads);
            prop_assert_eq!(&dx, dx_ref.as_slice(), "dx diverged at width {}", threads);
            prop_assert_eq!(&dw, dw_acc.as_slice(), "dW diverged at width {}", threads);
            prop_assert_eq!(&dbv, db_acc.as_slice(), "db diverged at width {}", threads);
        }
    }

    #[test]
    fn dice_loss_is_in_unit_range(
        p in proptest::collection::vec(0.0f32..1.0, 16),
        t in proptest::collection::vec(0.0f32..1.0, 16),
    ) {
        let pred = Tensor::from_vec(p, &[16]);
        let target = Tensor::from_vec(t.iter().map(|&v| (v > 0.5) as u8 as f32).collect(), &[16]);
        let (l, _) = loss::dice(&pred, &target);
        prop_assert!((0.0..=1.0).contains(&l), "dice {l}");
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero(
        logits in proptest::collection::vec(-5.0f32..5.0, 2..12),
        pick in 0usize..12,
    ) {
        let c = logits.len();
        let target = pick % c;
        let t = Tensor::from_vec(logits, &[c]);
        let (l, g) = loss::cross_entropy(&t, target);
        prop_assert!(l >= 0.0);
        prop_assert!(g.sum().abs() < 1e-4);
    }

    #[test]
    fn token_selection_is_sorted_unique_and_sized(
        importance in proptest::collection::vec(0.0f32..10.0, 1..64),
        keep in 0.01f32..1.0,
    ) {
        let kept = prune::select_tokens(&importance, keep);
        prop_assert!(kept.contains(&0), "CLS token must survive");
        prop_assert!(kept.len() <= importance.len());
        prop_assert!(kept.windows(2).all(|w| w[0] < w[1]), "sorted unique");
        let expected = ((importance.len() as f32 * keep).ceil() as usize)
            .clamp(1, importance.len());
        prop_assert_eq!(kept.len(), expected);
    }
}
