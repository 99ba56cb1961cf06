//! The SIMD micro-kernels: the AVX2 f32 kernel, and the AVX2 and AVX-512
//! VNNI i8 kernels, dispatched by the kernel tier [`level`] detects once.
//! `unsafe` is confined to this module (and the tile dispatch in
//! `packed.rs` that calls it): the `target_feature` call contract plus
//! unaligned loads/stores whose bounds are pinned by `chunks_exact`/array
//! types.
//!
//! **f32.** The vectorization is purely over the `NR` lane dimension: each
//! output element's accumulation chain is still the scalar chain (one mul,
//! one add per non-zero `p`, ascending `p`), just computed for eight `j`
//! lanes at once with `vmulps`/`vaddps`. No FMA is emitted — multiply and
//! add stay separate instructions with separate roundings — so the result
//! is bit-identical to the scalar micro-kernel, and the runtime dispatch
//! between the two can never change an output.
//!
//! **i8.** The kernels consume depth *pairs* so each `_mm256_madd_epi16`
//! retires two multiply-accumulates per i32 lane — the ~2× instruction-
//! density win over the f32 kernel. Per pair they:
//!
//! * load both p-major B depth rows in one 256-bit load and interleave
//!   them byte-wise in-register (`punpcklbw`/`punpckhbw`), then
//!   sign-extend each half to the `[b[p][j], b[p+1][j]]` i16-pair shape
//!   `madd` wants;
//! * load the A panel's 8-byte pair chunk once, sign-extend it to four
//!   i16 pairs (one dword per row), mirror the dwords into both 128-bit
//!   lanes (`vbroadcasti128`) and broadcast each row's dword with an
//!   immediate-operand `vpshufd` — no scalar packing and no index
//!   registers in the hot loop (all 16 ymm registers stay available for
//!   the 8 accumulators plus temporaries).
//!
//! Bit-identity with the scalar reference kernel holds by *exactness*,
//! not by chain-matching as in the f32 path: every product fits an
//! i16×i16 multiply, every pair sum fits an i32 (max 2·127² = 32258, so
//! `madd`'s only saturating case — both operands −32768 — is unreachable
//! from i8 inputs), and i32 addition is associative.
#![allow(unsafe_code)]

use super::{MR, NR};
use core::arch::x86_64::{
    __m128i, _mm256_add_epi32, _mm256_add_ps, _mm256_broadcastsi128_si256, _mm256_castsi256_si128,
    _mm256_cvtepi8_epi16, _mm256_dpwssd_epi32, _mm256_extracti128_si256, _mm256_loadu_ps,
    _mm256_loadu_si256, _mm256_madd_epi16, _mm256_mul_ps, _mm256_set1_ps, _mm256_shuffle_epi32,
    _mm256_storeu_ps, _mm256_storeu_si256, _mm_cvtepi8_epi16, _mm_loadl_epi64, _mm_unpackhi_epi8,
    _mm_unpacklo_epi8,
};

/// The kernel tier the host supports, detected once: 0 = scalar only,
/// 1 = AVX2 ([`microkernel`], [`microkernel_i8`]), 2 = AVX2 plus AVX-512
/// VNNI and VL ([`microkernel_i8_vnni`]; f32 stays on [`microkernel`]).
/// Every tier computes the same bits, so dispatch can never change an
/// output.
pub fn level() -> u8 {
    static LEVEL: std::sync::OnceLock<u8> = std::sync::OnceLock::new();
    *LEVEL.get_or_init(|| {
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        if avx2
            && std::arch::is_x86_feature_detected!("avx512vnni")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            2
        } else {
            u8::from(avx2)
        }
    })
}

/// AVX2 f32 micro-kernel; see the module docs for the bit-identity
/// argument.
///
/// # Safety
///
/// The caller must have verified [`level`] returns at least 1. The slice
/// geometry (`a_panel.len() == k·MR`, `b_panel.len() == k·NR`) is
/// enforced by `chunks_exact`, and every load/store is the unaligned
/// variant, so no further alignment or bounds contract is needed.
#[target_feature(enable = "avx2")]
pub unsafe fn microkernel(a_panel: &[f32], b_panel: &[f32], acc: &mut [[f32; NR]; MR]) {
    const { assert!(NR == 16, "AVX2 kernel assumes two 8-lane registers per row") };
    const { assert!(MR == 4, "AVX2 kernel unrolls exactly four rows") };
    let mut a0l = _mm256_loadu_ps(acc[0].as_ptr());
    let mut a0h = _mm256_loadu_ps(acc[0][8..].as_ptr());
    let mut a1l = _mm256_loadu_ps(acc[1].as_ptr());
    let mut a1h = _mm256_loadu_ps(acc[1][8..].as_ptr());
    let mut a2l = _mm256_loadu_ps(acc[2].as_ptr());
    let mut a2h = _mm256_loadu_ps(acc[2][8..].as_ptr());
    let mut a3l = _mm256_loadu_ps(acc[3].as_ptr());
    let mut a3h = _mm256_loadu_ps(acc[3][8..].as_ptr());
    for (ap, bp) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        let bl = _mm256_loadu_ps(bp.as_ptr());
        let bh = _mm256_loadu_ps(bp[8..].as_ptr());
        // Same `== 0.0` skip (and NaN semantics) as the scalar kernel.
        if ap[0] != 0.0 {
            let av = _mm256_set1_ps(ap[0]);
            a0l = _mm256_add_ps(a0l, _mm256_mul_ps(av, bl));
            a0h = _mm256_add_ps(a0h, _mm256_mul_ps(av, bh));
        }
        if ap[1] != 0.0 {
            let av = _mm256_set1_ps(ap[1]);
            a1l = _mm256_add_ps(a1l, _mm256_mul_ps(av, bl));
            a1h = _mm256_add_ps(a1h, _mm256_mul_ps(av, bh));
        }
        if ap[2] != 0.0 {
            let av = _mm256_set1_ps(ap[2]);
            a2l = _mm256_add_ps(a2l, _mm256_mul_ps(av, bl));
            a2h = _mm256_add_ps(a2h, _mm256_mul_ps(av, bh));
        }
        if ap[3] != 0.0 {
            let av = _mm256_set1_ps(ap[3]);
            a3l = _mm256_add_ps(a3l, _mm256_mul_ps(av, bl));
            a3h = _mm256_add_ps(a3h, _mm256_mul_ps(av, bh));
        }
    }
    _mm256_storeu_ps(acc[0].as_mut_ptr(), a0l);
    _mm256_storeu_ps(acc[0][8..].as_mut_ptr(), a0h);
    _mm256_storeu_ps(acc[1].as_mut_ptr(), a1l);
    _mm256_storeu_ps(acc[1][8..].as_mut_ptr(), a1h);
    _mm256_storeu_ps(acc[2].as_mut_ptr(), a2l);
    _mm256_storeu_ps(acc[2][8..].as_mut_ptr(), a2h);
    _mm256_storeu_ps(acc[3].as_mut_ptr(), a3l);
    _mm256_storeu_ps(acc[3][8..].as_mut_ptr(), a3h);
}

/// AVX2 i8 micro-kernel; see the module docs for the exactness argument.
///
/// # Safety
///
/// The caller must have verified [`level`] returns at least 1 (AVX2).
/// The slice geometry (`a_panel.len() == kp·MR`, `b_panel.len() == kp·NR`
/// with even `kp`) is enforced by `chunks_exact`
/// — in particular every A chunk holds exactly the 8 bytes the 64-bit
/// load reads — and every load/store is the unaligned variant, so no
/// further alignment or bounds contract is needed.
#[target_feature(enable = "avx2")]
pub unsafe fn microkernel_i8(a_panel: &[i8], b_panel: &[i8], acc: &mut [[i32; NR]; MR]) {
    const {
        assert!(
            NR == 16,
            "AVX2 i8 kernel assumes two 8-lane i32 registers per row"
        )
    };
    const { assert!(MR == 4, "AVX2 i8 kernel unrolls exactly four rows") };
    let mut a0l = _mm256_loadu_si256(acc[0].as_ptr().cast());
    let mut a0h = _mm256_loadu_si256(acc[0][8..].as_ptr().cast());
    let mut a1l = _mm256_loadu_si256(acc[1].as_ptr().cast());
    let mut a1h = _mm256_loadu_si256(acc[1][8..].as_ptr().cast());
    let mut a2l = _mm256_loadu_si256(acc[2].as_ptr().cast());
    let mut a2h = _mm256_loadu_si256(acc[2][8..].as_ptr().cast());
    let mut a3l = _mm256_loadu_si256(acc[3].as_ptr().cast());
    let mut a3h = _mm256_loadu_si256(acc[3][8..].as_ptr().cast());
    for (ap, bp) in a_panel
        .chunks_exact(2 * MR)
        .zip(b_panel.chunks_exact(2 * NR))
    {
        // Both p-major depth rows of the pair in one load, interleaved
        // byte-wise so lane j carries [b[p][j], b[p+1][j]].
        let b = _mm256_loadu_si256(bp.as_ptr().cast());
        let b0 = _mm256_castsi256_si128(b);
        let b1 = _mm256_extracti128_si256::<1>(b);
        let bl = _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(b0, b1));
        let bh = _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(b0, b1));
        // The A pair chunk: 8 i8 → 8 i16 (one dword per row), mirrored
        // into both lanes so an immediate vpshufd broadcasts row r's
        // dword to all 8 i32 lanes without holding index registers.
        let a8: __m128i = _mm_loadl_epi64(ap.as_ptr().cast());
        let a16 = _mm256_broadcastsi128_si256(_mm_cvtepi8_epi16(a8));
        let av = _mm256_shuffle_epi32::<0x00>(a16);
        a0l = _mm256_add_epi32(a0l, _mm256_madd_epi16(bl, av));
        a0h = _mm256_add_epi32(a0h, _mm256_madd_epi16(bh, av));
        let av = _mm256_shuffle_epi32::<0x55>(a16);
        a1l = _mm256_add_epi32(a1l, _mm256_madd_epi16(bl, av));
        a1h = _mm256_add_epi32(a1h, _mm256_madd_epi16(bh, av));
        let av = _mm256_shuffle_epi32::<0xAA>(a16);
        a2l = _mm256_add_epi32(a2l, _mm256_madd_epi16(bl, av));
        a2h = _mm256_add_epi32(a2h, _mm256_madd_epi16(bh, av));
        let av = _mm256_shuffle_epi32::<0xFF>(a16);
        a3l = _mm256_add_epi32(a3l, _mm256_madd_epi16(bl, av));
        a3h = _mm256_add_epi32(a3h, _mm256_madd_epi16(bh, av));
    }
    _mm256_storeu_si256(acc[0].as_mut_ptr().cast(), a0l);
    _mm256_storeu_si256(acc[0][8..].as_mut_ptr().cast(), a0h);
    _mm256_storeu_si256(acc[1].as_mut_ptr().cast(), a1l);
    _mm256_storeu_si256(acc[1][8..].as_mut_ptr().cast(), a1h);
    _mm256_storeu_si256(acc[2].as_mut_ptr().cast(), a2l);
    _mm256_storeu_si256(acc[2][8..].as_mut_ptr().cast(), a2h);
    _mm256_storeu_si256(acc[3].as_mut_ptr().cast(), a3l);
    _mm256_storeu_si256(acc[3][8..].as_mut_ptr().cast(), a3h);
}

/// VNNI i8 micro-kernel: identical panel walk to [`microkernel_i8`], but
/// each `madd` + `add` pair fuses into one `vpdpwssd`, halving the
/// vector-ALU µops per depth pair. `vpdpwssd` widens the i16 products to
/// i32 before accumulating, so it has no saturating case at all — the
/// accumulated integers are the same exact values as every other tier.
///
/// # Safety
///
/// The caller must have verified [`level`] returns 2 (AVX2 plus AVX-512
/// VNNI and VL).
/// The slice geometry contract is the same as [`microkernel_i8`].
#[target_feature(enable = "avx2,avx512vnni,avx512vl")]
pub unsafe fn microkernel_i8_vnni(a_panel: &[i8], b_panel: &[i8], acc: &mut [[i32; NR]; MR]) {
    const {
        assert!(
            NR == 16,
            "VNNI i8 kernel assumes two 8-lane i32 registers per row"
        )
    };
    const { assert!(MR == 4, "VNNI i8 kernel unrolls exactly four rows") };
    let mut a0l = _mm256_loadu_si256(acc[0].as_ptr().cast());
    let mut a0h = _mm256_loadu_si256(acc[0][8..].as_ptr().cast());
    let mut a1l = _mm256_loadu_si256(acc[1].as_ptr().cast());
    let mut a1h = _mm256_loadu_si256(acc[1][8..].as_ptr().cast());
    let mut a2l = _mm256_loadu_si256(acc[2].as_ptr().cast());
    let mut a2h = _mm256_loadu_si256(acc[2][8..].as_ptr().cast());
    let mut a3l = _mm256_loadu_si256(acc[3].as_ptr().cast());
    let mut a3h = _mm256_loadu_si256(acc[3][8..].as_ptr().cast());
    for (ap, bp) in a_panel
        .chunks_exact(2 * MR)
        .zip(b_panel.chunks_exact(2 * NR))
    {
        let b = _mm256_loadu_si256(bp.as_ptr().cast());
        let b0 = _mm256_castsi256_si128(b);
        let b1 = _mm256_extracti128_si256::<1>(b);
        let bl = _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(b0, b1));
        let bh = _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(b0, b1));
        let a8: __m128i = _mm_loadl_epi64(ap.as_ptr().cast());
        let a16 = _mm256_broadcastsi128_si256(_mm_cvtepi8_epi16(a8));
        let av = _mm256_shuffle_epi32::<0x00>(a16);
        a0l = _mm256_dpwssd_epi32(a0l, bl, av);
        a0h = _mm256_dpwssd_epi32(a0h, bh, av);
        let av = _mm256_shuffle_epi32::<0x55>(a16);
        a1l = _mm256_dpwssd_epi32(a1l, bl, av);
        a1h = _mm256_dpwssd_epi32(a1h, bh, av);
        let av = _mm256_shuffle_epi32::<0xAA>(a16);
        a2l = _mm256_dpwssd_epi32(a2l, bl, av);
        a2h = _mm256_dpwssd_epi32(a2h, bh, av);
        let av = _mm256_shuffle_epi32::<0xFF>(a16);
        a3l = _mm256_dpwssd_epi32(a3l, bl, av);
        a3h = _mm256_dpwssd_epi32(a3h, bh, av);
    }
    _mm256_storeu_si256(acc[0].as_mut_ptr().cast(), a0l);
    _mm256_storeu_si256(acc[0][8..].as_mut_ptr().cast(), a0h);
    _mm256_storeu_si256(acc[1].as_mut_ptr().cast(), a1l);
    _mm256_storeu_si256(acc[1][8..].as_mut_ptr().cast(), a1h);
    _mm256_storeu_si256(acc[2].as_mut_ptr().cast(), a2l);
    _mm256_storeu_si256(acc[2][8..].as_mut_ptr().cast(), a2h);
    _mm256_storeu_si256(acc[3].as_mut_ptr().cast(), a3l);
    _mm256_storeu_si256(acc[3][8..].as_mut_ptr().cast(), a3h);
}
