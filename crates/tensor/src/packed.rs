//! Panel packing for the blocked GEMM, and the packed-weight cache.
//!
//! The blocked kernel behind [`Tensor::matmul`] never walks the operand
//! matrices in their row-major layout. Instead both sides are repacked
//! into *panels* whose element order matches the micro-kernel's access
//! pattern exactly, so the hot loop reads nothing but forward-contiguous
//! memory:
//!
//! * the right-hand side `[k, n]` becomes `⌈n/NR⌉` **column panels**, each
//!   holding `k × NR` values p-major (`b[p][j0..j0+NR]` for ascending
//!   `p`), zero-padded in the last panel;
//! * the left-hand side `[m, k]` becomes `⌈m/MR⌉` **row panels**, each
//!   holding `k × MR` values p-major (`a[i0..i0+MR][p]` for ascending
//!   `p`), zero-padded in the last panel.
//!
//! The micro-kernel then keeps an `MR × NR` block of accumulators in
//! registers and streams both panels once, accumulating over the *entire*
//! `k` extent in ascending order. Because every output element's
//! floating-point accumulation chain is exactly the chain the naive
//! i-k-j kernel produces (same terms, same order, same zero-skip on the
//! left operand), the blocked kernel is bit-identical to the reference
//! kernel — and therefore to itself at any pool width, since row spans
//! only change *which worker* owns a chain, never the chain itself.
//!
//! One engine serves the f32 GEMM and the int8 GEMM (i8×i8→i32, below):
//! the packers, the span walk, the pool dispatch, the batch layout and the
//! operand checks are generic over the private `Lane` trait, which carries
//! only what differs between the two element types — the panel depth, the
//! row-panel layout, the accumulator type, the dispatch work per output row,
//! the output's scratch tag and the `MR × NR` tile. The tile calls the
//! per-type micro-kernels: the scalar ones here, the AVX2 and AVX-512 VNNI
//! ones in `packed::simd`.
//!
//! [`PackedMatrix`] makes the packing reusable across calls: inference
//! constants (`Linear`/`Conv` weights, attention projections) are packed
//! once per parameter version through [`PackedCache`], which repacks only
//! when the owner reports a new version (invalidation-on-write).

use crate::{exec, Im2ColSpec, Tensor};

/// Register-tile rows of the micro-kernel (rows of A per panel).
pub const MR: usize = 4;

/// Register-tile columns of the micro-kernel (columns of B per panel).
pub const NR: usize = 16;

/// Which operand a [`PackedMatrix`] was packed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanelKind {
    /// Left operand of a GEMM: row panels of `MR` rows, p-major.
    Lhs,
    /// Right operand of a GEMM: column panels of `NR` columns, p-major.
    Rhs,
}

/// What the f32 and the int8 GEMM do not share. Everything else is one
/// body generic over this trait.
pub(crate) trait Lane: Copy + Default + Send + Sync + 'static {
    /// The tile accumulator: `f32` for f32, the exact `i32` for i8.
    type Acc: Copy + Send;

    /// The scratch-pool tag of the product's f32 output tensor.
    const OUT_SITE: &'static str;

    /// The panel depth that holds logical depth `k`.
    fn panel_depth(k: usize) -> usize;

    /// Offset of `a[r][p]` within a row panel.
    fn lhs_offset(p: usize, r: usize) -> usize;

    /// Pool dispatch work per output row of an `n`-wide product at depth
    /// `k` (what the pool weighs against its serial threshold).
    fn row_work(k: usize, n: usize) -> usize;

    /// One `MR × NR` tile: the full-depth product of a row panel and a
    /// column panel, computed by the micro-kernel of `tier` (0 = scalar;
    /// see `simd::level`). A tier above the host's runs the host's.
    fn tile(a_panel: &[Self], b_panel: &[Self], tier: u8) -> [[Self::Acc; NR]; MR];
}

#[cfg(target_arch = "x86_64")]
mod simd;

/// Off x86-64 there are no SIMD micro-kernels.
#[cfg(not(target_arch = "x86_64"))]
mod simd {
    /// The kernel tier: the scalar micro-kernels only.
    pub fn level() -> u8 {
        0
    }
}

impl Lane for f32 {
    type Acc = f32;
    const OUT_SITE: &'static str = "gemm.out";

    fn panel_depth(k: usize) -> usize {
        k
    }

    /// p-major: the `MR` rows at depth `p` sit side by side.
    fn lhs_offset(p: usize, r: usize) -> usize {
        p * MR + r
    }

    fn row_work(k: usize, n: usize) -> usize {
        2 * k * n
    }

    #[inline]
    fn tile(a_panel: &[f32], b_panel: &[f32], tier: u8) -> [[f32; NR]; MR] {
        let mut acc = [[0.0f32; NR]; MR];
        #[cfg(target_arch = "x86_64")]
        if tier.min(simd::level()) >= 1 {
            // SAFETY: a tier ≥ 1 within `simd::level()` witnessed AVX2; the panel
            // slices carry exactly k·MR / k·NR elements by construction.
            #[allow(unsafe_code)]
            unsafe {
                simd::microkernel(a_panel, b_panel, &mut acc)
            };
            return acc;
        }
        let _ = tier;
        microkernel(a_panel, b_panel, &mut acc);
        acc
    }
}

impl Lane for i8 {
    type Acc = i32;
    const OUT_SITE: &'static str = "qgemm.out";

    fn panel_depth(k: usize) -> usize {
        kpad(k)
    }

    /// Pair-interleaved: per depth pair, `[a[r][2pp], a[r][2pp+1]]` for
    /// ascending `r`.
    fn lhs_offset(p: usize, r: usize) -> usize {
        (p / 2) * (2 * MR) + 2 * r + (p & 1)
    }

    fn row_work(k: usize, n: usize) -> usize {
        k * n
    }

    #[inline]
    fn tile(a_panel: &[i8], b_panel: &[i8], tier: u8) -> [[i32; NR]; MR] {
        let mut acc = [[0i32; NR]; MR];
        #[cfg(target_arch = "x86_64")]
        match tier.min(simd::level()) {
            2 => {
                // SAFETY: tier 2 within `simd::level()` witnessed avx2, avx512vnni
                // and avx512vl; the panel slices carry exactly kp·MR / kp·NR
                // elements by construction and the kernel only uses
                // unaligned loads/stores.
                #[allow(unsafe_code)]
                unsafe {
                    simd::microkernel_i8_vnni(a_panel, b_panel, &mut acc)
                };
                return acc;
            }
            1 => {
                // SAFETY: tier 1 within `simd::level()` witnessed AVX2; same
                // panel-length argument as above.
                #[allow(unsafe_code)]
                unsafe {
                    simd::microkernel_i8(a_panel, b_panel, &mut acc)
                };
                return acc;
            }
            _ => {}
        }
        let _ = tier;
        microkernel_i8(a_panel, b_panel, &mut acc);
        acc
    }
}

/// Micro-kernel panels of one element type: the storage [`PackedMatrix`]
/// (f32) and [`QPackedMatrix`] (i8) each wrap.
#[derive(Debug, Clone, PartialEq)]
struct Panels<E> {
    data: Vec<E>,
    /// Logical row count of the packed matrix (`m` for Lhs, `k` for Rhs).
    rows: usize,
    /// Logical column count (`k` for Lhs, `n` for Rhs).
    cols: usize,
    kind: PanelKind,
}

/// Elements in the `kind` panels of a `rows × cols` matrix of `E`: whole
/// `MR`-row (Lhs) or `NR`-column (Rhs) panels, at least one, each
/// `E::panel_depth` deep. Owned panels and pooled scratch panels both
/// size by it.
pub(crate) fn panels_len<E: Lane>(kind: PanelKind, rows: usize, cols: usize) -> usize {
    match kind {
        PanelKind::Lhs => rows.div_ceil(MR).max(1) * E::panel_depth(cols) * MR,
        PanelKind::Rhs => cols.div_ceil(NR).max(1) * E::panel_depth(rows) * NR,
    }
}

impl<E: Lane> Panels<E> {
    /// Zeroed `kind` panels for a `rows × cols` matrix, ready for a packer.
    fn zeroed(kind: PanelKind, rows: usize, cols: usize) -> Self {
        let data = vec![E::default(); panels_len::<E>(kind, rows, cols)];
        Self {
            data,
            rows,
            cols,
            kind,
        }
    }

    /// Packs a row-major `[k, n]` right operand into column panels.
    fn rhs(src: &[E], k: usize, n: usize) -> Self {
        let mut p = Self::zeroed(PanelKind::Rhs, k, n);
        pack_rhs_into(&mut p.data, src, k, n);
        p
    }

    /// Packs the transpose of a row-major `[n, k]` matrix into column
    /// panels.
    fn rhs_transposed(src: &[E], n: usize, k: usize) -> Self {
        let mut p = Self::zeroed(PanelKind::Rhs, k, n);
        pack_rhs_transposed_into(&mut p.data, src, n, k);
        p
    }

    /// Packs a row-major `[m, k]` left operand into row panels.
    fn lhs(src: &[E], m: usize, k: usize) -> Self {
        let mut p = Self::zeroed(PanelKind::Lhs, m, k);
        pack_lhs_into(&mut p.data, src, m, k);
        p
    }

    /// Asserts the panels were packed as `kind`.
    fn assert_kind(&self, kind: PanelKind, op: &str) {
        assert_eq!(
            self.kind, kind,
            "{op} needs {kind:?} panels (got {:?})",
            self.kind
        );
    }

    /// The operand check for `lhs · packed`: `lhs` must be a rank-2
    /// `[m, k]` matrix meeting these `[k, n]` column panels. Returns `m`.
    fn lhs_rows(&self, lhs: &Tensor, op: &str) -> usize {
        self.assert_kind(PanelKind::Rhs, op);
        assert_eq!(lhs.shape().ndim(), 2, "{op} lhs must be rank-2");
        assert_eq!(
            lhs.shape().dim(1),
            self.rows,
            "{op} inner dimension mismatch: {} vs packed {}×{}",
            lhs.shape(),
            self.rows,
            self.cols
        );
        lhs.shape().dim(0)
    }

    /// The operand check for `packed · rhs`: `rhs` must be a rank-2
    /// `[k, n]` matrix meeting these `[m, k]` row panels. Returns `(k, n)`.
    fn rhs_dims(&self, rhs: &Tensor, op: &str) -> (usize, usize) {
        self.assert_kind(PanelKind::Lhs, op);
        assert_eq!(rhs.shape().ndim(), 2, "{op} rhs must be rank-2");
        let (k, n) = (rhs.shape().dim(0), rhs.shape().dim(1));
        assert_eq!(
            self.cols,
            k,
            "{op} inner dimension mismatch: packed {}×{} vs {}",
            self.rows,
            self.cols,
            rhs.shape()
        );
        (k, n)
    }

    /// The operand check for `packed · im2col(input, spec)`: `input` must
    /// be the `[C, H, W]` tensor `spec` describes, with `spec.patch_rows()`
    /// equal to the packed `k`. Returns `(k, n)` of the patch matrix.
    fn im2col_dims(&self, input: &Tensor, spec: &Im2ColSpec, op: &str) -> (usize, usize) {
        self.assert_kind(PanelKind::Lhs, op);
        assert_eq!(
            input.shape().dims(),
            &[spec.channels, spec.height, spec.width],
            "{op} input does not match spec"
        );
        let (k, n) = (spec.patch_rows(), spec.patch_cols());
        assert_eq!(
            self.cols, k,
            "{op} inner dimension mismatch: packed {}×{} vs {k} patch rows",
            self.rows, self.cols
        );
        (k, n)
    }

    /// The fused-batch layout of `lhs` against these column panels: member
    /// `i`'s rows start at row panel `offsets[i]` of the fused operand, so
    /// each member occupies exactly the row panels its solo pack would
    /// produce; `offsets[lhs.len()]` is the panel total.
    ///
    /// # Panics
    ///
    /// Panics if the panels are not Rhs panels, or any member is not
    /// rank-2 with inner dimension `self.rows`.
    fn batch_offsets(&self, lhs: &[&Tensor], op: &str) -> Vec<usize> {
        self.assert_kind(PanelKind::Rhs, op);
        let (mut offsets, mut total) = (vec![0], 0);
        for a in lhs {
            total += self.lhs_rows(a, op).div_ceil(MR);
            offsets.push(total);
        }
        offsets
    }
}

/// A matrix repacked into micro-kernel panels (see the module docs).
///
/// Packing preserves values exactly — it is a permutation plus zero
/// padding that the kernel never lets escape into the output — so a GEMM
/// over packed operands is bit-identical to the same GEMM packed on the
/// fly.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMatrix(Panels<f32>);

impl PackedMatrix {
    /// Packs a `[k, n]` right-hand operand into column panels.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not rank-2.
    pub fn pack_rhs(b: &Tensor) -> Self {
        assert_eq!(b.shape().ndim(), 2, "pack_rhs requires rank-2");
        let (k, n) = (b.shape().dim(0), b.shape().dim(1));
        Self(Panels::rhs(b.as_slice(), k, n))
    }

    /// Packs the *transpose* of an `[n, k]` matrix into column panels —
    /// equivalent to `pack_rhs(&w.transpose())` without materializing the
    /// transpose. This is the shape `Linear` wants: its weight is stored
    /// `[out, in]` but multiplies as `x · Wᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank-2.
    pub fn pack_rhs_transposed(w: &Tensor) -> Self {
        assert_eq!(w.shape().ndim(), 2, "pack_rhs_transposed requires rank-2");
        let (n, k) = (w.shape().dim(0), w.shape().dim(1));
        Self(Panels::rhs_transposed(w.as_slice(), n, k))
    }

    /// Packs an `[m, k]` left-hand operand into row panels.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not rank-2.
    pub fn pack_lhs(a: &Tensor) -> Self {
        assert_eq!(a.shape().ndim(), 2, "pack_lhs requires rank-2");
        let (m, k) = (a.shape().dim(0), a.shape().dim(1));
        Self(Panels::lhs(a.as_slice(), m, k))
    }

    /// Packs the *transpose* of a `[k, m]` matrix into row panels —
    /// equivalent to `pack_lhs(&w.transpose())` without materializing the
    /// transpose. This is the shape the convolution backward pass wants:
    /// `dcols = Wᵀ · g` with the `[outC, C·k·k]` weight as the constant
    /// left operand.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank-2.
    pub fn pack_lhs_transposed(w: &Tensor) -> Self {
        assert_eq!(w.shape().ndim(), 2, "pack_lhs_transposed requires rank-2");
        let (k, m) = (w.shape().dim(0), w.shape().dim(1));
        let mut p = Panels::zeroed(PanelKind::Lhs, m, k);
        pack_lhs_transposed_into(&mut p.data, w.as_slice(), k, m);
        Self(p)
    }

    /// Logical row count (`m` for Lhs panels, `k` for Rhs panels).
    pub fn rows(&self) -> usize {
        self.0.rows
    }

    /// Logical column count (`k` for Lhs panels, `n` for Rhs panels).
    pub fn cols(&self) -> usize {
        self.0.cols
    }

    /// Which GEMM operand the panels were laid out for.
    pub fn kind(&self) -> PanelKind {
        self.0.kind
    }

    /// The packed panel storage (p-major; see the module docs).
    pub(crate) fn panels(&self) -> &[f32] {
        &self.0.data
    }
}

/// A one-slot packed-weight cache keyed by a parameter version.
///
/// Owners (e.g. `solo-nn` layers) bump their version counter on every
/// mutable access to the parameter value; `get_or_pack` repacks only when
/// the version it sees differs from the one it cached — so inference-time
/// constants are packed once per training step instead of once per frame,
/// and a weight update can never be served from a stale packing.
///
/// The slot is generic over the packed representation: the f32 path caches
/// a [`PackedMatrix`] (the default), the quantized path a
/// [`QPackedMatrix`] whose per-channel scales requantize under exactly the
/// same version key.
#[derive(Debug, Clone)]
pub struct PackedCache<T = PackedMatrix> {
    slot: Option<(u64, T)>,
}

impl<T> Default for PackedCache<T> {
    fn default() -> Self {
        Self { slot: None }
    }
}

impl<T> PackedCache<T> {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached packing for `version`, invoking `pack` to build
    /// (or rebuild) it when the cache is empty or holds a different
    /// version.
    pub fn get_or_pack(&mut self, version: u64, pack: impl FnOnce() -> T) -> &T {
        if !matches!(&self.slot, Some((v, _)) if *v == version) {
            self.slot = Some((version, pack()));
        }
        match &self.slot {
            Some((_, p)) => p,
            // Unreachable: the slot was populated just above.
            None => unreachable!("PackedCache slot populated above"),
        }
    }

    /// Drops the cached packing (the next `get_or_pack` repacks).
    pub fn invalidate(&mut self) {
        self.slot = None;
    }

    /// The version of the packing currently held, if any. Exposed so tests
    /// can assert the repack-on-update contract.
    pub fn cached_version(&self) -> Option<u64> {
        self.slot.as_ref().map(|(v, _)| *v)
    }
}

/// A process-wide, thread-safe [`PackedCache`]: every serving session holds
/// a clone of one `SharedPackedCache`, so a weight matrix packs exactly
/// once per parameter *version* per process — never once per session.
///
/// The cached packing is handed out behind an [`Arc`](std::sync::Arc), so sessions keep
/// using the panels they fetched even while another session triggers a
/// repack for a newer version; the old panels drop when the last holder
/// releases them. [`SharedPackedCache::pack_count`] counts how many times
/// the pack closure actually ran, which is what the staleness tests pin:
/// a version bump repacks once, not once per session.
#[derive(Debug)]
pub struct SharedPackedCache<T = PackedMatrix> {
    inner: std::sync::Arc<std::sync::Mutex<SharedSlot<T>>>,
}

#[derive(Debug)]
struct SharedSlot<T> {
    cache: PackedCache<std::sync::Arc<T>>,
    packs: u64,
}

impl<T> Clone for SharedPackedCache<T> {
    fn clone(&self) -> Self {
        Self {
            inner: std::sync::Arc::clone(&self.inner),
        }
    }
}

impl<T> Default for SharedPackedCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SharedPackedCache<T> {
    /// An empty shared cache.
    pub fn new() -> Self {
        Self {
            inner: std::sync::Arc::new(std::sync::Mutex::new(SharedSlot {
                cache: PackedCache::new(),
                packs: 0,
            })),
        }
    }

    /// Returns the shared packing for `version`, invoking `pack` at most
    /// once per version change across every clone of this cache.
    pub fn get_or_pack(&self, version: u64, pack: impl FnOnce() -> T) -> std::sync::Arc<T> {
        let mut slot = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut packed = false;
        let panels = std::sync::Arc::clone(slot.cache.get_or_pack(version, || {
            packed = true;
            std::sync::Arc::new(pack())
        }));
        if packed {
            slot.packs += 1;
        }
        panels
    }

    /// Drops the cached packing (the next `get_or_pack` repacks).
    pub fn invalidate(&self) {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .cache
            .invalidate();
    }

    /// The version currently cached, if any.
    pub fn cached_version(&self) -> Option<u64> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .cache
            .cached_version()
    }

    /// How many times the pack closure has actually run — the number of
    /// repacks the whole process paid, across all clones.
    pub fn pack_count(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).packs
    }
}

/// Packs row-major `b` (`k × n`) into `⌈n/NR⌉` p-major column panels of
/// depth `E::panel_depth(k)`. `data` must be zeroed and sized
/// `⌈n/NR⌉·depth·NR` (padding lanes and depths stay zero).
pub(crate) fn pack_rhs_into<E: Lane>(data: &mut [E], src: &[E], k: usize, n: usize) {
    let panel_len = E::panel_depth(k) * NR;
    for jp in 0..n.div_ceil(NR) {
        let (j0, panel) = (jp * NR, &mut data[jp * panel_len..(jp + 1) * panel_len]);
        let width = NR.min(n - j0);
        for (p, dst) in panel.chunks_exact_mut(NR).take(k).enumerate() {
            dst[..width].copy_from_slice(&src[p * n + j0..p * n + j0 + width]);
        }
    }
}

/// Packs row-major `a` (`m × k`) into `⌈m/MR⌉` row panels laid out by
/// `E::lhs_offset`. `data` must be zeroed and sized `⌈m/MR⌉·depth·MR`.
fn pack_lhs_into<E: Lane>(data: &mut [E], src: &[E], m: usize, k: usize) {
    let panel_len = E::panel_depth(k) * MR;
    for ip in 0..m.div_ceil(MR) {
        let (i0, panel) = (ip * MR, &mut data[ip * panel_len..(ip + 1) * panel_len]);
        for p in 0..k {
            for r in 0..MR.min(m - i0) {
                panel[E::lhs_offset(p, r)] = src[(i0 + r) * k + p];
            }
        }
    }
}

/// Packs the transpose of row-major `w` (`n × k`) into `⌈n/NR⌉` p-major
/// column panels — exactly the panels [`pack_rhs_into`] would produce for
/// the materialized `wᵀ` (`k × n`). Column `j` of `wᵀ` is row `j` of `w`,
/// so the pack reads `w` row-wise with stride `k`. `data` must be zeroed
/// and sized `⌈n/NR⌉·depth·NR`.
pub(crate) fn pack_rhs_transposed_into<E: Lane>(data: &mut [E], src: &[E], n: usize, k: usize) {
    let panel_len = E::panel_depth(k) * NR;
    for jp in 0..n.div_ceil(NR) {
        let (j0, panel) = (jp * NR, &mut data[jp * panel_len..(jp + 1) * panel_len]);
        let width = NR.min(n - j0);
        for (p, dst) in panel.chunks_exact_mut(NR).take(k).enumerate() {
            // Column j of wᵀ is row j of w: dst[s] = w[j0+s][p].
            for (s, v) in dst[..width].iter_mut().enumerate() {
                *v = src[(j0 + s) * k + p];
            }
        }
    }
}

/// Packs the transpose of row-major `w` (`k × m`) into `⌈m/MR⌉` p-major
/// row panels — exactly the panels [`pack_lhs_into`] would produce for the
/// materialized `wᵀ` (`m × k`). Row `i0+r` of `wᵀ` at depth `p` is
/// `w[p][i0+r]`, so each panel row is a *contiguous* slice of a source
/// row: this pack is a strided memcpy, cheaper than transposing. `data`
/// must be zeroed and sized `⌈m/MR⌉·k·MR`.
pub(crate) fn pack_lhs_transposed_into(data: &mut [f32], src: &[f32], k: usize, m: usize) {
    for ip in 0..m.div_ceil(MR) {
        let i0 = ip * MR;
        let height = MR.min(m - i0);
        let panel = &mut data[ip * k * MR..(ip + 1) * k * MR];
        for (p, dst) in panel.chunks_exact_mut(MR).enumerate() {
            dst[..height].copy_from_slice(&src[p * m + i0..p * m + i0 + height]);
        }
    }
}

/// Packs the im2col patch matrix of a `[C, H, W]` image into p-major column
/// panels, straight from the image — exactly the panels [`pack_rhs_into`]
/// would produce for the materialized `[C·k·k, outH·outW]` matrix, which
/// therefore never has to exist. Lane `s` of panel `jp` at depth `p` is the
/// zero-padded pixel kernel tap `p` reads at output position `jp·NR + s`
/// ([`Im2ColSpec::pixel`] — the same geometry rule [`crate::im2col`]
/// applies), so every packed value is a pure copy of the materialized one
/// and the downstream GEMM is bit-identical. Out-of-bounds taps keep the
/// buffer's pre-zeroed lanes, which is exactly the zero padding (0 maps to
/// 0 under symmetric quantization too). `data` must be zeroed and sized
/// `⌈outH·outW/NR⌉·depth(C·k²)·NR`.
pub(crate) fn pack_rhs_im2col_into<E: Lane>(data: &mut [E], src: &[E], spec: &Im2ColSpec) {
    let rows = spec.patch_rows();
    let cols = spec.patch_cols();
    let ow = spec.out_width();
    let (h, w) = (spec.height, spec.width);
    let stride = spec.stride;
    let panel_len = E::panel_depth(rows) * NR;
    // One task per column panel: panels are disjoint chunks of `data`, and
    // every lane is a pure function of (panel, p, lane), so the dispatch is
    // bit-identical at any pool width.
    exec::pool().par_rows(data, panel_len, 2 * panel_len, |jp, panel| {
        let j0 = jp * NR;
        let width = NR.min(cols - j0);
        for (p, dst) in panel.chunks_exact_mut(NR).take(rows).enumerate() {
            let (c, ki, kj) = spec.tap(p);
            let ib = (ki * spec.dilation) as isize - spec.padding as isize;
            let jb = (kj * spec.dilation) as isize - spec.padding as isize;
            let plane = &src[c * h * w..(c + 1) * h * w];
            // Lanes sharing an output row form a run whose input reads
            // advance by `stride`; out-of-bounds taps keep the buffer's
            // pre-zeroed lanes, which is exactly the zero padding.
            let mut s = 0;
            while s < width {
                let (oi, oj) = ((j0 + s) / ow, (j0 + s) % ow);
                let run = (ow - oj).min(width - s);
                let ii = (oi * stride) as isize + ib;
                if 0 <= ii && ii < h as isize {
                    let row = &plane[ii as usize * w..(ii as usize + 1) * w];
                    let jj = (oj * stride) as isize + jb;
                    if stride == 1 {
                        // Unit stride: the in-bounds middle of the run is one
                        // contiguous copy from the input row.
                        let lo = (-jj).clamp(0, run as isize) as usize;
                        let hi = (w as isize - jj).clamp(0, run as isize) as usize;
                        if hi > lo {
                            dst[s + lo..s + hi].copy_from_slice(
                                &row[(jj + lo as isize) as usize..(jj + hi as isize) as usize],
                            );
                        }
                    } else {
                        // Strided gather: precompute the in-bounds lane
                        // range so the inner loop is a branch-free strided
                        // read. Lane `t` reads column `jj + t·stride`,
                        // in-bounds for `lo ≤ t < hi`; the lanes outside
                        // keep the buffer's pre-zeroed padding.
                        let lo = if jj >= 0 {
                            0
                        } else {
                            ((-jj) as usize).div_ceil(stride).min(run)
                        };
                        let hi = if (w as isize) > jj {
                            ((w as isize - jj) as usize).div_ceil(stride).min(run)
                        } else {
                            0
                        };
                        if hi > lo {
                            let mut src_j = (jj + (lo * stride) as isize) as usize;
                            for v in &mut dst[s + lo..s + hi] {
                                *v = row[src_j];
                                src_j += stride;
                            }
                        }
                    }
                }
                s += run;
            }
        }
    });
}

/// Packs the *transpose* of the im2col patch matrix (`[outH·outW, C·k·k]`)
/// into p-major column panels, straight from the image — the right-hand
/// operand of `dW = g · colsᵀ` in the convolution backward pass. Panels
/// run over the kernel taps; the p-extent runs over output positions. Same
/// geometry rule, same bit-identity argument as [`pack_rhs_im2col_into`].
/// `data` must be zeroed and sized `⌈C·k²/NR⌉·outH·outW·NR`.
pub(crate) fn pack_rhs_im2col_t_into(data: &mut [f32], src: &[f32], spec: &Im2ColSpec) {
    let rows = spec.patch_rows();
    let cols = spec.patch_cols();
    let (oh, ow) = (spec.out_height(), spec.out_width());
    let (h, w) = (spec.height, spec.width);
    let stride = spec.stride;
    let panel_len = cols * NR;
    // One task per panel (disjoint `data` chunks, pure lane values: same
    // width-invariance argument as `pack_rhs_im2col_into`).
    exec::pool().par_rows(data, panel_len, 2 * panel_len, |jp, panel| {
        let j0 = jp * NR;
        let width = NR.min(rows - j0);
        // Hoist each lane's tap geometry out of the output-position sweep.
        let (mut ib, mut jb, mut base) = ([0isize; NR], [0isize; NR], [0usize; NR]);
        for s in 0..width {
            let (c, ki, kj) = spec.tap(j0 + s);
            ib[s] = (ki * spec.dilation) as isize - spec.padding as isize;
            jb[s] = (kj * spec.dilation) as isize - spec.padding as isize;
            base[s] = c * h * w;
        }
        let mut chunks = panel.chunks_exact_mut(NR);
        for oi in 0..oh {
            let i0 = (oi * stride) as isize;
            for oj in 0..ow {
                // The panel holds exactly outH·outW depth chunks, one per
                // (oi, oj) in row-major order.
                // lint:allow(P1): panel.len() == cols·NR with cols == oh·ow
                let dst = chunks.next().expect("panel depth matches outH*outW");
                let jpos = (oj * stride) as isize;
                for s in 0..width {
                    let (ii, jj) = (i0 + ib[s], jpos + jb[s]);
                    if 0 <= ii && ii < h as isize && 0 <= jj && jj < w as isize {
                        dst[s] = src[base[s] + ii as usize * w + jj as usize];
                    }
                }
            }
        }
    });
}

/// The register-tiled micro-kernel: accumulates the full-`k` product of
/// one `MR`-row A panel and one `NR`-column B panel into `acc`.
///
/// The accumulation runs over ascending `p` with the same
/// skip-zero-left-operand rule as the reference kernel, so each
/// accumulator's floating-point chain is exactly the reference chain for
/// its output element. `chunks_exact` pins the panel stride for the
/// compiler: the inner loop is bounds-check-free and vectorizes over the
/// `NR` lane dimension.
#[inline]
fn microkernel(a_panel: &[f32], b_panel: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (ap, bp) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        let bp: &[f32; NR] = bp.try_into().unwrap_or(&[0.0; NR]);
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = ap[r];
            // Same sparsity skip as the reference kernel (and the same
            // NaN/∞ semantics: only exact ±0.0 left operands are skipped).
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in accr.iter_mut().zip(bp) {
                *o += av * bv;
            }
        }
    }
}

/// Runs the blocked GEMM over one span of output rows.
///
/// `span` holds rows `[row0, row0 + span.len()/n)` of the `n`-wide output;
/// `row0` is always a multiple of [`MR`] (the span dispatch aligns blocks)
/// so A panels line up with the span. Loop order is column-panel outer /
/// row-panel inner: the B panel stays resident in L1 across the whole row
/// sweep while C lives entirely in registers until `write` stores it.
fn gemm_span<E: Lane, O>(
    span: &mut [O],
    row0: usize,
    a_panels: &[E],
    b_panels: &[E],
    k: usize,
    n: usize,
    write: &impl Fn(&mut [O], usize, usize, &[E::Acc]),
) {
    let span_rows = span.len().checked_div(n).unwrap_or(0);
    debug_assert_eq!(row0 % MR, 0, "span must start on an MR boundary");
    let tier = simd::level();
    let (a_len, b_len) = (E::panel_depth(k) * MR, E::panel_depth(k) * NR);
    for jp in 0..n.div_ceil(NR) {
        let b_panel = &b_panels[jp * b_len..(jp + 1) * b_len];
        let (j0, width) = (jp * NR, NR.min(n - jp * NR));
        for i0 in (0..span_rows).step_by(MR) {
            let ip = (row0 + i0) / MR;
            let acc = E::tile(&a_panels[ip * a_len..(ip + 1) * a_len], b_panel, tier);
            for (r, accr) in acc.iter().take(span_rows - i0).enumerate() {
                let o = (i0 + r) * n + j0;
                write(&mut span[o..o + width], row0 + i0 + r, j0, &accr[..width]);
            }
        }
    }
}

/// The blocked GEMM of `a_panels` (`m × k`) and `b_panels` (`k × n`) into
/// the row-major `out` (`m = out.len() / n`), row-span partitioned across
/// the execution pool. `write(dst, row, j0, acc)` stores the accumulators
/// of output row `row`, columns `j0..j0 + dst.len()`.
fn gemm<E: Lane, O: Send>(
    out: &mut [O],
    a_panels: &[E],
    b_panels: &[E],
    k: usize,
    n: usize,
    write: impl Fn(&mut [O], usize, usize, &[E::Acc]) + Sync,
) {
    exec::pool().par_row_spans(out, n.max(1), MR, E::row_work(k, n), |row0, span| {
        gemm_span(span, row0, a_panels, b_panels, k, n, &write);
    });
}

/// [`gemm`] into a fresh `[m, n]` f32 tensor drawn from the scratch pool.
fn gemm_tensor<E: Lane>(
    a_panels: &[E],
    b_panels: &[E],
    m: usize,
    k: usize,
    n: usize,
    write: impl Fn(&mut [f32], usize, usize, &[E::Acc]) + Sync,
) -> Tensor {
    let mut out = exec::take_buf_at(E::OUT_SITE, m * n);
    gemm(&mut out, a_panels, b_panels, k, n, write);
    Tensor::from_vec(out, &[m, n])
}

/// The write-back of the f32 GEMM and of the raw i32 product: a copy.
fn copy_out<T: Copy>(dst: &mut [T], _row: usize, _j0: usize, acc: &[T]) {
    dst.copy_from_slice(acc);
}

/// Blocked GEMM into a fresh output tensor: `a_panels · b_panels → [m, n]`,
/// row-span partitioned across the execution pool.
pub(crate) fn gemm_packed(
    a_panels: &[f32],
    b_panels: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Tensor {
    gemm_tensor(a_panels, b_panels, m, k, n, copy_out)
}

/// Packs `a` on the fly (recycling the scratch through the buffer pool)
/// and runs the blocked GEMM against pre-packed B panels.
pub(crate) fn gemm_pack_lhs(a: &[f32], b_panels: &[f32], m: usize, k: usize, n: usize) -> Tensor {
    let a_len = panels_len::<f32>(PanelKind::Lhs, m, k);
    let mut a_panels = exec::take_buf_at("gemm.pack_lhs", a_len);
    pack_lhs_into(&mut a_panels, a, m, k);
    let out = gemm_packed(&a_panels, b_panels, m, k, n);
    exec::recycle_buf(a_panels);
    out
}

impl Tensor {
    /// Matrix product against a pre-packed right-hand operand:
    /// `[m,k] × packed([k,n]) → [m,n]`.
    ///
    /// Bit-identical to `self.matmul(&b)` for the `b` the panels were
    /// packed from; use with [`PackedCache`] to pack inference constants
    /// once per parameter version.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not rank-2, `rhs` was not packed with a
    /// `pack_rhs*` constructor, or the inner dimensions differ.
    pub fn matmul_packed(&self, rhs: &PackedMatrix) -> Tensor {
        let m = rhs.0.lhs_rows(self, "matmul_packed");
        gemm_pack_lhs(self.as_slice(), rhs.panels(), m, rhs.rows(), rhs.cols())
    }
}

/// The batched body both element types share: packs member `i`'s rows
/// (`rows[i]`, the `m_i × k` values of `lhs[i]`) at its offset of
/// `a_panels` (see [`Panels::batch_offsets`]), runs one fused GEMM against
/// `rhs` and splits the fused output back into one tensor per member,
/// dropping the zero padding rows between members.
fn gemm_batched<'a, E: Lane>(
    a_panels: &mut [E],
    rows: impl IntoIterator<Item = &'a [E]>,
    lhs: &[&Tensor],
    offsets: &[usize],
    rhs: &Panels<E>,
    write: impl Fn(&mut [f32], usize, usize, &[E::Acc]) + Sync,
) -> Vec<Tensor> {
    let (k, n) = (rhs.rows, rhs.cols);
    let panel_len = E::panel_depth(k) * MR;
    for ((src, a), &off) in rows.into_iter().zip(lhs).zip(offsets) {
        let m = a.shape().dim(0);
        let dst = &mut a_panels[off * panel_len..(off + m.div_ceil(MR)) * panel_len];
        pack_lhs_into(dst, src, m, k);
    }
    let m_pad = offsets[lhs.len()] * MR;
    let out = gemm_tensor(a_panels, &rhs.data, m_pad, k, n, write);
    let fused = out.as_slice();
    let parts = lhs
        .iter()
        .zip(offsets)
        .map(|(a, &off)| {
            let m = a.shape().dim(0);
            let row0 = off * MR;
            let mut o = exec::take_buf_at("gemm.batch_split", m * n);
            o.copy_from_slice(&fused[row0 * n..row0 * n + m * n]);
            Tensor::from_vec(o, &[m, n])
        })
        .collect();
    out.recycle();
    parts
}

/// Cross-session batched matrix product: every `lhs[i]` (`[m_i, k]`)
/// multiplies the *same* resident pre-packed right-hand panels in one
/// fused blocked-GEMM dispatch, instead of `lhs.len()` separate calls.
///
/// Each member's rows are packed at an MR-aligned offset of one shared
/// panel buffer, so its panels are byte-identical to the panels its solo
/// [`Tensor::matmul_packed`] call would build; the inter-member padding
/// rows pack as zero and are dropped when the fused output is split. An
/// output row's accumulation chain depends only on its own lhs row and the
/// B panels (ascending `k`, like the reference kernel), so every returned
/// tensor is **bit-identical** to the corresponding sequential
/// `lhs[i].matmul_packed(rhs)` — batching can change throughput, never
/// results. This is the serving layer's perf core: one dispatch, one
/// scratch round-trip and one resident B panel set amortized over all
/// sessions.
///
/// # Panics
///
/// Panics if `rhs` was not packed with a `pack_rhs*` constructor, or any
/// member is not rank-2 with inner dimension `rhs.rows()`.
pub fn matmul_packed_batched(lhs: &[&Tensor], rhs: &PackedMatrix) -> Vec<Tensor> {
    let offsets = rhs.0.batch_offsets(lhs, "matmul_packed_batched");
    let len = offsets[lhs.len()] * rhs.rows() * MR;
    let mut a_panels = exec::take_buf_at("gemm.batch_lhs", len);
    let rows = lhs.iter().map(|a| a.as_slice());
    let out = gemm_batched(&mut a_panels, rows, lhs, &offsets, &rhs.0, copy_out);
    exec::recycle_buf(a_panels);
    out
}

impl PackedMatrix {
    /// Matrix product with `self` as a pre-packed *left* operand:
    /// `packed([m,k]) × [k,n] → [m,n]`.
    ///
    /// This is the convolution shape: the `[outC, C·k·k]` weight is the
    /// constant left operand of the im2col GEMM. Bit-identical to
    /// `w.matmul(&rhs)` for the `w` the panels were packed from.
    ///
    /// # Panics
    ///
    /// Panics if `self` was not packed with [`PackedMatrix::pack_lhs`],
    /// `rhs` is not rank-2, or the inner dimensions differ.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let (k, n) = self.0.rhs_dims(rhs, "PackedMatrix::matmul");
        let b_len = panels_len::<f32>(PanelKind::Rhs, k, n);
        let mut b_panels = exec::take_buf_at("gemm.pack_rhs", b_len);
        pack_rhs_into(&mut b_panels, rhs.as_slice(), k, n);
        let out = gemm_packed(self.panels(), &b_panels, self.rows(), k, n);
        exec::recycle_buf(b_panels);
        out
    }

    /// Implicit-GEMM convolution forward: `self · im2col(input, spec)` with
    /// `self` a pre-packed `[outC, C·k·k]` left operand, producing the
    /// `[outC, outH·outW]` response matrix — without ever materializing the
    /// im2col patch matrix. The column panels are filled straight from the
    /// image by `pack_rhs_im2col_into`; since packing is a pure value
    /// copy, the result is bit-identical to
    /// `self.matmul(&im2col(input, spec))` at any pool width, while the
    /// peak scratch drops by the whole patch-matrix footprint.
    ///
    /// # Panics
    ///
    /// Panics if `self` was not packed with a `pack_lhs*` constructor, if
    /// `input` is not the `[C, H, W]` tensor `spec` describes, or if the
    /// packed `k` extent differs from `spec.patch_rows()`.
    pub fn matmul_im2col(&self, input: &Tensor, spec: &Im2ColSpec) -> Tensor {
        let (k, n) = self.0.im2col_dims(input, spec, "matmul_im2col");
        let b_len = panels_len::<f32>(PanelKind::Rhs, k, n);
        let mut b_panels = exec::take_buf_at("gemm.pack_im2col", b_len);
        pack_rhs_im2col_into(&mut b_panels, input.as_slice(), spec);
        let out = gemm_packed(self.panels(), &b_panels, self.rows(), k, n);
        exec::recycle_buf(b_panels);
        out
    }
}

impl Tensor {
    /// Implicit-GEMM weight gradient: `self · im2col(input, spec)ᵀ`,
    /// `[m, outH·outW] × [outH·outW, C·k·k] → [m, C·k·k]` — the
    /// `dW = g · colsᵀ` product of the convolution backward pass, computed
    /// without materializing either the patch matrix or its transpose. The
    /// transposed column panels are filled straight from the image by
    /// `pack_rhs_im2col_t_into`, so the result is bit-identical to
    /// `self.matmul(&im2col(input, spec).transpose())` at any pool width.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not rank-2 with `spec.patch_cols()` columns, or
    /// if `input` is not the `[C, H, W]` tensor `spec` describes.
    pub fn matmul_at_im2col(&self, input: &Tensor, spec: &Im2ColSpec) -> Tensor {
        assert_eq!(
            self.shape().ndim(),
            2,
            "matmul_at_im2col lhs must be rank-2"
        );
        assert_eq!(
            input.shape().dims(),
            &[spec.channels, spec.height, spec.width],
            "matmul_at_im2col input does not match spec"
        );
        let (m, l) = (self.shape().dim(0), self.shape().dim(1));
        assert_eq!(
            l,
            spec.patch_cols(),
            "matmul_at_im2col inner dimension mismatch: {} vs {} patch cols",
            self.shape(),
            spec.patch_cols()
        );
        let n = spec.patch_rows();
        let b_len = panels_len::<f32>(PanelKind::Rhs, l, n);
        let mut b_panels = exec::take_buf_at("gemm.pack_im2col_t", b_len);
        pack_rhs_im2col_t_into(&mut b_panels, input.as_slice(), spec);
        let out = gemm_pack_lhs(self.as_slice(), &b_panels, m, l, n);
        exec::recycle_buf(b_panels);
        out
    }
}

// ---------------------------------------------------------------------------
// Int8 inference path: i8×i8→i32 panels, kernels and per-channel rescale.
// ---------------------------------------------------------------------------
//
// The quantized GEMM runs on the same engine as the f32 path — same MR×NR
// register tiles, packers, span walk and panel-per-worker dispatch — but
// stores panels as `i8` with the k extent padded to an *even* length (the
// kernels consume depth *pairs*, two multiply-accumulates per
// `_mm256_madd_epi16` lane):
//
// * a B column panel keeps the f32 path's plain p-major layout (`b[p][j]`
//   at `p·NR + j`), so the RHS and im2col packers stay contiguous copies;
//   the AVX2 kernel interleaves the two depth rows of a pair in-register
//   (`punpcklbw`/`punpckhbw`) into the pair-of-i16 shape `madd` wants;
// * an A row panel stores, per pair `pp`, the 8 bytes
//   `[a[r][2pp], a[r][2pp+1]]` for ascending row `r`, so one 64-bit load
//   plus a sign-extension yields all four rows' pairs and a `vpermd`
//   broadcast feeds each row's `madd`.
//
// Bit-identity here is *stronger* than in the f32 path: i8×i8 products and
// their i32 sums are exact (no rounding exists to reorder), so the scalar
// reference kernel, the AVX2 and VNNI kernels and any pool width agree
// bit-for-bit by construction. The padding pairs multiply as zero and add
// nothing. The i32 accumulator cannot overflow below k ≈ 1.3·10⁵
// (k·127² ≤ i32::MAX), far beyond any reduction in this workspace;
// `_mm256_madd_epi16`'s only saturating case (both pair operands −32768) is
// unreachable from i8 inputs.
//
// Scales are symmetric: activations quantize per-tensor on the fly, weights
// per output channel at pack time (the channel axis is never the contracted
// axis, so the scale factors out of the integer sum exactly). The i32
// accumulator rescales to f32 once at write-back.

/// The k extent padded to an even number of depths (the pair layout).
#[inline]
fn kpad(k: usize) -> usize {
    k + (k & 1)
}

/// Symmetric per-tensor quantization to i8: `scale = max|x| / 127`
/// (1.0 for an all-zero slice), values rounded to nearest and clamped to
/// `[-127, 127]`.
pub(crate) fn quantize_slice(src: &[f32]) -> (Vec<i8>, f32) {
    let max = src.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
    let inv = 1.0 / scale;
    let q = src.iter().map(|&v| quantize_one(v, inv)).collect();
    (q, scale)
}

/// Rounds `v · inv` half away from zero by a truncating cast (which
/// vectorizes) and clamps to the symmetric i8 range. This is not
/// `f32::round`: at `v · inv = ±0.49999997`, `r ± 0.5` rounds to `±1.0` in
/// f32, so the cast yields `±1` where `f32::round` yields 0. Those are the
/// only two inputs where the two rules part.
#[inline]
fn quantize_one(v: f32, inv: f32) -> i8 {
    let r = v * inv;
    let rounded = if r >= 0.0 {
        (r + 0.5) as i32
    } else {
        (r - 0.5) as i32
    };
    rounded.clamp(-127, 127) as i8
}

/// Symmetric per-row quantization of a row-major `rows × cols` matrix: one
/// scale per row (the per-output-channel weight scheme).
fn quantize_rows(src: &[f32], rows: usize, cols: usize) -> (Vec<i8>, Vec<f32>) {
    let mut q = vec![0i8; rows * cols];
    let mut scales = vec![1.0f32; rows];
    for r in 0..rows {
        let row = &src[r * cols..(r + 1) * cols];
        let max = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        if max > 0.0 {
            let scale = max / 127.0;
            scales[r] = scale;
            let inv = 1.0 / scale;
            for (o, &v) in q[r * cols..(r + 1) * cols].iter_mut().zip(row) {
                *o = (v * inv).round().clamp(-127.0, 127.0) as i8;
            }
        }
    }
    (q, scales)
}

/// A weight matrix quantized to i8 and repacked into pair-interleaved
/// micro-kernel panels, with one symmetric scale per output channel
/// (per column for Rhs panels, per row for Lhs panels).
///
/// This is the quantized sibling of [`PackedMatrix`]: `Linear` and `Conv2d`
/// build one per parameter version through [`PackedCache`], so weights are
/// quantized and packed once per update, never per frame.
#[derive(Debug, Clone, PartialEq)]
pub struct QPackedMatrix {
    panels: Panels<i8>,
    /// One scale per output channel: `cols` entries for Rhs panels, `rows`
    /// entries for Lhs panels.
    scales: Vec<f32>,
}

impl QPackedMatrix {
    /// Quantizes an `[n, k]` weight per row and packs its *transpose* into
    /// column panels — the `Linear` shape (`x · Wᵀ`), with the row scales
    /// becoming per-column output scales.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank-2.
    pub fn pack_rhs_transposed(w: &Tensor) -> Self {
        assert_eq!(w.shape().ndim(), 2, "pack_rhs_transposed requires rank-2");
        let (n, k) = (w.shape().dim(0), w.shape().dim(1));
        let (q, scales) = quantize_rows(w.as_slice(), n, k);
        let panels = Panels::rhs_transposed(&q, n, k);
        Self { panels, scales }
    }

    /// Quantizes an `[m, k]` weight per row and packs it into row panels —
    /// the convolution shape (`W · im2col`), with the row scales staying
    /// per-row output scales.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank-2.
    pub fn pack_lhs(w: &Tensor) -> Self {
        assert_eq!(w.shape().ndim(), 2, "pack_lhs requires rank-2");
        let (m, k) = (w.shape().dim(0), w.shape().dim(1));
        let (q, scales) = quantize_rows(w.as_slice(), m, k);
        let panels = Panels::lhs(&q, m, k);
        Self { panels, scales }
    }

    /// Logical row count (`m` for Lhs panels, `k` for Rhs panels).
    pub fn rows(&self) -> usize {
        self.panels.rows
    }

    /// Logical column count (`k` for Lhs panels, `n` for Rhs panels).
    pub fn cols(&self) -> usize {
        self.panels.cols
    }

    /// Which GEMM operand the panels were laid out for.
    pub fn kind(&self) -> PanelKind {
        self.panels.kind
    }

    /// The per-output-channel weight scales packed with the panels.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }
}

/// The scalar i8 reference micro-kernel: accumulates the full-`k` product
/// of one pair-interleaved A panel and one pair-interleaved B panel into
/// the `i32` tile. Integer arithmetic is exact, so this kernel defines the
/// bit pattern every other i8 kernel (and every pool width) must reproduce.
#[inline]
fn microkernel_i8(a_panel: &[i8], b_panel: &[i8], acc: &mut [[i32; NR]; MR]) {
    for (ap, bp) in a_panel
        .chunks_exact(2 * MR)
        .zip(b_panel.chunks_exact(2 * NR))
    {
        // The two p-major depth rows of this pair.
        let (b0, b1) = bp.split_at(NR);
        for (r, accr) in acc.iter_mut().enumerate() {
            let a0 = ap[2 * r] as i32;
            let a1 = ap[2 * r + 1] as i32;
            // Skipping an all-zero pair is a pure speed heuristic: unlike
            // the f32 kernel's zero-skip, it cannot change the (exact)
            // integer result.
            if a0 == 0 && a1 == 0 {
                continue;
            }
            for (j, o) in accr.iter_mut().enumerate() {
                *o += a0 * b0[j] as i32 + a1 * b1[j] as i32;
            }
        }
    }
}

/// The i8 write-back when the weight scales index output columns
/// (`Linear`: `x · Wᵀ`): `acc · (act(row) · w[col])`, where `act(row)` is
/// the per-tensor activation scale of the row's batch member. The solo and
/// the batched product evaluate the same float expression, so a batched
/// row is bit-identical to the same row rescaled solo.
fn rescale_cols<'a>(
    w: &'a [f32],
    act: impl Fn(usize) -> f32 + Sync + 'a,
) -> impl Fn(&mut [f32], usize, usize, &[i32]) + Sync + 'a {
    move |dst, row, j0, acc| {
        let act = act(row);
        for (s, (o, &a)) in dst.iter_mut().zip(acc).enumerate() {
            *o = a as f32 * (act * w[j0 + s]);
        }
    }
}

/// The i8 write-back when the weight scales index output rows (`Conv2d`:
/// `W · im2col`): `acc · (act · w[row])`.
fn rescale_rows(act: f32, w: &[f32]) -> impl Fn(&mut [f32], usize, usize, &[i32]) + Sync + '_ {
    move |dst, row, _, acc| {
        let factor = act * w[row];
        for (o, &a) in dst.iter_mut().zip(acc) {
            *o = a as f32 * factor;
        }
    }
}

/// Blocked i8×i8→i32 GEMM over row-major operands, returning the raw
/// integer accumulators: `a (m×k) · b (k×n) → [m·n]` in row-major order.
///
/// This is the exact integer product the modeled systolic array executes
/// (`solo-hw` delegates its functional model here); the f32 entry points
/// rescale the same accumulators at write-back instead of materializing
/// them.
///
/// # Panics
///
/// Panics if the operand lengths do not match `m·k` / `k·n`.
pub fn qgemm_i8(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
    assert_eq!(a.len(), m * k, "qgemm_i8 lhs length mismatch");
    assert_eq!(b.len(), k * n, "qgemm_i8 rhs length mismatch");
    let (a, b) = (Panels::lhs(a, m, k), Panels::rhs(b, k, n));
    let mut out = vec![0i32; m * n];
    gemm(&mut out, &a.data, &b.data, k, n, copy_out);
    out
}

impl Tensor {
    /// Quantized matrix product against pre-quantized, pre-packed weight
    /// panels: `[m,k] × qpacked([k,n]) → [m,n]` in f32.
    ///
    /// `self` is quantized symmetrically per-tensor on the fly; the weight
    /// was quantized per output column at pack time. The i32 accumulators
    /// rescale to f32 at write-back, so the result approximates
    /// `self.matmul_packed(..)` to quantization accuracy.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not rank-2, `rhs` was not packed with
    /// [`QPackedMatrix::pack_rhs_transposed`], or the inner dimensions
    /// differ.
    pub fn qmatmul_packed(&self, rhs: &QPackedMatrix) -> Tensor {
        let (m, k) = (rhs.panels.lhs_rows(self, "qmatmul_packed"), rhs.rows());
        let (qa, act) = quantize_slice(self.as_slice());
        let a = Panels::lhs(&qa, m, k);
        let write = rescale_cols(rhs.scales(), move |_| act);
        gemm_tensor(&a.data, &rhs.panels.data, m, k, rhs.cols(), write)
    }
}

/// Cross-session batched quantized matrix product: the i8 twin of
/// [`matmul_packed_batched`]. Every member's activations quantize with
/// their **own** per-tensor scale — exactly the scale the sequential
/// [`Tensor::qmatmul_packed`] call computes — and the fused write-back
/// rescales each output row by its member's activation scale. Integer
/// accumulation is exact and the rescale expression matches the solo path
/// term-for-term, so every returned tensor is bit-identical to the
/// corresponding sequential call, at any pool width and kernel tier.
///
/// # Panics
///
/// Panics if `rhs` was not packed with
/// [`QPackedMatrix::pack_rhs_transposed`], or any member is not rank-2
/// with inner dimension `rhs.rows()`.
pub fn qmatmul_packed_batched(lhs: &[&Tensor], rhs: &QPackedMatrix) -> Vec<Tensor> {
    let offsets = rhs.panels.batch_offsets(lhs, "qmatmul_packed_batched");
    let m_pad = offsets[lhs.len()] * MR;
    let mut a_panels = vec![0i8; m_pad * kpad(rhs.rows())];
    // Padding rows rescale by 1.0 · w, but their exact-zero accumulators
    // make the product 0.0 regardless; the rows are dropped at the split.
    let mut row_acts = vec![1.0f32; m_pad];
    let rows: Vec<Vec<i8>> = lhs
        .iter()
        .zip(&offsets)
        .map(|(a, &off)| {
            let (q, act) = quantize_slice(a.as_slice());
            row_acts[off * MR..off * MR + a.shape().dim(0)].fill(act);
            q
        })
        .collect();
    let write = rescale_cols(rhs.scales(), |row| row_acts[row]);
    let rows = rows.iter().map(Vec::as_slice);
    gemm_batched(&mut a_panels, rows, lhs, &offsets, &rhs.panels, write)
}

impl QPackedMatrix {
    /// Quantized matrix product with `self` as a pre-packed *left*
    /// operand: `qpacked([m,k]) × [k,n] → [m,n]` in f32. The convolution
    /// shape; `rhs` quantizes per-tensor on the fly.
    ///
    /// # Panics
    ///
    /// Panics if `self` was not packed with [`QPackedMatrix::pack_lhs`],
    /// `rhs` is not rank-2, or the inner dimensions differ.
    pub fn qmatmul(&self, rhs: &Tensor) -> Tensor {
        let (k, n) = self.panels.rhs_dims(rhs, "QPackedMatrix::qmatmul");
        let (qb, act) = quantize_slice(rhs.as_slice());
        let b = Panels::rhs(&qb, k, n);
        let write = rescale_rows(act, &self.scales);
        gemm_tensor(&self.panels.data, &b.data, self.rows(), k, n, write)
    }

    /// Quantized implicit-GEMM convolution forward:
    /// `self · im2col(input, spec)` with the patch matrix packed straight
    /// from the quantized image by `pack_rhs_im2col_into` — the
    /// quantized twin of [`PackedMatrix::matmul_im2col`].
    ///
    /// # Panics
    ///
    /// Panics if `self` was not packed with [`QPackedMatrix::pack_lhs`],
    /// if `input` is not the `[C, H, W]` tensor `spec` describes, or if
    /// the packed `k` extent differs from `spec.patch_rows()`.
    pub fn qmatmul_im2col(&self, input: &Tensor, spec: &Im2ColSpec) -> Tensor {
        let (k, n) = self.panels.im2col_dims(input, spec, "qmatmul_im2col");
        let (qimg, act) = quantize_slice(input.as_slice());
        let mut b = Panels::zeroed(PanelKind::Rhs, k, n);
        pack_rhs_im2col_into(&mut b.data, &qimg, spec);
        let write = rescale_rows(act, &self.scales);
        gemm_tensor(&self.panels.data, &b.data, self.rows(), k, n, write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_rhs_round_trips_values() {
        let b = Tensor::arange(6).reshape(&[2, 3]); // k=2, n=3 (< NR: one padded panel)
        let p = PackedMatrix::pack_rhs(&b);
        assert_eq!(p.rows(), 2);
        assert_eq!(p.cols(), 3);
        // Panel is p-major: row 0 then row 1, each padded to NR.
        assert_eq!(&p.panels()[..3], &[0.0, 1.0, 2.0]);
        assert_eq!(&p.panels()[NR..NR + 3], &[3.0, 4.0, 5.0]);
        assert!(p.panels()[3..NR].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pack_rhs_transposed_matches_pack_of_transpose() {
        let w = Tensor::arange(12).reshape(&[4, 3]);
        let direct = PackedMatrix::pack_rhs_transposed(&w);
        let via_transpose = PackedMatrix::pack_rhs(&w.transpose());
        assert_eq!(direct, via_transpose);
    }

    #[test]
    fn pack_lhs_transposed_matches_pack_of_transpose() {
        let w = Tensor::arange(12).reshape(&[3, 4]);
        let direct = PackedMatrix::pack_lhs_transposed(&w);
        let via_transpose = PackedMatrix::pack_lhs(&w.transpose());
        assert_eq!(direct, via_transpose);
    }

    fn test_spec() -> Im2ColSpec {
        Im2ColSpec {
            channels: 2,
            height: 6,
            width: 5,
            kernel: 3,
            stride: 2,
            padding: 1,
            dilation: 1,
        }
    }

    #[test]
    fn pack_rhs_im2col_matches_pack_of_materialized_matrix() {
        let spec = test_spec();
        let img = Tensor::arange(2 * 6 * 5).reshape(&[2, 6, 5]);
        let cols = crate::im2col(&img, &spec);
        let (k, n) = (spec.patch_rows(), spec.patch_cols());
        let mut want = vec![0.0f32; n.div_ceil(NR).max(1) * k * NR];
        pack_rhs_into(&mut want, cols.as_slice(), k, n);
        let mut got = vec![0.0f32; want.len()];
        pack_rhs_im2col_into(&mut got, img.as_slice(), &spec);
        assert_eq!(got, want);
        // And the transposed packing against the materialized transpose.
        let cols_t = cols.transpose();
        let mut want_t = vec![0.0f32; k.div_ceil(NR).max(1) * n * NR];
        pack_rhs_into(&mut want_t, cols_t.as_slice(), n, k);
        let mut got_t = vec![0.0f32; want_t.len()];
        pack_rhs_im2col_t_into(&mut got_t, img.as_slice(), &spec);
        assert_eq!(got_t, want_t);
    }

    #[test]
    fn strided_gather_fast_path_matches_materialized_pack() {
        // Sweep stride/dilation/padding combinations so the precomputed
        // in-bounds lane range is exercised at both edges of every run.
        for (stride, dilation, padding) in [
            (2, 1, 0),
            (2, 2, 1),
            (3, 1, 2),
            (3, 2, 3),
            (2, 3, 2),
            (4, 1, 1),
        ] {
            let spec = Im2ColSpec {
                channels: 2,
                height: 9,
                width: 7,
                kernel: 3,
                stride,
                padding,
                dilation,
            };
            let img = Tensor::arange(2 * 9 * 7).reshape(&[2, 9, 7]);
            let cols = crate::im2col(&img, &spec);
            let (k, n) = (spec.patch_rows(), spec.patch_cols());
            let mut want = vec![0.0f32; n.div_ceil(NR).max(1) * k * NR];
            pack_rhs_into(&mut want, cols.as_slice(), k, n);
            let mut got = vec![0.0f32; want.len()];
            pack_rhs_im2col_into(&mut got, img.as_slice(), &spec);
            assert_eq!(
                got, want,
                "stride {stride} dilation {dilation} padding {padding}"
            );
        }
    }

    #[test]
    fn implicit_gemm_bit_identical_to_materialized_path() {
        use crate::{normal, seeded_rng};
        let spec = test_spec();
        let mut rng = seeded_rng(77);
        let img = normal(&mut rng, &[2, 6, 5], 0.0, 1.0);
        let w = normal(&mut rng, &[4, spec.patch_rows()], 0.0, 1.0);
        let cols = crate::im2col(&img, &spec);
        let packed = PackedMatrix::pack_lhs(&w);
        let want_fwd = packed.matmul(&cols);
        let got_fwd = packed.matmul_im2col(&img, &spec);
        assert_eq!(got_fwd.as_slice(), want_fwd.as_slice());
        let g = normal(&mut rng, &[4, spec.patch_cols()], 0.0, 1.0);
        let want_dw = g.matmul(&cols.transpose());
        let got_dw = g.matmul_at_im2col(&img, &spec);
        assert_eq!(got_dw.as_slice(), want_dw.as_slice());
    }

    #[test]
    fn pack_lhs_is_p_major() {
        let a = Tensor::arange(8).reshape(&[2, 4]); // m=2 (< MR: padded), k=4
        let p = PackedMatrix::pack_lhs(&a);
        // For each p: a[0][p], a[1][p], pad, pad.
        assert_eq!(&p.panels()[..MR], &[0.0, 4.0, 0.0, 0.0]);
        assert_eq!(&p.panels()[MR..2 * MR], &[1.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn blocked_gemm_bit_identical_to_reference_on_ragged_shapes() {
        use crate::{normal, seeded_rng};
        // Shapes straddle every tile boundary: exact multiples of MR/NR,
        // off-by-one raggedness in each dimension, degenerate 1×1, and k=0.
        let shapes = [
            (1, 1, 1),
            (3, 5, 2),
            (4, 8, 8),
            (5, 7, 9),
            (7, 3, 17),
            (13, 29, 31),
            (64, 1, 1),
            (1, 64, 1),
            (5, 0, 7),
            (33, 17, 40),
        ];
        for (i, &(m, k, n)) in shapes.iter().enumerate() {
            let mut rng = seeded_rng(100 + i as u64);
            // Exact zeros in A exercise the sparsity skip, whose per-element
            // ordering the bit-identity contract depends on.
            let a =
                normal(&mut rng, &[m, k], 0.0, 1.0).map(|v| if v.abs() < 0.3 { 0.0 } else { v });
            let b = normal(&mut rng, &[k, n], 0.0, 1.0);
            let want = a.matmul_reference(&b);
            let rhs_packed = a.matmul_packed(&PackedMatrix::pack_rhs(&b));
            assert_eq!(rhs_packed.shape().dims(), &[m, n]);
            assert_eq!(
                rhs_packed.as_slice(),
                want.as_slice(),
                "rhs-packed {m}x{k}x{n} diverged from reference"
            );
            let lhs_packed = PackedMatrix::pack_lhs(&a).matmul(&b);
            assert_eq!(
                lhs_packed.as_slice(),
                want.as_slice(),
                "lhs-packed {m}x{k}x{n} diverged from reference"
            );
        }
    }

    #[test]
    fn matmul_auto_path_matches_reference_above_threshold() {
        use crate::{normal, seeded_rng};
        let mut rng = seeded_rng(7);
        let a = normal(&mut rng, &[24, 40], 0.0, 1.0);
        let b = normal(&mut rng, &[40, 32], 0.0, 1.0);
        assert_eq!(a.matmul(&b).as_slice(), a.matmul_reference(&b).as_slice());
    }

    #[test]
    fn cache_repacks_only_on_version_change() {
        let w = Tensor::arange(6).reshape(&[2, 3]);
        let mut cache = PackedCache::new();
        let mut packs = 0;
        for version in [0u64, 0, 0, 1, 1, 2] {
            cache.get_or_pack(version, || {
                packs += 1;
                PackedMatrix::pack_rhs(&w)
            });
        }
        assert_eq!(packs, 3, "one pack per distinct version");
        assert_eq!(cache.cached_version(), Some(2));
        cache.invalidate();
        assert_eq!(cache.cached_version(), None);
    }

    // --- int8 path ---

    use proptest::prelude::*;

    /// The naive i-p-j integer GEMM every i8 kernel must reproduce exactly.
    fn qgemm_reference(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut out = vec![0i32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p] as i32;
                for j in 0..n {
                    out[i * n + j] += av * b[p * n + j] as i32;
                }
            }
        }
        out
    }

    fn random_i8(rng: &mut impl rand::Rng, len: usize) -> Vec<i8> {
        (0..len)
            .map(|_| (rng.gen_range(-127i32..=127)) as i8)
            .collect()
    }

    #[test]
    fn quantized_gemm_bit_identical_to_integer_reference_on_ragged_shapes() {
        use crate::seeded_rng;
        let shapes = [
            (1, 1, 1),
            (3, 5, 2),
            (4, 8, 8),
            (5, 7, 9),
            (7, 3, 17),
            (13, 29, 31),
            (64, 1, 1),
            (1, 64, 1),
            (5, 0, 7),
            (33, 17, 40),
        ];
        for (i, &(m, k, n)) in shapes.iter().enumerate() {
            let mut rng = seeded_rng(300 + i as u64);
            let a = random_i8(&mut rng, m * k);
            let b = random_i8(&mut rng, k * n);
            let want = qgemm_reference(&a, &b, m, k, n);
            for width in [1usize, 8] {
                let got = exec::with_threads(width, || qgemm_i8(&a, &b, m, k, n));
                assert_eq!(got, want, "{m}x{k}x{n} diverged at pool width {width}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The blocked/SIMD i8 GEMM is pinned bit-identical to the scalar
        /// integer reference at pool widths 1 and 8 on arbitrary ragged
        /// shapes (integer arithmetic is exact, so equality is bitwise).
        #[test]
        fn prop_quantized_gemm_matches_reference_at_widths_1_and_8(
            (m, k, n, seed) in (1usize..24, 0usize..40, 1usize..40, 0u64..1000)
        ) {
            use crate::seeded_rng;
            let mut rng = seeded_rng(seed);
            let a = random_i8(&mut rng, m * k);
            let b = random_i8(&mut rng, k * n);
            let want = qgemm_reference(&a, &b, m, k, n);
            for width in [1usize, 8] {
                let got = exec::with_threads(width, || qgemm_i8(&a, &b, m, k, n));
                prop_assert_eq!(&got, &want, "{}x{}x{} width {}", m, k, n, width);
            }
        }

        /// The quantized implicit-conv path is pinned bit-identical across
        /// pool widths, and — for specs where every pixel reaches a patch —
        /// to the plain quantized GEMM over the materialized patch matrix.
        #[test]
        fn prop_quantized_im2col_matches_materialized_at_widths_1_and_8(
            (oc, stride, padding, seed) in (1usize..7, 1usize..3, 0usize..2, 0u64..1000)
        ) {
            use crate::{normal, seeded_rng};
            let spec = Im2ColSpec {
                channels: 2,
                height: 7,
                width: 6,
                kernel: 3,
                stride,
                padding,
                dilation: 1,
            };
            let mut rng = seeded_rng(seed);
            let img = normal(&mut rng, &[2, 7, 6], 0.0, 1.0);
            let w = normal(&mut rng, &[oc, spec.patch_rows()], 0.0, 1.0);
            let packed = QPackedMatrix::pack_lhs(&w);
            let serial = exec::with_threads(1, || packed.qmatmul_im2col(&img, &spec));
            let wide = exec::with_threads(8, || packed.qmatmul_im2col(&img, &spec));
            prop_assert_eq!(serial.as_slice(), wide.as_slice());
            if stride == 1 && padding == 1 {
                // Every pixel appears in some patch, so quantizing the
                // image commutes with materializing im2col and the two
                // paths agree bitwise.
                let cols = crate::im2col(&img, &spec);
                let via_cols = packed.qmatmul(&cols);
                prop_assert_eq!(serial.as_slice(), via_cols.as_slice());
            }
        }
    }

    #[test]
    fn quantized_im2col_pack_matches_materialized_q_pack() {
        use crate::{normal, seeded_rng};
        // Sweep the same stride/dilation/padding grid as the f32 gather
        // test so the run-bounds reuse is exercised at every edge.
        for (i, &(stride, dilation, padding)) in [
            (1, 1, 1),
            (2, 1, 0),
            (2, 2, 1),
            (3, 1, 2),
            (3, 2, 3),
            (2, 3, 2),
            (4, 1, 1),
        ]
        .iter()
        .enumerate()
        {
            let spec = Im2ColSpec {
                channels: 2,
                height: 9,
                width: 7,
                kernel: 3,
                stride,
                padding,
                dilation,
            };
            let mut rng = seeded_rng(500 + i as u64);
            let img = normal(&mut rng, &[2, 9, 7], 0.0, 1.0);
            let (qimg, _) = quantize_slice(img.as_slice());
            // Materialize im2col over the quantized values (exact small
            // integers survive the f32 round trip) and pack that.
            let qimg_f: Vec<f32> = qimg.iter().map(|&v| v as f32).collect();
            let cols = crate::im2col(&Tensor::from_vec(qimg_f, &[2, 9, 7]), &spec);
            let qcols: Vec<i8> = cols.as_slice().iter().map(|&v| v as i8).collect();
            let (k, n) = (spec.patch_rows(), spec.patch_cols());
            let mut want = vec![0i8; n.div_ceil(NR).max(1) * kpad(k) * NR];
            pack_rhs_into(&mut want, &qcols, k, n);
            let mut got = vec![0i8; want.len()];
            pack_rhs_im2col_into(&mut got, &qimg, &spec);
            assert_eq!(
                got, want,
                "stride {stride} dilation {dilation} padding {padding}"
            );
        }
    }

    #[test]
    fn qmatmul_packed_tracks_f32_within_the_analytic_quant_bound() {
        use crate::{normal, seeded_rng};
        let mut rng = seeded_rng(42);
        let (m, k, n) = (9, 23, 18);
        let x = normal(&mut rng, &[m, k], 0.0, 1.0);
        let w = normal(&mut rng, &[n, k], 0.0, 1.0);
        let packed = QPackedMatrix::pack_rhs_transposed(&w);
        let got = x.qmatmul_packed(&packed);
        let want = x.matmul(&w.transpose());
        // out_ij = Σ_p x_ip·w_jp with x = sa·qx + ex (|ex| ≤ sa/2) and
        // w = sw_j·qw + ew (|ew| ≤ sw_j/2), so the per-element error is
        // bounded by Σ_p (sa/2·|w_jp| + sw_j/2·|x_ip| + sa·sw_j/4).
        let (_, sa) = quantize_slice(x.as_slice());
        for i in 0..m {
            for j in 0..n {
                let swj = packed.scales()[j];
                let mut bound = 0.0f32;
                for p in 0..k {
                    bound += 0.5 * sa * w.as_slice()[j * k + p].abs()
                        + 0.5 * swj * x.as_slice()[i * k + p].abs()
                        + 0.25 * sa * swj;
                }
                let err = (got.as_slice()[i * n + j] - want.as_slice()[i * n + j]).abs();
                assert!(
                    err <= bound,
                    "({i},{j}): err {err} exceeds analytic bound {bound}"
                );
            }
        }
    }

    #[test]
    fn quantized_cache_requantizes_on_version_bump() {
        let w = Tensor::arange(8).reshape(&[2, 4]);
        let mut cache: PackedCache<QPackedMatrix> = PackedCache::new();
        let mut packs = 0;
        for version in [3u64, 3, 4, 4, 5] {
            cache.get_or_pack(version, || {
                packs += 1;
                QPackedMatrix::pack_rhs_transposed(&w)
            });
        }
        assert_eq!(packs, 3, "one quantize+pack per distinct version");
        assert_eq!(cache.cached_version(), Some(5));
    }

    #[test]
    fn batched_matmul_is_bit_identical_to_sequential_calls() {
        use crate::{normal, seeded_rng};
        let mut rng = seeded_rng(77);
        let (k, n) = (21, 19);
        let w = normal(&mut rng, &[n, k], 0.0, 1.0);
        let packed = PackedMatrix::pack_rhs_transposed(&w);
        // Ragged session shapes around the MR boundary, including m = 0.
        let sessions: Vec<Tensor> = [1usize, 4, 7, 0, 3, 12]
            .iter()
            .map(|&m| normal(&mut rng, &[m, k], 0.0, 1.0))
            .collect();
        let refs: Vec<&Tensor> = sessions.iter().collect();
        for width in [1usize, 8] {
            exec::with_threads(width, || {
                let batched = matmul_packed_batched(&refs, &packed);
                for (a, got) in sessions.iter().zip(&batched) {
                    let want = a.matmul_packed(&packed);
                    assert_eq!(got.shape(), want.shape());
                    assert_eq!(
                        got.as_slice(),
                        want.as_slice(),
                        "width {width}, m={}",
                        a.shape().dim(0)
                    );
                }
            });
        }
    }

    #[test]
    fn batched_qmatmul_is_bit_identical_to_sequential_calls() {
        use crate::{normal, seeded_rng};
        let mut rng = seeded_rng(78);
        let (k, n) = (23, 18);
        let w = normal(&mut rng, &[n, k], 0.0, 1.0);
        let packed = QPackedMatrix::pack_rhs_transposed(&w);
        // Different value ranges per session force *different* per-tensor
        // activation scales, so the per-row rescale is genuinely exercised.
        let sessions: Vec<Tensor> = [(1usize, 0.5f32), (5, 2.0), (8, 0.1), (3, 7.0)]
            .iter()
            .map(|&(m, sd)| normal(&mut rng, &[m, k], 0.0, sd))
            .collect();
        let refs: Vec<&Tensor> = sessions.iter().collect();
        for width in [1usize, 8] {
            exec::with_threads(width, || {
                let batched = qmatmul_packed_batched(&refs, &packed);
                for (a, got) in sessions.iter().zip(&batched) {
                    let want = a.qmatmul_packed(&packed);
                    assert_eq!(
                        got.as_slice(),
                        want.as_slice(),
                        "width {width}, m={}",
                        a.shape().dim(0)
                    );
                }
            });
        }
    }

    #[test]
    fn batched_matmul_handles_empty_batches() {
        let w = Tensor::arange(8).reshape(&[2, 4]);
        let f = PackedMatrix::pack_rhs_transposed(&w);
        let q = QPackedMatrix::pack_rhs_transposed(&w);
        assert!(matmul_packed_batched(&[], &f).is_empty());
        assert!(qmatmul_packed_batched(&[], &q).is_empty());
        let empty = Tensor::zeros(&[0, 4]);
        let out = matmul_packed_batched(&[&empty], &f);
        assert_eq!(out[0].shape().dims(), &[0, 2]);
        let qout = qmatmul_packed_batched(&[&empty], &q);
        assert_eq!(qout[0].shape().dims(), &[0, 2]);
    }

    /// Values mixed into quantizer operands: max|x| = 127, which makes
    /// the scale exactly 1, next to the values where the quantizers'
    /// rounding rules part. ±0.49999997 rounds to ±1 by the truncating
    /// cast and to 0 by `f32::round`.
    const EDGES: [f32; 7] = [127.0, 0.499_999_97, -0.499_999_97, 0.5, -0.5, 2.5, -2.5];

    /// `t` with the head of its data overwritten by [`EDGES`], as far as
    /// they reach.
    fn edged(t: &Tensor) -> Tensor {
        let mut v = t.as_slice().to_vec();
        let len = v.len().min(EDGES.len());
        v[..len].copy_from_slice(&EDGES[..len]);
        Tensor::from_vec(v, t.shape().dims())
    }

    /// `|v − q·scale|`, in f64 so that the f32 subtraction cannot round
    /// the error down.
    fn round_trip_error(v: f32, q: i8, scale: f32) -> f64 {
        (f64::from(v) - f64::from(q) * f64::from(scale)).abs()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `quantize_slice`, the activation quantizer: every element
        /// reconstructs within half a step, `scale / 2`. The edged slice
        /// has scale exactly 1, and its ±0.49999997 round to ±1 by the
        /// truncating cast: an error of 0.50000003, which stays within
        /// the `1e-6` slack.
        #[test]
        fn prop_activation_quantizer_round_trips_within_half_step(
            (len, seed) in (1usize..64, 0u64..1000)
        ) {
            use crate::{normal, seeded_rng};
            let mut rng = seeded_rng(seed);
            let plain = normal(&mut rng, &[len], 0.0, 2.0).into_vec();
            let with_edges: Vec<f32> = EDGES.iter().chain(&plain).copied().collect();
            let (q, scale) = quantize_slice(&with_edges);
            prop_assert_eq!((&q[..3], scale), (&[127i8, 1, -1][..], 1.0));
            for src in [plain, with_edges] {
                let (q, scale) = quantize_slice(&src);
                for (&v, &qv) in src.iter().zip(&q) {
                    let err = round_trip_error(v, qv, scale);
                    prop_assert!(
                        err <= f64::from(scale * 0.5 + 1e-6),
                        "{v} -> {qv} at scale {scale}: error {err}"
                    );
                }
            }
        }

        /// `quantize_rows`, the per-output-channel weight quantizer: each
        /// row reconstructs within its own half step, which for a row
        /// holding a nonzero value is never larger than the per-tensor
        /// half step. The edged matrix also ends in an all-zero row.
        #[test]
        fn prop_weight_quantizer_rows_round_trip_within_their_own_half_step(
            (rows, cols, seed) in (1usize..8, 1usize..16, 0u64..1000)
        ) {
            use crate::{normal, seeded_rng};
            let mut rng = seeded_rng(seed);
            let plain = normal(&mut rng, &[rows, cols], 0.0, 1.5);
            let mut with_edges = edged(&plain).into_vec();
            if rows > 1 {
                with_edges[(rows - 1) * cols..].fill(0.0);
            }
            for src in [plain.into_vec(), with_edges] {
                let (q, scales) = quantize_rows(&src, rows, cols);
                let (_, tensor_scale) = quantize_slice(&src);
                for (r, &step) in scales.iter().enumerate() {
                    let row = r * cols..(r + 1) * cols;
                    if src[row.clone()].iter().any(|&v| v != 0.0) {
                        prop_assert!(
                            step <= tensor_scale + 1e-6,
                            "row {r}: {step} > {tensor_scale}"
                        );
                    }
                    for (&v, &qv) in src[row.clone()].iter().zip(&q[row]) {
                        let err = round_trip_error(v, qv, step);
                        prop_assert!(
                            err <= f64::from(step * 0.5 + 1e-6),
                            "row {r}: {v} -> {qv} at scale {step}: error {err}"
                        );
                    }
                }
            }
        }

        /// `Tensor::qmatmul_packed` against `pack_rhs_transposed`, the
        /// product `Linear::infer_quant` runs, tracks the f32 product
        /// within the worst-case rounding of both operands, per element
        /// `Σ_p (sa/2·|w[j][p]| + sw[j]/2·|a[i][p]| + sa·sw[j]/4)`: `sa` is
        /// the activation scale and `sw[j]` the weight scale of output
        /// column `j`. With `a = sa·qa + ea` and `w = sw·qw + ew`, the error
        /// of each term is `|a·ew + ea·w − ea·ew|`. `n` spans several
        /// `NR`-column panels.
        #[test]
        fn prop_quantized_product_tracks_f32_within_analytic_bound(
            (m, k, n, seed) in (1usize..10, 1usize..40, 1usize..40, 0u64..1000)
        ) {
            use crate::{normal, seeded_rng};
            let mut rng = seeded_rng(seed);
            let a = normal(&mut rng, &[m, k], 0.0, 1.0);
            let w = normal(&mut rng, &[n, k], 0.0, 1.0);
            for (a, w) in [(edged(&a), edged(&w)), (a, w)] {
                let got = a.qmatmul_packed(&QPackedMatrix::pack_rhs_transposed(&w));
                let exact = a.matmul_at(&w);
                let (_, sa) = quantize_slice(a.as_slice());
                let (_, sw) = quantize_rows(w.as_slice(), n, k);
                let (av, wv) = (a.as_slice(), w.as_slice());
                for i in 0..m {
                    for j in 0..n {
                        let mut bound = 0.0f32;
                        for p in 0..k {
                            let (x, y) = (av[i * k + p].abs(), wv[j * k + p].abs());
                            bound += 0.5 * sa * y + 0.5 * sw[j] * x + 0.25 * sa * sw[j];
                        }
                        let (g, e) = (got.as_slice()[i * n + j], exact.as_slice()[i * n + j]);
                        prop_assert!(
                            (g - e).abs() <= bound,
                            "({i},{j}): {g} vs {e}, bound {bound}"
                        );
                    }
                }
            }
        }
    }

    /// FNV-1a over 32-bit words: a digest that, unlike `DefaultHasher`,
    /// is stable across toolchains.
    fn fnv1a(mut h: u64, words: impl IntoIterator<Item = u32>) -> u64 {
        for w in words {
            for byte in w.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Runs every public GEMM entry point, f32 and i8, over ragged shapes
    /// (odd k, k = 0, an empty batch member, four im2col geometries) and
    /// folds the output bits into one digest.
    fn gemm_output_digest() -> u64 {
        use crate::{normal, seeded_rng};
        // Row 0 of each activation and weight holds the EDGES.
        let mut rng = seeded_rng(2024);
        let mut gen = |dims: &[usize]| {
            edged(&normal(&mut rng, dims, 0.0, 1.0).map(|v| if v.abs() < 0.3 { 0.0 } else { v }))
        };
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let fold = |h: &mut u64, t: &Tensor| {
            *h = fnv1a(*h, t.shape().dims().iter().map(|&d| d as u32));
            *h = fnv1a(*h, t.as_slice().iter().map(|v| v.to_bits()));
        };
        for &(m, k, n) in &[
            (5, 7, 19),
            (13, 33, 40),
            (4, 0, 17),
            (33, 17, 21),
            (9, 64, 70),
            (1, 1, 1),
        ] {
            let a = gen(&[m, k]);
            let b = gen(&[k, n]);
            let bt = gen(&[n, k]);
            let at = gen(&[k, m]);
            fold(&mut h, &a.matmul(&b));
            fold(&mut h, &a.matmul_at(&bt));
            fold(&mut h, &at.matmul_ta(&b));
            fold(&mut h, &a.matmul_packed(&PackedMatrix::pack_rhs(&b)));
            fold(
                &mut h,
                &a.matmul_packed(&PackedMatrix::pack_rhs_transposed(&bt)),
            );
            fold(&mut h, &PackedMatrix::pack_lhs(&a).matmul(&b));
            fold(&mut h, &PackedMatrix::pack_lhs_transposed(&at).matmul(&b));
            fold(
                &mut h,
                &a.qmatmul_packed(&QPackedMatrix::pack_rhs_transposed(&bt)),
            );
            fold(&mut h, &QPackedMatrix::pack_lhs(&a).qmatmul(&b));
            let mut irng = seeded_rng((m * 1000 + k * 10 + n) as u64);
            let (qa, qb) = (random_i8(&mut irng, m * k), random_i8(&mut irng, k * n));
            h = fnv1a(h, qgemm_i8(&qa, &qb, m, k, n).iter().map(|&v| v as u32));
        }
        let (k, n) = (23, 21);
        let w = gen(&[n, k]);
        let sessions: Vec<Tensor> = [5usize, 0, 8, 1, 3]
            .iter()
            .enumerate()
            .map(|(i, &m)| gen(&[m, k]).map(|v| v * (i + 1) as f32 * 0.5))
            .collect();
        let refs: Vec<&Tensor> = sessions.iter().collect();
        for out in matmul_packed_batched(&refs, &PackedMatrix::pack_rhs_transposed(&w)) {
            fold(&mut h, &out);
        }
        for out in qmatmul_packed_batched(&refs, &QPackedMatrix::pack_rhs_transposed(&w)) {
            fold(&mut h, &out);
        }
        for (channels, height, width, stride, padding, dilation) in [
            (2, 7, 6, 1, 1, 1),
            (3, 9, 7, 2, 0, 1),
            (2, 9, 8, 2, 2, 2),
            (1, 11, 10, 3, 1, 1),
        ] {
            let spec = Im2ColSpec {
                channels,
                height,
                width,
                kernel: 3,
                stride,
                padding,
                dilation,
            };
            let img = gen(&[channels, height, width]);
            let w = gen(&[5, spec.patch_rows()]);
            let g = gen(&[6, spec.patch_cols()]);
            fold(
                &mut h,
                &PackedMatrix::pack_lhs(&w).matmul_im2col(&img, &spec),
            );
            fold(&mut h, &g.matmul_at_im2col(&img, &spec));
            fold(
                &mut h,
                &QPackedMatrix::pack_lhs(&w).qmatmul_im2col(&img, &spec),
            );
        }
        h
    }

    #[test]
    fn every_gemm_entry_point_reproduces_its_pinned_output_digest() {
        for width in [1usize, 8] {
            let digest = exec::with_threads(width, gemm_output_digest);
            assert_eq!(
                digest, 0xd3e5_7a6d_d9a2_561e,
                "GEMM output bits moved at pool width {width}"
            );
        }
    }

    #[test]
    fn every_kernel_tier_matches_tier_zero_bit_for_bit() {
        use crate::{normal, seeded_rng};
        // Every tier up to the host's runs on the same panels: the scalar
        // kernels (tier 0) are the yardstick, which the dispatch alone
        // would never reach on a SIMD host.
        for (i, k) in [0usize, 1, 2, 3, 7, 16, 33, 64].into_iter().enumerate() {
            let mut rng = seeded_rng(900 + i as u64);
            // Exact zeros in A exercise both kernels' zero-skips.
            let a =
                normal(&mut rng, &[MR, k], 0.0, 1.0).map(|v| if v.abs() < 0.3 { 0.0 } else { v });
            let b = normal(&mut rng, &[k, NR], 0.0, 1.0);
            let (fa, fb) = (
                Panels::lhs(a.as_slice(), MR, k),
                Panels::rhs(b.as_slice(), k, NR),
            );
            let qa: Vec<i8> = random_i8(&mut rng, MR * k)
                .into_iter()
                .map(|v| if v.abs() < 64 { 0 } else { v })
                .collect();
            let qb = random_i8(&mut rng, k * NR);
            let (qa, qb) = (Panels::lhs(&qa, MR, k), Panels::rhs(&qb, k, NR));
            let bits = |t: [[f32; NR]; MR]| t.map(|row| row.map(f32::to_bits));
            let want_f = bits(f32::tile(&fa.data, &fb.data, 0));
            let want_q = i8::tile(&qa.data, &qb.data, 0);
            for tier in 1..=simd::level() {
                let got_f = bits(f32::tile(&fa.data, &fb.data, tier));
                assert_eq!(got_f, want_f, "f32 tier {tier}, k = {k}");
                let got_q = i8::tile(&qa.data, &qb.data, tier);
                assert_eq!(got_q, want_q, "i8 tier {tier}, k = {k}");
            }
        }
    }

    #[test]
    fn shared_cache_version_bump_repacks_once_not_once_per_session() {
        let w = Tensor::arange(8).reshape(&[2, 4]);
        let shared: SharedPackedCache = SharedPackedCache::new();
        // Every session holds a clone of the same process-wide cache.
        let sessions: Vec<SharedPackedCache> = (0..6).map(|_| shared.clone()).collect();
        for s in &sessions {
            s.get_or_pack(1, || PackedMatrix::pack_rhs_transposed(&w));
        }
        assert_eq!(shared.pack_count(), 1, "first version packs once");
        // A weight push bumps the version: the first session to notice
        // repacks; the other five reuse the new panels.
        for s in &sessions {
            s.get_or_pack(2, || PackedMatrix::pack_rhs_transposed(&w));
        }
        assert_eq!(shared.pack_count(), 2, "version bump repacks exactly once");
        assert_eq!(shared.cached_version(), Some(2));
        shared.invalidate();
        assert_eq!(shared.cached_version(), None);
        sessions[0].get_or_pack(2, || PackedMatrix::pack_rhs_transposed(&w));
        assert_eq!(shared.pack_count(), 3, "invalidation forces one repack");
    }

    #[test]
    fn shared_cache_handout_survives_a_concurrent_repack() {
        let w1 = Tensor::arange(8).reshape(&[2, 4]);
        let w2 = w1.map(|v| v + 1.0);
        let shared: SharedPackedCache = SharedPackedCache::new();
        let old = shared.get_or_pack(1, || PackedMatrix::pack_rhs_transposed(&w1));
        // Another session races ahead to version 2; the old handout's
        // panels must stay valid (Arc keeps them alive).
        let new = shared.get_or_pack(2, || PackedMatrix::pack_rhs_transposed(&w2));
        assert_ne!(old.panels(), new.panels());
        let x = Tensor::arange(4).reshape(&[1, 4]);
        assert_eq!(
            x.matmul_packed(&old).as_slice(),
            x.matmul(&w1.transpose()).as_slice()
        );
    }
}
