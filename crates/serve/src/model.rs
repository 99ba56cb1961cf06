//! The process-wide serving model: one set of weights, one set of packed
//! panels, any number of sessions.
//!
//! A [`ServeModel`] owns the segmentation head (a patch-tokenized two-layer
//! MLP over the warped crop) and the shared gaze-predictor RNN cell. Every
//! weight matrix is packed into blocked-GEMM panels through a
//! [`SharedPackedCache`] keyed on the model *version*: N sessions serving
//! concurrently fetch the same `Arc`'d panels, so a weight push (version
//! bump) repacks each matrix exactly once per process — never once per
//! session. Inference runs through the cross-session batched entry points
//! ([`matmul_packed_batched`] / [`qmatmul_packed_batched`]), which are
//! bit-identical to per-session calls by construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use rand::Rng;
use solo_core::resilience::{FrameOutcome, SoloError};
use solo_nn::{RnnCell, RnnCellPacked};
use solo_tensor::{
    matmul_packed_batched, qmatmul_packed_batched, xavier_uniform, PackedMatrix, QPackedMatrix,
    SharedPackedCache, Tensor,
};

/// Numeric path the segmentation head runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Precision {
    /// f32 blocked GEMM against the shared f32 panel twins.
    F32,
    /// int8 blocked GEMM against the shared int8 panel twins, with
    /// per-session activation scales.
    Int8,
}

impl Precision {
    /// Display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "i8",
        }
    }
}

/// Dimensions of the serving segmentation head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeModelConfig {
    /// Channels of the warped crop (3 for the RGB scenes).
    pub channels: usize,
    /// Side of the square warped crop the head segments.
    pub crop_side: usize,
    /// Side of the square patch one token covers; must divide `crop_side`.
    pub patch: usize,
    /// Hidden width of the per-token MLP.
    pub hidden: usize,
    /// Hidden width of the gaze-predictor RNN cell.
    pub predictor_hidden: usize,
}

impl ServeModelConfig {
    /// Defaults matched to the synthetic scenes: 96² frames previewed and
    /// cropped at 24², 4×4-pixel tokens, a 32-wide MLP and an 8-wide
    /// predictor.
    pub fn paper_default() -> Self {
        Self {
            channels: 3,
            crop_side: 24,
            patch: 4,
            hidden: 32,
            predictor_hidden: 8,
        }
    }

    /// Tokens per crop.
    pub fn tokens(&self) -> usize {
        let t = self.crop_side / self.patch;
        t * t
    }

    /// Features per token (`channels · patch²`).
    pub fn token_features(&self) -> usize {
        self.channels * self.patch * self.patch
    }

    /// Validates every knob's documented range.
    pub fn validate(&self) -> FrameOutcome<()> {
        if self.channels == 0
            || self.crop_side == 0
            || self.patch == 0
            || self.hidden == 0
            || self.predictor_hidden == 0
        {
            return Err(SoloError::InvalidConfig(
                "serve model dimensions must be nonzero",
            ));
        }
        if self.crop_side % self.patch != 0 {
            return Err(SoloError::InvalidConfig(
                "patch must divide the crop side exactly",
            ));
        }
        Ok(())
    }
}

/// The pushable parameters, swapped as one unit under the write lock so a
/// push is atomic: readers either see the old set or the new set, never a
/// torn mixture.
#[derive(Debug, Clone)]
struct HeadWeights {
    /// First MLP layer, `[hidden, channels·patch²]`.
    w1: Tensor,
    b1: Tensor,
    /// Second MLP layer, `[patch², hidden]` — per-pixel mask logits.
    w2: Tensor,
    b2: Tensor,
    /// Linear readout of the predictor hidden state to a gaze delta,
    /// `[2, predictor_hidden]`.
    readout: Tensor,
}

/// Why a staged weight push was refused. Nothing is mutated when any of
/// these fire: the model keeps serving the prior version in full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The push was staged against a version the model no longer serves
    /// (a competing push landed first). Transient: re-stage and retry.
    VersionFence {
        /// Version the push was built against.
        staged: u64,
        /// Version the model currently serves.
        current: u64,
    },
    /// The declared checksum does not match the staged tensors — a torn
    /// or corrupted transfer. Transient if re-staging re-reads the source.
    ChecksumMismatch {
        /// Checksum the push declared.
        declared: u64,
        /// Checksum recomputed over the staged tensors.
        computed: u64,
    },
    /// A staged tensor's shape disagrees with the model configuration.
    /// Permanent: retrying the same stage cannot succeed.
    ShapeMismatch(&'static str),
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::VersionFence { staged, current } => write!(
                f,
                "push staged against version {staged} but the model serves {current}"
            ),
            PushError::ChecksumMismatch { declared, computed } => write!(
                f,
                "push checksum mismatch: declared {declared:#018x}, computed {computed:#018x}"
            ),
            PushError::ShapeMismatch(what) => write!(f, "push shape mismatch: {what}"),
        }
    }
}

impl std::error::Error for PushError {}

/// A staged weight push: full replacement tensors for the head plus the
/// integrity fence they were built against. Build one with
/// [`WeightPush::stage`], which seals the checksum; transport corruption
/// is then detectable at apply time.
#[derive(Debug, Clone)]
pub struct WeightPush {
    /// Version the replacement was trained/diffed against. The push only
    /// applies while the model still serves this version.
    pub base_version: u64,
    /// FNV-1a over the staged tensors' shapes and f32 bit patterns.
    pub checksum: u64,
    /// Replacement `[hidden, channels·patch²]` first layer.
    pub w1: Tensor,
    /// Replacement first-layer bias.
    pub b1: Tensor,
    /// Replacement `[patch², hidden]` second layer.
    pub w2: Tensor,
    /// Replacement second-layer bias.
    pub b2: Tensor,
    /// Replacement `[2, predictor_hidden]` gaze readout.
    pub readout: Tensor,
}

/// FNV-1a (64-bit) over each tensor's shape then element bit patterns, in
/// argument order. Deterministic across platforms — it reads the exact
/// f32 bits, never the float values.
fn fnv1a_tensors(tensors: &[&Tensor]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for t in tensors {
        for &d in t.shape().dims() {
            eat(d as u64);
        }
        for &v in t.as_slice() {
            eat(u64::from(v.to_bits()));
        }
    }
    h
}

impl WeightPush {
    /// Stages a push and seals its checksum over the given tensors.
    pub fn stage(
        base_version: u64,
        w1: Tensor,
        b1: Tensor,
        w2: Tensor,
        b2: Tensor,
        readout: Tensor,
    ) -> Self {
        let checksum = fnv1a_tensors(&[&w1, &b1, &w2, &b2, &readout]);
        Self {
            base_version,
            checksum,
            w1,
            b1,
            w2,
            b2,
            readout,
        }
    }

    /// Recomputes the checksum over the staged tensors as they are *now*.
    pub fn computed_checksum(&self) -> u64 {
        fnv1a_tensors(&[&self.w1, &self.b1, &self.w2, &self.b2, &self.readout])
    }
}

/// The shared serving model (see the module docs).
#[derive(Debug)]
pub struct ServeModel {
    cfg: ServeModelConfig,
    /// Pushable parameters, swapped atomically by [`Self::push`].
    weights: RwLock<HeadWeights>,
    /// Gaze-predictor cell: `[gx, gy] → hidden`. Not covered by pushes
    /// (its weights live outside the push protocol), so it sits outside
    /// the lock.
    predictor: RnnCell,
    /// Parameter version; a bump (weight push) invalidates every shared
    /// panel cache at its next fetch. Only written while the weights
    /// write lock is held, so (weights, version) pairs read under the
    /// read lock are always consistent.
    version: AtomicU64,
    packed_w1: SharedPackedCache<PackedMatrix>,
    packed_w2: SharedPackedCache<PackedMatrix>,
    qpacked_w1: SharedPackedCache<QPackedMatrix>,
    qpacked_w2: SharedPackedCache<QPackedMatrix>,
    packed_cell: SharedPackedCache<RnnCellPacked>,
    packed_readout: SharedPackedCache<PackedMatrix>,
}

impl ServeModel {
    /// Creates a model with Xavier-uniform weights.
    ///
    /// # Errors
    ///
    /// Returns [`SoloError::InvalidConfig`] when `cfg` fails validation.
    pub fn new(rng: &mut impl Rng, cfg: ServeModelConfig) -> FrameOutcome<Self> {
        cfg.validate()?;
        let feat = cfg.token_features();
        let p2 = cfg.patch * cfg.patch;
        Ok(Self {
            cfg,
            weights: RwLock::new(HeadWeights {
                w1: xavier_uniform(rng, &[cfg.hidden, feat], feat, cfg.hidden),
                b1: Tensor::zeros(&[cfg.hidden]),
                w2: xavier_uniform(rng, &[p2, cfg.hidden], cfg.hidden, p2),
                b2: Tensor::zeros(&[p2]),
                readout: xavier_uniform(rng, &[2, cfg.predictor_hidden], cfg.predictor_hidden, 2),
            }),
            predictor: RnnCell::new(rng, 2, cfg.predictor_hidden),
            version: AtomicU64::new(0),
            packed_w1: SharedPackedCache::new(),
            packed_w2: SharedPackedCache::new(),
            qpacked_w1: SharedPackedCache::new(),
            qpacked_w2: SharedPackedCache::new(),
            packed_cell: SharedPackedCache::new(),
            packed_readout: SharedPackedCache::new(),
        })
    }

    /// The head dimensions.
    pub fn config(&self) -> &ServeModelConfig {
        &self.cfg
    }

    /// Current parameter version.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// Poison-tolerant read of the pushable weights: a panicked writer
    /// can only have poisoned the lock *after* its swap completed or
    /// before it started (the swap is a handful of moves), so the data is
    /// always a consistent version.
    fn read_weights(&self) -> RwLockReadGuard<'_, HeadWeights> {
        self.weights.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_weights(&self) -> RwLockWriteGuard<'_, HeadWeights> {
        self.weights.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Simulates a weight push: bumps the version so every shared panel
    /// cache repacks (once per process) at its next fetch. The weights
    /// themselves are unchanged, which keeps serving output comparable
    /// across pushes while still exercising the repack path. Takes the
    /// write lock so the bump fences against in-flight inference exactly
    /// like a real [`Self::push`].
    pub fn bump_version(&self) -> u64 {
        let _guard = self.write_weights();
        self.version.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Applies a staged weight push atomically, or refuses it leaving the
    /// model untouched.
    ///
    /// The apply order is all-checks-then-swap under the write lock:
    /// version fence first (the push must target the version currently
    /// served), then shape validation against the model config, then the
    /// checksum recomputed over the staged tensors. Nothing mutates until
    /// every check has passed, so *any* failure is a complete rollback by
    /// construction — every session keeps serving the prior version and
    /// the shared panel caches stay valid for it. On success the swap and
    /// the version bump happen under the same lock; the bumped version
    /// then repacks each shared panel cache exactly once, process-wide.
    ///
    /// # Errors
    ///
    /// [`PushError::VersionFence`], [`PushError::ShapeMismatch`] or
    /// [`PushError::ChecksumMismatch`]; see each variant for whether a
    /// retry can help.
    pub fn push(&self, push: &WeightPush) -> Result<u64, PushError> {
        let mut guard = self.write_weights();
        let current = self.version.load(Ordering::Relaxed);
        if push.base_version != current {
            return Err(PushError::VersionFence {
                staged: push.base_version,
                current,
            });
        }
        let feat = self.cfg.token_features();
        let p2 = self.cfg.patch * self.cfg.patch;
        let shape_checks: [(&Tensor, &[usize], &'static str); 5] = [
            (&push.w1, &[self.cfg.hidden, feat], "w1"),
            (&push.b1, &[self.cfg.hidden], "b1"),
            (&push.w2, &[p2, self.cfg.hidden], "w2"),
            (&push.b2, &[p2], "b2"),
            (&push.readout, &[2, self.cfg.predictor_hidden], "readout"),
        ];
        for (t, want, name) in shape_checks {
            if t.shape().dims() != want {
                return Err(PushError::ShapeMismatch(name));
            }
        }
        let computed = push.computed_checksum();
        if computed != push.checksum {
            return Err(PushError::ChecksumMismatch {
                declared: push.checksum,
                computed,
            });
        }
        guard.w1 = push.w1.clone();
        guard.b1 = push.b1.clone();
        guard.w2 = push.w2.clone();
        guard.b2 = push.b2.clone();
        guard.readout = push.readout.clone();
        Ok(self.version.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Total number of pack-closure runs across every shared cache — the
    /// repack bill the whole process has paid. The staleness tests pin
    /// this to "one per matrix per version", independent of session count.
    pub fn pack_events(&self) -> u64 {
        self.packed_w1.pack_count()
            + self.packed_w2.pack_count()
            + self.qpacked_w1.pack_count()
            + self.qpacked_w2.pack_count()
            + self.packed_cell.pack_count()
            + self.packed_readout.pack_count()
    }

    /// Rearranges a `[C, d, d]` crop into the `[tokens, C·patch²]` matrix
    /// the head's first GEMM consumes. Pure data movement, identical for
    /// the batched and sequential paths.
    ///
    /// # Panics
    ///
    /// Panics if `crop` is not `[channels, crop_side, crop_side]`.
    pub fn tokenize(&self, crop: &Tensor) -> Tensor {
        let (c, d, p) = (self.cfg.channels, self.cfg.crop_side, self.cfg.patch);
        assert_eq!(
            crop.shape().dims(),
            &[c, d, d],
            "crop shape mismatch: {} vs [{c}, {d}, {d}]",
            crop.shape()
        );
        let tn = d / p;
        let src = crop.as_slice();
        let len = self.cfg.tokens() * c * p * p;
        let mut out = solo_tensor::exec::take_buf_at("serve.tokenize", len);
        for ty in 0..tn {
            for tx in 0..tn {
                let t = ty * tn + tx;
                let dst = &mut out[t * c * p * p..(t + 1) * c * p * p];
                for ch in 0..c {
                    for dy in 0..p {
                        let row = ch * d * d + (ty * p + dy) * d + tx * p;
                        dst[ch * p * p + dy * p..ch * p * p + dy * p + p]
                            .copy_from_slice(&src[row..row + p]);
                    }
                }
            }
        }
        Tensor::from_vec(out, &[self.cfg.tokens(), c * p * p])
    }

    /// Reassembles per-token mask logits `[tokens, patch²]` into the
    /// `[d, d]` crop-space logit map.
    fn untokenize(&self, logits: &Tensor) -> Tensor {
        let (d, p) = (self.cfg.crop_side, self.cfg.patch);
        let tn = d / p;
        let src = logits.as_slice();
        let mut out = solo_tensor::exec::take_buf_at("serve.untokenize", d * d);
        for ty in 0..tn {
            for tx in 0..tn {
                let t = ty * tn + tx;
                for dy in 0..p {
                    let dst = (ty * p + dy) * d + tx * p;
                    out[dst..dst + p]
                        .copy_from_slice(&src[t * p * p + dy * p..t * p * p + dy * p + p]);
                }
            }
        }
        Tensor::from_vec(out, &[d, d])
    }

    /// Adds the layer bias and applies tanh in place, row-wise — the same
    /// elementwise chain whether the GEMM before it was batched or solo.
    fn bias_tanh(&self, mut x: Tensor, b: &Tensor) -> Tensor {
        let bs = b.as_slice();
        for row in x.as_mut_slice().chunks_exact_mut(bs.len()) {
            for (o, &bv) in row.iter_mut().zip(bs) {
                *o = (*o + bv).tanh();
            }
        }
        x
    }

    /// Adds the layer bias in place, row-wise.
    fn bias(&self, mut x: Tensor, b: &Tensor) -> Tensor {
        let bs = b.as_slice();
        for row in x.as_mut_slice().chunks_exact_mut(bs.len()) {
            for (o, &bv) in row.iter_mut().zip(bs) {
                *o += bv;
            }
        }
        x
    }

    /// Segments every crop in one pass of cross-session batched GEMMs:
    /// all crops' token matrices stack into a single fused dispatch per
    /// layer against the resident shared panels. Returns one `[d, d]`
    /// mask-logit map per crop.
    ///
    /// Bit-identical to calling it once per crop (the sequential serving
    /// baseline): the batched entry points pin per-member identity, and
    /// the bias/tanh stages are per-member elementwise. The int8 path
    /// quantizes each crop's activations with its own per-tensor scale,
    /// exactly as the solo call would.
    ///
    /// # Panics
    ///
    /// Panics if any crop is not `[channels, crop_side, crop_side]`.
    pub fn infer_batch(&self, crops: &[Tensor], precision: Precision) -> Vec<Tensor> {
        if crops.is_empty() {
            return Vec::new();
        }
        // Hold the read lock across both GEMMs so a concurrent push can
        // never tear the layer pair; the version is loaded under it, so
        // (weights, version) is a consistent snapshot.
        let w = self.read_weights();
        let v = self.version.load(Ordering::Relaxed);
        let tokens: Vec<Tensor> = crops.iter().map(|c| self.tokenize(c)).collect();
        let token_refs: Vec<&Tensor> = tokens.iter().collect();
        let hidden = match precision {
            Precision::F32 => {
                let p1 = self
                    .packed_w1
                    .get_or_pack(v, || PackedMatrix::pack_rhs_transposed(&w.w1));
                matmul_packed_batched(&token_refs, &p1)
            }
            Precision::Int8 => {
                let q1 = self
                    .qpacked_w1
                    .get_or_pack(v, || QPackedMatrix::pack_rhs_transposed(&w.w1));
                qmatmul_packed_batched(&token_refs, &q1)
            }
        };
        for t in tokens {
            t.recycle();
        }
        let act: Vec<Tensor> = hidden
            .into_iter()
            .map(|h| self.bias_tanh(h, &w.b1))
            .collect();
        let act_refs: Vec<&Tensor> = act.iter().collect();
        let logits = match precision {
            Precision::F32 => {
                let p2 = self
                    .packed_w2
                    .get_or_pack(v, || PackedMatrix::pack_rhs_transposed(&w.w2));
                matmul_packed_batched(&act_refs, &p2)
            }
            Precision::Int8 => {
                let q2 = self
                    .qpacked_w2
                    .get_or_pack(v, || QPackedMatrix::pack_rhs_transposed(&w.w2));
                qmatmul_packed_batched(&act_refs, &q2)
            }
        };
        for a in act {
            a.recycle();
        }
        logits
            .into_iter()
            .map(|l| {
                let l = self.bias(l, &w.b2);
                let mask = self.untokenize(&l);
                l.recycle();
                mask
            })
            .collect()
    }

    /// One predictor step for `S` sessions at once: `gazes` is `[S, 2]`
    /// (the tracker's current normalized gaze per session), `hidden` is
    /// `[S, predictor_hidden]`. Returns the next hidden states `[S,
    /// predictor_hidden]` and the predicted gaze deltas `[S, 2]`.
    ///
    /// Batches the RNN time-step loop across the *session* dimension —
    /// each session's sequence stays serial in time, but all sessions'
    /// step-`t` GEMMs fuse into one dispatch. Row-independent, so results
    /// are bit-identical at any batch size.
    pub fn predict_batch(&self, gazes: &Tensor, hidden: &Tensor) -> (Tensor, Tensor) {
        let w = self.read_weights();
        let v = self.version.load(Ordering::Relaxed);
        let cell = self.packed_cell.get_or_pack(v, || self.predictor.pack());
        let ro = self
            .packed_readout
            .get_or_pack(v, || PackedMatrix::pack_rhs_transposed(&w.readout));
        let next = self.predictor.step_batch(gazes, hidden, &cell);
        let delta = next.matmul_packed(&ro);
        (next, delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solo_tensor::{exec, normal, seeded_rng};

    fn model(seed: u64) -> ServeModel {
        let mut rng = seeded_rng(seed);
        match ServeModel::new(&mut rng, ServeModelConfig::paper_default()) {
            Ok(m) => m,
            Err(e) => panic!("paper_default must validate: {e}"),
        }
    }

    #[test]
    fn config_validation_rejects_unaligned_patches() {
        let mut cfg = ServeModelConfig::paper_default();
        cfg.patch = 5; // 24 % 5 != 0
        assert!(cfg.validate().is_err());
        cfg.patch = 0;
        assert!(cfg.validate().is_err());
        assert!(ServeModelConfig::paper_default().validate().is_ok());
    }

    #[test]
    fn tokenize_untokenize_round_trips_single_channel() {
        let mut cfg = ServeModelConfig::paper_default();
        cfg.channels = 1;
        let mut rng = seeded_rng(9);
        let m = match ServeModel::new(&mut rng, cfg) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        };
        let crop = normal(&mut rng, &[1, 24, 24], 0.0, 1.0);
        let toks = m.tokenize(&crop);
        assert_eq!(toks.shape().dims(), &[36, 16]);
        // With C = 1 a token row *is* a patch, so untokenize inverts it.
        let back = m.untokenize(&toks);
        assert_eq!(back.as_slice(), crop.as_slice());
    }

    #[test]
    fn batched_inference_is_bit_identical_to_sequential_per_crop() {
        let m = model(11);
        let mut rng = seeded_rng(12);
        let crops: Vec<Tensor> = (0..5)
            .map(|i| normal(&mut rng, &[3, 24, 24], 0.0, 0.3 + 0.4 * i as f32))
            .collect();
        for precision in [Precision::F32, Precision::Int8] {
            for width in [1usize, 8] {
                exec::with_threads(width, || {
                    let batched = m.infer_batch(&crops, precision);
                    for (i, crop) in crops.iter().enumerate() {
                        let solo = m.infer_batch(std::slice::from_ref(crop), precision);
                        assert_eq!(
                            batched[i].as_slice(),
                            solo[0].as_slice(),
                            "{} width {width} crop {i}",
                            precision.name()
                        );
                    }
                });
            }
        }
    }

    #[test]
    fn version_bump_repacks_each_matrix_once_for_all_sessions() {
        let m = std::sync::Arc::new(model(13));
        let mut rng = seeded_rng(14);
        let crops: Vec<Tensor> = (0..4)
            .map(|_| normal(&mut rng, &[3, 24, 24], 0.0, 1.0))
            .collect();
        let gazes = normal(&mut rng, &[4, 2], 0.5, 0.1);
        let hidden = Tensor::zeros(&[4, 8]);
        // Many "sessions" (calls) at version 0: w1+w2 pack once each per
        // precision, the predictor cell + readout once.
        for _ in 0..6 {
            m.infer_batch(&crops, Precision::F32);
            m.infer_batch(&crops, Precision::Int8);
            m.predict_batch(&gazes, &hidden);
        }
        assert_eq!(m.pack_events(), 6, "one pack per matrix, not per session");
        m.bump_version();
        for _ in 0..6 {
            m.infer_batch(&crops, Precision::F32);
            m.infer_batch(&crops, Precision::Int8);
            m.predict_batch(&gazes, &hidden);
        }
        assert_eq!(m.pack_events(), 12, "a weight push repacks exactly once");
    }

    fn staged_push(m: &ServeModel, seed: u64) -> WeightPush {
        let cfg = *m.config();
        let mut rng = seeded_rng(seed);
        let feat = cfg.token_features();
        let p2 = cfg.patch * cfg.patch;
        WeightPush::stage(
            m.version(),
            xavier_uniform(&mut rng, &[cfg.hidden, feat], feat, cfg.hidden),
            normal(&mut rng, &[cfg.hidden], 0.0, 0.01),
            xavier_uniform(&mut rng, &[p2, cfg.hidden], cfg.hidden, p2),
            normal(&mut rng, &[p2], 0.0, 0.01),
            xavier_uniform(
                &mut rng,
                &[2, cfg.predictor_hidden],
                cfg.predictor_hidden,
                2,
            ),
        )
    }

    #[test]
    fn push_applies_atomically_and_repacks_once() {
        let m = model(21);
        let mut rng = seeded_rng(22);
        let crops = [normal(&mut rng, &[3, 24, 24], 0.0, 1.0)];
        let before = m.infer_batch(&crops, Precision::F32);
        let push = staged_push(&m, 23);
        let v = match m.push(&push) {
            Ok(v) => v,
            Err(e) => panic!("valid push must apply: {e}"),
        };
        assert_eq!(v, 1);
        assert_eq!(m.version(), 1);
        let after = m.infer_batch(&crops, Precision::F32);
        assert_ne!(
            before[0].as_slice(),
            after[0].as_slice(),
            "new weights must change the served masks"
        );
        // A second fetch at the new version reuses the repacked panels.
        let packs = m.pack_events();
        m.infer_batch(&crops, Precision::F32);
        assert_eq!(m.pack_events(), packs, "push repacks once, not per call");
    }

    #[test]
    fn corrupted_push_rolls_back_completely() {
        let m = model(31);
        let mut rng = seeded_rng(32);
        let crops = [normal(&mut rng, &[3, 24, 24], 0.0, 1.0)];
        let before = m.infer_batch(&crops, Precision::F32);
        let packs = m.pack_events();

        // Corruption after sealing: flip one weight bit in transit.
        let mut torn = staged_push(&m, 33);
        let mut v = torn.w1.as_slice().to_vec();
        v[0] = f32::from_bits(v[0].to_bits() ^ 1);
        torn.w1 = Tensor::from_vec(v, &[m.config().hidden, m.config().token_features()]);
        match m.push(&torn) {
            Err(PushError::ChecksumMismatch { declared, computed }) => {
                assert_ne!(declared, computed);
            }
            other => panic!("torn push must be refused, got {other:?}"),
        }

        // Wrong-shaped readout.
        let mut bad = staged_push(&m, 34);
        bad.readout = Tensor::zeros(&[3, m.config().predictor_hidden]);
        bad.checksum = bad.computed_checksum();
        assert_eq!(m.push(&bad), Err(PushError::ShapeMismatch("readout")));

        // Stale fence.
        let stale = staged_push(&m, 35);
        m.bump_version();
        assert_eq!(
            m.push(&stale),
            Err(PushError::VersionFence {
                staged: 0,
                current: 1
            })
        );

        // All sessions keep serving the prior weights: output bits are as
        // before the failed pushes, and the only new pack events are the
        // fence bump's per-matrix repacks of the same bits (w1 + w2 on
        // this f32 path) — the refused pushes themselves packed nothing.
        let after = m.infer_batch(&crops, Precision::F32);
        assert_eq!(before[0].as_slice(), after[0].as_slice());
        assert_eq!(m.pack_events(), packs + 2, "only the bump's repacks");
    }

    #[test]
    fn predictor_is_batch_size_invariant() {
        let m = model(15);
        let mut rng = seeded_rng(16);
        let gazes = normal(&mut rng, &[6, 2], 0.5, 0.2);
        let hidden = normal(&mut rng, &[6, 8], 0.0, 0.5);
        let (next, delta) = m.predict_batch(&gazes, &hidden);
        for i in 0..6 {
            let (n1, d1) = m.predict_batch(
                &gazes.row(i).reshape(&[1, 2]),
                &hidden.row(i).reshape(&[1, 8]),
            );
            assert_eq!(next.row(i).as_slice(), n1.as_slice(), "session {i}");
            assert_eq!(delta.row(i).as_slice(), d1.as_slice(), "session {i}");
        }
    }
}
