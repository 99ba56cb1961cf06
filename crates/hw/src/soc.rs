//! End-to-end AR-SoC pipeline assembly (Figures 8 and 11).
//!
//! Composes the sensor, MIPI link, DRAM, compute engines and display into
//! each system configuration the paper evaluates (Section 6.2/6.4):
//!
//! | name      | sensing            | ESNet runs on | segmentation input |
//! |-----------|--------------------|---------------|--------------------|
//! | `FrGpu`   | full frame         | GPU           | full resolution    |
//! | `SubGpu`  | full frame         | GPU           | downsampled        |
//! | `SubAcc`  | full frame         | accelerator   | downsampled        |
//! | `SubNpu`  | full frame         | NPU           | downsampled        |
//! | `SbsGpu`  | preview + SBS      | GPU           | downsampled        |
//! | `SbsNpu`  | preview + SBS      | NPU           | downsampled        |
//! | `Solo`    | preview + SBS      | accelerator   | downsampled        |

use std::collections::HashMap;
use std::fmt;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::accelerator::{Accelerator, Workload};
use crate::display::Display;
use crate::dram::Dram;
use crate::gpu::GpuModel;
use crate::mipi::MipiLink;
use crate::npu::NpuModel;
use crate::sensor::{synthetic_foveated_selection, Lighting, Sensor, SensorCost};
use crate::{Energy, Latency};

/// Segmentation backbone family (Section 5: HRNet-W32 / SegFormer-B1 /
/// DeepLabV3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Backbone {
    /// HRNet-W32 — the largest and most accurate.
    Hr,
    /// SegFormer-B1 — the lightest.
    Sf,
    /// DeepLabV3-ResNet101 — in between.
    Dl,
}

impl Backbone {
    /// All backbones in paper order.
    pub const ALL: [Backbone; 3] = [Backbone::Hr, Backbone::Sf, Backbone::Dl];

    /// GFLOPs pinned at 640² input (Table 2, FR column on LVIS:
    /// 516 / 368 / 405).
    pub fn gflops_at_640(&self) -> f64 {
        match self {
            Backbone::Hr => 516.0,
            Backbone::Sf => 368.0,
            Backbone::Dl => 405.0,
        }
    }

    /// GFLOPs at an arbitrary square input side (area scaling — all three
    /// are fully-convolutional).
    pub fn gflops(&self, side: usize) -> f64 {
        self.gflops_at_640() * (side as f64 / 640.0).powi(2)
    }

    /// Display name used in the tables.
    pub fn name(&self) -> &'static str {
        match self {
            Backbone::Hr => "HR",
            Backbone::Sf => "SF",
            Backbone::Dl => "DL",
        }
    }
}

/// Evaluation corpus, fixing the frame geometry (Section 5/6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataset {
    /// ADE20K: 512² frames, downsampled to 64².
    Ade,
    /// LVIS: 640² frames, downsampled to 80².
    Lvis,
    /// Aria Everyday: 960² frames, downsampled to 120².
    Aria,
    /// DAVIS 2016: 480² frames, downsampled to 60².
    Davis,
}

impl Dataset {
    /// The three Table-2/Fig-13 datasets in paper order.
    pub const MAIN: [Dataset; 3] = [Dataset::Ade, Dataset::Lvis, Dataset::Aria];

    /// Full frame side.
    pub fn full_side(&self) -> usize {
        match self {
            Dataset::Ade => 512,
            Dataset::Lvis => 640,
            Dataset::Aria => 960,
            Dataset::Davis => 480,
        }
    }

    /// Downsampled side for the SOLO/LTD pipelines.
    pub fn down_side(&self) -> usize {
        match self {
            Dataset::Ade => 64,
            Dataset::Lvis => 80,
            Dataset::Aria => 120,
            Dataset::Davis => 60,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Ade => "ADE",
            Dataset::Lvis => "LVIS",
            Dataset::Aria => "Aria",
            Dataset::Davis => "DAVIS",
        }
    }
}

/// A system configuration under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pipeline {
    /// Conventional sensor + everything on the GPU at full resolution.
    FrGpu,
    /// Conventional sensor; SOLONet (incl. SBS resampling) on the GPU.
    SubGpu,
    /// Conventional sensor; ESNet on the SOLO accelerator.
    SubAcc,
    /// Conventional sensor; ESNet on the XR2-class NPU.
    SubNpu,
    /// Saliency-based sensor; ESNet on the GPU.
    SbsGpu,
    /// Saliency-based sensor; ESNet on the NPU.
    SbsNpu,
    /// The full SOLO system: SBS sensor + accelerator + GPU segmentation.
    Solo,
}

impl Pipeline {
    /// The five Fig-13(b) configurations in paper order.
    pub const FIG13: [Pipeline; 5] = [
        Pipeline::FrGpu,
        Pipeline::SubGpu,
        Pipeline::SubAcc,
        Pipeline::SbsGpu,
        Pipeline::Solo,
    ];

    /// The Table-4 configurations in paper order.
    pub const TABLE4: [Pipeline; 6] = [
        Pipeline::SubGpu,
        Pipeline::SubNpu,
        Pipeline::SubAcc,
        Pipeline::SbsGpu,
        Pipeline::SbsNpu,
        Pipeline::Solo,
    ];

    /// Display name used in the tables.
    pub fn name(&self) -> &'static str {
        match self {
            Pipeline::FrGpu => "FR+GPU",
            Pipeline::SubGpu => "Sub+GPU",
            Pipeline::SubAcc => "Sub+Acc",
            Pipeline::SubNpu => "Sub+NPU",
            Pipeline::SbsGpu => "SBS+GPU",
            Pipeline::SbsNpu => "SBS+NPU",
            Pipeline::Solo => "SOLO",
        }
    }

    /// The stages one frame of this configuration runs, in critical-path
    /// order. The SBS configurations read the preview and re-read its
    /// saliency selection; the others capture the full frame. ESNet runs
    /// once on the configuration's engine, and only FR+GPU segments at
    /// full resolution.
    fn stages(self, backbone: Backbone) -> Vec<Stage<'static>> {
        use EsnetEngine::{Accelerator, Gpu, Npu};
        let (sensing, engine): (&[Stage], _) = match self {
            Pipeline::FrGpu | Pipeline::SubGpu => (&[Stage::Capture], Gpu),
            Pipeline::SubNpu => (&[Stage::Capture], Npu),
            Pipeline::SubAcc => (&[Stage::Capture], Accelerator),
            Pipeline::SbsGpu => (&SBS, Gpu),
            Pipeline::SbsNpu => (&SBS, Npu),
            Pipeline::Solo => (&SBS, Accelerator),
        };
        let compute = [
            Stage::Esnet { engine, passes: 1 },
            Stage::Segment {
                backbone,
                full: self == Pipeline::FrGpu,
                batch: 1,
            },
            Stage::Display,
        ];
        [sensing, &compute].concat()
    }
}

/// Where ESNet executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EsnetEngine {
    Gpu,
    Npu,
    Accelerator,
}

/// One stage of a frame's life through the SoC (Fig. 11). A frame is a
/// list of stages, and `SocModel::price` sums it.
#[derive(Debug, Clone, Copy)]
enum Stage<'a> {
    /// Expose and read out the full frame on a conventional sensor, and
    /// ship it over MIPI.
    Capture,
    /// SBS phase 1: expose once, read the even-subsampled preview `I_d`
    /// and ship it.
    Preview,
    /// SBS phase 2: re-read the saliency-selected pixels from the
    /// already-exposed array (no second exposure), widened in area by
    /// `widen` (≥ 1), minus the PS rows of the `dead` ADC sub-groups. The
    /// warped frame shipped stays `down²`, so widening adds only ADC rounds.
    Reread { widen: f64, dead: &'a [usize] },
    /// `passes` ESNet runs (gaze + saliency + saccade + index map) on
    /// `engine`.
    Esnet { engine: EsnetEngine, passes: usize },
    /// Gaze detection and the SSA's reuse checks on the accelerator, over
    /// the preview. Priced into the ESNet field.
    Gaze,
    /// The segmentation network on the GPU, on the full or the downsampled
    /// frame, as one session's share of a dispatch of `batch` sessions.
    Segment {
        backbone: Backbone,
        full: bool,
        batch: usize,
    },
    /// Display presentation.
    Display,
}

/// The nominal SBS sensing stages: preview, then the re-read of the
/// saliency selection.
const SBS: [Stage<'static>; 2] = [
    Stage::Preview,
    Stage::Reread {
        widen: 1.0,
        dead: &[],
    },
];

/// The SOLO frame with the re-read widened by `widen` minus `dead`, and
/// segmentation as one session's share of a dispatch of `batch`.
fn solo_stages(backbone: Backbone, widen: f64, dead: &[usize], batch: usize) -> [Stage<'_>; 5] {
    [
        Stage::Preview,
        Stage::Reread { widen, dead },
        Stage::Esnet {
            engine: EsnetEngine::Accelerator,
            passes: 1,
        },
        Stage::Segment {
            backbone,
            full: false,
            batch,
        },
        Stage::Display,
    ]
}

/// Per-stage latency/energy of one frame through a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Outer-camera sensing (exposure + ADC/readout, both phases for SBS).
    pub sensing: (Latency, Energy),
    /// MIPI transfers (preview + resampled frame, or the full frame).
    pub mipi: (Latency, Energy),
    /// DRAM staging.
    pub dram: (Latency, Energy),
    /// ESNet (gaze + saliency + saccade + index map).
    pub esnet: (Latency, Energy),
    /// The segmentation network.
    pub segmentation: (Latency, Energy),
    /// Display presentation.
    pub display: (Latency, Energy),
    /// Platform base power drawn over the whole frame (latency part is 0).
    pub platform: (Latency, Energy),
}

impl CostBreakdown {
    /// Total end-to-end latency.
    pub fn latency(&self) -> Latency {
        self.sensing.0
            + self.mipi.0
            + self.dram.0
            + self.esnet.0
            + self.segmentation.0
            + self.display.0
            + self.platform.0
    }

    /// Total energy.
    pub fn energy(&self) -> Energy {
        self.sensing.1
            + self.mipi.1
            + self.dram.1
            + self.esnet.1
            + self.segmentation.1
            + self.display.1
            + self.platform.1
    }

    /// Combined sensing + MIPI (+DRAM) stage, as grouped in Fig. 14 (a).
    pub fn sensing_mipi(&self) -> (Latency, Energy) {
        (
            self.sensing.0 + self.mipi.0 + self.dram.0,
            self.sensing.1 + self.mipi.1 + self.dram.1,
        )
    }
}

/// The assembled SoC model.
///
/// A sensor readout costs what its sampling pattern costs, whatever the
/// frame, so the model simulates each distinct preview and SBS re-read once
/// and every later pricing call looks it up. The memo is a cache, not
/// state: equality and `Debug` see the configuration only, and a warm
/// model prices exactly like a fresh one.
#[derive(Clone)]
pub struct SocModel {
    gpu: GpuModel,
    npu: NpuModel,
    accelerator: Accelerator,
    mipi: MipiLink,
    dram: Dram,
    display: Display,
    /// Scene lighting (sets exposure).
    pub lighting: Lighting,
    /// Token keep ratio for GT-ViT (paper: 0.7).
    pub keep_ratio: f64,
    readouts: ReadoutMemo,
}

impl PartialEq for SocModel {
    fn eq(&self, other: &Self) -> bool {
        let Self {
            gpu,
            npu,
            accelerator,
            mipi,
            dram,
            display,
            lighting,
            keep_ratio,
            readouts: _,
        } = self;
        (
            gpu,
            npu,
            accelerator,
            mipi,
            dram,
            display,
            lighting,
            keep_ratio,
        ) == (
            &other.gpu,
            &other.npu,
            &other.accelerator,
            &other.mipi,
            &other.dram,
            &other.display,
            &other.lighting,
            &other.keep_ratio,
        )
    }
}

impl fmt::Debug for SocModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Self {
            gpu,
            npu,
            accelerator,
            mipi,
            dram,
            display,
            lighting,
            keep_ratio,
            readouts: _,
        } = self;
        f.debug_struct("SocModel")
            .field("gpu", gpu)
            .field("npu", npu)
            .field("accelerator", accelerator)
            .field("mipi", mipi)
            .field("dram", dram)
            .field("display", display)
            .field("lighting", lighting)
            .field("keep_ratio", keep_ratio)
            .finish()
    }
}

impl Default for SocModel {
    fn default() -> Self {
        Self {
            gpu: GpuModel::hrnet_anchored(),
            npu: NpuModel::default(),
            accelerator: Accelerator::default(),
            mipi: MipiLink::default(),
            dram: Dram::default(),
            display: Display,
            lighting: Lighting::Normal,
            keep_ratio: 0.7,
            readouts: ReadoutMemo::default(),
        }
    }
}

impl SocModel {
    /// A model with explicit lighting.
    pub fn with_lighting(lighting: Lighting) -> Self {
        Self {
            lighting,
            ..Self::default()
        }
    }

    /// Evaluates one frame through a pipeline (no SSA reuse; Section 6.2
    /// sets α = β = 0 so every frame runs the full path).
    pub fn evaluate(
        &self,
        pipeline: Pipeline,
        backbone: Backbone,
        dataset: Dataset,
    ) -> CostBreakdown {
        self.price(&pipeline.stages(backbone), dataset)
    }

    /// The cost of a *skipped* frame under the SSA (Section 4.3's
    /// `T_skip = T_c + T_m`): sense and transfer the preview `I_f^d`, run
    /// gaze detection + the reuse checks on the accelerator, and reuse the
    /// previous label map (no SBS re-sense, no segmentation, no new
    /// display push).
    pub fn skip_path(&self, dataset: Dataset) -> CostBreakdown {
        self.price(&[Stage::Preview, Stage::Gaze], dataset)
    }

    /// The cost of one SOLO frame run on a *degraded* rung of the
    /// resilience ladder: the saliency crop widened by an area factor
    /// `widen` (≥ 1; the phase-2 SBS selection side grows by `√widen`),
    /// optionally with dead ADC sub-groups excluded from the re-read.
    /// With `widen == 1.0` and no dead groups this is bit-identical to
    /// `evaluate(Pipeline::Solo, ..)` — the nominal path priced through
    /// the same stages.
    pub fn degraded_solo_path(
        &self,
        backbone: Backbone,
        dataset: Dataset,
        widen: f64,
        dead_groups: &[usize],
    ) -> CostBreakdown {
        self.price(&solo_stages(backbone, widen, dead_groups, 1), dataset)
    }

    /// The *marginal* per-session cost of one SOLO frame served inside a
    /// batch of `batch` concurrent sessions — the price the serving
    /// layer's admission control charges per user per tick.
    ///
    /// Per-user stages (sensing, MIPI, DRAM, ESNet crop indexing, display)
    /// are unchanged: every user owns their own sensor stream and display.
    /// The segmentation stage, however, runs as **one batched dispatch**
    /// over the shared weights: the GPU executes `batch ×` the FLOPs in a
    /// single launch and each session pays `latency(batch · flops) /
    /// batch`. Because the mobile-GPU model is dispatch-bound at small
    /// workloads (sub-linear latency in FLOPs), the marginal segmentation
    /// cost *falls* with batch size — the amortization the cross-session
    /// batched GEMM realizes in software. With `batch == 1` this is
    /// bit-identical to `evaluate(Pipeline::Solo, ..)`.
    pub fn batched_solo_path(
        &self,
        backbone: Backbone,
        dataset: Dataset,
        batch: usize,
    ) -> CostBreakdown {
        self.price(&solo_stages(backbone, 1.0, &[], batch), dataset)
    }

    /// The cost of the uniform-fallback rung: with no usable gaze there is
    /// no saliency to steer the SBS re-read, so the frame is the preview
    /// alone, segmented uniformly at the downsampled resolution. Drops the
    /// phase-2 re-sense, second MIPI transfer and ESNet — strictly cheaper
    /// than the nominal SOLO frame.
    pub fn uniform_fallback_path(&self, backbone: Backbone, dataset: Dataset) -> CostBreakdown {
        let segment = Stage::Segment {
            backbone,
            full: false,
            batch: 1,
        };
        self.price(&[Stage::Preview, segment, Stage::Display], dataset)
    }

    /// The cost of pre-warming `k` speculative candidates while a saccade
    /// is in flight: `k` ESNet passes on the accelerator (saliency + Eq. 2/3
    /// index-map construction at a predicted landing point each). No
    /// sensing, MIPI or DRAM stages — the pre-warm reads the preview the
    /// frame's own skip/run path already captured. Charged in full against
    /// the frame budget on the speculating frame: speculation is priced,
    /// never free, whether or not a candidate later commits.
    pub fn speculative_prewarm_path(&self, dataset: Dataset, k: usize) -> CostBreakdown {
        let engine = EsnetEngine::Accelerator;
        self.price(&[Stage::Esnet { engine, passes: k }], dataset)
    }

    /// The cost of a frame that *commits* a pre-warmed speculative
    /// candidate: identical to `evaluate(Pipeline::Solo, ..)` except that
    /// the ESNet stage ran during the saccade (charged by
    /// [`Self::speculative_prewarm_path`]) and is off the sensor-to-display
    /// critical path — the SBS re-read starts from the committed index map
    /// as soon as the landing is measured. Strictly cheaper than the
    /// reactive SOLO frame; the saving is exactly the ESNet latency.
    pub fn speculative_commit_path(&self, backbone: Backbone, dataset: Dataset) -> CostBreakdown {
        let mut cost = self.evaluate(Pipeline::Solo, backbone, dataset);
        // Platform base power integrates over the shortened frame; the
        // ESNet compute itself was already charged at pre-warm time.
        let shortened = cost.latency() - cost.esnet.0;
        cost.esnet = (Latency::ZERO, Energy::ZERO);
        cost.platform.1 = Energy::from_power(crate::calib::PLATFORM_POWER_W, shortened);
        cost
    }

    /// The cost of one tick of a *quarantined* session: the serving
    /// layer's supervisor has pulled the session out of batched dispatch
    /// and it serves its held mask from state — no sensing, no MIPI, no
    /// compute; just the display refresh and platform base power over it.
    /// Strictly cheaper than [`Self::skip_path`], which still senses and
    /// transfers the preview; quarantine frees that envelope budget for
    /// the admission queue.
    pub fn quarantined_stub_path(&self, dataset: Dataset) -> CostBreakdown {
        self.price(&[Stage::Display], dataset)
    }

    /// The cost of a re-admission *probe* tick: the supervisor runs the
    /// quarantined session one full SOLO frame *outside* the shared batch
    /// (it must not perturb batch-mates), so the segmentation dispatch is
    /// solo and unamortized — bit-identical to
    /// `evaluate(Pipeline::Solo, ..)` and never cheaper than the marginal
    /// batched price [`Self::batched_solo_path`] charges live sessions.
    pub fn probe_path(&self, backbone: Backbone, dataset: Dataset) -> CostBreakdown {
        self.evaluate(Pipeline::Solo, backbone, dataset)
    }

    /// Prices one frame as the sum of the stages it runs (Section 4.3),
    /// each adding into its own `CostBreakdown` field in list order. The
    /// bytes shipped over MIPI are written to DRAM and read back. The
    /// eye-tracking camera senses in parallel with the outer camera
    /// (Fig. 11) and a 128² monochrome capture never outlasts it, so a frame
    /// that senses at all adds its energy only. Platform power comes last.
    fn price(&self, stages: &[Stage], dataset: Dataset) -> CostBreakdown {
        let full = dataset.full_side();
        let down = dataset.down_side();
        let mut cost = CostBreakdown::default();
        let mut shipped = 0;
        for &stage in stages {
            match stage {
                Stage::Capture => {
                    let capture = Sensor::new(full, full).full_readout(self.lighting);
                    add(&mut cost.sensing, (capture.latency(), capture.energy()));
                    shipped += self.ship(&mut cost, full);
                }
                Stage::Preview => {
                    let preview = self.preview_readout(dataset);
                    add(&mut cost.sensing, (preview.latency(), preview.energy()));
                    shipped += self.ship(&mut cost, down);
                }
                Stage::Reread { widen, dead } => {
                    let side = ((down as f64 * widen.max(1.0).sqrt()).round() as usize).min(full);
                    let reread = self.sbs_reread(dataset, side, dead);
                    add(&mut cost.sensing, (reread.adc_readout, reread.adc_energy));
                    shipped += self.ship(&mut cost, down);
                }
                Stage::Esnet { engine, passes } => {
                    let esnet = Workload::esnet(down, down, self.keep_ratio);
                    let gflops = || esnet.gflops(&self.accelerator.array);
                    let (t, e) = match engine {
                        EsnetEngine::Gpu => {
                            let t = self
                                .gpu
                                .small_network_latency(gflops(), esnet.kernel_count());
                            (t, self.gpu.energy(t))
                        }
                        EsnetEngine::Npu => {
                            let t = self
                                .npu
                                .small_network_latency(gflops(), esnet.kernel_count());
                            (t, self.npu.energy(t))
                        }
                        EsnetEngine::Accelerator => {
                            let c = self.accelerator.run(&esnet);
                            (c.latency, c.energy)
                        }
                    };
                    add(&mut cost.esnet, (t * passes as f64, e * passes as f64));
                }
                Stage::Gaze => {
                    let mut gaze = Workload::gaze_only(self.keep_ratio);
                    gaze.preproc_pixels = (down as u64) * (down as u64);
                    let c = self.accelerator.run(&gaze);
                    add(&mut cost.esnet, (c.latency, c.energy));
                }
                Stage::Segment {
                    backbone,
                    full: at_full,
                    batch,
                } => {
                    let gflops = backbone.gflops(if at_full { full } else { down });
                    let mut t = self.gpu.latency(gflops);
                    if batch > 1 {
                        // Capped at the solo segmentation cost: the scheduler
                        // can always fall back to serial dispatch, so batching
                        // never makes a session's marginal price *worse* (the
                        // log-log GPU curve is only sub-linear inside its
                        // dispatch-bound anchored regime). Only a real batch
                        // goes through milliseconds: `from_ms(t.ms())` need
                        // not return `t`.
                        let b = batch as f64;
                        let share_ms = (self.gpu.latency(b * gflops).ms() / b).min(t.ms());
                        // lint:allow(U1): the archived batched prices were computed
                        // through this millisecond round trip; dropping it moves bits.
                        t = Latency::from_ms(share_ms);
                    }
                    add(&mut cost.segmentation, (t, self.gpu.energy(t)));
                }
                Stage::Display => {
                    let display = (self.display.latency(), self.display.energy());
                    add(&mut cost.display, display);
                }
            }
        }
        if shipped > 0 {
            let eye_tracker = Sensor::new(128, 128).full_readout(self.lighting);
            cost.sensing.1 += eye_tracker.energy();
        }
        // Written after MIPI, read by the compute engine.
        add(&mut cost.dram, self.dram.access(2 * shipped));
        cost.platform.1 = Energy::from_power(crate::calib::PLATFORM_POWER_W, cost.latency());
        cost
    }

    /// Ships a `side²` RGB frame over MIPI and returns its bytes.
    fn ship(&self, cost: &mut CostBreakdown, side: usize) -> usize {
        let m = self.mipi.transfer_frame(side, side, 3);
        add(&mut cost.mipi, (m.latency, m.energy));
        side * side * 3
    }

    /// The phase-1 preview readout `I_f^d`: the staggered `down²` grid.
    fn preview_readout(&self, dataset: Dataset) -> SensorCost {
        self.readouts.get(Readout::Preview {
            full: dataset.full_side(),
            down: dataset.down_side(),
            lighting: self.lighting,
        })
    }

    /// The phase-2 SBS re-read of the synthetic `side²` foveated selection,
    /// with the PS rows of `dead_groups` never converted. Order and
    /// repeats in `dead_groups` do not change the readout, so the key
    /// holds the sorted set.
    fn sbs_reread(&self, dataset: Dataset, side: usize, dead_groups: &[usize]) -> SensorCost {
        let mut dead = dead_groups.to_vec();
        dead.sort_unstable();
        dead.dedup();
        self.readouts.get(Readout::Sbs {
            full: dataset.full_side(),
            side,
            dead,
            lighting: self.lighting,
        })
    }

    /// Speedup of `pipeline` over the FR+GPU reference (Fig. 13 (b) top).
    pub fn speedup(&self, pipeline: Pipeline, backbone: Backbone, dataset: Dataset) -> f64 {
        let reference = self.evaluate(Pipeline::FrGpu, backbone, dataset).latency();
        let ours = self.evaluate(pipeline, backbone, dataset).latency();
        reference / ours
    }

    /// Energy saving of `pipeline` over FR+GPU (Fig. 13 (b) bottom).
    pub fn energy_saving(&self, pipeline: Pipeline, backbone: Backbone, dataset: Dataset) -> f64 {
        let reference = self.evaluate(Pipeline::FrGpu, backbone, dataset).energy();
        let ours = self.evaluate(pipeline, backbone, dataset).energy();
        reference / ours
    }
}

/// One sensor readout of a `full²` array, keyed by everything its cost
/// depends on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Readout {
    /// The staggered `down²` preview grid.
    Preview {
        full: usize,
        down: usize,
        lighting: Lighting,
    },
    /// The synthetic `side²` foveated selection, minus the rows of the
    /// sorted, deduplicated `dead` ADC sub-groups.
    Sbs {
        full: usize,
        side: usize,
        dead: Vec<usize>,
        lighting: Lighting,
    },
}

impl Readout {
    /// Simulates the readout on the sensor.
    fn sense(&self) -> SensorCost {
        match *self {
            Readout::Preview {
                full,
                down,
                lighting,
            } => Sensor::new(full, full).subsampled_readout(down, down, lighting),
            Readout::Sbs {
                full,
                side,
                ref dead,
                lighting,
            } => {
                let selection = synthetic_foveated_selection(full, side);
                Sensor::new(full, full).sbs_readout_with_dead_groups(&selection, lighting, dead)
            }
        }
    }
}

/// Simulated readouts by key. A miss simulates outside the lock and then
/// inserts, so a fill that panics inserts nothing; two threads racing on
/// one key insert the same value.
#[derive(Default)]
struct ReadoutMemo(Mutex<HashMap<Readout, SensorCost>>);

impl ReadoutMemo {
    fn get(&self, key: Readout) -> SensorCost {
        let hit = self.0.lock().get(&key).copied();
        hit.unwrap_or_else(|| {
            let cost = key.sense();
            self.0.lock().insert(key, cost);
            cost
        })
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.0.lock().len()
    }
}

impl Clone for ReadoutMemo {
    fn clone(&self) -> Self {
        Self(Mutex::new(self.0.lock().clone()))
    }
}

fn add(stage: &mut (Latency, Energy), (t, e): (Latency, Energy)) {
    stage.0 += t;
    stage.1 += e;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soc() -> SocModel {
        SocModel::default()
    }

    #[test]
    fn solo_is_fastest_everywhere() {
        for backbone in Backbone::ALL {
            for dataset in Dataset::MAIN {
                let solo = soc().evaluate(Pipeline::Solo, backbone, dataset).latency();
                for p in Pipeline::FIG13 {
                    let other = soc().evaluate(p, backbone, dataset).latency();
                    assert!(
                        solo <= other,
                        "{} {} {}: SOLO {} vs {} {}",
                        backbone.name(),
                        dataset.name(),
                        p.name(),
                        solo,
                        p.name(),
                        other
                    );
                }
            }
        }
    }

    #[test]
    fn ordering_matches_table_4() {
        // Sub+GPU > Sub+NPU > Sub+Acc and SBS+GPU > SBS+NPU > SOLO, in
        // all nine backbone × dataset groups.
        for b in Backbone::ALL {
            for d in Dataset::MAIN {
                let t = |p| soc().evaluate(p, b, d).latency();
                let group = format!("{} {}", b.name(), d.name());
                assert!(t(Pipeline::SubGpu) > t(Pipeline::SubNpu), "{group}");
                assert!(t(Pipeline::SubNpu) > t(Pipeline::SubAcc), "{group}");
                assert!(t(Pipeline::SbsGpu) > t(Pipeline::SbsNpu), "{group}");
                assert!(t(Pipeline::SbsNpu) > t(Pipeline::Solo), "{group}");
                // SBS beats its Sub counterpart (sensing+MIPI savings).
                assert!(t(Pipeline::SbsGpu) < t(Pipeline::SubGpu), "{group}");
                assert!(t(Pipeline::Solo) < t(Pipeline::SubAcc), "{group}");
            }
        }
    }

    #[test]
    fn committed_speculation_beats_the_reactive_solo_frame() {
        for backbone in Backbone::ALL {
            for dataset in Dataset::MAIN {
                let reactive = soc().evaluate(Pipeline::Solo, backbone, dataset);
                let commit = soc().speculative_commit_path(backbone, dataset);
                // The saving is exactly the ESNet stage latency.
                assert!(
                    commit.latency() < reactive.latency(),
                    "{} {}: commit {} vs reactive {}",
                    backbone.name(),
                    dataset.name(),
                    commit.latency(),
                    reactive.latency()
                );
                let saved = reactive.latency() - commit.latency();
                let esnet_plus_platform = reactive.esnet.0;
                assert!(
                    (saved.us() - esnet_plus_platform.us()).abs() < 1e-6,
                    "saved {} vs esnet {}",
                    saved,
                    esnet_plus_platform
                );
                assert_eq!(commit.esnet.0, Latency::ZERO);
            }
        }
    }

    #[test]
    fn prewarm_is_charged_linearly_in_k() {
        let d = Dataset::Aria;
        let zero = soc().speculative_prewarm_path(d, 0);
        assert_eq!(zero.latency(), Latency::ZERO);
        assert_eq!(zero.energy(), Energy::ZERO);
        let one = soc().speculative_prewarm_path(d, 1);
        let four = soc().speculative_prewarm_path(d, 4);
        assert!(one.esnet.0 > Latency::ZERO);
        assert!(
            (four.esnet.0.us() - 4.0 * one.esnet.0.us()).abs() < 1e-6,
            "prewarm must scale linearly: {} vs 4×{}",
            four.esnet.0,
            one.esnet.0
        );
        // The pre-warm matches the ESNet stage of the nominal SOLO frame:
        // the same work, just charged on the speculating frame.
        let solo = soc().evaluate(Pipeline::Solo, Backbone::Hr, d);
        assert_eq!(one.esnet.0, solo.esnet.0);
    }

    #[test]
    fn speedups_have_paper_magnitude() {
        // Paper: SOLO averages 8.6× speedup and 9.1× energy saving over
        // FR+GPU (Section 6.2). Require the same order of magnitude.
        let mut speedups = Vec::new();
        let mut savings = Vec::new();
        for backbone in Backbone::ALL {
            for dataset in Dataset::MAIN {
                speedups.push(soc().speedup(Pipeline::Solo, backbone, dataset));
                savings.push(soc().energy_saving(Pipeline::Solo, backbone, dataset));
            }
        }
        let mean_speedup: f64 = speedups.iter().sum::<f64>() / speedups.len() as f64;
        let mean_saving: f64 = savings.iter().sum::<f64>() / savings.len() as f64;
        assert!(
            mean_speedup > 4.0 && mean_speedup < 20.0,
            "mean speedup {mean_speedup}"
        );
        assert!(
            mean_saving > 4.0 && mean_saving < 30.0,
            "mean energy saving {mean_saving}"
        );
    }

    #[test]
    fn solo_latency_is_tens_of_milliseconds() {
        // Table 3: SOLO spans ≈36–49 ms across backbones/datasets.
        for backbone in Backbone::ALL {
            for dataset in Dataset::MAIN {
                let ms = soc()
                    .evaluate(Pipeline::Solo, backbone, dataset)
                    .latency()
                    .ms();
                assert!(
                    ms > 10.0 && ms < 80.0,
                    "{} {}: {ms} ms",
                    backbone.name(),
                    dataset.name()
                );
            }
        }
    }

    #[test]
    fn fr_gpu_latency_has_paper_magnitude() {
        // Table 3: FR+GPU spans ≈237–598 ms.
        let ms = soc()
            .evaluate(Pipeline::FrGpu, Backbone::Hr, Dataset::Aria)
            .latency()
            .ms();
        assert!(ms > 200.0 && ms < 900.0, "FR+GPU HR Aria {ms} ms");
    }

    #[test]
    fn segmentation_dominates_fr_but_not_solo() {
        // Fig 14 (a): FR+GPU is segmentation-bound; SOLO is balanced.
        let fr = soc().evaluate(Pipeline::FrGpu, Backbone::Hr, Dataset::Lvis);
        assert!(fr.segmentation.0 / fr.latency() > 0.6);
        let solo = soc().evaluate(Pipeline::Solo, Backbone::Hr, Dataset::Lvis);
        assert!(solo.segmentation.0 / solo.latency() < 0.8);
    }

    #[test]
    fn low_light_shrinks_sbs_advantage() {
        // Section 6.5.2: exposure dominates in low light, so SBS's relative
        // sensing gain drops (4.3× high-light vs 1.9× low-light).
        let gain = |l: Lighting| {
            let m = SocModel::with_lighting(l);
            let sub = m.evaluate(Pipeline::SubGpu, Backbone::Hr, Dataset::Aria);
            let sbs = m.evaluate(Pipeline::SbsGpu, Backbone::Hr, Dataset::Aria);
            sub.sensing_mipi().0 / sbs.sensing_mipi().0
        };
        let high = gain(Lighting::High);
        let low = gain(Lighting::Low);
        assert!(high > low, "high {high} vs low {low}");
        assert!(high > 2.0, "high-light sensing gain {high}");
        assert!(low > 1.2, "low-light sensing gain {low}");
    }

    #[test]
    fn nominal_degraded_path_matches_solo_exactly() {
        // The streaming ladder prices every gaze run, nominal included,
        // through `degraded_solo_path`, so the identity must hold for every
        // dataset the fault matrix streams (DAVIS too) and every backbone.
        for b in Backbone::ALL {
            for d in DATASETS {
                assert_eq!(
                    soc().degraded_solo_path(b, d, 1.0, &[]),
                    soc().evaluate(Pipeline::Solo, b, d),
                    "{} {}",
                    b.name(),
                    d.name()
                );
            }
        }
    }

    #[test]
    fn widening_the_crop_costs_sensing_time() {
        let b = Backbone::Hr;
        let d = Dataset::Lvis;
        let nominal = soc().degraded_solo_path(b, d, 1.0, &[]);
        let widened = soc().degraded_solo_path(b, d, 2.0, &[]);
        assert!(widened.sensing.0 > nominal.sensing.0);
        // Warp output is unchanged, so downstream stages are too.
        assert_eq!(widened.segmentation, nominal.segmentation);
        assert_eq!(widened.mipi, nominal.mipi);
    }

    #[test]
    fn dead_groups_cannot_make_readout_slower() {
        let b = Backbone::Sf;
        let d = Dataset::Ade;
        let healthy = soc().degraded_solo_path(b, d, 1.0, &[]);
        let faulty = soc().degraded_solo_path(b, d, 1.0, &[1]);
        assert!(faulty.sensing.0 <= healthy.sensing.0);
    }

    #[test]
    fn uniform_fallback_is_cheaper_than_solo_but_dearer_than_skip() {
        let b = Backbone::Hr;
        for d in Dataset::MAIN {
            let uniform = soc().uniform_fallback_path(b, d).latency();
            let solo = soc().evaluate(Pipeline::Solo, b, d).latency();
            let skip = soc().skip_path(d).latency();
            assert!(uniform < solo, "{}: {uniform} vs solo {solo}", d.name());
            assert!(uniform > skip, "{}: {uniform} vs skip {skip}", d.name());
        }
    }

    #[test]
    fn quarantined_stub_is_the_cheapest_tick_of_all() {
        for d in Dataset::MAIN {
            let stub = soc().quarantined_stub_path(d);
            let skip = soc().skip_path(d);
            assert!(
                stub.latency() < skip.latency(),
                "{}: stub {} vs skip {}",
                d.name(),
                stub.latency(),
                skip.latency()
            );
            assert!(stub.energy() < skip.energy());
            // Held state only: no sensing, transfer or compute stages.
            assert_eq!(stub.sensing.0, Latency::ZERO);
            assert_eq!(stub.mipi.0, Latency::ZERO);
            assert_eq!(stub.esnet.0, Latency::ZERO);
            assert_eq!(stub.segmentation.0, Latency::ZERO);
            assert!(stub.display.0 > Latency::ZERO);
        }
    }

    #[test]
    fn probe_prices_an_unamortized_solo_frame() {
        let b = Backbone::Hr;
        for d in Dataset::MAIN {
            let probe = soc().probe_path(b, d);
            assert_eq!(
                probe,
                soc().evaluate(Pipeline::Solo, b, d),
                "{}: a probe is the solo frame, run outside the batch",
                d.name()
            );
            // The probe never undercuts the amortized batched price.
            for batch in [2usize, 8, 64] {
                let marginal = soc().batched_solo_path(b, d, batch).latency();
                assert!(probe.latency() >= marginal);
            }
        }
    }

    #[test]
    fn batched_solo_marginal_cost_falls_monotonically_with_batch() {
        let b = Backbone::Hr;
        for d in Dataset::MAIN {
            let solo = soc().evaluate(Pipeline::Solo, b, d);
            assert_eq!(
                soc().batched_solo_path(b, d, 1),
                solo,
                "{}: batch of one must price exactly like the solo frame",
                d.name()
            );
            // Strictly cheaper in the dispatch-bound small-batch regime…
            let mut prev = solo.latency();
            for batch in [2usize, 4] {
                let marginal = soc().batched_solo_path(b, d, batch).latency();
                assert!(
                    marginal < prev,
                    "{}: batch {batch} marginal {marginal} not below {prev}",
                    d.name()
                );
                prev = marginal;
            }
            // …and never *worse* than serial dispatch at any batch size.
            for batch in [8usize, 16, 64] {
                let marginal = soc().batched_solo_path(b, d, batch).latency();
                assert!(
                    marginal <= solo.latency(),
                    "{}: batch {batch} marginal {marginal} above solo {}",
                    d.name(),
                    solo.latency()
                );
            }
            // Amortization only touches segmentation: per-user sensing is
            // a floor the batch can never amortize away.
            let floor = soc().batched_solo_path(b, d, 1 << 20);
            assert!(floor.latency() > solo.sensing_mipi().0);
        }
    }

    const DATASETS: [Dataset; 4] = [Dataset::Ade, Dataset::Lvis, Dataset::Aria, Dataset::Davis];
    const PIPELINES: [Pipeline; 7] = [
        Pipeline::FrGpu,
        Pipeline::SubGpu,
        Pipeline::SubAcc,
        Pipeline::SubNpu,
        Pipeline::SbsGpu,
        Pipeline::SbsNpu,
        Pipeline::Solo,
    ];
    const LIGHTINGS: [Lighting; 3] = [Lighting::Normal, Lighting::High, Lighting::Low];

    type Price = Box<dyn Fn(&SocModel) -> CostBreakdown>;

    /// Every pricing path, for every backbone and dataset, at the widen
    /// factors, dead-group sets, batch sizes and speculation depths the
    /// serving and streaming layers use.
    fn every_price() -> Vec<Price> {
        let mut prices: Vec<Price> = Vec::new();
        for b in Backbone::ALL {
            for d in DATASETS {
                for p in PIPELINES {
                    prices.push(Box::new(move |m| m.evaluate(p, b, d)));
                }
                prices.push(Box::new(move |m| m.skip_path(d)));
                prices.push(Box::new(move |m| m.uniform_fallback_path(b, d)));
                prices.push(Box::new(move |m| m.speculative_commit_path(b, d)));
                prices.push(Box::new(move |m| m.quarantined_stub_path(d)));
                prices.push(Box::new(move |m| m.probe_path(b, d)));
                for widen in [1.0, 1.5, 2.0, 4.0] {
                    for dead in [&[][..], &[1], &[3, 1], &[1, 1]] {
                        prices.push(Box::new(move |m| m.degraded_solo_path(b, d, widen, dead)));
                    }
                }
                for batch in 1..=64 {
                    prices.push(Box::new(move |m| m.batched_solo_path(b, d, batch)));
                }
                for k in 0..=4 {
                    prices.push(Box::new(move |m| m.speculative_prewarm_path(d, k)));
                }
            }
        }
        prices
    }

    #[test]
    fn a_warm_model_prices_exactly_like_a_fresh_one() {
        let prices = every_price();
        // Each reference price comes from a model that has simulated nothing.
        let fresh: Vec<Vec<CostBreakdown>> = LIGHTINGS
            .iter()
            .map(|&l| {
                prices
                    .iter()
                    .map(|price| price(&SocModel::with_lighting(l)))
                    .collect()
            })
            .collect();
        let mut warm = soc();
        let mut entries = Vec::new();
        for _pass in 0..2 {
            for (l, want) in LIGHTINGS.iter().zip(&fresh) {
                warm.lighting = *l;
                for (i, price) in prices.iter().enumerate() {
                    assert_eq!(price(&warm), want[i], "{l:?}: price #{i}");
                }
            }
            entries.push(warm.readouts.len());
        }
        // Per dataset and lighting: one preview, plus an SBS re-read per
        // widened side (4) and distinct dead set ([], [1], [1, 3]). A key
        // that missed on every call would keep growing on the second pass.
        assert_eq!(entries, [4 * 3 * (1 + 4 * 3); 2]);
    }

    /// 64-bit FNV-1a over the bits of all 14 fields of every price, in
    /// order. Hand-rolled because `DefaultHasher` is not stable across
    /// toolchains.
    fn digest(prices: impl IntoIterator<Item = CostBreakdown>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for c in prices {
            let fields = [
                c.sensing,
                c.mipi,
                c.dram,
                c.esnet,
                c.segmentation,
                c.display,
                c.platform,
            ];
            for (t, e) in fields {
                for x in [t.us(), e.uj()] {
                    for byte in x.to_bits().to_le_bytes() {
                        h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                    }
                }
            }
        }
        h
    }

    #[test]
    fn every_price_is_pinned_bit_for_bit() {
        // Every price of the grid at every lighting, pinned to the digest
        // of the hand-written pricing bodies the stage lists replaced: a
        // price that moves by one bit anywhere fails here.
        let prices = every_price();
        let all = LIGHTINGS.iter().flat_map(|&l| {
            let m = SocModel::with_lighting(l);
            prices.iter().map(move |price| price(&m))
        });
        assert_eq!(digest(all), 0xfce1_f2eb_d430_d5b4);
    }

    #[test]
    fn a_panicking_fill_inserts_nothing() {
        let m = soc();
        let skip = m.skip_path(Dataset::Ade);
        let before = m.readouts.len();
        let all_dead = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.degraded_solo_path(Backbone::Hr, Dataset::Ade, 1.0, &[0, 1, 2, 3])
        }));
        assert!(all_dead.is_err(), "every sub-group dead must panic");
        assert_eq!(m.readouts.len(), before);
        assert_eq!(m.skip_path(Dataset::Ade), skip);
    }

    #[test]
    fn the_memo_is_invisible_to_equality_and_debug() {
        fn shareable<T: Send + Sync + Clone>() {}
        shareable::<SocModel>();
        let warm = soc();
        warm.evaluate(Pipeline::Solo, Backbone::Hr, Dataset::Aria);
        assert!(warm.readouts.len() > 0);
        assert_eq!(warm, soc());
        assert_eq!(format!("{warm:?}"), format!("{:?}", soc()));
        assert_ne!(warm, SocModel::with_lighting(Lighting::Low));
        assert_eq!(warm.clone().readouts.len(), warm.readouts.len());
    }
}
