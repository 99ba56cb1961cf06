//! Ablation sweeps for the design choices DESIGN.md calls out:
//!
//! 1. GT-ViT token-pruning ratio vs accelerator cycles/energy;
//! 2. int8 vs f32 datapath energy and numerical error;
//! 3. ADC sub-groups per column vs readout rounds;
//! 4. sampler σ vs foveal sample concentration;
//! 5. Eq. 4 λ vs saliency-regularizer convergence.

use solo_bench::header;
use solo_hw::accelerator::{Accelerator, Workload};
use solo_hw::calib::accelerator as acal;
use solo_hw::sensor::{synthetic_foveated_selection, Lighting, Sensor};
use solo_sampler::{gaze_saliency, IndexMap, SamplerSpec};
use solo_tensor::{normal, seeded_rng, QPackedMatrix};

fn main() {
    pruning();
    quantization();
    adc_groups();
    sigma_sweep();
    lambda_sweep();
}

fn pruning() {
    header("Ablation 1 — token pruning ratio (GT-ViT on the accelerator)");
    let acc = Accelerator::default();
    println!(
        "{:>6} {:>12} {:>12} {:>10}",
        "keep", "cycles", "energy µJ", "latency"
    );
    for keep in [1.0, 0.9, 0.8, 0.7, 0.6, 0.5] {
        let cost = acc.run(&Workload::esnet(80, 80, keep));
        println!(
            "{keep:>6.1} {:>12} {:>12.1} {:>10}",
            cost.array_cycles,
            cost.energy.uj(),
            cost.latency.to_string()
        );
    }
}

fn quantization() {
    header("Ablation 2 — int8 vs f32 datapath");
    let mut rng = seeded_rng(9);
    let a = normal(&mut rng, &[64, 384], 0.0, 1.0);
    let w = normal(&mut rng, &[384, 384], 0.0, 1.0);
    // The product `Linear::infer_quant` runs: activations quantized per
    // tensor on the fly, weights per output channel at pack time.
    let exact = a.matmul_at(&w);
    let q = a.qmatmul_packed(&QPackedMatrix::pack_rhs_transposed(&w));
    let rel = exact.sub(&q).norm_sq().sqrt() / exact.norm_sq().sqrt();
    // f32 MACs cost ≈ 4× an int8 MAC at iso-node (energy tables).
    let w = Workload::esnet(80, 80, 0.7);
    let macs = w.macs(&Accelerator::default().array) as f64;
    println!("relative GEMM error from int8 : {rel:.4}");
    println!(
        "MAC energy, int8 vs f32       : {:.1} µJ vs {:.1} µJ",
        macs * acal::MAC_PJ / 1e6,
        macs * 4.0 * acal::MAC_PJ / 1e6
    );
}

fn adc_groups() {
    header("Ablation 3 — ADC sub-groups per column (960² frame, SBS 120²)");
    println!(
        "{:>7} {:>8} {:>12} {:>12}",
        "groups", "ADCs", "full rounds", "SBS rounds"
    );
    let sel = synthetic_foveated_selection(960, 120);
    for groups in [1usize, 2, 4, 8] {
        let s = Sensor::with_groups(960, 960, groups);
        let full = s.full_readout(Lighting::High);
        let sbs = s.sbs_readout(&sel, Lighting::High);
        println!(
            "{groups:>7} {:>8} {:>12} {:>12}",
            s.adc_count(),
            full.rounds,
            sbs.rounds
        );
    }
}

fn sigma_sweep() {
    header("Ablation 4 — sampler σ vs foveal concentration (64² → 16²)");
    println!("{:>8} {:>22}", "σ (px)", "samples within r=8 px");
    for sigma in [2.0f32, 4.0, 6.0, 9.0, 14.0, 20.0] {
        let spec = SamplerSpec::new(64, 64, 16, 16, sigma);
        let s = gaze_saliency(16, 16, (0.5, 0.5), 0.1, 0.02).map(|v| v * v);
        let map = IndexMap::from_saliency(&spec, &s);
        let near = map
            .pixel_indices()
            .iter()
            .filter(|&&(r, c)| ((r as f32 - 32.0).powi(2) + (c as f32 - 32.0).powi(2)).sqrt() < 8.0)
            .count();
        println!("{sigma:>8.1} {near:>22}");
    }
}

fn lambda_sweep() {
    header("Ablation 5 — Eq. 4 λ vs saliency-regularizer loss (40 steps)");
    use rand::Rng;
    use solo_core::esnet::SaliencyNet;
    use solo_gaze::GazePoint;
    use solo_nn::Adam;
    use solo_tensor::Tensor;
    println!("{:>6} {:>12}", "λ", "final MSE");
    for lambda in [0.01f32, 0.05, 0.1, 0.3, 1.0] {
        let mut rng = seeded_rng(11);
        let mut net = SaliencyNet::new(&mut rng, true);
        let preview = solo_tensor::uniform(&mut rng, &[3, 16, 16], 0.0, 1.0);
        let mut target = Tensor::zeros(&[16, 16]);
        for i in 5..11 {
            for j in 5..11 {
                target.set(&[i, j], 1.0);
            }
        }
        let gaze = GazePoint::new(rng.gen_range(0.3..0.7), rng.gen_range(0.3..0.7));
        let mut opt = Adam::new(5e-3 * lambda);
        let mut last = 0.0;
        for _ in 0..40 {
            last = net.train_step(&preview, gaze, &target, &mut opt);
        }
        println!("{lambda:>6.2} {last:>12.4}");
    }
}
