//! Renders the SOLO pipeline's intermediate artifacts to image files and
//! prints the Fig-11-style timing diagram of a frame through the SoC.
//!
//! Writes into `./solo_viz/`: the frame, the IOI ground truth, the
//! saliency map, the foveated sample, the predicted mask overlay.
//!
//! ```text
//! cargo run --release --example visualize
//! ```

use solo_core::backbones::BackboneKind;
use solo_core::solonet::FoveatedPipeline;
use solo_core::solonet::PipelineConfig;
use solo_hw::soc::{Backbone, Dataset, Pipeline, SocModel};
use solo_hw::timing::render_gantt;
use solo_sampler::uniform_subsample;
use solo_scene::export::{overlay_mask, write_pgm, write_ppm};
use solo_scene::{DatasetConfig, SceneDataset};
use solo_tensor::seeded_rng;

fn main() -> std::io::Result<()> {
    let out = std::path::Path::new("solo_viz");
    std::fs::create_dir_all(out)?;

    let ds = DatasetConfig::aria_like().with_resolution(96);
    let cfg = PipelineConfig::for_dataset(&ds, 96, 24);
    let data = SceneDataset::new(ds);
    let mut rng = seeded_rng(17);
    println!("training a small SOLO pipeline for the demo…");
    let train = data.samples(80, &mut rng);
    let mut pipeline = FoveatedPipeline::new(&mut rng, BackboneKind::Hr, cfg, true, 5e-3);
    for _ in 0..6 {
        for s in &train {
            pipeline.train_step(s);
        }
    }

    let sample = data.sample(&mut rng);
    write_ppm(&sample.image, out.join("frame.ppm"))?;
    write_pgm(&sample.ioi_mask, out.join("ground_truth.pgm"))?;

    let preview = uniform_subsample(&sample.image, 24, 24);
    let saliency = pipeline.saliency.saliency(&preview, sample.gaze);
    write_pgm(&saliency, out.join("saliency.pgm"))?;

    let map = pipeline.index_map(&sample);
    let sampled = map.sample_bilinear(&sample.image);
    write_ppm(&sampled, out.join("foveated_sample.ppm"))?;

    let packed = pipeline.pack_sampled(&map, &sample);
    let (mask, logits) = pipeline.seg.infer(&packed);
    let up = map
        .upsample(&mask.reshape(&[1, 24, 24]))
        .into_reshaped(&[96, 96])
        .map(|v| if v > 0.5 { 1.0 } else { 0.0 });
    write_ppm(
        &overlay_mask(&sample.image, &up, 0.5),
        out.join("overlay.ppm"),
    )?;
    println!(
        "wrote 5 images to {}; predicted class {} (truth {})",
        out.display(),
        logits.argmax(),
        sample.ioi_class.id()
    );

    let soc = SocModel::default();
    println!("\nframe timing through the SoC (SOLO pipeline, HR on Aria):\n");
    let solo = soc.evaluate(Pipeline::Solo, Backbone::Hr, Dataset::Aria);
    print!("{}", render_gantt(&solo, 56));
    println!("\nand the same frame through the conventional FR+GPU path:\n");
    let fr = soc.evaluate(Pipeline::FrGpu, Backbone::Hr, Dataset::Aria);
    print!("{}", render_gantt(&fr, 56));
    Ok(())
}
