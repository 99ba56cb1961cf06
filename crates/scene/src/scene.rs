//! World-space scenes and viewport rendering.

use rand::Rng;
use serde::{Deserialize, Serialize};
use solo_tensor::Tensor;

use crate::ShapeClass;

/// One object placed in world coordinates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SceneObject {
    /// Object class.
    pub class: ShapeClass,
    /// Center in world units.
    pub cx: f32,
    /// Center in world units.
    pub cy: f32,
    /// Half-size in world units.
    pub size: f32,
    /// Rotation in radians.
    pub rotation: f32,
    /// Base RGB color in `[0, 1]`.
    pub color: [f32; 3],
    /// Stripe-texture spatial frequency (world units⁻¹); 0 = flat fill.
    pub texture_freq: f32,
    /// World-units-per-second velocity (nonzero only in DAVIS-like scenes).
    pub velocity: (f32, f32),
}

impl SceneObject {
    /// Whether a world-space point is inside this object.
    pub fn contains(&self, wx: f32, wy: f32) -> bool {
        Footprint::of(self).contains(wx, wy)
    }

    /// RGB color at a world point (stripe texture modulates the base color).
    pub fn shade(&self, wx: f32, wy: f32) -> [f32; 3] {
        let m = if self.texture_freq > 0.0 {
            0.8 + 0.2 * ((wx + wy) * self.texture_freq * std::f32::consts::TAU).sin()
        } else {
            1.0
        };
        [self.color[0] * m, self.color[1] * m, self.color[2] * m]
    }

    /// Advances the object by `dt_s` seconds of its velocity, bouncing off
    /// the `[0, 1]` world bounds.
    pub fn advance(&mut self, dt_s: f32) {
        self.cx += self.velocity.0 * dt_s;
        self.cy += self.velocity.1 * dt_s;
        if self.cx < 0.05 || self.cx > 0.95 {
            self.velocity.0 = -self.velocity.0;
            self.cx = self.cx.clamp(0.05, 0.95);
        }
        if self.cy < 0.05 || self.cy > 0.95 {
            self.velocity.1 = -self.velocity.1;
            self.cy = self.cy.clamp(0.05, 0.95);
        }
    }
}

/// An object's containment test with its per-object geometry taken once:
/// the rotation's `(sin, cos)` and the reach of its silhouette. Calls that
/// test many points build one per object and reuse it for every pixel.
#[derive(Debug, Clone, Copy)]
struct Footprint<'a> {
    object: &'a SceneObject,
    sin: f32,
    cos: f32,
    /// Every `contains_unit` silhouette lies in the de-rotated unit box,
    /// so within `√2·size` of the centre: a point farther than `1.5·size`
    /// along either world axis is outside whatever the rotation.
    reach: f32,
}

impl<'a> Footprint<'a> {
    fn of(object: &'a SceneObject) -> Self {
        let (sin, cos) = object.rotation.sin_cos();
        Self {
            object,
            sin,
            cos,
            reach: 1.5 * object.size.abs(),
        }
    }

    fn contains(&self, wx: f32, wy: f32) -> bool {
        let o = self.object;
        let dx = wx - o.cx;
        let dy = wy - o.cy;
        if dx.abs() > self.reach || dy.abs() > self.reach {
            return false;
        }
        let rx = (self.cos * dx + self.sin * dy) / o.size;
        let ry = (-self.sin * dx + self.cos * dy) / o.size;
        o.class.contains_unit(rx, ry)
    }
}

/// A color for an object: each class owns a hue band (as real-world object
/// categories do — bananas are yellow), jittered in hue and varied in
/// brightness, so appearance carries class evidence that survives heavy
/// downsampling while silhouettes remain the primary mask signal.
pub fn class_color(class: ShapeClass, rng: &mut impl Rng) -> [f32; 3] {
    let hue = (class.id() as f32 + rng.gen_range(-0.25..0.25)) / crate::NUM_CLASSES as f32;
    let value = rng.gen_range(0.7..1.0);
    let saturation = rng.gen_range(0.7..1.0);
    hsv_to_rgb(hue.rem_euclid(1.0), saturation, value)
}

fn hsv_to_rgb(h: f32, s: f32, v: f32) -> [f32; 3] {
    let i = (h * 6.0).floor();
    let f = h * 6.0 - i;
    let p = v * (1.0 - s);
    let q = v * (1.0 - f * s);
    let t = v * (1.0 - (1.0 - f) * s);
    match (i as i32).rem_euclid(6) {
        0 => [v, t, p],
        1 => [q, v, p],
        2 => [p, v, t],
        3 => [p, q, v],
        4 => [t, p, v],
        _ => [v, p, q],
    }
}

/// The textured background: a two-tone diagonal gradient with low-frequency
/// ripples, so frames have nonzero content saliency everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Background {
    /// Color at the world origin.
    pub tint_a: [f32; 3],
    /// Color at the far corner.
    pub tint_b: [f32; 3],
    /// Ripple amplitude.
    pub ripple: f32,
}

impl Default for Background {
    fn default() -> Self {
        Self {
            tint_a: [0.35, 0.4, 0.45],
            tint_b: [0.55, 0.5, 0.4],
            ripple: 0.04,
        }
    }
}

impl Background {
    /// RGB at a world point.
    pub fn shade(&self, wx: f32, wy: f32) -> [f32; 3] {
        let t = ((wx + wy) * 0.5).clamp(0.0, 1.0);
        let r = self.ripple * ((wx * 9.0).sin() + (wy * 7.0).cos());
        [
            (self.tint_a[0] + (self.tint_b[0] - self.tint_a[0]) * t + r).clamp(0.0, 1.0),
            (self.tint_a[1] + (self.tint_b[1] - self.tint_a[1]) * t + r).clamp(0.0, 1.0),
            (self.tint_a[2] + (self.tint_b[2] - self.tint_a[2]) * t + r).clamp(0.0, 1.0),
        ]
    }
}

/// A camera viewport into the world: what the AR front camera sees for a
/// given head orientation. Panning the window models head rotation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ViewWindow {
    /// World x of the viewport center.
    pub cx: f32,
    /// World y of the viewport center.
    pub cy: f32,
    /// Viewport side length in world units (field of view).
    pub span: f32,
}

impl ViewWindow {
    /// A viewport centered at `(cx, cy)` with the given span.
    ///
    /// # Panics
    ///
    /// Panics if `span` is not in `(0, 1]`.
    pub fn new(cx: f32, cy: f32, span: f32) -> Self {
        assert!(span > 0.0 && span <= 1.0, "span must be in (0, 1]");
        Self { cx, cy, span }
    }

    /// Pixel `(row, col)` of an `n×n` render → world coordinates.
    pub fn pixel_to_world(&self, row: usize, col: usize, n: usize) -> (f32, f32) {
        let half = self.span / 2.0;
        (
            self.cx - half + (col as f32 + 0.5) / n as f32 * self.span,
            self.cy - half + (row as f32 + 0.5) / n as f32 * self.span,
        )
    }

    /// World coordinates → normalized view coordinates in `[0,1]²` (may be
    /// outside if the point is out of view).
    pub fn world_to_view(&self, wx: f32, wy: f32) -> (f32, f32) {
        let half = self.span / 2.0;
        (
            (wx - (self.cx - half)) / self.span,
            (wy - (self.cy - half)) / self.span,
        )
    }
}

/// A set of objects on a background.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scene {
    /// Objects, later entries drawn on top.
    pub objects: Vec<SceneObject>,
    /// The background.
    pub background: Background,
}

impl Scene {
    /// Builds a random scene.
    ///
    /// `n_objects` objects of random classes are scattered in the world
    /// with half-sizes drawn from `size_range` (world units); `moving`
    /// gives every object a random velocity (DAVIS-like).
    pub fn random(
        rng: &mut impl Rng,
        n_objects: usize,
        size_range: (f32, f32),
        moving: bool,
    ) -> Self {
        let mut objects = Vec::with_capacity(n_objects);
        for _ in 0..n_objects {
            let class = ShapeClass::from_id(rng.gen_range(0..crate::NUM_CLASSES));
            let velocity = if moving {
                (rng.gen_range(-0.08..0.08), rng.gen_range(-0.08..0.08))
            } else {
                (0.0, 0.0)
            };
            objects.push(SceneObject {
                class,
                cx: rng.gen_range(0.1..0.9),
                cy: rng.gen_range(0.1..0.9),
                size: rng.gen_range(size_range.0..size_range.1),
                // Rotation is limited to ±20° so silhouette classes stay
                // distinguishable (an arbitrary rotation would alias
                // Square with Diamond).
                rotation: rng.gen_range(-0.35..0.35),
                color: class_color(class, rng),
                texture_freq: rng.gen_range(0.0..12.0),
                velocity,
            });
        }
        Self {
            objects,
            background: Background::default(),
        }
    }

    /// Renders an `n×n` RGB frame `[3, n, n]` of the viewport.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn render(&self, view: &ViewWindow, n: usize) -> Tensor {
        assert!(n > 0, "render resolution must be nonzero");
        let footprints = self.footprints();
        let mut data = vec![0.0f32; 3 * n * n];
        for row in 0..n {
            for col in 0..n {
                let (wx, wy) = view.pixel_to_world(row, col, n);
                // Topmost (last) containing object wins.
                let rgb = match footprints.iter().rev().find(|f| f.contains(wx, wy)) {
                    Some(f) => f.object.shade(wx, wy),
                    None => self.background.shade(wx, wy),
                };
                for ch in 0..3 {
                    data[(ch * n + row) * n + col] = rgb[ch];
                }
            }
        }
        Tensor::from_vec(data, &[3, n, n])
    }

    /// Renders the binary visibility mask `[n, n]` of object `idx` in the
    /// viewport (occlusion-aware: pixels covered by objects drawn on top of
    /// `idx` are excluded).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or `n == 0`.
    pub fn instance_mask(&self, idx: usize, view: &ViewWindow, n: usize) -> Tensor {
        assert!(idx < self.objects.len(), "object index out of range");
        assert!(n > 0, "render resolution must be nonzero");
        let footprints = self.footprints();
        // Occluders are objects drawn after idx.
        let (target, occluders) = (&footprints[idx], &footprints[idx + 1..]);
        let mut data = vec![0.0f32; n * n];
        for row in 0..n {
            for col in 0..n {
                let (wx, wy) = view.pixel_to_world(row, col, n);
                if target.contains(wx, wy) && !occluders.iter().any(|o| o.contains(wx, wy)) {
                    data[row * n + col] = 1.0;
                }
            }
        }
        Tensor::from_vec(data, &[n, n])
    }

    /// The per-pixel semantic map `[n, n]`: the class id of the topmost
    /// object at each pixel, or `NUM_CLASSES` for background. This is the
    /// supervision the FR (full-resolution conventional segmentation)
    /// baseline trains on.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn semantic_map(&self, view: &ViewWindow, n: usize) -> Tensor {
        assert!(n > 0, "render resolution must be nonzero");
        let footprints = self.footprints();
        let mut data = vec![crate::NUM_CLASSES as f32; n * n];
        for row in 0..n {
            for col in 0..n {
                let (wx, wy) = view.pixel_to_world(row, col, n);
                if let Some(f) = footprints.iter().rev().find(|f| f.contains(wx, wy)) {
                    data[row * n + col] = f.object.class.id() as f32;
                }
            }
        }
        Tensor::from_vec(data, &[n, n])
    }

    /// The union of all visible object masks `[n, n]` — the gaze-free
    /// saliency target used by the LTD baseline.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn foreground_mask(&self, view: &ViewWindow, n: usize) -> Tensor {
        self.semantic_map(view, n).map(|v| {
            if (v as usize) < crate::NUM_CLASSES {
                1.0
            } else {
                0.0
            }
        })
    }

    /// The index of the topmost object visible at a normalized view
    /// coordinate, if any — used to resolve which instance the user's gaze
    /// selects.
    pub fn object_at(&self, view: &ViewWindow, vx: f32, vy: f32) -> Option<usize> {
        let half = view.span / 2.0;
        let wx = view.cx - half + vx * view.span;
        let wy = view.cy - half + vy * view.span;
        self.objects.iter().rposition(|o| o.contains(wx, wy))
    }

    fn footprints(&self) -> Vec<Footprint<'_>> {
        self.objects.iter().map(Footprint::of).collect()
    }

    /// Advances all object positions by `dt_s` seconds.
    pub fn advance(&mut self, dt_s: f32) {
        for o in &mut self.objects {
            o.advance(dt_s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use solo_tensor::seeded_rng;

    fn one_circle() -> Scene {
        Scene {
            objects: vec![SceneObject {
                class: ShapeClass::Circle,
                cx: 0.5,
                cy: 0.5,
                size: 0.1,
                rotation: 0.0,
                color: [1.0, 0.0, 0.0],
                texture_freq: 0.0,
                velocity: (0.0, 0.0),
            }],
            background: Background::default(),
        }
    }

    #[test]
    fn render_shows_object_at_center() {
        let scene = one_circle();
        let view = ViewWindow::new(0.5, 0.5, 1.0);
        let img = scene.render(&view, 32);
        // Center pixel is red-ish; corner is background.
        assert!(img.at(&[0, 16, 16]) > 0.8);
        assert!(img.at(&[1, 16, 16]) < 0.2);
        assert!(img.at(&[0, 0, 0]) < 0.8);
    }

    #[test]
    fn instance_mask_matches_geometry() {
        let scene = one_circle();
        let view = ViewWindow::new(0.5, 0.5, 1.0);
        let mask = scene.instance_mask(0, &view, 64);
        // Circle of radius 0.1 in a unit viewport: area ≈ π·(0.1·64)² px.
        let area = mask.sum();
        let expect = std::f32::consts::PI * (0.1f32 * 64.0).powi(2);
        assert!(
            (area - expect).abs() / expect < 0.15,
            "mask area {area} vs geometric {expect}"
        );
        assert_eq!(mask.at(&[32, 32]), 1.0);
        assert_eq!(mask.at(&[0, 0]), 0.0);
    }

    #[test]
    fn occlusion_removes_covered_pixels() {
        let mut scene = one_circle();
        // Second object drawn on top, same place, bigger.
        let mut top = scene.objects[0].clone();
        top.size = 0.2;
        top.class = ShapeClass::Square;
        scene.objects.push(top);
        let view = ViewWindow::new(0.5, 0.5, 1.0);
        let bottom_mask = scene.instance_mask(0, &view, 32);
        assert_eq!(
            bottom_mask.sum(),
            0.0,
            "fully occluded object must have empty mask"
        );
        let top_mask = scene.instance_mask(1, &view, 32);
        assert!(top_mask.sum() > 0.0);
    }

    #[test]
    fn panning_the_view_moves_the_object() {
        let scene = one_circle();
        let left = scene.render(&ViewWindow::new(0.4, 0.5, 0.5), 32);
        let right = scene.render(&ViewWindow::new(0.6, 0.5, 0.5), 32);
        assert!(
            left.sub(&right).norm_sq() > 0.1,
            "head turn must change the frame"
        );
    }

    #[test]
    fn object_at_resolves_topmost() {
        let mut scene = one_circle();
        let mut top = scene.objects[0].clone();
        top.class = ShapeClass::Square;
        scene.objects.push(top);
        let view = ViewWindow::new(0.5, 0.5, 1.0);
        assert_eq!(scene.object_at(&view, 0.5, 0.5), Some(1));
        assert_eq!(scene.object_at(&view, 0.02, 0.02), None);
    }

    #[test]
    fn moving_objects_bounce_in_bounds() {
        let mut rng = seeded_rng(5);
        let mut scene = Scene::random(&mut rng, 6, (0.05, 0.1), true);
        for _ in 0..300 {
            scene.advance(0.1);
        }
        for o in &scene.objects {
            assert!((0.0..=1.0).contains(&o.cx));
            assert!((0.0..=1.0).contains(&o.cy));
        }
    }

    /// `SceneObject::contains` before its geometry was hoisted: the
    /// rotation's sine and cosine at every point and no reject box.
    fn contains_reference(o: &SceneObject, wx: f32, wy: f32) -> bool {
        let dx = wx - o.cx;
        let dy = wy - o.cy;
        let (s, c) = o.rotation.sin_cos();
        let rx = (c * dx + s * dy) / o.size;
        let ry = (-s * dx + c * dy) / o.size;
        o.class.contains_unit(rx, ry)
    }

    fn topmost_reference(scene: &Scene, wx: f32, wy: f32) -> Option<usize> {
        scene
            .objects
            .iter()
            .rposition(|o| contains_reference(o, wx, wy))
    }

    const PRESETS: [fn() -> crate::DatasetConfig; 6] = [
        crate::DatasetConfig::lvis_like,
        crate::DatasetConfig::ade_like,
        crate::DatasetConfig::aria_like,
        crate::DatasetConfig::davis_like,
        crate::DatasetConfig::crowded_like,
        crate::DatasetConfig::switching_like,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn rendering_matches_the_per_pixel_reference(
            seed in any::<u64>(),
            (vx, vy) in (0.0f32..1.0, 0.0f32..1.0),
            n in 1usize..40,
            spin in -3.2f32..3.2,
            probes in collection::vec((0.0f32..1.0, 0.0f32..1.0), 16),
        ) {
            for preset in PRESETS {
                let cfg = preset();
                let mut rng = seeded_rng(seed);
                let count = rng.gen_range(cfg.objects.0..=cfg.objects.1);
                let mut scene = Scene::random(&mut rng, count, cfg.object_size, cfg.moving);
                // Preset scenes stay within ±20°; the reject box must hold
                // at any rotation.
                if seed % 2 == 1 {
                    for o in &mut scene.objects {
                        o.rotation += spin;
                    }
                }
                let half = cfg.view_span / 2.0;
                let view = ViewWindow::new(
                    half + vx * (1.0 - cfg.view_span),
                    half + vy * (1.0 - cfg.view_span),
                    cfg.view_span,
                );

                let image = scene.render(&view, n);
                let semantic = scene.semantic_map(&view, n);
                let masks: Vec<Tensor> = (0..scene.objects.len())
                    .map(|idx| scene.instance_mask(idx, &view, n))
                    .collect();
                for row in 0..n {
                    for col in 0..n {
                        let (wx, wy) = view.pixel_to_world(row, col, n);
                        let top = topmost_reference(&scene, wx, wy);
                        let rgb = match top {
                            Some(i) => scene.objects[i].shade(wx, wy),
                            None => scene.background.shade(wx, wy),
                        };
                        for (ch, want) in rgb.iter().enumerate() {
                            prop_assert_eq!(image.at(&[ch, row, col]).to_bits(), want.to_bits());
                        }
                        let class = top.map_or(crate::NUM_CLASSES, |i| scene.objects[i].class.id());
                        prop_assert_eq!(semantic.at(&[row, col]), class as f32);
                        for (idx, mask) in masks.iter().enumerate() {
                            let visible = top == Some(idx);
                            prop_assert_eq!(mask.at(&[row, col]), if visible { 1.0 } else { 0.0 });
                        }
                    }
                }

                for &(px, py) in &probes {
                    let (wx, wy) = (
                        view.cx - half + px * view.span,
                        view.cy - half + py * view.span,
                    );
                    prop_assert_eq!(scene.object_at(&view, px, py), topmost_reference(&scene, wx, wy));
                }
                // Points straddling each object's 1.5·size reject edge, on
                // both world axes and the diagonals.
                for o in &scene.objects {
                    let reach = 1.5 * o.size;
                    for eps in [-1e-3f32, -1e-6, 0.0, 1e-6, 1e-3] {
                        let r = reach * (1.0 + eps);
                        for (sx, sy) in [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (1.0, 0.5), (-0.5, 1.0)] {
                            let (wx, wy) = (o.cx + sx * r, o.cy + sy * r);
                            for other in &scene.objects {
                                prop_assert_eq!(other.contains(wx, wy), contains_reference(other, wx, wy));
                            }
                            let (px, py) = view.world_to_view(wx, wy);
                            let (qx, qy) = (
                                view.cx - half + px * view.span,
                                view.cy - half + py * view.span,
                            );
                            prop_assert_eq!(scene.object_at(&view, px, py), topmost_reference(&scene, qx, qy));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn world_to_view_round_trips() {
        let view = ViewWindow::new(0.3, 0.7, 0.4);
        let (wx, wy) = view.pixel_to_world(10, 20, 64);
        let (vx, vy) = view.world_to_view(wx, wy);
        assert!((vx - 20.5 / 64.0).abs() < 1e-5);
        assert!((vy - 10.5 / 64.0).abs() < 1e-5);
    }
}
