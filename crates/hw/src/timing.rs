//! ASCII timing diagrams of priced frames — the Fig. 11 view of a
//! frame's life through the SoC — and the per-frame deadline budget the
//! resilience layer charges stage latencies against.

use crate::soc::CostBreakdown;
use crate::Latency;

/// A per-frame latency budget. The streaming loop charges each stage's
/// modeled latency against a fixed deadline; when a prospective stage
/// would overrun, the degradation ladder escalates to a cheaper rung
/// instead of silently missing the frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameBudget {
    deadline: Latency,
    spent: Latency,
}

impl FrameBudget {
    /// A budget with the given per-frame deadline.
    pub fn new(deadline: Latency) -> Self {
        Self {
            deadline,
            spent: Latency::ZERO,
        }
    }

    /// A budget that never overruns (infinite deadline) — the configuration
    /// under which fault-free runs must match the unbudgeted path exactly.
    pub fn unlimited() -> Self {
        Self::new(Latency::from_ms(f64::INFINITY))
    }

    /// Resets the spent counter at the top of a frame.
    pub fn start_frame(&mut self) {
        self.spent = Latency::ZERO;
    }

    /// Charges a stage and reports whether the frame is still within its
    /// deadline afterwards.
    pub fn charge(&mut self, stage: Latency) -> bool {
        self.spent += stage;
        !self.overrun()
    }

    /// Whether charging `stage` now would push the frame past its deadline.
    pub fn would_overrun(&self, stage: Latency) -> bool {
        self.spent + stage > self.deadline
    }

    /// Latency charged so far this frame.
    pub fn spent(&self) -> Latency {
        self.spent
    }

    /// The configured deadline.
    pub fn deadline(&self) -> Latency {
        self.deadline
    }

    /// Whether the frame has already overrun its deadline.
    pub fn overrun(&self) -> bool {
        self.spent > self.deadline
    }

    /// Budget left before the deadline (zero once overrun).
    pub fn remaining(&self) -> Latency {
        (self.deadline - self.spent).max(Latency::ZERO)
    }
}

/// Renders a priced frame as an ASCII Gantt chart, one row per stage laid
/// end to end in critical-path order, with a time axis in milliseconds.
/// `width` is the chart width in characters; every stage that takes time
/// gets at least one cell.
///
/// ```
/// use solo_hw::soc::{Backbone, Dataset, Pipeline, SocModel};
/// use solo_hw::timing::render_gantt;
///
/// let cost = SocModel::default().evaluate(Pipeline::Solo, Backbone::Hr, Dataset::Lvis);
/// let chart = render_gantt(&cost, 60);
/// assert!(chart.contains("segmentation"));
/// ```
///
/// # Panics
///
/// Panics if `width < 10`.
pub fn render_gantt(cost: &CostBreakdown, width: usize) -> String {
    assert!(width >= 10, "chart width must be at least 10");
    let stages = [
        ("sensing", cost.sensing.0),
        ("mipi", cost.mipi.0),
        ("dram", cost.dram.0),
        ("esnet", cost.esnet.0),
        ("segmentation", cost.segmentation.0),
        ("display", cost.display.0),
    ];
    let total_us = cost.latency().us().max(1e-9);
    let label_width = stages
        .iter()
        .map(|(stage, _)| stage.len())
        .fold(0, usize::max);
    let mut out = String::new();
    let mut start_us = 0.0;
    for (stage, duration) in stages {
        // A stage that takes time keeps one cell, even when it starts in
        // the chart's last half-cell.
        let min_len = usize::from(duration.us() > 0.0);
        let len = ((duration.us() / total_us) * width as f64).ceil() as usize;
        let start = ((start_us / total_us) * width as f64).round() as usize;
        let start = start.min(width - min_len);
        let len = len.max(min_len).min(width - start);
        out.push_str(&format!("{stage:<label_width$} |"));
        out.push_str(&" ".repeat(start));
        out.push_str(&"█".repeat(len));
        out.push_str(&" ".repeat(width - start - len));
        out.push_str(&format!("| {:>8.2} ms\n", duration.ms()));
        start_us += duration.us();
    }
    out.push_str(&format!(
        "{:<label_width$} |{}| total {:.2} ms\n",
        "",
        "-".repeat(width),
        total_us / 1e3
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soc::{Backbone, Dataset, Pipeline, SocModel};

    fn chart(pipeline: Pipeline) -> String {
        render_gantt(
            &SocModel::default().evaluate(pipeline, Backbone::Hr, Dataset::Lvis),
            50,
        )
    }

    #[test]
    fn chart_contains_every_stage() {
        let c = chart(Pipeline::Solo);
        for stage in ["sensing", "mipi", "esnet", "segmentation", "display"] {
            assert!(c.contains(stage), "missing {stage} in:\n{c}");
        }
    }

    #[test]
    fn fr_gpu_chart_is_dominated_by_segmentation() {
        let c = chart(Pipeline::FrGpu);
        // The segmentation row should hold the longest bar.
        let seg_bar = c
            .lines()
            .find(|l| l.starts_with("segmentation"))
            .expect("segmentation row")
            .matches('█')
            .count();
        for line in c.lines() {
            if !line.starts_with("segmentation") {
                assert!(line.matches('█').count() <= seg_bar);
            }
        }
    }

    #[test]
    fn every_stage_that_takes_time_keeps_a_cell() {
        // A short last stage that starts in the chart's last half-cell
        // (FR+GPU's display) must still show, inside the chart's width.
        let soc = SocModel::default();
        let pipelines = Pipeline::FIG13.into_iter().chain(Pipeline::TABLE4);
        for (p, b, d) in pipelines
            .flat_map(|p| Backbone::ALL.map(|b| (p, b)))
            .flat_map(|(p, b)| Dataset::MAIN.map(|d| (p, b, d)))
        {
            let cost = soc.evaluate(p, b, d);
            let stages = [
                cost.sensing.0,
                cost.mipi.0,
                cost.dram.0,
                cost.esnet.0,
                cost.segmentation.0,
                cost.display.0,
            ];
            for width in [50, 56, 60] {
                let chart = render_gantt(&cost, width);
                for (row, duration) in chart.lines().zip(stages) {
                    let bar = row.split('|').nth(1).expect("a bar between rules");
                    assert_eq!(bar.chars().count(), width, "{row}");
                    if duration > Latency::ZERO {
                        assert!(
                            bar.contains('█'),
                            "{} {} {} at width {width}: empty row\n{chart}",
                            p.name(),
                            b.name(),
                            d.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn budget_charges_against_deadline() {
        let mut b = FrameBudget::new(Latency::from_ms(10.0));
        assert!(b.charge(Latency::from_ms(6.0)));
        assert!(!b.would_overrun(Latency::from_ms(3.0)));
        assert!(b.would_overrun(Latency::from_ms(5.0)));
        assert!(!b.charge(Latency::from_ms(5.0)));
        assert!(b.overrun());
        assert_eq!(b.remaining(), Latency::ZERO);
        b.start_frame();
        assert!(!b.overrun());
        assert_eq!(b.spent(), Latency::ZERO);
        assert!((b.remaining().ms() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn unlimited_budget_never_overruns() {
        let mut b = FrameBudget::unlimited();
        assert!(b.charge(Latency::from_s(1e9)));
        assert!(!b.would_overrun(Latency::from_s(1e12)));
        assert!(!b.overrun());
    }
}
