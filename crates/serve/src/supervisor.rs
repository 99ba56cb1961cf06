//! Per-session supervision for the serving layer: health scoring,
//! quarantine, and exponential-backoff re-admission probes.
//!
//! The [`Supervisor`] is a pure state machine over slot indices — it never
//! touches sessions, models or budgets. Each supervised tick the server
//! feeds it one [`HealthSignal`] per live slot and it answers which slots
//! to quarantine; for quarantined slots it schedules the re-admission
//! probes. The server parks a quarantined session in its own slot, so the
//! machine holds no session state. Keeping it session-free makes the
//! quarantine policy unit-testable in isolation and keeps this hot path
//! trivially panic-free.

use solo_core::resilience::{FrameOutcome, SoloError};

/// Supervision thresholds and probe backoff knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Consecutive ticks a session may overrun its envelope slice before
    /// quarantine.
    pub overrun_limit: usize,
    /// Consecutive ladder-floor (mask-reuse rung) decisions before
    /// quarantine — a session pinned to the floor pays for ticks that
    /// serve a stale mask.
    pub floor_dwell_limit: usize,
    /// Consecutive tracker-unusable frames before quarantine.
    pub loss_streak_limit: usize,
    /// Ticks from quarantine to the first re-admission probe; subsequent
    /// probes double the wait.
    pub probe_backoff_ticks: usize,
    /// Cap on the doubled backoff.
    pub probe_backoff_cap: usize,
}

impl SupervisorConfig {
    /// Defaults tuned to the chaos sweeps: quarantine after 4 sliced
    /// overruns, 8 floor decisions or 18 lost frames (inside the dropout
    /// plan's 30–80-frame outages, so deep outages reliably quarantine);
    /// probe at 4 ticks doubling to 32.
    pub fn paper_default() -> Self {
        Self {
            overrun_limit: 4,
            floor_dwell_limit: 8,
            loss_streak_limit: 18,
            probe_backoff_ticks: 4,
            probe_backoff_cap: 32,
        }
    }

    /// Validates every knob's documented range.
    pub fn validate(&self) -> FrameOutcome<()> {
        if self.overrun_limit == 0
            || self.floor_dwell_limit == 0
            || self.loss_streak_limit == 0
            || self.probe_backoff_ticks == 0
        {
            return Err(SoloError::InvalidConfig(
                "supervisor limits and probe backoff must be nonzero",
            ));
        }
        if self.probe_backoff_cap < self.probe_backoff_ticks {
            return Err(SoloError::InvalidConfig(
                "probe_backoff_cap must be >= probe_backoff_ticks",
            ));
        }
        Ok(())
    }
}

/// One live slot's health signals for one supervised tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthSignal {
    /// Whether the tracker delivered a usable gaze this frame.
    pub tracker_usable: bool,
    /// Whether this session's tick charge exceeded its envelope slice.
    pub slice_overrun: bool,
    /// The session ladder's consecutive floor-rung dwell.
    pub floor_dwell: usize,
}

/// Per-slot supervision state.
#[derive(Debug, Clone)]
enum SlotState {
    /// Served in the batched dispatch; streaks build toward quarantine.
    Live {
        overrun_streak: usize,
        loss_streak: usize,
    },
    /// Out of the batched dispatch, serving a held-state stub.
    Quarantined {
        /// Tick of the next re-admission probe.
        next_probe: usize,
        /// Current backoff (doubles per failed probe, capped).
        backoff: usize,
    },
}

impl SlotState {
    fn live() -> Self {
        SlotState::Live {
            overrun_streak: 0,
            loss_streak: 0,
        }
    }
}

/// The supervision state machine (see the module docs).
#[derive(Debug, Clone)]
pub struct Supervisor {
    cfg: SupervisorConfig,
    slots: Vec<SlotState>,
    quarantines: usize,
    probes: usize,
    readmissions: usize,
}

impl Supervisor {
    /// A supervisor with no slots yet.
    ///
    /// # Errors
    ///
    /// Returns [`SoloError::InvalidConfig`] when `cfg` fails validation.
    pub fn new(cfg: SupervisorConfig) -> FrameOutcome<Self> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            slots: Vec::new(),
            quarantines: 0,
            probes: 0,
            readmissions: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// Registers a newly admitted slot (healthy, zero streaks).
    pub(crate) fn on_admit(&mut self) {
        self.slots.push(SlotState::live());
    }

    /// Whether slot `i` is quarantined. Out-of-range slots read as live.
    pub fn is_quarantined(&self, i: usize) -> bool {
        matches!(self.slots.get(i), Some(SlotState::Quarantined { .. }))
    }

    /// Number of currently quarantined slots.
    pub fn quarantined_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, SlotState::Quarantined { .. }))
            .count()
    }

    /// Whether quarantined slot `i` is due a re-admission probe at `now`.
    pub fn probe_due(&self, i: usize, now: usize) -> bool {
        match self.slots.get(i) {
            Some(SlotState::Quarantined { next_probe, .. }) => now >= *next_probe,
            _ => false,
        }
    }

    /// Quarantines slot `i`. The first probe is scheduled
    /// `probe_backoff_ticks` after `now`.
    pub(crate) fn quarantine(&mut self, i: usize, now: usize) {
        if let Some(slot) = self.slots.get_mut(i) {
            let backoff = self.cfg.probe_backoff_ticks;
            *slot = SlotState::Quarantined {
                next_probe: now + backoff,
                backoff,
            };
            self.quarantines += 1;
        }
    }

    /// Records a probe outcome for slot `i`: a healthy probe re-admits
    /// the slot (streaks cleared); a failed one doubles the backoff
    /// (capped).
    pub(crate) fn record_probe(&mut self, i: usize, now: usize, healthy: bool) {
        self.probes += 1;
        let cap = self.cfg.probe_backoff_cap;
        if let Some(slot) = self.slots.get_mut(i) {
            if healthy {
                *slot = SlotState::live();
                self.readmissions += 1;
            } else if let SlotState::Quarantined {
                next_probe,
                backoff,
            } = slot
            {
                *backoff = backoff.saturating_mul(2).min(cap);
                *next_probe = now + *backoff;
            }
        }
    }

    /// Scores one supervised tick: `signals[i]` carries live slot `i`'s
    /// health signals (`None` for quarantined or probed slots). Streaks
    /// update in place; the returned indices are the slots whose streaks
    /// crossed a quarantine threshold this tick — the server parks them
    /// and quarantines them via `Self::quarantine`.
    ///
    /// This is the supervision hot path: it must stay panic-free (lint
    /// rule P2 walks it), so every slot access is checked and a
    /// signals/slots length mismatch degrades to "no decision" for the
    /// missing slots rather than panicking mid-tick.
    pub fn tick(&mut self, signals: &[Option<HealthSignal>]) -> Vec<usize> {
        let mut verdicts = Vec::new();
        for (i, sig) in signals.iter().enumerate() {
            let Some(sig) = sig else { continue };
            let Some(SlotState::Live {
                overrun_streak,
                loss_streak,
            }) = self.slots.get_mut(i)
            else {
                continue;
            };
            *overrun_streak = if sig.slice_overrun {
                *overrun_streak + 1
            } else {
                0
            };
            *loss_streak = if sig.tracker_usable {
                0
            } else {
                *loss_streak + 1
            };
            if *overrun_streak >= self.cfg.overrun_limit
                || *loss_streak >= self.cfg.loss_streak_limit
                || sig.floor_dwell >= self.cfg.floor_dwell_limit
            {
                verdicts.push(i);
            }
        }
        verdicts
    }

    /// Total quarantine events so far.
    pub fn quarantines(&self) -> usize {
        self.quarantines
    }

    /// Total re-admission probes run so far.
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// Total successful re-admissions so far.
    pub fn readmissions(&self) -> usize {
        self.readmissions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sup() -> Supervisor {
        match Supervisor::new(SupervisorConfig::paper_default()) {
            Ok(s) => s,
            Err(e) => panic!("paper default must validate: {e}"),
        }
    }

    #[test]
    fn config_validation_rejects_zero_limits() {
        let mut cfg = SupervisorConfig::paper_default();
        cfg.loss_streak_limit = 0;
        assert!(cfg.validate().is_err());
        cfg = SupervisorConfig::paper_default();
        cfg.probe_backoff_cap = 1;
        assert!(cfg.validate().is_err(), "cap below base backoff");
        assert!(SupervisorConfig::paper_default().validate().is_ok());
    }

    #[test]
    fn loss_streak_quarantines_at_the_limit_and_resets_on_recovery() {
        let mut s = sup();
        s.on_admit();
        s.on_admit();
        let lost = HealthSignal {
            tracker_usable: false,
            ..HealthSignal::default()
        };
        let fine = HealthSignal {
            tracker_usable: true,
            ..HealthSignal::default()
        };
        let limit = s.config().loss_streak_limit;
        for _ in 0..limit - 1 {
            assert!(s.tick(&[Some(lost), Some(fine)]).is_empty());
        }
        // A usable frame clears the streak; the limit restarts.
        assert!(s.tick(&[Some(fine), Some(fine)]).is_empty());
        for t in 1..=limit {
            let v = s.tick(&[Some(lost), Some(fine)]);
            if t < limit {
                assert!(v.is_empty(), "tick {t}");
            } else {
                assert_eq!(v, vec![0], "slot 0 quarantines at the limit");
            }
        }
    }

    #[test]
    fn probe_backoff_doubles_to_the_cap_and_readmission_resets() {
        let mut s = sup();
        s.on_admit();
        let base = s.config().probe_backoff_ticks;
        s.quarantine(0, 10);
        assert!(s.is_quarantined(0));
        assert_eq!(s.quarantined_count(), 1);
        assert!(!s.probe_due(0, 10 + base - 1));
        assert!(s.probe_due(0, 10 + base));
        // Failed probes: backoff 4 → 8 → 16 → 32 → 32 (capped).
        let mut now = 10 + base;
        let mut expect = base;
        for _ in 0..4 {
            s.record_probe(0, now, false);
            expect = (expect * 2).min(s.config().probe_backoff_cap);
            assert!(!s.probe_due(0, now + expect - 1));
            assert!(s.probe_due(0, now + expect));
            now += expect;
        }
        assert_eq!(expect, s.config().probe_backoff_cap);
        // A healthy probe re-admits with cleared streaks.
        s.record_probe(0, now, true);
        assert!(!s.is_quarantined(0));
        assert_eq!(s.readmissions(), 1);
        assert_eq!(s.probes(), 5);
        assert_eq!(s.quarantines(), 1);
    }

    #[test]
    fn quarantined_and_missing_slots_never_panic_the_tick() {
        let mut s = sup();
        s.on_admit();
        s.quarantine(0, 1);
        // Signals for a quarantined slot and for slots beyond the vec.
        let sig = Some(HealthSignal {
            slice_overrun: true,
            ..HealthSignal::default()
        });
        assert!(s.tick(&[sig, sig, None, sig]).is_empty());
    }

    #[test]
    fn overrun_and_floor_dwell_also_trigger() {
        let mut s = sup();
        s.on_admit();
        let overrun = HealthSignal {
            tracker_usable: true,
            slice_overrun: true,
            floor_dwell: 0,
        };
        for _ in 0..s.config().overrun_limit - 1 {
            assert!(s.tick(&[Some(overrun)]).is_empty());
        }
        assert_eq!(s.tick(&[Some(overrun)]), vec![0]);

        let mut s = sup();
        s.on_admit();
        let floored = HealthSignal {
            tracker_usable: true,
            slice_overrun: false,
            floor_dwell: s.config().floor_dwell_limit,
        };
        assert_eq!(s.tick(&[Some(floored)]), vec![0]);
    }
}
