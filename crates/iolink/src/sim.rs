//! Link-level simulation: traffic, attack scripting, exposure accounting.

#[cfg(test)]
use crate::link::LinkState;
use crate::link::{LinkConfig, LinkEvent, ProtectedLink, SendError};
use divot_dsp::rng::DivotRng;
use divot_txline::attack::Attack;
use divot_txline::board::{Board, BoardConfig};

/// A frame-indexed scenario event.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkScenarioEvent {
    /// Apply a physical attack before sending frame `at_frame`.
    Attack {
        /// Frame index the event fires at.
        at_frame: u64,
        /// The attack.
        attack: Attack,
    },
    /// Remove all foreign hardware (restore the clean wire).
    Restore {
        /// Frame index the event fires at.
        at_frame: u64,
    },
}

impl LinkScenarioEvent {
    fn frame(&self) -> u64 {
        match self {
            Self::Attack { at_frame, .. } | Self::Restore { at_frame } => *at_frame,
        }
    }
}

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct LinkSimConfig {
    /// The link configuration.
    pub link: LinkConfig,
    /// Frames the sender will attempt.
    pub frames: u64,
    /// Payload bytes per frame.
    pub payload_len: usize,
    /// Board / traffic seed.
    pub seed: u64,
}

impl Default for LinkSimConfig {
    fn default() -> Self {
        Self {
            link: LinkConfig::default(),
            frames: 1024,
            payload_len: 256,
            seed: 1,
        }
    }
}

/// Results of a link simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Send attempts.
    pub attempted: u64,
    /// Frames delivered.
    pub delivered: u64,
    /// Send attempts refused by a security halt.
    pub refused: u64,
    /// Frames copied by a tap before the halt.
    pub exposed: u64,
    /// Frame index of the first attack, if any fired.
    pub attack_frame: Option<u64>,
    /// Frame index of the security halt, if one landed.
    pub halt_frame: Option<u64>,
}

impl LinkStats {
    /// Frames between attack insertion and the halt (the eavesdropper's
    /// window).
    pub fn detection_latency_frames(&self) -> Option<u64> {
        match (self.attack_frame, self.halt_frame) {
            (Some(a), Some(h)) if h >= a => Some(h - a),
            _ => None,
        }
    }
}

/// A scripted link simulation.
#[derive(Debug)]
pub struct LinkSim {
    link: ProtectedLink,
    config: LinkSimConfig,
    events: Vec<LinkScenarioEvent>,
    rng: DivotRng,
}

impl LinkSim {
    /// Build the simulation: fabricates a board and brings the link up.
    pub fn new(config: LinkSimConfig) -> Self {
        let board = Board::fabricate(&BoardConfig::paper_prototype(), config.seed);
        let mut link = ProtectedLink::new(board.line(0).clone(), config.link, config.seed);
        link.bring_up();
        Self {
            link,
            rng: DivotRng::derive(config.seed, 0x71A0),
            config,
            events: Vec::new(),
        }
    }

    /// Install the scenario (sorted by frame index).
    pub fn set_scenario(&mut self, mut events: Vec<LinkScenarioEvent>) {
        events.sort_by_key(LinkScenarioEvent::frame);
        self.events = events;
    }

    /// The link (for post-run inspection).
    pub fn link(&self) -> &ProtectedLink {
        &self.link
    }

    /// Run the configured traffic and return the statistics.
    pub fn run(&mut self) -> LinkStats {
        let mut stats = LinkStats::default();
        let clean = self.link.channel().network().clone();
        let mut next_event = 0;
        for frame_idx in 0..self.config.frames {
            while next_event < self.events.len() && self.events[next_event].frame() <= frame_idx {
                match self.events[next_event].clone() {
                    LinkScenarioEvent::Attack { attack, .. } => {
                        self.link.channel_mut().apply_attack(&attack);
                        stats.attack_frame.get_or_insert(frame_idx);
                    }
                    LinkScenarioEvent::Restore { .. } => {
                        self.link.channel_mut().replace_network(clean.clone());
                    }
                }
                next_event += 1;
            }
            stats.attempted += 1;
            let payload: Vec<u8> = (0..self.config.payload_len)
                .map(|_| self.rng.index(256) as u8)
                .collect();
            match self.link.send(payload) {
                Ok(events) => {
                    if events.contains(&LinkEvent::SecurityHalted) && stats.halt_frame.is_none() {
                        stats.halt_frame = Some(frame_idx);
                    }
                }
                Err(SendError::SecurityHalt) => {
                    if stats.halt_frame.is_none() {
                        stats.halt_frame = Some(frame_idx);
                    }
                    // A halted endpoint keeps probing the wire while idle.
                    self.link.idle_poll();
                }
                Err(SendError::LinkDown) => unreachable!("link was brought up"),
            }
        }
        stats.delivered = self.link.stats().delivered;
        stats.refused = self.link.stats().refused;
        stats.exposed = self.link.stats().exposed;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divot_core::itdr::ItdrConfig;
    use divot_core::monitor::MonitorConfig;

    fn fast_config(seed: u64) -> LinkSimConfig {
        LinkSimConfig {
            link: LinkConfig {
                poll_every_frames: 16,
                monitor: MonitorConfig {
                    enroll_count: 4,
                    average_count: 2,
                    fails_to_alarm: 1,
                    ..MonitorConfig::default()
                },
                itdr: ItdrConfig::fast(),
                ..LinkConfig::default()
            },
            frames: 256,
            payload_len: 64,
            seed,
        }
    }

    #[test]
    fn clean_link_delivers_everything() {
        let stats = LinkSim::new(fast_config(10)).run();
        assert_eq!(stats.delivered, 256);
        assert_eq!(stats.refused, 0);
        assert_eq!(stats.exposed, 0);
        assert_eq!(stats.detection_latency_frames(), None);
    }

    #[test]
    fn tap_exposure_is_bounded_by_polling() {
        let mut sim = LinkSim::new(fast_config(11));
        sim.set_scenario(vec![LinkScenarioEvent::Attack {
            at_frame: 100,
            attack: Attack::paper_wiretap(),
        }]);
        let stats = sim.run();
        let latency = stats.detection_latency_frames().expect("must halt");
        assert!(latency <= 32, "latency {latency} frames");
        assert!(stats.exposed <= 32, "exposed {}", stats.exposed);
        assert!(stats.refused > 0, "halt must refuse the rest");
    }

    #[test]
    fn restore_resumes_delivery() {
        let mut sim = LinkSim::new(fast_config(12));
        sim.set_scenario(vec![
            LinkScenarioEvent::Attack {
                at_frame: 64,
                attack: Attack::paper_wiretap(),
            },
            LinkScenarioEvent::Restore { at_frame: 128 },
        ]);
        let stats = sim.run();
        assert!(stats.halt_frame.is_some());
        // Most of the post-restore traffic gets through.
        assert!(
            stats.delivered > 160,
            "delivered {} of {}",
            stats.delivered,
            stats.attempted
        );
        assert_eq!(sim.link().state(), LinkState::Up);
    }

    #[test]
    fn runs_are_reproducible() {
        let mut a = LinkSim::new(fast_config(13));
        let mut b = LinkSim::new(fast_config(13));
        let scenario = vec![LinkScenarioEvent::Attack {
            at_frame: 50,
            attack: Attack::paper_magnetic_probe(),
        }];
        a.set_scenario(scenario.clone());
        b.set_scenario(scenario);
        assert_eq!(a.run(), b.run());
    }
}
