//! The protected serial link: two endpoints, one physical wire, DIVOT on
//! both ends.
//!
//! Unlike the memory bus (clock-lane probing, column-access gating), a
//! serial link probes with its *own traffic* (§II-E falling-edge triggers
//! on random NRZ data — one usable trigger per four bits on average) and
//! reacts by **dropping the link**: no frame crosses the wire while either
//! end distrusts it.

use crate::frame::Frame;
use divot_analog::frontend::FrontEndConfig;
use divot_analog::linecode::{expected_trigger_density, LineCode};
use divot_core::channel::BusChannel;
use divot_core::itdr::{Itdr, ItdrConfig};
use divot_core::monitor::{BusMonitor, MonitorConfig, MonitorState};
use divot_telemetry::Value;
use divot_txline::scatter::TxLine;
use divot_txline::units::Seconds;

/// Link configuration.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// NRZ symbol rate (bits/second on the wire).
    pub symbol_rate: f64,
    /// Monitor policy for both endpoints.
    pub monitor: MonitorConfig,
    /// Instrument configuration for both endpoints.
    pub itdr: ItdrConfig,
    /// Analog front end for both endpoints.
    pub frontend: FrontEndConfig,
    /// Monitors poll once every this many frames sent.
    pub poll_every_frames: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self {
            symbol_rate: 156.25e6,
            monitor: MonitorConfig {
                average_count: 4,
                fails_to_alarm: 2,
                ..MonitorConfig::default()
            },
            itdr: ItdrConfig::embedded(),
            frontend: FrontEndConfig::default(),
            poll_every_frames: 64,
        }
    }
}

/// The link's operational state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// Not brought up yet.
    Down,
    /// Both endpoints trust the wire; frames flow.
    Up,
    /// A DIVOT alarm dropped the link.
    SecurityHalt,
}

/// Events reported by the link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkEvent {
    /// Bring-up (calibration) completed.
    CameUp,
    /// A frame crossed the wire and decoded cleanly.
    FrameDelivered {
        /// The frame's sequence number.
        seq: u32,
    },
    /// A DIVOT alarm halted the link.
    SecurityHalted,
    /// Both ends trust the wire again.
    Recovered,
}

/// Errors returned by [`ProtectedLink::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The link has not been brought up.
    LinkDown,
    /// A security halt is in force.
    SecurityHalt,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LinkDown => f.write_str("link is down"),
            Self::SecurityHalt => f.write_str("security halt in force"),
        }
    }
}

impl std::error::Error for SendError {}

/// Cumulative link statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStatsCounters {
    /// Frames delivered end-to-end.
    pub delivered: u64,
    /// Send attempts refused by a security halt.
    pub refused: u64,
    /// Frames that crossed the wire while a tap was physically present
    /// (the eavesdropper's haul).
    pub exposed: u64,
    /// Monitor polls executed.
    pub polls: u64,
}

/// A DIVOT-protected point-to-point serial link.
#[derive(Debug, Clone)]
pub struct ProtectedLink {
    channel: BusChannel,
    tx_monitor: BusMonitor,
    rx_monitor: BusMonitor,
    config: LinkConfig,
    state: LinkState,
    next_seq: u32,
    frames_since_poll: u64,
    stats: LinkStatsCounters,
}

impl ProtectedLink {
    /// Build a link over the given physical line.
    pub fn new(line: TxLine, mut config: LinkConfig, seed: u64) -> Self {
        // Data-lane probing: one usable trigger per 1/density symbols on
        // average, so the per-trigger wall-clock is set by the traffic.
        let density = expected_trigger_density(LineCode::Nrz);
        config.frontend.pll.clock_period = 1.0 / (config.symbol_rate * density);
        let itdr = Itdr::new(config.itdr);
        Self {
            channel: BusChannel::new(line, config.frontend, seed),
            tx_monitor: BusMonitor::new(itdr, config.monitor),
            rx_monitor: BusMonitor::new(itdr, config.monitor),
            config,
            state: LinkState::Down,
            next_seq: 0,
            frames_since_poll: 0,
            stats: LinkStatsCounters::default(),
        }
    }

    /// Current state.
    pub fn state(&self) -> LinkState {
        self.state
    }

    /// Statistics so far.
    pub fn stats(&self) -> &LinkStatsCounters {
        &self.stats
    }

    /// The shared physical channel (attack injection in simulations).
    pub fn channel_mut(&mut self) -> &mut BusChannel {
        &mut self.channel
    }

    /// The shared physical channel.
    pub fn channel(&self) -> &BusChannel {
        &self.channel
    }

    /// Whether a foreign tap is physically on the wire right now.
    pub fn wire_tapped(&self) -> bool {
        !self.channel.network().taps.is_empty()
    }

    /// Bring the link up: both endpoints calibrate (§III calibration)
    /// and the link enters [`LinkState::Up`].
    pub fn bring_up(&mut self) -> LinkEvent {
        self.tx_monitor.calibrate(&mut self.channel);
        self.rx_monitor.calibrate(&mut self.channel);
        self.state = LinkState::Up;
        self.frames_since_poll = 0;
        LinkEvent::CameUp
    }

    fn poll_monitors(&mut self) -> Vec<LinkEvent> {
        self.stats.polls += 1;
        divot_telemetry::inc("iolink.polls");
        self.tx_monitor.poll(&mut self.channel);
        self.rx_monitor.poll(&mut self.channel);
        let trusted = !self.tx_monitor.is_blocking() && !self.rx_monitor.is_blocking();
        let mut events = Vec::new();
        match (self.state, trusted) {
            (LinkState::Up, false) => {
                self.state = LinkState::SecurityHalt;
                events.push(LinkEvent::SecurityHalted);
                divot_telemetry::inc("iolink.halts");
                divot_telemetry::emit(
                    "iolink.security_halt",
                    &[
                        ("delivered", Value::from(self.stats.delivered)),
                        ("exposed", Value::from(self.stats.exposed)),
                    ],
                );
            }
            (LinkState::SecurityHalt, true) => {
                self.state = LinkState::Up;
                events.push(LinkEvent::Recovered);
                divot_telemetry::inc("iolink.recoveries");
                divot_telemetry::emit(
                    "iolink.recovered",
                    &[("refused", Value::from(self.stats.refused))],
                );
            }
            _ => {}
        }
        events
    }

    /// Send one payload across the link. Returns the events of this
    /// operation (delivery plus any monitor transitions).
    ///
    /// # Errors
    ///
    /// [`SendError::LinkDown`] before bring-up; [`SendError::SecurityHalt`]
    /// while halted (the refusal is counted).
    pub fn send(&mut self, payload: Vec<u8>) -> Result<Vec<LinkEvent>, SendError> {
        match self.state {
            LinkState::Down => return Err(SendError::LinkDown),
            LinkState::SecurityHalt => {
                self.stats.refused += 1;
                divot_telemetry::inc("iolink.frames_refused");
                return Err(SendError::SecurityHalt);
            }
            LinkState::Up => {}
        }
        let frame = Frame::new(self.next_seq, payload);
        self.next_seq = self.next_seq.wrapping_add(1);

        // The frame's bits occupy the wire; the channel clock advances by
        // the transmission time (these same bits feed the iTDRs' trigger
        // FIFOs).
        let tx_time = frame.wire_bits() as f64 / self.config.symbol_rate;
        self.channel.advance(Seconds(tx_time));

        // Wire transport: the tap is a passive listener — it does not
        // corrupt the frame, it *copies* it.
        if self.wire_tapped() {
            self.stats.exposed += 1;
            divot_telemetry::inc("iolink.frames_exposed");
        }
        let decoded = Frame::decode(&frame.encode()).expect("clean wire");
        self.stats.delivered += 1;
        divot_telemetry::inc("iolink.frames_delivered");
        let mut events = vec![LinkEvent::FrameDelivered { seq: decoded.seq }];

        self.frames_since_poll += 1;
        if self.frames_since_poll >= self.config.poll_every_frames {
            self.frames_since_poll = 0;
            events.extend(self.poll_monitors());
        }
        Ok(events)
    }

    /// Idle-time maintenance poll (no frame needed; links also probe
    /// during idle/scrambled fill traffic).
    pub fn idle_poll(&mut self) -> Vec<LinkEvent> {
        if self.state == LinkState::Down {
            return Vec::new();
        }
        self.poll_monitors()
    }

    /// Endpoint monitor states (tx, rx) for inspection.
    pub fn monitor_states(&self) -> (MonitorState, MonitorState) {
        (self.tx_monitor.state(), self.rx_monitor.state())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divot_txline::attack::Attack;
    use divot_txline::board::{Board, BoardConfig};

    fn test_link(seed: u64) -> ProtectedLink {
        let board = Board::fabricate(&BoardConfig::paper_prototype(), seed);
        let config = LinkConfig {
            poll_every_frames: 8,
            monitor: MonitorConfig {
                enroll_count: 4,
                average_count: 2,
                fails_to_alarm: 1,
                ..MonitorConfig::default()
            },
            itdr: ItdrConfig::fast(),
            ..LinkConfig::default()
        };
        ProtectedLink::new(board.line(0).clone(), config, seed)
    }

    #[test]
    fn send_requires_bring_up() {
        let mut link = test_link(1);
        assert_eq!(link.state(), LinkState::Down);
        assert_eq!(link.send(vec![1]), Err(SendError::LinkDown));
        assert_eq!(link.bring_up(), LinkEvent::CameUp);
        assert_eq!(link.state(), LinkState::Up);
    }

    #[test]
    fn frames_flow_with_sequence_numbers() {
        let mut link = test_link(2);
        link.bring_up();
        for expect_seq in 0..5u32 {
            let events = link.send(vec![expect_seq as u8; 32]).unwrap();
            assert!(events.contains(&LinkEvent::FrameDelivered { seq: expect_seq }));
        }
        assert_eq!(link.stats().delivered, 5);
        assert_eq!(link.stats().exposed, 0);
    }

    #[test]
    fn wiretap_halts_the_link_and_bounds_exposure() {
        let mut link = test_link(3);
        link.bring_up();
        for _ in 0..10 {
            link.send(vec![0xAA; 64]).unwrap();
        }
        link.channel_mut().apply_attack(&Attack::paper_wiretap());
        assert!(link.wire_tapped());
        // Keep sending until the halt lands.
        let mut halted = false;
        for _ in 0..64 {
            match link.send(vec![0x55; 64]) {
                Ok(events) => {
                    if events.contains(&LinkEvent::SecurityHalted) {
                        halted = true;
                        break;
                    }
                }
                Err(SendError::SecurityHalt) => {
                    halted = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(halted, "tap must halt the link");
        assert_eq!(link.state(), LinkState::SecurityHalt);
        // Exposure bounded by ~2 poll periods.
        assert!(
            link.stats().exposed <= 24,
            "exposed {} frames",
            link.stats().exposed
        );
        // Further sends are refused and counted.
        assert_eq!(link.send(vec![1]), Err(SendError::SecurityHalt));
        assert!(link.stats().refused >= 1);
    }

    #[test]
    fn link_recovers_when_tap_removed() {
        let mut link = test_link(4);
        link.bring_up();
        let clean = link.channel().network().clone();
        link.channel_mut().apply_attack(&Attack::paper_wiretap());
        for _ in 0..64 {
            if link.send(vec![0; 16]).is_err() {
                break;
            }
        }
        assert_eq!(link.state(), LinkState::SecurityHalt);
        // Attacker unplugs; idle polls restore trust.
        link.channel_mut().replace_network(clean);
        let mut recovered = false;
        for _ in 0..4 {
            if link.idle_poll().contains(&LinkEvent::Recovered) {
                recovered = true;
                break;
            }
        }
        assert!(recovered);
        assert!(link.send(vec![7; 8]).is_ok());
    }

    #[test]
    fn data_lane_pacing_is_slower_than_clock_lane() {
        // One trigger per 4 bits: the channel's per-trigger period must
        // reflect NRZ trigger density, not the raw symbol rate.
        let link = test_link(5);
        let per_trigger = link.channel().trigger_period();
        assert!((per_trigger - 4.0 / 156.25e6).abs() < 1e-12);
    }
}
