//! Chip-level DIVOT deployment: many protected lanes, shared instrument
//! logic.
//!
//! The paper argues DIVOT scales because "over 90 % of the hardware in a
//! DIVOT detector can be shared/multiplexed by many detectors on a chip"
//! (one PLL, one PDM generator, one counter bank serving every bus). A
//! [`DivotHub`] models that deployment: one iTDR configuration drives any
//! number of lanes, polls them round-robin through the shared datapath
//! (so total scan time grows linearly, hardware barely at all), and fuses
//! multi-lane scores for bus-level decisions (§IV-C's multi-wire
//! direction).

use crate::auth::{AuthDecision, Authenticator};
use crate::channel::BusChannel;
use crate::exec::ExecPolicy;
use crate::itdr::Itdr;
use crate::monitor::{BusMonitor, MonitorConfig, MonitorEvent};
use crate::resources::ResourceModel;
use crate::trigger::TriggerSource;

/// Identifier of a lane registered with a hub.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneId(usize);

impl LaneId {
    /// The lane's index in registration order.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// One registered lane.
#[derive(Debug, Clone)]
struct Lane {
    name: String,
    monitor: BusMonitor,
}

/// A multi-lane DIVOT deployment sharing one instrument datapath.
///
/// The shared [`Itdr`] configuration carries its acquisition mode
/// ([`AcqMode`](crate::itdr::AcqMode)) to every lane: a hub built around an
/// analytic-mode instrument calibrates, polls, and fuse-verifies all lanes
/// through the closed-form fast path (falling back per the usual
/// hysteresis guard), with no per-lane plumbing.
#[derive(Debug, Clone)]
pub struct DivotHub {
    itdr: Itdr,
    monitor_config: MonitorConfig,
    authenticator: Authenticator,
    lanes: Vec<Lane>,
}

impl DivotHub {
    /// Create a hub around a shared instrument configuration.
    pub fn new(itdr: Itdr, monitor_config: MonitorConfig) -> Self {
        Self {
            itdr,
            authenticator: Authenticator::new(monitor_config.auth),
            monitor_config,
            lanes: Vec::new(),
        }
    }

    /// Register a lane. Returns its id.
    pub fn add_lane(&mut self, name: impl Into<String>) -> LaneId {
        self.lanes.push(Lane {
            name: name.into(),
            monitor: BusMonitor::new(self.itdr, self.monitor_config),
        });
        LaneId(self.lanes.len() - 1)
    }

    /// Number of registered lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The name of a lane.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn lane_name(&self, id: LaneId) -> &str {
        &self.lanes[id.0].name
    }

    /// The monitor of a lane (state inspection).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn lane_monitor(&self, id: LaneId) -> &BusMonitor {
        &self.lanes[id.0].monitor
    }

    /// Iterate over the registered lane ids (registration order).
    pub fn lane_ids(&self) -> impl Iterator<Item = LaneId> {
        (0..self.lanes.len()).map(LaneId)
    }

    /// Iterate over `(id, name)` for every registered lane in
    /// registration order — the inventory view callers kept rebuilding
    /// from [`lane_ids`](Self::lane_ids) + [`lane_name`](Self::lane_name).
    pub fn lanes(&self) -> impl Iterator<Item = (LaneId, &str)> {
        self.lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| (LaneId(i), lane.name.as_str()))
    }

    /// Restore a lane's fingerprint from persistent storage (power-up
    /// path: no re-enrollment needed; see
    /// [`registry`](crate::registry)).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn restore_lane(&mut self, id: LaneId, fingerprint: crate::fingerprint::Fingerprint) {
        self.lanes[id.0].monitor.restore(fingerprint);
    }

    /// Calibrate every lane against its channel (§III calibration phase).
    ///
    /// Lanes fan out across worker threads under [`ExecPolicy::auto`]
    /// (each lane's measurements then run serially on its worker); since
    /// every lane owns its monitor and channel, the result is identical
    /// to the lane-by-lane sweep.
    ///
    /// # Panics
    ///
    /// Panics if `channels.len() != lane_count()`.
    pub fn calibrate_all(&mut self, channels: &mut [BusChannel]) {
        self.calibrate_all_with(channels, ExecPolicy::auto());
    }

    /// [`calibrate_all`](Self::calibrate_all) under an explicit execution
    /// policy.
    ///
    /// # Panics
    ///
    /// Panics if `channels.len() != lane_count()`.
    pub fn calibrate_all_with(&mut self, channels: &mut [BusChannel], policy: ExecPolicy) {
        assert_eq!(
            channels.len(),
            self.lanes.len(),
            "one channel per registered lane"
        );
        let _sweep = divot_telemetry::span!("hub.calibrate");
        divot_telemetry::set_gauge("hub.lanes", self.lanes.len() as f64);
        // Across-lane parallelism: keep each lane's own acquisition serial
        // so the worker pool is not oversubscribed.
        policy.run_zip_mut(&mut self.lanes, channels, |_, lane, ch| {
            lane.monitor.calibrate_with(ch, ExecPolicy::Serial);
        });
    }

    /// One monitoring sweep: poll every lane. Returns the events per lane.
    ///
    /// Lanes fan out across worker threads under [`ExecPolicy::auto`];
    /// events come back in lane order and are identical to the
    /// round-robin sweep.
    ///
    /// # Panics
    ///
    /// Panics if `channels.len() != lane_count()` or any lane is
    /// uncalibrated.
    pub fn poll_all(&mut self, channels: &mut [BusChannel]) -> Vec<(LaneId, Vec<MonitorEvent>)> {
        self.poll_all_with(channels, ExecPolicy::auto())
    }

    /// [`poll_all`](Self::poll_all) under an explicit execution policy.
    ///
    /// # Panics
    ///
    /// Panics if `channels.len() != lane_count()` or any lane is
    /// uncalibrated.
    pub fn poll_all_with(
        &mut self,
        channels: &mut [BusChannel],
        policy: ExecPolicy,
    ) -> Vec<(LaneId, Vec<MonitorEvent>)> {
        assert_eq!(
            channels.len(),
            self.lanes.len(),
            "one channel per registered lane"
        );
        let _sweep = divot_telemetry::span!("hub.sweep");
        divot_telemetry::set_gauge("hub.lanes", self.lanes.len() as f64);
        policy.run_zip_mut(&mut self.lanes, channels, |i, lane, ch| {
            (LaneId(i), lane.monitor.poll_with(ch, ExecPolicy::Serial))
        })
    }

    /// Lanes currently blocking (alarmed or uncalibrated).
    pub fn blocking_lanes(&self) -> Vec<LaneId> {
        self.lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| l.monitor.is_blocking())
            .map(|(i, _)| LaneId(i))
            .collect()
    }

    /// Whether any lane is blocking (the bus-level reaction signal).
    pub fn any_blocking(&self) -> bool {
        self.lanes.iter().any(|l| l.monitor.is_blocking())
    }

    /// Fused bus-level authentication: measure every lane once and decide
    /// on the average similarity (the §IV-C multi-wire accuracy boost).
    ///
    /// # Panics
    ///
    /// Panics if `channels.len() != lane_count()`, the hub has no lanes,
    /// or any lane is uncalibrated.
    pub fn fused_verify(&self, channels: &mut [BusChannel]) -> AuthDecision {
        self.fused_verify_with(channels, ExecPolicy::auto())
    }

    /// [`fused_verify`](Self::fused_verify) under an explicit execution
    /// policy.
    ///
    /// # Panics
    ///
    /// Panics if `channels.len() != lane_count()`, the hub has no lanes,
    /// or any lane is uncalibrated.
    pub fn fused_verify_with(
        &self,
        channels: &mut [BusChannel],
        policy: ExecPolicy,
    ) -> AuthDecision {
        assert_eq!(
            channels.len(),
            self.lanes.len(),
            "one channel per registered lane"
        );
        assert!(!self.lanes.is_empty(), "fused verify needs lanes");
        let measurements = policy.run_mut(channels, |_, ch| {
            self.itdr.measure_averaged_with(
                ch,
                self.monitor_config.average_count,
                ExecPolicy::Serial,
            )
        });
        let pairs: Vec<_> = self
            .lanes
            .iter()
            .zip(&measurements)
            .map(|(lane, m)| {
                (
                    lane.monitor
                        .fingerprint()
                        .expect("lane must be calibrated before fused verify"),
                    m,
                )
            })
            .collect();
        let refs: Vec<_> = pairs.iter().map(|(f, m)| (*f, *m)).collect();
        self.authenticator.verify_fused(&refs)
    }

    /// Hardware cost of this deployment `(registers, luts)` — shared
    /// components counted once.
    pub fn resource_estimate(&self) -> (u32, u32) {
        ResourceModel::paper_prototype().for_channels(self.lanes.len().max(1) as u32)
    }

    /// Wall-clock time for one full monitoring sweep of all lanes through
    /// the shared (time-multiplexed) datapath on the given trigger source.
    pub fn sweep_time(&self, source: TriggerSource) -> f64 {
        let per_lane = source.time_for_triggers(
            self.itdr.config().total_triggers() * self.monitor_config.average_count as u64,
        );
        per_lane * self.lanes.len() as f64
    }
}

impl std::fmt::Display for DivotHub {
    /// Operator-facing inventory: one header line, then one row per lane
    /// with its id, name, and monitor state.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DivotHub: {} lane(s), {} blocking",
            self.lanes.len(),
            self.blocking_lanes().len()
        )?;
        for (id, name) in self.lanes() {
            write!(
                f,
                "\n  [{}] {name}: {:?}",
                id.index(),
                self.lanes[id.index()].monitor.state()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itdr::ItdrConfig;
    use divot_analog::frontend::FrontEndConfig;
    use divot_txline::attack::Attack;
    use divot_txline::board::{Board, BoardConfig};

    fn setup(lanes: usize) -> (DivotHub, Vec<BusChannel>) {
        let board = Board::fabricate(&BoardConfig::paper_prototype(), 71);
        let mut hub = DivotHub::new(
            Itdr::new(ItdrConfig::fast()),
            MonitorConfig {
                enroll_count: 4,
                average_count: 2,
                fails_to_alarm: 1,
                ..MonitorConfig::default()
            },
        );
        let mut channels = Vec::new();
        for i in 0..lanes {
            hub.add_lane(format!("lane{i}"));
            channels.push(BusChannel::new(
                board.line(i).clone(),
                FrontEndConfig::default(),
                200 + i as u64,
            ));
        }
        (hub, channels)
    }

    #[test]
    fn lanes_register_and_calibrate() {
        let (mut hub, mut channels) = setup(4);
        assert_eq!(hub.lane_count(), 4);
        assert_eq!(hub.lane_name(LaneId(2)), "lane2");
        assert!(hub.any_blocking(), "uncalibrated lanes block");
        hub.calibrate_all(&mut channels);
        assert!(!hub.any_blocking());
        assert!(hub.blocking_lanes().is_empty());
    }

    #[test]
    fn lanes_iterator_and_display_inventory() {
        let (mut hub, mut channels) = setup(3);
        let inventory: Vec<(usize, String)> = hub
            .lanes()
            .map(|(id, name)| (id.index(), name.to_owned()))
            .collect();
        assert_eq!(
            inventory,
            vec![
                (0, "lane0".to_owned()),
                (1, "lane1".to_owned()),
                (2, "lane2".to_owned())
            ]
        );
        // lanes() agrees with the id/name accessors it replaces.
        for (id, name) in hub.lanes() {
            assert_eq!(hub.lane_name(id), name);
        }

        let before = hub.to_string();
        assert!(
            before.starts_with("DivotHub: 3 lane(s), 3 blocking"),
            "{before}"
        );
        assert!(before.contains("[1] lane1: Uncalibrated"), "{before}");
        hub.calibrate_all(&mut channels);
        let after = hub.to_string();
        assert!(
            after.starts_with("DivotHub: 3 lane(s), 0 blocking"),
            "{after}"
        );
        assert!(after.contains("[2] lane2: Monitoring"), "{after}");
    }

    #[test]
    fn attack_on_one_lane_flags_only_that_lane() {
        let (mut hub, mut channels) = setup(3);
        hub.calibrate_all(&mut channels);
        channels[1].apply_attack(&Attack::paper_wiretap());
        for _ in 0..4 {
            hub.poll_all(&mut channels);
            if hub.any_blocking() {
                break;
            }
        }
        let blocking = hub.blocking_lanes();
        assert_eq!(blocking, vec![LaneId(1)], "only the tapped lane blocks");
    }

    #[test]
    fn fused_verify_accepts_genuine_and_rejects_swap() {
        let (mut hub, mut channels) = setup(3);
        hub.calibrate_all(&mut channels);
        assert!(hub.fused_verify(&mut channels).is_accept());

        // Swap all lanes for a clone board: fused score collapses.
        let clone = Board::fabricate(&BoardConfig::paper_prototype(), 72);
        for (i, ch) in channels.iter_mut().enumerate() {
            ch.replace_network(clone.line(i).network());
        }
        assert!(!hub.fused_verify(&mut channels).is_accept());
    }

    #[test]
    fn analytic_hub_calibrates_polls_and_verifies() {
        use crate::itdr::AcqMode;
        let board = Board::fabricate(&BoardConfig::paper_prototype(), 71);
        let mut hub = DivotHub::new(
            Itdr::new(ItdrConfig::fast().with_acq_mode(AcqMode::Analytic)),
            MonitorConfig {
                enroll_count: 4,
                average_count: 2,
                fails_to_alarm: 1,
                ..MonitorConfig::default()
            },
        );
        let mut channels = Vec::new();
        for i in 0..3 {
            hub.add_lane(format!("lane{i}"));
            channels.push(BusChannel::new(
                board.line(i).clone(),
                FrontEndConfig::default(),
                300 + i as u64,
            ));
        }
        hub.calibrate_all(&mut channels);
        assert!(!hub.any_blocking());
        assert!(hub.fused_verify(&mut channels).is_accept());
        channels[2].apply_attack(&Attack::paper_wiretap());
        for _ in 0..4 {
            hub.poll_all(&mut channels);
            if hub.any_blocking() {
                break;
            }
        }
        assert_eq!(hub.blocking_lanes(), vec![LaneId(2)]);
    }

    #[test]
    fn lane_sweeps_match_across_policies() {
        let (mut hub_s, mut ch_s) = setup(3);
        let (mut hub_p, mut ch_p) = setup(3);
        hub_s.calibrate_all_with(&mut ch_s, ExecPolicy::Serial);
        hub_p.calibrate_all_with(&mut ch_p, ExecPolicy::Parallel);
        let es = hub_s.poll_all_with(&mut ch_s, ExecPolicy::Serial);
        let ep = hub_p.poll_all_with(&mut ch_p, ExecPolicy::Parallel);
        assert_eq!(es, ep);
    }

    #[test]
    fn resource_estimate_is_sublinear() {
        let (hub1, _) = setup(1);
        let (hub6, _) = setup(6);
        let (r1, l1) = hub1.resource_estimate();
        let (r6, l6) = hub6.resource_estimate();
        assert_eq!((r1, l1), (71, 124));
        assert!(r6 < 2 * r1, "6 lanes cost {r6} regs");
        assert!(l6 < 2 * l1, "6 lanes cost {l6} LUTs");
    }

    #[test]
    fn sweep_time_is_linear_in_lanes() {
        let (hub2, _) = setup(2);
        let (hub4, _) = setup(4);
        let src = TriggerSource::paper_prototype();
        let t2 = hub2.sweep_time(src);
        let t4 = hub4.sweep_time(src);
        assert!((t4 / t2 - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one channel per registered lane")]
    fn channel_count_mismatch_panics() {
        let (mut hub, mut channels) = setup(2);
        channels.pop();
        hub.calibrate_all(&mut channels);
    }
}
