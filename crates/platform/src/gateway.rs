//! The shared frontend gateway.
//!
//! OpenFaaS and OpenWhisk "share a same gateway design: all function
//! invocations are received by a frontend gateway, and then forwarded to
//! independent backends" (paper Observation 4). The gateway is therefore a
//! *global coupling point*: when one function saturates and its queue grows,
//! forwarding slows for every workload. We model it as a single FIFO server
//! whose per-forward service time depends on the number of deployed
//! instances ([`GatewayConfig::forward_time`]).

use crate::config::GatewayConfig;
use simcore::SimTime;
use std::collections::VecDeque;

/// One pending forward: deliver request `req`'s invocation of `(wl, node)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Forward {
    /// Request sequence number.
    pub req: u64,
    /// Deployed workload index.
    pub wl: usize,
    /// Call-graph node index within the workload.
    pub node: usize,
    /// When the forward was enqueued at the gateway.
    pub enqueued_at: SimTime,
    /// The request's retry attempt this forward belongs to (0 = first try).
    /// Forwards from an aborted attempt are stale and dropped on delivery.
    pub attempt: u32,
}

impl Forward {
    /// The event of this forward's service completing at `now`, carrying
    /// its total latency (wait + service, ms) for Fig. 14. Stale forwards
    /// (of aborted attempts) emit it too: the gateway spent the time.
    pub(crate) fn done_event(&self, now: SimTime) -> obs::journal::JournalEvent {
        obs::journal::JournalEvent::GatewayForward {
            req: self.req,
            ms: now.since(self.enqueued_at).as_millis(),
        }
    }
}

/// FIFO gateway state.
#[derive(Debug, Clone, Default)]
pub struct Gateway {
    queue: VecDeque<Forward>,
    busy: bool,
}

impl Gateway {
    /// Empty, idle gateway.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue a forward. Returns `true` if the gateway was idle and the
    /// caller should immediately begin service (schedule a completion).
    pub fn enqueue(&mut self, fwd: Forward) -> bool {
        self.queue.push_back(fwd);
        if self.busy {
            false
        } else {
            self.busy = true;
            true
        }
    }

    /// Begin servicing the head-of-line forward: pops it and returns it with
    /// the service duration. `None` when the queue is empty (gateway goes
    /// idle).
    pub fn begin_service(
        &mut self,
        config: &GatewayConfig,
        deployed_instances: usize,
    ) -> Option<(Forward, SimTime)> {
        match self.queue.pop_front() {
            Some(fwd) => Some((fwd, config.forward_time(deployed_instances))),
            None => {
                self.busy = false;
                None
            }
        }
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Whether a forward is in service.
    pub fn is_busy(&self) -> bool {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fwd(req: u64) -> Forward {
        Forward {
            req,
            wl: 0,
            node: 0,
            enqueued_at: SimTime::ZERO,
            attempt: 0,
        }
    }

    #[test]
    fn first_enqueue_starts_service() {
        let mut g = Gateway::new();
        assert!(g.enqueue(fwd(1)));
        assert!(
            !g.enqueue(fwd(2)),
            "second enqueue must not restart service"
        );
        assert_eq!(g.depth(), 2);
    }

    #[test]
    fn begin_service_fifo() {
        let mut g = Gateway::new();
        g.enqueue(fwd(1));
        g.enqueue(fwd(2));
        let cfg = GatewayConfig::default();
        let (f1, t1) = g.begin_service(&cfg, 10).unwrap();
        assert_eq!(f1.req, 1);
        assert_eq!(t1, cfg.base_forward);
        let (f2, _) = g.begin_service(&cfg, 10).unwrap();
        assert_eq!(f2.req, 2);
    }

    #[test]
    fn empty_queue_goes_idle() {
        let mut g = Gateway::new();
        g.enqueue(fwd(1));
        let cfg = GatewayConfig::default();
        g.begin_service(&cfg, 10);
        assert!(g.begin_service(&cfg, 10).is_none());
        assert!(!g.is_busy());
        // New arrival restarts service.
        assert!(g.enqueue(fwd(2)));
    }

    #[test]
    fn service_time_scales_with_instances() {
        let mut g = Gateway::new();
        g.enqueue(fwd(1));
        let cfg = GatewayConfig::default();
        let (_, t) = g.begin_service(&cfg, 200).unwrap();
        assert!(t > cfg.base_forward);
    }

    #[test]
    fn latency_recording() {
        let ev = fwd(7).done_event(SimTime::from_millis(2.0));
        assert_eq!(
            ev,
            obs::journal::JournalEvent::GatewayForward { req: 7, ms: 2.0 }
        );
    }
}
