//! Autoscaling: per-node queue and busy pressure at each collect tick, and
//! the engine's one call into the installed [`Placer`](crate::scale::Placer).

use super::Simulation;
use crate::scale::{ClusterView, PlacementDecision};
use obs::journal::PlacementKind;
use simcore::SimTime;

impl Simulation {
    /// Scale out every node whose alive instances are under queue or busy
    /// pressure, or that has no alive instance left.
    pub(super) fn autoscale(&mut self, now: SimTime) {
        let Some(placer) = self.placer.as_mut() else {
            return;
        };
        // Refresh the placer's degraded-mode flag from the outage window
        // (`predictor_down_until` stays `ZERO` without predictor outages).
        placer.set_predictor_available(now >= self.predictor_down_until);
        // Collect scale-out requests first to avoid borrowing conflicts.
        let mut wanted: Vec<(usize, usize)> = Vec::new();
        for (wl, d) in self.deployed.iter().enumerate() {
            for node in 0..d.workload.graph.len() {
                // Pressure arithmetic over the alive instances.
                let (mut n_alive, mut queued, mut busy) = (0, 0, 0);
                for i in d.instances[node].iter().filter(|i| i.alive) {
                    n_alive += 1;
                    queued += i.queue.len();
                    busy += i.active.len();
                }
                if n_alive >= self.scale.max_instances_per_node {
                    continue;
                }
                if n_alive == 0 {
                    // Every instance of this node is dead and no re-warm
                    // succeeded yet: always ask for a replacement.
                    wanted.push((wl, node));
                    continue;
                }
                let capacity =
                    n_alive * d.workload.graph.func(workloads::NodeId(node)).concurrency as usize;
                let queue_pressure = queued as f64 / n_alive as f64 > self.scale.queue_per_instance;
                let busy_pressure =
                    capacity > 0 && busy as f64 / capacity as f64 > self.scale.busy_fraction;
                if queue_pressure || busy_pressure {
                    wanted.push((wl, node));
                }
            }
        }
        for (wl, node) in wanted {
            match self.ask_placer(now, wl, node) {
                Some(p) => self.add_instance(now, PlacementKind::ScaleOut, wl, node, p),
                None => {
                    if let Some(t) = self.obs.telemetry.as_mut() {
                        t.incr("autoscaler.rejections", 1);
                    }
                }
            }
        }
    }

    /// Ask the installed placer for a home for one more instance of
    /// `(wl, node)`, on the liveness-masked cluster view; `None` without a
    /// placer.
    pub(super) fn ask_placer(
        &mut self,
        now: SimTime,
        wl: usize,
        node: usize,
    ) -> Option<PlacementDecision> {
        let placer = self.placer.as_mut()?;
        let view = ClusterView::with_liveness(&self.servers, &self.alive);
        let d = &self.deployed[wl];
        let spec = d.workload.graph.func(workloads::NodeId(node));
        placer.note_time(now.as_millis());
        placer.place(&view, &d.workload, node, spec)
    }
}
