//! Worker side of the pull-dispatch plane over HTTP.
//!
//! The balancer owns the [`iluvatar_dispatch::PullPlane`]; workers reach
//! it through two routes ([`crate::LbApi`] serves both when a plane is
//! attached):
//!
//! | method & path         | body                                          | response |
//! |-----------------------|-----------------------------------------------|----------|
//! | `POST /pull`          | [`PullBody`] `{"worker":…, "max":…, "wait_ms":…}` | `Vec<Lease>` JSON |
//! | `POST /pull/complete` | [`CompleteBody`]                              | `{"accepted":bool}` |
//!
//! [`HttpLeaseSource`] adapts those routes to the
//! [`iluvatar_dispatch::LeaseSource`] trait, so a worker-side
//! [`iluvatar_dispatch::PullLoop`] drives a remote balancer exactly as it
//! would an in-process plane. Both routes ride keep-alive connections from
//! one [`PooledClient`] (§3.3's connection reuse), so a pull or completion
//! costs no connection setup.
//!
//! A pooled socket the balancer has since closed is redialled and the
//! request re-sent. A re-sent `/pull/complete` is harmless: the lease is
//! already gone, so the plane answers `accepted = false` and counts a dead
//! completion instead of accounting the task twice.

use iluvatar_dispatch::{Lease, LeaseSource};
use iluvatar_http::{Method, PooledClient, Request, Response, Status};
use serde::{Deserialize, Serialize};
use std::net::SocketAddr;
use std::time::Duration;

/// `POST /pull` request body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PullBody {
    /// The pulling worker's registered shard name.
    pub worker: String,
    /// Max leases to grant (0 = the plane's configured batch).
    #[serde(default)]
    pub max: usize,
    /// Long-poll budget, ms (0 = return immediately).
    #[serde(default)]
    pub wait_ms: u64,
}

/// `POST /pull/complete` request body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompleteBody {
    pub lease_id: u64,
    pub ok: bool,
    #[serde(default)]
    pub body: String,
    #[serde(default)]
    pub exec_ms: u64,
}

/// `POST /pull/complete` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompleteReply {
    /// False when the lease had already expired: the work ran, but the
    /// requeued incarnation owns the accounting.
    pub accepted: bool,
}

/// A [`LeaseSource`] that long-polls a remote balancer's `/pull` routes.
pub struct HttpLeaseSource {
    addr: SocketAddr,
    /// Long-poll budget sent with each pull.
    wait_ms: u64,
    /// Keep-alive connections to the balancer; its request timeout covers
    /// the long poll plus slack.
    client: PooledClient,
}

impl HttpLeaseSource {
    pub fn new(addr: SocketAddr, wait_ms: u64) -> Self {
        Self {
            addr,
            wait_ms,
            client: PooledClient::new(Duration::from_millis(wait_ms + 5_000)),
        }
    }

    fn post(&self, path: &str, body: Vec<u8>) -> Option<Response> {
        let req = Request::new(Method::Post, path).with_body(body);
        self.client
            .send(self.addr, &req)
            .ok()
            .filter(|r| r.status == Status::OK)
    }
}

impl LeaseSource for HttpLeaseSource {
    fn pull(&self, worker: &str, max: usize) -> Vec<Lease> {
        let body = serde_json::to_vec(&PullBody {
            worker: worker.to_string(),
            max,
            wait_ms: self.wait_ms,
        })
        .expect("serialize pull body");
        self.post("/pull", body)
            .and_then(|r| serde_json::from_str(r.body_str()).ok())
            .unwrap_or_default()
    }

    fn complete(&self, lease_id: u64, ok: bool, body: &str, exec_ms: u64) -> bool {
        let payload = serde_json::to_vec(&CompleteBody {
            lease_id,
            ok,
            body: body.to_string(),
            exec_ms,
        })
        .expect("serialize complete body");
        self.post("/pull/complete", payload)
            .and_then(|r| serde_json::from_str::<CompleteReply>(r.body_str()).ok())
            .is_some_and(|c| c.accepted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, LbApi, LbPolicy, WorkerHandle};
    use iluvatar_containers::simulated::{SimBackend, SimBackendConfig};
    use iluvatar_core::config::WorkerConfig;
    use iluvatar_core::Worker;
    use iluvatar_dispatch::{DispatchConfig, PullPlane};
    use iluvatar_sync::SystemClock;
    use std::sync::Arc;

    fn plane_behind_lb() -> (Arc<PullPlane>, LbApi) {
        let plane = Arc::new(PullPlane::new(
            DispatchConfig::pull(),
            SystemClock::shared(),
        ));
        plane.register_worker("w0");
        // The cluster needs a worker; these tests drive the plane directly.
        let clock = SystemClock::shared();
        let backend = Arc::new(SimBackend::new(
            Arc::clone(&clock),
            SimBackendConfig::default(),
        ));
        let worker: Arc<dyn WorkerHandle> =
            Arc::new(Worker::new(WorkerConfig::for_testing(), backend, clock));
        let cluster = Arc::new(Cluster::new(vec![worker], LbPolicy::RoundRobin));
        let api = LbApi::serve_with_dispatch(
            cluster,
            Duration::from_millis(50),
            None,
            Some(Arc::clone(&plane)),
        )
        .unwrap();
        (plane, api)
    }

    #[test]
    fn lease_calls_share_one_keep_alive_connection() {
        let (plane, api) = plane_behind_lb();
        let source = HttpLeaseSource::new(api.addr(), 0);
        for i in 0..3 {
            plane
                .enqueue("f-1", &format!("{{\"i\":{i}}}"), None)
                .unwrap();
            let lease = source.pull("w0", 1).pop().expect("a lease");
            assert!(source.complete(lease.lease_id, true, "r", 1));
        }
        let h = api.handle();
        assert_eq!(h.served(), 6, "three pulls and three completions");
        assert_eq!(h.connections(), 1, "every call reused one connection");
    }

    #[test]
    fn resent_completion_is_refused_without_double_accounting() {
        let (plane, api) = plane_behind_lb();
        let source = HttpLeaseSource::new(api.addr(), 0);
        let id = plane.enqueue("f-1", "{}", None).unwrap();
        let lease = source.pull("w0", 1).pop().expect("a lease");
        assert!(source.complete(lease.lease_id, true, "r", 1));
        // What a redial-and-resend after a lost reply looks like.
        assert!(!source.complete(lease.lease_id, true, "r", 1));
        let c = plane.counters();
        assert_eq!((c.completed, c.dead_completions), (1, 1));
        assert_eq!(plane.wait(id, 1_000).map(|r| r.body).as_deref(), Some("r"));
    }
}
