//! Seeded request schedules.
//!
//! The program under test only ever sees the generated requests: the seed
//! picks Poisson arrival times, functions, tenants and arguments, and the
//! same seed always yields the same schedule (checked by [`digest`]).

/// splitmix64: small, fast, and good enough to drive a load generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Functions in the mixed workloads.
pub const MIX_FUNCTIONS: usize = 24;
/// Distinct argument values of an idempotent function (per tenant).
pub const IDEMPOTENT_ARGS: usize = 6;
/// The single function of the direct workloads.
pub const DIRECT_FQDN: &str = "echo-1";
pub const TENANTS: [&str; 2] = ["acme", "beta"];

/// The traffic shape a workload draws from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    /// One always-warm function; every request carries a unique id.
    Single,
    /// 24 Zipf-popular functions, a third of the traffic idempotent.
    Zipf,
}

/// Name of the function at popularity rank `rank`.
pub fn mix_fqdn(rank: usize) -> String {
    format!("fn{rank:02}-1")
}

/// Every third rank (1, 4, 7, …) is idempotent: about 30 % of Zipf traffic.
pub fn is_idempotent(rank: usize) -> bool {
    rank % 3 == 1
}

/// One request of a schedule.
#[derive(Clone, Debug)]
pub struct Req {
    /// Unique within a run.
    pub rid: u64,
    /// When the request is due, µs after the phase start.
    pub due_us: u64,
    pub fqdn: String,
    pub tenant: &'static str,
    /// JSON arguments; unique (`{"rid":…}`) unless the function is
    /// idempotent, whose arguments repeat (`{"k":…}`) so the cache can hit.
    pub args: String,
    pub idempotent: bool,
}

/// Poisson arrivals at `rate` per second for `seconds`, ids from `first_rid`.
pub fn schedule(seed: u64, mix: Mix, rate: f64, seconds: f64, first_rid: u64) -> Vec<Req> {
    let mut rng = Rng::new(seed);
    let weights: Vec<f64> = (0..MIX_FUNCTIONS).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let horizon_us = seconds * 1e6;
    let mean_gap_us = 1e6 / rate;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate * seconds * 1.2) as usize + 8);
    loop {
        t += -mean_gap_us * (1.0 - rng.unit()).ln();
        if t >= horizon_us {
            return out;
        }
        let rid = first_rid + out.len() as u64;
        let tenant = if rng.below(3) < 2 {
            TENANTS[0]
        } else {
            TENANTS[1]
        };
        let (fqdn, idempotent) = match mix {
            Mix::Single => (DIRECT_FQDN.to_string(), false),
            Mix::Zipf => {
                let mut pick = rng.unit() * total;
                let mut rank = MIX_FUNCTIONS - 1;
                for (r, w) in weights.iter().enumerate() {
                    if pick < *w {
                        rank = r;
                        break;
                    }
                    pick -= w;
                }
                (mix_fqdn(rank), is_idempotent(rank))
            }
        };
        let args = if idempotent {
            format!("{{\"k\":{}}}", rng.below(IDEMPOTENT_ARGS))
        } else {
            format!("{{\"rid\":{rid}}}")
        };
        out.push(Req {
            rid,
            due_us: t as u64,
            fqdn,
            tenant,
            args,
            idempotent,
        });
    }
}

/// FNV-1a over every field the program sees, plus the due times.
pub fn digest(reqs: &[Req]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in reqs {
        fold(&r.rid.to_le_bytes());
        fold(&r.due_us.to_le_bytes());
        fold(r.fqdn.as_bytes());
        fold(r.tenant.as_bytes());
        fold(r.args.as_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_differs() {
        let a = schedule(7, Mix::Zipf, 200.0, 2.0, 0);
        let b = schedule(7, Mix::Zipf, 200.0, 2.0, 0);
        let c = schedule(8, Mix::Zipf, 200.0, 2.0, 0);
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
    }

    #[test]
    fn rate_and_idempotent_share_are_as_designed() {
        let s = schedule(1, Mix::Zipf, 1000.0, 20.0, 0);
        let n = s.len() as f64;
        assert!((n / 20_000.0 - 1.0).abs() < 0.05, "{n} requests");
        let idem = s.iter().filter(|r| r.idempotent).count() as f64 / n;
        assert!((0.25..0.36).contains(&idem), "idempotent share {idem}");
    }
}
