//! Output correctness: every reply is checked against its request.
//!
//! * the body must be the echo function's output for exactly the request's
//!   arguments (which carry a unique request id unless the function is
//!   idempotent): `{"echo":<args>,"n":<execution count>}`;
//! * the tenant label must come back unchanged;
//! * a cache hit must return byte-for-byte the body of a fill (a miss reply)
//!   for the same function, tenant and arguments.

use crate::client::{CacheTag, Phase};
use crate::gen::Req;
use std::collections::{HashMap, HashSet};

type Key = (String, &'static str, String);

#[derive(Default)]
pub struct Checker {
    fills: HashMap<Key, HashSet<String>>,
    hits: Vec<(Key, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs (as opposed to refused or failed requests).
    pub mismatches: u64,
    pub first_problem: Option<String>,
}

fn is_echo(body: &str, args: &str) -> bool {
    let prefix = format!("{{\"echo\":{args},\"n\":");
    body.strip_prefix(&prefix)
        .and_then(|rest| rest.strip_suffix('}'))
        .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
}

impl Checker {
    fn problem(&mut self, what: String) {
        self.failed += 1;
        if self.first_problem.is_none() {
            self.first_problem = Some(what);
        }
    }

    /// Check every sent request of `phase` (scheduled as `reqs`).
    pub fn check(&mut self, reqs: &[Req], phase: &Phase) {
        self.attempted += phase.outcomes.len() as u64;
        for o in &phase.outcomes {
            let r = &reqs[o.idx];
            if let Some(e) = &o.error {
                self.problem(format!("request {} ({}) failed: {e}", r.rid, r.fqdn));
                continue;
            }
            let w = o.wire.as_ref().expect("successful outcome has a result");
            if !is_echo(&w.body, &r.args) {
                self.mismatches += 1;
                self.problem(format!(
                    "request {} ({} {}): body {:?} does not echo its args",
                    r.rid, r.fqdn, r.args, w.body
                ));
                continue;
            }
            if w.tenant.as_deref() != Some(r.tenant) {
                self.mismatches += 1;
                self.problem(format!(
                    "request {}: tenant {:?} came back as {:?}",
                    r.rid, r.tenant, w.tenant
                ));
                continue;
            }
            let key = (r.fqdn.clone(), r.tenant, r.args.clone());
            match o.cache {
                CacheTag::Miss => {
                    self.fills.entry(key).or_default().insert(w.body.clone());
                }
                CacheTag::Hit if !r.idempotent => {
                    self.mismatches += 1;
                    self.problem(format!(
                        "request {}: cache hit for non-idempotent {}",
                        r.rid, r.fqdn
                    ));
                }
                CacheTag::Hit => self.hits.push((key, w.body.clone())),
                CacheTag::Bypass | CacheTag::Absent => {}
            }
        }
    }

    /// Match every cache hit against the fills seen over the stack's life.
    pub fn finish_cache(&mut self) {
        for (key, body) in std::mem::take(&mut self.hits) {
            if !self.fills.get(&key).is_some_and(|b| b.contains(&body)) {
                self.mismatches += 1;
                self.problem(format!(
                    "cache hit for {key:?} returned {body:?}, which no fill produced"
                ));
            }
        }
        self.fills.clear();
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches == 0
    }
}

#[cfg(test)]
mod tests {
    use super::is_echo;

    #[test]
    fn echo_shape() {
        assert!(is_echo("{\"echo\":{\"rid\":7},\"n\":12}", "{\"rid\":7}"));
        assert!(!is_echo("{\"echo\":{\"rid\":8},\"n\":12}", "{\"rid\":7}"));
        assert!(!is_echo("{\"echo\":{\"rid\":7},\"n\":}", "{\"rid\":7}"));
        assert!(!is_echo("{\"echo\":{\"rid\":7},\"n\":1x}", "{\"rid\":7}"));
    }
}
