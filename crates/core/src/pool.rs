//! Per-client domain pooling.
//!
//! SDRaD's service scenario (§II) isolates *clients* from each other: each
//! client's requests are processed in that client's domain, so a malicious
//! client's faults rewind only its own state. Hardware allows only 15
//! concurrent keys per process, far fewer than a server has clients, so
//! domains must be pooled and multiplexed — exactly what the SDRaD
//! Memcached retrofit does. [`DomainPool`] implements that policy:
//! clients get dedicated domains while keys last, then share pooled
//! domains hashed by client id.

use std::collections::HashMap;

use crate::{DomainConfig, DomainError, DomainId, DomainManager};

/// An opaque client identifier (connection id, session token hash, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u64);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client#{}", self.0)
    }
}

/// Maps clients to domains, creating up to `max_domains` dedicated domains
/// and multiplexing further clients over them by hash.
#[derive(Debug)]
pub struct DomainPool {
    template: DomainConfig,
    max_domains: usize,
    domains: Vec<DomainId>,
    assignments: HashMap<ClientId, DomainId>,
}

impl DomainPool {
    /// Creates a pool that will instantiate at most `max_domains` domains,
    /// each configured like `template` (the name gets an index suffix).
    ///
    /// `max_domains` is clamped to 1..=14, leaving key headroom for the
    /// application's own domains.
    #[must_use]
    pub fn new(template: DomainConfig, max_domains: usize) -> Self {
        DomainPool {
            template,
            max_domains: max_domains.clamp(1, 14),
            domains: Vec::new(),
            assignments: HashMap::new(),
        }
    }

    /// Number of domains instantiated so far.
    #[must_use]
    pub fn domains_created(&self) -> usize {
        self.domains.len()
    }

    /// Number of clients currently assigned.
    #[must_use]
    pub fn clients_assigned(&self) -> usize {
        self.assignments.len()
    }

    /// The domain serving `client`, creating or multiplexing as needed.
    ///
    /// Assignment is sticky: a client keeps its domain for the lifetime of
    /// the pool, so its faults can never rewind another dedicated
    /// client's in-flight state.
    ///
    /// # Errors
    ///
    /// [`DomainError::Setup`] if a new domain is needed but cannot be
    /// created (keys exhausted by the rest of the application).
    pub fn domain_for(
        &mut self,
        mgr: &mut DomainManager,
        client: ClientId,
    ) -> Result<DomainId, DomainError> {
        if let Some(&domain) = self.assignments.get(&client) {
            return Ok(domain);
        }
        let domain = if self.domains.len() < self.max_domains {
            let config = DomainConfig {
                name: format!("{}-{}", self.template.name, self.domains.len()),
                ..self.template.clone()
            };
            match mgr.create_domain(config) {
                Ok(domain) => {
                    self.domains.push(domain);
                    domain
                }
                // Keys exhausted by other parts of the app: fall back to
                // multiplexing over what the pool already has.
                Err(_) if !self.domains.is_empty() => self.hashed(client),
                Err(e) => return Err(e),
            }
        } else {
            self.hashed(client)
        };
        self.assignments.insert(client, domain);
        Ok(domain)
    }

    /// Releases a client's assignment (connection closed). The domain
    /// stays in the pool for reuse.
    pub fn release(&mut self, client: ClientId) {
        self.assignments.remove(&client);
    }

    /// Destroys all pooled domains (application shutdown, or a rebuild
    /// that replaces the pool).
    ///
    /// # Errors
    ///
    /// Propagates the first destruction failure.
    pub fn shutdown(&mut self, mgr: &mut DomainManager) -> Result<(), DomainError> {
        self.assignments.clear();
        for domain in self.domains.drain(..) {
            mgr.destroy_domain(domain)?;
        }
        Ok(())
    }

    /// Deterministic multiplexing for clients beyond the domain budget.
    fn hashed(&self, client: ClientId) -> DomainId {
        let mut hash = client.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        hash ^= hash >> 32;
        self.domains[(hash % self.domains.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_and_mgr(max: usize) -> (DomainManager, DomainPool) {
        let mgr = DomainManager::new();
        let pool = DomainPool::new(DomainConfig::new("client").heap_capacity(16 * 1024), max);
        (mgr, pool)
    }

    #[test]
    fn first_clients_get_dedicated_domains() {
        let (mut mgr, mut pool) = pool_and_mgr(4);
        let domains: Vec<_> = (0..4)
            .map(|i| pool.domain_for(&mut mgr, ClientId(i)).unwrap())
            .collect();
        let mut unique = domains.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4, "dedicated domains expected");
        assert_eq!(pool.domains_created(), 4);
    }

    #[test]
    fn assignment_is_sticky() {
        let (mut mgr, mut pool) = pool_and_mgr(2);
        let first = pool.domain_for(&mut mgr, ClientId(9)).unwrap();
        for _ in 0..10 {
            assert_eq!(pool.domain_for(&mut mgr, ClientId(9)).unwrap(), first);
        }
        assert_eq!(pool.domains_created(), 1, "no extra domains for repeats");
    }

    #[test]
    fn overflow_clients_multiplex_without_new_domains() {
        let (mut mgr, mut pool) = pool_and_mgr(3);
        for i in 0..50 {
            pool.domain_for(&mut mgr, ClientId(i)).unwrap();
        }
        assert_eq!(pool.domains_created(), 3);
        assert_eq!(pool.clients_assigned(), 50);
    }

    #[test]
    fn faulting_client_does_not_disturb_dedicated_peers() {
        let (mut mgr, mut pool) = pool_and_mgr(4);
        let attacker = pool.domain_for(&mut mgr, ClientId(0)).unwrap();
        let victim = pool.domain_for(&mut mgr, ClientId(1)).unwrap();

        // Victim stores session state in its own domain.
        let state = mgr
            .call(victim, |env| env.push_bytes(b"victim-session"))
            .unwrap();

        // Attacker faults repeatedly.
        for _ in 0..10 {
            let result = mgr.call(attacker, |env| {
                let block = env.push_bytes(b"x");
                env.free(block);
                env.free(block);
            });
            assert!(result.is_err());
        }

        // Victim's domain state is untouched (never rewound).
        let data = mgr.call(victim, |env| env.read_bytes(state, 14)).unwrap();
        assert_eq!(data, b"victim-session");
        assert_eq!(mgr.domain_info(victim).unwrap().violations, 0);
        assert_eq!(mgr.domain_info(attacker).unwrap().violations, 10);
    }

    #[test]
    fn release_and_reassign() {
        let (mut mgr, mut pool) = pool_and_mgr(2);
        let domain = pool.domain_for(&mut mgr, ClientId(5)).unwrap();
        pool.release(ClientId(5));
        assert_eq!(pool.clients_assigned(), 0);
        // A new client may land on the same pooled domain.
        let _ = pool.domain_for(&mut mgr, ClientId(6)).unwrap();
        let _ = domain;
        assert!(pool.domains_created() <= 2);
    }

    #[test]
    fn shutdown_returns_keys() {
        let (mut mgr, mut pool) = pool_and_mgr(5);
        let before = mgr.keys_available();
        for i in 0..5 {
            pool.domain_for(&mut mgr, ClientId(i)).unwrap();
        }
        assert_eq!(mgr.keys_available(), before - 5);
        pool.shutdown(&mut mgr).unwrap();
        assert_eq!(mgr.keys_available(), before);
    }

    #[test]
    fn pool_falls_back_when_app_exhausts_keys() {
        let mut mgr = DomainManager::new();
        // The app takes 14 keys…
        for i in 0..14 {
            mgr.create_domain(DomainConfig::new(format!("app-{i}")).heap_capacity(4096))
                .unwrap();
        }
        // …the pool wants 4 but can only create 1, then multiplexes.
        let mut pool = DomainPool::new(DomainConfig::new("client").heap_capacity(4096), 4);
        for i in 0..10 {
            pool.domain_for(&mut mgr, ClientId(i)).unwrap();
        }
        assert_eq!(pool.domains_created(), 1);
    }

    #[test]
    fn max_domains_is_clamped() {
        let pool = DomainPool::new(DomainConfig::new("c"), 100);
        assert_eq!(pool.max_domains, 14);
        let pool = DomainPool::new(DomainConfig::new("c"), 0);
        assert_eq!(pool.max_domains, 1);
    }
}
