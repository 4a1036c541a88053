//! Tenants: the physics groups competing for the machine.

/// Static configuration of one tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantConfig {
    /// Fair-share weight: a tenant with twice the weight is entitled to
    /// twice the node-ticks before its jobs sort behind others'.
    pub weight: f64,
    /// Maximum nodes the tenant may occupy concurrently. Admission
    /// rejects jobs whose smallest acceptable shape exceeds this.
    pub node_quota: usize,
    /// Maximum jobs the tenant may have queued (not yet running).
    pub max_queued: usize,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            weight: 1.0,
            node_quota: usize::MAX,
            max_queued: usize::MAX,
        }
    }
}

/// Running accounting for one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TenantStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs refused at admission.
    pub rejected: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs cancelled before completion.
    pub canceled: u64,
    /// Times one of this tenant's jobs was preempted.
    pub preemptions: u64,
    /// Times one of this tenant's jobs was requeued after a failure.
    pub requeues: u64,
    /// Jobs that exhausted their retry budget and failed terminally.
    pub failed: u64,
    /// Total ticks the tenant's jobs spent waiting in the queue
    /// (submission → first start, plus preemption → resume).
    pub wait_ticks: u64,
    /// Total node·ticks of service delivered to the tenant.
    pub node_ticks: u64,
    /// Nodes the tenant occupies right now.
    pub running_nodes: usize,
    /// High-water mark of concurrently occupied nodes — the quota
    /// enforcement witness the soak test asserts on.
    pub max_running_nodes: usize,
}

impl TenantStats {
    /// Fair-share charge: node-ticks consumed per unit of weight.
    pub fn share(&self, config: &TenantConfig) -> f64 {
        self.node_ticks as f64 / config.weight.max(f64::MIN_POSITIVE)
    }
}
