//! Chaos-soak acceptance: the autonomic failure-management loop —
//! detect → checkpoint-requeue → repair-and-return — proven under
//! sustained, mixed fire.
//!
//! This is the machine-level counterpart of the paper's §4 operating
//! experience: campaigns on QCDOC survived real hardware attrition
//! because failure handling was part of normal operations, not an
//! exception path. The soak runs a multi-tenant job mix while dead
//! links, node crashes, wedges, uncorrectable machine checks, link
//! corruption and storage faults all strike on a seeded schedule, and
//! gates the outcome on machine-level SLOs:
//!
//! * **zero lost jobs** — every submission completes;
//! * **bit-identical solves** — tracked CG jobs resumed from their
//!   durable checkpoints land on the fault-free fingerprint;
//! * **goodput** — delivered-minus-wasted service stays above a floor
//!   despite the rollbacks;
//! * **capacity recovery** — the repair pipeline returns every
//!   non-lemon node to service; lemons are stickily blacklisted;
//! * **restart survival** — killing the qdaemon mid-soak resumes the
//!   same scheduler event log from the vault snapshot.

use qcdoc::host::{run_chaos, ChaosConfig};

#[test]
fn sustained_chaos_soak_meets_the_machine_slos() {
    let report = run_chaos(ChaosConfig::default());
    let cfg = ChaosConfig::default();

    // The soak must actually have been a soak: faults of both halves
    // (machine and storage) landed, requeues happened, repairs ran.
    assert!(report.drained, "scheduler must drain: {report:?}");
    assert!(report.failures_injected >= 10, "{report:?}");
    assert!(report.storage_faults_injected >= 3, "{report:?}");
    assert!(report.requeues >= 5, "{report:?}");
    assert!(report.repaired >= 1, "repair must return nodes: {report:?}");

    // SLO 1: zero lost jobs.
    assert_eq!(report.lost, 0, "no job may be lost: {report:?}");
    assert_eq!(
        report.completed,
        (cfg.jobs + cfg.tracked_solves) as u64,
        "every submission completes: {report:?}"
    );

    // SLO 2: bit-identical tracked solves.
    assert_eq!(
        report.tracked_matches, report.tracked_total,
        "every tracked CG solve must match the fault-free fingerprint: {report:?}"
    );

    // SLO 3: goodput under fault load.
    assert!(
        report.goodput > 0.10,
        "goodput collapsed under faults: {report:?}"
    );

    // SLO 4: capacity recovered — everything allocatable again except
    // the stickily-blacklisted lemons.
    assert_eq!(
        report.capacity_end + report.blacklisted as usize,
        report.node_count,
        "capacity must recover up to the blacklist: {report:?}"
    );
    assert!(
        report.blacklisted as usize <= cfg.lemons,
        "only lemons may be blacklisted: {report:?}"
    );
}

#[test]
fn chaos_soak_is_deterministic_per_seed() {
    let a = run_chaos(ChaosConfig::default());
    let b = run_chaos(ChaosConfig::default());
    assert_eq!(a.event_digest, b.event_digest, "same seed, same history");
    assert_eq!(a.event_count, b.event_count);
    assert_eq!(a.clock, b.clock);
    assert_eq!(a.requeues, b.requeues);
    assert_eq!(a.goodput.to_bits(), b.goodput.to_bits());

    let c = run_chaos(ChaosConfig {
        seed: 99,
        ..ChaosConfig::default()
    });
    assert_ne!(
        a.event_digest, c.event_digest,
        "a different seed must tell a different story"
    );

    // The histories themselves are pinned, so a change to the scheduler's
    // placement search or the daemon's health ingest that alters any
    // decision shows here, not only as a different-but-repeatable run.
    let pinned = |r: &qcdoc::host::ChaosReport| {
        (
            r.event_digest,
            r.event_count,
            r.clock,
            r.requeues,
            r.goodput.to_bits(),
        )
    };
    assert_eq!(
        pinned(&a),
        (0x2b42_f00a_6612_c6ca, 78, 555, 14, 0x3fc8_a60d_d67c_8a61),
        "seed 0x1000: {a:?}"
    );
    assert_eq!(
        pinned(&c),
        (0x794a_ec44_ec8c_8480, 82, 504, 16, 0x3fce_aaaa_aaaa_aaab),
        "seed 99: {c:?}"
    );
    // So is what the daemon's registry holds at the end: every node
    // gauge, counter and histogram.
    assert_eq!(
        (a.registry_digest, c.registry_digest),
        (0xae7d_50ec_5169_3921, 0x30e2_c7bc_cbd1_e31f)
    );
}

#[test]
fn killing_the_qdaemon_mid_soak_resumes_the_same_event_log() {
    let report = run_chaos(ChaosConfig {
        restart_at: Some(150),
        ..ChaosConfig::default()
    });
    assert_eq!(
        report.restart_log_resumed,
        Some(true),
        "the restored scheduler must carry the pre-kill event log: {report:?}"
    );
    // What the restored scheduler decides is pinned too: every job the
    // restart rolled back, when it resumed, and what the daemon saw.
    assert_eq!(
        (
            report.event_digest,
            report.event_count,
            report.clock,
            report.requeues,
            report.goodput.to_bits(),
            report.registry_digest,
        ),
        (
            0x36c2_8a51_2d0a_c402,
            78,
            555,
            14,
            0x3fc9_cd42_e204_9cd4,
            0x7896_8127_4dd3_7589
        ),
        "{report:?}"
    );
    // The restart must not weaken any SLO: nothing lost, solves exact,
    // capacity recovered.
    assert!(report.drained, "{report:?}");
    assert_eq!(report.lost, 0, "{report:?}");
    assert_eq!(report.tracked_matches, report.tracked_total, "{report:?}");
    assert_eq!(
        report.capacity_end + report.blacklisted as usize,
        report.node_count,
        "{report:?}"
    );
}

#[test]
fn heavier_fire_still_loses_nothing() {
    // Double the strike rate and add a lemon: the budgeted retries and
    // degradable shape menu must still carry every job home.
    let report = run_chaos(ChaosConfig {
        seed: 7,
        fault_period: 7,
        lemons: 3,
        ..ChaosConfig::default()
    });
    assert!(report.drained, "{report:?}");
    assert_eq!(report.lost, 0, "{report:?}");
    assert_eq!(report.tracked_matches, report.tracked_total, "{report:?}");
    assert!(report.failures_injected > 15, "{report:?}");
}
