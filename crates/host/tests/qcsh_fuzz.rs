//! Command-line fuzz of the host surface: qcsh lines meet a live daemon.
//!
//! Every line a user can type goes through [`parse`] and then
//! [`Qcsh::execute_batch`] against a booted 32-node qdaemon with a batch
//! scheduler behind it. Lines are drawn from the qcsh vocabulary (every
//! verb, a known and an unknown tenant, every class and a bad one,
//! numbers 0–40) and from `qsub` shapes with extents 0–5 and axis digits
//! 0–9, so zero extents, extents beyond the machine's rank and axes it
//! lacks all reach the daemon. The property: nothing panics. A malformed
//! line is a parse error and a refused request is an `error: …` reply,
//! both in prose.

use proptest::prelude::*;
use qcdoc_geometry::TorusShape;
use qcdoc_host::qcsh::{parse, Qcsh};
use qcdoc_host::qdaemon::Qdaemon;
use qcdoc_sched::{SchedConfig, Scheduler, TenantConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn machine() -> TorusShape {
    TorusShape::new(&[4, 2, 2, 2, 1, 1])
}

fn word(words: &'static [&'static str]) -> impl Strategy<Value = String> {
    (0..words.len()).prop_map(move |i| words[i].to_string())
}

fn verb() -> impl Strategy<Value = String> {
    word(&[
        "qboot",
        "qpartition",
        "qstat",
        "qfree",
        "qcat",
        "qhw",
        "qsub",
        "qflight",
        "qjobs",
        "qdel",
        "qretry",
        "qrepair",
    ])
}

fn tenant() -> impl Strategy<Value = String> {
    word(&["phys", "ghost"])
}

fn class() -> impl Strategy<Value = String> {
    word(&["scavenger", "standard", "production", "urgent"])
}

fn number() -> impl Strategy<Value = String> {
    (0u64..=40).prop_map(|n| n.to_string())
}

/// `EXTENTS/GROUPS`: 1–7 extents in 0–5, 1–4 groups of 1–4 axis digits.
fn shape() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(0usize..=5, 1..=7),
        prop::collection::vec(prop::collection::vec(0u32..=9, 1..=4), 1..=4),
    )
        .prop_map(|(extents, groups)| {
            let extents: Vec<String> = extents.iter().map(usize::to_string).collect();
            let groups: Vec<String> = groups
                .iter()
                .map(|g| g.iter().map(u32::to_string).collect())
                .collect();
            format!("{}/{}", extents.join("x"), groups.join("-"))
        })
}

/// One command line: a well-formed-looking `qsub`, or a verb followed by
/// up to four words from the whole vocabulary.
fn line() -> impl Strategy<Value = String> {
    let any_word = prop_oneof![verb(), tenant(), class(), number(), shape()];
    prop_oneof![
        (
            tenant(),
            class(),
            number(),
            prop::collection::vec(shape(), 1..=2)
        )
            .prop_map(|(t, c, n, shapes)| format!("qsub {t} {c} {n} {}", shapes.join(" "))),
        (verb(), prop::collection::vec(any_word, 0..=4))
            .prop_map(|(v, args)| format!("{v} {}", args.join(" "))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn no_command_line_panics_the_host(lines in prop::collection::vec(line(), 1..=8)) {
        let mut q = Qdaemon::new(machine());
        q.boot(&[]);
        let mut sched = Scheduler::new(machine(), SchedConfig::default());
        sched.add_tenant("phys", TenantConfig::default());
        let mut sh = Qcsh;
        for line in &lines {
            let Ok(cmd) = parse(line) else { continue };
            let reply: Result<String, _> =
                catch_unwind(AssertUnwindSafe(|| sh.execute_batch(&mut q, &mut sched, &cmd)));
            prop_assert!(reply.is_ok(), "`{line}` panicked the host (session: {lines:?})");
        }
    }
}
