//! The qcsh command interface (§3.1).
//!
//! "The command line interface to QCDOC is a modified UNIX tcsh, which we
//! call the qcsh. The qcsh runs with the UID of the application programmer,
//! gathers commands to send to the qdaemon and manages the returning data
//! stream. A subprocess of the qcsh is also available to the qdaemon, so
//! the qdaemon can request files on the host to be opened and they will
//! have the permissions and protections of the application programmer."
//!
//! The twin models the command path only: no host file is opened through
//! a session.

use crate::qdaemon::Qdaemon;
use qcdoc_geometry::PartitionSpec;
use qcdoc_sched::{JobId, JobSpec, JobStatus, Priority, Scheduler, ShapeRequest};

/// A parsed qcsh command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `qboot` — boot the machine.
    Boot,
    /// `qpartition <rank>` — request a partition remapped to `rank`
    /// dimensions (whole machine, axes folded from the top).
    Partition {
        /// Requested logical rank (1..=6).
        rank: usize,
    },
    /// `qstat` — node census.
    Status,
    /// `qfree <id>` — release a partition.
    Free {
        /// Partition id.
        id: u32,
    },
    /// `qcat <id>` — print the job output of a partition.
    Cat {
        /// Partition id.
        id: u32,
    },
    /// `qhw <id>` — print the hardware report of a partition (link
    /// errors, ECC corrections, checksum result across its nodes).
    Hardware {
        /// Partition id.
        id: u32,
    },
    /// `qsub <tenant> <class> <work> <shape>...` — submit a batch job to
    /// the scheduler. Each shape is `EXTENTSxEXTENTS.../GROUP-GROUP...`
    /// with groups as digit strings of physical axes, e.g.
    /// `4x2x1/01` (axes 0 and 1 folded into one logical axis) or
    /// `4x2x2/0-1-2` (three logical axes).
    Submit {
        /// Owning tenant.
        tenant: String,
        /// Priority class.
        priority: Priority,
        /// Service demand in scheduler ticks.
        work: u64,
        /// Acceptable shapes in preference order.
        shapes: Vec<ShapeRequest>,
    },
    /// `qflight [<node>]` — dump the host's flight recorder (the black
    /// box of quarantines and ingested node events), optionally filtered
    /// to one node's events.
    Flight {
        /// Restrict the dump to this node's events.
        node: Option<u32>,
    },
    /// `qjobs` — list the scheduler's jobs.
    Jobs,
    /// `qdel <job>` — cancel a batch job.
    Delete {
        /// The job number (as printed by `qsub`/`qjobs`).
        job: u64,
    },
    /// `qretry <job>` — manually requeue a held or terminally-failed
    /// job (releases its hold-off immediately, or revives a job whose
    /// retry budget ran out).
    Retry {
        /// The job number (as printed by `qsub`/`qjobs`).
        job: u64,
    },
    /// `qrepair` — dump the repair pipeline's state (nodes under
    /// scrub/burn-in, convictions, spares, blacklist).
    Repair,
}

/// Parse a `qsub` shape argument: `4x2x1/01` or `4x2x2/0-1-2`.
fn parse_shape(word: &str) -> Result<ShapeRequest, String> {
    let (extents_part, groups_part) = word
        .split_once('/')
        .ok_or_else(|| format!("shape {word} needs EXTENTS/GROUPS"))?;
    let extents = extents_part
        .split('x')
        .map(|e| {
            e.parse::<usize>()
                .map_err(|err| format!("bad extent: {err}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let groups = groups_part
        .split('-')
        .map(|g| {
            g.chars()
                .map(|c| {
                    c.to_digit(10)
                        .map(|d| d as usize)
                        .ok_or_else(|| format!("bad axis digit {c:?} in shape {word}"))
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ShapeRequest { extents, groups })
}

/// Parse a command line.
pub fn parse(line: &str) -> Result<Command, String> {
    let mut words = line.split_whitespace();
    match words.next() {
        Some("qboot") => Ok(Command::Boot),
        Some("qpartition") => {
            let rank: usize = words
                .next()
                .ok_or("qpartition needs a rank")?
                .parse()
                .map_err(|e| format!("bad rank: {e}"))?;
            if !(1..=6).contains(&rank) {
                return Err(format!("rank {rank} outside 1..=6"));
            }
            Ok(Command::Partition { rank })
        }
        Some("qstat") => Ok(Command::Status),
        Some("qfree") => {
            let id = words
                .next()
                .ok_or("qfree needs an id")?
                .parse()
                .map_err(|e| format!("{e}"))?;
            Ok(Command::Free { id })
        }
        Some("qcat") => {
            let id = words
                .next()
                .ok_or("qcat needs an id")?
                .parse()
                .map_err(|e| format!("{e}"))?;
            Ok(Command::Cat { id })
        }
        Some("qhw") => {
            let id = words
                .next()
                .ok_or("qhw needs an id")?
                .parse()
                .map_err(|e| format!("{e}"))?;
            Ok(Command::Hardware { id })
        }
        Some("qsub") => {
            let tenant = words.next().ok_or("qsub needs a tenant")?.to_string();
            let priority = match words.next().ok_or("qsub needs a class")? {
                "scavenger" => Priority::Scavenger,
                "standard" => Priority::Standard,
                "production" => Priority::Production,
                other => return Err(format!("unknown class {other}")),
            };
            let work: u64 = words
                .next()
                .ok_or("qsub needs a work amount")?
                .parse()
                .map_err(|e| format!("bad work: {e}"))?;
            let shapes = words.map(parse_shape).collect::<Result<Vec<_>, _>>()?;
            if shapes.is_empty() {
                return Err("qsub needs at least one shape".into());
            }
            Ok(Command::Submit {
                tenant,
                priority,
                work,
                shapes,
            })
        }
        Some("qflight") => {
            let node = match words.next() {
                Some(w) => Some(w.parse().map_err(|e| format!("bad node: {e}"))?),
                None => None,
            };
            Ok(Command::Flight { node })
        }
        Some("qjobs") => Ok(Command::Jobs),
        Some("qdel") => {
            let job = words
                .next()
                .ok_or("qdel needs a job number")?
                .parse()
                .map_err(|e| format!("{e}"))?;
            Ok(Command::Delete { job })
        }
        Some("qretry") => {
            let job = words
                .next()
                .ok_or("qretry needs a job number")?
                .parse()
                .map_err(|e| format!("{e}"))?;
            Ok(Command::Retry { job })
        }
        Some("qrepair") => Ok(Command::Repair),
        Some(other) => Err(format!("unknown command: {other}")),
        None => Err("empty command".into()),
    }
}

/// Stable lowercase word for a job status in qcsh output.
fn status_word(status: JobStatus) -> &'static str {
    match status {
        JobStatus::Queued => "queued",
        JobStatus::Running => "running",
        JobStatus::Preempted => "preempted",
        JobStatus::Held => "held",
        JobStatus::Failed => "failed",
        JobStatus::Completed => "completed",
        JobStatus::Canceled => "canceled",
    }
}

/// A user session: gathers commands for the qdaemon and returns its
/// replies. It holds no state (no host file is opened through a
/// session), so `Qcsh` is its only value.
#[derive(Debug)]
pub struct Qcsh;

impl Qcsh {
    /// Execute a command against the qdaemon, returning the textual reply.
    pub fn execute(&mut self, q: &mut Qdaemon, cmd: &Command) -> String {
        match cmd {
            Command::Boot => {
                // Boot runs each node's hardware test once; a second boot
                // would also return busy nodes to the free pool.
                if q.census().unbooted != q.machine().node_count() {
                    return "error: machine already booted".into();
                }
                let report = q.boot(&[]);
                format!(
                    "booted {} nodes ({} faulty) in {:.2} s, machine {}",
                    report.booted,
                    report.faulty.len(),
                    report.boot_seconds,
                    report.detected_shape
                )
            }
            Command::Partition { rank } => {
                let machine = q.machine().clone();
                // Fold the trailing axes into the last logical dimension.
                let keep = rank - 1;
                let mut groups: Vec<Vec<usize>> = (0..keep).map(|a| vec![a]).collect();
                groups.push((keep..machine.rank()).collect());
                let spec = PartitionSpec {
                    origin: qcdoc_geometry::NodeCoord::ORIGIN,
                    extents: machine.dims().to_vec(),
                    groups,
                };
                match q.allocate(spec) {
                    Ok(id) => {
                        let shape = q.partition(id).unwrap().logical_shape().clone();
                        format!("partition {id}: {shape}")
                    }
                    Err(e) => format!("error: {e}"),
                }
            }
            Command::Status => {
                let census = q.census();
                format!(
                    "ready {} busy {} faulty {} unbooted {} spare {} blacklisted {}",
                    census.ready,
                    census.busy,
                    census.faulty,
                    census.unbooted,
                    census.spare,
                    census.blacklisted
                )
            }
            Command::Submit { .. }
            | Command::Jobs
            | Command::Delete { .. }
            | Command::Retry { .. } => {
                "error: batch commands need a scheduler (use execute_batch)".into()
            }
            Command::Repair => q.repair_state(),
            Command::Free { id } => {
                q.release(*id);
                format!("partition {id} released")
            }
            Command::Cat { id } => match q.job_output(*id) {
                Some(out) => String::from_utf8_lossy(out).into_owned(),
                None => format!("error: no partition {id}"),
            },
            Command::Flight { node } => q.flight_dump(*node),
            Command::Hardware { id } => match q.hardware_report(*id) {
                Some(hw) => format!(
                    "link errors {} ecc corrections {} checksums {}",
                    hw.link_errors,
                    hw.ecc_corrections,
                    if hw.checksums_ok { "ok" } else { "FAILED" }
                ),
                None => format!("error: no partition {id}"),
            },
        }
    }

    /// Execute a command in a batch session: the scheduler handles
    /// `qsub`/`qjobs`/`qdel` (submissions trigger an immediate
    /// scheduling pass against the daemon), everything else falls
    /// through to [`Qcsh::execute`].
    pub fn execute_batch(
        &mut self,
        q: &mut Qdaemon,
        sched: &mut Scheduler,
        cmd: &Command,
    ) -> String {
        match cmd {
            Command::Submit {
                tenant,
                priority,
                work,
                shapes,
            } => {
                let spec = JobSpec {
                    tenant: tenant.clone(),
                    priority: *priority,
                    shapes: shapes.clone(),
                    work: *work,
                    preemptible: true,
                };
                match sched.submit(spec) {
                    Ok(id) => {
                        sched.schedule(q);
                        let status = sched.job(id).expect("just submitted").status;
                        format!("{id} {}", status_word(status))
                    }
                    Err(e) => format!("error: {e}"),
                }
            }
            Command::Jobs => {
                let mut lines: Vec<String> = sched
                    .jobs()
                    .map(|j| {
                        let shape = j
                            .placement
                            .as_ref()
                            .map(|p| p.logical.to_string())
                            .unwrap_or_else(|| "-".into());
                        let failure = j
                            .last_failure
                            .map(|c| c.label())
                            .unwrap_or("-");
                        format!(
                            "{} tenant={} class={} {} shape={} wait={} preempted={} retries={} failure={}",
                            j.id,
                            j.spec.tenant,
                            j.spec.priority.label(),
                            status_word(j.status),
                            shape,
                            j.wait_ticks,
                            j.preemptions,
                            j.retries,
                            failure
                        )
                    })
                    .collect();
                if lines.is_empty() {
                    lines.push("no jobs".into());
                }
                lines.join("\n")
            }
            Command::Delete { job } => {
                if sched.cancel(JobId(*job), q) {
                    format!("job{job} canceled")
                } else {
                    format!("error: no cancellable job{job}")
                }
            }
            Command::Retry { job } => {
                if sched.retry(JobId(*job), q) {
                    let status = sched.job(JobId(*job)).expect("retried job").status;
                    format!("job{job} {}", status_word(status))
                } else {
                    format!("error: no retryable job{job}")
                }
            }
            other => self.execute(q, other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcdoc_geometry::TorusShape;

    fn machine() -> TorusShape {
        TorusShape::new(&[4, 2, 2, 2, 1, 1])
    }

    #[test]
    fn parse_commands() {
        assert_eq!(parse("qboot"), Ok(Command::Boot));
        assert_eq!(parse("qpartition 4"), Ok(Command::Partition { rank: 4 }));
        assert_eq!(parse("qstat"), Ok(Command::Status));
        assert_eq!(parse("qfree 2"), Ok(Command::Free { id: 2 }));
        assert_eq!(parse("qcat 0"), Ok(Command::Cat { id: 0 }));
        assert_eq!(parse("qhw 1"), Ok(Command::Hardware { id: 1 }));
        assert!(parse("qhw").is_err());
        assert!(parse("qpartition 9").is_err());
        assert!(parse("rm -rf /").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn boot_then_partition_session() {
        let mut q = Qdaemon::new(machine());
        let mut sh = Qcsh;
        let boot_reply = sh.execute(&mut q, &Command::Boot);
        assert!(boot_reply.contains("booted 32 nodes"));
        let part_reply = sh.execute(&mut q, &Command::Partition { rank: 4 });
        assert!(part_reply.starts_with("partition 0:"), "{part_reply}");
        let stat = sh.execute(&mut q, &Command::Status);
        assert_eq!(
            stat,
            "ready 0 busy 32 faulty 0 unbooted 0 spare 0 blacklisted 0"
        );
        sh.execute(&mut q, &Command::Free { id: 0 });
        let stat = sh.execute(&mut q, &Command::Status);
        assert_eq!(
            stat,
            "ready 32 busy 0 faulty 0 unbooted 0 spare 0 blacklisted 0"
        );
    }

    #[test]
    fn job_output_through_qcat() {
        let mut q = Qdaemon::new(machine());
        let mut sh = Qcsh;
        sh.execute(&mut q, &Command::Boot);
        sh.execute(&mut q, &Command::Partition { rank: 6 });
        q.return_output(0, b"sweep 1: plaquette 0.5812\n");
        let out = sh.execute(&mut q, &Command::Cat { id: 0 });
        assert!(out.contains("plaquette"));
    }

    #[test]
    fn hardware_report_through_qhw() {
        use qcdoc_fault::HealthLedger;
        let mut q = Qdaemon::new(machine());
        let mut sh = Qcsh;
        sh.execute(&mut q, &Command::Boot);
        sh.execute(&mut q, &Command::Partition { rank: 6 });
        // A sweep saw three corrected memory errors on node 5 and two
        // checksum-rejected DMA blocks on node 7; all healed in place.
        let mut ledger = HealthLedger::new(32);
        ledger.node_mut(5).ecc_corrected = 3;
        ledger.node_mut(7).links[2].block_rejects = 2;
        q.ingest_health(&ledger).unwrap();
        let out = sh.execute(&mut q, &Command::Hardware { id: 0 });
        assert_eq!(out, "link errors 2 ecc corrections 3 checksums ok");
        // An end-of-run checksum mismatch flips the verdict and sticks.
        ledger.node_mut(2).links[0].checksum_ok = Some(false);
        q.ingest_health(&ledger).unwrap();
        let out = sh.execute(&mut q, &Command::Hardware { id: 0 });
        assert_eq!(out, "link errors 2 ecc corrections 3 checksums FAILED");
        // Unknown partitions report an error, not a panic.
        let out = sh.execute(&mut q, &Command::Hardware { id: 9 });
        assert_eq!(out, "error: no partition 9");
    }

    #[test]
    fn flight_dump_through_qflight() {
        use qcdoc_fault::{HealthLedger, Liveness};
        let mut q = Qdaemon::new(machine());
        let mut sh = Qcsh;
        sh.execute(&mut q, &Command::Boot);
        // Nothing has gone wrong yet: the black box is empty.
        assert_eq!(parse("qflight"), Ok(Command::Flight { node: None }));
        assert_eq!(parse("qflight 9"), Ok(Command::Flight { node: Some(9) }));
        assert!(parse("qflight nine").is_err());
        let out = sh.execute(&mut q, &Command::Flight { node: None });
        assert_eq!(out, "(no flight events)\n");
        // A sweep condemns node 9; the quarantine lands in the ring.
        let mut ledger = HealthLedger::new(32);
        ledger.node_mut(9).liveness = Liveness::Wedged;
        q.ingest_health(&ledger).unwrap();
        let out = sh.execute(&mut q, &Command::Flight { node: None });
        assert!(out.contains("quarantine"), "{out}");
        assert!(out.contains("a=9"), "{out}");
        // Filtering to an uninvolved node shows nothing.
        let out = sh.execute(&mut q, &Command::Flight { node: Some(3) });
        assert_eq!(out, "(no flight events)\n");
    }

    #[test]
    fn parse_batch_commands() {
        assert_eq!(
            parse("qsub phys production 100 4x2x1/01"),
            Ok(Command::Submit {
                tenant: "phys".into(),
                priority: Priority::Production,
                work: 100,
                shapes: vec![ShapeRequest {
                    extents: vec![4, 2, 1],
                    groups: vec![vec![0, 1]],
                }],
            })
        );
        // Alternate shapes and multi-group folds.
        assert_eq!(
            parse("qsub phys scavenger 5 4x2x2/01-2 4x2x1/01"),
            Ok(Command::Submit {
                tenant: "phys".into(),
                priority: Priority::Scavenger,
                work: 5,
                shapes: vec![
                    ShapeRequest {
                        extents: vec![4, 2, 2],
                        groups: vec![vec![0, 1], vec![2]],
                    },
                    ShapeRequest {
                        extents: vec![4, 2, 1],
                        groups: vec![vec![0, 1]],
                    },
                ],
            })
        );
        assert_eq!(parse("qjobs"), Ok(Command::Jobs));
        assert_eq!(parse("qdel 3"), Ok(Command::Delete { job: 3 }));
        assert_eq!(parse("qretry 3"), Ok(Command::Retry { job: 3 }));
        assert_eq!(parse("qrepair"), Ok(Command::Repair));
        assert!(parse("qsub phys production 100").is_err(), "no shapes");
        assert!(parse("qsub phys urgent 1 4x2x1/01").is_err(), "bad class");
        assert!(parse("qsub phys standard 1 4x2x1").is_err(), "no groups");
        assert!(parse("qdel").is_err());
        assert!(parse("qretry").is_err());
    }

    #[test]
    fn batch_session_submits_lists_and_cancels() {
        use qcdoc_sched::{SchedConfig, TenantConfig};
        let mut q = Qdaemon::new(machine());
        let mut sched = Scheduler::new(machine(), SchedConfig::default());
        sched.add_tenant("phys", TenantConfig::default());
        let mut sh = Qcsh;
        sh.execute(&mut q, &Command::Boot);
        // Whole machine folded to 3-D: runs immediately.
        let reply = sh.execute_batch(
            &mut q,
            &mut sched,
            &parse("qsub phys standard 50 4x2x2x2x1x1/0-1-23").unwrap(),
        );
        assert_eq!(reply, "job0 running");
        // Second identical job queues behind it.
        let reply = sh.execute_batch(
            &mut q,
            &mut sched,
            &parse("qsub phys standard 50 4x2x2x2x1x1/0-1-23").unwrap(),
        );
        assert_eq!(reply, "job1 queued");
        let listing = sh.execute_batch(&mut q, &mut sched, &Command::Jobs);
        assert!(listing.contains("job0 tenant=phys class=standard running"));
        assert!(listing.contains("job1 tenant=phys class=standard queued"));
        // Unknown tenants are refused at the prompt.
        let reply = sh.execute_batch(
            &mut q,
            &mut sched,
            &parse("qsub ghost standard 1 4x2x2x2x1x1/0-1-23").unwrap(),
        );
        assert!(reply.starts_with("error: unknown tenant"));
        // qdel frees the machine; the queued job takes over.
        let reply = sh.execute_batch(&mut q, &mut sched, &parse("qdel 0").unwrap());
        assert_eq!(reply, "job0 canceled");
        assert_eq!(
            sh.execute_batch(&mut q, &mut sched, &parse("qdel 0").unwrap()),
            "error: no cancellable job0"
        );
        let listing = sh.execute_batch(&mut q, &mut sched, &Command::Jobs);
        assert!(listing.contains("job1 tenant=phys class=standard running"));
        // Batch commands without a scheduler answer with an error.
        assert!(sh
            .execute(&mut q, &Command::Jobs)
            .starts_with("error: batch commands need a scheduler"));
    }

    #[test]
    fn retry_and_repair_verbs_drive_the_autonomic_loop() {
        use qcdoc_fault::FailureClass;
        use qcdoc_sched::{SchedConfig, TenantConfig};
        let mut q = Qdaemon::new(machine());
        let mut sched = Scheduler::new(machine(), SchedConfig::default());
        sched.add_tenant("phys", TenantConfig::default());
        let mut sh = Qcsh;
        sh.execute(&mut q, &Command::Boot);
        let reply = sh.execute_batch(
            &mut q,
            &mut sched,
            &parse("qsub phys standard 50 4x2x2x2x1x1/0-1-23").unwrap(),
        );
        assert_eq!(reply, "job0 running");
        // The run dies; qjobs shows the hold-off and the failure class.
        sched.fail_job(JobId(0), FailureClass::NodeCrash, &[], &mut q);
        let listing = sh.execute_batch(&mut q, &mut sched, &Command::Jobs);
        assert!(
            listing.contains("job0 tenant=phys class=standard held"),
            "{listing}"
        );
        assert!(
            listing.contains("retries=1 failure=node_crash"),
            "{listing}"
        );
        // qretry releases the hold-off immediately: the job runs again.
        let reply = sh.execute_batch(&mut q, &mut sched, &parse("qretry 0").unwrap());
        assert_eq!(reply, "job0 running");
        assert_eq!(
            sh.execute_batch(&mut q, &mut sched, &parse("qretry 7").unwrap()),
            "error: no retryable job7"
        );
        // qrepair reports the pipeline; a quarantined node shows up.
        q.release(1); // free the partition job0 re-acquired
        let before = sh.execute(&mut q, &Command::Repair);
        assert!(before.starts_with("repair: 0 in pipeline"), "{before}");
        q.mark_faulty(qcdoc_geometry::NodeId(4));
        q.repair_admit();
        let during = sh.execute(&mut q, &Command::Repair);
        assert!(during.contains("1 in pipeline"), "{during}");
        assert!(during.contains("node 4 stage=scrub"), "{during}");
    }

    #[test]
    fn error_paths_answer_in_prose_never_panic() {
        use qcdoc_sched::SchedConfig;
        let mut q = Qdaemon::new(machine());
        let mut sched = Scheduler::new(machine(), SchedConfig::default());
        let mut sh = Qcsh;

        // Before anything runs: every dump verb has an "empty" answer.
        assert_eq!(
            sh.execute(&mut q, &parse("qflight").unwrap()),
            "(no flight events)\n"
        );
        assert_eq!(
            sh.execute_batch(&mut q, &mut sched, &parse("qjobs").unwrap()),
            "no jobs"
        );

        // Unknown / out-of-range targets come back as errors in prose.
        // A node number beyond the 32-node machine is simply a filter
        // that matches nothing, like an uninvolved node.
        assert_eq!(
            sh.execute(&mut q, &parse("qflight 999").unwrap()),
            "(no flight events)\n"
        );
        assert_eq!(
            sh.execute(&mut q, &parse("qhw 7").unwrap()),
            "error: no partition 7"
        );
        assert_eq!(
            sh.execute(&mut q, &parse("qcat 7").unwrap()),
            "error: no partition 7"
        );
        assert_eq!(
            sh.execute_batch(&mut q, &mut sched, &parse("qdel 42").unwrap()),
            "error: no cancellable job42"
        );

        // The same verbs still answer before boot AND after a boot with
        // real traffic — the unknown-target replies are stable.
        sh.execute(&mut q, &Command::Boot);
        sh.execute(&mut q, &Command::Partition { rank: 6 });
        assert_eq!(
            sh.execute(&mut q, &parse("qhw 9").unwrap()),
            "error: no partition 9"
        );
        assert_eq!(
            sh.execute(&mut q, &parse("qflight 999").unwrap()),
            "(no flight events)\n"
        );

        // Malformed arguments are parse errors, not daemon traffic.
        for bad in ["qhw seven", "qcat -1", "qdel job0", "qflight x1"] {
            assert!(parse(bad).is_err(), "{bad} should fail to parse");
        }
    }

    #[test]
    fn malformed_partition_shapes_answer_in_prose() {
        use qcdoc_sched::{SchedConfig, TenantConfig};
        let mut q = Qdaemon::new(machine());
        let mut sched = Scheduler::new(machine(), SchedConfig::default());
        sched.add_tenant("phys", TenantConfig::default());
        let mut sh = Qcsh;
        sh.execute(&mut q, &Command::Boot);
        for (line, reason) in [
            (
                "qsub phys standard 50 0x2x2x2x1x1/0-1-2345",
                "extent on axis 0 is zero",
            ),
            (
                "qsub phys standard 50 4x0x2x2x1x1/012345",
                "extent on axis 1 is zero",
            ),
            ("qsub phys standard 50 0/0", "extent on axis 0 is zero"),
            (
                "qsub phys standard 50 4x2x2x2x1x1x3/0-1-23",
                "axis 6, which the machine lacks",
            ),
        ] {
            let reply = sh.execute_batch(&mut q, &mut sched, &parse(line).unwrap());
            assert!(reply.starts_with("error: "), "{line}: {reply}");
            assert!(reply.contains(reason), "{line}: {reply}");
        }
        // Nothing was admitted, and a second boot is refused, not rerun.
        assert_eq!(
            sh.execute_batch(&mut q, &mut sched, &Command::Jobs),
            "no jobs"
        );
        assert_eq!(
            sh.execute(&mut q, &Command::Boot),
            "error: machine already booted"
        );
    }
}
