//! CG solver checkpoints in the NERSC-archive idiom.
//!
//! A production campaign on a 12,288-node machine outlives its hardware:
//! the paper's Ethernet/JTAG diagnostics network exists so an operator can
//! pull a failing daughterboard, repartition, and *resume* — which
//! requires the solver's state to be on disk, in the same portable,
//! checksummed, self-describing format as the gauge configurations it
//! works on (see [`crate::io`]).
//!
//! A [`CgCheckpoint`] captures the complete loop-carried state of
//! [`crate::solver::solve_cgne`] at an iteration boundary: the three
//! Krylov vectors (x, r, p) as exact IEEE-754 bit patterns, the scalar
//! recurrence state (`rsq`, the reference norm `bref`), the iteration
//! counter, the residual history, and the phase counters. Restoring it
//! and continuing produces a solve that is **bit-identical** to one that
//! never stopped — the property the reproducibility suite asserts.
//!
//! CG carries no random state: the "rng/seq state" of the recovery story
//! is exactly the scalar/residual sequence checkpointed here (field
//! generation uses the site-indexed RNG of [`crate::rng`], which is a
//! pure function of the seed and never advances during a solve).

use crate::io::{header_value, nersc_checksum, IoError};
use serde::{Deserialize, Serialize};

/// The complete loop-carried state of a CG solve at an iteration boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CgCheckpoint {
    /// Operator name (must match on resume).
    pub operator: String,
    /// Iterations completed when the checkpoint was taken.
    pub iterations: usize,
    /// Whether the tolerance was already reached.
    pub converged: bool,
    /// The residual-norm recurrence scalar `rsq = ‖r‖²` (exact bits).
    pub rsq: f64,
    /// The reference scale `bref = ‖M†b‖²` (exact bits).
    pub bref: f64,
    /// Relative-residual history, one entry per completed iteration.
    pub residuals: Vec<f64>,
    /// Operator applications performed so far.
    pub applications: usize,
    /// Global reductions performed so far.
    pub reductions: usize,
    /// Solution vector, as IEEE-754 bit patterns in site order.
    pub x: Vec<u64>,
    /// Residual vector bits.
    pub r: Vec<u64>,
    /// Search-direction vector bits.
    pub p: Vec<u64>,
}

/// Why a checkpoint cannot be resumed against a given operator and
/// problem size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The checkpoint was taken under a different Dirac operator.
    OperatorMismatch {
        /// Operator name recorded in the checkpoint.
        expected: String,
        /// Operator offered for the resume.
        found: String,
    },
    /// The global degrees of freedom offered for the resume do not match
    /// a checkpointed vector — the checkpoint belongs to a different
    /// problem (or is malformed), not merely a different partition shape.
    ShapeMismatch {
        /// Bit-pattern words in the offending checkpoint vector.
        expected: usize,
        /// Bit-pattern words per vector of the offered problem.
        found: usize,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::OperatorMismatch { expected, found } => write!(
                f,
                "checkpoint was taken under operator {expected}, cannot resume under {found}"
            ),
            ResumeError::ShapeMismatch { expected, found } => write!(
                f,
                "a checkpoint vector holds {expected} words but the problem holds {found} per vector"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

impl CgCheckpoint {
    /// The one resume-time validation, shared by the serial
    /// [`resume_cgne`](crate::solver::resume_cgne) and the distributed
    /// segment: the checkpoint must have been taken under `operator`, and
    /// each of `x`, `r` and `p` must hold `words` bit-pattern words (the
    /// global problem size — machine shape is free).
    pub fn validate(&self, operator: &str, words: usize) -> Result<(), ResumeError> {
        if self.operator != operator {
            return Err(ResumeError::OperatorMismatch {
                expected: self.operator.clone(),
                found: operator.to_string(),
            });
        }
        for vector in [&self.x, &self.r, &self.p] {
            if vector.len() != words {
                return Err(ResumeError::ShapeMismatch {
                    expected: vector.len(),
                    found: words,
                });
            }
        }
        Ok(())
    }

    /// Order-sensitive FNV digest over every field — the
    /// `LinkChecksum`-style identity of the checkpointed state. Two
    /// checkpoints with equal digests carry bit-identical solver state.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |v: u64| {
            h = h.wrapping_mul(0x100_0000_01B3).wrapping_add(v);
        };
        for b in self.operator.as_bytes() {
            eat(u64::from(*b));
        }
        eat(self.iterations as u64);
        eat(u64::from(self.converged));
        eat(self.rsq.to_bits());
        eat(self.bref.to_bits());
        eat(self.applications as u64);
        eat(self.reductions as u64);
        for r in &self.residuals {
            eat(r.to_bits());
        }
        for v in [&self.x, &self.r, &self.p] {
            for &w in v {
                eat(w);
            }
        }
        h
    }
}

/// Serialize a checkpoint: an ASCII header in the NERSC-archive idiom
/// followed by the big-endian 64-bit payload (x, r, p, residual bits).
pub fn write_checkpoint(ckpt: &CgCheckpoint) -> Vec<u8> {
    assert_eq!(ckpt.x.len(), ckpt.r.len());
    assert_eq!(ckpt.x.len(), ckpt.p.len());
    let mut payload = Vec::with_capacity((3 * ckpt.x.len() + ckpt.residuals.len()) * 8);
    for v in [&ckpt.x, &ckpt.r, &ckpt.p] {
        for &w in v {
            payload.extend_from_slice(&w.to_be_bytes());
        }
    }
    for r in &ckpt.residuals {
        payload.extend_from_slice(&r.to_bits().to_be_bytes());
    }
    let checksum = nersc_checksum(&payload);
    let mut out = String::new();
    out.push_str("BEGIN_CKPT_HEADER\n");
    out.push_str("HDR_VERSION = 1.0\n");
    out.push_str("DATATYPE = QCDOC_CG_CHECKPOINT\n");
    out.push_str(&format!("OPERATOR = {}\n", ckpt.operator));
    out.push_str(&format!("ITERATIONS = {}\n", ckpt.iterations));
    out.push_str(&format!("CONVERGED = {}\n", u8::from(ckpt.converged)));
    out.push_str(&format!("APPLICATIONS = {}\n", ckpt.applications));
    out.push_str(&format!("REDUCTIONS = {}\n", ckpt.reductions));
    out.push_str(&format!("VECTOR_WORDS = {}\n", ckpt.x.len()));
    out.push_str(&format!("RESIDUAL_COUNT = {}\n", ckpt.residuals.len()));
    out.push_str(&format!("RSQ_BITS = {:x}\n", ckpt.rsq.to_bits()));
    out.push_str(&format!("BREF_BITS = {:x}\n", ckpt.bref.to_bits()));
    out.push_str(&format!("CHECKSUM = {checksum:x}\n"));
    out.push_str("FLOATING_POINT = IEEE64BIG\n");
    out.push_str("END_CKPT_HEADER\n");
    let mut bytes = out.into_bytes();
    bytes.extend_from_slice(&payload);
    bytes
}

fn usize_field(header: &str, key: &str) -> Result<usize, IoError> {
    header_value(header, key)?
        .parse()
        .map_err(|_| IoError::BadHeader(format!("bad {key}")))
}

fn bits_field(header: &str, key: &str) -> Result<u64, IoError> {
    u64::from_str_radix(header_value(header, key)?, 16)
        .map_err(|_| IoError::BadHeader(format!("bad {key}")))
}

/// Deserialize and fully validate a checkpoint.
pub fn read_checkpoint(bytes: &[u8]) -> Result<CgCheckpoint, IoError> {
    let end_marker = b"END_CKPT_HEADER\n";
    let header_end = bytes
        .windows(end_marker.len())
        .position(|w| w == end_marker)
        .ok_or_else(|| IoError::BadHeader("no END_CKPT_HEADER".into()))?
        + end_marker.len();
    let header = std::str::from_utf8(&bytes[..header_end])
        .map_err(|_| IoError::BadHeader("non-utf8 header".into()))?;
    if header_value(header, "DATATYPE")? != "QCDOC_CG_CHECKPOINT" {
        return Err(IoError::BadHeader("wrong DATATYPE".into()));
    }
    let operator = header_value(header, "OPERATOR")?.to_string();
    let iterations = usize_field(header, "ITERATIONS")?;
    let converged = match header_value(header, "CONVERGED")? {
        "0" => false,
        "1" => true,
        _ => return Err(IoError::BadHeader("bad CONVERGED".into())),
    };
    let applications = usize_field(header, "APPLICATIONS")?;
    let reductions = usize_field(header, "REDUCTIONS")?;
    let vector_words = usize_field(header, "VECTOR_WORDS")?;
    let residual_count = usize_field(header, "RESIDUAL_COUNT")?;
    // Guard against absurd geometry before sizing the payload.
    let total_words = vector_words
        .checked_mul(3)
        .and_then(|n| n.checked_add(residual_count))
        .filter(|&n| n < (1 << 34))
        .ok_or_else(|| IoError::BadHeader("absurd VECTOR_WORDS".into()))?;
    let rsq = f64::from_bits(bits_field(header, "RSQ_BITS")?);
    let bref = f64::from_bits(bits_field(header, "BREF_BITS")?);
    let recorded_checksum = u32::from_str_radix(header_value(header, "CHECKSUM")?, 16)
        .map_err(|_| IoError::BadHeader("bad CHECKSUM".into()))?;

    let payload = &bytes[header_end..];
    let expect_len = total_words * 8;
    if payload.len() < expect_len {
        return Err(IoError::Truncated);
    }
    let payload = &payload[..expect_len];
    let computed = nersc_checksum(payload);
    if computed != recorded_checksum {
        return Err(IoError::Checksum {
            computed,
            recorded: recorded_checksum,
        });
    }
    let word_at = |i: usize| {
        u64::from_be_bytes(
            payload[i * 8..i * 8 + 8]
                .try_into()
                .expect("length checked"),
        )
    };
    let x: Vec<u64> = (0..vector_words).map(word_at).collect();
    let r: Vec<u64> = (vector_words..2 * vector_words).map(word_at).collect();
    let p: Vec<u64> = (2 * vector_words..3 * vector_words).map(word_at).collect();
    let residuals: Vec<f64> = (3 * vector_words..total_words)
        .map(|i| f64::from_bits(word_at(i)))
        .collect();
    Ok(CgCheckpoint {
        operator,
        iterations,
        converged,
        rsq,
        bref,
        residuals,
        applications,
        reductions,
        x,
        r,
        p,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CgCheckpoint {
        CgCheckpoint {
            operator: "wilson".into(),
            iterations: 17,
            converged: false,
            rsq: 3.25e-5,
            bref: 1234.5,
            residuals: vec![0.5, 0.25, 0.03125],
            applications: 37,
            reductions: 36,
            x: (0..24).map(|i| (i as f64 * 0.125).to_bits()).collect(),
            r: (0..24).map(|i| (-(i as f64)).to_bits()).collect(),
            p: (0..24).map(|i| (i as f64 + 0.5).to_bits()).collect(),
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let ckpt = sample();
        let bytes = write_checkpoint(&ckpt);
        let back = read_checkpoint(&bytes).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.digest(), ckpt.digest());
    }

    #[test]
    fn header_is_human_readable() {
        let bytes = write_checkpoint(&sample());
        let text = String::from_utf8_lossy(&bytes[..330]);
        for needle in [
            "BEGIN_CKPT_HEADER",
            "QCDOC_CG_CHECKPOINT",
            "OPERATOR = wilson",
            "ITERATIONS = 17",
            "VECTOR_WORDS = 24",
            "IEEE64BIG",
        ] {
            assert!(text.contains(needle), "{text}");
        }
    }

    #[test]
    fn corruption_and_truncation_are_caught() {
        let bytes = write_checkpoint(&sample());
        let mut flipped = bytes.clone();
        let n = flipped.len();
        flipped[n - 5] ^= 0x10;
        assert!(matches!(
            read_checkpoint(&flipped),
            Err(IoError::Checksum { .. })
        ));
        assert_eq!(
            read_checkpoint(&bytes[..bytes.len() - 8]),
            Err(IoError::Truncated)
        );
        let text = String::from_utf8_lossy(&bytes[..100]).into_owned();
        let mangled = text.replace("ITERATIONS", "ITERATION5");
        let mut out = mangled.into_bytes();
        out.extend_from_slice(&bytes[100..]);
        assert!(matches!(read_checkpoint(&out), Err(IoError::BadHeader(_))));
    }

    #[test]
    fn digest_sees_every_field() {
        let a = sample();
        let mut b = a.clone();
        b.rsq = f64::from_bits(a.rsq.to_bits() ^ 1);
        assert_ne!(a.digest(), b.digest());
        let mut c = a.clone();
        c.p[7] ^= 1;
        assert_ne!(a.digest(), c.digest());
        let mut d = a.clone();
        d.iterations += 1;
        assert_ne!(a.digest(), d.digest());
    }
}
