//! Gauge-configuration I/O in the NERSC archive style.
//!
//! Production QCD machines write their configurations to shared disks —
//! on QCDOC via the run kernel's NFS mounts (§3.2: "support for NFS
//! mounting of remote disks, which is already being used by application
//! programs to write directly to the host disk system"). The de-facto
//! interchange format of the era is the NERSC archive: an ASCII header
//! with the lattice geometry, plaquette, and a 32-bit additive checksum,
//! followed by big-endian IEEE doubles of the link matrices.

use crate::field::{GaugeField, Lattice};
use crate::gauge::average_plaquette;

/// Errors while reading a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// The header is malformed or missing required keys.
    BadHeader(String),
    /// Geometry in the header does not match the data length.
    Truncated,
    /// The checksum does not match the data.
    Checksum {
        /// Checksum computed from the data.
        computed: u32,
        /// Checksum recorded in the header.
        recorded: u32,
    },
    /// The recorded plaquette disagrees with the data (corruption).
    Plaquette,
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::BadHeader(k) => write!(f, "bad header: {k}"),
            IoError::Truncated => write!(f, "data shorter than the header geometry"),
            IoError::Checksum { computed, recorded } => {
                write!(
                    f,
                    "checksum mismatch: data {computed:#010x}, header {recorded:#010x}"
                )
            }
            IoError::Plaquette => write!(f, "plaquette mismatch (corrupt data)"),
        }
    }
}

impl std::error::Error for IoError {}

/// The NERSC additive checksum: the 32-bit wrapping sum of the data
/// stream taken as 32-bit big-endian words.
pub fn nersc_checksum(data: &[u8]) -> u32 {
    data.chunks(4)
        .map(|c| {
            let mut w = [0u8; 4];
            w[..c.len()].copy_from_slice(c);
            u32::from_be_bytes(w)
        })
        .fold(0u32, u32::wrapping_add)
}

/// Encode a gauge field in the archive format.
pub fn write_config(gauge: &GaugeField) -> Vec<u8> {
    let lat = gauge.lattice();
    let dims = lat.dims();
    // Binary payload: for each site (x fastest), each mu, the full 3x3
    // complex matrix, row major, re then im, as big-endian f64.
    let mut payload = Vec::with_capacity(lat.volume() * 4 * 18 * 8);
    for x in lat.sites() {
        for mu in 0..4 {
            let u = gauge.link(x, mu);
            for r in 0..3 {
                for c in 0..3 {
                    payload.extend_from_slice(&u.0[r][c].re.to_be_bytes());
                    payload.extend_from_slice(&u.0[r][c].im.to_be_bytes());
                }
            }
        }
    }
    let checksum = nersc_checksum(&payload);
    let plaq = average_plaquette(gauge);
    let mut out = String::new();
    out.push_str("BEGIN_HEADER\n");
    out.push_str("HDR_VERSION = 1.0\n");
    out.push_str("DATATYPE = 4D_SU3_GAUGE_3x3\n");
    for (i, name) in ["DIMENSION_1", "DIMENSION_2", "DIMENSION_3", "DIMENSION_4"]
        .iter()
        .enumerate()
    {
        out.push_str(&format!("{name} = {}\n", dims[i]));
    }
    out.push_str(&format!("PLAQUETTE = {plaq:.12}\n"));
    out.push_str(&format!("CHECKSUM = {checksum:x}\n"));
    out.push_str("FLOATING_POINT = IEEE64BIG\n");
    out.push_str("END_HEADER\n");
    let mut bytes = out.into_bytes();
    bytes.extend_from_slice(&payload);
    bytes
}

pub(crate) fn header_value<'a>(header: &'a str, key: &str) -> Result<&'a str, IoError> {
    header
        .lines()
        .find_map(|l| {
            let mut parts = l.splitn(2, '=');
            let k = parts.next()?.trim();
            let v = parts.next()?.trim();
            (k == key).then_some(v)
        })
        .ok_or_else(|| IoError::BadHeader(format!("missing {key}")))
}

/// Decode and fully validate a configuration.
pub fn read_config(bytes: &[u8]) -> Result<GaugeField, IoError> {
    let end_marker = b"END_HEADER\n";
    let header_end = bytes
        .windows(end_marker.len())
        .position(|w| w == end_marker)
        .ok_or_else(|| IoError::BadHeader("no END_HEADER".into()))?
        + end_marker.len();
    let header = std::str::from_utf8(&bytes[..header_end])
        .map_err(|_| IoError::BadHeader("non-utf8 header".into()))?;
    let mut dims = [0usize; 4];
    for (i, name) in ["DIMENSION_1", "DIMENSION_2", "DIMENSION_3", "DIMENSION_4"]
        .iter()
        .enumerate()
    {
        dims[i] = header_value(header, name)?
            .parse()
            .map_err(|_| IoError::BadHeader(format!("bad {name}")))?;
    }
    // Reject absurd geometry before allocating anything: every extent
    // must be positive and the implied volume bounded, so a corrupt
    // header cannot drive a huge (or zero-sized) allocation.
    dims.iter()
        .try_fold(
            1usize,
            |acc, &d| {
                if d == 0 {
                    None
                } else {
                    acc.checked_mul(d)
                }
            },
        )
        .filter(|&v| v <= (1 << 28))
        .ok_or_else(|| IoError::BadHeader("absurd DIMENSION".into()))?;
    let recorded_checksum = u32::from_str_radix(header_value(header, "CHECKSUM")?, 16)
        .map_err(|_| IoError::BadHeader("bad CHECKSUM".into()))?;
    let recorded_plaq: f64 = header_value(header, "PLAQUETTE")?
        .parse()
        .map_err(|_| IoError::BadHeader("bad PLAQUETTE".into()))?;

    let lat = Lattice::new(dims);
    let payload = &bytes[header_end..];
    let expect_len = lat.volume() * 4 * 18 * 8;
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
    let mut gauge = GaugeField::unit(lat);
    let mut off = 0usize;
    let f64_at = |off: &mut usize| {
        let v = f64::from_be_bytes(payload[*off..*off + 8].try_into().expect("length checked"));
        *off += 8;
        v
    };
    for x in lat.sites() {
        for mu in 0..4 {
            let u = gauge.link_mut(x, mu);
            for r in 0..3 {
                for c in 0..3 {
                    u.0[r][c].re = f64_at(&mut off);
                    u.0[r][c].im = f64_at(&mut off);
                }
            }
        }
    }
    // Plaquette cross-check (12 digits recorded).
    if (average_plaquette(&gauge) - recorded_plaq).abs() > 1e-10 {
        return Err(IoError::Plaquette);
    }
    Ok(gauge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauge::{evolve, EvolveParams};

    fn config() -> GaugeField {
        let lat = Lattice::new([2, 2, 2, 4]);
        let mut g = GaugeField::hot(lat, 33);
        evolve(&mut g, EvolveParams::default(), 5, 2);
        g
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let g = config();
        let bytes = write_config(&g);
        let back = read_config(&bytes).unwrap();
        assert_eq!(back.fingerprint(), g.fingerprint());
    }

    #[test]
    fn header_is_human_readable() {
        let bytes = write_config(&config());
        let text = String::from_utf8_lossy(&bytes[..300]);
        for needle in [
            "BEGIN_HEADER",
            "DIMENSION_1 = 2",
            "DIMENSION_4 = 4",
            "PLAQUETTE",
            "IEEE64BIG",
        ] {
            assert!(text.contains(needle), "{text}");
        }
    }

    #[test]
    fn corrupted_payload_is_caught_by_checksum() {
        let mut bytes = write_config(&config());
        let n = bytes.len();
        bytes[n - 100] ^= 0x40;
        match read_config(&bytes) {
            Err(IoError::Checksum { .. }) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_payload_is_caught() {
        let bytes = write_config(&config());
        let short = &bytes[..bytes.len() - 16];
        assert_eq!(read_config(short), Err(IoError::Truncated));
    }

    #[test]
    fn missing_header_key_is_caught() {
        let bytes = write_config(&config());
        let text = String::from_utf8_lossy(&bytes[..200]).into_owned();
        let mangled = text.replace("CHECKSUM", "CHEKSUM");
        let mut out = mangled.into_bytes();
        out.extend_from_slice(&bytes[200..]);
        assert!(matches!(read_config(&out), Err(IoError::BadHeader(_))));
    }

    fn with_header_edit(bytes: &[u8], from: &str, to: &str) -> Vec<u8> {
        let end = bytes
            .windows(11)
            .position(|w| w == b"END_HEADER\n")
            .unwrap()
            + 11;
        let text = String::from_utf8(bytes[..end].to_vec()).unwrap();
        let mut out = text.replacen(from, to, 1).into_bytes();
        out.extend_from_slice(&bytes[end..]);
        out
    }

    #[test]
    fn non_numeric_header_field_is_rejected() {
        let bytes = write_config(&config());
        let bad = with_header_edit(&bytes, "DIMENSION_2 = 2", "DIMENSION_2 = two");
        assert!(matches!(read_config(&bad), Err(IoError::BadHeader(_))));
    }

    #[test]
    fn non_hex_checksum_is_rejected() {
        let bytes = write_config(&config());
        // Prefixing a non-hex character corrupts the value whatever it was.
        let bad = with_header_edit(&bytes, "CHECKSUM = ", "CHECKSUM = z");
        assert!(matches!(read_config(&bad), Err(IoError::BadHeader(_))));
    }

    #[test]
    fn absurd_dimension_is_rejected_before_allocation() {
        let bytes = write_config(&config());
        for bad_dim in ["0", "999999999", "18446744073709551616"] {
            let bad = with_header_edit(
                &bytes,
                "DIMENSION_1 = 2",
                &format!("DIMENSION_1 = {bad_dim}"),
            );
            assert!(
                matches!(read_config(&bad), Err(IoError::BadHeader(_))),
                "DIMENSION_1 = {bad_dim} should be a header error"
            );
        }
    }

    #[test]
    fn header_only_input_is_rejected() {
        let bytes = write_config(&config());
        let end = bytes
            .windows(11)
            .position(|w| w == b"END_HEADER\n")
            .unwrap()
            + 11;
        // A file that stops right after the header: geometry promises data.
        assert_eq!(read_config(&bytes[..end]), Err(IoError::Truncated));
        // A file that never finishes the header at all.
        assert!(matches!(
            read_config(&bytes[..end - 12]),
            Err(IoError::BadHeader(_))
        ));
    }

    #[test]
    fn tampered_recorded_checksum_is_detected() {
        let bytes = write_config(&config());
        let end = bytes
            .windows(11)
            .position(|w| w == b"END_HEADER\n")
            .unwrap()
            + 11;
        let computed = nersc_checksum(&bytes[end..]);
        let bad = with_header_edit(
            &bytes,
            &format!("CHECKSUM = {computed:x}"),
            &format!("CHECKSUM = {:x}", computed.wrapping_add(1)),
        );
        assert!(matches!(read_config(&bad), Err(IoError::Checksum { .. })));
    }

    #[test]
    fn checksum_is_position_sensitive_enough() {
        // Swapping two different words changes the sum only if they differ;
        // our corruption test covers single-bit flips, the format's actual
        // failure mode over NFS.
        let a = nersc_checksum(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let b = nersc_checksum(&[1, 2, 3, 5, 5, 6, 7, 8]);
        assert_ne!(a, b);
    }
}
