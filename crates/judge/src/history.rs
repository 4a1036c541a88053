//! Baseline history: the audit trail behind `bench-judge --bless`.
//!
//! Blessing overwrites `bench/baselines/` byte-for-byte, which is
//! deterministic but destructive — the old trajectory anchor is gone.
//! This module snapshots the outgoing baseline set into a numbered slot
//! under `bench/history/` (`0001/`, `0002/`, …) before every bless, so
//! any past anchor can be replayed against a current export with
//! `bench-judge --baselines bench/history/NNNN`.

use std::fs;
use std::path::{Path, PathBuf};

/// `BENCH_*.json` files directly under `dir`, sorted by name. Missing
/// directory reads as empty (a first-ever bless has no baselines yet).
fn baseline_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", dir.display())),
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    Ok(files)
}

/// Next free slot number under `history`: one past the highest existing
/// four-digit directory, starting at 1. Non-numeric entries are ignored.
fn next_slot(history: &Path) -> Result<u32, String> {
    let entries = match fs::read_dir(history) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(1),
        Err(e) => return Err(format!("cannot read {}: {e}", history.display())),
    };
    let highest = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .filter_map(|e| e.file_name().to_str().and_then(|n| n.parse::<u32>().ok()))
        .max()
        .unwrap_or(0);
    Ok(highest + 1)
}

/// Snapshot the current baseline set into `history/NNNN/`. Returns the
/// slot directory written, or `None` when there are no baselines to
/// archive (first-ever bless). The copy is byte-for-byte, like blessing
/// itself, so a history slot is a drop-in `--baselines` directory.
pub fn archive_baselines(baselines: &Path, history: &Path) -> Result<Option<PathBuf>, String> {
    let files = baseline_files(baselines)?;
    if files.is_empty() {
        return Ok(None);
    }
    let slot = history.join(format!("{:04}", next_slot(history)?));
    fs::create_dir_all(&slot).map_err(|e| format!("cannot create {}: {e}", slot.display()))?;
    for path in &files {
        let dest = slot.join(path.file_name().unwrap());
        fs::copy(path, &dest)
            .map_err(|e| format!("cannot copy {} to {}: {e}", path.display(), dest.display()))?;
    }
    Ok(Some(slot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qcdoc-judge-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn empty_baselines_archive_to_nothing() {
        let root = scratch("empty");
        let archived = archive_baselines(&root.join("baselines"), &root.join("history")).unwrap();
        assert_eq!(archived, None);
        assert!(!root.join("history").exists(), "no slot dir for nothing");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn slots_number_sequentially_and_copy_bytes() {
        let root = scratch("slots");
        let baselines = root.join("baselines");
        let history = root.join("history");
        fs::create_dir_all(&baselines).unwrap();
        fs::write(baselines.join("BENCH_a.json"), b"{\"v\":1}").unwrap();
        fs::write(baselines.join("notes.txt"), b"ignored").unwrap();

        let slot1 = archive_baselines(&baselines, &history).unwrap().unwrap();
        assert_eq!(slot1, history.join("0001"));
        assert_eq!(fs::read(slot1.join("BENCH_a.json")).unwrap(), b"{\"v\":1}");
        assert!(
            !slot1.join("notes.txt").exists(),
            "only BENCH_*.json travel"
        );

        fs::write(baselines.join("BENCH_a.json"), b"{\"v\":2}").unwrap();
        let slot2 = archive_baselines(&baselines, &history).unwrap().unwrap();
        assert_eq!(slot2, history.join("0002"));
        assert_eq!(fs::read(slot2.join("BENCH_a.json")).unwrap(), b"{\"v\":2}");
        assert_eq!(
            fs::read(slot1.join("BENCH_a.json")).unwrap(),
            b"{\"v\":1}",
            "older slots are immutable"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn next_slot_skips_non_numeric_entries() {
        let root = scratch("nonnum");
        let history = root.join("history");
        fs::create_dir_all(history.join("0007")).unwrap();
        fs::create_dir_all(history.join("README-dir")).unwrap();
        fs::write(history.join("0042"), b"a file, not a slot").unwrap();
        assert_eq!(next_slot(&history).unwrap(), 8);
        let _ = fs::remove_dir_all(&root);
    }
}
