//! One copy of the durable atomic-write discipline.
//!
//! Every on-disk artefact in the workspace — WAL checkpoint snapshots,
//! segments and manifests — must survive a crash mid-write: a reader
//! finds either the previous complete file or the new complete file,
//! never a torn one. The recipe is the classic tmp-file dance:
//!
//! 1. write the bytes to a staging file whose name is unique to this
//!    call (pid + process-wide sequence number, so concurrent writers
//!    targeting the same path never clobber each other's staging file);
//! 2. `fsync` the staging file so the bytes are on the platter before
//!    the rename can make them visible;
//! 3. `rename` it over the destination — atomic on POSIX filesystems;
//! 4. on any failure, best-effort remove the staging file so retries
//!    and directory listings never see stale `.tmp` debris.
//!
//! The parent directory is fsynced best-effort after the rename (the
//! rename itself is what crash-consistency depends on; the directory
//! sync narrows the window in which the new name could be lost).

use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide staging-name disambiguator: two concurrent writes of the
/// same destination (e.g. `save_all` racing a per-session snapshot
/// request) must each stage their own bytes, or one could rename the
/// other's half-written file into place.
static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Atomically replaces `path` with `bytes` (write tmp → fsync → rename).
///
/// The destination's directory must already exist. On error the staging
/// file is removed; `path` is untouched (either absent or still holding
/// its previous complete contents).
///
/// ```no_run
/// # fn main() -> std::io::Result<()> {
/// let path = std::path::Path::new("/tmp/manifest.bin");
/// adp_wire::atomic::atomic_write(path, b"payload")?;
/// # Ok(())
/// # }
/// ```
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let seq = WRITE_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(format!(".{}-{seq}.tmp", std::process::id()));
    let tmp = path.with_file_name(name);
    let staged = (|| {
        let mut file = fs::File::create(&tmp)?;
        io::Write::write_all(&mut file, bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)
    })();
    if staged.is_err() {
        let _ = fs::remove_file(&tmp);
        return staged;
    }
    // Durability of the *name*: sync the containing directory so the
    // rename itself survives power loss. Best-effort — not every
    // platform lets a directory be opened for sync, and the atomicity
    // guarantee above does not depend on it.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn unique_tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "adp-atomic-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_and_overwrites_without_tmp_debris() {
        let dir = unique_tempdir("write");
        let path = dir.join("artefact.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer payload").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer payload");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files left: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failure_leaves_destination_untouched() {
        let dir = unique_tempdir("fail");
        let path = dir.join("artefact.bin");
        atomic_write(&path, b"durable").unwrap();
        // A destination whose parent is missing cannot stage its tmp file;
        // the call must fail without touching anything else.
        let bad = dir.join("missing-subdir").join("artefact.bin");
        assert!(atomic_write(&bad, b"nope").is_err());
        assert_eq!(fs::read(&path).unwrap(), b"durable");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_each_land_a_complete_file() {
        let dir = unique_tempdir("race");
        let path = dir.join("artefact.bin");
        let payloads: Vec<Vec<u8>> = (0u8..8).map(|i| vec![i; 64 + i as usize]).collect();
        std::thread::scope(|scope| {
            for payload in &payloads {
                let path = path.clone();
                scope.spawn(move || atomic_write(&path, payload).unwrap());
            }
        });
        // Whoever renamed last wins, but the survivor is one writer's
        // *complete* payload — never an interleaving.
        let found = fs::read(&path).unwrap();
        assert!(payloads.contains(&found));
        let _ = fs::remove_dir_all(&dir);
    }
}
