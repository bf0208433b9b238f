//! Process-level measurements and the scratch area runs write to.

use std::path::{Path, PathBuf};

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Worker threads for the parallel parts: the host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A scratch directory under the working directory, removed (with
/// everything in it) when dropped.
#[derive(Debug)]
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    /// Create `.bench_work/<name>-<pid>` under the current directory.
    pub fn create(name: &str) -> std::io::Result<WorkDir> {
        let root = std::env::current_dir()?
            .join(".bench_work")
            .join(format!("{name}-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir { root })
    }

    /// A fresh, not yet existing path inside the scratch directory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let p = self.root.join(name);
        if p.exists() {
            let _ = std::fs::remove_dir_all(&p);
        }
        p
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            // Only succeeds when no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Total bytes and number of regular files directly inside `dir`.
pub fn dir_usage(dir: &Path) -> std::io::Result<(u64, u64)> {
    let mut bytes = 0;
    let mut files = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            bytes += meta.len();
            files += 1;
        }
    }
    Ok((bytes, files))
}
