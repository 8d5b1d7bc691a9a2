//! Host facts and hardware references, recorded with every run so that
//! layer figures can be read as ratios to what the machine can do.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

use crate::stats::median;

/// Facts a figure depends on, as one line for the run's log: CPUs
/// this process may use, CPU model, last-level cache, the filesystem
/// holding `wal_dir`, kernel, the compiler that built the benchmark, and
/// the checkout's commit when it is a git work tree.
pub fn facts(wal_dir: &Path) -> String {
    format!(
        "nproc={} cpu=\"{}\" llc=\"{}\" wal_fs={} kernel={} rustc=\"{}\" commit={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model(),
        llc(),
        fs_type(wal_dir),
        read_trim("/proc/sys/kernel/osrelease"),
        env!("PERFBENCH_RUSTC"),
        git_commit()
    )
}

fn read_trim(path: &str) -> String {
    std::fs::read_to_string(path).map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The highest-level cache of CPU 0, e.g. `L3 300M shared by 0-1`.
fn llc() -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, String)> = None;
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let Ok(level) = std::fs::read_to_string(dir.join("level")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let ty = std::fs::read_to_string(dir.join("type")).unwrap_or_default();
        if ty.trim() == "Instruction" || best.as_ref().is_some_and(|(l, _)| *l >= level) {
            continue;
        }
        let size = std::fs::read_to_string(dir.join("size")).unwrap_or_default();
        let shared = std::fs::read_to_string(dir.join("shared_cpu_list")).unwrap_or_default();
        best = Some((
            level,
            format!("L{level} {} shared by {}", size.trim(), shared.trim()),
        ));
    }
    best.map_or_else(|| "unknown".into(), |(_, s)| s)
}

/// Type of the filesystem mounted at the longest prefix of `dir`.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, ty) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, ty)| ty)
}

/// `HEAD`'s commit read straight from `.git`, without running git.
fn git_commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unavailable (not a git work tree)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The three hardware references, measured after the workload in every
/// run: copy bandwidth over 64 MiB, loopback TCP bandwidth over 64 MiB,
/// and a 4 KiB write + `sync_data` in `dir`.
pub fn references(dir: &Path) -> Result<String, String> {
    let buf = vec![1.0f64; 8 << 20];
    let memcpy = memcpy_gbps(&[&buf], 5);
    drop(buf);
    let loopback = loopback_mb_per_s(64 << 20, 3).map_err(|e| format!("loopback: {e}"))?;
    let fsync =
        raw_fsync_us(&dir.join("fsync-reference"), 4096, 20).map_err(|e| format!("fsync: {e}"))?;
    Ok(format!(
        "memcpy_gbps={memcpy:.3} loopback_mb_per_s={loopback:.1} raw_fsync_us={fsync:.1}"
    ))
}

/// Copy bandwidth over `src`, GB/s (median of `reps` whole copies).
pub fn memcpy_gbps(src: &[&[f64]], reps: usize) -> f64 {
    let mut dst: Vec<Vec<f64>> = src.iter().map(|s| vec![0.0; s.len()]).collect();
    let bytes: usize = src.iter().map(|s| s.len() * 8).sum();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for (d, s) in dst.iter_mut().zip(src) {
                d.copy_from_slice(s);
            }
            std::hint::black_box(&mut dst);
            t.elapsed().as_secs_f64()
        })
        .collect();
    bytes as f64 / median(&times) / 1e9
}

/// Raw 127.0.0.1 TCP bandwidth moving `bytes` through one connection,
/// MB/s (median of `reps` transfers).
pub fn loopback_mb_per_s(bytes: usize, reps: usize) -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        std::thread::scope(|s| -> std::io::Result<()> {
            let sender = s.spawn(|| -> std::io::Result<()> {
                let mut out = TcpStream::connect(addr)?;
                let chunk = vec![0x5au8; 256 << 10];
                let mut left = bytes;
                while left > 0 {
                    let k = left.min(chunk.len());
                    out.write_all(&chunk[..k])?;
                    left -= k;
                }
                Ok(())
            });
            let (mut inp, _) = listener.accept()?;
            let mut buf = vec![0u8; 256 << 10];
            let mut got = 0;
            while got < bytes {
                match inp.read(&mut buf)? {
                    0 => break,
                    k => got += k,
                }
            }
            sender.join().expect("loopback sender panicked")?;
            if got != bytes {
                return Err(std::io::Error::other("loopback transfer cut short"));
            }
            Ok(())
        })?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(bytes as f64 / median(&times) / 1e6)
}

/// Latency of appending `bytes` to a file and `sync_data`-ing it, µs
/// (median of `reps`). The file lives at `path` and is removed after.
pub fn raw_fsync_us(path: &Path, bytes: usize, reps: usize) -> std::io::Result<f64> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(path)?;
    let payload = vec![0xa5u8; bytes.max(1)];
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f.write_all(&payload)?;
        f.sync_data()?;
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(f);
    std::fs::remove_file(path)?;
    Ok(median(&times))
}
