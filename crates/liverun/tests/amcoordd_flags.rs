//! `amcoordd` refuses malformed flags instead of running on defaults.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A non-numeric `--checkpoint-every` must print the usage and exit
/// non-zero, not start a replica that silently checkpoints at the
/// default cadence.
#[test]
fn malformed_numeric_flag_exits_non_zero() {
    let base = 27900 + (std::process::id() % 25) as u16 * 4;
    let mut child = Command::new(env!("CARGO_BIN_EXE_amcoordd"))
        .args(["--id", "0"])
        .args(["--ring", &format!("127.0.0.1:{base}")])
        .args(["--serve", &format!("127.0.0.1:{}", base + 1)])
        .args(["--checkpoint-every", "abc"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn amcoordd");
    let deadline = Instant::now() + Duration::from_secs(2);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll amcoordd") {
            break Some(status);
        }
        if Instant::now() >= deadline {
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let Some(status) = status else {
        let _ = child.kill();
        let _ = child.wait();
        panic!("amcoordd still running 2 s after a malformed --checkpoint-every");
    };
    assert!(
        !status.success(),
        "amcoordd accepted --checkpoint-every abc"
    );
}
