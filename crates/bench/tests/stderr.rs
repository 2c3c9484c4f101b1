//! A figure binary whose stderr cannot be written exits as it would with
//! a working stderr and prints the same stdout.

use std::process::Command;

#[test]
fn a_full_stderr_changes_no_exit_status_and_no_stdout() {
    let dir = std::env::temp_dir().join(format!("abdex-bench-errfull-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    // Each budget with its exit status and the stderr line it writes,
    // which the run on `/dev/full` then fails to write.
    for (budget, code, line) in [("20000", 0, "fig06: "), ("1e5", 1, "error: ")] {
        let fig06 = || {
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig06_tdvs_power"));
            cmd.arg(budget);
            cmd
        };
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("/dev/full opens");
        let on_full = fig06().stderr(full).output().expect("binary runs");
        let err_path = dir.join("stderr.txt");
        let err_file = std::fs::File::create(&err_path).expect("stderr file");
        let on_file = fig06().stderr(err_file).output().expect("binary runs");
        let stderr = std::fs::read_to_string(&err_path).expect("stderr file reads");
        assert_eq!(on_file.status.code(), Some(code), "{budget}: {stderr}");
        assert!(stderr.contains(line), "{budget}: {stderr}");
        assert_eq!(on_full.status.code(), Some(code), "{budget}");
        assert_eq!(on_full.stdout, on_file.stdout, "{budget}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
