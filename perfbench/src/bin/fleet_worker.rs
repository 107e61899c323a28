//! Supervised fleet worker for the benchmark's `serve` workload. The fleet
//! supervisor looks for a `fleet_worker` binary next to the running
//! executable; this one is built beside `perfbench` and runs the library's
//! own worker loop, exactly like the repository's `fleet_worker`.

fn main() {
    let stdin = std::io::stdin().lock();
    let stdout = std::io::stdout().lock();
    if let Err(e) = ballista::fleet::worker_loop(stdin, stdout) {
        eprintln!("fleet_worker: {e}");
        std::process::exit(1);
    }
}
