//! Thread-per-rank communicator — the MPI stand-in.
//!
//! The paper's only collective is an `MPI_Allreduce` of per-rank scalar
//! means (§3.6, §4.3); everything else is rank-local. [`run_ranks`] spawns
//! one thread per rank and hands each a [`Comm`] supporting `barrier`,
//! `allreduce_sum` and `allgather` with the same blocking semantics MPI
//! gives, so in situ code reads like its MPI counterpart.
//!
//! [`CommGroup`] is the spawn-free half: it owns the collective state and
//! mints a [`Comm`] per rank on demand, so rank handles can attach to
//! threads that already exist — simulation ranks feeding a
//! `stream_server::StreamServer`, a test harness's own workers — instead
//! of the group owning its threads. [`run_ranks`] is now a thin wrapper
//! that builds a group and spawns one scoped thread per handle.

use std::sync::{Arc, Condvar, Mutex};

/// A rank panicked mid-collective; its peers cannot complete it either.
const POISONED: &str = "collective state poisoned by a panicking rank";

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    size: usize,
}

struct State {
    arrived: usize,
    generation: u64,
    sum: f64,
    result: f64,
    gathered: Vec<f64>,
    gather_result: Vec<f64>,
}

/// Per-rank handle to the collective state.
#[derive(Clone)]
pub struct Comm {
    shared: Arc<Shared>,
    rank: usize,
}

impl Comm {
    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the group.
    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// Block until every rank has entered the barrier.
    pub fn barrier(&self) {
        let _ = self.allreduce_sum(0.0);
    }

    /// Sum `value` across all ranks; every rank receives the total.
    pub fn allreduce_sum(&self, value: f64) -> f64 {
        let sh = &self.shared;
        let mut st = sh.state.lock().expect(POISONED);
        let gen = st.generation;
        st.sum += value;
        st.arrived += 1;
        if st.arrived == sh.size {
            st.result = st.sum;
            st.sum = 0.0;
            st.arrived = 0;
            st.generation += 1;
            sh.cv.notify_all();
        } else {
            st = sh.cv.wait_while(st, |st| st.generation == gen).expect(POISONED);
        }
        st.result
    }

    /// Mean of `value` across ranks (the collective the paper actually
    /// performs for the global mean).
    pub fn allreduce_mean(&self, value: f64) -> f64 {
        self.allreduce_sum(value) / self.shared.size as f64
    }

    /// Gather one value from each rank; every rank receives the full
    /// rank-ordered vector.
    pub fn allgather(&self, value: f64) -> Vec<f64> {
        let sh = &self.shared;
        let mut st = sh.state.lock().expect(POISONED);
        let gen = st.generation;
        st.gathered[self.rank] = value;
        st.arrived += 1;
        if st.arrived == sh.size {
            st.gather_result = st.gathered.clone();
            st.arrived = 0;
            st.generation += 1;
            sh.cv.notify_all();
        } else {
            st = sh.cv.wait_while(st, |st| st.generation == gen).expect(POISONED);
        }
        st.gather_result.clone()
    }
}

/// A rank group without threads: collective state plus a [`Comm`] factory.
///
/// Where [`run_ranks`] owns the threads it spawns, a `CommGroup` lets the
/// caller own them — create a group of `size`, hand `group.comm(rank)` to
/// each of `size` pre-existing threads, and the collectives work exactly
/// as under `run_ranks`. Every collective still blocks until all `size`
/// handles arrive, so the caller must drive all ranks concurrently.
pub struct CommGroup {
    shared: Arc<Shared>,
}

impl CommGroup {
    /// A group of `size` ranks (panics on `size == 0`).
    pub fn new(size: usize) -> Self {
        assert!(size > 0);
        Self {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    arrived: 0,
                    generation: 0,
                    sum: 0.0,
                    result: 0.0,
                    gathered: vec![0.0; size],
                    gather_result: Vec::new(),
                }),
                cv: Condvar::new(),
                size,
            }),
        }
    }

    /// Number of ranks in the group.
    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// The handle for `rank` (panics when out of range). Handles are
    /// cheap `Arc` clones; minting the same rank twice is allowed but the
    /// two handles then count as one rank — do not use both in the same
    /// collective.
    pub fn comm(&self, rank: usize) -> Comm {
        assert!(rank < self.shared.size, "rank {rank} out of 0..{}", self.shared.size);
        Comm { shared: Arc::clone(&self.shared), rank }
    }
}

/// Run `f(rank, comm)` on `size` OS threads; returns per-rank results in
/// rank order. Uses std scoped threads so `f` can borrow.
///
/// Deliberately **not** bounded by `available_parallelism`, unlike the
/// rayon shim's data-parallel scheduler: every rank may block inside a
/// collective waiting for all `size` peers, so capping the thread count
/// below `size` would deadlock the barrier generation. Oversubscription is
/// the faithful price of MPI semantics; keep rank counts test-sized.
pub fn run_ranks<R, F>(size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &Comm) -> R + Sync,
{
    let group = CommGroup::new(size);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..size)
            .map(|rank| {
                let comm = group.comm(rank);
                let f = &f;
                s.spawn(move || f(rank, &comm))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_sums_across_ranks() {
        let out = run_ranks(8, |rank, comm| comm.allreduce_sum(rank as f64));
        let expect = (0..8).sum::<usize>() as f64;
        assert!(out.iter().all(|&v| v == expect));
    }

    #[test]
    fn allreduce_mean_matches() {
        let out = run_ranks(4, |rank, comm| comm.allreduce_mean((rank + 1) as f64));
        assert!(out.iter().all(|&v| (v - 2.5).abs() < 1e-12));
    }

    #[test]
    fn repeated_collectives_reuse_state() {
        let out = run_ranks(4, |rank, comm| {
            let a = comm.allreduce_sum(1.0);
            comm.barrier();
            let b = comm.allreduce_sum(rank as f64);
            (a, b)
        });
        for &(a, b) in &out {
            assert_eq!(a, 4.0);
            assert_eq!(b, 6.0);
        }
    }

    #[test]
    fn allgather_is_rank_ordered() {
        let out = run_ranks(5, |rank, comm| comm.allgather(rank as f64 * 10.0));
        for v in out {
            assert_eq!(v, vec![0.0, 10.0, 20.0, 30.0, 40.0]);
        }
    }

    #[test]
    fn results_are_rank_ordered() {
        let out = run_ranks(6, |rank, _| rank * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn comm_group_attaches_to_caller_owned_threads() {
        // The server-transport shape: threads exist first, handles are
        // minted after — no run_ranks fan-out.
        let group = CommGroup::new(3);
        assert_eq!(group.size(), 3);
        let out = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|rank| {
                    let comm = group.comm(rank);
                    s.spawn(move || comm.allreduce_sum((rank + 1) as f64))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        assert_eq!(out, vec![6.0, 6.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "out of 0..2")]
    fn comm_group_rejects_out_of_range_rank() {
        CommGroup::new(2).comm(2);
    }

    #[test]
    fn single_rank_degenerates() {
        let out = run_ranks(1, |_, comm| {
            comm.barrier();
            comm.allreduce_sum(7.0)
        });
        assert_eq!(out, vec![7.0]);
    }
}
