//! Failure recovery: the alive-aware stage synchronizer and the
//! speculative re-execution planner that rebuilds a dead rank's reduce
//! partition on a deterministic successor.
//!
//! The recovery story leans on a CDC-specific fact: with
//! quorum (MDS) decode, a single dead rank costs the shuffle *nothing* —
//! every multicast group that contained it still fields `r − 1` live
//! senders, which is exactly the quorum each surviving receiver needs.
//! The only thing actually lost is the dead rank's own reduce partition,
//! and the `r`-fold replicated input placement guarantees that for every
//! file some survivor can either forward the needed intermediate from its
//! Map output or re-run Map on its local replica
//! ([`adopt_dead_partitions`]). Recovery is therefore re-execution of
//! *only the missing work*, never a restart.

use std::time::{Duration, Instant};

use bytes::Bytes;
use cts_core::exec::WorkerPool;
use cts_core::intermediate::MapOutputStore;
use cts_core::placement::{FileId, PlacementPlan};
use cts_core::pool;
use cts_net::health::{HealthBoard, HealthConfig, Heartbeat};
use cts_net::message::Tag;
use cts_net::registry::MembershipView;
use cts_net::{Communicator, Key, NetError};
use cts_netsim::stats::NodeStats;

use crate::error::{EngineError, JobReport, Result};
use crate::workload::{NodeSet, PartitionShape, Workload};

/// Health-layer state carried by a recovery-mode rank: its view of who is
/// alive, its own heartbeat beacon, and the epoch of its next
/// [`alive_sync`].
pub(crate) struct Recovery {
    pub(crate) board: HealthBoard,
    pub(crate) beat: Heartbeat,
    epoch: u32,
}

impl Recovery {
    /// Starts beaconing every `heartbeat` and watching the peers.
    pub(crate) fn start(comm: &Communicator, heartbeat: Duration) -> Recovery {
        // Liveness transitions feed the fabric's metric registry.
        let hub = comm.metrics();
        let board = HealthBoard::new(
            comm.rank(),
            comm.world_size(),
            HealthConfig::from_heartbeat(heartbeat),
        )
        .with_transition_counters(
            hub.counter("cts_heartbeat_suspect_total"),
            hub.counter("cts_heartbeat_dead_total"),
        );
        Recovery {
            board,
            beat: Heartbeat::spawn(comm.transport().clone(), heartbeat),
            epoch: 0,
        }
    }

    /// The next stage synchronization. Every rank walks the same sequence
    /// of sync points, so the epochs line up by construction.
    pub(crate) fn sync(&mut self, comm: &Communicator) -> Result<u128> {
        self.epoch += 1;
        alive_sync(comm, &mut self.board, self.epoch - 1)
    }
}

/// Reads a little-endian dead-mask payload (up to 16 bytes).
fn le_mask(b: &Bytes) -> u128 {
    let mut buf = [0u8; 16];
    let n = b.len().min(16);
    buf[..n].copy_from_slice(&b[..n]);
    u128::from_le_bytes(buf)
}

/// An alive-aware replacement for [`Communicator::barrier`]: ranks
/// exchange dead-masks through the minimum-alive coordinator, and nobody
/// ever blocks on a peer its [`HealthBoard`] has declared dead. Returns
/// the agreed dead mask (the union of every participant's view), already
/// merged into `board`.
///
/// Every rank must call this with the same `epoch` at the same stage
/// boundary (SPMD). If the coordinator itself is declared dead mid-sync,
/// non-coordinators re-submit their masks to the next minimum-alive rank,
/// so the sync converges for any set of fail-stop deaths that leaves at
/// least one survivor. Control messages ride [`Tag::RBARRIER`] directly
/// on the transport, keeping the trace and NIC emulation free of
/// health-protocol noise.
pub fn alive_sync(comm: &Communicator, board: &mut HealthBoard, epoch: u32) -> Result<u128> {
    let me = comm.rank();
    let k = comm.world_size();
    let tag = Tag::new(Tag::RBARRIER, epoch & 0x00FF_FFFF);
    let transport = comm.transport().as_ref();
    if k == 1 {
        return Ok(board.dead_mask());
    }
    // Blocks for a frame under one of `keys`, but no longer than to the
    // next heartbeat: the board only advances when ticked.
    let frame_or_tick = |board: &HealthBoard, keys: &[Key]| {
        let next_tick = Instant::now() + board.heartbeat();
        match transport.recv_any(keys, Some(next_tick)) {
            Ok(hit) => Ok(Some(hit)),
            Err(NetError::Timeout { .. }) => Ok(None),
            Err(e) => Err(EngineError::from(e)),
        }
    };
    let mut sent_to: Option<usize> = None;
    loop {
        board.tick(transport);
        let coord = board.min_alive();
        if coord == me {
            // Coordinator: collect a mask from every rank still believed
            // alive (dropping any declared dead while we wait), then
            // release everyone with the union.
            let mut awaited: Vec<Key> = (0..k).filter(|&s| s != me).map(|s| (tag, s)).collect();
            loop {
                board.tick(transport);
                awaited.retain(|&(_, s)| board.is_alive(s));
                if awaited.is_empty() {
                    break;
                }
                if let Some((i, mask)) = frame_or_tick(board, &awaited)? {
                    board.merge_dead_mask(le_mask(&mask), transport);
                    awaited.remove(i);
                }
            }
            let agreed = board.dead_mask();
            let payload = Bytes::copy_from_slice(&agreed.to_le_bytes());
            for dst in (0..k).filter(|&d| d != me && board.is_alive(d)) {
                // A release that cannot be delivered is the dead peer's
                // problem; its own detector-driven path takes over.
                let _ = transport.send(dst, tag, payload.clone());
            }
            return Ok(agreed);
        }
        // Non-coordinator: (re-)submit our mask whenever the coordinator
        // changes, then wait for its release while watching its health.
        if sent_to != Some(coord) {
            let payload = Bytes::copy_from_slice(&board.dead_mask().to_le_bytes());
            let _ = transport.send(coord, tag, payload);
            sent_to = Some(coord);
        }
        if let Some((_, release)) = frame_or_tick(board, &[(tag, coord)])? {
            board.merge_dead_mask(le_mask(&release), transport);
            return Ok(board.dead_mask());
        }
    }
}

/// Rebuilds every dead rank's reduce partition on its deterministic
/// successor (`MembershipView::successor_of` — the next alive rank
/// cyclically). This is the speculative re-execution half of recovery.
///
/// All survivors call this with the same agreed `membership`, so each
/// derives the identical `(helper, successor)` role per `(dead rank,
/// file)` and the unicasts pair up without further coordination. For a
/// dead rank `d` and file placed on node set `S`, the piece `I^d_S`
/// comes from one of three sources, per the §IV-B keep rule:
///
/// * `d ∉ S` and the successor is in `S`: the successor kept the piece
///   during its own Map — no traffic;
/// * `d ∉ S`, successor outside `S`: the minimum-alive member of `S`
///   forwards its kept copy;
/// * `d ∈ S`: only `d` itself kept the piece, so the minimum-alive
///   survivor of `S \ {d}` **re-runs Map** on its local replica of the
///   file and sends the rebuilt piece (the `r`-fold placement guarantees
///   such a survivor exists for any single failure at `r ≥ 2`).
///
/// Pieces arrive tagged `Tag::RECOVER` with `(dead index << 16) | file`,
/// so the engine caps recovery jobs at 65 536 files. The successor feeds a
/// reducer of `shape` — the engine's own Reduce entry, so the adopted output
/// is byte-identical to what the dead rank would have produced — with the
/// pieces it holds itself, then with the others in whatever order the helpers
/// answer. Returns the `(dead rank, reduced output)` pairs this rank adopted.
#[allow(clippy::too_many_arguments)] // one borrow per piece of rank state
pub fn adopt_dead_partitions<W: Workload>(
    workload: &W,
    comm: &Communicator,
    plan: &PlacementPlan,
    membership: &MembershipView,
    my_files: &[(FileId, Bytes)],
    store: &MapOutputStore,
    shape: PartitionShape,
    pool: &WorkerPool,
    stats: &mut NodeStats,
) -> Result<Vec<(usize, Vec<u8>)>> {
    let me = comm.rank();
    let k = comm.world_size();
    let dead = membership.dead_ranks();
    let mut adopted = Vec::new();
    for (dead_idx, &d) in dead.iter().enumerate() {
        let successor = membership
            .successor_of(d)
            .expect("at least one rank survives");
        let mut reducer = (successor == me).then(|| workload.reducer(d, shape));
        // What the helpers send this rank, by transport key (ascending, like
        // the files), and the file each piece was mapped from.
        let mut awaited: Vec<Key> = Vec::new();
        let mut awaited_files: Vec<NodeSet> = Vec::new();
        for fid in 0..plan.num_files() {
            let file = FileId(fid);
            let file_nodes = plan.nodes_of_file(file);
            let tag = Tag::new(Tag::RECOVER, ((dead_idx as u32) << 16) | fid as u32);
            // Who holds I^d_S, or can rebuild it, and how.
            let (helper, rebuilt) = if file_nodes.contains(d) {
                // Only `d` kept I^d_S: re-execute Map on a replica.
                let mut replicas = file_nodes.iter().filter(|&u| u != d);
                (replicas.find(|&u| membership.is_alive(u)), true)
            } else if file_nodes.contains(successor) {
                // The successor kept I^d_S in its own Map output.
                (Some(successor), false)
            } else {
                // Some member of S forwards its kept copy.
                (file_nodes.iter().find(|&u| membership.is_alive(u)), false)
            };
            let Some(helper) = helper else {
                return Err(unrecoverable_file(membership, d, fid));
            };
            if helper == me {
                let piece = if rebuilt {
                    let data = &my_files
                        .iter()
                        .find(|(f, _)| *f == file)
                        .expect("placement puts every file of S on all of S")
                        .1;
                    // Of the file's K pieces only the dead rank's is built.
                    let mut mapped = workload.map_file(data, k, NodeSet::singleton(d));
                    pool::global().freeze(mapped.swap_remove(d))
                } else {
                    store
                        .get(d, file_nodes)
                        .expect("keep rule: members of S hold I^d_S when d is outside S")
                        .clone()
                };
                match &mut reducer {
                    Some(reducer) => {
                        stats.reduce_input_bytes += piece.len() as u64;
                        reducer.absorb(file_nodes.bits(), piece);
                    }
                    None => {
                        stats.sent_bytes += piece.len() as u64;
                        comm.send(successor, tag, piece)?;
                    }
                }
            } else if successor == me {
                awaited.push((comm.scope(tag), helper));
                awaited_files.push(file_nodes);
            }
        }
        if let Some(mut reducer) = reducer {
            // A key is good for one piece, so the taken ones can stay listed.
            for _ in 0..awaited.len() {
                let (at, piece) = comm.transport().recv_any(&awaited, None)?;
                stats.recv_bytes += piece.len() as u64;
                stats.reduce_input_bytes += piece.len() as u64;
                reducer.absorb(awaited_files[at].bits(), piece);
            }
            adopted.push((d, reducer.finish(pool)));
        }
    }
    Ok(adopted)
}

/// Every survivor computes this identically from the agreed membership,
/// so the whole cluster fails the job in unison — no rank is left
/// blocked on a recovery exchange that will never happen.
fn unrecoverable_file(membership: &MembershipView, d: usize, fid: u64) -> EngineError {
    EngineError::Unrecoverable(JobReport {
        dead: membership.dead_ranks(),
        unrecoverable_groups: Vec::new(),
        what: format!(
            "no survivor holds a replica of file {fid} needed to rebuild rank {d}'s partition"
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wordcount::WordCount;
    use cts_net::cluster::{run_spmd, ClusterConfig};
    use cts_net::health::HealthConfig;

    #[test]
    fn mask_payloads_round_trip() {
        let mask = 0b1010_0110u128 | (1u128 << 100);
        assert_eq!(le_mask(&Bytes::copy_from_slice(&mask.to_le_bytes())), mask);
        assert_eq!(le_mask(&Bytes::new()), 0);
    }

    /// WordCount that logs, per `map_file` call, the mask it was given, the
    /// bytes it materialised and how many of them the mask asked for.
    struct CountingMap(parking_lot::Mutex<Vec<(NodeSet, usize, usize)>>);

    impl Workload for CountingMap {
        fn name(&self) -> &str {
            "counting wordcount"
        }
        fn format(&self) -> crate::workload::InputFormat {
            WordCount.format()
        }
        fn map_file(&self, file: &[u8], num_partitions: usize, keep: NodeSet) -> Vec<Vec<u8>> {
            let parts = WordCount.map_file(file, num_partitions, keep);
            let built = parts.iter().map(Vec::len).sum();
            let kept = keep.iter().map(|p| parts[p].len()).sum();
            self.0.lock().push((keep, built, kept));
            parts
        }
        fn reduce(&self, partition: usize, data: &[u8]) -> Vec<u8> {
            WordCount.reduce(partition, data)
        }
    }

    #[test]
    fn adoption_re_maps_only_the_dead_ranks_piece() {
        // K = 3, r = 2, rank 2 dead: its successor, rank 0, rebuilds its
        // partition. Files {0,2} and {1,2} are re-mapped, by ranks 0 and 1.
        let (k, r, dead) = (3, 2, 2usize);
        let text: String = (0..6_000).map(|i| format!("w{}\n", i % 997)).collect();
        let input = Bytes::from(text.into_bytes());
        let plan = PlacementPlan::new(k, r).unwrap();
        let files = WordCount.format().split(&input, plan.num_files() as usize);
        let workload = CountingMap(Default::default());
        let run = run_spmd(&ClusterConfig::local(k), |comm| {
            let me = comm.rank();
            if me == dead {
                return Vec::new();
            }
            // This rank's Map stage, as the engine leaves it.
            let my_files: Vec<(FileId, Bytes)> = plan
                .files_of_node(me)
                .map(|fid| (fid, files[fid.0 as usize].clone()))
                .collect();
            let mut store = MapOutputStore::new();
            for (fid, data) in &my_files {
                let nodes = plan.nodes_of_file(*fid);
                let parts = WordCount.map_file(data, k, NodeSet::full(k));
                for (t, part) in parts.into_iter().enumerate() {
                    if plan.keeps_intermediate(me, nodes, t) {
                        store.insert(t, nodes, Bytes::from(part));
                    }
                }
            }
            adopt_dead_partitions(
                &workload,
                comm,
                &plan,
                &MembershipView::new(k, 1 << dead),
                &my_files,
                &store,
                PartitionShape {
                    pieces: plan.num_files() as usize,
                    expected_bytes: input.len() / k,
                },
                &WorkerPool::serial(),
                &mut NodeStats::default(),
            )
            .unwrap()
        })
        .unwrap();
        let expected = crate::run_sequential(&WordCount, &input, k);
        assert_eq!(run.results[0], vec![(dead, expected[dead].clone())]);
        assert!(run.results[1].is_empty());
        // Each re-map was asked for the one piece and built no more than it:
        // ≤ 1.5 × that piece, where mapping all K pieces builds the file.
        let calls = workload.0.into_inner();
        assert_eq!(calls.len(), 2, "{calls:?}");
        for (keep, built, piece) in calls {
            assert_eq!(keep, NodeSet::singleton(dead));
            assert!(piece > 1_000, "a {piece} B piece pins nothing");
            assert!(
                built * 2 <= piece * 3,
                "built {built} B for a {piece} B piece"
            );
        }
    }

    #[test]
    fn alive_sync_agrees_on_the_union_of_views() {
        // Rank 0 has locally declared rank 3 dead; after the sync every
        // rank must hold the same dead mask.
        let run = run_spmd(&ClusterConfig::local(4), |comm| {
            let mut board = HealthBoard::new(
                comm.rank(),
                4,
                HealthConfig::from_heartbeat(Duration::from_millis(5)),
            );
            if comm.rank() == 0 {
                board.declare_dead(3, comm.transport().as_ref());
            }
            if comm.rank() == 3 {
                // The "dead" rank does not participate — it crashed.
                return 0u128;
            }
            alive_sync(comm, &mut board, 7).unwrap()
        })
        .unwrap();
        assert_eq!(run.results[0], 0b1000);
        assert_eq!(run.results[1], 0b1000);
        assert_eq!(run.results[2], 0b1000);
    }

    #[test]
    fn alive_sync_survives_a_dead_coordinator() {
        // Rank 0 (the default coordinator) is dead in everyone's view:
        // rank 1 must take over and the sync must still complete.
        let run = run_spmd(&ClusterConfig::local(3), |comm| {
            let mut board = HealthBoard::new(
                comm.rank(),
                3,
                HealthConfig::from_heartbeat(Duration::from_millis(5)),
            );
            if comm.rank() == 0 {
                return 0u128;
            }
            board.declare_dead(0, comm.transport().as_ref());
            alive_sync(comm, &mut board, 1).unwrap()
        })
        .unwrap();
        assert_eq!(run.results[1], 0b1);
        assert_eq!(run.results[2], 0b1);
    }
}
