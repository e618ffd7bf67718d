//! A decoded group's value against the process-wide buffer pool.
//!
//! A test binary of its own: a pooled buffer serves any lease down to two
//! thirds of its capacity, so a concurrent test that returned a larger
//! buffer to `pool::global()` could hand this test's exact-size lease a
//! bigger one. Here nothing else feeds the pool.

use bytes::Bytes;
use cts_core::decode::DecodePipeline;
use cts_core::encode::Encoder;
use cts_core::groups::MulticastGroups;
use cts_core::intermediate::MapOutputStore;
use cts_core::placement::PlacementPlan;
use cts_core::pool;
use cts_core::subset::{NodeId, NodeSet};

/// Deterministic intermediate contents for (target, file).
fn value_for(t: NodeId, file: NodeSet, len_scale: usize) -> Vec<u8> {
    let len = (t + 1) * len_scale + file.len();
    (0..len)
        .map(|i| (t * 89 + file.bits() as usize * 31 + i * 7) as u8)
        .collect()
}

/// The keep-rule store of every node of a (k, r) deployment.
fn stores(k: usize, r: usize, len_scale: usize) -> Vec<MapOutputStore> {
    let plan = PlacementPlan::new(k, r).unwrap();
    (0..k)
        .map(|node| {
            let mut store = MapOutputStore::new();
            for file_id in plan.files_of_node(node) {
                let file = plan.nodes_of_file(file_id);
                for t in 0..k {
                    if plan.keeps_intermediate(node, file, t) {
                        store.insert(t, file, Bytes::from(value_for(t, file, len_scale)));
                    }
                }
            }
            store
        })
        .collect()
}

#[test]
fn a_group_decodes_into_the_one_value_it_hands_out() {
    // Values of 20–100 KB: buffers the shared pool keeps.
    let (k, r) = (5, 2);
    let stores = stores(k, r, 20_000);
    let mut pipeline = DecodePipeline::new(k, r, 0).unwrap();
    let mut done = Vec::new();
    for sender in 1..k {
        let enc = Encoder::new(k, r, sender).unwrap();
        for pkt in enc.encode_all(&stores[sender]).unwrap() {
            if pkt.group.contains(0) {
                done.extend(pipeline.accept(&pkt, &stores[0]).unwrap());
            }
        }
    }
    let groups = MulticastGroups::new(k, r).unwrap();
    assert_eq!(done.len() as u64, groups.groups_per_node());
    assert_eq!(pipeline.in_flight(), 0);
    for (file, value) in &done {
        // Leased at its exact size and filled to it: nothing regrew it.
        assert_eq!(value.capacity(), value.len(), "{file}");
        assert_eq!(*value, value_for(0, *file, 20_000), "{file}");
    }
    // A completed value goes back when its holder lets go of it.
    let (_, value) = done.pop().unwrap();
    let cap = value.capacity();
    drop(pool::global().freeze(value));
    let hits = pool::global().stats().hits;
    assert_eq!(pool::global().get(cap).capacity(), cap);
    assert!(pool::global().stats().hits > hits);
}
