//! Guard the ownership rule of DESIGN.md §16, don't just benchmark it:
//! hardware values are inline and `Copy`, and the node owns one resolved
//! draw — so once a node is built, nothing the executor or a sampler asks
//! of it touches the heap.
//!
//! A counting `#[global_allocator]` wraps the system allocator; counters
//! are thread-local so the measurement is immune to other test threads
//! allocating concurrently (the `crates/fft/tests/alloc_free.rs` harness).

use fluxpm_hw::{lassen, tioga, Lanes, NodeArch, NodeHardware, NodeId, PowerDemand, Watts};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed by `f` on this thread.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(|c| c.get());
    let r = f();
    let after = ALLOCS.with(|c| c.get());
    (after - before, r)
}

fn demand(arch: &NodeArch, gpu_w: f64) -> PowerDemand {
    PowerDemand {
        cpu: Lanes::filled(Watts(150.0), arch.sockets),
        memory: Watts(80.0),
        gpu: Lanes::filled(Watts(gpu_w), arch.gpus),
        other: arch.other,
    }
}

/// One executor slice and one sampling tick's worth of calls on a node,
/// with the demand the application republishes each slice; returns the
/// node's draw.
fn a_simulated_second(node: &mut NodeHardware, gpu_w: f64) -> Watts {
    let d = demand(&node.arch, gpu_w);
    node.set_demand(d);
    let drawn = node.draw().total();
    assert_eq!(node.tick(1.0).total(), drawn);
    let reading = node.read_sensors();
    assert!(reading
        .node_power_estimate()
        .approx_eq(drawn, 0.2 * drawn.get()));
    drawn
}

#[test]
fn a_simulated_second_allocates_nothing_in_the_hardware_model() {
    for arch in [lassen(), tioga()] {
        let model = arch.model;
        let cappable = arch.capping.user_enabled;
        let mut node = NodeHardware::new(NodeId(0), arch, 5);

        let (allocs, busy) = allocs_during(|| {
            // Changed demand (idle → busy), then the same demand again,
            // then another change: resolve, keep, resolve.
            let busy = a_simulated_second(&mut node, 250.0);
            assert_eq!(a_simulated_second(&mut node, 250.0), busy);
            assert!(a_simulated_second(&mut node, 120.0) < busy);
            node.set_idle();
            node.draw().total();
            busy
        });
        assert_eq!(allocs, 0, "{model}: demand → draw → tick → sensors");

        // A cap change drops the resolution; re-resolving it (derived
        // GPU caps, socket caps, memory cap and all) is as heap-free.
        let (allocs, capped) = allocs_during(|| {
            if cappable {
                node.set_node_cap(Watts(1200.0)).expect("node cap");
                node.set_gpu_cap(0, Watts(150.0)).expect("gpu cap");
                node.set_socket_cap(0, Watts(100.0)).expect("socket cap");
                node.set_memory_cap(Watts(60.0)).expect("memory cap");
            } else {
                assert!(node.set_gpu_cap(0, Watts(150.0)).is_err());
            }
            assert_eq!(node.effective_gpu_caps().len(), node.arch.gpus);
            a_simulated_second(&mut node, 250.0)
        });
        assert_eq!(allocs, 0, "{model}: cap change → re-draw");
        assert_eq!(
            capped < busy,
            cappable,
            "{model}: caps bite where they exist"
        );
    }
}
