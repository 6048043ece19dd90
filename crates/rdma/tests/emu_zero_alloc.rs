//! The emulated NIC's packet service allocates nothing per warm frame.
//!
//! Every hop of a one-sided op on the emu fabric reuses storage: the sender
//! encodes into a frame from its frame arena, the mailbox deque keeps its
//! capacity, the receiver parses the payload into its NIC arena, the
//! responder fills read-response buffers from the QP arena straight out of
//! the region, and the frame returns to the sender's arena when dropped.
//! This test drives both ends of a connection by hand on one thread and
//! counts the allocations made while the two NICs serve a 4 KiB read
//! (request, four response frames) and a 4 KiB write (four frames, ACK).
//!
//! The counter is per thread, so allocations on the test runner's other
//! threads never leak into a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rdma::emu::EmuFabric;
use rdma::mem::Region;
use rdma::verbs::{WorkRequest, WrOp};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; counting
// touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const OP: u32 = 4096;

#[test]
fn warm_read_and_write_service_allocates_nothing() {
    let mut fabric = EmuFabric::new();
    let (client, mut client_svc) = fabric.add_nic_unthreaded();
    let (server, mut server_svc) = fabric.add_nic_unthreaded();
    let (qpn, _) = fabric.connect(&client, &server);
    let local = Region::new(1 << 16);
    let remote = Region::new(1 << 16);
    let pattern: Vec<u8> = (0..1u32 << 16).map(|i| (i * 31 + 7) as u8).collect();
    remote.write(0, &pattern).unwrap();
    let lkey = client.register(local.clone());
    let rkey = server.register(remote.clone());
    let mut done = Vec::with_capacity(4);

    // Post one op (outside the measured window: the host post path is not
    // the NIC service), then count what serving it end to end allocates:
    // the server's frames, then the client's. Returns (frames served,
    // allocations).
    let mut round = |i: u64, write: bool| -> (usize, u64) {
        // Each write sends back the range the read before it fetched, at
        // a byte offset that varies the word alignment of the region copies.
        let pair = i / 2;
        let addr = (pair % 8) * OP as u64 + 3 * (pair % 3);
        let op = if write {
            WrOp::Write {
                local_rkey: lkey,
                local_addr: addr,
                remote_addr: addr,
                remote_rkey: rkey,
                len: OP,
            }
        } else {
            WrOp::Read {
                local_rkey: lkey,
                local_addr: addr,
                remote_addr: addr,
                remote_rkey: rkey,
                len: OP,
            }
        };
        client.post(qpn, WorkRequest { wr_id: i, op }).unwrap();
        let before = allocs();
        let served = server_svc.serve_queued() + client_svc.serve_queued();
        let allocated = allocs() - before;
        done.clear();
        client.with_nic(|nic| nic.poll_into(4, &mut done));
        assert_eq!(done.len(), 1, "op {i} completes in one round");
        assert!(done[0].is_ok());
        assert_eq!(done[0].wr_id, i);
        (served, allocated)
    };

    // Warm-up: grow every frame, payload and queue buffer to its working
    // size.
    for i in 0..64 {
        round(i, i % 2 == 1);
    }

    let mut frames = [0usize; 2];
    for i in 64..320 {
        let write = i % 2 == 1;
        let (served, allocated) = round(i, write);
        frames[write as usize] += served;
        let what = if write {
            "write/ACK"
        } else {
            "read request/response"
        };
        assert_eq!(allocated, 0, "warm 4 KiB {what} (op {i}) allocated");
    }
    // A 4 KiB op at the default 1 KiB MTU: a read is one request and four
    // response frames, a write four frames and one ACK.
    assert_eq!(frames, [128 * 5, 128 * 5]);

    // The bytes really moved: reads brought the remote pattern into the
    // local region and the last write sent it back to the same range.
    let last = 7 * OP as u64;
    let mut a = vec![0u8; OP as usize];
    let mut b = vec![0u8; OP as usize];
    local.read(last, &mut a).unwrap();
    remote.read(last, &mut b).unwrap();
    assert_eq!(a, b);
    assert_eq!(&a[..], &pattern[last as usize..last as usize + OP as usize]);
}
