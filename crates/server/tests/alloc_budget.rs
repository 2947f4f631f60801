//! Allocation budget of the batched request path: decoding a 1,024-key
//! batch through the borrowed [`RequestRef`] view allocates its one vector
//! of key slices and nothing per key, and encoding a response into a
//! buffer that already has room allocates nothing. A per-key `to_vec` or
//! an encode-then-copy coming back would fail these counts.
//!
//! The counting allocator keeps a per-thread tally, so the counts are
//! exact for the code each test runs, whatever other tests do beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sbf_server::{ErrorCode, Request, RequestRef, Response};

thread_local! {
    // `const` initialisation and no destructor: touching the slot never
    // allocates, so the allocator can use it without recursing.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, plus a per-thread count of allocations and reallocations.
struct Counting;

fn bump() {
    // During thread teardown the slot may already be gone; allocations
    // made then go uncounted, which no assertion here depends on.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` correctly; the only addition is a thread-local
// counter update, which neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, and `System.alloc` has the same contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`; `alloc_zeroed` has the same contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` and `layout` come from this allocator, i.e. from
        // `System`, and the caller upholds `realloc`'s size contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const KEYS: usize = 1024;

fn batch_keys() -> Vec<Vec<u8>> {
    (0..KEYS as u64)
        .map(|i| format!("user:{i:08}").into_bytes())
        .collect()
}

/// The frame body (opcode, then payload) of `req`, as the reactor hands
/// it to the decoder.
fn body(req: &Request) -> Vec<u8> {
    req.encode().expect("encode")[4..].to_vec()
}

#[test]
fn decoding_a_key_batch_allocates_once() {
    let keys = batch_keys();
    for req in [
        Request::EstimateBatch { keys: keys.clone() },
        Request::InsertBatch { keys: keys.clone() },
    ] {
        let body = body(&req);
        let (allocs, decoded) = allocations_in(|| RequestRef::decode(body[0], &body[1..]));
        let decoded = decoded.expect("decode");
        assert!(
            allocs <= 1,
            "{}: {allocs} allocations to decode {KEYS} keys",
            req.view().label()
        );
        // The view borrows the body and round-trips to the request.
        assert_eq!(decoded.into_owned(), req);
    }
}

#[test]
fn encoding_a_response_into_a_reserved_buffer_allocates_nothing() {
    let values: Vec<u64> = (0..KEYS as u64).map(|i| i * 7).collect();
    let responses = [
        Response::Values(values),
        Response::Value(42),
        Response::Ok,
        Response::Error {
            code: ErrorCode::Underflow,
            message: "counter 3".into(),
        },
    ];
    let mut out = Vec::with_capacity(64 * 1024);
    for resp in &responses {
        out.clear();
        let (allocs, encoded) = allocations_in(|| resp.encode_into(&mut out));
        encoded.expect("encode");
        assert_eq!(allocs, 0, "{resp:?} allocated while encoding in place");
        assert_eq!(
            out,
            resp.encode().expect("encode"),
            "same bytes as encode()"
        );
    }
}
