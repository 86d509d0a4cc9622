//! The traced run: full probes, phase profile and the counting allocator.
//! See `rcv_benchmark`.

#[global_allocator]
static ALLOC: rcv_allocmeter::CountingAllocator = rcv_allocmeter::CountingAllocator;

fn main() {
    rcv_benchmark::main(true);
}
