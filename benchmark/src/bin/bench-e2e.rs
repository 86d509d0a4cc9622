//! End-to-end passes, untraced. See `rcv_benchmark`.

fn main() {
    rcv_benchmark::main(false);
}
