//! Fixture: the socket side of the write coordinator (KVS-L018 pass) —
//! the wall-clock stamp is the machine's parameter by design, and the
//! machine's file is an exempt callee.

pub fn issue(coord: &mut Coordinator) -> u64 {
    let stamp = wall_ns();
    Coordinator::start(coord, stamp)
}
