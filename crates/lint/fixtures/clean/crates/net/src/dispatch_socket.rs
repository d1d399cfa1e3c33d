//! Fixture: the socket side of the read dispatcher (KVS-L018 pass) — the
//! clock is the machine's parameter by design, and the machine's file is
//! an exempt callee.

pub fn poll_now(dispatch: &mut Dispatcher) {
    let now = wall_ns();
    Dispatcher::poll(dispatch, now)
}
