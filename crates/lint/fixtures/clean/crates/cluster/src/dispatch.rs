//! Fixture: the read dispatcher — time arrives as a parameter from
//! whichever world drives it, and it reads no clock itself; its `busy`
//! keeps the re-arm contract (KVS-L008 pass).

impl Dispatcher {
    pub fn poll(&mut self, now: u64) {
        self.nearest = self.nearest.max(now);
    }

    pub fn busy(&mut self, now: u64) {
        // Busy is flow control, never a failure: it re-arms the allowance
        // (tests/busy_budget.rs pins the boundary).
        self.expires = now + self.allowance;
    }
}
