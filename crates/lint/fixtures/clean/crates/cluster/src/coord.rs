//! Fixture: the write coordinator — time and the LWW clock arrive as
//! parameters from whichever world runs it; it reads no clock itself.

impl Coordinator {
    pub fn start(&mut self, clock: u64) -> u64 {
        self.last = clock.max(self.last + 1);
        self.last
    }
}
