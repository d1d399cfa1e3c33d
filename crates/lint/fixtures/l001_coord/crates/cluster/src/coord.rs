//! Fixture: the write coordinator reading a clock of its own instead of
//! taking time as a parameter from its caller.

impl Coordinator {
    pub fn start(&mut self) -> u64 {
        let issued = std::time::Instant::now();
        self.last = issued.elapsed().as_nanos() as u64;
        self.last
    }
}
