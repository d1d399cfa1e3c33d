//! Fixture: the read dispatcher reading a clock of its own instead of
//! taking time as a parameter from its driver.

impl Dispatcher {
    pub fn poll(&mut self) {
        let now = std::time::Instant::now();
        self.nearest = now.elapsed().as_nanos() as u64;
    }
}
