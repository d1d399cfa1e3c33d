//! Fixture: lock guard held across a blocking socket write.

use parking_lot::Mutex;
use std::io::Write;
use std::net::TcpStream;

pub fn flush(conn: &Mutex<TcpStream>, bytes: &[u8]) -> std::io::Result<()> {
    let mut guard = conn.lock();
    guard.write_all(bytes)?;
    Ok(())
}

pub fn send(conn: &Mutex<TcpStream>, frame: &crate::frame::Frame) -> std::io::Result<()> {
    frame.write_to(&mut *conn.lock())
}
