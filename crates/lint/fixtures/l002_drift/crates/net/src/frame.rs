//! Fixture frame module: constants and doc table agree (KVS-L002 pass).
//!
//! ```text
//! offset  size  field
//!      0     2  magic        0x4B56 ("KV")
//!      2     1  version      2 (any other value is refused)
//!      3     1  kind         1 = request, 2 = response, 3 = busy,
//!                            4 = expired, 5 = write, 6 = write-ack,
//!                            7 = rmw
//!      4     1  flags        bit 0: compact codec
//!      5     8  id           request id
//!     13     4  len          payload length in bytes
//!     17    32  stamps[4]    wall-clock nanoseconds
//!     49     8  deadline     absolute deadline; 0 = none
//!     57     4  checksum     CRC-32 over bytes [0, 57) + payload
//!     61   len  payload      codec-encoded body
//! ```

pub const MAGIC: u16 = 0x4B56;
pub const VERSION: u8 = 2;
pub const HEADER_LEN: usize = 61;

pub enum FrameKind {
    Request,
    Response,
    Busy,
    Expired,
    Write,
    WriteAck,
    Rmw,
}

impl FrameKind {
    pub fn to_byte(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
            FrameKind::Busy => 3,
            FrameKind::Expired => 4,
            FrameKind::Write => 5,
            FrameKind::WriteAck => 6,
            FrameKind::Rmw => 7,
        }
    }
}
