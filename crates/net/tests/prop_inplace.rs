//! A frame whose payload is written in place ([`Frame::encode_with`]) is
//! the frame [`Frame::encode_into`] would have produced from the same
//! header and an owned payload: the same bytes, checksum included, after
//! whatever the buffer already held, and so the same [`Frame`] decoded.

use bytes::Bytes;
use kvs_net::frame::{Frame, FrameKind, HEADER_LEN};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_frame_written_in_place_is_the_frame_encoded_whole(
        kind_sel in any::<u8>(),
        flags in any::<u8>(),
        id in any::<u64>(),
        stamps in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        deadline in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        pieces in 1usize..5,
        prefix in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        let kind = [
            FrameKind::Request,
            FrameKind::Response,
            FrameKind::Busy,
            FrameKind::Expired,
            FrameKind::Write,
            FrameKind::WriteAck,
            FrameKind::Rmw,
        ][kind_sel as usize % 7];
        let header = Frame {
            kind,
            flags,
            id,
            stamps: [stamps.0, stamps.1, stamps.2, stamps.3],
            deadline,
            payload: Bytes::new(),
        };
        let whole = Frame {
            payload: Bytes::copy_from_slice(&payload),
            ..header.clone()
        };

        let mut expected = prefix.clone();
        whole.encode_into(&mut expected);
        let mut in_place = prefix.clone();
        // The body arrives in several appends, as a codec writes it.
        let written = header.encode_with(&mut in_place, |out| {
            for piece in payload.chunks(payload.len().div_ceil(pieces).max(1)) {
                out.extend_from_slice(piece);
            }
        });
        prop_assert_eq!(written, payload.len());
        prop_assert_eq!(&in_place, &expected);

        let (decoded, used) = Frame::decode(&in_place[prefix.len()..])
            .expect("a valid frame")
            .expect("a whole frame");
        prop_assert_eq!(used, HEADER_LEN + payload.len());
        prop_assert_eq!(decoded, whole);
    }
}
