//! The wire format: length-prefixed JSON frames.
//!
//! Each frame is a 4-byte big-endian payload length followed by the JSON
//! serialization of a [`WireMsg`]. JSON (rather than a binary format) keeps
//! the frames debuggable with `tcpdump`/`nc` during development; the
//! protocols exchange a handful of small messages per node per period, so
//! encoding cost is irrelevant next to the network round trip.
//!
//! Frames are capped at [`MAX_FRAME_LEN`] to bound memory on malformed or
//! hostile input.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dslice_core::ProtocolMsg;
use serde::{Deserialize, Serialize};
use std::io;
use tokio::io::{AsyncReadExt, AsyncWriteExt};

/// Upper bound on an encoded frame payload (1 MiB); a view exchange with a
/// few hundred entries fits in a few tens of kilobytes.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// The envelope actually shipped: the protocol message plus the sender's
/// listen port, so the receiver can reply without a directory lookup.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireMsg {
    /// The sender's listening address, as text (e.g. `127.0.0.1:4077`).
    pub reply_to: String,
    /// The protocol payload.
    pub msg: ProtocolMsg,
}

/// Encodes a message into a length-prefixed frame.
pub fn encode_frame(msg: &WireMsg) -> io::Result<Bytes> {
    let payload =
        serde_json::to_vec(msg).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame too large: {} bytes", payload.len()),
        ));
    }
    let mut buf = BytesMut::with_capacity(4 + payload.len());
    buf.put_u32(payload.len() as u32);
    buf.put_slice(&payload);
    Ok(buf.freeze())
}

/// Decodes one frame from `buf` if a complete one is available, advancing
/// the buffer past it. Returns `Ok(None)` when more bytes are needed.
pub fn decode_frame(buf: &mut BytesMut) -> io::Result<Option<WireMsg>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    buf.advance(4);
    let payload = buf.split_to(len);
    let msg = serde_json::from_slice(&payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(Some(msg))
}

/// Reads exactly one frame from an async stream.
pub async fn read_frame<R: AsyncReadExt + Unpin>(reader: &mut R) -> io::Result<WireMsg> {
    let mut len_buf = [0u8; 4];
    reader.read_exact(&mut len_buf).await?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload).await?;
    serde_json::from_slice(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Reads exactly one frame, giving up (with `ErrorKind::TimedOut`) if it
/// does not complete within `limit`.
///
/// Connection readers use this so a peer that connects and then stalls —
/// deliberately, under chaos injection, or because it died mid-frame —
/// cannot pin a reader task forever.
pub async fn read_frame_timeout<R: AsyncReadExt + Unpin>(
    reader: &mut R,
    limit: std::time::Duration,
) -> io::Result<WireMsg> {
    match tokio::time::timeout(limit, read_frame(reader)).await {
        Ok(result) => result,
        Err(elapsed) => Err(elapsed.into()),
    }
}

/// Writes one frame to an async stream.
pub async fn write_frame<W: AsyncWriteExt + Unpin>(
    writer: &mut W,
    msg: &WireMsg,
) -> io::Result<()> {
    let frame = encode_frame(msg)?;
    writer.write_all(&frame).await?;
    writer.flush().await
}

#[cfg(test)]
mod tests {
    use super::*;
    use dslice_core::{Attribute, NodeId, ViewEntry};
    use proptest::prelude::*;

    fn sample_msg() -> WireMsg {
        WireMsg {
            reply_to: "127.0.0.1:9000".into(),
            msg: ProtocolMsg::SwapReq {
                from: NodeId::new(3),
                r: 0.25,
                a: Attribute::new(17.5).unwrap(),
            },
        }
    }

    #[test]
    fn roundtrip_simple() {
        let msg = sample_msg();
        let frame = encode_frame(&msg).unwrap();
        let mut buf = BytesMut::from(&frame[..]);
        let decoded = decode_frame(&mut buf).unwrap().unwrap();
        assert_eq!(decoded, msg);
        assert!(buf.is_empty(), "frame fully consumed");
    }

    #[test]
    fn roundtrip_view_exchange() {
        let entries: Vec<ViewEntry> = (0..50)
            .map(|i| {
                ViewEntry::with_age(
                    NodeId::new(i),
                    i as u32,
                    Attribute::new(i as f64).unwrap(),
                    (i as f64 + 1.0) / 100.0,
                )
            })
            .collect();
        let msg = WireMsg {
            reply_to: "127.0.0.1:1".into(),
            msg: ProtocolMsg::ViewReq {
                from: NodeId::new(9),
                entries,
            },
        };
        let frame = encode_frame(&msg).unwrap();
        let mut buf = BytesMut::from(&frame[..]);
        assert_eq!(decode_frame(&mut buf).unwrap().unwrap(), msg);
    }

    #[test]
    fn partial_frames_wait_for_more() {
        let frame = encode_frame(&sample_msg()).unwrap();
        // Feed the frame byte by byte: no spurious decode, exactly one at end.
        let mut buf = BytesMut::new();
        let mut decoded = 0;
        for &b in frame.iter() {
            buf.put_u8(b);
            if decode_frame(&mut buf).unwrap().is_some() {
                decoded += 1;
            }
        }
        assert_eq!(decoded, 1);
    }

    #[test]
    fn two_frames_in_one_buffer() {
        let frame = encode_frame(&sample_msg()).unwrap();
        let mut buf = BytesMut::new();
        buf.put_slice(&frame);
        buf.put_slice(&frame);
        assert!(decode_frame(&mut buf).unwrap().is_some());
        assert!(decode_frame(&mut buf).unwrap().is_some());
        assert!(decode_frame(&mut buf).unwrap().is_none());
    }

    #[test]
    fn oversized_length_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(MAX_FRAME_LEN as u32 + 1);
        buf.put_slice(&[0u8; 16]);
        assert!(decode_frame(&mut buf).is_err());
    }

    #[test]
    fn garbage_payload_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(4);
        buf.put_slice(b"!!!!");
        assert!(decode_frame(&mut buf).is_err());
    }

    #[tokio::test]
    async fn async_roundtrip_over_duplex() {
        let (mut a, mut b) = tokio::io::duplex(4096);
        let msg = sample_msg();
        write_frame(&mut a, &msg).await.unwrap();
        let got = read_frame(&mut b).await.unwrap();
        assert_eq!(got, msg);
    }

    #[tokio::test]
    async fn read_frame_timeout_fires_on_a_silent_peer() {
        let (mut a, mut b) = tokio::io::duplex(4096);
        // Nothing is ever written to `a`: the read must give up.
        let err = read_frame_timeout(&mut b, std::time::Duration::from_millis(20))
            .await
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // A prompt frame still goes through untouched.
        let msg = sample_msg();
        write_frame(&mut a, &msg).await.unwrap();
        let got = read_frame_timeout(&mut b, std::time::Duration::from_secs(5))
            .await
            .unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn encoded_bytes_are_pinned() {
        // Captured when `NodeId` was backed by a `u64`: the wire bytes of
        // an id do not depend on how it is stored.
        let msg = WireMsg {
            reply_to: "127.0.0.1:9000".into(),
            msg: ProtocolMsg::ViewAck {
                from: NodeId::new(4_294_967_294),
                entries: vec![
                    ViewEntry::with_age(NodeId::new(0), 3, Attribute::new(17.5).unwrap(), 0.25),
                    ViewEntry::with_age(
                        NodeId::new(123_456),
                        0,
                        Attribute::new(-2.0).unwrap(),
                        0.875,
                    ),
                ],
            },
        };
        let payload: &[u8] = br#"{"reply_to":"127.0.0.1:9000","msg":{"ViewAck":{"from":4294967294,"entries":[{"id":0,"age":3,"attribute":17.5,"value":0.25},{"id":123456,"age":0,"attribute":-2,"value":0.875}]}}}"#;
        let frame = encode_frame(&msg).unwrap();
        assert_eq!(frame[..4], [0, 0, 0, 177]);
        assert_eq!(&frame[4..], payload);
        let frame = encode_frame(&sample_msg()).unwrap();
        assert_eq!(
            &frame[4..],
            br#"{"reply_to":"127.0.0.1:9000","msg":{"SwapReq":{"from":3,"r":0.25,"a":17.5}}}"#
        );
    }

    /// The first raw id beyond the range.
    const TOP: u64 = u32::MAX as u64;

    /// `raw` as a JSON number, and as the id it denotes if it is one.
    fn wire_u64(raw: u64) -> (String, Option<u64>) {
        (raw.to_string(), (raw < TOP).then_some(raw))
    }

    /// A node id as a peer may write it: the JSON number, and the id it
    /// denotes if it is one.
    fn wire_id() -> impl Strategy<Value = (String, Option<u64>)> {
        prop_oneof![
            (0..TOP).prop_map(wire_u64),
            Just(TOP - 1).prop_map(wire_u64),
            Just(TOP).prop_map(wire_u64),
            Just(TOP + 1).prop_map(wire_u64),
            Just(u64::MAX).prop_map(wire_u64),
            (TOP..).prop_map(wire_u64),
            any::<u64>().prop_map(wire_u64),
            Just(("18446744073709551616".to_string(), None)),
            (i64::MIN..0).prop_map(|raw| (raw.to_string(), None)),
            (0..TOP, 1u8..10).prop_map(|(raw, tenths)| (format!("{raw}.{tenths}"), None)),
        ]
    }

    proptest! {
        #[test]
        fn decode_refuses_every_out_of_range_id(
            (from_text, from) in wire_id(),
            (entry_text, entry) in wire_id(),
        ) {
            let payload = format!(
                r#"{{"reply_to":"127.0.0.1:1","msg":{{"ViewReq":{{"from":{from_text},"entries":[{{"id":{entry_text},"age":2,"attribute":1.5,"value":0.5}}]}}}}}}"#
            );
            let mut buf = BytesMut::new();
            buf.put_u32(payload.len() as u32);
            buf.put_slice(payload.as_bytes());
            match (from, entry, decode_frame(&mut buf)) {
                (Some(from), Some(entry), Ok(Some(decoded))) => {
                    let expected = ProtocolMsg::ViewReq {
                        from: NodeId::new(from),
                        entries: vec![ViewEntry::with_age(
                            NodeId::new(entry),
                            2,
                            Attribute::new(1.5).unwrap(),
                            0.5,
                        )],
                    };
                    prop_assert_eq!(decoded.msg, expected);
                }
                (Some(_), Some(_), other) => prop_assert!(false, "valid ids refused: {other:?}"),
                (_, _, Err(e)) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData),
                (_, _, Ok(decoded)) => {
                    prop_assert!(false, "{from_text} / {entry_text} accepted as {decoded:?}")
                }
            }
        }

        #[test]
        fn roundtrip_arbitrary_update(
            from in 0u64..1000,
            a in -1e6f64..1e6,
            port in 1u16..u16::MAX,
        ) {
            let msg = WireMsg {
                reply_to: format!("127.0.0.1:{port}"),
                msg: ProtocolMsg::Update {
                    from: NodeId::new(from),
                    a: Attribute::new(a).unwrap(),
                },
            };
            let frame = encode_frame(&msg).unwrap();
            let mut buf = BytesMut::from(&frame[..]);
            prop_assert_eq!(decode_frame(&mut buf).unwrap().unwrap(), msg);
        }
    }
}
