//! The wire codec: the five-message QCR protocol as length-checked,
//! checksummed little-endian frames.
//!
//! Frame layout (fixed magic, explicit little-endian fields, typed
//! decode errors with truncation blame):
//!
//! ```text
//! [ MAGIC (1) | kind (1) | payload (kind-specific) | FNV-1a32 (4) ]
//! ```
//!
//! The trailing checksum covers everything before it, so a corrupted
//! frame — any single bit flip, anywhere — decodes to a typed
//! [`WireError`] instead of a silently wrong message. Vectors are
//! encoded as a `u32` count followed by the elements; a count is checked
//! against [`MAX_LIST`] and against the bytes left in the frame before
//! it sizes anything, so a corrupt length can never drive an allocation.

use std::fmt;

/// Frame marker; bump on any layout change.
pub const MAGIC: u8 = 0xAA;

/// Upper bound on encoded list lengths (items, wants, grants, pools).
pub const MAX_LIST: u32 = 1 << 20;

/// Message kind tags (wire byte 1).
const KIND_ADVERT: u8 = 1;
const KIND_REQUEST: u8 = 2;
const KIND_FULFILL: u8 = 3;
const KIND_HANDOFF: u8 = 4;
const KIND_ACK: u8 = 5;

/// The typed message set of the distributed QCR protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg {
    /// Contact-window hello: what the sender caches and which mandates
    /// it holds. Drives query counting, fulfillment, mandate execution
    /// and routing at the receiver.
    CacheAdvert {
        /// Contact-window id the advert belongs to.
        window: u64,
        /// Items in the sender's cache (sorted).
        items: Vec<u32>,
        /// The sender's mandate pool as (item, count) pairs (sorted).
        mandates: Vec<(u32, u64)>,
    },
    /// Ask the peer to serve the listed items this window.
    Request {
        /// Contact-window id.
        window: u64,
        /// Items the sender wants (sorted, deduplicated).
        wants: Vec<u32>,
    },
    /// Serve content: every listed item was in the sender's cache when
    /// the request was processed.
    Fulfill {
        /// Contact-window id.
        window: u64,
        /// Items granted.
        grants: Vec<u32>,
    },
    /// Two-phase mandate transfer (phase 1). With `execute` false this
    /// hands custody of `count` mandates to the receiver (§5.3 routing);
    /// with `execute` true it offers one mandated copy of `item` for the
    /// receiver to store. Idempotent under redelivery: the receiver
    /// dedups on `xfer`.
    MandateHandoff {
        /// Globally unique transfer id.
        xfer: u64,
        /// The mandated item.
        item: u32,
        /// Mandates in escrow for this transfer.
        count: u64,
        /// Execute (store a copy) instead of transferring custody.
        execute: bool,
    },
    /// Two-phase mandate transfer (phase 2): how many of the transfer's
    /// mandates the receiver consumed. Re-sent verbatim on duplicate
    /// handoffs.
    MandateAck {
        /// The transfer being acknowledged.
        xfer: u64,
        /// Mandates consumed at the receiver (`count` for applied
        /// custody transfers, 0 or 1 for executions).
        consumed: u64,
    },
}

impl Msg {
    /// Stable kind name for logs and counters.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::CacheAdvert { .. } => "cache_advert",
            Msg::Request { .. } => "request",
            Msg::Fulfill { .. } => "fulfill",
            Msg::MandateHandoff { .. } => "mandate_handoff",
            Msg::MandateAck { .. } => "mandate_ack",
        }
    }

    /// Encode the message as one checksummed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        self.encode_into(&mut buf);
        buf
    }

    /// Encode the message as one checksummed frame into `buf`, replacing
    /// what it held: [`Msg::encode`] for a caller that reuses buffers.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Msg::CacheAdvert {
                window,
                items,
                mandates,
            } => encode_advert(buf, *window, items, mandates.iter().copied()),
            Msg::Request { window, wants } => encode_request(buf, *window, wants),
            Msg::Fulfill { window, grants } => encode_fulfill(buf, *window, grants),
            Msg::MandateHandoff {
                xfer,
                item,
                count,
                execute,
            } => {
                open(buf, KIND_HANDOFF);
                buf.extend_from_slice(&xfer.to_le_bytes());
                buf.extend_from_slice(&item.to_le_bytes());
                buf.extend_from_slice(&count.to_le_bytes());
                buf.push(u8::from(*execute));
                seal(buf);
            }
            Msg::MandateAck { xfer, consumed } => {
                open(buf, KIND_ACK);
                buf.extend_from_slice(&xfer.to_le_bytes());
                buf.extend_from_slice(&consumed.to_le_bytes());
                seal(buf);
            }
        }
    }

    /// Decode one frame. Truncated input is blamed as
    /// [`WireError::Truncated`] with the byte counts; any corruption the
    /// structure checks miss is caught by the trailing checksum.
    pub fn decode(buf: &[u8]) -> Result<Msg, WireError> {
        let mut lists = Lists::default();
        let head = decode_into(buf, &mut lists)?;
        Ok(head.into_msg(lists))
    }
}

/// A decoded frame's fixed fields. Its lists are in the [`Lists`] it was
/// decoded into by [`decode_into`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decoded {
    /// A [`Msg::CacheAdvert`]: items in [`Lists::items`], mandates in
    /// [`Lists::mandates`].
    Advert {
        /// Contact-window id.
        window: u64,
    },
    /// A [`Msg::Request`]: the wants in [`Lists::items`].
    Request {
        /// Contact-window id.
        window: u64,
    },
    /// A [`Msg::Fulfill`]: the grants in [`Lists::items`].
    Fulfill {
        /// Contact-window id.
        window: u64,
    },
    /// A [`Msg::MandateHandoff`].
    Handoff {
        /// Globally unique transfer id.
        xfer: u64,
        /// The mandated item.
        item: u32,
        /// Mandates in escrow for this transfer.
        count: u64,
        /// Execute instead of transferring custody.
        execute: bool,
    },
    /// A [`Msg::MandateAck`].
    Ack {
        /// The transfer being acknowledged.
        xfer: u64,
        /// Mandates consumed at the receiver.
        consumed: u64,
    },
}

impl Decoded {
    /// The message this frame and the `lists` it was decoded into carry.
    pub fn into_msg(self, lists: Lists) -> Msg {
        match self {
            Decoded::Advert { window } => Msg::CacheAdvert {
                window,
                items: lists.items,
                mandates: lists.mandates,
            },
            Decoded::Request { window } => Msg::Request {
                window,
                wants: lists.items,
            },
            Decoded::Fulfill { window } => Msg::Fulfill {
                window,
                grants: lists.items,
            },
            Decoded::Handoff {
                xfer,
                item,
                count,
                execute,
            } => Msg::MandateHandoff {
                xfer,
                item,
                count,
                execute,
            },
            Decoded::Ack { xfer, consumed } => Msg::MandateAck { xfer, consumed },
        }
    }
}

/// Caller-owned buffers a frame's lists decode into, reused from frame
/// to frame so that a decode allocates only when a list outgrows them.
#[derive(Clone, Debug, Default)]
pub struct Lists {
    /// Advert items, request wants or fulfill grants.
    pub items: Vec<u32>,
    /// Advert mandates as (item, count) pairs.
    pub mandates: Vec<(u32, u64)>,
}

/// Decode one frame into `lists`, replacing what they held. [`Msg::decode`]
/// calls it on fresh lists; a caller that reuses buffers calls it directly.
/// Its checks, in order: magic, kind, each list count against [`MAX_LIST`]
/// and then the bytes left, trailing bytes, checksum.
pub fn decode_into(buf: &[u8], lists: &mut Lists) -> Result<Decoded, WireError> {
    // The last 4 bytes are the checksum, not payload.
    let Some((body, &sum)) = buf
        .split_last_chunk::<4>()
        .filter(|(body, _)| body.len() >= 2)
    else {
        return Err(WireError::Truncated {
            need: 6,
            have: buf.len(),
        });
    };
    if body[0] != MAGIC {
        return Err(WireError::BadMagic { found: body[0] });
    }
    let kind = body[1];
    let mut cur = Cursor {
        buf,
        pos: 2,
        end: body.len(),
    };
    lists.items.clear();
    lists.mandates.clear();
    let head = match kind {
        KIND_ADVERT => {
            let window = cur.u64()?;
            cur.list_into(&mut lists.items, 4, Cursor::u32)?;
            cur.list_into(&mut lists.mandates, 12, |c| Ok((c.u32()?, c.u64()?)))?;
            Decoded::Advert { window }
        }
        KIND_REQUEST => {
            let window = cur.u64()?;
            cur.list_into(&mut lists.items, 4, Cursor::u32)?;
            Decoded::Request { window }
        }
        KIND_FULFILL => {
            let window = cur.u64()?;
            cur.list_into(&mut lists.items, 4, Cursor::u32)?;
            Decoded::Fulfill { window }
        }
        KIND_HANDOFF => Decoded::Handoff {
            xfer: cur.u64()?,
            item: cur.u32()?,
            count: cur.u64()?,
            execute: cur.u8()? != 0,
        },
        KIND_ACK => Decoded::Ack {
            xfer: cur.u64()?,
            consumed: cur.u64()?,
        },
        other => return Err(WireError::UnknownKind { kind: other }),
    };
    if cur.pos != cur.end {
        return Err(WireError::TrailingBytes {
            extra: cur.end - cur.pos,
        });
    }
    let expected = fnv1a32(body);
    let found = u32::from_le_bytes(sum);
    if expected != found {
        return Err(WireError::ChecksumMismatch { expected, found });
    }
    Ok(head)
}

/// Write the frame of `Msg::CacheAdvert { window, items, mandates }`
/// into `buf`, replacing what it held, from borrowed lists: the one
/// advert writer, which [`Msg::encode_into`] calls too.
pub fn encode_advert(
    buf: &mut Vec<u8>,
    window: u64,
    items: &[u32],
    mandates: impl ExactSizeIterator<Item = (u32, u64)>,
) {
    open(buf, KIND_ADVERT);
    buf.extend_from_slice(&window.to_le_bytes());
    put_u32_list(buf, items);
    buf.extend_from_slice(&(mandates.len() as u32).to_le_bytes());
    for (item, count) in mandates {
        buf.extend_from_slice(&item.to_le_bytes());
        buf.extend_from_slice(&count.to_le_bytes());
    }
    seal(buf);
}

/// Write the frame of `Msg::Request { window, wants }` into `buf`.
pub(crate) fn encode_request(buf: &mut Vec<u8>, window: u64, wants: &[u32]) {
    window_list(buf, KIND_REQUEST, window, wants);
}

/// Write the frame of `Msg::Fulfill { window, grants }` into `buf`.
pub(crate) fn encode_fulfill(buf: &mut Vec<u8>, window: u64, grants: &[u32]) {
    window_list(buf, KIND_FULFILL, window, grants);
}

fn window_list(buf: &mut Vec<u8>, kind: u8, window: u64, xs: &[u32]) {
    open(buf, kind);
    buf.extend_from_slice(&window.to_le_bytes());
    put_u32_list(buf, xs);
    seal(buf);
}

/// Start a frame of `kind` in `buf`, dropping what it held.
fn open(buf: &mut Vec<u8>, kind: u8) {
    buf.clear();
    buf.extend_from_slice(&[MAGIC, kind]);
}

/// Append the checksum of everything before it.
fn seal(buf: &mut Vec<u8>) {
    let sum = fnv1a32(buf);
    buf.extend_from_slice(&sum.to_le_bytes());
}

fn put_u32_list(buf: &mut Vec<u8>, xs: &[u32]) {
    buf.extend_from_slice(&(xs.len() as u32).to_le_bytes());
    for &x in xs {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

/// FNV-1a, 32-bit, over little-endian `u32` words and then the 0–3 tail
/// bytes. Any single-bit flip in the covered bytes changes the hash: each
/// step xors one word (or byte) into the state and multiplies by an odd
/// prime (a bijection), so differing states never re-converge.
fn fnv1a32(bytes: &[u8]) -> u32 {
    const PRIME: u32 = 0x0100_0193;
    let mut words = bytes.chunks_exact(4);
    let mut hash = words.by_ref().fold(0x811c_9dc5_u32, |hash, w| {
        (hash ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]])).wrapping_mul(PRIME)
    });
    for &b in words.remainder() {
        hash = (hash ^ u32::from(b)).wrapping_mul(PRIME);
    }
    hash
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    end: usize,
}

impl Cursor<'_> {
    /// The error for `n` more bytes than the payload holds.
    fn truncated(&self, n: usize) -> WireError {
        WireError::Truncated {
            need: self.pos + n + 4,
            have: self.buf.len(),
        }
    }

    /// The next `N` payload bytes.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let Some(&bytes) = self.buf[self.pos..self.end].first_chunk::<N>() else {
            return Err(self.truncated(N));
        };
        self.pos += N;
        Ok(bytes)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let [b] = self.array()?;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A list count, bounded by [`MAX_LIST`] and then by the payload
    /// left: `n` elements of `elem_bytes` each must fit in it before the
    /// caller sizes a `Vec` by `n`.
    fn list_len(&mut self, elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()?;
        if n > MAX_LIST {
            return Err(WireError::Oversized {
                len: n,
                max: MAX_LIST,
            });
        }
        let bytes = n as usize * elem_bytes;
        if bytes > self.end - self.pos {
            return Err(self.truncated(bytes));
        }
        Ok(n as usize)
    }

    /// A counted list into `xs` (cleared by the caller): the count
    /// passes [`Cursor::list_len`] before `xs` grows by it, then each
    /// element is read by `elem`.
    fn list_into<T>(
        &mut self,
        xs: &mut Vec<T>,
        elem_bytes: usize,
        elem: fn(&mut Self) -> Result<T, WireError>,
    ) -> Result<(), WireError> {
        let n = self.list_len(elem_bytes)?;
        xs.reserve(n);
        for _ in 0..n {
            xs.push(elem(self)?);
        }
        Ok(())
    }
}

/// Why a frame failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the frame does.
    Truncated {
        /// Bytes the frame needs at least.
        need: usize,
        /// Bytes present.
        have: usize,
    },
    /// The first byte is not [`MAGIC`].
    BadMagic {
        /// The byte found instead.
        found: u8,
    },
    /// The kind tag names no known message.
    UnknownKind {
        /// The offending tag.
        kind: u8,
    },
    /// A list length exceeds [`MAX_LIST`].
    Oversized {
        /// The declared length.
        len: u32,
        /// The allowed maximum.
        max: u32,
    },
    /// Payload bytes remain after the message parsed.
    TrailingBytes {
        /// Leftover byte count.
        extra: usize,
    },
    /// The trailing FNV-1a checksum does not match the frame.
    ChecksumMismatch {
        /// Checksum computed over the received bytes.
        expected: u32,
        /// Checksum carried by the frame.
        found: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated frame: need >= {need} bytes, have {have}")
            }
            WireError::BadMagic { found } => {
                write!(f, "bad magic byte {found:#04x} (expected {MAGIC:#04x})")
            }
            WireError::UnknownKind { kind } => write!(f, "unknown message kind {kind}"),
            WireError::Oversized { len, max } => {
                write!(f, "list length {len} exceeds the {max} cap")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the message")
            }
            WireError::ChecksumMismatch { expected, found } => write!(
                f,
                "checksum mismatch: frame carries {found:#010x}, bytes hash to {expected:#010x}"
            ),
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Msg> {
        vec![
            Msg::CacheAdvert {
                window: 7,
                items: vec![0, 3, 9],
                mandates: vec![(3, 2), (11, 20)],
            },
            Msg::CacheAdvert {
                window: 0,
                items: vec![],
                mandates: vec![],
            },
            Msg::Request {
                window: u64::MAX,
                wants: vec![1],
            },
            Msg::Fulfill {
                window: 42,
                grants: vec![5, 6],
            },
            Msg::MandateHandoff {
                xfer: 99,
                item: 4,
                count: 3,
                execute: false,
            },
            Msg::MandateHandoff {
                xfer: 100,
                item: 4,
                count: 1,
                execute: true,
            },
            Msg::MandateAck {
                xfer: 99,
                consumed: 3,
            },
        ]
    }

    #[test]
    fn round_trips() {
        for msg in samples() {
            let bytes = msg.encode();
            assert_eq!(Msg::decode(&bytes).unwrap(), msg, "{}", msg.kind());
        }
    }

    #[test]
    fn encode_into_replaces_what_the_buffer_held() {
        let mut buf = vec![0xFF; 64];
        for msg in samples() {
            msg.encode_into(&mut buf);
            assert_eq!(buf, msg.encode(), "{}", msg.kind());
        }
    }

    #[test]
    fn every_truncation_errors() {
        for msg in samples() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert!(
                    Msg::decode(&bytes[..cut]).is_err(),
                    "{} truncated to {cut} of {} decoded",
                    msg.kind(),
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn every_single_bit_flip_errors() {
        for msg in samples() {
            let bytes = msg.encode();
            for byte in 0..bytes.len() {
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[byte] ^= 1 << bit;
                    assert!(
                        Msg::decode(&bad).is_err(),
                        "{}: flip of byte {byte} bit {bit} decoded",
                        msg.kind()
                    );
                }
            }
        }
    }

    /// Every list element is 4 or 12 bytes wide, so a frame's length mod 4
    /// is fixed by its kind: 2, or 3 for the handoff. The checksum's byte
    /// tail of lengths 0 and 1 is held to the single-bit-flip guarantee
    /// here, on the checksum itself.
    #[test]
    fn every_single_bit_flip_changes_the_checksum_at_every_tail_length() {
        let residues: Vec<usize> = samples().iter().map(|m| m.encode().len() % 4).collect();
        assert!(residues.contains(&2) && residues.contains(&3));
        for len in 0..16usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(0x9D)).collect();
            let sum = fnv1a32(&bytes);
            for byte in 0..len {
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[byte] ^= 1 << bit;
                    assert_ne!(fnv1a32(&bad), sum, "length {len}: byte {byte} bit {bit}");
                }
            }
        }
    }

    #[test]
    fn oversized_list_is_rejected_without_allocating() {
        let mut bytes = vec![MAGIC, KIND_REQUEST];
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let sum = fnv1a32(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Msg::decode(&bytes),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Msg::MandateAck {
            xfer: 1,
            consumed: 0,
        }
        .encode();
        let pos = bytes.len() - 4;
        bytes.insert(pos, 0);
        assert!(matches!(
            Msg::decode(&bytes),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
    }
}
