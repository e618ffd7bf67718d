//! The one frame codec under both TCP sockets, the fabric's links
//! ([`tcp`](crate::tcp)) and the `cts serve` client wire: a frame is
//! `[head][len: u32 LE][body]`, the head of a size the caller fixes (a
//! link's 16-byte job, tag and ripening stamp; none on the service wire). A frame leaves in one
//! vectored write; a reader refuses a length over [`MAX_FRAME`] and
//! reserves at most 1 MiB before a body's bytes arrive, so a forged length
//! costs no more than the larger of that and twice what was really sent.

use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;

/// Largest body either socket writes or accepts (1 GiB) — a sanity check
/// against corrupted length headers.
pub const MAX_FRAME: u32 = 1 << 30;

/// The most a reader reserves for a body before any of its bytes arrive.
const RESERVE_MAX: usize = 1 << 20;

fn over_cap(kind: ErrorKind, len: impl std::fmt::Display) -> io::Error {
    let what = format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap");
    io::Error::new(kind, what)
}

/// Writes one frame: `head`, the `u32` LE sum of the `parts`' lengths, then
/// each part from where it lies, in one vectored write looped over short
/// writes — on a `TCP_NODELAY` socket a small frame leaves in one segment.
/// A body over [`MAX_FRAME`] is refused with `InvalidInput` before a byte
/// is written. The caller serializes writers on `stream`.
pub fn write(mut stream: &TcpStream, head: &[u8], parts: &[&[u8]]) -> io::Result<()> {
    let body: usize = parts.iter().map(|part| part.len()).sum();
    if body > MAX_FRAME as usize {
        return Err(over_cap(ErrorKind::InvalidInput, body));
    }
    let len = (body as u32).to_le_bytes();
    let mut slices: Vec<IoSlice<'_>> = [head, &len[..]]
        .into_iter()
        .chain(parts.iter().copied())
        .map(IoSlice::new)
        .collect();
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match stream.write_vectored(rest) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads into `buf` until it is full or the reader is at EOF; returns the
/// bytes read.
fn fill(reader: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut at = 0;
    while at < buf.len() {
        match reader.read(&mut buf[at..]) {
            Ok(0) => break,
            Ok(n) => at += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(at)
}

/// Reads a frame's `H`-byte head and its body's length: `None` if the
/// reader ends cleanly before the frame's first byte, `UnexpectedEof` if
/// it ends inside the header, `InvalidData` for a length over
/// [`MAX_FRAME`].
pub fn read_head<const H: usize>(reader: &mut impl Read) -> io::Result<Option<([u8; H], u32)>> {
    let (mut head, mut len) = ([0u8; H], [0u8; 4]);
    match fill(reader, &mut head)? + fill(reader, &mut len)? {
        0 => return Ok(None),
        got if got < H + 4 => return Err(ErrorKind::UnexpectedEof.into()),
        _ => {}
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(over_cap(ErrorKind::InvalidData, len));
    }
    Ok(Some((head, len)))
}

/// Reads the `len`-byte body [`read_head`] announced into one buffer,
/// reserved at no more than 1 MiB and grown only as bytes land;
/// `UnexpectedEof` if the reader ends first.
pub fn read_body(reader: &mut impl Read, len: u32) -> io::Result<Vec<u8>> {
    let len = len as usize;
    let mut body = Vec::with_capacity(len.min(RESERVE_MAX));
    reader.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(ErrorKind::UnexpectedEof.into());
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Shutdown, TcpListener};

    /// A connected loopback pair: (writer, reader).
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (far, _) = listener.accept().unwrap();
        (near, far)
    }

    /// A link frame's header: the tag, then the length the body claims.
    fn header(tag: u32, len: u32) -> Vec<u8> {
        [tag.to_le_bytes(), len.to_le_bytes()].concat()
    }

    /// Hands out its bytes one per read.
    struct ByteAtATime<'a>(&'a [u8]);

    impl Read for ByteAtATime<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match (self.0.split_first(), buf.first_mut()) {
                (Some((&byte, rest)), Some(slot)) => {
                    *slot = byte;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn frames_read_a_byte_at_a_time_arrive_intact() {
        let mut wire = Vec::new();
        for i in 0..5u32 {
            let len = 100 * (i + 1);
            wire.extend(header(i, len));
            wire.extend(vec![i as u8; len as usize]);
        }
        let mut reader = ByteAtATime(&wire);
        for i in 0..5u32 {
            let (tag, len) = read_head::<4>(&mut reader).unwrap().unwrap();
            assert_eq!((u32::from_le_bytes(tag), len), (i, 100 * (i + 1)));
            let body = read_body(&mut reader, len).unwrap();
            assert!(body.len() == len as usize && body.iter().all(|&b| b == i as u8));
        }
        assert!(read_head::<4>(&mut reader).unwrap().is_none());
    }

    #[test]
    fn an_empty_body_is_a_whole_frame() {
        let wire = header(4, 0);
        let mut reader = &wire[..];
        assert_eq!(
            read_head::<4>(&mut reader).unwrap(),
            Some((4u32.to_le_bytes(), 0))
        );
        assert!(read_body(&mut reader, 0).unwrap().is_empty());
        assert!(read_head::<4>(&mut reader).unwrap().is_none());
    }

    #[test]
    fn a_frame_leaves_as_head_length_and_parts_back_to_back() {
        let (near, mut far) = pair();
        write(&near, b"tag!", &[b"ab", b"", b"cde"]).unwrap();
        write(&near, &[], &[]).unwrap();
        write(&near, &[], &[b"xyz"]).unwrap();
        drop(near);
        let mut wire = Vec::new();
        far.read_to_end(&mut wire).unwrap();
        let expected = [&b"tag!"[..], &5u32.to_le_bytes(), b"abcde"].concat();
        let expected = [
            expected,
            vec![0; 4],
            3u32.to_le_bytes().to_vec(),
            b"xyz".to_vec(),
        ];
        assert_eq!(wire, expected.concat());
    }

    #[test]
    fn a_length_over_the_cap_is_invalid_data() {
        let wire = header(0, MAX_FRAME);
        assert_eq!(
            read_head::<4>(&mut &wire[..]).unwrap(),
            Some(([0; 4], MAX_FRAME))
        );
        for len in [MAX_FRAME + 1, u32::MAX] {
            let wire = header(0, len);
            let err = read_head::<4>(&mut &wire[..]).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        }
        // The service wire has no head: the length is the frame's first word.
        let err = read_head::<0>(&mut &[0xFF; 4][..]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn a_length_the_bytes_never_reach_is_unexpected_eof() {
        // 512 MiB claimed, 10 bytes sent, then EOF.
        let wire = [header(0, 512 << 20), vec![7; 10]].concat();
        let mut reader = &wire[..];
        let (_, len) = read_head::<4>(&mut reader).unwrap().unwrap();
        let err = read_body(&mut reader, len).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        // A header cut short is no clean end either.
        let err = read_head::<4>(&mut &header(0, 1)[..6]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        assert!(read_head::<0>(&mut &[][..]).unwrap().is_none());
    }

    #[test]
    fn a_body_over_the_cap_is_refused_before_a_byte_is_written() {
        // 17 × 64 MiB = 1 GiB + 64 MiB, from one zeroed slice: address
        // space, not memory.
        let slice = vec![0u8; 64 << 20];
        let parts = vec![&slice[..]; 17];
        let (near, mut far) = pair();
        // Should a regression write it, the unread socket fills: fail, not hang.
        near.set_write_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let err = write(&near, b"tag!", &parts).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        assert!(err.to_string().contains("1140850688 bytes"), "{err}");
        near.shutdown(Shutdown::Write).unwrap();
        assert_eq!(
            far.read(&mut [0u8; 16]).unwrap(),
            0,
            "the peer reads nothing"
        );
    }
}
