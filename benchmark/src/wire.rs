//! The benchmark's own client for `cdl_serve::net`'s wire protocol: an
//! independent encoder/decoder of the documented frame format, with split
//! send and receive halves and coalesced writes.
//!
//! `cdl_serve::TcpClient` couples both halves behind `&mut self` and
//! flushes once per request, so it can neither replay an open-loop
//! schedule (a sender thread and a receiver thread) nor keep the
//! generator's cost per request low. The `parity_with_tcp_client` test pins
//! this client against it on a live `TcpServer`.
//!
//! Frame: big-endian `u32` body length, then the body. Request body: `u64`
//! id, `u16` model-name length + name, `u8` flags (bit0 δ, bit1 stage cap,
//! bit3 deadline, bit4 priority, bit5 tenant; bit2, the trace id, is never
//! set by this client), the flagged fields in that order, then the tensor
//! (`u8` rank, `u32` dims, `f32` bit patterns). Response body: `u64` id,
//! `u8` status, then the output (status 0) or a `u16`-prefixed message.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use cdl_core::network::CdlOutput;
use cdl_hw::OpCount;
use cdl_serve::{ErrorCode, ErrorReply, Priority, SubmitOptions};
use cdl_tensor::Tensor;

const FLAG_DELTA: u8 = 1 << 0;
const FLAG_MAX_STAGE: u8 = 1 << 1;
const FLAG_DEADLINE: u8 = 1 << 3;
const FLAG_PRIORITY: u8 = 1 << 4;
const FLAG_TENANT: u8 = 1 << 5;

/// Largest response body this client accepts: an OK output is 78 bytes and
/// an error message at most `u16::MAX`, so anything beyond is a desynced
/// stream.
const MAX_RESPONSE: usize = 9 + 2 + u16::MAX as usize;

/// The tensor part of a request body. Encoded once per pool image: it is
/// 98 % of the frame and never changes between sends.
pub fn tensor_payload(t: &Tensor) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 4 * t.dims().len() + 4 * t.data().len());
    out.push(u8::try_from(t.dims().len()).expect("tensor rank fits u8"));
    for &d in t.dims() {
        out.extend_from_slice(&u32::try_from(d).expect("tensor dim fits u32").to_be_bytes());
    }
    for v in t.data() {
        out.extend_from_slice(&v.to_bits().to_be_bytes());
    }
    out
}

/// Appends one request frame to `out`.
pub fn encode_request(
    out: &mut Vec<u8>,
    id: u64,
    model: &str,
    options: &SubmitOptions,
    tensor: &[u8],
) {
    let frame_start = out.len();
    out.extend_from_slice(&[0; 4]); // length, patched below
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(
        &u16::try_from(model.len())
            .expect("model name fits u16")
            .to_be_bytes(),
    );
    out.extend_from_slice(model.as_bytes());
    let mut flags = 0u8;
    if options.delta.is_some() {
        flags |= FLAG_DELTA;
    }
    if options.max_stage.is_some() {
        flags |= FLAG_MAX_STAGE;
    }
    if options.deadline.is_some() {
        flags |= FLAG_DEADLINE;
    }
    if options.priority != Priority::default() {
        flags |= FLAG_PRIORITY;
    }
    if options.tenant.is_some() {
        flags |= FLAG_TENANT;
    }
    out.push(flags);
    if let Some(delta) = options.delta {
        out.extend_from_slice(&delta.to_bits().to_be_bytes());
    }
    if let Some(cap) = options.max_stage {
        out.extend_from_slice(
            &u32::try_from(cap)
                .expect("stage cap fits u32")
                .to_be_bytes(),
        );
    }
    if let Some(deadline) = options.deadline {
        let nanos = u64::try_from(deadline.as_nanos()).expect("deadline fits u64 ns");
        out.extend_from_slice(&nanos.to_be_bytes());
    }
    if flags & FLAG_PRIORITY != 0 {
        out.push(options.priority.class() as u8);
    }
    if let Some(tenant) = options.tenant {
        out.extend_from_slice(&tenant.to_be_bytes());
    }
    out.extend_from_slice(tensor);
    let body_len = u32::try_from(out.len() - frame_start - 4).expect("frame fits u32");
    out[frame_start..frame_start + 4].copy_from_slice(&body_len.to_be_bytes());
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// A checked big-endian reader over one response body.
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn take<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        if self.0.len() < N {
            return Err(malformed("truncated response"));
        }
        let (head, rest) = self.0.split_at(N);
        self.0 = rest;
        Ok(head.try_into().expect("split_at(N) yields N bytes"))
    }
    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take::<1>()?[0])
    }
    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_be_bytes(self.take()?))
    }
    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_be_bytes(self.take()?))
    }
    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_be_bytes(self.take()?))
    }
}

fn error_code(status: u8) -> Option<ErrorCode> {
    Some(match status {
        1 => ErrorCode::UnknownModel,
        2 => ErrorCode::BadOptions,
        3 => ErrorCode::Full,
        4 => ErrorCode::ShuttingDown,
        5 => ErrorCode::Disconnected,
        6 => ErrorCode::Eval,
        7 => ErrorCode::Malformed,
        8 => ErrorCode::Expired,
        9 => ErrorCode::Shed,
        10 => ErrorCode::Quota,
        _ => return None,
    })
}

/// One decoded response: the request id it answers and its settlement.
pub type Reply = (u64, Result<CdlOutput, ErrorReply>);

pub fn decode_response(body: &[u8]) -> io::Result<Reply> {
    let mut c = Cursor(body);
    let id = c.u64()?;
    let status = c.u8()?;
    let result = if status == 0 {
        Ok(CdlOutput {
            label: c.u32()? as usize,
            exit_stage: c.u32()? as usize,
            confidence: f32::from_bits(c.u32()?),
            ops: OpCount {
                macs: c.u64()?,
                adds: c.u64()?,
                compares: c.u64()?,
                activations: c.u64()?,
                mem_reads: c.u64()?,
                mem_writes: c.u64()?,
            },
            stages_activated: c.u64()?,
            exited_early: c.u8()? != 0,
        })
    } else {
        let code = error_code(status).ok_or_else(|| malformed("unknown status byte"))?;
        let len = c.u16()? as usize;
        if c.0.len() < len {
            return Err(malformed("truncated error message"));
        }
        let (msg, rest) = c.0.split_at(len);
        c.0 = rest;
        let message =
            String::from_utf8(msg.to_vec()).map_err(|_| malformed("message not UTF-8"))?;
        Err(ErrorReply { code, message })
    };
    if !c.0.is_empty() {
        return Err(malformed("trailing bytes in response"));
    }
    Ok((id, result))
}

/// Send half: frames are queued into one buffer and leave in one write.
pub struct Sender {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Sender {
    pub fn queue(&mut self, id: u64, model: &str, options: &SubmitOptions, tensor: &[u8]) {
        encode_request(&mut self.buf, id, model, options, tensor);
    }

    /// Writes every queued frame.
    pub fn flush(&mut self) -> io::Result<()> {
        self.stream.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }
}

/// Receive half: one `read` may deliver many frames; they are handed out
/// one by one without further system calls.
pub struct Receiver {
    stream: TcpStream,
    /// Fixed-size buffer; `buf[start..end]` holds the bytes not yet handed
    /// out.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Receiver {
    /// Length of the frame at the head of the buffer, header included, if
    /// the whole frame has arrived.
    fn buffered_frame(&self) -> io::Result<Option<usize>> {
        let have = &self.buf[self.start..self.end];
        if have.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes(have[..4].try_into().expect("4 bytes")) as usize;
        if len == 0 || len > MAX_RESPONSE {
            return Err(malformed("response length out of range"));
        }
        Ok((have.len() >= 4 + len).then_some(4 + len))
    }

    /// `true` when [`Receiver::recv`] would return a frame without reading.
    pub fn has_buffered_frame(&self) -> bool {
        matches!(self.buffered_frame(), Ok(Some(_)))
    }

    /// The next response; `None` when nothing arrived within the read
    /// time-out set at [`connect`]. Reads from the socket only when no whole
    /// frame is buffered.
    pub fn recv(&mut self) -> io::Result<Option<Reply>> {
        loop {
            if let Some(len) = self.buffered_frame()? {
                let frame = &self.buf[self.start + 4..self.start + len];
                self.start += len;
                return decode_response(frame).map(Some);
            }
            // move the partial frame to the front; a frame is at most
            // MAX_RESPONSE + 4 bytes, so there is always room to read into
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ))
                }
                Ok(n) => self.end += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Connects and splits the connection. `recv` gives up after `read_timeout`
/// so a receiver thread can notice that its run is over.
pub fn connect(addr: SocketAddr, read_timeout: Duration) -> io::Result<(Sender, Receiver)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(read_timeout))?;
    let read_half = stream.try_clone()?;
    Ok((
        Sender {
            stream,
            buf: Vec::with_capacity(256 * 1024),
        },
        Receiver {
            stream: read_half,
            buf: vec![0; 4 * (MAX_RESPONSE + 4)],
            start: 0,
            end: 0,
        },
    ))
}

/// Length in bytes of a request frame with default options for `model` and
/// an OK response frame, computed from the frame layout.
pub fn frame_sizes(model: &str, tensor: &[u8]) -> (usize, usize) {
    let mut frame = Vec::new();
    encode_request(&mut frame, 0, model, &SubmitOptions::default(), tensor);
    // id, status, label, exit stage, confidence, six op counts, stages, flag
    let ok_response = 4 + 8 + 1 + 4 + 4 + 4 + 6 * 8 + 8 + 1;
    (frame.len(), ok_response)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_layout_matches_the_documented_format() {
        let t = Tensor::from_vec(vec![1.0, -2.5], &[1, 2]).unwrap();
        let options = SubmitOptions {
            delta: Some(0.3),
            max_stage: None,
            deadline: Some(Duration::from_millis(25)),
            priority: Priority::Low,
            tenant: Some(9),
        };
        let mut frame = Vec::new();
        encode_request(&mut frame, 0x0102, "m", &options, &tensor_payload(&t));
        let mut want = vec![0, 0, 0, 0];
        want.extend_from_slice(&0x0102u64.to_be_bytes());
        want.extend_from_slice(&[0, 1, b'm']);
        want.push(FLAG_DELTA | FLAG_DEADLINE | FLAG_PRIORITY | FLAG_TENANT);
        want.extend_from_slice(&0.3f32.to_bits().to_be_bytes());
        want.extend_from_slice(&25_000_000u64.to_be_bytes());
        want.push(2);
        want.extend_from_slice(&9u32.to_be_bytes());
        want.extend_from_slice(&[2, 0, 0, 0, 1, 0, 0, 0, 2]);
        want.extend_from_slice(&1.0f32.to_bits().to_be_bytes());
        want.extend_from_slice(&(-2.5f32).to_bits().to_be_bytes());
        let body_len = (want.len() - 4) as u32;
        want[..4].copy_from_slice(&body_len.to_be_bytes());
        assert_eq!(frame, want);
    }

    #[test]
    fn responses_decode_and_reject_damage() {
        let mut ok = 7u64.to_be_bytes().to_vec();
        ok.push(0);
        ok.extend_from_slice(&3u32.to_be_bytes());
        ok.extend_from_slice(&1u32.to_be_bytes());
        ok.extend_from_slice(&0.625f32.to_bits().to_be_bytes());
        for n in 1..=7u64 {
            ok.extend_from_slice(&n.to_be_bytes());
        }
        ok.push(1);
        let (id, out) = decode_response(&ok).unwrap();
        let out = out.unwrap();
        assert_eq!(
            (id, out.label, out.exit_stage, out.confidence),
            (7, 3, 1, 0.625)
        );
        assert_eq!(
            (out.ops.macs, out.ops.mem_writes, out.stages_activated),
            (1, 6, 7)
        );
        assert!(out.exited_early);
        assert_eq!(ok.len() + 4, frame_sizes("m", &[]).1);

        assert!(decode_response(&ok[..ok.len() - 1]).is_err(), "truncated");
        let mut long = ok.clone();
        long.push(0);
        assert!(decode_response(&long).is_err(), "trailing byte");

        let mut err = 8u64.to_be_bytes().to_vec();
        err.extend_from_slice(&[8, 0, 2, b'n', b'o']);
        let (id, reply) = decode_response(&err).unwrap();
        assert_eq!(id, 8);
        assert_eq!(
            reply.unwrap_err(),
            ErrorReply {
                code: ErrorCode::Expired,
                message: "no".into()
            }
        );
        err[8] = 99;
        assert!(decode_response(&err).is_err(), "unknown status");
    }

    /// The same requests through this client and through
    /// `cdl_serve::TcpClient` to one live `TcpServer`: identical outputs
    /// and identical typed errors.
    #[test]
    fn parity_with_tcp_client() {
        use std::sync::Arc;
        let router = Arc::new(crate::serve::start_router(false));
        let edge = cdl_serve::TcpServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();
        let pool = crate::prepare::generate_pool(6, 11);
        let wrong_shape = Tensor::from_vec(vec![0.5; 4], &[1, 2, 2]).unwrap();
        let mut cases: Vec<(&str, &Tensor, SubmitOptions)> = Vec::new();
        for (i, image) in pool.images.iter().enumerate() {
            let model = crate::prepare::MODEL_NAMES[i % 2];
            cases.push((model, image, SubmitOptions::default()));
            cases.push((model, image, SubmitOptions::with_delta(0.3)));
            cases.push((
                model,
                image,
                SubmitOptions::with_max_stage(0)
                    .priority(Priority::Low)
                    .tenant(4),
            ));
        }
        cases.push(("no-such-model", &pool.images[0], SubmitOptions::default()));
        cases.push(("MNIST_2C", &pool.images[0], SubmitOptions::with_delta(2.0)));
        cases.push(("MNIST_3C", &wrong_shape, SubmitOptions::default()));
        cases.push((
            "MNIST_3C",
            &pool.images[1],
            SubmitOptions::with_deadline(Duration::ZERO),
        ));

        let mut theirs = cdl_serve::TcpClient::connect(edge.local_addr()).unwrap();
        let (mut tx, mut rx) = connect(edge.local_addr(), Duration::from_secs(5)).unwrap();
        let mut errors = 0;
        for (id, (model, input, options)) in cases.iter().enumerate() {
            let want = theirs.call(model, input, *options).unwrap();
            tx.queue(id as u64, model, options, &tensor_payload(input));
            tx.flush().unwrap();
            let (got_id, got) = rx.recv().unwrap().expect("a reply inside the time-out");
            assert_eq!(got_id, id as u64);
            assert_eq!(got, want, "case {id}: {model} {options:?}");
            if let (Ok(a), Ok(b)) = (&got, &want) {
                assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
            }
            errors += usize::from(got.is_err());
        }
        assert_eq!(errors, 4, "the four bad requests come back as typed errors");

        // pipelined: every frame in one write, replies matched by id
        for (id, (model, input, options)) in cases.iter().enumerate() {
            tx.queue(100 + id as u64, model, options, &tensor_payload(input));
        }
        tx.flush().unwrap();
        let mut seen = vec![false; cases.len()];
        for _ in &cases {
            let (id, _) = rx.recv().unwrap().expect("a reply inside the time-out");
            seen[id as usize - 100] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert!(!rx.has_buffered_frame());

        drop((theirs, tx, rx));
        edge.shutdown();
        Arc::try_unwrap(router)
            .expect("edge released the router")
            .shutdown();
    }
}
