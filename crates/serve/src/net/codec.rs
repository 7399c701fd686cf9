//! The wire format, written once: bytes in, bytes out — no socket, no
//! `Router`. The edge's pollers and the client halves in [`crate::net`]
//! both frame, encode and decode through this module, and
//! `tests/golden/frames/` holds its output byte for byte.
//!
//! # Wire protocol
//!
//! Every frame is a big-endian `u32` body length followed by the body
//! (at most [`MAX_FRAME`] bytes; a response body at most [`MAX_RESPONSE`]),
//! encoded with the vendored [`bytes`] [`Buf`]/[`BufMut`] traits. A length
//! outside those bounds desynchronises the stream: the reader stops there.
//!
//! Request body:
//!
//! ```text
//! u64 request id        (client-chosen; echoed verbatim in the response)
//! u16 model-name length, then that many UTF-8 bytes
//! u8  option flags      (bit0: δ override follows, bit1: stage cap follows,
//!                        bit2: telemetry trace id follows, bit3: deadline
//!                        follows, bit4: priority class follows, bit5:
//!                        tenant id follows)
//! f32 δ override        (iff bit0)
//! u32 max stage         (iff bit1)
//! u64 trace id          (iff bit2; non-zero — zero is reserved for "no
//!                        trace" and rejected as malformed)
//! u64 deadline          (iff bit3; relative nanoseconds from admission —
//!                        the server sheds the request with an `Expired`
//!                        reply if it cannot dispatch in time)
//! u8  priority class    (iff bit4; 0 = high, 1 = normal, 2 = low —
//!                        anything else is rejected as malformed)
//! u32 tenant id         (iff bit5; a label: the server's per-tenant
//!                        shed and expired counters count by it)
//! u8  rank, then u32 × rank dims, then f32 × volume payload
//! ```
//!
//! Every flag bit is backward compatible in both directions: old frames
//! (bits 2–5 clear) decode unchanged, and a request carrying only default
//! options costs no wire space beyond the flags byte. A traced request
//! continues the client's [`cdl_telemetry::TraceId`] on the server side —
//! the server records it whenever its own spans are on, so one
//! trace covers the wire hop without any coordination. f32s travel as their
//! IEEE-754 bit patterns, so the round trip is bit-exact.
//!
//! Response body:
//!
//! ```text
//! u64 request id        (u64::MAX on a reply to a body too short to carry one)
//! u8  status            (0 = OK, else an ErrorCode discriminant)
//! OK  → u32 label · u32 exit stage · f32 confidence · u64 × 6 op counts
//!       (macs, adds, compares, activations, mem reads, mem writes) ·
//!       u64 stages activated · u8 exited-early flag
//! err → u16 message length, then that many UTF-8 bytes
//! ```

use std::io;
use std::time::Duration;

use bytes::{Buf, BufMut};
use cdl_core::network::CdlOutput;
use cdl_hw::OpCount;
use cdl_telemetry::TraceId;
use cdl_tensor::Tensor;

use crate::config::{Priority, SubmitOptions};
use crate::server::Request;

/// Hard cap on a frame body, request or response: 16 MiB — comfortably
/// above any 28×28 batch-of-one payload, far below anything that could
/// be a desynchronised stream misread as a length.
pub const MAX_FRAME: u32 = 16 << 20;

/// The longest response body: id, status and an error message of
/// `u16::MAX` bytes (an OK body is 78). A client reading a longer length
/// has lost the frame boundary.
pub const MAX_RESPONSE: usize = 8 + 1 + 2 + u16::MAX as usize;

/// The frame of an OK reply: length prefix, id, status, label, exit stage,
/// confidence, six op counts, stages activated, exited-early flag.
pub(crate) const OK_REPLY: usize = 4 + 8 + 1 + 4 + 4 + 4 + 6 * 8 + 8 + 1;

const FLAG_DELTA: u8 = 1 << 0;
const FLAG_MAX_STAGE: u8 = 1 << 1;
const FLAG_TRACE: u8 = 1 << 2;
const FLAG_DEADLINE: u8 = 1 << 3;
const FLAG_PRIORITY: u8 = 1 << 4;
const FLAG_TENANT: u8 = 1 << 5;

const KNOWN_FLAGS: u8 =
    FLAG_DELTA | FLAG_MAX_STAGE | FLAG_TRACE | FLAG_DEADLINE | FLAG_PRIORITY | FLAG_TENANT;

/// Request id used on error replies for frames too corrupt to carry one.
pub(crate) const NO_ID: u64 = u64::MAX;

/// Typed error category carried in a response frame's status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// No model of the requested name is registered with the router.
    UnknownModel = 1,
    /// The per-request override was rejected at admission.
    BadOptions = 2,
    /// The model's server was at capacity.
    Full = 3,
    /// The router is shutting down.
    ShuttingDown = 4,
    /// The pipeline dropped the request without evaluating it.
    Disconnected = 5,
    /// The evaluator failed on the batch containing this request.
    Eval = 6,
    /// The request frame could not be decoded.
    Malformed = 7,
    /// The request's deadline passed before dispatch; no evaluator ops
    /// were spent on it.
    Expired = 8,
    /// Admission shed the request under load (lower priority classes are
    /// shed first).
    Shed = 9,
    /// Reserved: no server sends it. Kept, with its golden frame, while
    /// `benchmark/` names it (until ROADMAP item 1(g) or 17(d)).
    Quota = 10,
}

impl ErrorCode {
    /// Every code in status order (`ALL[i]` is status `i + 1`), with the
    /// name its `Display` prints.
    const ALL: [(ErrorCode, &'static str); 10] = [
        (ErrorCode::UnknownModel, "unknown model"),
        (ErrorCode::BadOptions, "bad options"),
        (ErrorCode::Full, "queue full"),
        (ErrorCode::ShuttingDown, "shutting down"),
        (ErrorCode::Disconnected, "disconnected"),
        (ErrorCode::Eval, "evaluation failed"),
        (ErrorCode::Malformed, "malformed frame"),
        (ErrorCode::Expired, "deadline expired"),
        (ErrorCode::Shed, "shed under load"),
        (ErrorCode::Quota, "tenant quota exceeded"),
    ];

    pub(crate) fn from_status(status: u8) -> Option<ErrorCode> {
        Some(Self::ALL.get(usize::from(status).checked_sub(1)?)?.0)
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(ErrorCode::ALL[*self as usize - 1].1)
    }
}

/// The error half of a response frame: a typed category plus the server's
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReply {
    /// Typed category (drives client-side handling: retry on
    /// [`ErrorCode::Full`], fail fast on [`ErrorCode::UnknownModel`], …).
    pub code: ErrorCode,
    /// Server-side detail, for logs and operators.
    pub message: String,
}

impl std::fmt::Display for ErrorReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ErrorReply {}

/// One decoded response: the request id it answers, and either the
/// bit-exact [`CdlOutput`] or the server's typed [`ErrorReply`].
pub type Reply = (u64, Result<CdlOutput, ErrorReply>);

pub(crate) fn malformed(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// Appends one length-prefixed frame to `out`: `body` writes the body in
/// place behind a placeholder prefix, which is patched to the body's length
/// afterwards. On an error — `body`'s own, or a body over [`MAX_FRAME`] —
/// `out` is truncated back to its entry length.
pub(crate) fn framed(
    out: &mut Vec<u8>,
    body: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
) -> io::Result<()> {
    let start = out.len();
    out.put_u32(0);
    let len = body(out).and_then(|()| match out.len() - start - 4 {
        len if len > MAX_FRAME as usize => Err(malformed(format!(
            "frame body of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        ))),
        len => Ok(len as u32),
    });
    match len {
        Ok(len) => {
            out[start..start + 4].copy_from_slice(&len.to_be_bytes());
            Ok(())
        }
        Err(e) => {
            out.truncate(start);
            Err(e)
        }
    }
}

/// The one frame splitter: the body of the frame at the head of `buf` once
/// all of it has arrived (`None` before), for a reader that accepts bodies
/// of at most `max` bytes. The frame takes `4 + body.len()` bytes of `buf`.
///
/// A length outside `1..=max` is an error as soon as its prefix is in: the
/// stream is desynchronised and nothing after the prefix can be trusted.
pub(crate) fn next_frame(buf: &[u8], max: usize) -> io::Result<Option<&[u8]>> {
    let Some((prefix, rest)) = buf.split_first_chunk::<4>() else {
        return Ok(None);
    };
    match u32::from_be_bytes(*prefix) as usize {
        len if len == 0 || len > max => {
            Err(malformed(format!("frame length {len} outside 1..={max}")))
        }
        len => Ok(rest.get(..len)),
    }
}

/// The id a request body claims — its first 8 bytes — so a body that does
/// not decode is still answered under it; [`NO_ID`] when it is shorter.
pub(crate) fn claimed_id(body: &[u8]) -> u64 {
    body.first_chunk()
        .map_or(NO_ID, |id| u64::from_be_bytes(*id))
}

/// Appends the tensor part of a request body: rank, dims, then the f32 bit
/// patterns. On an error `out` may hold part of it.
pub(crate) fn put_tensor(out: &mut Vec<u8>, input: &Tensor) -> io::Result<()> {
    let rank =
        u8::try_from(input.dims().len()).map_err(|_| malformed("tensor rank exceeds u8::MAX"))?;
    out.reserve(1 + 4 * usize::from(rank) + 4 * input.data().len());
    out.put_u8(rank);
    for &d in input.dims() {
        out.put_u32(u32::try_from(d).map_err(|_| malformed("tensor dim exceeds u32"))?);
    }
    for &v in input.data() {
        out.put_f32(v);
    }
    Ok(())
}

/// The tensor part of a request body, for [`crate::net::SendHalf::queue`]:
/// encode an input once and send it as often as it is asked for.
///
/// # Panics
///
/// On a tensor the wire cannot carry: rank above 255, or a dimension above
/// `u32::MAX`.
pub fn tensor_payload(input: &Tensor) -> Vec<u8> {
    let mut out = Vec::new();
    put_tensor(&mut out, input).expect("tensor rank fits u8 and every dim fits u32");
    out
}

/// Appends one request frame to `out`; `tensor` is the tensor part, as
/// [`tensor_payload`] encodes it. On an error `out` is left as it was.
pub(crate) fn encode_request(
    out: &mut Vec<u8>,
    id: u64,
    model: &str,
    options: &SubmitOptions,
    trace: Option<TraceId>,
    tensor: &[u8],
) -> io::Result<()> {
    if model.len() > u16::MAX as usize {
        return Err(malformed("model name longer than u16::MAX bytes"));
    }
    framed(out, |body| {
        body.reserve(32 + model.len() + tensor.len());
        body.put_u64(id);
        body.put_u16(model.len() as u16);
        body.put_slice(model.as_bytes());
        // each field present sets its bit in the flags byte written ahead of it
        let flags_at = body.len();
        body.put_u8(0);
        let mut flags = 0u8;
        if let Some(delta) = options.delta {
            flags |= FLAG_DELTA;
            body.put_f32(delta);
        }
        if let Some(max_stage) = options.max_stage {
            flags |= FLAG_MAX_STAGE;
            body.put_u32(u32::try_from(max_stage).map_err(|_| malformed("max_stage exceeds u32"))?);
        }
        if let Some(trace) = trace {
            flags |= FLAG_TRACE;
            body.put_u64(trace.raw());
        }
        if let Some(deadline) = options.deadline {
            flags |= FLAG_DEADLINE;
            let nanos = u64::try_from(deadline.as_nanos());
            body.put_u64(nanos.map_err(|_| malformed("deadline exceeds u64 nanos"))?);
        }
        if options.priority != Priority::default() {
            flags |= FLAG_PRIORITY;
            body.put_u8(options.priority.class() as u8);
        }
        if let Some(tenant) = options.tenant {
            flags |= FLAG_TENANT;
            body.put_u32(tenant);
        }
        body[flags_at] = flags;
        body.put_slice(tensor);
        Ok(())
    })
}

/// A decoded request frame; the model name is borrowed from the frame.
pub(crate) struct RequestFrame<'a> {
    pub(crate) id: u64,
    pub(crate) model: &'a str,
    pub(crate) request: Request,
}

/// Pulls `n` checked bytes-worth of remaining capacity or fails.
fn need(cursor: &&[u8], n: usize, what: &str) -> io::Result<()> {
    if cursor.remaining() < n {
        return Err(malformed(format!("truncated frame: {what}")));
    }
    Ok(())
}

pub(crate) fn decode_request(body: &[u8]) -> io::Result<RequestFrame<'_>> {
    let mut cursor = body;
    need(&cursor, 8, "request id")?;
    let id = cursor.get_u64();
    need(&cursor, 2, "model-name length")?;
    let name_len = cursor.get_u16() as usize;
    need(&cursor, name_len, "model name")?;
    let (name, rest) = cursor.split_at(name_len);
    let model =
        std::str::from_utf8(name).map_err(|_| malformed("model name is not valid UTF-8"))?;
    cursor = rest;
    need(&cursor, 1, "option flags")?;
    let flags = cursor.get_u8();
    if flags & !KNOWN_FLAGS != 0 {
        return Err(malformed(format!("unknown option flags {flags:#04x}")));
    }
    let mut options = SubmitOptions::default();
    if flags & FLAG_DELTA != 0 {
        need(&cursor, 4, "delta override")?;
        options.delta = Some(cursor.get_f32());
    }
    if flags & FLAG_MAX_STAGE != 0 {
        need(&cursor, 4, "max-stage cap")?;
        options.max_stage = Some(cursor.get_u32() as usize);
    }
    let trace =
        if flags & FLAG_TRACE != 0 {
            need(&cursor, 8, "trace id")?;
            Some(TraceId::from_raw(cursor.get_u64()).ok_or_else(|| {
                malformed("zero trace id (the trace flag promises a non-zero id)")
            })?)
        } else {
            None
        };
    if flags & FLAG_DEADLINE != 0 {
        need(&cursor, 8, "deadline")?;
        options.deadline = Some(Duration::from_nanos(cursor.get_u64()));
    }
    if flags & FLAG_PRIORITY != 0 {
        need(&cursor, 1, "priority class")?;
        let class = cursor.get_u8();
        options.priority = Priority::from_class(class)
            .ok_or_else(|| malformed(format!("unknown priority class {class}")))?;
    }
    if flags & FLAG_TENANT != 0 {
        need(&cursor, 4, "tenant id")?;
        options.tenant = Some(cursor.get_u32());
    }
    need(&cursor, 1, "tensor rank")?;
    let rank = cursor.get_u8() as usize;
    need(&cursor, 4 * rank, "tensor dims")?;
    let dims: Vec<usize> = (0..rank).map(|_| cursor.get_u32() as usize).collect();
    let volume: usize = dims
        .iter()
        .try_fold(1usize, |acc, &d| {
            acc.checked_mul(d)
                .filter(|&v| v <= (MAX_FRAME as usize) / 4)
        })
        .ok_or_else(|| malformed("tensor volume overflows the frame cap"))?;
    need(&cursor, 4 * volume, "tensor payload")?;
    let (payload, rest) = cursor.split_at(4 * volume);
    if !rest.is_empty() {
        return Err(malformed(format!(
            "{} trailing bytes after tensor payload",
            rest.len()
        )));
    }
    // one bounds check for the whole payload, not one per float, so the
    // conversion vectorises; the bit patterns pass through unchanged
    let (words, _) = payload.as_chunks::<4>();
    let data: Vec<f32> = words
        .iter()
        .map(|&w| f32::from_bits(u32::from_be_bytes(w)))
        .collect();
    let input =
        Tensor::from_vec(data, &dims).map_err(|e| malformed(format!("bad tensor shape: {e}")))?;
    Ok(RequestFrame {
        id,
        model,
        request: Request {
            input,
            options,
            trace,
        },
    })
}

pub(crate) fn encode_response(
    out: &mut Vec<u8>,
    id: u64,
    result: &Result<CdlOutput, ErrorReply>,
) -> io::Result<()> {
    framed(out, |body| {
        body.put_u64(id);
        match result {
            Ok(output) => {
                body.put_u8(0);
                body.put_u32(
                    u32::try_from(output.label).map_err(|_| malformed("label exceeds u32"))?,
                );
                body.put_u32(
                    u32::try_from(output.exit_stage)
                        .map_err(|_| malformed("exit stage exceeds u32"))?,
                );
                body.put_f32(output.confidence);
                body.put_u64(output.ops.macs);
                body.put_u64(output.ops.adds);
                body.put_u64(output.ops.compares);
                body.put_u64(output.ops.activations);
                body.put_u64(output.ops.mem_reads);
                body.put_u64(output.ops.mem_writes);
                body.put_u64(output.stages_activated);
                body.put_u8(output.exited_early as u8);
            }
            Err(reply) => {
                body.put_u8(reply.code as u8);
                // cut on a character boundary: the peer rejects invalid UTF-8
                let msg = &reply.message[..reply.message.floor_char_boundary(u16::MAX as usize)];
                body.put_u16(msg.len() as u16);
                body.put_slice(msg.as_bytes());
            }
        }
        Ok(())
    })
}

pub(crate) fn decode_response(body: &[u8]) -> io::Result<Reply> {
    let mut cursor = body;
    need(&cursor, 9, "response header")?;
    let id = cursor.get_u64();
    let status = cursor.get_u8();
    if status == 0 {
        need(&cursor, 4 + 4 + 4 + 8 * 7 + 1, "output payload")?;
        let output = CdlOutput {
            label: cursor.get_u32() as usize,
            exit_stage: cursor.get_u32() as usize,
            confidence: cursor.get_f32(),
            ops: OpCount {
                macs: cursor.get_u64(),
                adds: cursor.get_u64(),
                compares: cursor.get_u64(),
                activations: cursor.get_u64(),
                mem_reads: cursor.get_u64(),
                mem_writes: cursor.get_u64(),
            },
            stages_activated: cursor.get_u64(),
            exited_early: cursor.get_u8() != 0,
        };
        if cursor.remaining() != 0 {
            return Err(malformed("trailing bytes after output payload"));
        }
        Ok((id, Ok(output)))
    } else {
        let code = ErrorCode::from_status(status)
            .ok_or_else(|| malformed(format!("unknown status byte {status}")))?;
        need(&cursor, 2, "error-message length")?;
        let msg_len = cursor.get_u16() as usize;
        need(&cursor, msg_len, "error message")?;
        let mut msg = vec![0u8; msg_len];
        cursor.copy_to_slice(&mut msg);
        if cursor.remaining() != 0 {
            return Err(malformed("trailing bytes after error message"));
        }
        let message =
            String::from_utf8(msg).map_err(|_| malformed("error message is not valid UTF-8"))?;
        Ok((id, Err(ErrorReply { code, message })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/frames");

    /// The request of golden frame `flags`: each of the six flag bits sets
    /// its field, with edge values where a field has them.
    fn golden_request(flags: u8) -> (u64, SubmitOptions, Option<TraceId>) {
        let bit = |b: u8| flags & (1 << b) != 0;
        let options = SubmitOptions {
            delta: bit(0).then_some(0.35),
            max_stage: bit(1).then_some(u32::MAX as usize),
            deadline: bit(3).then_some(Duration::from_nanos(u64::MAX)),
            priority: if bit(4) {
                Priority::Low
            } else {
                Priority::High
            },
            tenant: bit(5).then_some(0xA5A5_0001),
        };
        let trace = bit(2).then(|| TraceId::from_raw(0x0123_4567_89AB_CDEF).unwrap());
        (0x0102_0304_0506_0700 | u64::from(flags), options, trace)
    }

    /// Every golden request carries this tensor: a NaN with a payload, −0.0,
    /// a subnormal and a plain value.
    fn golden_tensor() -> Tensor {
        let data = vec![f32::from_bits(0x7FC0_0001), -0.0, f32::from_bits(1), 1.5];
        Tensor::from_vec(data, &[1, 2, 2]).unwrap()
    }

    fn output_fixture() -> CdlOutput {
        CdlOutput {
            label: 7,
            exit_stage: 1,
            confidence: 0.625,
            ops: OpCount {
                macs: 1,
                adds: 2,
                compares: 3,
                activations: 4,
                mem_reads: 5,
                mem_writes: 6,
            },
            stages_activated: 2,
            exited_early: true,
        }
    }

    /// The reply of golden frame `status`: the OK output, or that error
    /// code with its name as the message.
    fn golden_reply(status: u8) -> Reply {
        let result = match ErrorCode::from_status(status) {
            None => Ok(output_fixture()),
            Some(code) => Err(ErrorReply {
                code,
                message: code.to_string(),
            }),
        };
        (0x0A0B_0C0D_0000_0000 | u64::from(status), result)
    }

    /// Every golden frame: its file name and its bytes as this codec writes
    /// them — one request per combination of the six flag bits, the OK reply
    /// and one reply per error code.
    fn golden_frames() -> Vec<(String, Vec<u8>)> {
        let tensor = tensor_payload(&golden_tensor());
        let requests = (0..64u8).map(|flags| {
            let (id, options, trace) = golden_request(flags);
            let mut frame = Vec::new();
            encode_request(&mut frame, id, "MNIST_2C", &options, trace, &tensor).unwrap();
            (format!("request_{flags:02x}.bin"), frame)
        });
        let replies = (0..=10).map(|status| {
            let (id, result) = golden_reply(status);
            let mut frame = Vec::new();
            encode_response(&mut frame, id, &result).unwrap();
            (format!("response_{status:02}.bin"), frame)
        });
        requests.chain(replies).collect()
    }

    /// The one frame in `frame`, split by the splitter the edge and the
    /// client use.
    fn one_frame(frame: &[u8]) -> &[u8] {
        let body = next_frame(frame, MAX_FRAME as usize).unwrap().unwrap();
        assert_eq!(4 + body.len(), frame.len(), "exactly one frame");
        body
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    fn option_bits(o: &SubmitOptions) -> impl PartialEq + std::fmt::Debug {
        (
            o.delta.map(f32::to_bits),
            o.max_stage,
            o.deadline,
            o.priority,
            o.tenant,
        )
    }

    /// Writes `tests/golden/frames/`: `cargo test -p cdl-serve --lib --
    /// --ignored regenerate_golden_frames`. A diff there is a change of the
    /// wire format.
    #[test]
    #[ignore = "writes tests/golden/frames/"]
    fn regenerate_golden_frames() {
        std::fs::create_dir_all(GOLDEN).unwrap();
        for (name, frame) in golden_frames() {
            std::fs::write(format!("{GOLDEN}/{name}"), frame).unwrap();
        }
    }

    /// Both directions against the committed bytes: encoding each fixture
    /// writes its file, and decoding the file gives the fixture back.
    #[test]
    fn the_codec_writes_and_reads_the_golden_frames() {
        let frames = golden_frames();
        assert_eq!(frames.len(), 64 + 11);
        assert_eq!(ErrorCode::from_status(11), None, "ten error codes");
        for (name, frame) in &frames {
            let file = std::fs::read(format!("{GOLDEN}/{name}"))
                .unwrap_or_else(|e| panic!("{name}: {e} (regenerate_golden_frames writes it)"));
            assert_eq!(
                frame, &file,
                "{name}: the encoder moved off the committed bytes"
            );
        }
        let file = |name: String| std::fs::read(format!("{GOLDEN}/{name}")).unwrap();
        for flags in 0..64u8 {
            let frame = file(format!("request_{flags:02x}.bin"));
            let decoded = decode_request(one_frame(&frame)).unwrap();
            let (id, options, trace) = golden_request(flags);
            assert_eq!((decoded.id, decoded.model), (id, "MNIST_2C"));
            assert_eq!(option_bits(&decoded.request.options), option_bits(&options));
            assert_eq!(decoded.request.trace, trace);
            assert_eq!(decoded.request.input.dims(), golden_tensor().dims());
            assert_eq!(bits(&decoded.request.input), bits(&golden_tensor()));
        }
        for status in 0..=10 {
            let frame = file(format!("response_{status:02}.bin"));
            assert_eq!(frame[4 + 8], status, "ErrorCode::ALL is in status order");
            assert_eq!(
                decode_response(one_frame(&frame)).unwrap(),
                golden_reply(status)
            );
        }
        // what the edge reserves per request in flight
        assert_eq!(OK_REPLY, file("response_00.bin".into()).len());
    }

    /// A message over u16::MAX bytes is cut at the last character boundary
    /// at or below it, never inside a character: `x` and 21 845 × `€` (3
    /// bytes each) is 65 536 bytes, and byte 65 535 falls mid-character.
    #[test]
    fn an_overlong_multibyte_error_message_is_cut_on_a_character_boundary() {
        let reply = ErrorReply {
            code: ErrorCode::UnknownModel,
            message: format!("x{}", "€".repeat(21_845)),
        };
        let mut frame = Vec::new();
        encode_response(&mut frame, 11, &Err(reply)).unwrap();
        let body = one_frame(&frame);
        assert!(body.len() <= MAX_RESPONSE);
        let (id, result) = decode_response(body).unwrap();
        assert_eq!(id, 11);
        let got = result.unwrap_err();
        assert_eq!(got.code, ErrorCode::UnknownModel);
        assert_eq!(got.message, format!("x{}", "€".repeat(21_844)));
    }

    #[test]
    fn an_encode_error_leaves_the_output_as_it_was() {
        let tensor = tensor_payload(&Tensor::from_vec(vec![0.5], &[1]).unwrap());
        let default = SubmitOptions::default();
        let mut out = Vec::new();
        encode_request(&mut out, 1, "m", &default, None, &tensor).unwrap();
        let before = out.clone();
        // fails mid-body: the id, name, flags and δ are already written when
        // the stage cap turns out too wide for the wire
        let options = SubmitOptions {
            delta: Some(0.5),
            max_stage: Some(usize::MAX),
            ..SubmitOptions::default()
        };
        assert!(encode_request(&mut out, 2, "m", &options, None, &tensor).is_err());
        assert_eq!(out, before);
        // fails after the whole body is written: it exceeds MAX_FRAME
        let oversized = tensor_payload(&Tensor::zeros(&[MAX_FRAME as usize / 4]));
        assert!(encode_request(&mut out, 3, "m", &default, None, &oversized).is_err());
        assert_eq!(out, before);
        // the response side: a label too wide for the wire
        let wide = CdlOutput {
            label: usize::MAX,
            ..output_fixture()
        };
        assert!(encode_response(&mut out, 4, &Ok(wide)).is_err());
        assert_eq!(out, before);
        // and the buffer goes on taking frames where the good one ended
        encode_response(&mut out, 5, &Ok(output_fixture())).unwrap();
        let (id, result) = decode_response(one_frame(&out[before.len()..])).unwrap();
        assert_eq!((id, result.unwrap()), (5, output_fixture()));
    }

    /// Bodies a truncation or an extension does not make: each patched into
    /// a golden frame at the byte the layout puts the field.
    #[test]
    fn decode_rejects_values_the_format_reserves() {
        let golden = |flags: u8| golden_frames().swap_remove(usize::from(flags)).1;
        let flags_at = 4 + 8 + 2 + "MNIST_2C".len();
        // a zero trace id: zero is the wire's "no trace"
        let mut frame = golden(FLAG_TRACE);
        frame[flags_at + 1..flags_at + 9].fill(0);
        assert!(decode_request(one_frame(&frame)).is_err());
        // a priority class past Low
        let mut frame = golden(FLAG_PRIORITY);
        assert_eq!(frame[flags_at + 1], Priority::Low.class() as u8);
        frame[flags_at + 1] = 3;
        assert!(decode_request(one_frame(&frame)).is_err());
        // an unknown option flag (forward compatibility is explicit)
        let mut frame = golden(0);
        frame[flags_at] = 0x80;
        assert!(decode_request(one_frame(&frame)).is_err());
        // a dim product past the frame cap, rejected before any allocation
        let mut frame = golden(0);
        frame[flags_at + 2..flags_at + 6].fill(0xFF);
        frame[flags_at + 6..flags_at + 10].fill(0xFF);
        assert!(decode_request(one_frame(&frame)).is_err());
        // an unknown status byte
        let mut frame = golden_frames().pop().unwrap().1;
        frame[4 + 8] = 99;
        assert!(decode_response(one_frame(&frame)).is_err());
    }

    /// An f32 drawn to hit the patterns a lossy codec would not carry: NaNs
    /// with payloads, −0.0 and subnormals, besides any bit pattern.
    fn edge_f32() -> impl Strategy<Value = f32> {
        (0u8..6, 0..u32::MAX).prop_map(|(kind, raw)| {
            let fraction = raw % 0x007F_FFFF; // 0..=0x7F_FFFE
            f32::from_bits(match kind {
                0 => raw,
                1 => 0x7F80_0001 + fraction, // NaN, sign clear
                2 => 0xFF80_0001 + fraction, // NaN, sign set
                3 => 0x8000_0000,            // −0.0
                4 => 1 + fraction,           // positive subnormal
                _ => 0x8000_0001 + fraction, // negative subnormal
            })
        })
    }

    fn any_byte() -> impl Strategy<Value = u8> {
        (0u16..256).prop_map(|b| b as u8)
    }

    fn maybe<S: Strategy>(value: S) -> impl Strategy<Value = Option<S::Value>> {
        (0u8..2, value).prop_map(|(some, v)| (some == 1).then_some(v))
    }

    fn any_text(max: usize) -> impl Strategy<Value = String> {
        collection::vec(0u32..0x11_0000, 0..max + 1).prop_map(|c| {
            c.into_iter()
                .map(|c| char::from_u32(c).unwrap_or('€'))
                .collect()
        })
    }

    fn any_options() -> impl Strategy<Value = SubmitOptions> {
        (
            maybe(edge_f32()),
            maybe(0..u32::MAX as usize + 1),
            maybe((0..u64::MAX).prop_map(Duration::from_nanos)),
            0u8..3,
            maybe(0..u32::MAX),
        )
            .prop_map(
                |(delta, max_stage, deadline, class, tenant)| SubmitOptions {
                    delta,
                    max_stage,
                    deadline,
                    priority: Priority::from_class(class).unwrap(),
                    tenant,
                },
            )
    }

    fn any_tensor() -> impl Strategy<Value = Tensor> {
        collection::vec(1usize..5, 1..4).prop_flat_map(|dims| {
            let volume = dims.iter().product::<usize>();
            collection::vec(edge_f32(), volume)
                .prop_map(move |data| Tensor::from_vec(data, &dims).unwrap())
        })
    }

    fn any_reply() -> impl Strategy<Value = Reply> {
        let output = (
            (0..u32::MAX, 0..u32::MAX),
            edge_f32(),
            collection::vec(0..u64::MAX, 7),
            0u8..2,
        )
            .prop_map(|((label, exit_stage), confidence, n, early)| CdlOutput {
                label: label as usize,
                exit_stage: exit_stage as usize,
                confidence,
                ops: OpCount {
                    macs: n[0],
                    adds: n[1],
                    compares: n[2],
                    activations: n[3],
                    mem_reads: n[4],
                    mem_writes: n[5],
                },
                stages_activated: n[6],
                exited_early: early == 1,
            });
        let error = (1u8..11, any_text(8)).prop_map(|(status, message)| ErrorReply {
            code: ErrorCode::from_status(status).unwrap(),
            message,
        });
        (0..u64::MAX, 0u8..2, output, error)
            .prop_map(|(id, ok, output, error)| (id, if ok == 1 { Ok(output) } else { Err(error) }))
    }

    fn request_body(
        id: u64,
        model: &str,
        options: &SubmitOptions,
        trace: Option<TraceId>,
        input: &Tensor,
    ) -> Vec<u8> {
        let mut frame = Vec::new();
        encode_request(
            &mut frame,
            id,
            model,
            options,
            trace,
            &tensor_payload(input),
        )
        .unwrap();
        one_frame(&frame).to_vec()
    }

    fn response_body((id, result): &Reply) -> Vec<u8> {
        let mut frame = Vec::new();
        encode_response(&mut frame, *id, result).unwrap();
        one_frame(&frame).to_vec()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn a_request_round_trips_bit_exactly(
            id in 0..u64::MAX,
            model in any_text(12),
            options in any_options(),
            trace in maybe(1..u64::MAX).prop_map(|t| t.and_then(TraceId::from_raw)),
            input in any_tensor(),
        ) {
            let body = request_body(id, &model, &options, trace, &input);
            let decoded = decode_request(&body).unwrap();
            prop_assert_eq!((decoded.id, decoded.model), (id, model.as_str()));
            prop_assert_eq!(option_bits(&decoded.request.options), option_bits(&options));
            prop_assert_eq!(decoded.request.trace, trace);
            prop_assert_eq!(decoded.request.input.dims(), input.dims());
            prop_assert_eq!(bits(&decoded.request.input), bits(&input));
        }

        #[test]
        fn a_reply_round_trips_bit_exactly(reply in any_reply()) {
            let (id, result) = decode_response(&response_body(&reply)).unwrap();
            prop_assert_eq!(id, reply.0);
            match (result, &reply.1) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(got.confidence.to_bits(), want.confidence.to_bits());
                    let rest = |o: &CdlOutput| CdlOutput { confidence: 0.0, ..o.clone() };
                    prop_assert_eq!(rest(&got), rest(want));
                }
                (got, want) => prop_assert_eq!(&got, want),
            }
        }

        /// Every cut of a valid body and every one-byte extension is an
        /// error, never a panic.
        #[test]
        fn every_truncation_and_extension_is_rejected(
            options in any_options(),
            input in any_tensor(),
            reply in any_reply(),
        ) {
            let request = request_body(1, "m", &options, TraceId::from_raw(9), &input);
            let response = response_body(&reply);
            for cut in 0..request.len() {
                prop_assert!(decode_request(&request[..cut]).is_err(), "request cut at {}", cut);
            }
            for cut in 0..response.len() {
                prop_assert!(decode_response(&response[..cut]).is_err(), "reply cut at {}", cut);
            }
            for byte in 0..=u8::MAX {
                let longer = |body: &[u8]| [body, &[byte]].concat();
                prop_assert!(decode_request(&longer(&request)).is_err());
                prop_assert!(decode_response(&longer(&response)).is_err());
            }
        }

        #[test]
        fn arbitrary_bytes_never_panic_a_decoder(
            bytes in collection::vec(any_byte(), 0..96),
            at in 0..usize::MAX,
            byte in any_byte(),
        ) {
            let _ = decode_request(&bytes);
            let _ = decode_response(&bytes);
            let _ = next_frame(&bytes, MAX_RESPONSE);
            // and a valid body with one byte replaced, which gets further in
            let mut request = request_body(1, "m", &SubmitOptions::default(), None, &golden_tensor());
            let i = at % request.len();
            request[i] = byte;
            let _ = decode_request(&request);
        }

        /// The splitter, fed three frames in two reads cut at every byte
        /// offset, hands out the same three bodies.
        #[test]
        fn the_splitter_reassembles_frames_cut_anywhere(
            bodies in collection::vec(collection::vec(any_byte(), 1..40), 3),
        ) {
            let mut stream = Vec::new();
            for body in &bodies {
                framed(&mut stream, |out| {
                    out.extend_from_slice(body);
                    Ok(())
                })
                .unwrap();
            }
            for cut in 0..=stream.len() {
                let (mut buf, mut got) = (Vec::new(), Vec::new());
                for read in [&stream[..cut], &stream[cut..]] {
                    buf.extend_from_slice(read);
                    while let Some(body) = next_frame(&buf, MAX_RESPONSE).unwrap() {
                        got.push(body.to_vec());
                        buf.drain(..4 + body.len());
                    }
                }
                prop_assert_eq!(&got, &bodies, "cut at {}", cut);
                prop_assert!(buf.is_empty());
            }
        }
    }
}
