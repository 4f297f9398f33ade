//! One nonblocking client connection speaking wire v2 through the public
//! codec: `encode_request_tagged` + `write_frame` out, `FrameBuffer` +
//! `decode_event` in.

use divot_fleet::wire::{decode_event, encode_request_tagged, write_frame, FrameBuffer};
use divot_fleet::{FleetError, Request, Response, WireEvent};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};

/// A decoded reply: the tag the request carried and its outcome.
pub type Reply = (u64, Result<Response, FleetError>);

/// The sending half: frames are staged in a buffer and flushed with as
/// few writes as the socket allows.
#[derive(Debug)]
pub struct Sender {
    stream: TcpStream,
    wbuf: Vec<u8>,
    wstart: usize,
}

impl Sender {
    /// Stage one tagged request.
    pub fn queue(&mut self, id: u64, request: &Request) {
        self.queue_payload(&encode_request_tagged(id, request, None));
    }

    /// Stage one already encoded request payload.
    pub fn queue_payload(&mut self, payload: &[u8]) {
        write_frame(&mut self.wbuf, payload).expect("request frames stay below MAX_FRAME");
    }

    /// Write every staged byte, yielding briefly while the socket pushes
    /// back.
    pub fn flush_all(&mut self) -> std::io::Result<()> {
        while self.wstart < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wstart..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.wstart += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_micros(20));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.wbuf.clear();
        self.wstart = 0;
        Ok(())
    }
}

/// The receiving half: reads until the socket is drained and decodes
/// every complete frame.
#[derive(Debug)]
pub struct Receiver {
    stream: TcpStream,
    frames: FrameBuffer,
    chunk: Vec<u8>,
}

impl Receiver {
    /// The descriptor to register with a poller.
    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Drain readable bytes and append every decoded reply to `out`.
    ///
    /// # Errors
    ///
    /// A closed or broken socket, an unframeable stream, or a frame that
    /// is not a tagged reply.
    pub fn read_replies(&mut self, out: &mut Vec<Reply>) -> Result<(), String> {
        loop {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.frames.extend(&self.chunk[..n]);
                    if n < self.chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        while let Some(frame) = self.frames.next_frame().map_err(|e| e.to_string())? {
            out.push(decode_reply(&frame)?);
        }
        Ok(())
    }

    /// Switch the socket (both halves) between blocking and nonblocking
    /// mode: the serial layer walk blocks in `read`, the load loops poll.
    pub fn set_blocking(&self, blocking: bool) -> std::io::Result<()> {
        self.stream.set_nonblocking(!blocking)
    }

    /// Return the next complete frame, reading as needed (blocking mode).
    pub fn wait_frame(&mut self) -> Result<Vec<u8>, String> {
        loop {
            if let Some(frame) = self.frames.next_frame().map_err(|e| e.to_string())? {
                return Ok(frame);
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.frames.extend(&self.chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

/// Decode one server frame as a tagged reply.
pub fn decode_reply(frame: &[u8]) -> Result<Reply, String> {
    match decode_event(frame) {
        Ok(WireEvent::Reply { id, outcome }) => Ok((id, *outcome)),
        Ok(other) => Err(format!("unexpected event {other:?}")),
        Err(e) => Err(format!("undecodable frame: {e}")),
    }
}

/// Open a nonblocking, no-delay connection split into its two halves.
pub fn connect(addr: SocketAddr) -> std::io::Result<(Sender, Receiver)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let write_half = stream.try_clone()?;
    Ok((
        Sender {
            stream: write_half,
            wbuf: Vec::new(),
            wstart: 0,
        },
        Receiver {
            stream,
            frames: FrameBuffer::new(),
            chunk: vec![0; 64 << 10],
        },
    ))
}
