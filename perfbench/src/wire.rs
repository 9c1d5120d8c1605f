//! The two ways the generator reaches the system: framed TCP to a
//! `serve` process, or the in-process `Client` of a `Service`.

use crate::inputs::{status_of, Body, Entry, ReplyView, FRAME_ID_AT};
use ibcf_service::codec::K_FACTOR_REPLY;
use ibcf_service::{Client, FactorReply, ReplySink};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::time::Duration;

/// A request/reply channel the generator drives.
pub trait Transport {
    /// Queues one request (sent at the latest on [`Transport::flush`]).
    fn send(&mut self, id: u64, e: &Entry) -> io::Result<()>;
    fn flush(&mut self) -> io::Result<()>;
    /// Delivers the replies available now; waits up to `timeout` when
    /// there are none. Returns how many arrived.
    fn poll(
        &mut self,
        timeout: Duration,
        on_reply: &mut dyn FnMut(&ReplyView<'_>),
    ) -> io::Result<usize>;
}

const RX_CAP: usize = 4 << 20;
const TX_FLUSH: usize = 256 << 10;

/// Framed TCP to a server (single `serve` process or a fleet router).
pub struct TcpTransport {
    stream: TcpStream,
    tx: Vec<u8>,
    rx: Vec<u8>,
    lo: usize,
    hi: usize,
}

impl TcpTransport {
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpTransport {
            stream,
            tx: Vec::with_capacity(TX_FLUSH * 2),
            rx: vec![0; RX_CAP],
            lo: 0,
            hi: 0,
        })
    }

    fn readable_within(&mut self, t: Duration) -> io::Result<bool> {
        use std::os::fd::AsRawFd;
        crate::sys::wait_readable(self.stream.as_raw_fd(), t)
    }

    /// Hands every complete buffered frame to `on_reply`.
    fn deliver(&mut self, on_reply: &mut dyn FnMut(&ReplyView<'_>)) -> io::Result<usize> {
        let mut count = 0;
        while self.hi - self.lo >= 4 {
            let len =
                u32::from_le_bytes(self.rx[self.lo..self.lo + 4].try_into().unwrap()) as usize;
            if len == 0 || len + 4 > RX_CAP {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "bad frame length",
                ));
            }
            if self.hi - self.lo < 4 + len {
                break;
            }
            let frame = &self.rx[self.lo + 4..self.lo + 4 + len];
            let (kind, body) = (frame[0], &frame[1..]);
            if kind != K_FACTOR_REPLY || body.len() < 14 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected frame kind {kind}"),
                ));
            }
            on_reply(&ReplyView {
                id: u64::from_le_bytes(body[0..8].try_into().unwrap()),
                status: body[8],
                aux: u32::from_le_bytes(body[10..14].try_into().unwrap()),
                body: Body::Wire(body),
            });
            self.lo += 4 + len;
            count += 1;
        }
        if self.lo == self.hi {
            self.lo = 0;
            self.hi = 0;
        } else if self.lo > RX_CAP / 2 {
            self.rx.copy_within(self.lo..self.hi, 0);
            self.hi -= self.lo;
            self.lo = 0;
        }
        Ok(count)
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, id: u64, e: &Entry) -> io::Result<()> {
        let at = self.tx.len() + FRAME_ID_AT;
        self.tx.extend_from_slice(&e.frame);
        self.tx[at..at + 8].copy_from_slice(&id.to_le_bytes());
        if self.tx.len() >= TX_FLUSH {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.tx.is_empty() {
            self.stream.write_all(&self.tx)?;
            self.tx.clear();
        }
        Ok(())
    }

    fn poll(
        &mut self,
        timeout: Duration,
        on_reply: &mut dyn FnMut(&ReplyView<'_>),
    ) -> io::Result<usize> {
        let ready = self.deliver(on_reply)?;
        if ready > 0 {
            return Ok(ready);
        }
        if !self.readable_within(timeout)? {
            return Ok(0);
        }
        loop {
            match self.stream.read(&mut self.rx[self.hi..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(got) => {
                    self.hi += got;
                    return self.deliver(on_reply);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(0)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// One TCP connection per generator thread.
pub fn connect_all(addr: &str, conns: u64) -> io::Result<Vec<TcpTransport>> {
    (0..conns).map(|_| TcpTransport::connect(addr)).collect()
}

/// The in-process rung: the same requests through a service `Client`.
pub struct InProcTransport {
    client: Client,
    tx: SyncSender<FactorReply>,
    rx: Receiver<FactorReply>,
}

impl InProcTransport {
    pub fn new(client: Client, window: usize) -> Self {
        let (tx, rx) = sync_channel(window.max(1) * 2);
        InProcTransport { client, tx, rx }
    }
}

impl Transport for InProcTransport {
    fn send(&mut self, id: u64, e: &Entry) -> io::Result<()> {
        let sink = ReplySink::channel(self.tx.clone());
        if e.large {
            self.client
                .submit_large_sink(id, e.n, e.payload.clone(), None, sink);
        } else {
            self.client
                .submit_sink(id, e.n, e.payload.clone(), None, sink, true);
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn poll(
        &mut self,
        timeout: Duration,
        on_reply: &mut dyn FnMut(&ReplyView<'_>),
    ) -> io::Result<usize> {
        let mut count = 0;
        let mut deliver = |r: FactorReply| {
            let (status, aux) = status_of(&r.outcome);
            on_reply(&ReplyView {
                id: r.id,
                status,
                aux,
                body: Body::Local(&r.outcome),
            });
        };
        while let Ok(r) = self.rx.try_recv() {
            deliver(r);
            count += 1;
        }
        if count > 0 {
            return Ok(count);
        }
        match self.rx.recv_timeout(timeout) {
            Ok(r) => {
                deliver(r);
                Ok(1)
            }
            Err(RecvTimeoutError::Timeout) => Ok(0),
            Err(RecvTimeoutError::Disconnected) => Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "reply channel closed",
            )),
        }
    }
}
