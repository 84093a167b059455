//! Readiness sources for the event loop.
//!
//! On Linux x86-64 and aarch64, [`Poller`] is a zero-dependency `epoll`
//! reactor: readiness notification via direct Linux syscalls, no `libc`,
//! no `mio`. The whole workspace is std-only, and std exposes no
//! readiness API — so this module makes the four syscalls the event loop
//! needs (`epoll_create1`, `epoll_ctl`, `epoll_pwait`, `close`) through
//! inline assembly, the same way std's own `syscall!` shims do. Only the
//! Linux kernel ABI is depended on, which is stable by contract.
//!
//! Everywhere else, [`Poller`] is the std-only `ScanPoller`: after a
//! short sleep it reports every registration ready for its whole
//! interest set. That is sound because the event loop already treats a
//! `WouldBlock` read or write as "not ready", so a spurious report costs
//! one failed syscall and nothing else. The scan poller is also compiled
//! under `cfg(test)`, so its unit tests run on Linux too.
//!
//! Registration uses the classic readiness model (level-triggered for
//! writes is avoided by only subscribing to `EPOLLOUT` while a
//! connection has buffered output): each connection is registered with
//! a `u64` token the caller chooses, and `wait` returns
//! `(token, readiness)` pairs.

use std::io;

/// Readiness: the socket has bytes to read (or a peer hangup to observe).
pub const EPOLLIN: u32 = 0x1;
/// Readiness: the socket can accept more written bytes.
pub const EPOLLOUT: u32 = 0x4;
/// Error condition on the fd (always reported, no need to subscribe).
pub const EPOLLERR: u32 = 0x8;
/// Peer hung up (always reported, no need to subscribe).
pub const EPOLLHUP: u32 = 0x10;
/// Peer shut down its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0x8_0000;

/// The kernel's `struct epoll_event`. On x86_64 the kernel declares it
/// packed (no padding between the 32-bit mask and the 64-bit data);
/// elsewhere it uses natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy, Default)]
pub struct EpollEvent {
    /// Readiness mask (`EPOLLIN | ...`).
    pub events: u32,
    /// Caller-chosen token identifying the registered fd.
    pub data: u64,
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    //! x86_64 syscall ABI: number in `rax`, args in `rdi`/`rsi`/`rdx`/
    //! `r10`, return in `rax`; the `syscall` instruction clobbers `rcx`
    //! and `r11`.
    pub const SYS_CLOSE: usize = 3;
    pub const SYS_EPOLL_CTL: usize = 233;
    pub const SYS_EPOLL_PWAIT: usize = 281;
    pub const SYS_EPOLL_CREATE1: usize = 291;

    pub unsafe fn syscall4(nr: usize, a: usize, b: usize, c: usize, d: usize) -> isize {
        let ret: isize;
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") nr as isize => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                in("r10") d,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    pub unsafe fn syscall6(
        nr: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") nr as isize => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                in("r10") d,
                in("r8") e,
                in("r9") f,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod sys {
    //! aarch64 syscall ABI: number in `x8`, args in `x0`-`x5`, return in
    //! `x0`, entered via `svc 0`.
    pub const SYS_EPOLL_CREATE1: usize = 20;
    pub const SYS_EPOLL_CTL: usize = 21;
    pub const SYS_EPOLL_PWAIT: usize = 22;
    pub const SYS_CLOSE: usize = 57;

    pub unsafe fn syscall4(nr: usize, a: usize, b: usize, c: usize, d: usize) -> isize {
        unsafe { syscall6(nr, a, b, c, d, 0, 0) }
    }

    pub unsafe fn syscall6(
        nr: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") nr,
                inlateout("x0") a => ret,
                in("x1") b,
                in("x2") c,
                in("x3") d,
                in("x4") e,
                in("x5") f,
                options(nostack),
            );
        }
        ret
    }
}

/// Turn a raw syscall return into `Ok(value)` or an `io::Error` built
/// from the `-errno` encoding.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
fn check(ret: isize) -> io::Result<isize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret)
    }
}

/// An `epoll` instance: register fds with tokens, wait for readiness.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
#[derive(Debug)]
pub struct Poller {
    epfd: i32,
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
impl Poller {
    /// A fresh `epoll` instance (`EPOLL_CLOEXEC`).
    ///
    /// # Errors
    ///
    /// The kernel's `epoll_create1` errno as an [`io::Error`].
    pub fn new() -> io::Result<Self> {
        let ret = unsafe {
            sys::syscall4(sys::SYS_EPOLL_CREATE1, EPOLL_CLOEXEC as usize, 0, 0, 0)
        };
        check(ret).map(|fd| Poller { epfd: fd as i32 })
    }

    fn ctl(&self, op: i32, fd: i32, interest: u32, token: u64) -> io::Result<()> {
        let event = EpollEvent { events: interest, data: token };
        let ptr = if op == EPOLL_CTL_DEL { 0 } else { std::ptr::from_ref(&event) as usize };
        let ret = unsafe {
            sys::syscall4(sys::SYS_EPOLL_CTL, self.epfd as usize, op as usize, fd as usize, ptr)
        };
        check(ret).map(|_| ())
    }

    /// Register `fd` for `interest`, delivering `token` on readiness.
    ///
    /// # Errors
    ///
    /// The kernel's `epoll_ctl` errno as an [`io::Error`].
    pub fn add(&self, fd: i32, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Change the interest set for an already registered `fd`.
    ///
    /// # Errors
    ///
    /// The kernel's `epoll_ctl` errno as an [`io::Error`].
    pub fn modify(&self, fd: i32, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregister `fd`. Harmless to call for an fd the kernel already
    /// dropped from the set (closing an fd deregisters it implicitly).
    ///
    /// # Errors
    ///
    /// The kernel's `epoll_ctl` errno as an [`io::Error`], except
    /// `ENOENT`/`EBADF`, which are swallowed: the common teardown races.
    pub fn delete(&self, fd: i32) -> io::Result<()> {
        match self.ctl(EPOLL_CTL_DEL, fd, 0, 0) {
            Err(e) if matches!(e.raw_os_error(), Some(2 /* ENOENT */) | Some(9 /* EBADF */)) => {
                Ok(())
            }
            other => other,
        }
    }

    /// Block until readiness or `timeout_ms` (-1 = forever), filling
    /// `events` and returning how many entries are valid. `EINTR` is
    /// reported as zero events, not an error — the loop just re-polls.
    ///
    /// # Errors
    ///
    /// The kernel's `epoll_pwait` errno as an [`io::Error`].
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        if events.is_empty() {
            return Ok(0);
        }
        let ret = unsafe {
            sys::syscall6(
                sys::SYS_EPOLL_PWAIT,
                self.epfd as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as usize,
                0, // sigmask: NULL — signal handling stays with std
                8, // sigsetsize expected by the kernel even for NULL
            )
        };
        match check(ret) {
            Ok(n) => Ok(n as usize),
            Err(e) if e.raw_os_error() == Some(4 /* EINTR */) => Ok(0),
            Err(e) => Err(e),
        }
    }
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            let _ = sys::syscall4(sys::SYS_CLOSE, self.epfd as usize, 0, 0, 0);
        }
    }
}

/// The readiness source on targets without `epoll`.
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
pub use ScanPoller as Poller;

/// One registered fd: its interest set and the token to report.
#[cfg(any(test, not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))))]
#[derive(Debug, Clone, Copy)]
struct Registration {
    fd: i32,
    interest: u32,
    token: u64,
}

/// A std-only poller with the [`Poller`] interface: `wait` sleeps at
/// most 1 ms, then reports every registration ready for its whole
/// interest set. When more fds are registered than the event buffer
/// holds, successive waits rotate through them, so none starves.
#[cfg(any(test, not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))))]
#[derive(Debug, Default)]
pub struct ScanPoller {
    registrations: std::cell::RefCell<Vec<Registration>>,
    /// Where the next `wait` starts reporting.
    cursor: std::cell::Cell<usize>,
}

#[cfg(any(test, not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))))]
impl ScanPoller {
    /// An empty poller.
    ///
    /// # Errors
    ///
    /// Never; the signature matches the `epoll` poller's.
    pub fn new() -> io::Result<Self> {
        Ok(ScanPoller::default())
    }

    /// Register `fd` for `interest`, delivering `token` on every wait.
    ///
    /// # Errors
    ///
    /// `AlreadyExists` when `fd` is already registered.
    pub fn add(&self, fd: i32, interest: u32, token: u64) -> io::Result<()> {
        let mut registrations = self.registrations.borrow_mut();
        if registrations.iter().any(|r| r.fd == fd) {
            return Err(io::Error::from(io::ErrorKind::AlreadyExists));
        }
        registrations.push(Registration { fd, interest, token });
        Ok(())
    }

    /// Change the interest set and token of an already registered `fd`.
    ///
    /// # Errors
    ///
    /// `NotFound` when `fd` is not registered.
    pub fn modify(&self, fd: i32, interest: u32, token: u64) -> io::Result<()> {
        let mut registrations = self.registrations.borrow_mut();
        let r = registrations
            .iter_mut()
            .find(|r| r.fd == fd)
            .ok_or_else(|| io::Error::from(io::ErrorKind::NotFound))?;
        *r = Registration { fd, interest, token };
        Ok(())
    }

    /// Deregister `fd`; deregistering an unknown fd is a no-op, as for
    /// the `epoll` poller.
    ///
    /// # Errors
    ///
    /// Never.
    pub fn delete(&self, fd: i32) -> io::Result<()> {
        self.registrations.borrow_mut().retain(|r| r.fd != fd);
        Ok(())
    }

    /// Sleep 1 ms (none when `timeout_ms` is 0), then fill `events` with
    /// registrations, each reported ready for its interest set.
    ///
    /// # Errors
    ///
    /// Never.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        if events.is_empty() {
            return Ok(0);
        }
        if timeout_ms != 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let registrations = self.registrations.borrow();
        let total = registrations.len();
        if total == 0 {
            return Ok(0);
        }
        let start = self.cursor.get() % total;
        let n = total.min(events.len());
        let ready = registrations.iter().cycle().skip(start).take(n);
        for (slot, r) in events.iter_mut().zip(ready) {
            *slot = EpollEvent { events: r.interest, data: r.token };
        }
        self.cursor.set((start + n) % total);
        Ok(n)
    }
}

#[cfg(test)]
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readable_pipe_end_is_reported_with_its_token() {
        let poller = Poller::new().unwrap();
        let (mut tx, rx) = UnixStream::pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        poller.add(rx.as_raw_fd(), EPOLLIN, 0xfeed).unwrap();

        // Nothing buffered yet: a short wait times out empty.
        let mut events = [EpollEvent::default(); 8];
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);

        tx.write_all(b"x").unwrap();
        let n = poller.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (token, mask) = (events[0].data, events[0].events);
        assert_eq!(token, 0xfeed);
        assert_ne!(mask & EPOLLIN, 0);
    }

    #[test]
    fn modify_switches_interest_and_delete_unregisters() {
        let poller = Poller::new().unwrap();
        let (tx, rx) = UnixStream::pair().unwrap();
        tx.set_nonblocking(true).unwrap();
        poller.add(tx.as_raw_fd(), EPOLLIN, 1).unwrap();
        // An idle socket with write interest is immediately writable.
        poller.modify(tx.as_raw_fd(), EPOLLIN | EPOLLOUT, 2).unwrap();
        let mut events = [EpollEvent::default(); 8];
        let n = poller.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (token, mask) = (events[0].data, events[0].events);
        assert_eq!(token, 2);
        assert_ne!(mask & EPOLLOUT, 0);
        poller.delete(tx.as_raw_fd()).unwrap();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
        // Deleting twice (or after close) is tolerated.
        poller.delete(tx.as_raw_fd()).unwrap();
        drop(rx);
    }

    #[test]
    fn hangup_is_always_delivered() {
        let poller = Poller::new().unwrap();
        let (tx, rx) = UnixStream::pair().unwrap();
        poller.add(rx.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 7).unwrap();
        drop(tx);
        let mut events = [EpollEvent::default(); 8];
        let n = poller.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_ne!(events[0].events & (EPOLLHUP | EPOLLRDHUP | EPOLLIN), 0);
    }

    #[test]
    fn zero_capacity_event_buffers_are_a_no_op() {
        let poller = Poller::new().unwrap();
        assert_eq!(poller.wait(&mut [], 0).unwrap(), 0);
    }
}

#[cfg(test)]
mod scan_tests {
    use super::*;

    fn tokens(events: &[EpollEvent]) -> Vec<u64> {
        events.iter().map(|e| e.data).collect()
    }

    #[test]
    fn every_registration_is_reported_for_its_interest_set() {
        let poller = ScanPoller::new().unwrap();
        poller.add(3, EPOLLIN, 10).unwrap();
        poller.add(4, EPOLLIN | EPOLLOUT, 11).unwrap();
        assert_eq!(
            poller.add(4, EPOLLIN, 12).unwrap_err().kind(),
            io::ErrorKind::AlreadyExists
        );
        let mut events = [EpollEvent::default(); 8];
        let n = poller.wait(&mut events, 0).unwrap();
        assert_eq!(tokens(&events[..n]), [10, 11]);
        let masks: Vec<u32> = events[..n].iter().map(|e| e.events).collect();
        assert_eq!(masks, [EPOLLIN, EPOLLIN | EPOLLOUT]);
    }

    #[test]
    fn modify_switches_interest_and_delete_unregisters() {
        let poller = ScanPoller::new().unwrap();
        poller.add(3, EPOLLIN, 1).unwrap();
        poller.modify(3, EPOLLIN | EPOLLOUT, 2).unwrap();
        assert_eq!(poller.modify(9, EPOLLIN, 9).unwrap_err().kind(), io::ErrorKind::NotFound);
        let mut events = [EpollEvent::default(); 8];
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 1);
        let (token, mask) = (events[0].data, events[0].events);
        assert_eq!((token, mask), (2, EPOLLIN | EPOLLOUT));
        poller.delete(3).unwrap();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
        // Deleting twice is tolerated, as for epoll.
        poller.delete(3).unwrap();
    }

    #[test]
    fn waits_rotate_past_a_full_event_buffer() {
        let poller = ScanPoller::new().unwrap();
        for fd in 0..5 {
            poller.add(fd, EPOLLIN, fd as u64).unwrap();
        }
        let mut events = [EpollEvent::default(); 2];
        let mut seen = Vec::new();
        for _ in 0..3 {
            let n = poller.wait(&mut events, 0).unwrap();
            assert_eq!(n, 2);
            seen.extend(tokens(&events));
        }
        assert_eq!(seen, [0, 1, 2, 3, 4, 0]);
    }

    #[test]
    fn a_wait_sleeps_briefly_not_for_its_timeout() {
        let poller = ScanPoller::new().unwrap();
        poller.add(3, EPOLLIN, 7).unwrap();
        let mut events = [EpollEvent::default(); 4];
        let started = std::time::Instant::now();
        assert_eq!(poller.wait(&mut events, 10_000).unwrap(), 1);
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(poller.wait(&mut [], 0).unwrap(), 0);
    }
}
