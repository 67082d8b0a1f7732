//! The two system calls the load client needs beyond `std`: a readiness
//! wait with a nanosecond timeout (`ppoll`), and a 1 ns timer slack for
//! the calling thread (`prctl`), so the generator sleeps until its next
//! scheduled send, or until a reply arrives, and wakes on time.
//! `std::thread::sleep` carries the default 50 µs slack, and `poll(2)`
//! takes whole milliseconds.

use std::io;
use std::os::fd::RawFd;

#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Set the calling thread's timer slack to 1 ns.
pub fn tight_timer_slack() -> io::Result<()> {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // touches no memory of ours.
    if unsafe { prctl(PR_SET_TIMERSLACK, 1u64) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Block until one of `fds` is readable (or, where its flag is set,
/// writable), or until `timeout_ns` passes.
pub fn wait(fds: &[(RawFd, bool)], timeout_ns: u64) -> io::Result<()> {
    let mut polls: Vec<PollFd> = fds
        .iter()
        .map(|&(fd, write)| PollFd {
            fd,
            events: POLLIN | if write { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as i64,
        tv_nsec: (timeout_ns % 1_000_000_000) as i64,
    };
    // SAFETY: the pointer/length pair is exactly `polls`, live `repr(C)`
    // pollfds of which ppoll writes only `revents`; `ts` outlives the
    // call; a null signal mask leaves the mask unchanged.
    let n = unsafe {
        ppoll(
            polls.as_mut_ptr(),
            polls.len() as u64,
            &ts,
            std::ptr::null(),
        )
    };
    if n < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}
