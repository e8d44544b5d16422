//! Stackful-fiber context switching: the primitive under the rank
//! engine.
//!
//! A fiber is an execution context — a stack plus the callee-saved register
//! state the System V ABI requires a function call to preserve. Switching
//! fibers is a plain function call from the compiler's point of view, so
//! only `rsp` and the six callee-saved registers need to move; everything
//! else is dead across a call boundary. The switch itself is ~12
//! instructions and touches one cache line of saved state, which is what
//! makes parking a *rank* (a fiber) cheap enough to do tens of thousands
//! of times where parking a *thread* would involve the kernel.
//!
//! Only `x86_64` is implemented; [`supported`] reports availability, and
//! the engine refuses to start where it is `false`.

/// Is the fiber switch implemented for the current target architecture?
pub fn supported() -> bool {
    cfg!(target_arch = "x86_64")
}

/// A fiber's saved execution context. Everything except the stack pointer
/// lives *on* the fiber's stack (the switch pushes the callee-saved
/// registers before saving `rsp`), so the context itself is one word.
#[repr(C)]
pub(crate) struct Context {
    sp: *mut u8,
}

impl Context {
    /// A placeholder context; overwritten by the first switch that saves
    /// into it.
    pub(crate) fn empty() -> Self {
        Context {
            sp: std::ptr::null_mut(),
        }
    }
}

/// Entry signature for a new fiber. Must never return (returning would
/// fall off the hand-built initial frame); finished fibers switch back to
/// the context that resumed them instead.
pub(crate) type Entry = extern "C" fn(*mut u8) -> !;

#[cfg(target_arch = "x86_64")]
mod imp {
    use super::{Context, Entry};

    // The switch saves the System V callee-saved registers on the current
    // stack, parks `rsp` in `*save`, and resumes from `*load` by popping
    // the same frame in reverse. `ret` then continues wherever the loaded
    // context last called `greenla_fiber_switch` — or, for a fresh fiber,
    // jumps to `greenla_fiber_boot` via the hand-built frame from
    // `prepare`.
    //
    // `greenla_fiber_boot` receives a fresh fiber's entry point in `r14`
    // and its argument in `r15` (planted by `prepare`), realigns the
    // stack, and makes an ordinary ABI-conformant call. The entry function
    // never returns; `ud2` traps if it somehow does.
    std::arch::global_asm!(
        r#"
        .p2align 4
        .globl greenla_fiber_switch
greenla_fiber_switch:
        push rbp
        push rbx
        push r12
        push r13
        push r14
        push r15
        mov [rdi], rsp
        mov rsp, [rsi]
        pop r15
        pop r14
        pop r13
        pop r12
        pop rbx
        pop rbp
        ret

        .p2align 4
        .globl greenla_fiber_boot
greenla_fiber_boot:
        mov rdi, r15
        and rsp, -16
        call r14
        ud2
"#
    );

    extern "C" {
        fn greenla_fiber_switch(save: *mut Context, load: *mut Context);
        // Never called from Rust; only its address is planted in fresh
        // fibers' initial frames.
        fn greenla_fiber_boot();
    }

    /// Save the current context into `*save` and resume `*load`.
    ///
    /// # Safety
    /// `load` must hold a context built by [`prepare`] or saved by a
    /// previous `switch`, whose stack is live and not currently executing
    /// on any thread. `save` must stay valid until something switches back
    /// into it.
    pub(crate) unsafe fn switch(save: *mut Context, load: *mut Context) {
        // SAFETY: the caller upholds the contract above; the asm routine
        // only reads `*load`, writes `*save`, and swaps stacks.
        unsafe { greenla_fiber_switch(save, load) };
    }

    /// Build the initial context for a fresh fiber on the stack ending
    /// (exclusively) at `stack_top`, so that the first switch into it
    /// calls `entry(arg)`.
    ///
    /// # Safety
    /// `stack_top` must point one-past-the-end of a writable stack region
    /// large enough for the fiber's execution.
    pub(crate) unsafe fn prepare(stack_top: *mut u8, entry: Entry, arg: *mut u8) -> Context {
        let top = (stack_top as usize) & !0xF;
        // Frame popped by the first switch in, ascending from `sp`:
        // r15 (arg), r14 (entry), r13, r12, rbx, rbp, return address
        // (greenla_fiber_boot), padding keeping `top` the logical base.
        let frame = (top - 8 * 8) as *mut u64;
        // SAFETY: the caller guarantees a writable stack ending at
        // `stack_top`; all eight slots lie strictly below the (aligned)
        // top, inside that region.
        unsafe {
            frame.add(0).write(arg as u64); // → r15
            frame.add(1).write(entry as usize as u64); // → r14
            for i in 2..6 {
                frame.add(i).write(0); // r13, r12, rbx, rbp
            }
            frame
                .add(6)
                .write(greenla_fiber_boot as *const () as usize as u64);
            frame.add(7).write(0);
        }
        Context {
            sp: frame as *mut u8,
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod imp {
    use super::{Context, Entry};

    /// # Safety
    /// Never dereferences its arguments: this stub exists only so the
    /// crate still compiles on non-x86_64 targets, and it diverges before
    /// touching anything. The signature stays `unsafe` to mirror the real
    /// implementation.
    pub(crate) unsafe fn switch(_save: *mut Context, _load: *mut Context) {
        unreachable!("fiber switching is only implemented on x86_64");
    }

    /// # Safety
    /// Never dereferences its arguments; diverges immediately (see
    /// [`switch`]). `unsafe` only to mirror the x86_64 signature.
    pub(crate) unsafe fn prepare(_stack_top: *mut u8, _entry: Entry, _arg: *mut u8) -> Context {
        panic!(
            "the rank engine requires x86_64 (no fiber switch for this \
             architecture)"
        );
    }
}

pub(crate) use imp::{prepare, switch};

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;

    /// Shared cell a test fiber and its resumer ping-pong through.
    struct PingPong {
        host: Context,
        fiber: Context,
        log: Vec<u32>,
    }

    extern "C" fn pingpong_entry(arg: *mut u8) -> ! {
        // SAFETY: `arg` is the Boxed `PingPong` the test prepared; the
        // host keeps it alive for the whole ping-pong.
        let pp = unsafe { &mut *(arg as *mut PingPong) };
        pp.log.push(1);
        // SAFETY: both contexts were built by `prepare`/saved by `switch`
        // and only one side executes at a time.
        unsafe { switch(&mut pp.fiber, &mut pp.host) };
        // SAFETY: re-borrow after the host ran; same Box, still alive.
        let pp = unsafe { &mut *(arg as *mut PingPong) };
        pp.log.push(3);
        // SAFETY: as above — final yield back to the host.
        unsafe { switch(&mut pp.fiber, &mut pp.host) };
        unreachable!("fiber resumed after its final yield");
    }

    #[test]
    fn switch_round_trips_preserve_control_flow() {
        let mut stack = vec![0u8; 64 * 1024];
        // SAFETY: one-past-the-end of the live Vec allocation.
        let top = unsafe { stack.as_mut_ptr().add(stack.len()) };
        let mut pp = Box::new(PingPong {
            host: Context::empty(),
            fiber: Context::empty(),
            log: Vec::new(),
        });
        let arg = &mut *pp as *mut PingPong as *mut u8;
        // SAFETY: `top` bounds a writable 64 KiB stack owned by this test.
        pp.fiber = unsafe { prepare(top, pingpong_entry, arg) };
        // SAFETY: `fiber` was just prepared; `host` is saved into.
        unsafe { switch(&mut pp.host, &mut pp.fiber) };
        pp.log.push(2);
        // SAFETY: `fiber` parked itself at its first yield; resume it.
        unsafe { switch(&mut pp.host, &mut pp.fiber) };
        pp.log.push(4);
        assert_eq!(pp.log, vec![1, 2, 3, 4]);
    }

    #[test]
    fn many_fibers_interleave_on_one_stack_pool() {
        // Round-robin 8 fibers a few times each; every fiber keeps private
        // state in locals across yields.
        struct Slot {
            host: Context,
            fiber: Context,
            sum: u64,
        }
        extern "C" fn acc_entry(arg: *mut u8) -> ! {
            // SAFETY: `arg` is this fiber's Boxed `Slot`, kept alive by
            // the test for the whole round-robin.
            let s = unsafe { &mut *(arg as *mut Slot) };
            let mut local = 0u64;
            for step in 1..=3u64 {
                local += step;
                s.sum = local;
                // SAFETY: yield back to the host that resumed us.
                unsafe { switch(&mut s.fiber, &mut s.host) };
            }
            // SAFETY: re-borrow after the host ran; same Box, still alive.
            let s = unsafe { &mut *(arg as *mut Slot) };
            loop {
                // SAFETY: park forever; the host stops resuming us.
                unsafe { switch(&mut s.fiber, &mut s.host) };
            }
        }
        const K: usize = 8;
        const STACK: usize = 32 * 1024;
        let mut pool = vec![0u8; K * STACK + 16];
        let base = ((pool.as_mut_ptr() as usize) + 15) & !15;
        let mut slots: Vec<Box<Slot>> = (0..K)
            .map(|_| {
                Box::new(Slot {
                    host: Context::empty(),
                    fiber: Context::empty(),
                    sum: 0,
                })
            })
            .collect();
        for (i, s) in slots.iter_mut().enumerate() {
            let top = (base + (i + 1) * STACK) as *mut u8;
            let arg = &mut **s as *mut Slot as *mut u8;
            // SAFETY: slot `i` owns bytes `[base + i*STACK, top)` of the
            // live pool allocation; stacks do not overlap.
            s.fiber = unsafe { prepare(top, acc_entry, arg) };
        }
        for _round in 0..3 {
            for s in slots.iter_mut() {
                // SAFETY: each fiber is parked (prepared or mid-yield);
                // resume strictly one at a time from the host.
                unsafe { switch(&mut s.host, &mut s.fiber) };
            }
        }
        for s in &slots {
            assert_eq!(s.sum, 1 + 2 + 3);
        }
    }
}
