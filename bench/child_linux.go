package main

import (
	"syscall"
	"unsafe"
)

// childAttr makes the kernel kill the child if the harness dies without
// running its reaper (SIGKILL, a panic on another goroutine).
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// schedIdle is SCHED_IDLE from <sched.h>: below every nice level, and
// preempted at once by any waking normal thread.
const schedIdle = 5

// lowestPriority moves the calling thread to the SCHED_IDLE class, so it
// runs only when the CPU would otherwise idle.
func lowestPriority() error {
	var param struct{ priority int32 } // struct sched_param; must be 0 for SCHED_IDLE
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
	if errno != 0 {
		return errno
	}
	return nil
}
