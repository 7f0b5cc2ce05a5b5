package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The end-to-end times are read on the kernel's CPU clocks rather than
// the wall clock. The benchmark runs on virtual CPUs of a shared host,
// and in spells that last minutes the hypervisor takes a fifth of their
// time away (the steal column of /proc/stat); the wall clock counts
// that time, and a run's figures then measure the neighbours. With
// paravirtual steal accounting (CONFIG_PARAVIRT_TIME_ACCOUNTING) the
// CPU clocks leave it out, as they leave out time a thread waited for a
// CPU; on an otherwise idle host they read what the wall clock does
// for work that runs on one thread.

const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	// clock_gettime fails only for an unknown clock or a bad pointer,
	// neither of which these callers can pass.
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time all the process's threads have run.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU is the CPU time the calling OS thread has run; the caller
// holds its goroutine on the thread with runtime.LockOSThread.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }
