package main

import (
	"syscall"
	"time"
)

// processCPU is the CPU time every thread of the process has used. It
// reads getrusage rather than CLOCK_PROCESS_CPUTIME_ID: while the CPU
// profiler's process timer is armed, Linux answers that clock from a
// total it updates only at scheduler ticks, and short spans read as zero.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
