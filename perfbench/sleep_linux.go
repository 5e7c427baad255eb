package main

import (
	"syscall"
	"time"
)

// preciseSleep blocks the calling thread in nanosleep. The Go timer
// wakes sleepers on its network poller with millisecond resolution,
// which alone would make the open-loop generator release requests about
// half a millisecond late on average; nanosleep is accurate to tens of
// microseconds.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
