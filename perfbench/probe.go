package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host-speed probe. On a shared VM a core's speed moves with its
// neighbours' load (turbo frequency, a busy sibling hyperthread): on a
// 2-vCPU Intel Xeon VM the same report took 15–20 % more CPU time in one
// run than in another a minute later, with no CPU steal in either. The
// benchmark therefore runs a fixed compute kernel on every core between
// operations and scales its CPU timings by the kernel's reference time
// over its measured time, so the gated timings read as CPU time at the
// reference core speed. The kernel stays in the core's own caches, so
// the program's memory and cache use cannot move it.

// probeRef is the kernel's CPU time on the reference 2-vCPU Intel Xeon VM
// on a quiet host.
const probeRef = 1550 * time.Microsecond

// probeEvery is the least wall time between two probes in a window.
const probeEvery = 100 * time.Millisecond

// probeKernel is integer hashing with dependent read-modify-writes over a
// 32 KiB table private to the calling goroutine.
func probeKernel() uint32 {
	var table [8192]uint32
	x := uint64(0x9e3779b97f4a7c15)
	var acc uint32
	for i := 0; i < 1<<17; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (uint32(x) ^ acc) & (uint32(len(table)) - 1)
		acc = acc*31 + table[j] + uint32(i)
		table[j] = acc
		if acc&1 == 0 {
			acc ^= uint32(x >> 32)
		}
	}
	return acc
}

// probeSink keeps the kernel's result live.
var probeSink uint32

// probeHost runs the kernel once on every core at the same time, each on
// its own locked thread, and returns the mean thread CPU time it took.
func probeHost() time.Duration {
	n := runtime.GOMAXPROCS(0)
	var mu sync.Mutex
	var total time.Duration
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPU()
			v := probeKernel()
			d := threadCPU() - t0
			mu.Lock()
			total += d
			probeSink ^= v
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total / time.Duration(n)
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// atReferenceSpeed scales a CPU time measured while the probe read probes
// to the reference core speed, in seconds.
func atReferenceSpeed(cpu time.Duration, probes ...time.Duration) float64 {
	var sum time.Duration
	for _, p := range probes {
		sum += p
	}
	if sum <= 0 {
		return cpu.Seconds()
	}
	return cpu.Seconds() * float64(probeRef) * float64(len(probes)) / float64(sum)
}
