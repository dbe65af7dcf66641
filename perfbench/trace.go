package main

import (
	"bytes"
	"math/bits"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
	"unsafe"

	"faircc/internal/cc"
	"faircc/internal/net"
)

// onAckSampleMask sets how often a traced run reads the clock around
// OnAck: one call in 16 per flow, so two clock reads are not added to
// every ACK; the mean over the sampled calls is what is reported. The
// times include the cost of one clock read.
const onAckSampleMask = 15

// tracedAlgo wraps one flow's congestion control to count and time the
// calls net makes into it. Each flow's sender side runs on one goroutine,
// so the counters need no synchronization even on a sharded network; they
// are summed after the run.
type tracedAlgo struct {
	cc.Algorithm
	phase    uint64 // sampling offset
	calls    uint64
	timed    uint64
	timedNs  int64
	controls uint64 // Hooks.OnControl firings
}

// newTracedAlgo starts the sampling phase at the flow ID so flows shorter
// than 16 ACKs are sampled too.
func newTracedAlgo(a cc.Algorithm, id int) *tracedAlgo {
	return &tracedAlgo{Algorithm: a, phase: uint64(id)}
}

func (t *tracedAlgo) OnAck(fb cc.Feedback) cc.Control {
	t.calls++
	if (t.calls+t.phase)&onAckSampleMask != 0 {
		return t.Algorithm.OnAck(fb)
	}
	start := time.Now()
	ctl := t.Algorithm.OnAck(fb)
	t.timedNs += int64(time.Since(start))
	t.timed++
	return ctl
}

// countControl is the traced runs' Hooks.OnControl: it fires on the flow's
// sender goroutine, so it counts into that flow's wrapper.
func countControl(f *net.Flow, _ cc.Control) {
	f.Algorithm().(*tracedAlgo).controls++
}

// algoTrace sums the wrappers of one variant run.
type algoTrace struct {
	calls, timed, controls uint64
	timedNs                int64
}

func sumTrace(algos []*tracedAlgo) algoTrace {
	var s algoTrace
	for _, a := range algos {
		s.calls += a.calls
		s.timed += a.timed
		s.timedNs += a.timedNs
		s.controls += a.controls
	}
	return s
}

// nsPerCall is the mean sampled OnAck time, or 0 with no sample.
func (s algoTrace) nsPerCall() float64 {
	if s.timed == 0 {
		return 0
	}
	return float64(s.timedNs) / float64(s.timed)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuMask is a sched_setaffinity CPU set (1024 CPUs).
type cpuMask [16]uint64

func affinity(set bool, m *cpuMask) bool {
	nr := uintptr(syscall.SYS_SCHED_GETAFFINITY)
	if set {
		nr = syscall.SYS_SCHED_SETAFFINITY
	}
	_, _, e := syscall.RawSyscall(nr, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	return e == 0
}

// pinCPU locks the calling goroutine to its thread and the thread to the
// first CPU it may run on, so the steal of that one CPU is the time the
// hypervisor took from the thread. It returns the CPU, or -1 (thread
// still locked, not pinned) where the kernel refuses, and an unpin
// function that restores both.
func pinCPU() (int, func()) {
	runtime.LockOSThread()
	var old cpuMask
	cpu := -1
	if affinity(false, &old) {
		for i, w := range old {
			if w != 0 {
				cpu = 64*i + bits.TrailingZeros64(w)
				break
			}
		}
	}
	if cpu >= 0 {
		var m cpuMask
		m[cpu/64] = 1 << (cpu % 64)
		if !affinity(true, &m) {
			cpu = -1
		}
	}
	return cpu, func() {
		if cpu >= 0 {
			affinity(true, &old)
		}
		runtime.UnlockOSThread()
	}
}

// stealTimes is the time the hypervisor has taken from each CPU so far,
// indexed by CPU number: the steal column of the cpuN lines of /proc/stat,
// counted in USER_HZ ticks of 10 ms. It is nil where the kernel does not
// report it.
func stealTimes() []time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	var out []time.Duration
	for _, line := range bytes.Split(raw, []byte("\n")) {
		fields := bytes.Fields(line)
		if len(fields) <= 8 || !bytes.HasPrefix(fields[0], []byte("cpu")) {
			continue
		}
		cpu, err1 := strconv.Atoi(string(fields[0][3:]))
		ticks, err2 := strconv.ParseInt(string(fields[8]), 10, 64)
		if err1 != nil || err2 != nil || cpu < 0 || cpu > 1<<16 {
			continue // the all-CPU "cpu" line, or a format this does not know
		}
		for len(out) <= cpu {
			out = append(out, 0)
		}
		out[cpu] = time.Duration(ticks) * 10 * time.Millisecond
	}
	return out
}

// stolen is the time, in a span of wall time w between the readings
// before and after, during which CPU cpu (with cpu -1, at least one CPU)
// was stolen by the hypervisor. Across CPUs it takes each CPU to be stolen
// independently of the others: w * (1 - prod(1 - steal_i/w)).
func stolen(before, after []time.Duration, cpu int, w time.Duration) time.Duration {
	if w <= 0 {
		return 0
	}
	free := 1.0
	for i := range after {
		if i >= len(before) || (cpu >= 0 && i != cpu) {
			continue
		}
		free *= 1 - min(1, max(0, float64(after[i]-before[i])/float64(w)))
	}
	return time.Duration((1 - free) * float64(w))
}

// threadCPU is the CPU time of the calling thread so far. The time the
// hypervisor steals from the thread's CPU is not in it.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// peakRSSBytes is the process's peak resident set size.
func peakRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// runtimeSnap is the Go runtime's allocation and GC counters.
type runtimeSnap struct {
	allocBytes, gcCycles uint64
	gcCPU                float64 // seconds
	heapSys              uint64
}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	s := runtimeSnap{allocBytes: ms.TotalAlloc, gcCycles: uint64(ms.NumGC), heapSys: ms.HeapSys}
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = sample[0].Value.Float64()
	}
	return s
}
