package main

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"time"
)

// The shared host under the benchmark changes speed by 20-30% for
// minutes at a time, in process CPU time as much as in wall time: the
// neighbours' load slows every instruction. No run is long enough to
// average that out, so the benchmark times a fixed reference kernel
// between chunks of the simulation and reports host times scaled to the
// speed at which the kernel takes refNominal. The kernel is its own code,
// not the simulator's, so a change to the simulator moves the scaled
// times as much as the raw ones. Sorting random integers was chosen for
// its branchy, cache-resident work: over a 10-minute incast-96 run on a
// 2-vCPU Xeon host with little steal, its 30 s medians (in wall time)
// followed the simulation's speed with a correlation of 0.98, and the
// simulation's relative time, which ranged over 0.69-1.10, had a standard
// deviation of 0.133 raw and 0.051 divided by the kernel's.

const (
	refInts    = 20_000
	refBracket = 5 // samples before and after each variant run
	// refNominal is about what the kernel takes on that host, so scaled
	// times read close to its seconds.
	refNominal = 2 * time.Millisecond
)

var (
	refBuf = make([]int, refInts)
	refRng = rand.New(rand.NewSource(1))
)

// refSample times one sort of refInts fresh random integers in thread CPU
// time, which the hypervisor's steal does not inflate (the runs are
// charged for steal separately); filling the buffer before the clock
// starts brings it into cache.
func refSample() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := range refBuf {
		refBuf[i] = refRng.Int()
	}
	t0 := threadCPU()
	sort.Ints(refBuf)
	return threadCPU() - t0
}

// refSamples appends n samples to xs.
func refSamples(xs []time.Duration, n int) []time.Duration {
	for i := 0; i < n; i++ {
		xs = append(xs, refSample())
	}
	return xs
}

// refScale is refNominal over the median of samples: the factor that
// takes a host time measured alongside them to the nominal speed. It is 1
// with no samples.
func refScale(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 1
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return float64(refNominal) / float64(s[len(s)/2])
}
