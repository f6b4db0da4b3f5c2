package main

import (
	"runtime"
	"sync"
	"time"
)

// This box is a few cores of a shared host and runs in phases: the same
// code takes up to 1.6 times as long for seconds or minutes at a time
// (README.md, "Noise floor"). The yardstick is a fixed piece of work timed
// around every pass, so that a run can state its timings at one machine
// speed instead of at whatever speed it happened to get.

// yardNominal is what one yardstick repetition takes on this box in
// middling weather (21 ms at its best, 32 ms or more in a slow phase). It
// only fixes the scale of the reported timings and must not change
// between the commits a comparison is made across.
const yardNominal = 0.027

const yardReps = 3

// yardBuf is the memory the yardstick walks: larger than the caches, so
// the walk pays what the program's own cache misses pay at that moment.
var yardBuf = make([]uint64, 1<<22) // 32 MB

func init() {
	for i := range yardBuf { // touch every page before the first reading
		yardBuf[i] = uint64(i)
	}
}

var yardSink uint64

// yardstick times yardReps repetitions of a fixed amount of work — an
// integer loop and a random walk over yardBuf, on as many goroutines as
// the workloads use — and appends the readings to dst. It starts from a
// collected heap, so that no collector work left over by what ran before
// shares the cores with it (or with the pass that follows).
func yardstick(dst []float64) []float64 {
	runtime.GC()
	for r := 0; r < yardReps; r++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		var mu sync.Mutex
		for g := 0; g < measureWorkers; g++ {
			wg.Add(1)
			go func(x uint64) {
				defer wg.Done()
				for i := 0; i < 6_000_000; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
				var sum uint64
				for i := 0; i < 1_200_000; i++ {
					x = x*6364136223846793005 + 1442695040888963407
					sum += yardBuf[x>>42]
				}
				mu.Lock()
				yardSink += x + sum
				mu.Unlock()
			}(uint64(88172645463325252 + g))
		}
		wg.Wait()
		dst = append(dst, time.Since(t0).Seconds())
	}
	return dst
}

// speed is the factor that turns a time measured while the yardstick
// read as in yard into the time at nominal machine speed: below 1 when
// the machine was slow.
func speed(yard []float64) float64 {
	if len(yard) == 0 {
		return 1
	}
	return yardNominal / lowerQuartile(yard)
}
