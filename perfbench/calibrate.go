package main

import "time"

// Host-speed calibration. On a shared cloud host the same binary runs up
// to a third slower for minutes at a time, as the host's load and its
// vCPU placement change. Every host-time end-to-end metric is therefore
// converted to reference-host time: next to each measurement the
// benchmark times a fixed loop that belongs to the benchmark, not to the
// program under test, and scales the measurement by how fast the loop
// ran. The loop runs only while the process is quiescent (no
// simulation, no silicon goroutine, heap just collected), so the program
// cannot speed it up or slow it down; a change to the program moves the
// scaled figure exactly as much as the raw one.

// refCalibration is the calibration loop's time on the reference host,
// a 2-vCPU 2.1 GHz Xeon with no other load, so scaled figures read as
// that host's figures.
const refCalibration = 1200 * time.Microsecond

// The loop has two parts: dependent integer and branch work over an
// L2-sized table, which tracks the core's speed, and random accesses to
// an L3-sized table, which track the memory system the simulator's heap
// lives in.
const (
	calIters    = 250_000
	calMemIters = 16_000
)

// The tables are global arrays without pointers: they live outside the
// Go heap, so they do not change the collector's pacing of the program
// under test. They add a constant 4.25 MB to the resident set.
var (
	calTable [1 << 15]uint64 // 256 KB
	calMem   [1 << 19]uint64 // 4 MB
	calSink  uint64
)

// calibrate runs the fixed loop and returns its host time in
// nanoseconds.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	var acc uint64
	for _, n := range []struct {
		table []uint64
		iters int
	}{{calTable[:], calIters}, {calMem[:], calMemIters}} {
		mask := uint64(len(n.table) - 1)
		for i := 0; i < n.iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v := n.table[x&mask]
			if v&1 == 0 {
				acc += v
			} else {
				acc ^= x
			}
			n.table[x&mask] = v + x
		}
	}
	calSink = acc
	return float64(time.Since(t0))
}

// hostSpeed is the host's speed relative to the reference host, from
// the median of calibration times: below 1 on a slower host. Host times
// are multiplied by it and host rates divided by it.
func hostSpeed(cals []float64) float64 {
	return float64(refCalibration) / median(cals)
}
