package main

// Host-speed calibration.  Besides stealing whole time slices, the host
// changes how fast a vCPU runs while it does run: between two sets of
// runs hours apart, server CPU time per request moved by over 25 % at
// under 2 % steal, and a fixed kernel timed back to back flips between
// two speeds 1.7x apart from one second to the next.  The benchmark
// therefore times one rep of a fixed kernel of its own every calEvery,
// from the first set-up to the end of the timed phase, concurrently with
// the work it measures, and reports its time figures at the reference
// speed the kernel had when the benchmark was written.
//
// The kernel does the kind of work the server spends its time on (JSON
// decoding and encoding of an instance document, a longest-path sweep,
// sorting, hashing) but uses only the standard library and this package,
// so no change to the program under test moves it.  It is timed in
// thread CPU time: waiting for a vCPU is not counted, and with the
// guest's paravirtual steal accounting neither is stolen time, which the
// steal fit (windows.go) corrects separately.

import (
	"crypto/sha256"
	"encoding/json"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// calRefMS is about the mean thread CPU time of one calibration rep under
// load on the 2-vCPU Xeon VM the benchmark was built on (2.9-3.6 ms from
// run to run).  Figures are reported as if the host ran at that speed.
const calRefMS = 3.0

// calEvery is the period of the calibration reps: one rep of ~2-3 ms per
// period takes about 1 % of the two vCPUs.
const calEvery = 100 * time.Millisecond

// calTrim is the share of reps dropped at each end before averaging: it
// removes reps hit by a garbage collection or a page fault, but keeps
// both of the host's speeds, each of which holds far more than calTrim.
const calTrim = 0.1

// calArc and calDoc mirror the instance wire form the kernel decodes.
type calArc struct {
	From int `json:"from"`
	To   int `json:"to"`
	Fn   struct {
		Kind   string `json:"kind"`
		T0     int64  `json:"t0"`
		Tuples []struct {
			R int64 `json:"r"`
			T int64 `json:"t"`
		} `json:"tuples"`
	} `json:"fn"`
}

type calDoc struct {
	Nodes []string `json:"nodes"`
	Edges []calArc `json:"edges"`
}

// calibrator times calibration reps in the background until finished.
// reps may be read once finish has returned.
type calibrator struct {
	doc  []byte
	reps []float64 // thread CPU milliseconds per rep
	sink int64
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// newCalibrator builds the kernel's input document.
func newCalibrator() *calibrator {
	rng := rngFor(0, "calibration", 0)
	in := layered(rng, 24, 12, 6, func() fnSpec { return stepFn(rng, 2+rng.Intn(3), 60, 4) })
	return &calibrator{doc: in.appendJSON(nil)}
}

// start times one rep every calEvery, on one locked OS thread, until
// finish is called.
func (c *calibrator) start() {
	c.stop, c.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(c.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t := time.NewTicker(calEvery)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.reps = append(c.reps, c.timeRep())
			}
		}
	}()
}

// finish stops the reps and waits for the last one; later calls return
// at once.
func (c *calibrator) finish() {
	c.once.Do(func() { close(c.stop) })
	<-c.done
}

// timeRep runs one rep and returns its thread CPU time in milliseconds.
func (c *calibrator) timeRep() float64 {
	t0 := threadCPUNanos()
	c.sink += c.rep()
	return float64(threadCPUNanos()-t0) / 1e6
}

// rep runs the kernel once and returns a checksum of its results.
func (c *calibrator) rep() int64 {
	var d calDoc
	if err := json.Unmarshal(c.doc, &d); err != nil {
		panic(err)
	}
	dur := func(a *calArc) int64 {
		if n := len(a.Fn.Tuples); n > 0 {
			return a.Fn.Tuples[n-1].T
		}
		return a.Fn.T0
	}
	// The generator emits arcs in topological order of their tails.
	dist := make([]int64, len(d.Nodes))
	for i := range d.Edges {
		a := &d.Edges[i]
		dist[a.To] = max(dist[a.To], dist[a.From]+dur(a))
	}
	sort.Slice(d.Edges, func(i, j int) bool {
		di, dj := dur(&d.Edges[i]), dur(&d.Edges[j])
		if di != dj {
			return di < dj
		}
		return d.Edges[i].From < d.Edges[j].From
	})
	out, err := json.Marshal(&d)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(out)
	return dist[len(dist)-1] + int64(sum[0])
}

// repMS is the mean rep time without the calTrim tails, in
// milliseconds.  A mean, not a median: the host's speed flips between two
// levels, and the figures follow the time spent at each.
func (c *calibrator) repMS() float64 { return trimmedMean(c.reps, calTrim) }

// speed is the host speed relative to the reference: below 1 when the
// kernel ran slower than calRefMS.
func (c *calibrator) speed() float64 { return calRefMS / c.repMS() }

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPUNanos is the CPU time the calling OS thread has used.
func threadCPUNanos() int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return ts.Nano()
}
