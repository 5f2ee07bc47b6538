package main

// Per-window figures reported at a reference host steal.  The host
// steals CPU in bursts: over one 30 s run the steal share of half-second
// windows ranges from 0 % to over 50 %, and across runs the average
// ranges from 5 % to 40 %, moving throughput and p90 by 2x on identical
// code.  A timed phase is therefore cut into windows of at least
// windowMinRequests requests, each figure (throughput, p50, p90, server
// CPU per request) is computed per window, log(figure) is fitted as a
// straight line in the window's steal share, and the fit is read at
// refSteal.  The raw phase figures and the steal range are printed beside.

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"time"
)

// tickEvery is the sampling period of the CPU counters.
const tickEvery = 500 * time.Millisecond

// windowMinRequests is the least number of requests a window holds:
// enough for a p90 with 10 samples beyond it.
const windowMinRequests = 100

// refSteal is the host steal share the figures are reported at; most runs
// have windows near it.  A run whose windows all lie above or below it is
// read at its nearest window steal instead: the fit is never extrapolated.
const refSteal = 0.05

// A fit needs minFitWindows windows whose steal spans at least
// minStealSpan; otherwise the figure is the median over the windows.  On a
// narrow span the slope is noise, and a calm run needs no correction.
const (
	minFitWindows = 5
	minStealSpan  = 0.08
)

// tick is one sample of the server's CPU time and the host's CPU times.
type tick struct {
	at   time.Time
	cpu  int64 // utime+stime in clock ticks
	host cpuTimes
}

// sampler samples the CPU counters every tickEvery until stopped.
type sampler struct {
	pid   int
	ticks []tick
	stop  chan struct{}
	done  chan struct{}
}

func startSampler(pid int) (*sampler, error) {
	first, err := sampleNow(pid)
	if err != nil {
		return nil, err
	}
	sm := &sampler{pid: pid, ticks: []tick{first}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sm.done)
		t := time.NewTicker(tickEvery)
		defer t.Stop()
		for {
			select {
			case <-sm.stop:
				return
			case <-t.C:
				if tk, err := sampleNow(pid); err == nil {
					sm.ticks = append(sm.ticks, tk)
				}
			}
		}
	}()
	return sm, nil
}

// finish stops the sampler, takes a last sample, and returns all samples.
func (sm *sampler) finish() ([]tick, error) {
	close(sm.stop)
	<-sm.done
	last, err := sampleNow(sm.pid)
	if err != nil {
		return nil, err
	}
	// A final interval much shorter than the period extends the one
	// before it instead of forming a near-empty window.
	if n := len(sm.ticks); n > 1 && last.at.Sub(sm.ticks[n-1].at) < tickEvery/2 {
		sm.ticks[n-1] = last
		return sm.ticks, nil
	}
	return append(sm.ticks, last), nil
}

func sampleNow(pid int) (tick, error) {
	cpu, err := readProcCPU(pid)
	if err != nil {
		return tick{}, err
	}
	host, err := readHostCPU()
	return tick{at: time.Now(), cpu: cpu, host: host}, err
}

// window is one slice of a timed phase.
type window struct {
	from, to time.Time
	cpu      int64   // server CPU ticks spent in the window
	steal    float64 // host steal share over the window
	lat      []float64
}

// windows cuts a phase at sampling ticks into windows of at least
// windowMinRequests requests each, assigning every sample to the interval
// its answer completed in.  Consecutive intervals merge until a window
// holds enough requests; a short remainder joins the last window.  Only a
// phase of fewer than windowMinRequests requests gives a smaller window.
func windows(ticks []tick, samples []*sample) []window {
	intervals := len(ticks) - 1
	if intervals < 1 || len(samples) == 0 {
		return nil
	}
	in := make([]int, len(samples))
	count := make([]int, intervals)
	for i, smp := range samples {
		k := sort.Search(intervals, func(k int) bool { return smp.end.Before(ticks[k+1].at) })
		in[i] = min(k, intervals-1)
		count[in[i]]++
	}
	bounds := []int{0}
	n := 0
	for k, c := range count {
		if n += c; n >= windowMinRequests {
			bounds = append(bounds, k+1)
			n = 0
		}
	}
	if last := len(bounds) - 1; bounds[last] != intervals {
		if last > 0 {
			bounds[last] = intervals
		} else {
			bounds = append(bounds, intervals)
		}
	}
	ws := make([]window, len(bounds)-1)
	of := make([]int, intervals) // window of each interval
	for k := range ws {
		a, b := ticks[bounds[k]], ticks[bounds[k+1]]
		ws[k] = window{from: a.at, to: b.at, cpu: b.cpu - a.cpu, steal: stealShare(a.host, b.host)}
		for j := bounds[k]; j < bounds[k+1]; j++ {
			of[j] = k
		}
	}
	for i, smp := range samples {
		w := &ws[of[in[i]]]
		w.lat = append(w.lat, smp.latencyMS)
	}
	return ws
}

// atRefSteal fits log(f) = a + b*steal over the windows by least squares
// and returns exp(a + b*s), s being refSteal clamped into the windows'
// steal range.  Without enough windows or steal spread for a fit it
// returns the median of f over the windows, and with fewer than three
// windows (a phase of under 300 requests) it returns whole.
func atRefSteal(ws []window, whole float64, f func(w *window) (float64, bool)) float64 {
	var xs, ys, vals []float64
	for i := range ws {
		if v, ok := f(&ws[i]); ok && v > 0 {
			xs = append(xs, ws[i].steal)
			ys = append(ys, math.Log(v))
			vals = append(vals, v)
		}
	}
	if len(vals) < 3 {
		return whole
	}
	lo, hi := xs[0], xs[0]
	var mx, my float64
	for i := range xs {
		lo, hi = min(lo, xs[i]), max(hi, xs[i])
		mx += xs[i] / float64(len(xs))
		my += ys[i] / float64(len(ys))
	}
	if len(xs) < minFitWindows || hi-lo < minStealSpan {
		return median(vals)
	}
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	return math.Exp(my + sxy/sxx*(min(max(refSteal, lo), hi)-mx))
}

// Per-window figures.
func windowRPS(w *window) (float64, bool) {
	return float64(len(w.lat)) / w.to.Sub(w.from).Seconds(), len(w.lat) > 0
}

func windowCPU(w *window) (float64, bool) {
	return float64(w.cpu) * 1000 / clockTicks / float64(len(w.lat)), len(w.lat) > 0
}

func windowPercentile(p float64) func(w *window) (float64, bool) {
	return func(w *window) (float64, bool) {
		x, err := percentile(w.lat, p)
		return x, err == nil
	}
}

// stealRange is the least and the most steal share of one window.
func stealRange(ws []window) (lo, hi float64) {
	for i, w := range ws {
		if i == 0 || w.steal < lo {
			lo = w.steal
		}
		hi = max(hi, w.steal)
	}
	return lo, hi
}

// writeWindows saves the per-window figures of a phase as JSON, so a run
// taken under heavy steal can be inspected.
func writeWindows(path string, ws []window) error {
	type row struct {
		Seconds   float64 `json:"seconds"`
		Steal     float64 `json:"steal"`
		Requests  int     `json:"requests"`
		RPS       float64 `json:"rps"`
		P50MS     float64 `json:"p50_ms"`
		P90MS     float64 `json:"p90_ms"`
		CPUPerReq float64 `json:"cpu_ms_per_req"`
	}
	rows := make([]row, len(ws))
	for i := range ws {
		w := &ws[i]
		r := row{Seconds: w.to.Sub(w.from).Seconds(), Steal: w.steal, Requests: len(w.lat)}
		r.RPS, _ = windowRPS(w)
		r.P50MS, _ = windowPercentile(50)(w)
		r.P90MS, _ = windowPercentile(90)(w)
		r.CPUPerReq, _ = windowCPU(w)
		rows[i] = r
	}
	data, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
