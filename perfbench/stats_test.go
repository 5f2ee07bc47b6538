package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input: 100, 99, ..., 1
	}
	if got, err := percentile(xs, 90); err != nil || got != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 (nearest rank, 10 beyond)", got, err)
	}
	if got, err := percentile(xs, 50); err != nil || got != 50 {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50", got, err)
	}
	if _, err := percentile(xs[:99], 90); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(xs[:20], 50); err != nil {
		t.Fatalf("p50 of 20 samples has 10 beyond it and must be accepted: %v", err)
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if xs[0] != 100 {
		t.Fatal("percentile reordered its input")
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if g := geomean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Errorf("geomean = %v", g)
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// Field 2 holds spaces and a ')': fields count from the last ')'.
	line := "4242 (rt serve) (x)) S 1 4242 4242 0 -1 4194560 1183 0 0 0 731 112 0 0 20 0 7 0 98071 1234 567"
	got, err := parseProcStatCPU([]byte(line))
	if err != nil || got != 731+112 {
		t.Fatalf("utime+stime = %v, %v; want 843", got, err)
	}
	if _, err := parseProcStatCPU([]byte("4242 (x) S 1 2")); err == nil {
		t.Fatal("truncated stat accepted")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\trtserve\nVmPeak:\t  812344 kB\nVmHWM:\t   61724 kB\nVmRSS:\t   50112 kB\n"
	got, err := parseVmHWM([]byte(status))
	if err != nil || got != 61724 {
		t.Fatalf("VmHWM = %v, %v; want 61724", got, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Fatal("status without VmHWM accepted")
	}
}

func TestParseHostCPUAndSteal(t *testing.T) {
	a, err := parseHostCPU([]byte("cpu  100 5 50 800 10 0 5 30 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"))
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 1000 || a.idle != 810 || a.steal != 30 {
		t.Fatalf("total %d idle %d steal %d; want 1000, 810 (idle+iowait) and 30 (guest not added)", a.total, a.idle, a.steal)
	}
	b, err := parseHostCPU([]byte("cpu  150 5 70 900 10 0 5 80 7 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s := stealShare(a, b); math.Abs(s-50.0/220) > 1e-12 {
		t.Fatalf("steal share = %v, want 50/220", s)
	}
	if s := stealShare(b, b); s != 0 {
		t.Fatalf("steal share over no time = %v", s)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	epoch := time.Unix(0, 0)
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	tr := newTracer(epoch)
	root := tr.add(-1, 1, "request", at(0), at(100))
	svc := tr.add(root, 1, "service", at(10), at(60))
	tr.add(root, 1, "service", at(40), at(80)) // overlaps the first: union 10..80
	tr.add(svc, 1, "solve", at(20), at(30))
	tr.add(root, 1, "late", at(95), at(120)) // clipped to the parent: 95..100
	self := selfTimes(tr.spans)
	want := []time.Duration{25, 40, 40, 10, 25}
	for i, w := range want {
		if self[i] != w*time.Millisecond {
			t.Errorf("span %d (%s) self = %v, want %v", i, tr.spans[i].Name, self[i], w*time.Millisecond)
		}
	}
	if got := selfMS(tr.spans)["service"]; len(got) != 2 || got[0] != 40 || got[1] != 40 {
		t.Fatalf("service self times = %v, want [40 40]", got)
	}
}

func TestWindowsAndReferenceSteal(t *testing.T) {
	epoch := time.Unix(0, 0)
	var ticks []tick
	for i := 0; i <= 10; i++ {
		ticks = append(ticks, tick{at: epoch.Add(time.Duration(i) * tickEvery), cpu: int64(10 * i)})
	}
	var samples []*sample
	for i := 0; i < 2000; i++ {
		end := epoch.Add(time.Duration(i) * 5 * tickEvery / 1000)
		samples = append(samples, &sample{end: end, latencyMS: float64(i % 7)})
	}
	ws := windows(ticks, samples)
	// 2000 samples over 10 intervals: one interval per window (>= 100 each).
	if len(ws) != 10 {
		t.Fatalf("%d windows, want 10", len(ws))
	}
	total := 0
	for _, w := range ws {
		total += len(w.lat)
		if w.cpu != 10 {
			t.Fatalf("window cpu = %d, want 10", w.cpu)
		}
	}
	if total != len(samples) {
		t.Fatalf("windows hold %d samples, want %d", total, len(samples))
	}
	// No steal spread: the median over the windows.
	if rps := atRefSteal(ws, -1, windowRPS); rps != 400 {
		t.Fatalf("rps = %v, want 400", rps)
	}
	if cpu := atRefSteal(ws, -1, windowCPU); cpu != 0.5 {
		t.Fatalf("cpu per request = %v ms, want 0.5", cpu)
	}
	if got := atRefSteal(ws[:2], -1, windowRPS); got != -1 {
		t.Fatalf("two windows gave %v, want the whole-phase fallback", got)
	}
	// A figure exponential in steal is read off its fit at refSteal ...
	for i := range ws {
		ws[i].steal = 0.04 * float64(i)
	}
	f := func(w *window) (float64, bool) { return 3 * math.Exp(-2*w.steal), true }
	if got, want := atRefSteal(ws, -1, f), 3*math.Exp(-2*refSteal); math.Abs(got-want) > 1e-9 {
		t.Fatalf("fit at reference steal = %v, want %v", got, want)
	}
	// ... or at the nearest window steal when all windows lie above it.
	for i := range ws {
		ws[i].steal = 0.2 + 0.04*float64(i)
	}
	if got, want := atRefSteal(ws, -1, f), 3*math.Exp(-2*0.2); math.Abs(got-want) > 1e-9 {
		t.Fatalf("fit clamped to the calmest window = %v, want %v", got, want)
	}
}

func TestWindowsMergeIntervalsUntilFull(t *testing.T) {
	// Intervals holding 60, 60, 150, 30, 99, 2, 40 and 20 requests: the
	// greedy cut gives 60+60, 150 and 30+99, and the short remainder
	// 2+40+20 joins the last window.  Every window takes a p90.
	epoch := time.Unix(0, 0)
	counts := []int{60, 60, 150, 30, 99, 2, 40, 20}
	var ticks []tick
	for i := 0; i <= len(counts); i++ {
		ticks = append(ticks, tick{at: epoch.Add(time.Duration(i) * tickEvery), cpu: int64(7 * i)})
	}
	var samples []*sample
	for k, c := range counts {
		for j := 0; j < c; j++ {
			end := ticks[k].at.Add(time.Duration(j+1) * tickEvery / time.Duration(c+1))
			samples = append(samples, &sample{end: end, latencyMS: float64(j)})
		}
	}
	ws := windows(ticks, samples)
	want := []struct{ n, intervals int }{{120, 2}, {150, 1}, {191, 5}}
	if len(ws) != len(want) {
		t.Fatalf("%d windows, want %d", len(ws), len(want))
	}
	for i, w := range want {
		if len(ws[i].lat) != w.n || ws[i].to.Sub(ws[i].from) != time.Duration(w.intervals)*tickEvery || ws[i].cpu != int64(7*w.intervals) {
			t.Errorf("window %d: %d requests over %v, cpu %d; want %d over %d intervals",
				i, len(ws[i].lat), ws[i].to.Sub(ws[i].from), ws[i].cpu, w.n, w.intervals)
		}
		if _, ok := windowPercentile(90)(&ws[i]); !ok {
			t.Errorf("window %d refuses its p90", i)
		}
	}
	// A phase of fewer requests than one window gives one window.
	if ws := windows(ticks[:3], samples[:120]); len(ws) != 1 || len(ws[0].lat) != 120 {
		t.Fatalf("short phase: %d windows", len(ws))
	}
	if ws := windows(ticks[:2], samples[:30]); len(ws) != 1 || len(ws[0].lat) != 30 {
		t.Fatalf("tiny phase: %d windows", len(ws))
	}
}

func TestBusyStealShare(t *testing.T) {
	// 100 ticks elapsed: 50 idle, 30 user, 20 steal.  Of the 50 ticks the
	// vCPUs wanted to run, 20 were stolen.
	a := cpuTimes{total: 1000, idle: 400, steal: 50}
	b := cpuTimes{total: 1100, idle: 450, steal: 70}
	if s := busyStealShare(a, b); math.Abs(s-0.4) > 1e-12 {
		t.Fatalf("busy steal share = %v, want 0.4", s)
	}
	if s := busyStealShare(a, cpuTimes{total: 1050, idle: 450, steal: 50}); s != 0 {
		t.Fatalf("busy steal share over idle time = %v, want 0", s)
	}
}

func TestCalibrationIsFixedWork(t *testing.T) {
	c := newCalibrator()
	if a, b := c.rep(), c.rep(); a != b {
		t.Fatalf("calibration reps disagree: %d, %d", a, b)
	}
	c.start()
	time.Sleep(5 * calEvery / 2)
	c.finish()
	if len(c.reps) < 1 || c.repMS() <= 0 {
		t.Fatalf("%d reps, mean %v ms", len(c.reps), c.repMS())
	}
	if s := c.speed(); s <= 0 || math.Abs(s*c.repMS()-calRefMS) > 1e-9 {
		t.Fatalf("speed %v for a %v ms rep", s, c.repMS())
	}
}

func TestTrimmedMean(t *testing.T) {
	xs := []float64{100, 1, 2, 3, 4, 5, 6, 7, 8, -50}
	if m := trimmedMean(xs, 0.1); m != 4.5 {
		t.Fatalf("trimmed mean = %v, want 4.5 (1..8 without the outliers)", m)
	}
	if m := trimmedMean(xs[1:4], 0.1); m != 2 {
		t.Fatalf("trimmed mean of 3 = %v, want 2 (nothing trimmed)", m)
	}
	if m := trimmedMean(nil, 0.1); m != 0 {
		t.Fatalf("trimmed mean of none = %v", m)
	}
	if xs[0] != 100 {
		t.Fatal("trimmedMean reordered its input")
	}
}
