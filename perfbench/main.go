// Command perfbench is the repository's end-to-end benchmark.  It builds
// cmd/rtserve from source, runs it as its own process on loopback with
// the shipped defaults (plus -store for the resolve workload), drives it
// with a closed-loop load generator, checks every answer, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of its output:
//
//	go -C perfbench run . --workload hot --seed 1 --seconds 20 --trace 0
//
// Workloads: hot, fresh, resolve (see workloads.json).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// setupReps is how many times a run sets up its server; setup_s is the
// median and the last set-up serves the timed phase.
const setupReps = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: hot, fresh or resolve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string, seed int64, scratch string) (*workload, error) {
	switch name {
	case "hot":
		return newHot(seed), nil
	case "fresh":
		return newFresh(seed), nil
	case "resolve":
		return newResolve(seed, scratch), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want hot, fresh or resolve)", name)
}

// inputHash fingerprints a run's inputs: the warm-up bodies and the first
// 64 timed requests.  The same seed gives the same hash.
func inputHash(w *workload) string {
	h := sha256.New()
	for _, b := range w.warmups() {
		h.Write(b)
	}
	for i := 0; i < 64; i++ {
		h.Write(w.next(i).body)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// quiesce clears the workload's store directory and flushes the file
// system before a set-up.  On the benchmark's host a small file costs the
// store ~1 ms to create, and writing back or discarding earlier files
// (a resolve phase writes ~1600 files, ~90 MB) during a set-up slowed it
// by up to 1.6x; flushing first keeps that out of setup_s.
func quiesce(w *workload) error {
	if w.storeDir != "" {
		if err := os.RemoveAll(w.storeDir); err != nil {
			return err
		}
	}
	syscall.Sync()
	return nil
}

// phase is one timed phase with its outside measurements.
type phase struct {
	load           loadResult
	before, after  serverStats
	cpuTicks       int64
	ticks          []tick
	windows        []window
	hwmKB          int64
	steal          float64
	attempted, bad int
}

// measure runs the timed phase and checks it.
func measure(s *server, w *workload, dur time.Duration) (*phase, error) {
	p := &phase{}
	var err error
	if p.before, err = s.stats(); err != nil {
		return nil, err
	}
	host0, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	sm, err := startSampler(s.pid())
	if err != nil {
		return nil, err
	}
	p.load = runLoad(s, w.clients, dur, w.next, w.check)
	if p.ticks, err = sm.finish(); err != nil {
		return nil, err
	}
	host1, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	p.cpuTicks = p.ticks[len(p.ticks)-1].cpu - p.ticks[0].cpu
	p.steal = stealShare(host0, host1)
	p.windows = windows(p.ticks, p.load.samples)
	if p.hwmKB, err = readVmHWM(s.pid()); err != nil {
		return nil, err
	}
	if p.after, err = s.stats(); err != nil {
		return nil, err
	}
	sort.Slice(p.load.samples, func(a, b int) bool { return p.load.samples[a].req.id < p.load.samples[b].req.id })
	if err := w.finish(s, &p.load, p.before, p.after); err != nil {
		// A workload-wide check failing fails the whole phase.
		for _, smp := range p.load.samples {
			if smp.err == nil {
				smp.err = err
			}
		}
		fmt.Fprintln(os.Stderr, "check failed:", err)
	}
	p.attempted = len(p.load.samples)
	for _, smp := range p.load.samples {
		if smp.err != nil {
			if p.bad < 5 {
				fmt.Fprintf(os.Stderr, "request %d failed: %v\n", smp.req.id, smp.err)
			}
			p.bad++
		}
	}
	return p, nil
}

// endToEnd computes the end-to-end metrics of a phase, and the raw
// whole-phase figures they derive from.  Throughput, latency and CPU
// figures are read at refSteal off the windows and, like the set-up time,
// scaled to the reference host speed: times by speed, rates by 1/speed.
func endToEnd(p *phase, setupS, speed float64) (e2e, raw map[string]metric, err error) {
	n := len(p.load.samples)
	if n == 0 {
		return nil, nil, fmt.Errorf("timed phase completed no request")
	}
	lat := make([]float64, n)
	var ratios []float64
	for i, smp := range p.load.samples {
		lat[i] = smp.latencyMS
		for j := range smp.items {
			if r := certifiedRatio(&smp.items[j].rep); r > 0 {
				ratios = append(ratios, r)
			}
		}
	}
	p50, err := percentile(lat, 50)
	if err != nil {
		return nil, nil, err
	}
	p90, err := percentile(lat, 90)
	if err != nil {
		return nil, nil, err
	}
	raw = map[string]metric{
		"throughput_rps":        {float64(n) / p.load.elapsed.Seconds(), "req/s"},
		"latency_p50_ms":        {p50, "ms"},
		"latency_p90_ms":        {p90, "ms"},
		"server_cpu_ms_per_req": {float64(p.cpuTicks) * 1000 / clockTicks / float64(n), "ms"},
		"setup_s":               {setupS, "s"},
	}
	ws := p.windows
	at := func(name string, scale float64, f func(w *window) (float64, bool)) metric {
		return metric{atRefSteal(ws, raw[name].Value, f) * scale, raw[name].Unit}
	}
	return map[string]metric{
		"throughput_rps":        at("throughput_rps", 1/speed, windowRPS),
		"latency_p50_ms":        at("latency_p50_ms", speed, windowPercentile(50)),
		"latency_p90_ms":        at("latency_p90_ms", speed, windowPercentile(90)),
		"server_cpu_ms_per_req": at("server_cpu_ms_per_req", speed, windowCPU),
		"server_rss_mb":         {float64(p.hwmKB) / 1024, "MB"},
		"setup_s":               {setupS * speed, "s"},
		"ratio_geomean":         {geomean(ratios), "ratio"},
	}, raw, nil
}

func run(name string, seed int64, seconds int, traced bool) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	scratch := filepath.Join(buildDir(root), "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	// Runs after the removal: the next run starts on a quiet file system.
	defer syscall.Sync()
	defer os.RemoveAll(scratch)
	w, err := newWorkload(name, seed, scratch)
	if err != nil {
		return err
	}
	bin, err := buildServer(root)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	cal := newCalibrator()
	cal.start()
	defer cal.finish()
	var setups, setupSteal []float64
	var s *server
	for rep := 0; rep < setupReps; rep++ {
		if err := quiesce(w); err != nil {
			return err
		}
		h0, err := readHostCPU()
		if err != nil {
			return err
		}
		t0 := time.Now()
		if s, err = w.setup(bin); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		wall := time.Since(t0).Seconds()
		h1, err := readHostCPU()
		if err != nil {
			s.stop()
			return err
		}
		// Set-up is wall time: the share of busy vCPU time the host stole
		// during it is taken out, as the steal fit does for the phase.
		st := busyStealShare(h0, h1)
		setups = append(setups, wall*(1-st))
		setupSteal = append(setupSteal, st)
		if rep < setupReps-1 {
			s.stop()
		}
	}
	defer s.stop()

	syscall.Sync()
	p, err := measure(s, w, time.Duration(seconds)*time.Second)
	if err != nil {
		return err
	}
	cal.finish()
	e2e, raw, err := endToEnd(p, median(setups), cal.speed())
	if err != nil {
		return err
	}
	res := result{Correct: p.bad == 0, Attempted: p.attempted, Failed: p.bad, Metrics: e2e}

	fmt.Printf("workload %s  seed %d  inputs %s  setups %s (busy steal %s)\n",
		name, seed, inputHash(w), fmtList(setups, "s"), fmtList(setupSteal, ""))
	lo, hi := stealRange(p.windows)
	fmt.Printf("generator NumCPU %d GOMAXPROCS %d  server GOMAXPROCS %d (pool workers)  host steal %.1f%% (windows %d, %.1f-%.1f%%)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), p.after.Pool.Workers, 100*p.steal, len(p.windows), 100*lo, 100*hi)
	fmt.Printf("host speed %.4f (calibration: %d reps, trimmed mean %.4f ms, reference %.4f ms)\n", cal.speed(), len(cal.reps), cal.repMS(), calRefMS)
	if err := writeWindows(filepath.Join(buildDir(root), fmt.Sprintf("windows-%s-%d.json", name, seed)), p.windows); err != nil {
		return err
	}
	printMetrics(fmt.Sprintf("end-to-end (at reference host speed; throughput, latency and CPU at %.0f%% host steal)", 100*refSteal), e2e)
	printMetrics("raw over the whole phase", raw)
	printBreakdown(p)
	fmt.Printf("requests sent %d  ok %d  failed %d\n", p.attempted, p.attempted-p.bad, p.bad)

	if traced {
		// Tracing adds no work to the timed load: the request spans come
		// from timestamps every run takes, and the replay runs after the
		// load, against a stopped server.
		fmt.Println("tracing overhead on the timed load (traced - untraced): 0 for every end-to-end metric, by construction")
		s.stop()
		layers, err := perLayer(w, p, scratch, filepath.Join(buildDir(root), "trace-"+name+".json"))
		if err != nil {
			return err
		}
		printMetrics("per-layer", layers)
		res.Metrics = layers
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printMetrics(title string, m map[string]metric) {
	fmt.Println(title + ":")
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-30s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func fmtList(xs []float64, unit string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += strconv.FormatFloat(x, 'f', 3, 64)
	}
	if unit != "" {
		out += " " + unit
	}
	return out
}

// printBreakdown prints, per request kind and first item's answered
// route, the request count, median latency and how many answers were
// computed, warm-started or store hits.
func printBreakdown(p *phase) {
	type agg struct {
		lat                   []float64
		computed, warm, store int
	}
	groups := map[string]*agg{}
	for _, smp := range p.load.samples {
		key := smp.req.kind
		if len(smp.items) > 0 {
			key += "/" + smp.items[0].rep.Solver
		}
		a := groups[key]
		if a == nil {
			a = &agg{}
			groups[key] = a
		}
		a.lat = append(a.lat, smp.latencyMS)
		for j := range smp.items {
			if smp.computed(j) {
				a.computed++
			}
			if smp.items[j].Warm {
				a.warm++
			}
			if smp.items[j].StoreHit {
				a.store++
			}
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("by request kind / route:")
	for _, k := range keys {
		a := groups[k]
		fmt.Printf("  %-22s n %6d  median %9.3f ms  computed %6d  warm %5d  store_hit %5d\n",
			k, len(a.lat), median(a.lat), a.computed, a.warm, a.store)
	}
}
