// Package store is the durable, content-addressed solve store: it
// persists completed solve reports and the raw instances behind them so a
// restarted service resumes with every previously computed result, and so
// near-identical instances can warm-start from a stored neighbor's
// solution, chosen by the per-arc digests each report carries.
//
// # On-disk format
//
// One directory per store, two subdirectories:
//
//	<root>/reports/<sha256(key)>.json     one file per solve outcome
//	<root>/instances/<canonical-hash>.json one file per distinct instance
//
// Every file is a JSON envelope {"checksum": "<sha256 of payload
// bytes>", "payload": {...}} whose payload carries an explicit
// format version.  A report payload records the full result identity
// (the solver.ResultCacheKey string plus its parts: canonical hash,
// structural sketch, solver name, option key), the instance's per-arc
// digests (meta.arcs, core.ArcDigests; absent from reports written before
// digests existed) and the wire report; an instance payload records the
// canonical hash, the sketch, and the raw instance JSON as received.
//
// Writes are crash-safe: each entry is written to a temporary file in
// the same directory and atomically renamed into place, so a crash can
// leave stray *.tmp files (deleted on the next Open) but never a
// half-written entry under a final name.  Reads verify the checksum and
// version; anything corrupt, truncated, or from a different format
// version is skipped and counted, never trusted and never fatal.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"repro/internal/solver"
)

// payloadVersion is the on-disk payload format version.  Entries written
// by a different version are ignored on load: old binaries must not
// misread new entries and vice versa.
const payloadVersion = 1

// Meta is the decomposed identity of one stored report: the parts of the
// result-cache key plus the instance's structural sketch and per-arc
// digests, kept separately so neighbor lookups can match on (sketch,
// solver, options) without parsing keys, and compare arcs without the
// instance.
type Meta struct {
	// Hash is the instance's canonical hash (core.CanonicalHash).
	Hash string `json:"hash"`
	// Sketch is the instance's structural sketch (core.Sketch): equal
	// sketches mean index-aligned identical topology, so flows transfer
	// arc for arc.
	Sketch string `json:"sketch"`
	// Solver is the registered solver name the report came from.
	Solver string `json:"solver"`
	// OptKey is the canonical options rendering (Options.CacheKey).
	OptKey string `json:"opt_key"`
	// Arcs is the instance's per-arc digest vector (core.ArcDigests), 4
	// bytes per arc in memory.  Empty on reports written before digests
	// existed; such reports answer hits but never donate.
	Arcs []uint32 `json:"arcs,omitempty"`
}

// envelope is the outer JSON shell of every stored file.  Payload stays
// raw so the checksum is computed over the exact persisted bytes.
type envelope struct {
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// reportPayload is the persisted form of one solve outcome.
type reportPayload struct {
	Version int               `json:"version"`
	Key     string            `json:"key"`
	Meta    Meta              `json:"meta"`
	Report  solver.WireReport `json:"report"`
}

// instancePayload is the persisted form of one raw instance.
type instancePayload struct {
	Version  int             `json:"version"`
	Hash     string          `json:"hash"`
	Sketch   string          `json:"sketch"`
	Instance json.RawMessage `json:"instance"`
}

// Stats is a snapshot of store occupancy and effectiveness, reported
// under /v1/stats.
type Stats struct {
	// Entries counts stored reports currently loaded.
	Entries int `json:"entries"`
	// Bytes is the on-disk size of the loaded report entries.
	Bytes int64 `json:"bytes"`
	// Hits and Misses count GetReport outcomes since Open.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Corrupt counts entries skipped as corrupt, truncated, or
	// unreadable — at load time and on demand-read paths since.
	Corrupt int64 `json:"corrupt"`
}

// LoadReport describes what Open found, so the service can log exactly
// what survived a restart instead of silently starting empty.
type LoadReport struct {
	// Reports and Instances count the entries loaded successfully.
	Reports   int
	Instances int
	// Corrupt counts entries skipped for failed checksums, truncation,
	// or unparseable JSON.
	Corrupt int
	// Skipped counts well-formed entries ignored for a foreign format
	// version.
	Skipped int
	// Errors holds one message per skipped entry, in deterministic
	// (sorted filename) order.
	Errors []string
}

// entry is one loaded report.
type entry struct {
	meta Meta
	rep  solver.WireReport
	size int64
}

// Store is a durable map from result identity to completed report, with
// a structural-sketch side index for neighbor lookups.  All methods are
// safe for concurrent use.
type Store struct {
	root string

	mu       sync.Mutex
	reports  map[string]*entry   // result-cache key -> report
	bySketch map[string][]string // sketch|solver|optKey -> sorted keys
	hasInst  map[string]bool     // canonical hash -> instance file exists
	load     LoadReport

	hits, misses, corrupt int64
}

// Open loads (or creates) the store rooted at dir.  Corrupt or
// foreign-version entries are skipped and reported via LoadReport, never
// fatal; the returned error covers only real I/O failures that would
// leave the store unusable (unreadable root, failed mkdir).
//
// The loaded state is a pure function of the directory contents: entries
// are scanned in sorted filename order and indexes are kept sorted, so
// two processes opening the same directory build identical stores.
//
//rt:deterministic
func Open(dir string) (*Store, error) {
	s := &Store{
		root:     dir,
		reports:  make(map[string]*entry),
		bySketch: make(map[string][]string),
		hasInst:  make(map[string]bool),
	}
	for _, sub := range []string{s.reportsDir(), s.instancesDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("store: create %s: %w", sub, err)
		}
	}
	if err := s.loadReports(); err != nil {
		return nil, err
	}
	if err := s.loadInstances(); err != nil {
		return nil, err
	}
	//rt:unordered — each value is sorted independently; visit order is moot
	for k := range s.bySketch {
		sort.Strings(s.bySketch[k])
	}
	s.corrupt = int64(s.load.Corrupt)
	return s, nil
}

func (s *Store) reportsDir() string   { return filepath.Join(s.root, "reports") }
func (s *Store) instancesDir() string { return filepath.Join(s.root, "instances") }

// loadReports scans the reports directory in sorted order, loading every
// valid entry into memory and sweeping stray temp files.
func (s *Store) loadReports() error {
	ents, err := os.ReadDir(s.reportsDir()) // ReadDir sorts by filename
	if err != nil {
		return fmt.Errorf("store: read %s: %w", s.reportsDir(), err)
	}
	for _, de := range ents {
		path := filepath.Join(s.reportsDir(), de.Name())
		if sweepTemp(path, de.Name()) {
			continue
		}
		payload, size, err := readVerified(path)
		if err != nil {
			s.load.Corrupt++
			s.load.Errors = append(s.load.Errors, err.Error())
			continue
		}
		var rp reportPayload
		if err := json.Unmarshal(payload, &rp); err != nil {
			s.load.Corrupt++
			s.load.Errors = append(s.load.Errors, fmt.Sprintf("%s: bad report payload: %v", path, err))
			continue
		}
		if rp.Version != payloadVersion {
			s.load.Skipped++
			s.load.Errors = append(s.load.Errors, fmt.Sprintf("%s: payload version %d, want %d", path, rp.Version, payloadVersion))
			continue
		}
		// Decoding grows the digest slice geometrically (1,000 arcs land
		// in a 1,344-word array); keep it at 4 bytes per arc.
		rp.Meta.Arcs = slices.Clone(rp.Meta.Arcs)
		s.reports[rp.Key] = &entry{meta: rp.Meta, rep: rp.Report, size: size}
		sk := sketchKey(rp.Meta.Sketch, rp.Meta.Solver, rp.Meta.OptKey)
		s.bySketch[sk] = append(s.bySketch[sk], rp.Key)
		s.load.Reports++
	}
	return nil
}

// loadInstances records which instances exist; the raw bytes stay on
// disk and are re-read (and re-verified) on demand by GetInstance.  Warm
// starts never read them: neighbors are compared by their reports'
// digests.
func (s *Store) loadInstances() error {
	ents, err := os.ReadDir(s.instancesDir())
	if err != nil {
		return fmt.Errorf("store: read %s: %w", s.instancesDir(), err)
	}
	for _, de := range ents {
		path := filepath.Join(s.instancesDir(), de.Name())
		if sweepTemp(path, de.Name()) {
			continue
		}
		payload, _, err := readVerified(path)
		if err != nil {
			s.load.Corrupt++
			s.load.Errors = append(s.load.Errors, err.Error())
			continue
		}
		var ip instancePayload
		if err := json.Unmarshal(payload, &ip); err != nil {
			s.load.Corrupt++
			s.load.Errors = append(s.load.Errors, fmt.Sprintf("%s: bad instance payload: %v", path, err))
			continue
		}
		if ip.Version != payloadVersion {
			s.load.Skipped++
			s.load.Errors = append(s.load.Errors, fmt.Sprintf("%s: payload version %d, want %d", path, ip.Version, payloadVersion))
			continue
		}
		s.hasInst[ip.Hash] = true
		s.load.Instances++
	}
	return nil
}

// sweepTemp deletes a stray temp file left by a crashed writer and
// reports whether name was one (or a directory to skip).
func sweepTemp(path, name string) bool {
	if filepath.Ext(name) == ".tmp" {
		os.Remove(path)
		return true
	}
	return filepath.Ext(name) != ".json"
}

// readVerified reads an envelope file and returns its payload after
// checking the checksum.
func readVerified(path string) (json.RawMessage, int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %v", path, err)
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, 0, fmt.Errorf("%s: bad envelope: %v", path, err)
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.Checksum {
		return nil, 0, fmt.Errorf("%s: checksum mismatch", path)
	}
	return env.Payload, int64(len(raw)), nil
}

// writeEntry marshals payload into a checksummed envelope and atomically
// installs it at path via a same-directory temp file and rename.
func writeEntry(path string, payload any) (int64, error) {
	pb, err := json.Marshal(payload)
	if err != nil {
		return 0, fmt.Errorf("store: marshal %s: %w", path, err)
	}
	sum := sha256.Sum256(pb)
	raw, err := json.Marshal(envelope{Checksum: hex.EncodeToString(sum[:]), Payload: pb})
	if err != nil {
		return 0, fmt.Errorf("store: marshal envelope %s: %w", path, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return 0, fmt.Errorf("store: temp for %s: %w", path, err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("store: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("store: install %s: %w", path, err)
	}
	return int64(len(raw)), nil
}

// keyFile maps an arbitrary result-cache key to a filesystem-safe name.
func keyFile(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + ".json"
}

func sketchKey(sketch, solverName, optKey string) string {
	return sketch + "|" + solverName + "|" + optKey
}

// GetReport returns the stored report for a result-cache key.  The
// reports live in memory after Open, so a hit is a map probe.
//
//rt:hotpath — probed on every solve request before any work is queued.
//rt:deterministic — pure lookup; counters aside, it never mutates state.
func (s *Store) GetReport(key string) (solver.WireReport, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.reports[key]; ok {
		s.hits++
		return e.rep, true
	}
	s.misses++
	return solver.WireReport{}, false
}

// PutReport durably stores one completed report under its result-cache
// key.  Incomplete reports are rejected: an interrupted solve is an
// artifact of one request's deadline, not a property of the instance.
func (s *Store) PutReport(key string, meta Meta, rep solver.WireReport) error {
	if !rep.Complete {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.reports[key]; ok {
		return nil // first write wins; repeats are byte-identical anyway
	}
	size, err := writeEntry(filepath.Join(s.reportsDir(), keyFile(key)), reportPayload{
		Version: payloadVersion,
		Key:     key,
		Meta:    meta,
		Report:  rep,
	})
	if err != nil {
		return err
	}
	s.reports[key] = &entry{meta: meta, rep: rep, size: size}
	sk := sketchKey(meta.Sketch, meta.Solver, meta.OptKey)
	keys := append(s.bySketch[sk], key)
	sort.Strings(keys)
	s.bySketch[sk] = keys
	return nil
}

// PutInstance durably stores the raw JSON of an instance under its
// canonical hash, so a later request can name the instance by hash alone.
// Storing any byte-form of the instance is sound: all isomorphic
// encodings share the hash, and readers only ever use the recompiled
// instance, not the encoding.
func (s *Store) PutInstance(hash, sketch string, raw []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hasInst[hash] {
		return nil
	}
	_, err := writeEntry(filepath.Join(s.instancesDir(), hash+".json"), instancePayload{
		Version:  payloadVersion,
		Hash:     hash,
		Sketch:   sketch,
		Instance: json.RawMessage(raw),
	})
	if err != nil {
		return err
	}
	s.hasInst[hash] = true
	return nil
}

// GetInstance re-reads and re-verifies the stored raw instance for a
// canonical hash.  Instances are demand-loaded: only requests naming an
// instance by hash (a frontier by hash, a cluster peer's probe) need
// them, so their bytes do not stay resident.
//
//rt:deterministic — the result is a pure function of the stored file.
func (s *Store) GetInstance(hash string) ([]byte, bool) {
	s.mu.Lock()
	known := s.hasInst[hash]
	s.mu.Unlock()
	if !known {
		return nil, false
	}
	payload, _, err := readVerified(filepath.Join(s.instancesDir(), hash+".json"))
	if err != nil {
		s.noteCorrupt(hash)
		return nil, false
	}
	var ip instancePayload
	if err := json.Unmarshal(payload, &ip); err != nil || ip.Version != payloadVersion {
		s.noteCorrupt(hash)
		return nil, false
	}
	return ip.Instance, true
}

// noteCorrupt records a demand-read failure and forgets the entry so it
// is not retried.
func (s *Store) noteCorrupt(hash string) {
	s.mu.Lock()
	s.corrupt++
	delete(s.hasInst, hash)
	s.mu.Unlock()
}

// Neighbor returns a stored report for a DIFFERENT instance with the
// same structural sketch, solved by the same solver under the same
// options — the warm-start donor for an incoming instance.  Equal
// sketches guarantee index-aligned identical topology, so the donor's
// flow is conserved arc for arc on the new instance.  Only complete
// reports carrying a witness flow and per-arc digests qualify; the
// donor's instance file is not needed.  Candidates are scanned in sorted
// key order, so the choice is deterministic.
//
//rt:deterministic — pure function of the loaded entries.
func (s *Store) Neighbor(sketch, solverName, optKey, excludeHash string) (Meta, solver.WireReport, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, key := range s.bySketch[sketchKey(sketch, solverName, optKey)] {
		e, ok := s.reports[key]
		if !ok || e.meta.Hash == excludeHash {
			continue
		}
		if !e.rep.Complete || len(e.rep.Flow) == 0 {
			continue
		}
		if len(e.meta.Arcs) == 0 {
			continue // stored before digests: its arcs cannot be compared
		}
		return e.meta, e.rep, true
	}
	return Meta{}, solver.WireReport{}, false
}

// Load returns what Open found, for boot-time logging.
func (s *Store) Load() LoadReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.load
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var bytes int64
	for _, e := range s.reports {
		bytes += e.size
	}
	return Stats{
		Entries: len(s.reports),
		Bytes:   bytes,
		Hits:    s.hits,
		Misses:  s.misses,
		Corrupt: s.corrupt,
	}
}
