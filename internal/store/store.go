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
// Every file is one entry: a header line naming the format and the
// SHA-256 of the payload, then the payload bytes verbatim:
//
//	rtt-store-v2 <hex sha256 of payload>\n<payload>
//
// A report payload is the JSON {key, meta, report}: the full result
// identity (the solver.ResultCacheKey string plus its parts: canonical
// hash, structural sketch, solver name, option key), the instance's
// per-arc digests (meta.arcs, core.ArcDigests, as base64 of their
// little-endian 32-bit words; absent only when the writer passed none)
// and the wire report.  A report entry is filed under the SHA-256 of its
// key.  An instance payload is the raw instance JSON exactly as
// PutInstance received it.
//
// Each entry is written to a temporary file in the same directory and
// renamed into place, so a process crash leaves at most stray *.tmp
// files, deleted on the next Open.  Entries are not fsynced: a power
// loss can leave a torn entry under its final name, which its checksum
// rejects at load.  Open counts every entry once: loaded, corrupt
// (unreadable, truncated, checksum mismatch, unparseable report, a report
// under another key's name) or skipped (another format, including the
// JSON envelopes written by releases before rtt-store-v2).  Nothing
// corrupt or foreign is ever trusted, and nothing of it is fatal.
//
// # What stays in memory
//
// Only what lookups and donor choices decide on: per stored report its
// Meta, whether it can donate a warm start (complete, with a witness
// flow) and its size; per instance, that it exists.  Reports and
// instances are read back, verified and decoded on demand (GetReport,
// Neighbor's chosen donor, GetInstance), so a store's memory grows with
// the digests of its reports, not with their flows.  A demand read that
// fails is counted corrupt and forgotten, as at load.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"repro/internal/solver"
)

// format names the entry format in every header line.  Headers naming
// any other "rtt-store-" format are skipped on load: old binaries must
// not misread new entries and vice versa.
const format = "rtt-store-v2"

// legacyPrefix starts every entry of the JSON-envelope format that
// rtt-store-v2 replaced.  Such entries are recognized only to be skipped.
const legacyPrefix = `{"checksum":`

// errForeign marks a well-formed entry of another format.
var errForeign = errors.New("foreign entry format")

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
	// bytes per arc in memory.  It is empty only when the writer passed
	// none; such reports answer hits but never donate.
	Arcs []uint32 `json:"arcs,omitempty"`
}

// reportPayload is the JSON payload of a report entry.
type reportPayload struct {
	Key    string            `json:"key"`
	Meta   storedMeta        `json:"meta"`
	Report solver.WireReport `json:"report"`
}

// storedMeta is Meta as stored: Arcs, which shadows Meta.Arcs, holds the
// digests' little-endian words, so JSON carries them as base64 (about
// 5.3 bytes per arc, against about 10.8 as a number array).
type storedMeta struct {
	Meta
	Arcs []byte `json:"arcs,omitempty"`
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
	// Corrupt counts entries skipped as unreadable, truncated, failing
	// their checksum, holding an unparseable report, or holding a report
	// under a name other than its key's.
	Corrupt int
	// Skipped counts entries ignored for another format, including the
	// JSON envelopes written before rtt-store-v2.
	Skipped int
	// Errors holds one message per skipped entry, in deterministic
	// (sorted filename) order.
	Errors []string
}

// entry is one stored report as the index keeps it; the report itself
// stays on disk.
type entry struct {
	meta  Meta
	donor bool  // complete, with a witness flow: it may seed a warm start
	size  int64 // the entry's size on disk
}

// Store is a durable map from result identity to completed report, with
// a structural-sketch side index for neighbor lookups.  All methods are
// safe for concurrent use.
type Store struct {
	root string

	mu       sync.Mutex
	reports  map[string]*entry   // result-cache key -> indexed report
	bySketch map[string][]string // sketch|solver|optKey -> sorted keys
	hasInst  map[string]bool     // canonical hash -> instance file exists
	writing  map[string]bool     // entry paths reserved by an unfinished put
	load     LoadReport

	hits, misses, corrupt, bytes int64
}

// Open loads (or creates) the store rooted at dir.  Corrupt or
// foreign-format entries are skipped and reported via LoadReport, never
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
		writing:  make(map[string]bool),
	}
	for _, sub := range []string{s.reportsDir(), s.instancesDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("store: create %s: %w", sub, err)
		}
	}
	var err error
	if s.load.Reports, err = s.loadDir(s.reportsDir(), s.loadReport); err != nil {
		return nil, err
	}
	// Instance bytes stay on disk, re-read by GetInstance on demand; warm
	// starts never read them, since neighbors are compared by digests.
	if s.load.Instances, err = s.loadDir(s.instancesDir(), func(hash string, _ []byte, _ int64) error {
		s.hasInst[hash] = true
		return nil
	}); err != nil {
		return nil, err
	}
	s.corrupt = int64(s.load.Corrupt)
	return s, nil
}

func (s *Store) reportsDir() string   { return filepath.Join(s.root, "reports") }
func (s *Store) instancesDir() string { return filepath.Join(s.root, "instances") }

// loadDir reads every entry in dir in sorted filename order, hands its
// name (extension stripped), verified payload and file size to add, and
// returns how many add accepted.  Every other entry is counted once, as
// skipped (another format) or corrupt; stray temp files are swept.
func (s *Store) loadDir(dir string, add func(name string, payload []byte, size int64) error) (int, error) {
	ents, err := os.ReadDir(dir) // ReadDir sorts by filename
	if err != nil {
		return 0, fmt.Errorf("store: read %s: %w", dir, err)
	}
	loaded := 0
	for _, de := range ents {
		path := filepath.Join(dir, de.Name())
		if filepath.Ext(path) == ".tmp" {
			os.Remove(path) // left by a crashed writer
			continue
		}
		name, ok := strings.CutSuffix(de.Name(), ".json")
		if !ok {
			continue
		}
		raw, err := os.ReadFile(path)
		var payload []byte
		if err == nil {
			payload, err = readEntry(raw)
		}
		if err == nil {
			err = add(name, payload, int64(len(raw)))
		}
		switch {
		case err == nil:
			loaded++
			continue
		case errors.Is(err, errForeign):
			s.load.Skipped++
		default:
			s.load.Corrupt++
		}
		s.load.Errors = append(s.load.Errors, fmt.Sprintf("%s: %v", path, err))
	}
	return loaded, nil
}

// loadReport decodes one report payload into the index.
func (s *Store) loadReport(name string, payload []byte, size int64) error {
	rp, err := decodeReport(payload)
	if err != nil {
		return err
	}
	if name+".json" != keyFile(rp.Key) {
		// Demand reads find a report by its key's file name.
		return fmt.Errorf("report for key %q filed under another name", rp.Key)
	}
	meta := rp.Meta.Meta
	meta.Arcs = make([]uint32, len(rp.Meta.Arcs)/4)
	for i := range meta.Arcs {
		meta.Arcs[i] = binary.LittleEndian.Uint32(rp.Meta.Arcs[4*i:])
	}
	s.index(rp.Key, meta, rp.Report, size)
	return nil
}

// decodeReport parses a verified report payload.
func decodeReport(payload []byte) (reportPayload, error) {
	var rp reportPayload
	err := json.Unmarshal(payload, &rp)
	if err == nil && len(rp.Meta.Arcs)%4 != 0 {
		err = fmt.Errorf("%d digest bytes", len(rp.Meta.Arcs))
	}
	if err != nil {
		return rp, fmt.Errorf("bad report payload: %v", err)
	}
	return rp, nil
}

// index adds one report to the in-memory maps, keeping each sketch
// family's keys sorted.  s.mu must be held, or the store not yet shared.
func (s *Store) index(key string, meta Meta, rep solver.WireReport, size int64) {
	s.reports[key] = &entry{meta: meta, donor: rep.Complete && len(rep.Flow) > 0, size: size}
	sk := sketchKey(meta.Sketch, meta.Solver, meta.OptKey)
	if i, found := slices.BinarySearch(s.bySketch[sk], key); !found {
		s.bySketch[sk] = slices.Insert(s.bySketch[sk], i, key)
	}
	s.bytes += size
}

// readReport reads, verifies and decodes the stored report e indexes
// under key.  A read that fails forgets e and counts it corrupt, as
// GetInstance does.
func (s *Store) readReport(key string, e *entry) (solver.WireReport, bool) {
	raw, err := os.ReadFile(filepath.Join(s.reportsDir(), keyFile(key)))
	var payload []byte
	if err == nil {
		payload, err = readEntry(raw)
	}
	var rp reportPayload
	if err == nil {
		rp, err = decodeReport(payload)
	}
	if err != nil || rp.Key != key {
		s.mu.Lock()
		s.forget(key, e)
		s.mu.Unlock()
		return solver.WireReport{}, false
	}
	return rp.Report, true
}

// forget drops a corrupt report from the index, unless another lookup
// already did.  s.mu must be held.
func (s *Store) forget(key string, e *entry) {
	if s.reports[key] != e {
		return
	}
	delete(s.reports, key)
	sk := sketchKey(e.meta.Sketch, e.meta.Solver, e.meta.OptKey)
	if i, found := slices.BinarySearch(s.bySketch[sk], key); found {
		s.bySketch[sk] = slices.Delete(s.bySketch[sk], i, i+1)
	}
	if len(s.bySketch[sk]) == 0 {
		delete(s.bySketch, sk)
	}
	s.bytes -= e.size
	s.corrupt++
}

// readEntry checks one stored entry and returns its payload, which
// always hashes to the checksum its header names.  An error wrapping
// errForeign marks an entry of another format; any other, a corrupt one.
func readEntry(raw []byte) ([]byte, error) {
	header, payload, ok := bytes.Cut(raw, []byte{'\n'})
	name, _, _ := bytes.Cut(header, []byte{' '})
	switch {
	case bytes.HasPrefix(raw, []byte(legacyPrefix)):
		return nil, fmt.Errorf("%w: a JSON envelope written before %s", errForeign, format)
	case !ok || !bytes.HasPrefix(name, []byte("rtt-store-")):
		return nil, errors.New("no entry header")
	case string(name) != format:
		return nil, fmt.Errorf("%w %.40q", errForeign, name)
	}
	sum := sha256.Sum256(payload)
	if string(header) != format+" "+hex.EncodeToString(sum[:]) {
		return nil, errors.New("checksum mismatch")
	}
	return payload, nil
}

// writeEntry installs payload at path as one entry, the header line then
// the payload verbatim, via a same-directory temp file and a rename, and
// returns the entry's size.
func writeEntry(path string, payload []byte) (int64, error) {
	sum := sha256.Sum256(payload)
	header := format + " " + hex.EncodeToString(sum[:]) + "\n"
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return 0, fmt.Errorf("store: temp for %s: %w", path, err)
	}
	_, err = tmp.WriteString(header)
	if err == nil {
		_, err = tmp.Write(payload)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("store: write %s: %w", path, err)
	}
	return int64(len(header) + len(payload)), nil
}

// put writes one entry without holding s.mu across the write: the path
// is reserved under the lock, so concurrent puts of one entry write it
// once and the first wins, and publish indexes the entry under the lock
// once it is in place.  stored reports, under the lock, whether the
// entry is already published.
func (s *Store) put(path string, payload []byte, stored func() bool, publish func(size int64)) error {
	s.mu.Lock()
	if stored() || s.writing[path] {
		s.mu.Unlock()
		return nil // first write wins; repeats are byte-identical anyway
	}
	s.writing[path] = true
	s.mu.Unlock()
	size, err := writeEntry(path, payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.writing, path)
	if err == nil {
		publish(size)
	}
	return err
}

// keyFile maps an arbitrary result-cache key to a filesystem-safe name.
func keyFile(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + ".json"
}

func sketchKey(sketch, solverName, optKey string) string {
	return sketch + "|" + solverName + "|" + optKey
}

// GetReport returns the stored report for a result-cache key.  A miss is
// a probe of the in-memory index; a hit reads, verifies and decodes the
// report's entry (readReport), and an entry that fails to read counts as
// corrupt and as a miss.
//
//rt:hotpath — probed on every solve request before any work is queued; a miss allocates nothing.
//rt:deterministic — a pure function of the stored entry; counters aside, it mutates state only to forget a corrupt entry.
func (s *Store) GetReport(key string) (solver.WireReport, bool) {
	s.mu.Lock()
	e, ok := s.reports[key]
	if !ok {
		s.misses++
	}
	s.mu.Unlock()
	if !ok {
		return solver.WireReport{}, false
	}
	rep, ok := s.readReport(key, e)
	s.mu.Lock()
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	return rep, ok
}

// PutReport durably stores one completed report under its result-cache
// key.  Incomplete reports are rejected: an interrupted solve is an
// artifact of one request's deadline, not a property of the instance.
func (s *Store) PutReport(key string, meta Meta, rep solver.WireReport) error {
	if !rep.Complete {
		return nil
	}
	sm := storedMeta{Meta: meta, Arcs: make([]byte, 0, 4*len(meta.Arcs))}
	for _, d := range meta.Arcs {
		sm.Arcs = binary.LittleEndian.AppendUint32(sm.Arcs, d)
	}
	payload, err := json.Marshal(reportPayload{Key: key, Meta: sm, Report: rep})
	if err != nil {
		return fmt.Errorf("store: marshal report %q: %w", key, err)
	}
	return s.put(filepath.Join(s.reportsDir(), keyFile(key)), payload,
		func() bool { _, ok := s.reports[key]; return ok },
		func(size int64) { s.index(key, meta, rep, size) })
}

// PutInstance durably stores the raw JSON of an instance under its
// canonical hash, so a later request can name the instance by hash alone;
// GetInstance returns these bytes verbatim.  Storing any byte-form of the
// instance is sound: all isomorphic encodings share the hash, and readers
// only ever use the recompiled instance, not the encoding.  The second
// argument, the instance's sketch, is not stored.
func (s *Store) PutInstance(hash, _ string, raw []byte) error {
	return s.put(filepath.Join(s.instancesDir(), hash+".json"), raw,
		func() bool { return s.hasInst[hash] },
		func(int64) { s.hasInst[hash] = true })
}

// GetInstance re-reads and re-verifies the stored raw instance for a
// canonical hash.  Instances are demand-loaded: only requests naming an
// instance by hash (a frontier by hash, a cluster peer's probe) need
// them, so their bytes do not stay resident.  A corrupt file is counted
// and forgotten, so it is not retried.
//
//rt:deterministic — the result is a pure function of the stored file.
func (s *Store) GetInstance(hash string) ([]byte, bool) {
	s.mu.Lock()
	known := s.hasInst[hash]
	s.mu.Unlock()
	if !known {
		return nil, false
	}
	raw, err := os.ReadFile(filepath.Join(s.instancesDir(), hash+".json"))
	if err == nil {
		raw, err = readEntry(raw)
	}
	if err != nil {
		s.mu.Lock()
		s.corrupt++
		delete(s.hasInst, hash)
		s.mu.Unlock()
		return nil, false
	}
	return raw, true
}

// Neighbor returns a stored report for a DIFFERENT instance with the
// same structural sketch, solved by the same solver under the same
// options — the warm-start donor for an incoming instance.  Equal
// sketches guarantee index-aligned identical topology, so the donor's
// flow is conserved arc for arc on the new instance.  Only complete
// reports carrying a witness flow and per-arc digests qualify; the
// donor's instance file is not needed.  Candidates are scanned in sorted
// key order, so the choice is deterministic; the chosen donor's report is
// read from its entry, and a donor whose entry fails to read is
// forgotten (counted corrupt) and the scan goes on.
//
//rt:deterministic — pure function of the stored entries.
func (s *Store) Neighbor(sketch, solverName, optKey, excludeHash string) (Meta, solver.WireReport, bool) {
	for {
		key, e := s.donor(sketchKey(sketch, solverName, optKey), excludeHash)
		if e == nil {
			return Meta{}, solver.WireReport{}, false
		}
		if rep, ok := s.readReport(key, e); ok {
			return e.meta, rep, true
		}
	}
}

// donor returns the first qualifying donor of a sketch family, in key
// order, or a nil entry.
func (s *Store) donor(sk, excludeHash string) (string, *entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, key := range s.bySketch[sk] {
		e, ok := s.reports[key]
		if !ok || e.meta.Hash == excludeHash || !e.donor {
			continue
		}
		if len(e.meta.Arcs) == 0 {
			continue // stored without digests: its arcs cannot be compared
		}
		return key, e
	}
	return "", nil
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
	return Stats{
		Entries: len(s.reports),
		Bytes:   s.bytes,
		Hits:    s.hits,
		Misses:  s.misses,
		Corrupt: s.corrupt,
	}
}
