package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadEntry feeds arbitrary bytes to the entry reader and to Open.
// The reader must never panic, and a payload it returns must hash to the
// checksum its header names.  Open, given the same bytes as one report
// and one instance file, must count each exactly once — loaded, corrupt
// or skipped — and agree with the reader on which.
func FuzzReadEntry(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.PutReport("exact|hash-0000|opts", testMeta(0), testReport(0)); err != nil {
		f.Fatal(err)
	}
	if err := s.PutInstance("hash-0000", "sketch-a", testInstance(0)); err != nil {
		f.Fatal(err)
	}
	report, err := os.ReadFile(filepath.Join(dir, "reports", keyFile("exact|hash-0000|opts")))
	if err != nil {
		f.Fatal(err)
	}
	instance, err := os.ReadFile(filepath.Join(dir, "instances", "hash-0000.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(report)
	f.Add(instance)
	f.Add(legacyEnvelope(f, map[string]any{"version": 1, "key": "k", "meta": testMeta(0), "report": testReport(0)}))
	f.Add(report[:len(report)/2])
	f.Add([]byte("not json at all"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		payload, rerr := readEntry(raw)
		if rerr == nil {
			header, _, _ := bytes.Cut(raw, []byte{'\n'})
			sum := sha256.Sum256(payload)
			if string(header) != format+" "+hex.EncodeToString(sum[:]) {
				t.Fatalf("payload returned under header %q does not match its checksum", header)
			}
		}

		dir := t.TempDir()
		for _, sub := range []string{"reports", "instances"} {
			if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, sub, "entry.json"), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		lr := s.Load()
		if lr.Reports+lr.Instances+lr.Corrupt+lr.Skipped != 2 || len(lr.Errors) != lr.Corrupt+lr.Skipped {
			t.Fatalf("two files counted as %+v", lr)
		}
		switch {
		case errors.Is(rerr, errForeign):
			if lr.Skipped != 2 {
				t.Fatalf("reader: %v; Open counted %+v", rerr, lr)
			}
		case rerr != nil:
			if lr.Corrupt != 2 {
				t.Fatalf("reader: %v; Open counted %+v", rerr, lr)
			}
		case lr.Instances != 1 || lr.Skipped != 0:
			t.Fatalf("reader accepted the entry; Open counted %+v", lr)
		}
	})
}
