package store

import (
	"fmt"
	"testing"
)

// BenchmarkStoreLookup measures GetReport at a realistic store size: a
// miss, the probe of the in-memory index on every solve request's hot
// path, and a hit, which reads, verifies and decodes the report's entry.
func BenchmarkStoreLookup(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	const n = 1024
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = fmt.Sprintf("exact|hash-%04d|opts", i)
		if err := s.PutReport(keys[i], testMeta(i), testReport(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := s.GetReport("exact|absent|opts"); ok {
				b.Fatal("hit on an absent key")
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := s.GetReport(keys[i%n]); !ok {
				b.Fatal("miss on a stored key")
			}
		}
	})
}
