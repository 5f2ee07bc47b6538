package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/duration"
	"repro/internal/scenario"
)

// resolveShapedDoc renders the instance documents of perfbench's resolve
// edits: a 40x16 layered DAG (about 1,100 arcs, nodes named n0, n1, ...)
// whose arcs carry step functions of 2-4 breakpoints.
func resolveShapedDoc(tb testing.TB) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	g := scenario.NewGen(1).Layered(40, 16, 8)
	for v := 0; v < g.NumNodes(); v++ {
		g.SetName(v, fmt.Sprintf("n%d", v))
	}
	fns := make([]duration.Func, g.NumEdges())
	for e := range fns {
		n := 2 + rng.Intn(3)
		t := int64(n) + 30 + rng.Int63n(31)
		ts := make([]duration.Tuple, n)
		r := int64(0)
		for i := range ts {
			ts[i] = duration.Tuple{R: r, T: t}
			r += 1 + rng.Int63n(4)
			rest := int64(n - 1 - i)
			t = rest + rng.Int63n(t-rest)
		}
		fns[e] = duration.MustStep(ts...)
	}
	data, err := json.Marshal(core.MustInstance(g, fns))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// BenchmarkDecodeInstance decodes a resolve-shaped instance document
// (about 1,100 arcs, 112 KB) with the scanner behind
// Instance.UnmarshalJSON, and with the encoding/json decoder it replaced.
func BenchmarkDecodeInstance(b *testing.B) {
	data := resolveShapedDoc(b)
	for _, bc := range []struct {
		name   string
		decode func([]byte) (*core.Instance, error)
	}{
		{"scan", func(data []byte) (*core.Instance, error) {
			var inst core.Instance
			err := inst.UnmarshalJSON(data)
			return &inst, err
		}},
		{"encoding-json", core.ReferenceUnmarshal},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inst, err := bc.decode(data)
				if err != nil {
					b.Fatal(err)
				}
				decodeSink = inst
			}
		})
	}
}

var decodeSink *core.Instance

// TestResolveShapedDocSize pins BenchmarkDecodeInstance's document to the
// resolve edits it stands for.
func TestResolveShapedDocSize(t *testing.T) {
	data := resolveShapedDoc(t)
	var inst core.Instance
	if err := inst.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if n := inst.G.NumEdges(); n < 1000 || n > 1200 || len(data) < 100<<10 || len(data) > 125<<10 {
		t.Fatalf("%d arcs in %d bytes; want about 1,100 arcs in about 112 KB", n, len(data))
	}
}

// TestDecodeUnknownKindsLinear decodes documents whose arcs each carry a
// different unknown kind, the costliest form of a document that is
// rejected only after it is scanned whole, and checks that the decode
// time grows linearly with the arcs: eight times the arcs must cost well
// under the sixty-four times a quadratic decode would.
func TestDecodeUnknownKindsLinear(t *testing.T) {
	doc := func(arcs int) []byte {
		var b bytes.Buffer
		b.WriteString(`{"nodes":["s","t"],"edges":[`)
		for i := 0; i < arcs; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"from":0,"to":1,"fn":{"kind":"k%d"}}`, i)
		}
		b.WriteString(`]}`)
		return b.Bytes()
	}
	fastest := func(data []byte) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			start := time.Now()
			var inst core.Instance
			if err := inst.UnmarshalJSON(data); err == nil {
				t.Fatal("a document of unknown kinds decoded")
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	small, large := fastest(doc(12_500)), fastest(doc(100_000))
	if large > 24*small {
		t.Fatalf("100,000 arcs took %v, 12,500 took %v: %.0fx for 8x the arcs", large, small, float64(large)/float64(small))
	}
}
