package solver

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// TestCacheKeyFormat pins appendCacheKey to the historical
// fmt.Sprintf("b%d.t%d.a%g.n%d.p%d", ...) rendering byte for byte, so
// the allocation-free rewrite can never silently re-key a persisted
// cache.  Alpha exercises %g's corners: exponent switchover, shortest
// round-trip decimals, zero, and subnormal.
func TestCacheKeyFormat(t *testing.T) {
	cases := []Options{
		NewOptions(),
		{Budget: 0, Target: -1, Alpha: 0.5, MaxNodes: 0, Parallelism: 0},
		{Budget: 42, Target: 7, Alpha: 1.0 / 3.0, MaxNodes: 1 << 20, Parallelism: 8},
		{Budget: -1, Target: 1 << 40, Alpha: 0.1, MaxNodes: -1, Parallelism: 1},
		{Alpha: 1e-9},
		{Alpha: 0.12345678901234567},
		{Alpha: 0},
		{Alpha: math.SmallestNonzeroFloat64},
	}
	for _, o := range cases {
		want := fmt.Sprintf("b%d.t%d.a%g.n%d.p%d",
			o.Budget, o.Target, o.Alpha, o.MaxNodes, o.Parallelism)
		if got := o.CacheKey(); got != want {
			t.Errorf("CacheKey() = %q, want %q", got, want)
		}
	}
}

// TestCacheKeyCoversOptions is the runtime twin of the rtlint cachekey
// analyzer: every Options field must either change the cache key when
// perturbed or be justified in cacheKeyExcluded, and every exclusion
// must name a real field the key ignores.  An unkeyed option would let
// two different requests collapse onto one cached result.
func TestCacheKeyCoversOptions(t *testing.T) {
	rt := reflect.TypeOf(Options{})
	fields := make(map[string]bool, rt.NumField())
	for i := 0; i < rt.NumField(); i++ {
		fields[rt.Field(i).Name] = true
	}
	for name := range cacheKeyExcluded {
		if !fields[name] {
			t.Errorf("cacheKeyExcluded entry %q names no Options field", name)
		}
	}

	base := NewOptions()
	baseKey := base.CacheKey()
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		_, excluded := cacheKeyExcluded[f.Name]
		if !f.IsExported() {
			// Unexported fields cannot be set through reflection; the
			// analyzer still checks them statically, and they must be
			// excluded here because CacheKey cannot render internal
			// routing hints.
			if !excluded {
				t.Errorf("unexported Options.%s is not in cacheKeyExcluded", f.Name)
			}
			continue
		}
		o := base
		fv := reflect.ValueOf(&o).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64:
			fv.SetInt(fv.Int() + 1)
		case reflect.Float64:
			fv.SetFloat(fv.Float() + 0.125)
		case reflect.Struct: // time.Time (Deadline)
			if !excluded {
				t.Errorf("Options.%s: no perturbation strategy; extend the test", f.Name)
			}
			continue
		case reflect.Slice, reflect.Ptr, reflect.Func:
			// Incumbent / Progress: reference-typed hints and
			// callbacks cannot be rendered into a canonical key, so they
			// must be excluded.
			if !excluded {
				t.Errorf("Options.%s: reference-typed field must be in cacheKeyExcluded", f.Name)
			}
			continue
		default:
			t.Errorf("Options.%s: no perturbation strategy for kind %v; extend the test", f.Name, f.Type.Kind())
			continue
		}
		changed := o.CacheKey() != baseKey
		switch {
		case changed && excluded:
			t.Errorf("Options.%s changes CacheKey but is listed in cacheKeyExcluded; drop the stale exclusion", f.Name)
		case !changed && !excluded:
			t.Errorf("Options.%s does not change CacheKey and is not excluded; it would poison the result cache", f.Name)
		}
	}
}
