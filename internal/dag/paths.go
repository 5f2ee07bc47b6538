package dag

// Paths enumerates source-to-sink paths between s and t as sequences of edge
// IDs, visiting at most limit paths (limit <= 0 means no bound).  It reports
// whether enumeration was exhaustive.
func (g *Graph) Paths(s, t, limit int) (paths [][]int, exhaustive bool) {
	exhaustive = true
	var cur []int
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == t {
			paths = append(paths, append([]int(nil), cur...))
			return limit <= 0 || len(paths) < limit
		}
		for _, e := range g.out[v] {
			cur = append(cur, e)
			ok := rec(g.edges[e].To)
			cur = cur[:len(cur)-1]
			if !ok {
				exhaustive = false
				return false
			}
		}
		return true
	}
	rec(s)
	return paths, exhaustive
}

// CountPaths returns the number of distinct s-to-t paths, saturating at the
// given cap to avoid overflow on dense DAGs.
func (g *Graph) CountPaths(s, t int, cap int64) int64 {
	order, err := g.TopoOrder()
	if err != nil {
		return 0
	}
	cnt := make([]int64, len(g.names))
	cnt[s] = 1
	for _, v := range order {
		if cnt[v] == 0 {
			continue
		}
		for _, e := range g.out[v] {
			w := g.edges[e].To
			cnt[w] += cnt[v]
			if cnt[w] > cap {
				cnt[w] = cap
			}
		}
	}
	return cnt[t]
}
