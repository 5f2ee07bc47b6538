package core

// Levels is the pull-based sweep schedule of a compiled DAG, in level
// order.  The relaxation engine's makespan and oracle sweeps, and any
// other longest/shortest-path DP over the instance, consume it.
//
// A node's level is its depth: the length (in arcs) of the longest path
// ending at it, so every arc goes from a strictly shallower level to a
// strictly deeper one.  Order lists nodes level by level (ascending node
// id within a level); it is therefore a valid topological order, and Pos
// is its inverse.  The sweep schedule re-indexes the CSR in-adjacency by
// position: position p's in-arcs occupy slots [SlotStart[p],
// SlotStart[p+1]), with SlotFrom[s] the *position* of the arc's tail and
// SlotArc[s] the arc id.  A pull sweep then walks three sequential arrays
// front to back — measurably faster than gathering through InArcs/ArcFrom
// — and per-slot payloads (envelope durations, oracle costs) live in
// slot-indexed arrays kept in sync via ArcSlot.
//
// Levels are built once per compiled instance (Compiled.Levels) and are
// read-only afterwards; concurrent readers need no synchronization.
type Levels struct {
	// Order lists node ids level by level, ascending id within a level.
	// It is a valid topological order.
	Order []int32
	// Pos[v] is v's position in Order (the inverse permutation).
	Pos []int32

	// SlotStart bounds each position's in-arc slots: position p owns
	// slots [SlotStart[p], SlotStart[p+1]).  len(SlotStart) == n+1.
	SlotStart []int32
	// SlotFrom[s] is the position (not node id) of slot s's tail node.
	SlotFrom []int32
	// SlotArc[s] is the arc id occupying slot s.  Slots within one
	// position follow the CSR in-arc order, so the slot order is as
	// deterministic as the CSR itself.
	SlotArc []int32
	// ArcSlot[e] is the slot holding arc e (the inverse of SlotArc).
	ArcSlot []int32
}

// Levels returns the level-ordered pull-sweep schedule, built once and
// cached.  The relaxation engine runs its makespan and oracle sweeps over
// it.
func (c *Compiled) Levels() *Levels {
	c.levelsOnce.Do(func() { c.levels = buildLevels(c) })
	return c.levels
}

// buildLevels derives the level order and slot schedule from the compiled
// CSR.
func buildLevels(c *Compiled) *Levels {
	n := len(c.OutStart) - 1
	m := len(c.ArcFrom)
	lv := &Levels{
		Order: make([]int32, n),
		Pos:   make([]int32, n),
	}
	// Depth by pulling over in-arcs in topological order: every tail is
	// assigned before its heads.
	depth := make([]int32, n)
	maxDepth := int32(0)
	for _, v := range c.Topo {
		d := int32(0)
		for i := c.InStart[v]; i < c.InStart[v+1]; i++ {
			if pd := depth[c.ArcFrom[c.InArcs[i]]] + 1; pd > d {
				d = pd
			}
		}
		depth[v] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	// Counting sort by depth; scanning node ids ascending makes the order
	// within each level ascending by id, independent of Topo's tie-breaks.
	// next[d] is the first free position of level d.
	next := make([]int32, maxDepth+2)
	for v := 0; v < n; v++ {
		next[depth[v]+1]++
	}
	for d := int32(0); d <= maxDepth; d++ {
		next[d+1] += next[d]
	}
	for v := 0; v < n; v++ {
		d := depth[v]
		p := next[d]
		next[d]++
		lv.Order[p] = int32(v)
		lv.Pos[v] = p
	}
	// Slot schedule: in-arcs re-indexed by position, tails as positions.
	lv.SlotStart = make([]int32, n+1)
	lv.SlotFrom = make([]int32, m)
	lv.SlotArc = make([]int32, m)
	lv.ArcSlot = make([]int32, m)
	s := int32(0)
	for p := 0; p < n; p++ {
		lv.SlotStart[p] = s
		v := lv.Order[p]
		for i := c.InStart[v]; i < c.InStart[v+1]; i++ {
			e := c.InArcs[i]
			lv.SlotArc[s] = e
			lv.SlotFrom[s] = lv.Pos[c.ArcFrom[e]]
			lv.ArcSlot[e] = s
			s++
		}
	}
	lv.SlotStart[n] = s
	return lv
}
