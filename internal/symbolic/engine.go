package symbolic

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/sparse"
)

// The engine's failures: a seed it cannot register, and a step no row
// group is a candidate at (a structurally zero pivot). Callers match
// them with errors.Is.
var (
	ErrSeed        = errors.New("symbolic: malformed engine seed")
	ErrNoCandidate = errors.New("symbolic: no candidate rows")
)

// columns collects the per-column outputs of the elimination: column k
// of L̄ (rows > k) and row k of Ū (columns > k), both ascending. Engines
// running over disjoint column sets write to disjoint slots, so one
// columns value can be shared by the subtree engines of a parallel
// factorization. The slices point into engine arenas; pack copies them
// out, so nothing engine-owned outlives the factorization.
type columns struct {
	n     int
	lCols [][]int32
	uRows [][]int32
}

func newColumns(n int) *columns {
	return &columns{n: n, lCols: make([][]int32, n), uRows: make([][]int32, n)}
}

// pack assembles the per-column outputs into a Result, every slice
// exact-sized, the diagonal added in front of each column and row.
func (out *columns) pack() *Result {
	withDiagonal := func(tails [][]int32) *sparse.Pattern {
		n := out.n
		p := &sparse.Pattern{NRows: n, NCols: n, ColPtr: make([]int, n+1)}
		for k, t := range tails {
			p.ColPtr[k+1] = p.ColPtr[k] + 1 + len(t)
		}
		p.RowInd = make([]int, p.ColPtr[n])
		for k, t := range tails {
			dst := p.RowInd[p.ColPtr[k]:p.ColPtr[k+1]]
			dst[0] = k
			for i, v := range t {
				dst[1+i] = int(v)
			}
		}
		return p
	}
	return &Result{N: out.n, L: withDiagonal(out.lCols), URows: withDiagonal(out.uRows)}
}

// group is a set of rows with identical current structure, both lists
// ascending. cols[0] is the smallest column not yet eliminated — the
// next step the group is a candidate at. The slices are never written
// after they are built, only re-sliced, so a step's outputs, a
// survivor handed to another engine and the group itself may share one
// backing array. A dead group has no cols.
type group struct {
	members []int32
	cols    []int32
}

// arena hands out int32 slices cut from chunks that double up to
// arenaChunk entries, so the engine allocates per chunk, not per step,
// and leaves at most one chunk's worth unused.
type arena struct {
	buf []int32 // current chunk: len is the used part
}

const arenaChunk = 1 << 16

func (a *arena) alloc(n int) []int32 {
	if cap(a.buf)-len(a.buf) < n {
		a.buf = make([]int32, 0, max(n, min(2*cap(a.buf), arenaChunk), 1024))
	}
	lo := len(a.buf)
	a.buf = a.buf[:lo+n]
	return a.buf[lo : lo+n : lo+n]
}

// release returns the last n entries of the latest alloc.
func (a *arena) release(n int) { a.buf = a.buf[:len(a.buf)-n] }

// engine runs the George–Ng group-merging elimination over a set of
// columns. Row and column indices are always global.
//
// A live group is registered under its first column only. It cannot be
// a candidate at an earlier step — it has no earlier column — and at
// that step it is merged, and the survivor registered under the first
// column of the union; so the list of a step holds exactly the step's
// candidates, each once, and a group whose first column is not a step
// of this engine is never touched: it is a survivor (DESIGN.md §18).
type engine struct {
	n      int
	out    *columns
	groups []group
	next   []int32 // next[g]: the next group registered under the same column; -1 ends the list
	head   []int32 // head[c]: a live group whose first column is c; -1 if none
	marker []int32 // union dedup scratch, stamped with the step; init -1
	mem    arena
}

// newEngine returns an engine over n columns writing to out, sized for
// the given number of seeded groups (a hint: more may follow).
func newEngine(n int, out *columns, seeds int) *engine {
	scratch := make([]int32, 2*n)
	for i := range scratch {
		scratch[i] = -1
	}
	return &engine{n: n, out: out, head: scratch[:n], marker: scratch[n:],
		groups: make([]group, 0, seeds), next: make([]int32, 0, seeds)}
}

// copyInts copies an index list into the engine's arena.
func (e *engine) copyInts(v []int) []int32 {
	c := e.mem.alloc(len(v))
	for t, x := range v {
		c[t] = int32(x)
	}
	return c
}

// seedRow adds a singleton group for one row with the given structure
// (ascending column indices).
func (e *engine) seedRow(row int32, cols []int) error {
	members := e.mem.alloc(1)
	members[0] = row
	return e.seedGroup(group{members: members, cols: e.copyInts(cols)})
}

// ascendingIn reports whether v is strictly ascending within [0, n).
func ascendingIn(v []int32, n int) bool {
	prev := int32(-1)
	for _, x := range v {
		if x <= prev || int(x) >= n {
			return false
		}
		prev = x
	}
	return true
}

// seedGroup adds a pre-built group (a subtree survivor carried into the
// top engine) and registers it under its first column. The engine reads
// the group's slices and never writes them.
func (e *engine) seedGroup(g group) error {
	if len(g.members) == 0 || len(g.cols) == 0 {
		return fmt.Errorf("%w: %d rows, %d columns", ErrSeed, len(g.members), len(g.cols))
	}
	if !ascendingIn(g.members, e.n) || !ascendingIn(g.cols, e.n) {
		return fmt.Errorf("%w: rows %v, columns %v not ascending in [0,%d)", ErrSeed, g.members, g.cols, e.n)
	}
	e.groups = append(e.groups, g)
	e.next = append(e.next, -1)
	e.register(int32(len(e.groups) - 1))
	return nil
}

// register files a group under its first column, or retires it when it
// has run out of rows or columns.
func (e *engine) register(gid int32) {
	g := &e.groups[gid]
	if len(g.members) == 0 || len(g.cols) == 0 {
		*g = group{}
		return
	}
	c := g.cols[0]
	e.next[gid] = e.head[c]
	e.head[c] = gid
}

// run eliminates the given ascending column list (nil means all columns
// 0..n-1), writing each column's output into e.out.
func (e *engine) run(steps []int32) error {
	if steps == nil {
		for k := 0; k < e.n; k++ {
			if err := e.step(int32(k)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, k := range steps {
		if err := e.step(k); err != nil {
			return err
		}
	}
	return nil
}

// step eliminates column k: merges the candidate row groups, records
// column k of L̄ and row k of Ū, and retires the pivot position.
func (e *engine) step(k int32) error {
	first := e.head[k]
	if first < 0 {
		return fmt.Errorf("%w at step %d", ErrNoCandidate, k)
	}
	e.head[k] = -1
	g := &e.groups[first]

	// A lone group passes through: its rows and columns are the step's
	// outputs as they stand, already ascending.
	if e.next[first] < 0 {
		for len(g.members) > 0 && g.members[0] <= k {
			g.members = g.members[1:]
		}
		g.cols = g.cols[1:]
		e.out.lCols[k], e.out.uRows[k] = g.members, g.cols
		e.register(first)
		return nil
	}

	// Several groups: the rows > k of all of them and the union of their
	// structures beyond k, built in one arena block sized by the sums.
	nm, nc := 0, 0
	for id := first; id >= 0; id = e.next[id] {
		nm += len(e.groups[id].members)
		nc += len(e.groups[id].cols) - 1
	}
	block := e.mem.alloc(nm + nc)
	members, union := block[:0:nm], block[nm:nm:nm+nc]
	for id := first; id >= 0; id = e.next[id] {
		c := &e.groups[id]
		for _, m := range c.members {
			if m > k {
				members = append(members, m)
			}
		}
		for _, col := range c.cols[1:] {
			if e.marker[col] != k {
				e.marker[col] = k
				union = append(union, col)
			}
		}
		*c = group{}
	}
	e.mem.release(nc - len(union))
	slices.Sort(members)
	slices.Sort(union)
	e.out.lCols[k], e.out.uRows[k] = members, union

	// The merged group takes the first candidate's slot.
	*g = group{members: members, cols: union}
	e.register(first)
	return nil
}

// survivors returns the groups still alive after run: rows not yet
// eliminated, carrying their reduced structures. For a subtree engine
// these are exactly the rows whose pivot column lies in the top region.
func (e *engine) survivors() []group {
	var out []group
	for _, g := range e.groups {
		if len(g.cols) > 0 {
			out = append(out, g)
		}
	}
	return out
}
