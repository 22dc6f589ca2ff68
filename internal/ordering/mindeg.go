// Package ordering provides fill-reducing column orderings for sparse LU.
// The paper's pipeline step (1) applies the minimum degree algorithm to
// the pattern of AᵀA; RCM and the natural ordering are provided as
// ablation baselines.
package ordering

import (
	"repro/internal/sparse"
)

// MinimumDegree orders the vertices of a symmetric sparsity pattern g
// (given as the structure of a symmetric matrix, diagonal ignored) by
// the approximate minimum degree heuristic of Amestoy, Davis and Duff
// (SIMAX 1996) on a quotient graph: the degree of a variable is an
// upper bound computed from the |Le \ Lp| counters of one pass over the
// new element, indistinguishable variables are merged into weighted
// supervariables, variables whose only neighbour is the new element are
// eliminated with it, and elements contained in the new one are
// absorbed. It returns a permutation in scatter convention:
// perm[old] = new elimination position.
//
// The permutation is a pure function of the pattern: no map is
// iterated, the pivot is always the most recently filed variable of the
// lowest non-empty degree bucket (variables are filed in descending
// index order at the start, so untouched ties go to the smallest index,
// and in boundary order afterwards), and of the members of a
// supervariable the one latest in the boundary is the principal.
func MinimumDegree(g *sparse.Pattern) sparse.Perm {
	if g.NRows != g.NCols {
		panic("ordering: MinimumDegree needs a square (symmetric) pattern")
	}
	n := g.NCols
	perm := make(sparse.Perm, n)
	if n == 0 {
		return perm
	}

	// Quotient graph. A vertex is a variable until it is chosen as a
	// pivot and an element afterwards. list[i] of a variable holds the
	// elements adjacent to i in its first elen[i] entries and the
	// variables adjacent to i after them; list[e] of an element is its
	// boundary Le. Entries that have died since (merged or eliminated
	// variables, weight ≤ 0) are skipped when a list is read and dropped
	// when it is rewritten. A rewritten list never outgrows the old one
	// on a symmetric pattern — the pivot or an absorbed element always
	// leaves it — so the lists stay inside the one buffer cut here.
	buf := make([]int32, 0, g.NNZ())
	list := make([][]int32, n)
	for j := 0; j < n; j++ {
		start := len(buf)
		for _, i := range g.Col(j) {
			if i != j {
				buf = append(buf, int32(i))
			}
		}
		list[j] = buf[start:len(buf):len(buf)]
	}
	var (
		elen     = make([]int32, n)
		weight   = make([]int32, n) // vertices a principal variable stands for; 0 once merged or eliminated; negated while in Lk
		degree   = make([]int32, n) // variable: bound on the external degree; element: |Le|, both in vertices
		deadElem = make([]bool, n)  // element absorbed into a later one
		ext      = make([]int32, n) // |Le \ Lk| for the elements seen at this step
		seen     = make([]int32, n) // step at which ext[e] was started
		mark     = make([]int32, n) // stamps for the exact supervariable comparison
		hash     = make([]uint32, n)
		hhead    = make([]int32, n) // hash bucket → first variable
		hnext    = make([]int32, n)
		member   = make([]int32, n) // next vertex merged into the same principal
		tail     = make([]int32, n) // last vertex of a principal's member chain
		order    = make([]int32, 0, n)
		buckets  = newDegreeLists(n)
	)
	for v := n - 1; v >= 0; v-- {
		weight[v] = 1
		degree[v] = int32(len(list[v]))
		hhead[v], member[v], tail[v] = -1, -1, int32(v)
		buckets.insert(int32(v), degree[v])
	}

	var step, stamp int32
	eliminated, minDeg := 0, int32(0)
	for eliminated < n {
		for buckets.head[minDeg] == -1 {
			minDeg++
		}
		k := buckets.head[minDeg]
		buckets.remove(k, minDeg)
		wk := weight[k]
		eliminated += int(wk)
		order = append(order, k)

		// New element: Lk = (Ak ∪ ⋃ Le, e ∈ Ek) \ {k}; the elements of Ek
		// are absorbed. |Lk| ≤ degree[k] = minDeg, so a pivot without
		// elements builds Lk over its own list and any other in one
		// allocation.
		weight[k] = -wk
		lk := list[k][:0]
		if elen[k] > 0 {
			lk = make([]int32, 0, minDeg)
		}
		dk := int32(0)
		ek := list[k][:elen[k]]
		for t := 0; t <= len(ek); t++ {
			src := list[k][len(ek):] // last of all, k's own variables
			if t < len(ek) {
				e := ek[t]
				src, list[e], deadElem[e] = list[e], nil, true
			}
			for _, i := range src {
				wi := weight[i]
				if wi <= 0 {
					continue
				}
				dk += wi
				weight[i] = -wi
				lk = append(lk, i)
				buckets.remove(i, degree[i])
			}
		}

		// ext[e] = |Le \ Lk| for every element adjacent to a member of Lk.
		step++
		for _, i := range lk {
			wi := -weight[i]
			for _, e := range list[i][:elen[i]] {
				if deadElem[e] {
					continue
				}
				if seen[e] != step {
					seen[e], ext[e] = step, degree[e]
				}
				ext[e] -= wi
			}
		}

		// Rewrite the list of every i ∈ Lk as k, its other live elements,
		// its live variables outside Lk, and bound its external degree by
		// what lies outside Lk: Σ |Le \ Lk| + |Ai \ Lk|.
		for _, i := range lk {
			li := list[i]
			out := li[:0]
			d, h := int32(0), uint32(0)
			for _, e := range li[:elen[i]] {
				if deadElem[e] {
					continue
				}
				if ext[e] > 0 {
					d += ext[e]
					h += uint32(e)
					out = append(out, e)
				} else {
					// Le ⊆ Lk: aggressive absorption.
					list[e], deadElem[e] = nil, true
				}
			}
			ne := len(out)
			for _, j := range li[elen[i]:] {
				if wj := weight[j]; wj > 0 {
					d += wj
					h += uint32(j)
					out = append(out, j)
				}
			}
			if d == 0 {
				// Mass elimination: k is all i is adjacent to, so i follows
				// k without any fill.
				wi := -weight[i]
				dk -= wi
				eliminated += int(wi)
				weight[i], list[i] = 0, nil
				order = append(order, i)
				continue
			}
			if d < degree[i] {
				degree[i] = d
			}
			// k goes first; the first element and the first variable move
			// to the end of their parts to make room.
			out = append(out, k)
			out[len(out)-1] = out[ne]
			out[ne] = out[0]
			out[0] = k
			list[i], elen[i] = out, int32(ne+1)
			h %= uint32(n)
			hash[i], hnext[i], hhead[h] = h, hhead[h], i
		}

		// Supervariables: two members of Lk with the same list (as sets,
		// k aside) are indistinguishable from here on. Equal hashes select
		// the candidates, the stamped comparison decides.
		for _, i := range lk {
			if weight[i] >= 0 {
				continue
			}
			h := hash[i]
			i = hhead[h]
			hhead[h] = -1
			for ; i != -1 && hnext[i] != -1; i = hnext[i] {
				stamp++
				li := list[i]
				for _, x := range li[1:] {
					mark[x] = stamp
				}
				prev := i
				for j := hnext[i]; j != -1; j = hnext[j] {
					lj := list[j]
					same := len(lj) == len(li) && elen[j] == elen[i]
					for t := 1; same && t < len(lj); t++ {
						same = mark[lj[t]] == stamp
					}
					if !same {
						prev = j
						continue
					}
					weight[i] += weight[j]
					weight[j], list[j] = 0, nil
					member[tail[i]], tail[i] = j, tail[j]
					hnext[prev] = hnext[j]
				}
			}
		}

		// Close the element: Lk keeps its surviving principals, which go
		// back to the degree lists under min(old bound, new bound) + |Lk \ i|,
		// capped by the number of vertices left.
		out := lk[:0]
		for _, i := range lk {
			wi := -weight[i]
			if wi <= 0 {
				continue
			}
			weight[i] = wi
			d := degree[i] + dk - wi
			if left := int32(n-eliminated) - wi; d > left {
				d = left
			}
			degree[i] = d
			buckets.insert(i, d)
			if d < minDeg {
				minDeg = d
			}
			out = append(out, i)
		}
		weight[k], degree[k], list[k] = 0, dk, out
		deadElem[k] = len(out) == 0
	}

	// A principal is followed by the vertices merged into it.
	pos := 0
	for _, p := range order {
		for v := p; v != -1; v = member[v] {
			perm[v] = pos
			pos++
		}
	}
	return perm
}

// degreeLists files variables under their degree in doubly linked lists
// threaded through next and prev; a list is a stack.
type degreeLists struct {
	head, next, prev []int32
}

func newDegreeLists(n int) *degreeLists {
	l := &degreeLists{head: make([]int32, n), next: make([]int32, n), prev: make([]int32, n)}
	for i := range l.head {
		l.head[i] = -1
	}
	return l
}

func (l *degreeLists) insert(v, d int32) {
	h := l.head[d]
	l.next[v], l.prev[v] = h, -1
	if h != -1 {
		l.prev[h] = v
	}
	l.head[d] = v
}

func (l *degreeLists) remove(v, d int32) {
	if p := l.prev[v]; p != -1 {
		l.next[p] = l.next[v]
	} else {
		l.head[d] = l.next[v]
	}
	if nx := l.next[v]; nx != -1 {
		l.prev[nx] = l.prev[v]
	}
}
