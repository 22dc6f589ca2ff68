package core

import (
	"slices"
	"testing"

	"repro/internal/matgen"
	"repro/internal/taskgraph"
)

// perBlockTargets is the Schur step's merge walk one block at a time:
// the (t, tj) index pairs of panel K's sub-diagonal blocks whose block
// row column J also stores, in ascending block row.
func perBlockTargets(colK, colJ *colLayout, tk int) [][2]int {
	var out [][2]int
	tj := tk + 1
	for t := colK.diagIdx + 1; t < len(colK.blockRows); t++ {
		i := colK.blockRows[t]
		for tj < len(colJ.blockRows) && colJ.blockRows[tj] < i {
			tj++
		}
		if tj == len(colJ.blockRows) {
			break
		}
		if colJ.blockRows[tj] == i {
			out = append(out, [2]int{t, tj})
		}
	}
	return out
}

// TestUpdateRuns pins the run-merged Schur step of update to the
// per-block walk: on every SmallSuite analysis and every stored task
// U(K,J), the runs nextRun returns visit exactly the target blocks the
// per-block walk visits, in the same order, and each run's blocks are
// stacked back to back in both column K's and column J's slab, so one
// Dgemm on the run's first rows covers them all. Some run must span two
// or more blocks, or the golden and parity suites would not reach the
// merged calls.
func TestUpdateRuns(t *testing.T) {
	runs, merged, longest := 0, 0, 0
	for _, spec := range matgen.SmallSuite() {
		s, err := Analyze(spec.Gen(), DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, task := range s.Graph.Tasks {
			if task.Kind != taskgraph.Update {
				continue
			}
			colK, colJ := &s.layout[task.K], &s.layout[task.J]
			tk := findBlock(colJ.blockRows, task.K)
			if tk < 0 {
				t.Fatalf("%s: U(%d,%d) has no stored block", spec.Name, task.K, task.J)
			}
			var got [][2]int
			r, rj := colK.diagIdx+1, tk+1
			for {
				var n int
				r, rj, n = nextRun(colK.blockRows, colJ.blockRows, r, rj)
				if n == 0 {
					break
				}
				rows := 0
				for q := 0; q < n; q++ {
					if colK.offsets[r+q] != colK.offsets[r]+rows || colJ.offsets[rj+q] != colJ.offsets[rj]+rows {
						t.Fatalf("%s: U(%d,%d): block %d of a run is not contiguous with the run's start", spec.Name, task.K, task.J, q)
					}
					rows += s.Part.Size(colK.blockRows[r+q])
					got = append(got, [2]int{r + q, rj + q})
				}
				if colK.rowEnd(r+n-1)-colK.offsets[r] != rows || colJ.rowEnd(rj+n-1)-colJ.offsets[rj] != rows {
					t.Fatalf("%s: U(%d,%d): a run of %d rows spans %d rows of column K and %d of column J", spec.Name, task.K, task.J,
						rows, colK.rowEnd(r+n-1)-colK.offsets[r], colJ.rowEnd(rj+n-1)-colJ.offsets[rj])
				}
				runs++
				if n > 1 {
					merged++
				}
				longest = max(longest, n)
				r, rj = r+n, rj+n
			}
			if want := perBlockTargets(colK, colJ, tk); !slices.Equal(got, want) {
				t.Fatalf("%s: U(%d,%d): runs visit %v, the per-block walk %v", spec.Name, task.K, task.J, got, want)
			}
			for _, p := range got {
				if colK.blockRows[p[0]] != colJ.blockRows[p[1]] {
					t.Fatalf("%s: U(%d,%d): run pairs block row %d of K with %d of J", spec.Name, task.K, task.J,
						colK.blockRows[p[0]], colJ.blockRows[p[1]])
				}
			}
		}
	}
	t.Logf("%d runs, %d of them over two or more blocks, longest %d", runs, merged, longest)
	if longest < 2 {
		t.Fatal("no run spans two blocks: the merged update path is never exercised")
	}
}
