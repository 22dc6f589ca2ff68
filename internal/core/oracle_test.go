package core

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// TestLayoutFreeOracleParity checks the factors against the matrix
// itself, through nothing but the rows the layout stores, so it holds on
// any layout that stores every row that can be non-zero:
//
//   - L and U are rebuilt from the stored rows, σ_K of every panel is
//     applied to the L columns left of it as LAPACK's getrf does, and
//     ‖P·A₂ − L·U‖∞ must stay within a few ε·‖|L|·|U|‖∞ (under
//     PivotPerturb the replaced pivots' own entries are allowed their
//     replacement, at most 2·PivotThreshold each);
//   - every product the target maps drop (target −1) is ±0, recomputed
//     from the final planned row of L(·,K) and U(K,J): the row the
//     layout leaves out of column J receives nothing.
//
// A row dropped from a column's layout loses its entries of L (the
// residual grows) or a product that is not zero; a target mapped one row
// off writes a product into the wrong row (the residual grows). The
// inputs are the small suite and GenPatterns seeds 1–60 with their own
// values and N(0,1) values, analysed with the default amalgamation and
// with a loose one (MaxFill 0.75: at the default, the maps of these
// small inputs drop no product), under PivotFail and PivotPerturb at
// P ∈ {1, 2, 4, 8}. Its name ends in Parity so that check.sh chaos runs it
// under the race detector with the engine's other parity suites.
func TestLayoutFreeOracleParity(t *testing.T) {
	const bound = 8 // in units of ε·‖|L|·|U|‖∞
	worst, dropped, nonFinite, runs := 0.0, 0, 0, 0
	loose := DefaultOptions()
	loose.Amalgamation.MaxFill = 0.75
	for _, in := range oracleInputs() {
		for _, opts := range []*Options{DefaultOptions(), loose} {
			s, err := Analyze(in.a, opts)
			if err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			a2 := permutedRows(s, in)
			for _, policy := range []PivotPolicy{PivotFail, PivotPerturb} {
				for _, p := range []int{1, 2, 4, 8} {
					ctx := fmt.Sprintf("%s MaxFill=%g %v P=%d", in.name, opts.Amalgamation.MaxFill, policy, p)
					f, err := FactorizeWithOpts(s, in.a, &NumericOptions{PivotPolicy: policy, Workers: p})
					if errors.Is(err, ErrNonFinite) {
						nonFinite++
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					runs++
					r := residualRatio(f, a2)
					if !(r <= bound) {
						t.Fatalf("%s: ‖P·A₂ − L·U‖∞ is %.3g ε·‖|L|·|U|‖∞, bound %d", ctx, r, bound)
					}
					worst = max(worst, r)
					dropped += checkDroppedProducts(t, ctx, f)
				}
			}
		}
	}
	t.Logf("%d factorizations: worst residual %.3g ε·‖|L|·|U|‖∞; %d dropped products, all ±0; %d hit a non-finite value",
		runs, worst, dropped, nonFinite)
	if dropped == 0 {
		t.Fatal("no target map drops a product: the second check never ran")
	}
}

// sparseRow is one row of a sparse matrix as column/value pairs.
type sparseRow struct {
	cols []int
	vals []float64
}

func (r *sparseRow) add(j int, v float64) {
	r.cols = append(r.cols, j)
	r.vals = append(r.vals, v)
}

// permutedRows returns the rows of A₂, the matrix the kernels factor
// (no equilibration): entry (i, j) of a is entry (SolvePerm[i],
// SymPerm[j]).
func permutedRows(s *Symbolic, in oracleInput) []sparseRow {
	rows := make([]sparseRow, s.N)
	for jo := 0; jo < in.a.NCols; jo++ {
		ri, vals := in.a.Col(jo)
		for k, io := range ri {
			rows[s.SolvePerm[io]].add(s.SymPerm[jo], vals[k])
		}
	}
	return rows
}

// residualRatio rebuilds L (unit lower, by rows) and U (by rows) from
// f's stored rows and returns ‖P·A₂ − L·U‖∞ / (ε·‖|L|·|U|‖∞), P the
// product of the panels' interchanges.
func residualRatio(f *Factorization, a2 []sparseRow) float64 {
	n, part := f.S.N, f.S.Part
	l := make([]sparseRow, n)
	u := make([]sparseRow, n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for k := range f.cols {
		c := &f.cols[k]
		w, base := c.width, part.BlockStart[k]
		// σ_K moves whole rows of the L columns left of panel K.
		for lc, g := range f.ipiv[k] {
			if r := base + lc; g != r {
				l[r], l[g] = l[g], l[r]
				perm[r], perm[g] = perm[g], perm[r]
			}
		}
		for t := 0; t < c.diagIdx; t++ {
			ilo, ihi := part.Range(c.blockRows[t])
			for i := ilo; i < ihi; i++ {
				row := c.data[(c.offsets[t]+i-ilo)*w:][:w]
				for lc, v := range row {
					u[i].add(base+lc, v)
				}
			}
		}
		po := c.panelOffset()
		for r := 0; r < w; r++ {
			row := c.data[(po+r)*w:][:w]
			for lc, v := range row {
				if lc < r {
					l[base+r].add(base+lc, v)
				} else {
					u[base+r].add(base+lc, v)
				}
			}
		}
		for p, g := range c.plan {
			row := c.data[(po+w+p)*w:][:w]
			for lc, v := range row {
				l[g].add(base+lc, v)
			}
		}
	}
	// Under PivotPerturb, the replaced pivots differ from the matrix by
	// up to twice the threshold.
	slack := make([]float64, n)
	for _, cols := range f.perturbed {
		for _, j := range cols {
			slack[j] = 2 * f.pivotTol
		}
	}
	uNorm := make([]float64, n) // ‖U(i,:)‖₁
	for i := range u {
		for _, v := range u[i].vals {
			uNorm[i] += math.Abs(v)
		}
	}
	acc := make([]float64, n)
	res, scale := 0.0, 0.0
	for i := 0; i < n; i++ {
		clear(acc)
		src := &a2[perm[i]]
		for q, j := range src.cols {
			acc[j] += src.vals[q]
		}
		// The unit diagonal of L, then the stored multipliers.
		lu := uNorm[i]
		for q, v := range u[i].vals {
			acc[u[i].cols[q]] -= v
		}
		for q, k := range l[i].cols {
			m := l[i].vals[q]
			lu += math.Abs(m) * uNorm[k]
			for qq, v := range u[k].vals {
				acc[u[k].cols[qq]] -= m * v
			}
		}
		acc[i] = math.Max(0, math.Abs(acc[i])-slack[i])
		sum := 0.0
		for _, v := range acc {
			sum += math.Abs(v)
		}
		res, scale = max(res, sum), max(scale, lu)
	}
	if res == 0 {
		return 0
	}
	return res / (0x1p-52 * scale)
}

// checkDroppedProducts recomputes, for every stored U(K,J), the product
// of each planned row of K whose target in J is −1 with U(K,J), and
// fails unless every entry is ±0. It returns how many rows it checked.
func checkDroppedProducts(t *testing.T, ctx string, f *Factorization) (n int) {
	t.Helper()
	for j := range f.cols {
		colJ := &f.cols[j]
		wj := colJ.width
		for tk, k := range colJ.blockRows[:colJ.diagIdx] {
			colK := &f.cols[k]
			wk := colK.width
			ukj := colJ.data[colJ.offsets[tk]*wj:][:wk*wj]
			sub := colK.data[(colK.panelOffset()+wk)*wk:]
			for p, to := range colJ.target(tk, len(colK.plan)) {
				if to >= 0 {
					continue
				}
				n++
				lrow := sub[p*wk:][:wk]
				for jj := 0; jj < wj; jj++ {
					s := 0.0
					for q, v := range lrow {
						s += v * ukj[q*wj+jj]
					}
					if s != 0 {
						t.Fatalf("%s: row %d of panel %d is not stored in column %d, but its product with U(%d,%d) is %v at local column %d",
							ctx, colK.plan[p], k, j, k, j, s, jj)
					}
				}
			}
		}
	}
	return n
}
