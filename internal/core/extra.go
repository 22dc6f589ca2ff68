package core

import (
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// SolveTranspose solves Aᵀ·x = b for the original matrix. b is not
// modified.
//
// With A₂ = P_c·P_r·A·P_cᵀ factored as (Π_k P_kᵀL_k)·U, the transposed
// system A₂ᵀ·z = P_c·b is solved by a forward sweep with Ûᵀ followed by
// the reversed product of L_kᵀ and the pivot interchanges, and finally
// x = P_rᵀ·P_cᵀ·z. Both sweeps run serially: the Ûᵀ sweep in ascending
// block-column order, the Lᵀ sweep in descending order.
func (f *Factorization) SolveTranspose(b []float64) ([]float64, error) {
	if len(b) != f.S.N {
		return nil, fmt.Errorf("core: rhs has length %d, want %d", len(b), f.S.N)
	}
	if f.Singular() {
		return nil, f.singularError()
	}
	// With equilibration, (R·A₂·C)ᵀ·z = C·P_sym b and x comes back as
	// P_rᵀP_cᵀ(R·z).
	ws := f.getWorkspace()
	y := ws.panel(f.S.N)
	for i, v := range b {
		y[f.S.SymPerm[i]] = v
	}
	if f.cscale != nil {
		for i := range y {
			y[i] *= f.cscale[i]
		}
	}
	rec, ctx, stop := f.solveOpts(nil)
	defer stop()
	nb := len(f.cols)
	if err := sweep(ctx, nb, false, rec, trace.KindSolveU, func(k int) { f.fwdStepT(k, y) }); err != nil {
		f.putWorkspace(ws)
		return nil, err
	}
	if err := sweep(ctx, nb, true, rec, trace.KindSolveL, func(k int) { f.bwdStepT(k, y) }); err != nil {
		f.putWorkspace(ws)
		return nil, err
	}
	if f.rscale != nil {
		for i := range y {
			y[i] *= f.rscale[i]
		}
	}
	// x = P_rᵀ·P_cᵀ·y gathers through the composed permutation.
	x := make([]float64, f.S.N)
	for i := range x {
		x[i] = y[f.S.SolvePerm[i]]
	}
	f.putWorkspace(ws)
	return x, nil
}

// fwdStepT is the transpose forward-sweep step of block column k (the
// Ûᵀ sweep, lower triangular): subtract the contributions of the U
// blocks above the diagonal, then solve with the transposed diagonal U
// factor. It reads the block rows of Ū's column k and writes only
// block k.
func (f *Factorization) fwdStepT(k int, y []float64) {
	c := &f.cols[k]
	w := c.width
	lo, _ := f.S.Part.Range(k)
	yk := y[lo : lo+w]
	for t := 0; t < c.diagIdx; t++ {
		i := c.blockRows[t]
		ilo, ihi := f.S.Part.Range(i)
		// y_K ← y_K − U(I,K)ᵀ·y_I
		blas.Dgemv(true, ihi-ilo, w, -1, c.data[c.offsets[t]*w:], w, y[ilo:ihi], 1, yk)
	}
	diag := c.data[c.panelOffset()*w:]
	blas.Dtrsvt(false, false, w, diag, w, yk) // (upper U)ᵀ solve
}

// bwdStepT is the transpose backward-sweep step of block column k:
// solve L_Kᵀ and then undo σ_K (apply its swaps in reverse order).
func (f *Factorization) bwdStepT(k int, y []float64) {
	c := &f.cols[k]
	w := c.width
	lo, _ := f.S.Part.Range(k)
	yk := y[lo : lo+w]
	for t := c.diagIdx + 1; t < len(c.blockRows); t++ {
		i := c.blockRows[t]
		ilo, ihi := f.S.Part.Range(i)
		blas.Dgemv(true, ihi-ilo, w, -1, c.data[c.offsets[t]*w:], w, y[ilo:ihi], 1, yk)
	}
	diag := c.data[c.panelOffset()*w:]
	blas.Dtrsvt(true, true, w, diag, w, yk) // (unit lower L)ᵀ solve
	prows := c.panelRows
	for lc := len(f.ipiv[k]) - 1; lc >= 0; lc-- {
		if r := f.ipiv[k][lc]; r != lc {
			y[prows[lc]], y[prows[r]] = y[prows[r]], y[prows[lc]]
		}
	}
}

// SolveRefined solves A·x = b and applies up to maxIter steps of
// iterative refinement, stopping once the scaled backward error drops
// below tol (tol ≤ 0 means machine-precision level, 1e-14). Returns the
// solution, the final backward error, and the refinement steps taken.
func (f *Factorization) SolveRefined(a *sparse.CSC, b []float64, maxIter int, tol float64) ([]float64, float64, int, error) {
	return f.SolveRefinedWith(a, b, maxIter, tol, nil)
}

// SolveRefinedWith is SolveRefined with an explicit per-call options
// override applied to the initial solve and every refinement solve
// (nil nopts is plain SolveRefined). A deadline in nopts bounds each
// triangular sweep individually, so a refinement loop under deadline
// pressure fails on its first over-budget sweep rather than at the
// iteration boundary.
func (f *Factorization) SolveRefinedWith(a *sparse.CSC, b []float64, maxIter int, tol float64, nopts *NumericOptions) ([]float64, float64, int, error) {
	if tol <= 0 {
		tol = 1e-14
	}
	x, err := f.SolveWith(b, nopts)
	if err != nil {
		return nil, 0, 0, err
	}
	berr := Residual(a, x, b)
	steps := 0
	r := make([]float64, len(b))
	for steps < maxIter && berr > tol {
		a.MulVec(x, r)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		dx, err := f.SolveWith(r, nopts)
		if err != nil {
			return nil, 0, 0, err
		}
		for i := range x {
			x[i] += dx[i]
		}
		newBerr := Residual(a, x, b)
		steps++
		if newBerr >= berr {
			break // no longer improving
		}
		berr = newBerr
	}
	return x, berr, steps, nil
}

// PivotGrowth returns max|Û| / max|A₂|, the classic stability indicator
// of the factorization (values near 1 are ideal; large values signal
// element growth).
func (f *Factorization) PivotGrowth(a *sparse.CSC) float64 {
	ap := f.S.PermuteInput(a)
	if f.rscale != nil {
		ap = applyScaling(ap, f.rscale, f.cscale)
	}
	maxA := ap.MaxAbs()
	if maxA == 0 {
		return 0
	}
	part := f.S.Part
	maxU := 0.0
	for k := range f.cols {
		c := &f.cols[k]
		w := c.width
		// U blocks above the diagonal block.
		for t := 0; t < c.diagIdx; t++ {
			i := c.blockRows[t]
			rows := part.Size(i)
			for r := 0; r < rows; r++ {
				for cc := 0; cc < w; cc++ {
					if v := math.Abs(c.data[(c.offsets[t]+r)*w+cc]); v > maxU {
						maxU = v
					}
				}
			}
		}
		// Upper triangle of the diagonal block.
		po := c.panelOffset()
		for r := 0; r < w; r++ {
			for cc := r; cc < w; cc++ {
				if v := math.Abs(c.data[(po+r)*w+cc]); v > maxU {
					maxU = v
				}
			}
		}
	}
	return maxU / maxA
}

// LogDet returns the sign and natural logarithm of |det A|. A zero sign
// indicates a singular factorization.
func (f *Factorization) LogDet() (sign float64, logAbs float64) {
	if f.Singular() {
		return 0, math.Inf(-1)
	}
	sign = 1
	// Row interchanges inside the panels.
	for k := range f.cols {
		for lc, r := range f.ipiv[k] {
			if r != lc {
				sign = -sign
			}
		}
	}
	// Permutation parities of the transversal and symmetric orderings.
	sign *= permSign(f.S.RowPerm)
	// The symmetric permutation is applied to both sides, so its parity
	// squared contributes +1.
	// Diagonal of Û.
	for k := range f.cols {
		c := &f.cols[k]
		w := c.width
		po := c.panelOffset()
		for r := 0; r < w; r++ {
			d := c.data[(po+r)*w+r]
			if d < 0 {
				sign = -sign
			} else if d == 0 {
				return 0, math.Inf(-1)
			}
			logAbs += math.Log(math.Abs(d))
		}
	}
	// Undo the equilibration: det(R·A₂·C) = det(A₂)·Πr·Πc with all
	// scales positive.
	if f.rscale != nil {
		for i := range f.rscale {
			logAbs -= math.Log(f.rscale[i]) + math.Log(f.cscale[i])
		}
	}
	return sign, logAbs
}

// permSign returns the parity (+1/−1) of a permutation.
func permSign(p sparse.Perm) float64 {
	seen := make([]bool, len(p))
	sign := 1.0
	for i := range p {
		if seen[i] {
			continue
		}
		length := 0
		for j := i; !seen[j]; j = p[j] {
			seen[j] = true
			length++
		}
		if length%2 == 0 {
			sign = -sign
		}
	}
	return sign
}

// CondEstimate1 returns an estimate of the 1-norm condition number
// κ₁(A) = ‖A‖₁·‖A⁻¹‖₁ using the Hager/Higham power method on A⁻¹
// (at most five iterations, like LAPACK's xGECON).
func (f *Factorization) CondEstimate1(a *sparse.CSC) (float64, error) {
	if f.Singular() {
		return math.Inf(1), f.singularError()
	}
	n := f.S.N
	if n == 0 {
		// The quick return of xGECON: the empty matrix is perfectly
		// conditioned.
		return 1, nil
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	est := 0.0
	for iter := 0; iter < 5; iter++ {
		y, err := f.Solve(x)
		if err != nil {
			return 0, err
		}
		newEst := 0.0
		for _, v := range y {
			newEst += math.Abs(v)
		}
		// ξ = sign(y)
		for i := range y {
			if y[i] >= 0 {
				y[i] = 1
			} else {
				y[i] = -1
			}
		}
		z, err := f.SolveTranspose(y)
		if err != nil {
			return 0, err
		}
		// Find the index of the largest |z|.
		best, bi := -1.0, 0
		for i, v := range z {
			if av := math.Abs(v); av > best {
				best, bi = av, i
			}
		}
		if iter > 0 && (newEst <= est || best <= math.Abs(dot(z, x))) {
			est = math.Max(est, newEst)
			break
		}
		est = newEst
		for i := range x {
			x[i] = 0
		}
		x[bi] = 1
	}
	return a.Norm1() * est, nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
