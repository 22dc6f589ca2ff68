package blas

import (
	"math"
	"sync"
)

// Cache-blocking sizes of the level-3 kernels: MC×KC is the packed A
// block and KC×NC the packed B panel (the scratch below holds one of
// each). The numeric phase's calls have k and n at most the supernode
// width cap, supernode.MaxWidth = 32, so MC is the only tile that can
// split one, and a packed Panel is a single KC block. Blocking is
// bitwise-safe: it changes only which contributions are computed
// together, never a C element's ascending-k accumulation order.
const (
	packMC = 256
	packKC = 256
	packNC = 1024
)

// AutotuneOnce does nothing: the tiles are the constants above. It is
// kept only because the frozen benchmark harness still calls it; no
// library code does.
func AutotuneOnce() {}

// Seed-path blocking constants (the original kernel's k/m blocking),
// kept for the scalar fallback that handles matrices too small to be
// worth packing.
const (
	gemmMC = 64
	gemmKC = 128
)

// packedGemmCutoff is the minimum m·n·k product for which the packing
// overhead pays for itself; below it the seed scalar kernel wins.
const packedGemmCutoff = 8 * 1024

// gemmScratch holds the packing buffers of one in-flight level-3 call.
// The buffers are fixed-size arrays, not slices, so obtaining a scratch
// never calls make: allocation creates the whole struct at once and the
// numeric hot path recycles it allocation-free. packA fills pa, off and
// kept; packB fills pb.
type gemmScratch struct {
	pa [packMC * packKC]float64
	pb [packKC * packNC]float64
	// off[i·kc + q] is the byte offset, within a packed B micro-panel,
	// of the row that meets kept column q of A micro-panel i.
	off [packMC / gemmMR * packKC]int32
	// kept[i] is the number of columns micro-panel i kept.
	kept [packMC / gemmMR]int32
}

// The scratch freelist recycles packing scratch across Dgemm calls.
// Workers draw from it at most once per kernel invocation, so after it
// warms up (one scratch per concurrently running worker) the parallel
// numeric phase performs zero heap allocations per task. This is
// deliberately a mutex-guarded stack rather than a sync.Pool: under the
// race detector the pool drops a fraction of Puts by design, and
// re-zeroing plus shadow-remapping the multi-MiB scratch on every drop
// dominated race-enabled factorizations (~2× wall time). The stack
// reuses every buffer deterministically; it grows to the peak number of
// concurrent packed calls and scratchMaxFree bounds the idle retention.
var (
	scratchMu   sync.Mutex
	scratchFree []*gemmScratch
)

const scratchMaxFree = 32

func getScratch() *gemmScratch {
	scratchMu.Lock()
	if n := len(scratchFree); n > 0 {
		s := scratchFree[n-1]
		scratchFree[n-1] = nil
		scratchFree = scratchFree[:n-1]
		scratchMu.Unlock()
		return s
	}
	scratchMu.Unlock()
	return new(gemmScratch)
}

func putScratch(s *gemmScratch) {
	scratchMu.Lock()
	if len(scratchFree) < scratchMaxFree {
		// The freelist stack IS the pooled buffer: its backing array
		// reaches the peak concurrency within a few calls and every
		// later append reuses it, so steady-state puts do not allocate.
		//lucheck:allow hot-alloc — bounded freelist append (≤scratchMaxFree), amortized zero-allocation after warm-up
		scratchFree = append(scratchFree, s)
	}
	scratchMu.Unlock()
}

// zeroRow stands in for the missing rows of a partial A micro-panel.
var zeroRow [packKC]float64

// packA packs the mc×kc block at a (row-major, leading dimension lda,
// kc ≤ packKC) as column-major micro-panels of gemmMR rows, folding
// alpha into the values, and drops every column whose gemmMR packed
// values all compare equal to zero. Micro-panel i (rows [4i, 4i+4))
// keeps kept[i] columns, in ascending p: its q-th kept column p is
// pa[4i·kc + 4q : 4i·kc + 4q + 4] and off[i·kc + q] = 8·gemmNR·p, the
// byte offset of the packed B row it meets. A partial last micro-panel
// (mc not a multiple of gemmMR) packs α·0 — a zero for every finite α —
// in its missing lanes, so the full-tile kernels can run it; those lanes
// only ever reach discarded rows of an edge tile.
//
// A dropped column only ever contributed terms the kernels skip (the
// bitwise ones add −0.0 in their place), so dropping it leaves every C
// element's operation sequence as it was; a NaN compares unequal to zero
// and keeps its column.
func packA(mc, kc int, alpha float64, a []float64, lda int, pa []float64, off, kept []int32) {
	for ir := 0; ir < mc; ir += gemmMR {
		var rows [gemmMR][]float64
		for r := range rows {
			rows[r] = zeroRow[:kc]
			if ir+r < mc {
				rows[r] = a[(ir+r)*lda:][:kc]
			}
		}
		kept[ir/gemmMR] = int32(packPanel(rows[0], rows[1], rows[2], rows[3], alpha,
			pa[ir*kc:][:gemmMR*kc], off[ir/gemmMR*kc:][:kc]))
	}
}

// packPanel packs the columns of the four rows a0..a3 (scaled by alpha)
// that are not zero in every lane into dst and their B-row byte offsets
// into off, and returns how many it kept. Each column is written to slot
// q, and q advances only when some lane is non-zero (or NaN): when the
// lanes' bits without the sign are not all zero. The increment compiles
// to a conditional move, so no branch depends on the data.
func packPanel(a0, a1, a2, a3 []float64, alpha float64, dst []float64, off []int32) int {
	a1, a2, a3, off = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)], off[:len(a0)]
	q := 0
	for p := range a0 {
		x0, x1, x2, x3 := alpha*a0[p], alpha*a1[p], alpha*a2[p], alpha*a3[p]
		d := dst[gemmMR*q : gemmMR*q+gemmMR]
		d[0], d[1], d[2], d[3] = x0, x1, x2, x3
		off[q] = int32(8 * gemmNR * p)
		if (math.Float64bits(x0)|math.Float64bits(x1)|math.Float64bits(x2)|math.Float64bits(x3))<<1 != 0 {
			q++
		}
	}
	return q
}

// packB copies the kc×nc block at b (row-major, leading dimension ldb)
// into pb as row-major micro-panels of gemmNR columns: micro-panel jr
// holds columns [jr, jr+gemmNR) with element (p, j) at
// pb[jr*kc + p*gemmNR + j]. A partial last micro-panel holds zeros in
// its missing lanes, so the full-tile kernels can run it.
func packB(kc, nc int, b []float64, ldb int, pb []float64) {
	for jr := 0; jr < nc; jr += gemmNR {
		nr := nc - jr
		if nr > gemmNR {
			nr = gemmNR
		}
		dst := pb[jr*kc:]
		for p := 0; p < kc; p++ {
			row := dst[p*gemmNR : p*gemmNR+gemmNR]
			copy(row, b[p*ldb+jr:p*ldb+jr+nr])
			clear(row[nr:])
		}
	}
}

// Panel is an m×k operand α·A packed once, so that many products with
// different right-hand operands (DgemmPanel) share one packing. It is a
// view over caller storage sized by PanelSize, in packA's layout for one
// column block: ⌈m/4⌉ micro-panels of stride 4·k values and k offsets,
// then the ⌈m/4⌉ kept counts. A panel of the numeric phase is at most
// supernode.MaxWidth (32) ≤ packKC columns wide, so one block always
// holds it; Pack checks k ≤ packKC.
type Panel struct {
	M, K int
	Vals []float64
	Ints []int32
}

// PanelSize returns the lengths of the Vals and Ints storage a Panel
// of an m×k operand needs. vals ≤ 4·ints for every shape, so a caller
// may lay several panels out in one slab of each by a single offset p:
// values from 4p, ints from p.
func PanelSize(m, k int) (vals, ints int) {
	nmp := (m + gemmMR - 1) / gemmMR
	return gemmMR * nmp * k, nmp * (k + 1)
}

// Pack packs α·A, where A is the p.M×p.K row-major matrix at a with
// leading dimension lda, into p's storage. DgemmPanel reads only values
// Pack wrote (the kept columns and counts), so reused storage needs no
// clearing.
func (p *Panel) Pack(alpha float64, a []float64, lda int) {
	if p.K > packKC {
		panic("blas: Panel.Pack: operand wider than one packed column block")
	}
	nmp := (p.M + gemmMR - 1) / gemmMR
	packA(p.M, p.K, alpha, a, lda, p.Vals, p.Ints, p.Ints[nmp*p.K:][:nmp])
}
