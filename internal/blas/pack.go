package blas

import (
	"math"
	"sync"
	"sync/atomic"
)

// Default cache-blocking sizes of the packed Dgemm path. A packMC×packKC
// block of A (128 KiB) and the packKC×gemmNR slice of the packed B panel
// it multiplies fit in L2 with room to spare; the packKC×gemmNR B
// micro-panel (8 KiB) stays in L1 across the whole column of A
// micro-tiles. These are the conservative fallback used when the
// analyze-time autotuner (autotune.go) cannot probe the cache geometry.
const (
	packMC = 128
	packKC = 128
	packNC = 512
	packNB = 32
)

// Hard capacities of the packing scratch. The autotuner may raise the
// runtime tile sizes up to these bounds; the fixed-size scratch arrays
// below are dimensioned for the worst case, so retuning never changes
// the allocation behavior of the hot path.
const (
	packMaxMC = 256
	packMaxKC = 256
	packMaxNC = 1024
)

// BlockSizes are the runtime cache-blocking parameters of the level-3
// kernels: MC×KC is the packed A block, KC×NC the packed B panel, and
// NB the strip/panel width of the blocked Dtrsm and DgetrfStatic
// drivers. Any in-range choice is bitwise-safe: blocking changes only
// which contributions are computed together, never the per-element
// ascending-k accumulation order the determinism contract pins.
type BlockSizes struct {
	MC, KC, NC, NB int
}

// DefaultBlockSizes returns the compiled-in tile sizes, active until a
// successful Autotune installs probed ones.
func DefaultBlockSizes() BlockSizes {
	return BlockSizes{MC: packMC, KC: packKC, NC: packNC, NB: packNB}
}

// tileParams holds the active blocking parameters. Kernels load the
// pointer once per call, so a concurrent SetTiles (analyze-time
// autotuning racing an in-flight factorization of another matrix) is
// safe and at worst leaves that call on the previous tiling.
var tileParams atomic.Pointer[BlockSizes]

func init() {
	d := DefaultBlockSizes()
	tileParams.Store(&d)
}

// Tiles returns the active cache-blocking parameters.
func Tiles() BlockSizes { return *tileParams.Load() }

// SetTiles installs bs — clamped to the packing-scratch capacities and
// micro-tile multiples — as the active blocking parameters and returns
// the value actually installed.
func SetTiles(bs BlockSizes) BlockSizes {
	bs = bs.clamp()
	p := bs
	tileParams.Store(&p)
	return bs
}

// clampTile rounds v down to a multiple of mul and bounds it to
// [lo, hi]; non-positive v selects def.
func clampTile(v, def, lo, hi, mul int) int {
	if v <= 0 {
		v = def
	}
	v -= v % mul
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

func (b BlockSizes) clamp() BlockSizes {
	b.MC = clampTile(b.MC, packMC, gemmMR, packMaxMC, gemmMR)
	b.KC = clampTile(b.KC, packKC, 16, packMaxKC, 8)
	b.NC = clampTile(b.NC, packNC, gemmNR, packMaxNC, gemmNR)
	b.NB = clampTile(b.NB, packNB, 8, 128, 8)
	return b
}

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
	pa [packMaxMC * packMaxKC]float64
	pb [packMaxKC * packMaxNC]float64
	// off[i·kc + q] is the byte offset, within a packed B micro-panel,
	// of the row that meets kept column q of A micro-panel i.
	off [packMaxMC / gemmMR * packMaxKC]int32
	// kept[i] is the number of columns micro-panel i kept.
	kept [packMaxMC / gemmMR]int
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
var zeroRow [packMaxKC]float64

// packA copies the mc×kc block at a (row-major, leading dimension lda)
// into s.pa as column-major micro-panels of gemmMR rows, folding alpha
// into the values, and drops every column whose gemmMR packed values all
// compare equal to zero. Micro-panel i (rows [4i, 4i+4)) keeps
// s.kept[i] columns, in ascending p: its q-th kept column p is
// s.pa[4i·kc + 4q : 4i·kc + 4q + 4] and s.off[i·kc + q] = 8·gemmNR·p,
// the byte offset of the packed B row it meets. A partial last
// micro-panel (mc not a multiple of gemmMR) packs α·0 — a zero for
// every finite α — in its missing lanes, so the full-tile kernels can
// run it; those lanes only ever reach discarded rows of an edge tile.
//
// A dropped column only ever contributed terms the kernels skip (the
// bitwise ones add −0.0 in their place), so dropping it leaves every C
// element's operation sequence as it was; a NaN compares unequal to zero
// and keeps its column.
func packA(mc, kc int, alpha float64, a []float64, lda int, s *gemmScratch) {
	for ir := 0; ir < mc; ir += gemmMR {
		var rows [gemmMR][]float64
		for r := range rows {
			rows[r] = zeroRow[:kc]
			if ir+r < mc {
				rows[r] = a[(ir+r)*lda:][:kc]
			}
		}
		s.kept[ir/gemmMR] = packPanel(rows[0], rows[1], rows[2], rows[3], alpha,
			s.pa[ir*kc:][:gemmMR*kc], s.off[ir/gemmMR*kc:][:kc])
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
