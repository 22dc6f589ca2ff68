//go:build amd64

package blas

// useAVX2 gates the assembly micro-kernel. Detection runs once at
// init; the fallback is the portable Go kernel.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU supports AVX2 and the OS has
// enabled the YMM register state (OSXSAVE + XCR0 bits 1:2).
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, cx, _ := cpuid(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if cx&osxsaveBit == 0 || cx&avxBit == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, bx, _, _ := cpuid(7, 0)
	return bx&(1<<5) != 0
}

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func microKernel4x8AVX2(nk int, pa *float64, off *int32, pb, c *float64, ldc int) bool

// microKernel4x8 dispatches the full-tile kernel; finite reports that
// pb holds no Inf or NaN. The assembly version uses separate
// VMULPD/VADDPD (never FMA, whose single rounding would diverge from
// the scalar kernels) and adds the product of a zero A value instead of
// skipping it. That is bitwise identical to microKernel4x8Go only while
// every such product is a ±0 and no accumulator is −0, so the assembly
// runs only under finite and declines a tile with a −0 in C; the Go
// kernel runs every tile it does not take.
func microKernel4x8(nk int, pa []float64, off []int32, pb []float64, c []float64, ldc int, finite bool) {
	if useAVX2 && finite && nk > 0 && microKernel4x8AVX2(nk, &pa[0], &off[0], &pb[0], &c[0], ldc) {
		return
	}
	microKernel4x8Go(nk, pa, off, pb, c, ldc)
}

//go:noescape
func allFiniteAVX2(x *float64, n int) bool

// finitePanel reports that the packed B panel pb holds no Inf or NaN,
// which lets the AVX2 kernel run on its tiles. The scan runs only
// where that kernel does, eight values per iteration; a packed panel's
// length is always a positive multiple of eight.
func finitePanel(pb []float64) bool {
	return useAVX2 && len(pb) > 0 && len(pb)%8 == 0 && allFiniteAVX2(&pb[0], len(pb))
}

// AllFinite reports whether x holds no Inf or NaN. The AVX2 exponent
// scan takes the longest prefix whose length is a multiple of eight and
// allFiniteGo the rest, or all of x on a CPU without AVX2.
func AllFinite(x []float64) bool {
	n := 0
	if useAVX2 {
		n = len(x) &^ 7
		if n > 0 && !allFiniteAVX2(&x[0], n) {
			return false
		}
	}
	return allFiniteGo(x[n:])
}
