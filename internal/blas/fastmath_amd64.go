//go:build amd64

// FastMath assembly dispatch. See fastmath.go for the mode's contract.

package blas

// useFMA3 gates the FMA assembly micro-kernel of the FastMath mode.
// FMA needs the same OS-enabled YMM state as AVX2, so detection builds
// on detectAVX2 and only adds the FMA3 feature bit.
var useFMA3 = detectFMA3()

func detectFMA3() bool {
	if !useAVX2 {
		return false
	}
	_, _, cx, _ := cpuid(1, 0)
	return cx&(1<<12) != 0
}

//go:noescape
func microKernel4x8FMA(nk int, pa *float64, off *int32, pb, c *float64, ldc int)

// microKernel4x8Fast dispatches the FastMath full-tile kernel: the FMA3
// assembly version when the CPU supports it, the portable branch-free
// Go kernel otherwise. The two are NOT bitwise identical to each other
// or to the bitwise-mode kernels — FastMath callers accept any
// error-bounded result.
func microKernel4x8Fast(nk int, pa []float64, off []int32, pb []float64, c []float64, ldc int) {
	if useFMA3 && nk > 0 {
		microKernel4x8FMA(nk, &pa[0], &off[0], &pb[0], &c[0], ldc)
		return
	}
	microKernel4x8FastGo(nk, pa, off, pb, c, ldc)
}
