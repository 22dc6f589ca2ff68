package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/sparse"
)

// PatternHash fingerprints the sparsity pattern of a matrix together
// with the analysis-shaping options: two matrices with equal hashes
// have identical CSC structure and would produce identical Symbolic
// objects, so the analysis of one serves the other. Values are
// deliberately excluded — that is the whole point of the paper's
// static pipeline: one symbolic factorization amortized over many
// numeric factorizations of the same pattern. The per-call numeric
// fields (Workers, AnalyzeWorkers, pivoting, deadlines) are excluded
// too: they do not change the Symbolic.
//
// The hash was born as the solve service's cache key and is hoisted
// here so Reanalyze and the server agree on pattern identity.
func PatternHash(m *sparse.CSC, opts *Options) string {
	h := sha256.New()
	// The indices go to the hash a block at a time: one Write per index
	// costs more than hashing it.
	buf := make([]byte, 0, 4096)
	put := func(v int) {
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	put(m.NRows)
	put(m.NCols)
	for _, p := range m.ColPtr {
		put(p)
	}
	for _, r := range m.RowInd {
		put(r)
	}
	h.Write(buf)
	// The analysis-shaping knobs are part of the identity of a
	// Symbolic; the per-call numeric fields are not.
	fmt.Fprintf(h, "|%v|%v|%v|%+v", opts.Ordering, opts.Postorder, opts.TaskGraph, opts.Amalgamation)
	return hex.EncodeToString(h.Sum(nil)[:16])
}
