package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"
	"strconv"

	sparselu "repro"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// workload is one set of inputs: a matrix of the full-size suite and a
// traffic mix for the service. The reasons are in BENCHMARK.json and in
// README.md; the fields only say how the same phases are driven.
type workload struct {
	name string
	// matrix names the matgen.Suite() generator, smoke its
	// matgen.SmallSuite() stand-in for the self-test.
	matrix, smoke string
	// fresh gives every round, and every factorize request, a pattern
	// of its own (a seeded 0.5 % of the off-diagonals dropped), so no
	// structural result can be reused.
	fresh bool
	// cycles is the number of service cycles per client per round, one
	// cycle being one factorize request followed by solves requests.
	cycles, solves int
	// manyEvery and refineEvery turn every k-th solve request of a
	// cycle into a 16-RHS or a refined one (0 = never).
	manyEvery, refineEvery int
	// sharedFID makes every client solve against the first client's
	// factorization, so the server's batcher can coalesce them.
	sharedFID bool
	// solveReps multiplies the length of the per-round solve batches.
	solveReps int
}

var workloads = []workload{
	{name: "refactor_blocky", matrix: "sherman5", smoke: "sherman5-s", cycles: 1, solves: 8, solveReps: 1},
	{name: "refactor_finegrain", matrix: "sherman3", smoke: "sherman3-s", cycles: 1, solves: 10, solveReps: 1},
	{name: "fresh_patterns", matrix: "orsreg1", smoke: "orsreg-s", fresh: true, cycles: 2, solves: 7, solveReps: 1},
	{name: "solve_stream", matrix: "lnsp3937", smoke: "lnsp-s", cycles: 1, solves: 24, manyEvery: 6, refineEvery: 8, sharedFID: true, solveReps: 3},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) baseMatrix(smoke bool) (*sparse.CSC, error) {
	suite, name := matgen.Suite(), w.matrix
	if smoke {
		suite, name = matgen.SmallSuite(), w.smoke
	}
	for _, s := range suite {
		if s.Name == name {
			return s.Gen(), nil
		}
	}
	return nil, fmt.Errorf("workload %s: no generator %q", w.name, name)
}

const (
	// freshDrop is the share of off-diagonal entries a fresh pattern
	// loses; editCount is the number of pattern edits behind one
	// Reanalyze call and edits the number of such calls a traced run
	// times.
	freshDrop = 0.005
	editCount = 8
	edits     = 3
	// manyRHS is the width of SolveMany calls and of "bs" requests.
	manyRHS = 16
)

// cycleInput is one service cycle of one client: the factorize body
// and the matrix it encodes, kept to check the solutions that come back.
type cycleInput struct {
	m    *sparselu.Matrix
	body []byte
}

// inputs is the whole seeded input set of a run. The program under test
// only ever sees these generated matrices, vectors and request bodies.
type inputs struct {
	n int
	// rounds[r] is the matrix the library phases of round r consume.
	rounds []*sparselu.Matrix
	// edited are copies of round 0's matrix with editCount off-diagonal
	// entries dropped from a few neighbouring columns: small and local,
	// which is the delta Reanalyze is built for. Where the columns are
	// is fixed — the cost of a delta depends on the subtree it lands in,
	// and should not move with the seed; which entries go is seeded.
	edited []*sparselu.Matrix
	// cycles[round][client][cycle]
	cycles [][][]cycleInput
	// rhs is the pool of right-hand sides, rhsJSON their encodings and
	// manyJSON the encoding of the whole pool as one "bs" array.
	rhs      [][]float64
	rhsJSON  [][]byte
	manyJSON []byte
	hash     string
}

// genInputs derives every input from the seed: the same seed gives
// byte-identical inputs, which hash records.
func genInputs(w *workload, seed int64, smoke bool, rounds, clients int) (*inputs, error) {
	base, err := w.baseMatrix(smoke)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{n: base.NCols}
	h := sha256.New()

	freshCount := int(math.Round(freshDrop * float64(offDiagonals(base))))
	instance := func() *sparse.CSC {
		a := base
		if w.fresh {
			a = dropOffDiagonals(base, freshCount, 0, base.NCols, rng)
		}
		return revalue(a, rng)
	}
	for r := 0; r < rounds; r++ {
		a := instance()
		hashCSC(h, a)
		in.rounds = append(in.rounds, sparselu.WrapCSC(a))
		for k := 0; r == 0 && k < edits; k++ {
			e := dropOffDiagonals(a, editCount, k*in.n/edits, 4, rng)
			hashCSC(h, e)
			in.edited = append(in.edited, sparselu.WrapCSC(e))
		}
	}
	in.cycles = make([][][]cycleInput, rounds)
	for r := range in.cycles {
		in.cycles[r] = make([][]cycleInput, clients)
		for c := range in.cycles[r] {
			for k := 0; k < w.cycles; k++ {
				a := instance()
				body := factorizeBody(a)
				h.Write(body)
				in.cycles[r][c] = append(in.cycles[r][c], cycleInput{m: sparselu.WrapCSC(a), body: body})
			}
		}
	}
	in.manyJSON = append(in.manyJSON, '[')
	for k := 0; k < manyRHS; k++ {
		b := make([]float64, in.n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		enc := appendFloats(nil, b)
		in.rhs = append(in.rhs, b)
		in.rhsJSON = append(in.rhsJSON, enc)
		if k > 0 {
			in.manyJSON = append(in.manyJSON, ',')
		}
		in.manyJSON = append(in.manyJSON, enc...)
	}
	in.manyJSON = append(in.manyJSON, ']')
	h.Write(in.manyJSON)
	in.hash = hex.EncodeToString(h.Sum(nil))[:16]
	return in, nil
}

func offDiagonals(a *sparse.CSC) int {
	n := 0
	for j := 0; j < a.NCols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if a.RowInd[p] != j {
				n++
			}
		}
	}
	return n
}

// dropOffDiagonals returns a copy of a without count of its
// off-diagonal entries, chosen by rng from a window of columns starting
// at first; the window widens until it holds enough of them. The
// diagonal stays, so the result is structurally nonsingular whenever a
// is, and rows only lose entries, so diagonal dominance survives.
func dropOffDiagonals(a *sparse.CSC, count, first, window int, rng *rand.Rand) *sparse.CSC {
	n := a.NCols
	var cand []int // positions in RowInd
	for ; ; window *= 2 {
		if window > n {
			window = n
		}
		cand = cand[:0]
		for d := 0; d < window; d++ {
			j := (first + d) % n
			for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
				if a.RowInd[p] != j {
					cand = append(cand, p)
				}
			}
		}
		if len(cand) >= count || window == n {
			break
		}
	}
	if count > len(cand) {
		count = len(cand)
	}
	rng.Shuffle(len(cand), func(x, y int) { cand[x], cand[y] = cand[y], cand[x] })
	dropped := append([]int(nil), cand[:count]...)
	sort.Ints(dropped)

	t := sparse.NewTriplet(a.NRows, n)
	next := 0
	for j := 0; j < n; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if next < len(dropped) && dropped[next] == p {
				next++
				continue
			}
			t.Add(a.RowInd[p], j, a.Val[p])
		}
	}
	return t.ToCSC()
}

// revalue returns a with fresh values on the same pattern: every
// off-diagonal shrinks by up to 10 %, every diagonal grows by up to
// 10 %, so the generators' diagonal dominance — and with it a residual
// far below the failure threshold — is kept for every seed.
func revalue(a *sparse.CSC, rng *rand.Rand) *sparse.CSC {
	out := a.Clone()
	for j := 0; j < out.NCols; j++ {
		for p := out.ColPtr[j]; p < out.ColPtr[j+1]; p++ {
			if out.RowInd[p] == j {
				out.Val[p] *= 1 + 0.1*rng.Float64()
			} else {
				out.Val[p] *= 1 - 0.1*rng.Float64()
			}
		}
	}
	return out
}

func hashCSC(h hash.Hash, a *sparse.CSC) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(a.NCols))
	for _, v := range a.ColPtr {
		put(uint64(v))
	}
	for _, v := range a.RowInd {
		put(uint64(v))
	}
	for _, v := range a.Val {
		put(math.Float64bits(v))
	}
}

func appendFloats(dst []byte, xs []float64) []byte {
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, x, 'g', -1, 64)
	}
	return append(dst, ']')
}

func appendInts(dst []byte, xs []int) []byte {
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// factorizeBody encodes a as the triplet payload of POST /v1/factorize,
// with the default recovery policy a real client would get.
func factorizeBody(a *sparse.CSC) []byte {
	cols := make([]int, 0, a.NNZ())
	for j := 0; j < a.NCols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			cols = append(cols, j)
		}
	}
	b := make([]byte, 0, 32*a.NNZ())
	b = append(b, `{"matrix":{"n":`...)
	b = strconv.AppendInt(b, int64(a.NCols), 10)
	b = append(b, `,"rows":`...)
	b = appendInts(b, a.RowInd[:a.NNZ()])
	b = append(b, `,"cols":`...)
	b = appendInts(b, cols)
	b = append(b, `,"vals":`...)
	b = appendFloats(b, a.Val[:a.NNZ()])
	return append(b, `}}`...)
}
