package sparse

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomCSC(10, 7, 0.3, rng)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("MatrixMarket round trip failed")
	}
}

const symmetricMM = `%%MatrixMarket matrix coordinate real symmetric
% comment
3 3 4
1 1 2.0
2 1 -1.0
3 2 4.0
3 3 1.0
`

func TestMatrixMarketSymmetric(t *testing.T) {
	a, err := ReadMatrixMarket(strings.NewReader(symmetricMM))
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 6 {
		t.Fatalf("NNZ = %d, want 6 (expanded)", a.NNZ())
	}
	if a.At(0, 1) != -1 || a.At(1, 0) != -1 {
		t.Fatal("symmetric expansion wrong")
	}
	if a.At(1, 2) != 4 || a.At(2, 1) != 4 {
		t.Fatal("symmetric expansion wrong for (3,2)")
	}
}

const skewMM = `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3.0
`

func TestMatrixMarketSkewSymmetric(t *testing.T) {
	a, err := ReadMatrixMarket(strings.NewReader(skewMM))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(1, 0) != 3 || a.At(0, 1) != -3 {
		t.Fatalf("skew expansion wrong: %v %v", a.At(1, 0), a.At(0, 1))
	}
}

const patternMM = `%%MatrixMarket matrix coordinate pattern general
2 3 2
1 1
2 3
`

func TestMatrixMarketPattern(t *testing.T) {
	a, err := ReadMatrixMarket(strings.NewReader(patternMM))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 1 || a.At(1, 2) != 1 {
		t.Fatal("pattern values should be 1")
	}
}

// badMatrixMarket are inputs ReadMatrixMarket must reject with an
// error; they also seed FuzzReadMatrixMarket.
var badMatrixMarket = []string{
	"",
	"not a header\n1 1 1\n1 1 1.0\n",
	"%%MatrixMarket matrix array real general\n1 1\n1.0\n",
	"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n", // truncated
	"%%MatrixMarket matrix coordinate real general\n2 2 1\nx y z\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",          // row outside 2×2
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n",          // zero-based index
	"%%MatrixMarket matrix coordinate real general\n-1 2 0\n",                  // negative dimension
	"%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n3 1 1.0\n",        // mirror outside 3×2
	"%%MatrixMarket matrix coordinate real general\n1 3000000000 1\n1 1 1.0\n", // 24 GB of column pointers
}

func TestMatrixMarketErrors(t *testing.T) {
	for i, src := range badMatrixMarket {
		if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected error, got nil", i)
		}
	}
}

// TestMatrixMarketHugeDeclaredSize checks the cap on declared columns:
// a 50-byte file declaring 3·10⁹ of them (24 GB of column pointers) is
// refused before anything is allocated, with an error that names the
// declared size, while maxFreeColumns columns — or more, when the file
// declares at least as many entries — still read.
func TestMatrixMarketHugeDeclaredSize(t *testing.T) {
	src := "%%MatrixMarket matrix coordinate real general\n1 3000000000 1\n1 1 1.0\n"
	_, err := ReadMatrixMarket(strings.NewReader(src))
	if err == nil || !strings.Contains(err.Error(), "1×3000000000 with 1 entries") {
		t.Fatalf("huge declared size: err = %v, want one naming 1×3000000000 with 1 entries", err)
	}
	for _, tc := range []struct {
		nc, nnz int
		ok      bool
	}{
		{maxFreeColumns, 1, true},
		{maxFreeColumns + 1, 1, false},
		{maxFreeColumns + 2, maxFreeColumns + 2, true},
	} {
		var b strings.Builder
		fmt.Fprintf(&b, "%%%%MatrixMarket matrix coordinate pattern general\n1 %d %d\n", tc.nc, tc.nnz)
		for j := 0; j < tc.nnz; j++ {
			fmt.Fprintf(&b, "1 %d\n", tc.nc-j)
		}
		a, err := ReadMatrixMarket(strings.NewReader(b.String()))
		if (err == nil) != tc.ok {
			t.Fatalf("1×%d with %d entries: err = %v, want ok = %v", tc.nc, tc.nnz, err, tc.ok)
		}
		if tc.ok && (a.NCols != tc.nc || a.NNZ() != tc.nnz) {
			t.Fatalf("1×%d with %d entries read as %d columns, %d entries", tc.nc, tc.nnz, a.NCols, a.NNZ())
		}
	}
}

const commentedMM = `%%MatrixMarket matrix coordinate real general
% a comment

% another
2 2 2

1 1 5.0
% interior comment
2 2 6.0
`

func TestMatrixMarketCommentsAndBlankLines(t *testing.T) {
	a, err := ReadMatrixMarket(strings.NewReader(commentedMM))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 5 || a.At(1, 1) != 6 {
		t.Fatal("comment handling broke values")
	}
}

// FuzzReadMatrixMarket requires ReadMatrixMarket never to panic: every
// input gives an error or a well-formed CSC — column pointers monotone
// from 0 to the entry count, row indices ascending within each column
// and inside the declared size.
func FuzzReadMatrixMarket(f *testing.F) {
	for _, src := range append(badMatrixMarket, symmetricMM, skewMM, patternMM, commentedMM) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		a, err := ReadMatrixMarket(strings.NewReader(src))
		if err != nil {
			return
		}
		if len(a.ColPtr) != a.NCols+1 || a.ColPtr[0] != 0 || a.ColPtr[a.NCols] != len(a.RowInd) || len(a.Val) != len(a.RowInd) {
			t.Fatalf("%d×%d: %d column pointers ending at %d for %d rows and %d values",
				a.NRows, a.NCols, len(a.ColPtr), a.ColPtr[len(a.ColPtr)-1], len(a.RowInd), len(a.Val))
		}
		for j := 0; j < a.NCols; j++ {
			if a.ColPtr[j] > a.ColPtr[j+1] {
				t.Fatalf("column pointers fall at column %d: %v", j, a.ColPtr)
			}
			prev := -1
			for _, i := range a.RowInd[a.ColPtr[j]:a.ColPtr[j+1]] {
				if i <= prev || i >= a.NRows {
					t.Fatalf("column %d: row %d after %d in a %d-row matrix", j, i, prev, a.NRows)
				}
				prev = i
			}
		}
	})
}
