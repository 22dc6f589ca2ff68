package sparse

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// maxFreeColumns is the column count ReadMatrixMarket accepts whatever
// the declared entry count: 8 MB of column pointers.
const maxFreeColumns = 1 << 20

// ReadMatrixMarket parses a MatrixMarket "coordinate real
// general/symmetric/skew-symmetric" or "coordinate pattern" stream into a
// CSC matrix. Pattern entries get the value 1. Symmetric storage is
// expanded to full storage. Malformed input — a negative dimension, an
// index outside the declared size (indices are one-based), more
// declared columns than max(declared entries, maxFreeColumns) — is an
// error, never a panic.
func ReadMatrixMarket(r io.Reader) (*CSC, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("sparse: reading MatrixMarket header: %w", err)
	}
	fields := strings.Fields(strings.ToLower(header))
	if len(fields) < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
		return nil, fmt.Errorf("sparse: not a MatrixMarket matrix header: %q", strings.TrimSpace(header))
	}
	if fields[2] != "coordinate" {
		return nil, fmt.Errorf("sparse: only coordinate format is supported, got %q", fields[2])
	}
	valType := fields[3] // real | integer | pattern
	symm := fields[4]    // general | symmetric | skew-symmetric
	if valType != "real" && valType != "integer" && valType != "pattern" {
		return nil, fmt.Errorf("sparse: unsupported value type %q", valType)
	}
	if symm != "general" && symm != "symmetric" && symm != "skew-symmetric" {
		return nil, fmt.Errorf("sparse: unsupported symmetry %q", symm)
	}

	// Skip comments, read size line.
	var line string
	for {
		line, err = br.ReadString('\n')
		if err != nil && line == "" {
			return nil, fmt.Errorf("sparse: missing MatrixMarket size line: %w", err)
		}
		line = strings.TrimSpace(line)
		if line != "" && !strings.HasPrefix(line, "%") {
			break
		}
	}
	var nr, nc, nnz int
	if _, err := fmt.Sscan(line, &nr, &nc, &nnz); err != nil {
		return nil, fmt.Errorf("sparse: bad MatrixMarket size line %q: %w", line, err)
	}
	if nr < 0 || nc < 0 || nnz < 0 {
		return nil, fmt.Errorf("sparse: negative MatrixMarket size %d×%d with %d entries", nr, nc, nnz)
	}
	// The column pointers cost a word per declared column before any
	// entry is read; capping the columns at the declared entries (or at
	// maxFreeColumns) keeps the allocation proportional to the entries
	// the stream must then supply.
	if nc > max(nnz, maxFreeColumns) {
		return nil, fmt.Errorf("sparse: MatrixMarket size %d×%d with %d entries declares more columns than max(entries, %d)", nr, nc, nnz, maxFreeColumns)
	}
	t := NewTriplet(nr, nc)
	read := 0
	for read < nnz {
		line, err = br.ReadString('\n')
		trimmed := strings.TrimSpace(line)
		if trimmed != "" && !strings.HasPrefix(trimmed, "%") {
			f := strings.Fields(trimmed)
			if len(f) < 2 {
				return nil, fmt.Errorf("sparse: bad MatrixMarket entry %q", trimmed)
			}
			i, e1 := strconv.Atoi(f[0])
			j, e2 := strconv.Atoi(f[1])
			if e1 != nil || e2 != nil {
				return nil, fmt.Errorf("sparse: bad MatrixMarket indices %q", trimmed)
			}
			if i < 1 || i > nr || j < 1 || j > nc || (symm != "general" && (j > nr || i > nc)) {
				return nil, fmt.Errorf("sparse: MatrixMarket entry %q outside %d×%d", trimmed, nr, nc)
			}
			v := 1.0
			if valType != "pattern" {
				if len(f) < 3 {
					return nil, fmt.Errorf("sparse: missing value in entry %q", trimmed)
				}
				v, e1 = strconv.ParseFloat(f[2], 64)
				if e1 != nil {
					return nil, fmt.Errorf("sparse: bad MatrixMarket value %q", trimmed)
				}
			}
			t.Add(i-1, j-1, v)
			if symm != "general" && i != j {
				if symm == "skew-symmetric" {
					t.Add(j-1, i-1, -v)
				} else {
					t.Add(j-1, i-1, v)
				}
			}
			read++
		}
		if err != nil {
			if read < nnz {
				return nil, fmt.Errorf("sparse: MatrixMarket stream ended after %d of %d entries", read, nnz)
			}
			break
		}
	}
	return t.ToCSC(), nil
}

// WriteMatrixMarket writes a in "coordinate real general" MatrixMarket
// format.
func WriteMatrixMarket(w io.Writer, a *CSC) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", a.NRows, a.NCols, a.NNZ()); err != nil {
		return err
	}
	for j := 0; j < a.NCols; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", a.RowInd[k]+1, j+1, a.Val[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
