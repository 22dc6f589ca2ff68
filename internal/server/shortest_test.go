package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkFloat fails t unless appendFloat writes f as json.Marshal does,
// after a prefix it must leave alone.
func checkFloat(t *testing.T, buf []byte, f float64) []byte {
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("json.Marshal(%v): %v", f, err)
	}
	buf, err = appendFloat(append(buf[:0], '['), "x", f)
	if err != nil || buf[0] != '[' || !bytes.Equal(buf[1:], want) {
		t.Fatalf("float %v (%#x): got %q (%v), json.Marshal %q", f, math.Float64bits(f), buf, err, want)
	}
	return buf
}

// TestEncodeFloatsMatchStrconv pins the reply's number encoder to
// json.Marshal byte for byte over random bit patterns, normal
// values of every magnitude, the binade edges and the powers of ten
// one ulp either side, the integers around 2⁵³, the points where the
// layout switches form, and the subnormals strconv writes.
func TestEncodeFloatsMatchStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	check := func(f float64) {
		buf = checkFloat(t, buf, f)
		buf = checkFloat(t, buf, -f)
	}
	around := func(f float64) {
		check(math.Nextafter(f, 0))
		check(f)
		if f < math.MaxFloat64 {
			check(math.Nextafter(f, math.Inf(1)))
		}
	}
	random := 1_000_000
	if raceEnabled {
		random = 50_000
	}
	for range random {
		if f := math.Float64frombits(rng.Uint64()); !math.IsInf(f, 0) && !math.IsNaN(f) {
			check(f)
		}
	}
	for k := -30; k <= 30; k++ {
		scale := math.Pow(10, float64(k))
		for range random / 200 {
			check(rng.NormFloat64() * scale)
		}
	}
	for e := -1074; e <= 1023; e++ {
		around(math.Ldexp(1, e))
	}
	for e := -323; e <= 308; e++ {
		f, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		around(f)
	}
	for i := -1000; i <= 1000; i++ {
		check(float64(1<<53 + i))
	}
	for _, f := range []float64{1e-6, 1e21, 1e-7, 1e20, 0, math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022} {
		around(f)
	}
	for range random / 100 {
		check(math.Float64frombits(rng.Uint64() & (1<<52 - 1)))
		check(math.Float64frombits(uint64(rng.Intn(1000))))
	}
}

// FuzzEncodeFloat reads eight bytes, big-endian, as the bits of a
// double: appendFloat must write it as json.Marshal does, and refuse a
// NaN or an Inf where json.Marshal does. The seed corpus in
// testdata/fuzz/FuzzEncodeFloat holds the corners of
// TestEncodeFloatsMatchStrconv.
func FuzzEncodeFloat(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var raw [8]byte
		copy(raw[:], data)
		v := math.Float64frombits(binary.BigEndian.Uint64(raw[:]))
		if math.IsInf(v, 0) || math.IsNaN(v) {
			if _, err := appendFloat(nil, "x", v); err == nil {
				t.Fatalf("float %v: encoded, want an error", v)
			}
			if _, err := json.Marshal(v); err == nil {
				t.Fatalf("float %v: json.Marshal encoded it", v)
			}
			return
		}
		checkFloat(t, nil, v)
	})
}
