package server

import (
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// decodeFloat and decodeInt decode one JSON number token the way a
// request field would. A token the scan does not consume whole is an
// error, as the byte after it would be in a body.
func decodeFloat(tok string) (f float64, err error) {
	d := &decoder{data: []byte(tok)}
	if err = d.float(&f); err == nil && d.pos != len(tok) {
		err = d.fail("token not consumed")
	}
	return f, err
}

func decodeInt(tok string, size int) (n int64, err error) {
	d := &decoder{data: []byte(tok)}
	if n, _, err = d.integer(size); err == nil && d.pos != len(tok) {
		err = d.fail("token not consumed")
	}
	return n, err
}

// checkToken fails t unless the codec decodes tok bit for bit as
// strconv.ParseFloat and, with ints, at 64 and 32 bits as
// strconv.ParseInt, with an error exactly where strconv has one.
func checkToken(t *testing.T, tok string, ints bool) {
	got, gotErr := decodeFloat(tok)
	want, wantErr := strconv.ParseFloat(tok, 64)
	if (gotErr == nil) != (wantErr == nil) || wantErr == nil && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("float %q: codec %v (%x, %v), strconv %v (%x, %v)", tok, got, math.Float64bits(got), gotErr, want, math.Float64bits(want), wantErr)
	}
	for _, size := range []int{64, 32} {
		if !ints {
			break
		}
		got, gotErr := decodeInt(tok, size)
		want, wantErr := strconv.ParseInt(tok, 10, size)
		if (gotErr == nil) != (wantErr == nil) || wantErr == nil && got != want {
			t.Fatalf("int%d %q: codec %d (%v), strconv %d (%v)", size, tok, got, gotErr, want, wantErr)
		}
	}
}

// hardNumbers are the tokens where a one-pass conversion could part from
// strconv: the boundaries of the subnormal and normal ranges, the
// largest double and the halfway point above it, decimal halfway points
// between adjacent doubles, mantissas of 19 and 20 digits, and
// exponents that underflow, overflow or overflow an int.
var hardNumbers = []string{
	"4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
	"2.2250738585072011e-308", "2.2250738585072014e-308", "2.2250738585072012e-308",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
	"-0", "-0.0", "0e-99999", "0e99999999999999999999", "1e-400", "-1e-400",
	"1e99999999999999999999", "1e-99999999999999999999", "1e308", "1e309", "1e-324",
	"9007199254740993", "9007199254740992.5", "9007199254740993e-3", "-9007199254740995",
	"18446744073709551615", "18446744073709551616", "18446744073709551617",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
	"2147483647", "2147483648", "-2147483648", "-2147483649",
	"1234567890123456789", "12345678901234567890", "1234567890123456789e-10",
	"12345678901234567891e-30", "0.1234567890123456789", "0.12345678901234567891",
	"0.000000000000000000000000000000000000000000001", "100000000000000000000000",
	"1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124",
	"1.00000000000000011102230246251565404236316680908203126",
	"7.2057594037927933e16", "1e22", "1e23", "9.007199254740993e15", "1e-22", "1e-23",
}

// halfway returns the exact decimal midpoint between x (not 0) and the
// next double away from zero, or the point where the largest double
// starts rounding to infinity, shortened to its significant digits.
func halfway(x float64) string {
	step := math.Abs(math.Nextafter(x, math.Copysign(math.Inf(1), x)) - x)
	if math.IsInf(step, 0) {
		// Past the largest double, the step is the one below it.
		step = x - math.Nextafter(x, 0)
	}
	mid := new(big.Float).SetPrec(2200).SetFloat64(step)
	mid.Quo(mid, big.NewFloat(math.Copysign(2, x)))
	mid.Add(mid, new(big.Float).SetPrec(2200).SetFloat64(x))
	s := mid.Text('e', 800)
	i := strings.IndexByte(s, 'e')
	return strings.TrimRight(strings.TrimRight(s[:i], "0"), ".") + s[i:]
}

// TestDecodeNumbersMatchStrconv pins the one-pass number conversion to
// strconv over random doubles in every format encoding/json and other
// writers produce, random digit strings with exponents, decimal halfway
// points and hardNumbers.
func TestDecodeNumbersMatchStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Only the 'f' form can be an integer; the others check as ints
	// in the digit strings.
	formats := func(x float64) {
		checkToken(t, strconv.FormatFloat(x, 'g', -1, 64), false)
		checkToken(t, strconv.FormatFloat(x, 'e', 15, 64), false)
		checkToken(t, strconv.FormatFloat(x, 'e', 16, 64), false)
		checkToken(t, strconv.FormatFloat(x, 'e', 19, 64), false)
		checkToken(t, strconv.FormatFloat(x, 'f', -1, 64), true)
	}
	for range 20000 {
		x := math.Float64frombits(rng.Uint64())
		if math.IsInf(x, 0) || math.IsNaN(x) {
			continue
		}
		formats(x)
	}
	for range 20000 {
		x := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(61)-30))
		formats(x)
	}
	const digits = "0123456789"
	for range 20000 {
		var b strings.Builder
		if rng.Intn(2) == 0 {
			b.WriteByte('-')
		}
		n := 1 + rng.Intn(25)
		point := rng.Intn(n + 1)
		for i := range n {
			switch {
			case i == 0 && point > 1:
				b.WriteByte(digits[1+rng.Intn(9)])
			case i == 0 && point == 0:
				b.WriteString("0.")
				b.WriteByte(digits[rng.Intn(10)])
			default:
				if i == point {
					b.WriteByte('.')
				}
				b.WriteByte(digits[rng.Intn(10)])
			}
		}
		switch rng.Intn(3) {
		case 1:
			b.WriteString("e" + strconv.Itoa(rng.Intn(700)-350))
		case 2:
			b.WriteString("E+" + strconv.Itoa(rng.Intn(30)))
		}
		checkToken(t, b.String(), true)
	}
	for range 1000 {
		checkToken(t, halfway(math.Float64frombits(rng.Uint64()>>1)), false)
		// Midpoints between doubles in [2⁵³, 2⁶⁴) are integers of at most
		// 20 digits, which reach Eisel–Lemire's halfway test.
		checkToken(t, halfway(math.Ldexp(1+rng.Float64(), 53+rng.Intn(11))), true)
	}
	for _, tok := range hardNumbers {
		checkToken(t, tok, true)
		checkToken(t, halfway(nonZero(tok)), true)
	}
}

// nonZero parses tok, or returns 1 where it is 0 or out of range.
func nonZero(tok string) float64 {
	x, err := strconv.ParseFloat(tok, 64)
	if err != nil || x == 0 {
		return 1
	}
	return x
}

// FuzzDecodeNumber builds a JSON number token from its input — sign,
// digits with a point placed among them, and an optional exponent — and
// checks the codec against encoding/json decoding the same token into a
// float64 and into an int: an error exactly where encoding/json has one,
// and the same value, floats bit for bit.
func FuzzDecodeNumber(f *testing.F) {
	f.Add(false, "7337478125823434", 1, int64(0), uint8(0))
	f.Add(true, "17976931348623159", 1, int64(308), uint8(1))
	f.Add(false, "49406564584124654", 1, int64(-324), uint8(1))
	f.Add(false, "9223372036854775808", 19, int64(0), uint8(0))
	f.Add(true, "9223372036854775808", 19, int64(0), uint8(0))
	f.Add(false, "1", 1, int64(99999999), uint8(3))
	f.Add(false, "9007199254740993", 16, int64(0), uint8(0))
	f.Add(false, "100000000000000000000000000001", 1, int64(-5), uint8(5))
	f.Fuzz(func(t *testing.T, neg bool, digits string, point int, exp int64, flags uint8) {
		var b strings.Builder
		if neg {
			b.WriteByte('-')
		}
		ds := []byte(digits)
		if len(ds) == 0 {
			ds = []byte{'0'}
		}
		for i, c := range ds {
			ds[i] = '0' + c%10
		}
		point = int(uint(point) % uint(len(ds)+1))
		whole := strings.TrimLeft(string(ds[:point]), "0")
		if whole == "" {
			whole = "0"
		}
		b.WriteString(whole)
		if point < len(ds) {
			b.WriteByte('.')
			b.Write(ds[point:])
		}
		if flags&1 != 0 {
			b.WriteByte("eE"[flags>>1&1])
			if exp >= 0 && flags&4 != 0 {
				b.WriteByte('+')
			}
			b.WriteString(strconv.FormatInt(exp, 10))
		}
		tok := b.String()

		var wantF float64
		wantFErr := json.Unmarshal([]byte(tok), &wantF)
		var wantN int
		wantNErr := json.Unmarshal([]byte(tok), &wantN)
		got, gotErr := decodeFloat(tok)
		n, nErr := decodeInt(tok, strconv.IntSize)
		if (gotErr == nil) != (wantFErr == nil) || wantFErr == nil && math.Float64bits(got) != math.Float64bits(wantF) {
			t.Fatalf("float %q: codec %v (%v), encoding/json %v (%v)", tok, got, gotErr, wantF, wantFErr)
		}
		if (nErr == nil) != (wantNErr == nil) || wantNErr == nil && int(n) != wantN {
			t.Fatalf("int %q: codec %d (%v), encoding/json %d (%v)", tok, n, nErr, wantN, wantNErr)
		}
	})
}
