package server

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// Request numbers are read once. The scan that checks a number's JSON
// grammar also gathers its first 19 significant digits into a uint64
// mantissa and its decimal exponent, and converts them the way
// strconv.ParseFloat does, after Lemire, "Number Parsing at a Gigabyte
// per Second" (arXiv:2101.11408):
//   - a mantissa below 2⁵³ times or over an exact power of ten up to
//     10²² is one correctly rounded floating-point operation;
//   - otherwise Eisel–Lemire: a 64×128-bit product with a truncated
//     power of ten, which yields the correctly rounded result or
//     declines;
//   - when it declines (a product too close to a halfway point, a
//     subnormal or out-of-range result) or a non-zero digit followed the
//     19th, strconv.ParseFloat parses the token.
// Each step yields the correctly rounded value or passes the token on,
// so the result is strconv's bit for bit, and strconv alone decides
// whether a number overflows. Integers take the mantissa when the token
// has no fraction or exponent and fits; strconv.ParseInt refuses the
// rest. TestDecodeNumbersMatchStrconv and FuzzDecodeNumber pin both.

// number is what one scan of a JSON number finds: its value is
// man × 10^exp, up to the digits after the 19th significant one.
type number struct {
	man      uint64 // the first 19 significant digits
	exp      int    // the written exponent saturates past 10⁶, so it never wraps
	neg      bool
	trunc    bool // a non-zero digit followed the 19th significant one
	integral bool // no fraction and no exponent
}

// maxMantDigits is the number of decimal digits a uint64 always holds.
const maxMantDigits = 19

// number scans the JSON number -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
// at d.pos and gathers its mantissa and exponent on the way.
func (d *decoder) number() (number, error) {
	data, i := d.data, d.pos
	var (
		man      uint64
		exp, nd  int // nd counts the significant digits in man
		neg      = i < len(data) && data[i] == '-'
		trunc    bool
		integral = true
	)
	if neg {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		for ; i < len(data); i++ {
			c := data[i] - '0'
			if c > 9 {
				break
			}
			if nd < maxMantDigits {
				man = man*10 + uint64(c)
				nd++
			} else {
				exp++
				trunc = trunc || c != 0
			}
		}
	default:
		d.pos = i
		return number{}, d.fail("want a number")
	}
	if i < len(data) && data[i] == '.' {
		integral = false
		i++
		start := i
		// Zeros before the first significant digit only move the
		// exponent; then the digits go in eight at a time while they fit.
		for ; man == 0 && i < len(data) && data[i] == '0'; i++ {
			exp--
		}
		for nd+8 <= maxMantDigits && i+8 <= len(data) {
			v, ok := eightDigits(binary.LittleEndian.Uint64(data[i:]))
			if !ok {
				break
			}
			man = man*1e8 + v
			exp -= 8
			nd += 8
			i += 8
		}
		for ; i < len(data); i++ {
			c := data[i] - '0'
			if c > 9 {
				break
			}
			if nd < maxMantDigits {
				man = man*10 + uint64(c)
				exp--
				nd++
			} else {
				trunc = trunc || c != 0
			}
		}
		if i == start {
			d.pos = i
			return number{}, d.fail("want a digit after '.'")
		}
	}
	if i < len(data) && data[i]|0x20 == 'e' {
		integral = false
		i++
		eneg := false
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			eneg = data[i] == '-'
			i++
		}
		start, e := i, 0
		for ; i < len(data); i++ {
			c := data[i] - '0'
			if c > 9 {
				break
			}
			if e < 1e6 {
				e = e*10 + int(c)
			}
		}
		if i == start {
			d.pos = i
			return number{}, d.fail("want a digit in exponent")
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	d.pos = i
	return number{man: man, exp: exp, neg: neg, trunc: trunc, integral: integral}, nil
}

// eightDigits returns the value of the eight digits v holds, first
// digit in the low byte, or false when a byte of v is not a digit.
// A byte outside '0'…'9' sets its top bit either when 0x46 is added
// (above '9') or when 0x30 is taken away (below '0'); the lowest such
// byte does so with no carry or borrow from the digits below it.
func eightDigits(v uint64) (uint64, bool) {
	if ((v+0x4646464646464646)|(v-0x3030303030303030))&0x8080808080808080 != 0 {
		return 0, false
	}
	v -= 0x3030303030303030
	// Bytes 0, 2, 4, 6 become the two-digit numbers p0…p3; then
	// p0·10⁶ + p1·10⁴ + p2·10² + p3 collects at bit 32 of two products.
	v = v*10 + v>>8
	const lanes = 0x000000ff000000ff // bytes 0 and 4
	v = ((v&lanes)*(100+1000000<<32) + (v>>16&lanes)*(1+10000<<32)) >> 32
	return v, true
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// float64 converts the number, or reports false where strconv must.
func (n *number) float64() (float64, bool) {
	if n.man == 0 {
		if n.neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if n.trunc {
		return 0, false
	}
	if n.man < 1<<53 && -22 <= n.exp && n.exp <= 22 {
		f := float64(n.man)
		if n.exp < 0 {
			f /= exactPow10[-n.exp]
		} else {
			f *= exactPow10[n.exp]
		}
		if n.neg {
			f = -f
		}
		return f, true
	}
	return eiselLemire(n.man, n.exp, n.neg)
}

// int converts the number to an integer of size bits, or reports false
// where it has a fraction or an exponent or may not fit.
func (n *number) int(size int) (int64, bool) {
	if !n.integral || n.exp != 0 {
		return 0, false
	}
	limit := uint64(1) << (size - 1)
	switch {
	case n.neg && n.man <= limit:
		return int64(-n.man), true
	case !n.neg && n.man < limit:
		return int64(n.man), true
	}
	return 0, false
}

// minPow10 and maxPow10 bound the exponents powersOfTen covers; a
// 19-digit mantissa times a power outside them is 0 or +Inf.
const (
	minPow10 = -348
	maxPow10 = 347
)

// powersOfTen[e-minPow10] is 10^e as a 128-bit mantissa {hi, lo},
// normalized so that the top bit of hi is set and truncated toward
// zero; its binary exponent is implied by ⌊e·log₂10⌋. It is computed
// exactly once, at package initialization.
var powersOfTen = func() *[maxPow10 - minPow10 + 1][2]uint64 {
	var t [maxPow10 - minPow10 + 1][2]uint64
	put := func(e int, m *big.Int) {
		var b [16]byte
		m.FillBytes(b[:])
		t[e-minPow10] = [2]uint64{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
	}
	p, ten, m := big.NewInt(1), big.NewInt(10), new(big.Int)
	for k := 0; k <= -minPow10; k++ {
		if k > 0 {
			p.Mul(p, ten)
		}
		if k <= maxPow10 {
			if s := p.BitLen() - 128; s > 0 {
				m.Rsh(p, uint(s))
			} else {
				m.Lsh(p, uint(-s))
			}
			put(k, m)
		}
		if k > 0 {
			// 10^k is not a power of two, so ⌊2^(127+L) / 10^k⌋ has
			// exactly 128 bits for L = bitlen(10^k).
			m.Lsh(big.NewInt(1), uint(127+p.BitLen()))
			put(-k, m.Quo(m, p))
		}
	}
	return &t
}()

// eiselLemire converts man × 10^exp10 (man ≠ 0) to the nearest float64,
// or reports false when the 128-bit product cannot settle the rounding
// or the result is subnormal, infinite or out of the table.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < minPow10 || exp10 > maxPow10 {
		return 0, false
	}
	pow := &powersOfTen[exp10-minPow10]
	clz := bits.LeadingZeros64(man)
	man <<= clz
	// The biased exponent of the product's leading bit, with 217706/2¹⁶
	// standing in for log₂10.
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	hi, lo := bits.Mul64(man, pow[0])
	// The 64 truncated bits of the power can carry into the low nine
	// bits of hi, the ones rounding reads, only when those are all ones:
	// then take the next 64 bits of the power into the product.
	if hi&0x1ff == 0x1ff && lo+man < man {
		hi2, lo2 := bits.Mul64(man, pow[1])
		lo += hi2
		if lo < hi2 {
			hi++
		}
		if hi&0x1ff == 0x1ff && lo+1 == 0 && lo2+man < man {
			return 0, false
		}
	}
	// Keep 54 bits: the 53 of the result and one to round with.
	top := hi >> 63
	m := hi >> (top + 9)
	exp2 -= 1 ^ top
	// The rounding bit set, every bit below it zero and the kept bits
	// even: the value is exactly halfway, to be rounded down to even, or
	// just above, to be rounded up, and the product cannot tell which.
	if lo == 0 && hi&0x1ff == 0 && m&3 == 1 {
		return 0, false
	}
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	// exp2 = 0 (subnormal) wraps around, so one comparison refuses both ends.
	if exp2-1 >= 0x7ff-1 {
		return 0, false
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
