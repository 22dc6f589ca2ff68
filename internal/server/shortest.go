package server

import "math/bits"

// Reply numbers are written once. A normal double goes straight from
// its bits to the shortest decimal that reads back as it, by Schubfach
// (R. Giulietti, "The Schubfach way to render doubles", 2020), a
// relative of Ryū (Adams, PLDI 2018):
//   - the value c·2^q and the two ends of its rounding interval are
//     scaled by 10^-k, k = ⌊log₁₀ 2^q⌋, with two bits to spare; each
//     scaling is one 64×128-bit product with g = ⌊10^-k·2^-r⌋ + 1,
//     rounded to odd so that the comparisons below stay exact;
//   - the scaled value s has at most one digit more than the shortest
//     decimal in the interval, so one test looks for a multiple of ten
//     in it (one digit fewer), and otherwise s or s+1 is in it: the
//     nearer one, the even one when both are as near.
//
// g is 126 bits wide. The decoder's powersOfTen entry T of 10^-k is
// the same power truncated to 128 bits, and ⌊⌊x⌋/4⌋ = ⌊x/4⌋, so g is
// exactly ⌊T/4⌋ + 1: the encoder reads the decoder's table and adds
// none of its own. The digits are laid out as encoding/json lays out
// strconv's: plain for 1e-6 ≤ |v| < 1e21, exponent form otherwise, with
// no leading zero in the exponent. Subnormals go to strconv instead
// (appendFloat): Schubfach tries only one digit fewer than the scaled
// value has, and the shortest form of a subnormal with a tiny
// significand can be shorter still (8e-323, where Schubfach writes
// 7.9e-323). TestEncodeFloatsMatchStrconv and FuzzEncodeFloat pin the
// bytes to json.Marshal's.

// shortestDecimal returns the shortest d·10^e that reads back as the
// normal double c·2^q (2⁵² ≤ c < 2⁵³): the nearest such decimal when
// several are as short, the one with the even last digit when two are
// as near.
func shortestDecimal(c uint64, q int) (d uint64, e int) {
	// The rounding interval is [cbl, cbr]·2^(q-2), open when c is odd.
	// At a power of two the lower neighbour is half as far, except at
	// 2^-1022, whose lower neighbour is a subnormal.
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	cbl := cb - 2
	var k int
	if c != 1<<52 || q == -1074 {
		k = q * 78913 >> 18 // ⌊log₁₀ 2^q⌋
	} else {
		cbl = cb - 1
		k = (q*631305 - 261663) >> 21 // ⌊log₁₀ (3/4·2^q)⌋
	}
	// 10^-k ≈ g·2^r with r = ⌊log₂ 10^-k⌋ - 125, so 4v·10^-k is
	// about cb·g·2^(q+r), which is (cb<<h)·g / 2¹²⁸.
	h := q + 217706*-k>>16 + 3 // 217706/2¹⁶ stands in for log₂10, as in eiselLemire
	pow := &powersOfTen[-k-minPow10]
	glo, carry := bits.Add64(pow[0]<<62|pow[1]>>2, 1, 0)
	ghi := pow[0]>>2 + carry
	vbl := roundToOdd(ghi, glo, cbl<<h)
	vb := roundToOdd(ghi, glo, cb<<h)
	vbr := roundToOdd(ghi, glo, cbr<<h)

	// s is the scaled value's integer part. The interval may hold a
	// multiple of ten one digit shorter than s, or else s or s+1.
	s := vb >> 2
	if s >= 100 {
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return sp10, k
			}
			return tp10, k
		}
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	// Both are in: the nearer, and s on a tie when it is even.
	if cmp := int64(vb) - int64(s+t)<<1; cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// roundToOdd returns ⌊g·cp / 2¹²⁸⌋ for g = ghi·2⁶⁴ + glo, with its
// lowest bit set when the fraction it drops is not zero. g exceeds
// the exact power by less than one unit, which leaves an exact
// product's top 64 fraction bits zero.
func roundToOdd(ghi, glo, cp uint64) uint64 {
	xhi, _ := bits.Mul64(glo, cp)
	yhi, ylo := bits.Mul64(ghi, cp)
	ylo, carry := bits.Add64(ylo, xhi, 0)
	yhi += carry
	if ylo > 1 {
		yhi |= 1
	}
	return yhi
}

// put8 writes the eight digits of v < 10⁸, leading zeros included,
// to dst[:8].
func put8(dst []byte, v uint32) {
	hi, lo := v/10000, v%10000
	a, b, c, d := hi/100, hi%100, lo/100, lo%100
	_ = dst[7]
	dst[0], dst[1] = digitPairs[2*a], digitPairs[2*a+1]
	dst[2], dst[3] = digitPairs[2*b], digitPairs[2*b+1]
	dst[4], dst[5] = digitPairs[2*c], digitPairs[2*c+1]
	dst[6], dst[7] = digitPairs[2*d], digitPairs[2*d+1]
}

// digitPairs holds "00" through "99".
const digitPairs = "" +
	"0001020304050607080910111213141516171819" +
	"2021222324252627282930313233343536373839" +
	"4041424344454647484950515253545556575859" +
	"6061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// appendDecimal writes d·10^e (d ≠ 0) in the exponent form when exp is
// set and in the plain form otherwise. The digits go into buf ending at
// end; the layout is then made around them in buf and appended at once.
func appendDecimal(b []byte, d uint64, e int, exp bool) []byte {
	for d%10 == 0 {
		d /= 10
		e++
	}
	// Eight digits at a time in 32-bit arithmetic: d < 10¹⁸.
	const end = 24
	var buf [end + 24]byte
	i := end
	for d >= 1e8 {
		q := d / 1e8
		i -= 8
		put8(buf[i:], uint32(d-q*1e8))
		d = q
	}
	v := uint32(d)
	for v >= 100 {
		q := v / 100
		r := v - q*100
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*r], digitPairs[2*r+1]
		v = q
	}
	if v >= 10 {
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*v], digitPairs[2*v+1]
	} else {
		i--
		buf[i] = byte('0' + v)
	}
	n := end - i
	point := n + e // the first point digits are the integer part
	if exp {
		// d.ddde±x
		buf[i-1], buf[i] = buf[i], '.'
		j := end
		if n == 1 {
			j = i
		}
		x, sign := point-1, byte('+')
		if x < 0 {
			x, sign = -x, '-'
		}
		buf[j], buf[j+1] = 'e', sign
		j += 2
		if x >= 100 {
			buf[j] = byte('0' + x/100)
			x %= 100
			j++
		} else if x < 10 {
			buf[j] = byte('0' + x)
			return append(b, buf[i-1:j+1]...)
		}
		buf[j], buf[j+1] = digitPairs[2*x], digitPairs[2*x+1]
		return append(b, buf[i-1:j+2]...)
	}
	switch {
	case point <= 0: // 0.000ddd, at most five zeros from 1e-6 on
		for j := i + point; j < i; j++ {
			buf[j] = '0'
		}
		buf[i+point-2], buf[i+point-1] = '0', '.'
		return append(b, buf[i+point-2:end]...)
	case point < n: // ddd.ddd
		copy(buf[i-1:], buf[i:i+point])
		buf[i-1+point] = '.'
		return append(b, buf[i-1:end]...)
	}
	// ddd000, at most twenty zeros below 1e21
	for j := end; j < i+point; j++ {
		buf[j] = '0'
	}
	return append(b, buf[i:i+point]...)
}
