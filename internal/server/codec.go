package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/core"
)

// The wire codec. One hand-written decoder reads the analyze, factorize
// and solve request bodies, and one encoder writes the solve reply, in
// place of encoding/json's reflection: the decoder walks the body once
// and converts every number in the scan that checks its grammar
// (number.go), with strconv only as the fallback.
//
// The contract is encoding/json's, not the JSON grammar's. The decoder
// accepts exactly the bodies a json.Decoder with DisallowUnknownFields
// accepts into the same struct, with the same values bit for bit:
//   - only the first value is read, and whatever follows it is ignored;
//   - keys match field names case-insensitively under Unicode simple
//     folding, after their escapes are decoded;
//   - a duplicate key decodes over the earlier value: a duplicate array
//     reuses the earlier slice in place and is then truncated;
//   - null clears a slice and leaves a number, string, bool or object
//     as it was;
//   - a number must be a JSON number that strconv parses into the
//     field's type in range, so 1e400 and 1.5 into an int are refused;
//   - an invalid UTF-8 byte in a string becomes U+FFFD.
// FuzzDecodeRequest checks the equivalence against encoding/json, and
// TestEncodeSolveMatchesMarshal the encoder's bytes against json.Marshal.

// decoder is the scan state over one request body.
type decoder struct {
	data []byte
	pos  int
}

// decodeRequest decodes the first JSON value of data into a request
// whose fields decodes the value of one key (and refuses an unknown
// one). A top-level null leaves the request as it is.
func decodeRequest(data []byte, fields func(d *decoder, key []byte) error) error {
	d := &decoder{data: data}
	d.ws()
	if d.pos == len(data) {
		return fmt.Errorf("empty body")
	}
	if d.null() {
		return nil
	}
	return d.object(fields)
}

func (d *decoder) fail(format string, args ...any) error {
	return fmt.Errorf("%s at offset %d", fmt.Sprintf(format, args...), d.pos)
}

// peek returns the next byte, or 0 at the end — a byte that is never
// valid outside a string, so it fails every check a real byte would.
func (d *decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *decoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// literal consumes lit if the input continues with it.
func (d *decoder) literal(lit string) bool {
	if len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

// null consumes a null; the first byte settles most calls.
func (d *decoder) null() bool { return d.peek() == 'n' && d.literal("null") }

// object decodes {"key": value, ...} into the struct behind fields.
func (d *decoder) object(fields func(d *decoder, key []byte) error) error {
	if d.peek() != '{' {
		return d.fail("want an object")
	}
	d.pos++
	d.ws()
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		key, err := d.str()
		if err != nil {
			return err
		}
		d.ws()
		if d.peek() != ':' {
			return d.fail("want ':' after object key")
		}
		d.pos++
		d.ws()
		if err := fields(d, key); err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.pos++
			d.ws()
		case '}':
			d.pos++
			return nil
		default:
			return d.fail("want ',' or '}' in object")
		}
	}
}

// keyIs matches an object key against a field name the way
// encoding/json does: exactly, or equal under Unicode simple folding.
func keyIs(key []byte, name string) bool {
	return string(key) == name || strings.EqualFold(string(key), name)
}

func (d *decoder) unknown(key []byte) error {
	return d.fail("unknown field %q", key)
}

// str scans a string and returns its decoded bytes. The result aliases
// the input when the string has no escapes and is valid UTF-8.
func (d *decoder) str() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.fail("want a string")
	}
	d.pos++
	start := d.pos
	plain, ascii := true, true
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; {
		case c == '"':
			raw := d.data[start:d.pos]
			d.pos++
			if plain && (ascii || utf8.Valid(raw)) {
				return raw, nil
			}
			return unquote(raw), nil
		case c < 0x20:
			return nil, d.fail("control character in string")
		case c == '\\':
			plain = false
			d.pos++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				if hex4(d.data[d.pos+1:]) < 0 {
					return nil, d.fail("invalid \\u escape")
				}
				d.pos += 5
			default:
				return nil, d.fail("invalid escape in string")
			}
			continue
		case c >= utf8.RuneSelf:
			ascii = false
		}
		d.pos++
	}
	return nil, d.fail("unterminated string")
}

// hex4 parses the four hex digits at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// unquote decodes the escapes of a scanned string body as
// encoding/json does: a surrogate pair joins, a lone surrogate and every
// invalid UTF-8 byte become U+FFFD.
func unquote(s []byte) []byte {
	b := make([]byte, 0, len(s)+utf8.UTFMax)
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(s[r+2:])
				r += 6
				if utf16.IsSurrogate(rr) {
					lo := rune(-1)
					if r+1 < len(s) && s[r] == '\\' && s[r+1] == 'u' {
						lo = hex4(s[r+2:])
					}
					if dec := utf16.DecodeRune(rr, lo); dec != unicode.ReplacementChar {
						r += 6
						b = utf8.AppendRune(b, dec)
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	return b
}

func (d *decoder) float(v *float64) error {
	if d.null() {
		return nil
	}
	start := d.pos
	n, err := d.number()
	if err != nil {
		return err
	}
	if f, ok := n.float64(); ok {
		*v = f
		return nil
	}
	tok := d.data[start:d.pos]
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return d.fail("number %s does not fit a float64", tok)
	}
	*v = f
	return nil
}

// integer parses into an integer of bits bits; JSON numbers with a
// fraction or an exponent do not parse.
func (d *decoder) integer(bits int) (int64, bool, error) {
	if d.null() {
		return 0, false, nil
	}
	start := d.pos
	n, err := d.number()
	if err != nil {
		return 0, false, err
	}
	if v, ok := n.int(bits); ok {
		return v, true, nil
	}
	tok := d.data[start:d.pos]
	v, err := strconv.ParseInt(string(tok), 10, bits)
	if err != nil {
		return 0, false, d.fail("number %s does not fit an int%d", tok, bits)
	}
	return v, true, nil
}

func (d *decoder) int(v *int) error {
	n, ok, err := d.integer(strconv.IntSize)
	if ok {
		*v = int(n)
	}
	return err
}

func (d *decoder) int64(v *int64) error {
	n, ok, err := d.integer(64)
	if ok {
		*v = n
	}
	return err
}

func (d *decoder) bool(v *bool) error {
	switch {
	case d.null():
	case d.literal("true"):
		*v = true
	case d.literal("false"):
		*v = false
	default:
		return d.fail("want a bool")
	}
	return nil
}

func (d *decoder) string(v *string) error {
	if d.null() {
		return nil
	}
	s, err := d.str()
	if err != nil {
		return err
	}
	*v = string(s)
	return nil
}

func (d *decoder) floats(v *[]float64) (err error) {
	*v, err = decodeSlice(d, presize(d, *v), (*decoder).float)
	return err
}

func (d *decoder) ints(v *[]int) (err error) {
	*v, err = decodeSlice(d, presize(d, *v), (*decoder).int)
	return err
}

// presize gives s the capacity for the number array at d.pos, counted
// from its commas up to the first ']', so that decodeSlice need not grow
// it one append at a time. It is only a capacity hint: the old elements
// past len(s), which decodeSlice exposes again as encoding/json does,
// are carried over.
func presize[T any](d *decoder, s []T) []T {
	rest := d.data[d.pos:]
	if len(rest) == 0 || rest[0] != '[' {
		return s
	}
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return s
	}
	n := bytes.Count(rest[:end], []byte{','}) + 1
	if n <= max(cap(s), 1) {
		return s
	}
	t := make([]T, n)
	copy(t, s[:cap(s)])
	return t[:len(s)]
}

func (d *decoder) floatRows(v *[][]float64) (err error) {
	*v, err = decodeSlice(d, *v, (*decoder).floats)
	return err
}

// decodeSlice decodes an array over s the way encoding/json does: the
// elements are decoded into s in place, growing it one append at a time
// past its capacity and truncating it at the end; [] is a fresh empty
// slice, null a nil one.
func decodeSlice[T any](d *decoder, s []T, elem func(*decoder, *T) error) ([]T, error) {
	if d.null() {
		return nil, nil
	}
	if d.peek() != '[' {
		return s, d.fail("want an array")
	}
	d.pos++
	d.ws()
	if d.peek() == ']' {
		d.pos++
		return []T{}, nil
	}
	for i := 0; ; i++ {
		if i == len(s) {
			if i < cap(s) {
				s = s[:i+1]
			} else {
				var zero T
				s = append(s, zero)
			}
		}
		if err := elem(d, &s[i]); err != nil {
			return s, err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.pos++
			d.ws()
		case ']':
			d.pos++
			return s[:i+1], nil
		default:
			return s, d.fail("want ',' or ']' in array")
		}
	}
}

func (m *matrixJSON) field(d *decoder, key []byte) error {
	switch {
	case keyIs(key, "n"):
		return d.int(&m.N)
	case keyIs(key, "rows"):
		return d.ints(&m.Rows)
	case keyIs(key, "cols"):
		return d.ints(&m.Cols)
	case keyIs(key, "vals"):
		return d.floats(&m.Vals)
	}
	return d.unknown(key)
}

func (d *decoder) matrix(m *matrixJSON) error {
	if d.null() {
		return nil
	}
	return d.object(m.field)
}

func (r *analyzeRequest) field(d *decoder, key []byte) error {
	switch {
	case keyIs(key, "matrix"):
		return d.matrix(&r.Matrix)
	case keyIs(key, "timeout_ms"):
		return d.int64(&r.TimeoutMS)
	}
	return d.unknown(key)
}

func (r *factorizeRequest) field(d *decoder, key []byte) error {
	switch {
	case keyIs(key, "matrix"):
		return d.matrix(&r.Matrix)
	case keyIs(key, "policy"):
		return d.string(&r.Policy)
	case keyIs(key, "timeout_ms"):
		return d.int64(&r.TimeoutMS)
	}
	return d.unknown(key)
}

func (r *solveRequest) field(d *decoder, key []byte) error {
	switch {
	case keyIs(key, "fid"):
		return d.string(&r.FID)
	case keyIs(key, "b"):
		return d.floats(&r.B)
	case keyIs(key, "bs"):
		return d.floatRows(&r.BS)
	case keyIs(key, "refine"):
		return d.bool(&r.Refine)
	case keyIs(key, "timeout_ms"):
		return d.int64(&r.TimeoutMS)
	}
	return d.unknown(key)
}

// ---- bodies ----

// maxPooledBuf bounds the buffers kept for reuse: a rare large matrix
// body is left to the collector rather than pinned in the pool.
const maxPooledBuf = 4 << 20

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(p *[]byte) {
	if cap(*p) <= maxPooledBuf {
		*p = (*p)[:0]
		bufPool.Put(p)
	}
}

// readBody reads the whole request body into *p, presized from the
// declared Content-Length up to maxPooledBuf (a declared length is not
// yet a body, so it does not buy a larger allocation).
func readBody(r *http.Request, p *[]byte) error {
	b := (*p)[:0]
	if n := min(r.ContentLength, maxPooledBuf); n > 0 && int(n) >= cap(b) {
		b = make([]byte, 0, n+1)
	}
	defer func() { *p = b }()
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// ---- the solve reply ----

// encodeSolve appends the JSON encoding of r to b, byte-identical to
// json.Marshal's: omitempty fields in declaration order, floats in the
// ES6 number format. A NaN or Inf, which JSON cannot hold, is an error
// of the non-finite class instead.
func encodeSolve(b []byte, r *solveResponse) ([]byte, error) {
	var err error
	b = append(b, '{')
	if len(r.X) > 0 {
		b = append(b, `"x":`...)
		if b, err = appendFloats(b, "x", r.X); err != nil {
			return b, err
		}
		b = append(b, ',')
	}
	if len(r.XS) > 0 {
		b = append(b, `"xs":[`...)
		for i, x := range r.XS {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendFloats(b, "xs", x); err != nil {
				return b, err
			}
		}
		b = append(b, "],"...)
	}
	if r.Residual != 0 {
		b = append(b, `"residual":`...)
		if b, err = appendFloat(b, "residual", r.Residual); err != nil {
			return b, err
		}
		b = append(b, ',')
	}
	if len(r.Residuals) > 0 {
		b = append(b, `"residuals":`...)
		if b, err = appendFloats(b, "residuals", r.Residuals); err != nil {
			return b, err
		}
		b = append(b, ',')
	}
	if r.RefineSteps != 0 {
		b = append(b, `"refine_steps":`...)
		b = strconv.AppendInt(b, int64(r.RefineSteps), 10)
		b = append(b, ',')
	}
	rung, err := json.Marshal(r.Rung)
	if err != nil {
		return b, err
	}
	b = append(b, `"rung":`...)
	b = append(b, rung...)
	return append(b, '}'), nil
}

// appendFloats encodes a slice as encoding/json does: nil is null.
func appendFloats(b []byte, field string, xs []float64) ([]byte, error) {
	if xs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, v := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendFloat(b, field, v); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// appendFloat is encoding/json's float64 format: the shortest
// round-tripping decimal, in exponent form below 1e-6 and from 1e21 on,
// with a one-digit negative exponent written without its leading zero
// (shortest.go). A NaN or Inf is an error of the non-finite class.
func appendFloat(b []byte, field string, f float64) ([]byte, error) {
	u := math.Float64bits(f)
	be := int(u>>52) & 0x7ff
	switch {
	case be == 0x7ff:
		return b, fmt.Errorf("server: reply field %s holds %v: %w", field, f, core.ErrNonFinite)
	case u<<1 == 0:
		if u != 0 {
			return append(b, "-0"...), nil
		}
		return append(b, '0'), nil
	case be == 0:
		// A subnormal's exponent has three digits, so strconv's is
		// already encoding/json's.
		return strconv.AppendFloat(b, f, 'e', -1, 64), nil
	}
	if u>>63 != 0 {
		b = append(b, '-')
	}
	d, e := shortestDecimal(u&(1<<52-1)|1<<52, be-1075)
	abs := math.Abs(f)
	return appendDecimal(b, d, e, abs < 1e-6 || abs >= 1e21), nil
}
