// Package nondetfix exercises the nondet-source rule: scoped as a
// determinism-contract package, every source of nondeterministic order
// is a finding where it stands — no flow into a schedule is needed —
// while the order-free uses of the same constructs next to them stay
// silent and the waiver works. It is compiled by the lucheck tests
// under a virtual import path and must never build as part of the real
// module.
package nondetfix

import (
	"math/rand" // want nondet-source
	"time"
)

// Keys ranges over a map: one finding, whatever happens to the keys.
func Keys(m map[int]int) []int {
	var out []int
	for k := range m { // want nondet-source
		out = append(out, k)
	}
	return out
}

// Lookup only indexes the map: there is no order to leak.
func Lookup(m map[int]int, k int) int { return m[k] }

// Either selects over two communication cases: when both are ready the
// runtime picks one at random.
func Either(a, b <-chan int) int {
	select { // want nondet-source
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// Poll has one communication case and a default: deterministic given
// the channel's state, so it stays legal.
func Poll(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// Stamp reads the wall clock twice: two findings.
func Stamp() time.Duration {
	t0 := time.Now()      // want nondet-source
	return time.Since(t0) // want nondet-source
}

// Draw uses the banned import; the import line carries the finding.
func Draw() int { return rand.Int() }

// Waived shows the suppression path.
func Waived(m map[int]int) int {
	n := 0
	//lucheck:allow nondet-source — fixture: a count does not depend on the order
	for range m {
		n++
	}
	return n
}
